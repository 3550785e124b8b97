"""CI perf gate: compare BENCH_simulator.json against the committed baseline.

Usage::

    python benchmarks/check_perf_regression.py [results.json] [baseline.json]

Fails (exit 1) if any gated number regresses by more than the allowed
fraction versus ``benchmarks/perf_baseline.json``.  Gated numbers:

* the four single-process throughput scenarios (``throughput.pps``),
  all measured with codegen disabled (they gate the interpreted
  pipeline walk);
* codegen's packet rate on the same scenarios (``codegen.pps``) — they
  gate the trace-to-source generated code, the data plane's fast path;
* the shipped data plane's packet rate on the Zipf skewed-flow scenario
  (``flow_cache.skewed.pps``) and on the uniform scenario
  (``flow_cache.uniform.pps``, 2,000 flows with no locality).  The
  section is named for the flow cache these streams were built to
  measure; its floors now gate the fast path that replaced it;
* the sharded engine's projected aggregate capacity per worker count
  (``engine.by_workers.<N>.pps``) — the projection is CPU-time based and
  therefore stable across runners with different core counts;
* the engine's projected speedup at the highest worker count;
* the rebalanced pinned-owner scenario: a capacity floor
  (``engine.pinned_owner_rebalanced.pps``) plus two zero-tolerance
  ceilings — the post-rebalance hottest-shard share must stay <= the
  baseline 0.70 and growing a 4-worker ring to 5 must remap <= 35% of
  flows (both deterministic properties, gated exactly);
* the shared-memory southbound transport
  (``engine.transport.<N>.shm.pps``): projected-capacity floors on any
  host, plus — only on runners with >= 5 cores, where wall clock means
  something — a hard 1.8x floor on the 4-worker shm wall rate versus the
  single process (``engine.shm_wall_speedup_vs_single``);
* the fabric's projected aggregate capacity per leaf count
  (``fabric.by_leaves.<N>.pps``) and its capacity speedup at the highest
  leaf count — both CPU-time based like the engine projection;
* the control-plane deploy rate, cold and warm (``deploy.cold`` /
  ``deploy.warm`` in deploys/s) — warm goes through the relocatable
  allocation cache, cold through the full solve, so the pair catches a
  broken cache and a regressed solver independently;
* the deploy-storm service numbers (``deploy_storm``): the NDJSON
  thread-storm floor (``ndjson.deploys_per_s``), the binary
  ``deploy_many`` fast-path floor (``binary.deploys_per_s``), and an
  inverted gate on the binary amortized per-deploy latency
  (``binary.p50_ms`` is a *ceiling* — the gate trips when the measured
  p50 grows above baseline by more than the tolerance).

``PERF_REGRESSION_TOLERANCE`` overrides the allowed fractional drop
(default 0.30, i.e. fail below 70% of baseline) — CI runners are shared
and noisy, so the gate is deliberately loose; it exists to catch
order-of-magnitude regressions (an accidental fall back to the reference
path, a serialization stall in the engine), not single-digit drift.
Engine entries are skipped with a warning when the results file has no
``engine`` section (the scaling bench did not run), so the gate still
works on throughput-only runs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = REPO_ROOT / "BENCH_simulator.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "perf_baseline.json"


def check(label: str, got: float | None, base: float, tolerance: float) -> bool:
    """Print one gate row; returns True when the gate trips."""
    if got is None:
        print(f"{label:44} {'missing':>12} {base:>12,.2f}  <-- gate FAILED")
        return True
    ratio = got / base if base else float("inf")
    verdict = ""
    failed = ratio < 1.0 - tolerance
    if failed:
        verdict = "  <-- gate FAILED"
    print(f"{label:44} {got:>12,.1f} {base:>12,.1f} {ratio:>6.2f}x{verdict}")
    return failed


def check_ceiling(label: str, got: float | None, base: float, tolerance: float) -> bool:
    """Inverted gate for latency numbers: fail when ``got`` grows above
    ``base`` by more than the tolerance (lower is better)."""
    if got is None:
        print(f"{label:44} {'missing':>12} {base:>12,.2f}  <-- gate FAILED")
        return True
    ratio = got / base if base else float("inf")
    failed = ratio > 1.0 + tolerance
    verdict = "  <-- gate FAILED" if failed else ""
    print(f"{label:44} {got:>12,.3f} {base:>12,.3f} {ratio:>6.2f}x{verdict}")
    return failed


def main(argv: list[str]) -> int:
    results_path = Path(argv[1]) if len(argv) > 1 else DEFAULT_RESULTS
    baseline_path = Path(argv[2]) if len(argv) > 2 else DEFAULT_BASELINE
    tolerance = float(os.environ.get("PERF_REGRESSION_TOLERANCE", "0.30"))

    try:
        results = json.loads(results_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read results {results_path}: {exc}")
        return 1
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read baseline {baseline_path}: {exc}")
        return 1

    print(f"{'gated number':44} {'measured':>12} {'baseline':>12} {'ratio':>7}")
    failed = False

    measured = results.get("throughput", {}).get("pps", {})
    expected = baseline.get("pps", {})
    if not expected:
        print("FAIL: baseline has no throughput floors")
        return 1
    for scenario, base in expected.items():
        failed |= check(scenario, measured.get(scenario), base, tolerance)

    codegen_baseline = baseline.get("codegen", {})
    codegen_results = results.get("codegen", {})
    if codegen_baseline:
        if not codegen_results:
            print(
                "WARN: results have no codegen section "
                "(codegen bench not run); codegen gates skipped"
            )
        else:
            measured = codegen_results.get("pps", {})
            for scenario, base in codegen_baseline.get("pps", {}).items():
                failed |= check(
                    f"codegen: {scenario}", measured.get(scenario), base, tolerance
                )

    engine_baseline = baseline.get("engine", {})
    engine_results = results.get("engine", {})
    if engine_baseline:
        if not engine_results:
            print(
                "WARN: results have no engine section "
                "(scaling bench not run); engine gates skipped"
            )
        else:
            by_workers = engine_results.get("by_workers", {})
            for workers, base in engine_baseline.get("pps", {}).items():
                got = by_workers.get(workers, {}).get("pps")
                failed |= check(
                    f"engine capacity ({workers} workers)", got, base, tolerance
                )
            speedup_floor = engine_baseline.get("speedup_at_max_workers")
            if speedup_floor:
                counts = sorted(by_workers, key=int)
                top = counts[-1] if counts else None
                got = engine_results.get("speedup", {}).get(top)
                failed |= check(
                    f"engine speedup ({top} workers)",
                    got,
                    speedup_floor,
                    tolerance,
                )
            rebalanced = engine_results.get("pinned_owner_rebalanced", {})
            base = engine_baseline.get("rebalanced_pps")
            if base:
                failed |= check(
                    "engine rebalanced capacity",
                    rebalanced.get("pps"),
                    base,
                    tolerance,
                )
            # Hard bounds, zero tolerance: the post-rebalance shard
            # balance and the consistent-hash remap fraction are
            # deterministic properties, not noisy throughput numbers.
            share_ceiling = engine_baseline.get("rebalanced_max_share")
            if share_ceiling:
                failed |= check_ceiling(
                    "engine rebalanced max share (ceiling)",
                    rebalanced.get("max_share_after"),
                    share_ceiling,
                    0.0,
                )
            remap_ceiling = engine_baseline.get("ring_remap_4_to_5")
            if remap_ceiling:
                failed |= check_ceiling(
                    "engine ring remap 4->5 (ceiling)",
                    engine_results.get("ring_remap_4_to_5"),
                    remap_ceiling,
                    0.0,
                )
            transport_base = engine_baseline.get("transport", {})
            transport_results = engine_results.get("transport", {})
            if transport_base and not transport_results:
                print(
                    "WARN: results have no engine.transport section "
                    "(transport bench not run); shm transport gates skipped"
                )
            elif transport_base:
                # Projected-capacity floors hold on any host (CPU-time
                # based, like the engine.pps floors above).
                for workers, base in transport_base.get("shm_pps", {}).items():
                    got = transport_results.get(workers, {}).get("shm", {}).get(
                        "pps"
                    )
                    failed |= check(
                        f"engine shm capacity ({workers} workers)",
                        got,
                        base,
                        tolerance,
                    )
                # The wall-clock speedup floor is only meaningful when the
                # runner granted a core per replica (coordinator + 4
                # workers); smaller hosts time-slice the processes and the
                # wall number measures the scheduler, not the transport.
                wall_floor = transport_base.get("shm_wall_speedup_vs_single")
                if wall_floor and engine_results.get("cores", 0) >= 5:
                    failed |= check(
                        "engine shm wall speedup vs single",
                        engine_results.get("shm_wall_speedup_vs_single"),
                        wall_floor,
                        0.0,
                    )
                elif wall_floor:
                    print(
                        f"WARN: host has {engine_results.get('cores')} cores "
                        "(< 5); shm wall-speedup floor skipped, capacity "
                        "floors gated instead"
                    )

    fabric_baseline = baseline.get("fabric", {})
    fabric_results = results.get("fabric", {})
    if fabric_baseline:
        if not fabric_results:
            print(
                "WARN: results have no fabric section "
                "(fabric scaling bench not run); fabric gates skipped"
            )
        else:
            by_leaves = fabric_results.get("by_leaves", {})
            for leaves, base in fabric_baseline.get("pps", {}).items():
                got = by_leaves.get(leaves, {}).get("pps")
                failed |= check(
                    f"fabric capacity ({leaves} leaves)", got, base, tolerance
                )
            speedup_floor = fabric_baseline.get("speedup_at_max_leaves")
            if speedup_floor:
                counts = sorted(by_leaves, key=int)
                top = counts[-1] if counts else None
                got = fabric_results.get("speedup", {}).get(top)
                failed |= check(
                    f"fabric speedup ({top} leaves)",
                    got,
                    speedup_floor,
                    tolerance,
                )

    cache_baseline = baseline.get("flow_cache", {})
    cache_results = results.get("flow_cache", {})
    if cache_baseline:
        if not cache_results:
            print(
                "WARN: results have no flow_cache section "
                "(test_flow_cache_throughput not run); its gates skipped"
            )
        else:
            base = cache_baseline.get("skewed")
            if base:
                got = cache_results.get("skewed", {}).get("pps")
                failed |= check("flow_cache.skewed (pps)", got, base, tolerance)
            base = cache_baseline.get("uniform")
            if base:
                got = cache_results.get("uniform", {}).get("pps")
                failed |= check("flow_cache.uniform (pps)", got, base, tolerance)

    deploy_baseline = baseline.get("deploy", {})
    deploy_results = results.get("deploy", {})
    if deploy_baseline:
        if not deploy_results:
            print(
                "WARN: results have no deploy section "
                "(deploy-rate bench not run); deploy gates skipped"
            )
        else:
            for scenario, base in deploy_baseline.items():
                got = deploy_results.get(scenario, {}).get("deploys_per_s")
                failed |= check(f"deploy.{scenario} (deploys/s)", got, base, tolerance)

    storm_baseline = baseline.get("deploy_storm", {})
    storm_results = results.get("deploy_storm", {})
    if storm_baseline:
        if not storm_results:
            print(
                "WARN: results have no deploy_storm section "
                "(deploy-storm bench not run); deploy-storm gates skipped"
            )
        else:
            for codec in ("ndjson", "binary"):
                base = storm_baseline.get(codec, {}).get("deploys_per_s")
                if base:
                    got = storm_results.get(codec, {}).get("deploys_per_s")
                    failed |= check(
                        f"deploy_storm.{codec} (deploys/s)", got, base, tolerance
                    )
            p50_ceiling = storm_baseline.get("binary", {}).get("p50_ms")
            if p50_ceiling:
                got = storm_results.get("binary", {}).get("p50_ms")
                failed |= check_ceiling(
                    "deploy_storm.binary (p50 ms, ceiling)",
                    got,
                    p50_ceiling,
                    tolerance,
                )

    if failed:
        print(
            f"\nFAIL: at least one gated number regressed below "
            f"{(1.0 - tolerance) * 100:.0f}% of the committed baseline"
        )
        return 1
    print(f"\nOK: all gated numbers within {tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
