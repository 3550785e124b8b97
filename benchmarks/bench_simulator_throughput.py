"""Supplementary micro-benchmark: simulator packet throughput.

Not a paper artifact — a substrate quality metric.  Measures how many
packets per second the simulated data plane processes with 1 and with 15
resident programs (through the batched fast path), the per-deploy cost of
the full control-plane path, and the allocation solver's search rate.
Useful to size the case-study experiments and catch performance
regressions in the table/PHV hot paths.

Results are written to ``BENCH_simulator.json`` at the repo root — the
canonical machine-readable performance record (CI's perf-smoke job diffs
it against ``benchmarks/perf_baseline.json``).  ``pre_fast_path`` keeps
the numbers measured on this machine before the compiled fast path landed,
so the speedup stays visible next to the current run.

Pass ``--workers N`` (or set ``REPRO_BENCH_WORKERS=N``) to also measure
the 15-program scenario through an N-worker sharded engine;
``bench_engine_scaling.py`` holds the full 1/2/4-worker scaling study.
"""

import random
import time

from _common import banner, fmt_row, once, write_results

from repro.compiler.compiler import compile_source
from repro.compiler.objectives import f3
from repro.controlplane import Controller
from repro.programs import ALL_PROGRAM_NAMES, PROGRAMS
from repro.rmt.packet import make_cache, make_udp

#: pps measured on the pre-fast-path simulator (same scenarios, same
#: machine class) — kept for speedup reporting, not for CI gating.
PRE_FAST_PATH_PPS = {
    "idle (no programs)": 18335,
    "1 program (cache traffic)": 8953,
    "15 programs (cache traffic)": 7457,
    "15 programs (plain UDP)": 7057,
}


def pps(dataplane, packets, repeats=3):
    """Best-of-N batched packet rate; cloning counts against the clock,
    exactly as the pre-fast-path measurement did."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        dataplane.process_many([packet.clone() for packet in packets])
        elapsed = time.perf_counter() - start
        best = max(best, len(packets) / elapsed)
    return best


def engine_pps(num_workers, packets, repeats=3):
    """Best-of-N wall-clock packet rate through an N-worker sharded
    engine, all 15 programs resident (cms first so the multi-flow IP
    traffic is data-parallel; see bench_engine_scaling.py for the full
    scaling study and the capacity projection)."""
    from repro.engine import ShardedEngine

    with ShardedEngine(num_workers) as engine:
        engine.controller.deploy(PROGRAMS["cms"].source)
        for name in ALL_PROGRAM_NAMES:
            if name != "cms":
                engine.controller.deploy(PROGRAMS[name].source)
        plan = engine.plan(packets, mode="verdicts")
        best = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            engine.inject_plan(plan)
            elapsed = time.perf_counter() - start
            best = max(best, len(packets) / elapsed)
    return best


def test_packet_throughput(benchmark, engine_workers):
    def run():
        results = {}
        packets = [make_udp(i + 1, 2, 1000 + i, 80) for i in range(500)]
        cache_packets = [make_cache(1, 2, op=1, key=i) for i in range(500)]

        ctl, dataplane = Controller.with_simulator()
        # These four scenarios gate the *interpreter* hot path: codegen
        # would measure generated code, hiding a regression in the
        # pipeline walk itself.  The generated-code rate has its own
        # scenarios (and gates) in test_codegen_throughput and
        # test_flow_cache_throughput.
        dataplane.codegen.enabled = False
        results["idle (no programs)"] = pps(dataplane, packets)

        ctl.deploy(PROGRAMS["cache"].source)
        results["1 program (cache traffic)"] = pps(dataplane, cache_packets)

        for name in ALL_PROGRAM_NAMES:
            if name != "cache":
                ctl.deploy(PROGRAMS[name].source)
        results["15 programs (cache traffic)"] = pps(dataplane, cache_packets)
        results["15 programs (plain UDP)"] = pps(dataplane, packets)
        if engine_workers:
            flows = [
                make_cache(i % 64 + 1, 2, op=1, key=i % 50) for i in range(500)
            ]
            results[f"15 programs ({engine_workers} workers)"] = engine_pps(
                engine_workers, flows
            )
        return results

    results = once(benchmark, run)
    banner("Simulator throughput (packets/second, single core, batched)")
    for label, rate in results.items():
        baseline = PRE_FAST_PATH_PPS.get(label)
        speedup = f"{rate / baseline:.1f}x vs pre-fast-path" if baseline else ""
        print(fmt_row(label, f"{rate:,.0f} pps", speedup, widths=[30, 16, 24]))
    write_results(
        "throughput",
        {
            "pps": {label: round(rate, 1) for label, rate in results.items()},
            "pre_fast_path_pps": PRE_FAST_PATH_PPS,
            "speedup": {
                label: round(results[label] / base, 2)
                for label, base in PRE_FAST_PATH_PPS.items()
            },
        },
    )
    # Program-count scaling must stay sane thanks to the program-ID index.
    assert results["15 programs (cache traffic)"] > results["1 program (cache traffic)"] * 0.3
    assert results["idle (no programs)"] > 2000


def test_codegen_throughput(benchmark):
    """Trace-to-source codegen on the same scenarios as
    test_packet_throughput: every packet after the first runs through a
    generated function.  The speedup column compares against the
    interpreter rate measured in the same run (codegen off, same
    dataplane state)."""

    def run():
        results = {}
        packets = [make_udp(i + 1, 2, 1000 + i, 80) for i in range(500)]
        cache_packets = [make_cache(1, 2, op=1, key=i) for i in range(500)]

        ctl, dataplane = Controller.with_simulator()

        def measure(label, pkts):
            dataplane.codegen.enabled = False
            interp = pps(dataplane, pkts)
            dataplane.codegen.enabled = True
            # Warm pass: compile the generated functions outside the
            # clock (deploys between scenarios invalidate them anyway).
            dataplane.process_many([p.clone() for p in pkts])
            results[label] = {"pps": pps(dataplane, pkts), "interp": interp}

        measure("idle (no programs)", packets)
        ctl.deploy(PROGRAMS["cache"].source)
        measure("1 program (cache traffic)", cache_packets)
        for name in ALL_PROGRAM_NAMES:
            if name != "cache":
                ctl.deploy(PROGRAMS[name].source)
        measure("15 programs (cache traffic)", cache_packets)
        measure("15 programs (plain UDP)", packets)
        return results, dataplane.codegen.stats()

    results, stats = once(benchmark, run)
    banner("Codegen throughput (packets/second)")
    for label, r in results.items():
        print(
            fmt_row(
                label,
                f"{r['pps']:,.0f} pps",
                f"{r['pps'] / r['interp']:.1f}x vs interpreter",
                widths=[30, 16, 24],
            )
        )
    write_results(
        "codegen",
        {
            "pps": {label: round(r["pps"], 1) for label, r in results.items()},
            "interpreter_pps": {
                label: round(r["interp"], 1) for label, r in results.items()
            },
            "speedup_vs_interpreter": {
                label: round(r["pps"] / r["interp"], 2)
                for label, r in results.items()
            },
            "compiled": stats["compiled"],
            "fallbacks": stats["fallbacks"],
        },
    )
    # Every scenario must beat the interpreter it replaces, and all
    # traffic in these scenarios is codegen-servable (no fallbacks).
    for label, r in results.items():
        assert r["pps"] > r["interp"], label
    assert stats["hits"] > 0
    assert not stats["fallbacks"], stats["fallbacks"]


def zipf_stream(num_flows=2000, num_packets=4000, s=1.2, seed=42):
    """A skewed flow mix: flow popularity follows Zipf(s) over
    ``num_flows`` distinct 5-tuples — the head flows dominate, as in
    real traffic."""
    rng = random.Random(seed)
    weights = [1.0 / (rank ** s) for rank in range(1, num_flows + 1)]
    flows = [
        make_udp(0x0A000000 + flow, 2, 1024 + flow % 40000, 80)
        for flow in range(num_flows)
    ]
    return [flows[i].clone() for i in rng.choices(range(num_flows), weights, k=num_packets)]


def uniform_stream(num_flows=2000, num_packets=4000, seed=43):
    """``num_flows`` distinct 5-tuples hit uniformly at random: no head
    flows, so nothing keyed per flow can amortize its work."""
    rng = random.Random(seed)
    flows = [
        make_udp(0x0B000000 + flow, 2, 1024 + flow % 40000, 80)
        for flow in range(num_flows)
    ]
    return [flows[i].clone() for i in rng.choices(range(num_flows), k=num_packets)]


def test_flow_cache_throughput(benchmark):
    """The shipped data plane (codegen in front of the interpreter) on
    Zipf-skewed and uniform traffic, against the interpreter alone, with
    one resident forwarding program so verdicts vary per flow.  The
    section keeps the ``flow_cache`` name of the two-tier flow cache
    these streams were built for; its floors in perf_baseline.json now
    gate the fast path that replaced it.  Both streams share one header
    composition, so after the first packet every packet runs one
    generated function; the uniform mix (2,000 flows, no head) checks
    the rate does not depend on flow locality."""

    def run():
        source = PROGRAMS["l2fwd"].source
        rates = {}
        for label, packets in (("skewed", zipf_stream()), ("uniform", uniform_stream())):
            ctl, shipped = Controller.with_simulator()
            ctl.deploy(source)
            shipped.process_many([p.clone() for p in packets])  # compile
            ctl_ref, interp = Controller.with_simulator()
            interp.codegen.enabled = False
            ctl_ref.deploy(source)
            rates[label] = (pps(shipped, packets), pps(interp, packets))
        return rates

    rates = once(benchmark, run)
    banner("Shipped data plane on Zipf-skewed and uniform traffic (2000 flows)")
    for label, (rate, interp) in rates.items():
        print(fmt_row(f"{label}, shipped", f"{rate:,.0f} pps",
                      f"{rate / interp:.1f}x vs interpreter",
                      widths=[30, 16, 24]))
    write_results(
        "flow_cache",
        {
            label: {
                "pps": round(rate, 1),
                "interpreter_pps": round(interp, 1),
                "speedup": round(rate / interp, 2),
            }
            for label, (rate, interp) in rates.items()
        },
    )
    for label, (rate, interp) in rates.items():
        assert rate > interp, label


#: deploys/s measured on the pre-fast-path control plane (same 60-deploy
#: lb/cms/l3route mix, same machine class) — for speedup reporting.
PRE_FAST_PATH_DEPLOYS_PER_S = 983.4

#: the deploy mix and count shared by the cold and warm scenarios
DEPLOY_MIX = ("lb", "cms", "l3route")
DEPLOY_COUNT = 60


def _deploy_rate(make_controller, repeats=3):
    """Best-of-N deploy rate over a fresh controller per round (same
    convention as :func:`pps`: best-of filters scheduler/GC noise)."""
    best = 0.0
    for _ in range(repeats):
        ctl = make_controller()
        start = time.perf_counter()
        for i in range(DEPLOY_COUNT):
            ctl.deploy(PROGRAMS[DEPLOY_MIX[i % len(DEPLOY_MIX)]].source)
        best = max(best, DEPLOY_COUNT / (time.perf_counter() - start))
    return best


def test_deploy_rate(benchmark):
    """Control-plane deploy rate, cold and warm.

    *cold*: relocatable allocation cache disabled and process-wide solver
    caches cleared — every deploy pays the full parse + translate +
    branch-and-bound + install path (the pre-fast-path behavior, so the
    cold number gauges the solver-side speedups: warm-started endpoint
    enumeration and incremental feasibility refresh).

    *warm*: fresh controller whose deploy cache was primed with one
    deploy/revoke round per program — every timed deploy front-end-hits
    (no parse/translate) and shape-hits (trace rebind instead of solve).
    """
    from repro.compiler import solver

    def make_cold():
        solver.clear_global_caches()
        ctl = Controller()
        ctl.deploy_cache.enabled = False
        return ctl

    def make_warm():
        solver.clear_global_caches()
        ctl = Controller()
        for name in DEPLOY_MIX:
            handle = ctl.deploy(PROGRAMS[name].source)
            ctl.revoke(handle)
        return ctl

    def run():
        return {"cold": _deploy_rate(make_cold), "warm": _deploy_rate(make_warm)}

    results = once(benchmark, run)
    banner("Control-plane deploy rate (compile + allocate + install)")
    for label in ("cold", "warm"):
        rate = results[label]
        print(
            fmt_row(
                f"deploy.{label}",
                f"{rate:,.1f} deploys/s",
                f"{rate / PRE_FAST_PATH_DEPLOYS_PER_S:.1f}x vs pre-fast-path",
                widths=[16, 20, 24],
            )
        )
    write_results(
        "deploy",
        {
            "cold": {"deploys_per_s": round(results["cold"], 1)},
            "warm": {"deploys_per_s": round(results["warm"], 1)},
            "pre_fast_path_deploys_per_s": PRE_FAST_PATH_DEPLOYS_PER_S,
            "speedup": {
                label: round(results[label] / PRE_FAST_PATH_DEPLOYS_PER_S, 2)
                for label in ("cold", "warm")
            },
        },
    )
    assert results["cold"] > 5
    assert results["warm"] > results["cold"] * 0.8


def test_solver_node_rate(benchmark):
    """Branch-and-bound search rate (nodes/s) on a nonlinear objective —
    the solver-side companion of the packet-rate numbers above."""

    def run():
        from repro.compiler.compiler import CompileOptions

        nodes = 0
        elapsed = 0.0
        # Default (linear) objective plus f3, which forces the generic
        # branch-and-bound path (much more search).
        for options in (None, CompileOptions(objective=f3())):
            for name in ("cache", "lb", "hh"):
                allocation = compile_source(
                    PROGRAMS[name].source, options=options
                ).allocation
                nodes += allocation.nodes_explored
                elapsed += allocation.solve_time_s
        return nodes, elapsed

    nodes, elapsed = once(benchmark, run)
    rate = nodes / elapsed if elapsed > 0 else 0.0
    banner("Allocation-solver search rate")
    print(f"{nodes:,} nodes in {elapsed * 1e3:.1f} ms -> {rate:,.0f} nodes/s")
    write_results(
        "solver",
        {"nodes": nodes, "elapsed_ms": round(elapsed * 1e3, 2), "nodes_per_s": round(rate)},
    )
    assert rate > 1000
