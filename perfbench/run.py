"""The repository's benchmark: one workload through the real ``serve`` socket.

Usage (from the repository root)::

    python3 perfbench/run.py --workload switch_mixed --seed 1 --seconds 10 --trace 0

Each run launches ``python -m repro.cli serve`` as a subprocess (shipped
defaults; only ``--port`` and, for ``engine_hot``, ``--workers 2``), drives it
from one asyncio client with two connections, checks every reply against an
in-process interpreter oracle, stops the whole ``serve`` tree and prints one
JSON object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload twice, untraced and then
through ``traced_serve.py``, and reports the per-layer metrics.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__" and not (ROOT / "src" / "repro" / "cli.py").is_file():
    sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import report  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402
from calibrate import SpeedLog  # noqa: E402
from oracle import Oracle  # noqa: E402
from serveproc import (IdleSpinners, ServeProcess, Watchdog, cpu_clock_s,  # noqa: E402
                       host_cpu_ticks)
from streams import Request  # noqa: E402

#: set-up launches per untraced run; setup_s is their median.  One more
#: launch comes first and is not counted: it leaves the interpreter, the
#: sources and their ``.pyc`` files in the page cache for the others.
SETUP_REPEATS = 5
#: pool batches / churn deploys whose outcomes the oracle recomputes
ORACLE_BATCHES = 12
ORACLE_DEPLOYS = 12
#: checked deploys whose outcomes enter the simulated-figure digest (few,
#: so that a short or slow window still reaches them)
DIGEST_DEPLOYS = 4
#: the window is cut into sub-windows of ``seconds / SUBWINDOWS``; rates,
#: CPU figures and p50s are the median over the quietest ones, so a burst
#: of host noise moves one value of several
SUBWINDOWS = 10
#: host steal, from /proc/stat: the share of the host's CPU time the
#: hypervisor gave to other guests.  A sub-window is quiet at most
#: STEAL_QUIET.  The window runs on until it holds SUBWINDOWS quiet
#: sub-windows or MAX_SUBWINDOWS in all (a bound that keeps a 30-second
#: window under 40 s), and the metrics come from its SUBWINDOWS quietest.
#: A run with fewer than MIN_CLEAN_SUBWINDOWS sub-windows at most
#: STEAL_LIMIT fails rather than report a host that was busy elsewhere as
#: a slow ``serve``.
STEAL_QUIET = 0.05
STEAL_LIMIT = 0.10
MAX_SUBWINDOWS = 13
MIN_CLEAN_SUBWINDOWS = 5
#: seconds between samples of the host's speed (``calibrate.SpeedLog``)
SPEED_TICK_S = 0.1
#: client CPU share of the window above which the client, not serve, is the limit
CLIENT_CPU_LIMIT = 0.9
#: deploy_churn: how far behind its schedule the paced cycle stream may
#: end, in cycle intervals, before its work per window is no longer fixed
MAX_PACE_LAG = 10


class Interrupted(Exception):
    pass


def _on_signal(signum, _frame):
    raise Interrupted(f"signal {signum}")


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    return (after[0] - before[0]) / max(after[1] - before[1], 1)


@dataclass
class Window:
    setup_times: list[float]
    samples: list
    start: float
    end: float
    tree: dict
    snapshot_before: dict
    snapshot_after: dict
    client_cpu_ratio: float
    steal_ratio: float
    lateness_p99_ms: float
    engine_mode: bool
    #: the closed loop runs deploy cycles (deploy_churn), not traffic
    churn: bool
    modelled_deploys: int
    #: (start, end, serve-tree CPU seconds (``serveproc.cpu_clock_s``), host
    #: steal share) per sub-window
    subwindows: list = field(default_factory=list)
    #: serve-tree peak memory after ``rss_mark`` closed-loop operations
    rss_mb: float | None = None
    #: deploy_churn: seconds the last cycle started behind its schedule
    pace_lag_s: float = 0.0
    provisioning: list = field(default_factory=list)
    warmup: list = field(default_factory=list)
    #: per counted launch: seconds to answer ping, to provision, to warm
    #: up, the host steal share and how many times slower than the
    #: reference the host ran (``calibrate.SpeedLog.slowdown``) meanwhile
    setup_phases: list = field(default_factory=list)
    #: the same for the uncounted first launch, if there was one
    warm_launch: dict | None = None
    #: the host's speed through the window
    speed: SpeedLog = field(default_factory=lambda: SpeedLog(None))

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def quietest_subwindows(self) -> list:
        """The SUBWINDOWS sub-windows with the least host steal, in time order."""
        return sorted(sorted(self.subwindows, key=lambda w: w[3])[:SUBWINDOWS])

    def scaled_setup_times(self, scaled: bool = True) -> list[float]:
        return [t / (phases["slowdown"] if scaled else 1.0)
                for phases, t in zip(self.setup_phases, self.setup_times)]


async def _provision(conn, wl):
    replies = []
    ids = {}
    for tenant, name, source in wl.provisioning:
        sample = await conn.call(Request("provision", "deploy",
                                                 {"source": source}, tenant))
        replies.append(sample)
        if sample.ok:
            ids[name] = sample.result["program_id"]
    return replies, ids


async def _warmup(conn, wl):
    samples = [await conn.call(Request("warmup", "inject", {"packets": wl.warmup}))]
    for ref, batch in enumerate(wl.pool):
        samples.append(await conn.call(
            Request("warmup_pool", "inject", {"packets": batch}, ref=ref)))
    return samples


def _tenant_of(wl, program: str) -> str:
    return next(t for t, name, _src in wl.provisioning if name == program)


def control_request(wl, ids: dict, k: int):
    """The k-th request of the open-loop control stream."""
    op = wl.control_ops[k % len(wl.control_ops)]
    params = {"program_id": ids[op["program"]], "mid": op["mid"], "vaddr": op["vaddr"]}
    if op["op"] == "write_mem":
        params["value"] = op["value"]
    return Request(op["op"], op["op"], params, _tenant_of(wl, op["program"]), k,
                           expect=op.get("expect"))


def inject_script(wl, start: float):
    """Closed-loop traffic: pool batches in order.  A deploy of the next
    churn source is due every ``deploy_period_s`` and its revoke half a
    period later; each goes between two batches once it is due.  Both are
    due a quarter period off the times ``engine_hot``'s control ops are
    due (one a period), so there a deploy never waits on a control op sent
    at the same instant, nor a control op on it."""
    period = wl.deploy_period_s

    async def script(samples):
        deployed = None
        m = 0
        for n in itertools.count():
            ref = n % len(wl.pool)
            yield Request("inject", "inject", {"packets": wl.pool[ref]}, ref=ref)
            t = streams.now()
            if deployed is None and t >= start + (m + 0.25) * period:
                yield Request("deploy", "deploy", {"source": wl.churn[m]}, "t-churn", m,
                              cycle=m)
                deployed = samples[-1].result["program_id"] if samples[-1].ok else None
                m += 1
            elif deployed is not None and t >= start + (m - 0.25) * period:
                yield Request("revoke", "revoke", {"program_id": deployed}, "t-churn", m - 1,
                              cycle=m - 1)
                deployed = None

    return script


def churn_script(wl, rng: random.Random, start: float, lag: list):
    """Paced churn: a cycle of deploy, write, read, sometimes add_case and
    revoke is due every ``cycle_interval_s``; within a cycle one request
    is outstanding at a time.  ``lag`` gets how late each cycle started."""

    async def script(samples):
        for n in itertools.count():
            due = start + n * wl.cycle_interval_s
            delay = due - streams.now()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append(streams.now() - due)
            tenant = f"t-churn{n % 3}"
            yield Request("deploy", "deploy", {"source": wl.churn[n]}, tenant, n, cycle=n)
            deploy = samples[-1]
            if deploy.ok:
                program_id = deploy.result["program_id"]
                vaddr, value = rng.randrange(256), rng.randrange(1 << 32)
                yield Request("write_mem", "write_mem", {"program_id": program_id, "mid": "reg",
                              "vaddr": vaddr, "value": value}, tenant, n, cycle=n)
                yield Request("read_mem", "read_mem", {"program_id": program_id, "mid": "reg",
                              "vaddr": vaddr}, tenant, n, expect=value, cycle=n)
                if n % 4 == 0:
                    yield Request("add_case", "add_case", {"program_id": program_id,
                                  "conditions": [["har", 200 + n % 50, 255]]}, tenant, n,
                                  cycle=n)
                yield Request("revoke", "revoke", {"program_id": program_id}, tenant, n,
                              cycle=n)

    return script


async def measure(wl, seconds: float, traced: bool, setups: int, run_dir: Path,
                  tag: str, watchdog=None, counters=None) -> tuple[Window, list | None]:
    """Launch ``serve`` ``setups`` times (after one uncounted launch when
    ``setups`` > 1), timing each set-up, and measure the window on the
    last.  ``counters`` are the idle spinners' (``calibrate.Counters``);
    without them no figure is scaled to the reference speed."""
    setup_times, setup_phases = [], []
    launches = setups + 1 if setups > 1 else setups
    warm_launch = None
    for attempt in range(launches):
        spans_path = run_dir / f"{tag}-spans-{attempt}.json"
        launcher = [str(HERE / "traced_serve.py"), str(spans_path)] if traced else None
        server = ServeProcess(ROOT, wl.serve_args, run_dir / f"{tag}-serve-{attempt}.log",
                              launcher=launcher, watchdog=watchdog)
        closed = opened = None
        try:
            speed = SpeedLog(counters)
            ticks0 = host_cpu_ticks()
            t0 = streams.now()
            speed.sample(t0)
            server.start()
            server.wait_ready()
            t_ready = streams.now()
            closed = await streams.Conn(server.port, "binary").open()
            opened = await streams.Conn(server.port, "ndjson").open()
            provisioning, ids = await _provision(closed, wl)
            t_provisioned = streams.now()
            warmup = await _warmup(closed, wl)
            t_end = streams.now()
            speed.sample(t_end)
            phases = {"s": t_end - t0, "ready_s": t_ready - t0,
                      "provision_s": t_provisioned - t_ready, "warmup_s": t_end - t_provisioned,
                      "steal": steal_share(ticks0, host_cpu_ticks()),
                      "slowdown": speed.slowdown(t0, t_end)}
            if attempt == 0 and launches > 1:
                warm_launch = phases
                continue
            setup_times.append(t_end - t0)
            setup_phases.append(phases)
            if attempt < launches - 1:
                continue
            window = await _window(wl, seconds, server, closed, opened, ids, counters)
            window.setup_times = setup_times
            window.setup_phases = setup_phases
            window.warm_launch = warm_launch
            window.provisioning = provisioning
            window.warmup = warmup
            break
        finally:
            for conn in (closed, opened):
                if conn is not None:
                    await conn.close()
            server.stop()
    return window, json.loads(spans_path.read_text()) if traced else None


async def _snapshot(conn) -> dict:
    metrics = await conn.call(Request("snapshot", "metrics", {}))
    if not metrics.ok:
        raise RuntimeError(f"metrics RPC failed: {metrics.error}")
    return {"metrics": metrics.result}


async def _window(wl, seconds, server, closed, opened, ids, counters) -> Window:
    rng = random.Random(f"{wl.name}:{wl.seed}:window")
    before = await _snapshot(closed)
    sub_s = seconds / SUBWINDOWS
    deadline = streams.Deadline()
    marks = {}
    lag: list[float] = []
    speed = SpeedLog(counters)
    tree_before = server.tree()
    cpu0 = time.process_time()
    pids = list(tree_before)
    boundaries = [(streams.now(), tree_before, host_cpu_ticks(), cpu_clock_s(pids))]
    start = boundaries[0][0]
    speed.sample(start)
    if wl.closed == "inject":
        script = inject_script(wl, start)
    else:
        script = churn_script(wl, rng, start, lag)

    async def make_request(k):
        if wl.open == "control":
            return control_request(wl, ids, k)
        ref = k % len(wl.pool)
        return Request("inject", "inject", {"packets": wl.pool[ref]}, ref=ref)

    def mark():
        marks["tree"] = server.tree()

    async def sample_tree():
        # /proc and /proc/stat at every sub-window boundary; the streams
        # stop once enough sub-windows were quiet, or too many were not
        quiet = 0
        for k in itertools.count(1):
            await asyncio.sleep(max(0.0, start + k * sub_s - streams.now()))
            boundaries.append((streams.now(), server.tree(), host_cpu_ticks(),
                               cpu_clock_s(pids)))
            quiet += steal_share(boundaries[-2][2], boundaries[-1][2]) <= STEAL_QUIET
            if k >= SUBWINDOWS and (quiet >= SUBWINDOWS or k >= MAX_SUBWINDOWS):
                deadline.t = boundaries[-1][0]
                return

    async def sample_speed():
        for k in itertools.count(1):
            await asyncio.sleep(max(0.0, start + k * SPEED_TICK_S - streams.now()))
            speed.sample(streams.now())

    sampler = asyncio.create_task(sample_tree())
    speed_sampler = asyncio.create_task(sample_speed())
    try:
        closed_samples, open_report = await asyncio.gather(
            streams.closed_loop(closed, script, deadline, wl.rss_mark, mark,
                                lambda: cpu_clock_s(pids)),
            streams.open_loop(opened, make_request, wl.open_interval_s, start, deadline),
        )
        await sampler
    finally:
        sampler.cancel()
        speed_sampler.cancel()
    samples = closed_samples + open_report.samples
    end = max([deadline.t] + [x.done for x in samples])
    speed.sample(streams.now())
    cpu = time.process_time() - cpu0
    tree_after = server.tree()
    after = await _snapshot(closed)
    lateness = sorted(open_report.lateness_s)
    lateness_p99 = lateness[int(0.99 * (len(lateness) - 1))] * 1e3 if lateness else 0.0
    rss = marks.get("tree")
    return Window(
        setup_times=[], samples=samples, start=start, end=end,
        tree=report.tree_delta(tree_before, tree_after, server.pid),
        subwindows=[(t0, t1, c1 - c0, steal_share(s0, s1))
                    for (t0, _a, s0, c0), (t1, _b, s1, c1) in zip(boundaries, boundaries[1:])],
        snapshot_before=before, snapshot_after=after,
        client_cpu_ratio=cpu / (end - start), lateness_p99_ms=lateness_p99,
        steal_ratio=steal_share(boundaries[0][2], boundaries[-1][2]),
        engine_mode="--workers" in wl.serve_args,
        churn=wl.closed == "churn",
        modelled_deploys=wl.modelled_deploys,
        rss_mb=sum(x["hwm_mb"] for x in rss.values()) if rss else None,
        pace_lag_s=lag[-1] if lag else 0.0,
        speed=speed,
    )


def check(wl, window: Window) -> tuple[list[str], str]:
    """Compare every checked reply with the oracle; returns (problems,
    digest of the simulated figures)."""
    problems = []
    oracle = Oracle(wl.provisioning, wl.warmup)
    simulated = []
    for sample, stats in zip(window.provisioning, oracle.deploys):
        if not sample.ok:
            problems.append(f"provisioning deploy failed: {sample.error}")
            continue
        got = (sample.result["entries"], sample.result["update_ms"])
        want = (stats.entries, stats.update_ms)
        simulated.append(got)
        if got != want:
            problems.append(f"deploy {stats.program}: {got} != oracle {want}")
    warm = window.warmup[0]
    got = {"verdicts": warm.result["verdicts"], "recirculations": warm.result["recirculations"]}
    simulated.append(sorted(got["verdicts"].items()))
    if got != oracle.warmup_verdicts:
        problems.append(f"warm-up verdicts {got} != oracle {oracle.warmup_verdicts}")

    rng = random.Random(f"{wl.name}:{wl.seed}:oracle")
    sampled = sorted(rng.sample(range(len(wl.pool)), min(ORACLE_BATCHES, len(wl.pool))))
    expected = {ref: oracle.verdicts(wl.pool[ref]) for ref in sampled}
    checked = 0
    for sample in window.warmup[1:] + window.samples:
        if sample.kind not in ("inject", "warmup_pool") or not sample.ok:
            continue
        want = expected.get(sample.ref)
        if want is None:
            continue
        got = {"verdicts": sample.result["verdicts"],
               "recirculations": sample.result["recirculations"]}
        checked += 1
        if got != want:
            problems.append(f"inject batch {sample.ref}: {got} != oracle {want}")
    if checked == 0:
        problems.append("no inject reply was checked against the oracle")
    for ref in sampled:
        simulated.append((sorted(expected[ref]["verdicts"].items()),
                          expected[ref]["recirculations"]))

    # control-stream reads must return what the same stream wrote
    for sample in window.samples:
        if sample.kind == "read_mem" and sample.ok:
            want = sample.request.expect
            if sample.result["value"] != want:
                problems.append(f"read_mem op {sample.ref}: {sample.result['value']} != {want}")

    # churned deploys: entries and modelled delay vs the oracle
    deploys = [x for x in window.samples if x.kind == "deploy" and x.ok]
    seen = set()
    for sample in deploys:
        source = sample.request.params["source"]
        if source in seen or len(seen) >= ORACLE_DEPLOYS:
            continue
        seen.add(source)
        want = oracle.deploy_cycle(source)
        got = (sample.result["entries"], sample.result["update_ms"])
        if got != (want["entries"], want["update_ms"]):
            problems.append(f"churn deploy {sample.ref}: {got} != oracle "
                            f"{(want['entries'], want['update_ms'])}")
        if len(seen) <= DIGEST_DEPLOYS:
            simulated.append(got)
    digest = hashlib.sha256(json.dumps(simulated).encode()).hexdigest()[:16]
    return problems, digest


def host_record() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def precompile() -> None:
    """Byte-compile ``src`` before anything is timed, so every launch
    reads the same ``.pyc`` files instead of the first one writing them."""
    import compileall

    compileall.compile_dir(str(ROOT / "src"), quiet=2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")
    wl = workloads.build(args.workload, args.seed)
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    precompile()
    watchdog = Watchdog()
    spinners = None
    try:
        spinners = IdleSpinners(watchdog, run_dir / "speed-counters")
        result = run(wl, args.seconds, bool(args.trace), run_dir, watchdog, spinners.counters)
    finally:
        if spinners is not None:
            spinners.close()
        watchdog.close()
    print(json.dumps(result))
    return 0


def run(wl, seconds: float, trace: bool, run_dir: Path, watchdog, counters=None) -> dict:
    """Measure, check and report one run; returns the result line."""
    untraced, _ = asyncio.run(measure(wl, seconds, False, 1 if trace else SETUP_REPEATS,
                                      run_dir, "plain", watchdog, counters))
    problems, digest = check(wl, untraced)
    record = {"workload": wl.name, "seed": wl.seed, "why": wl.why, "host": host_record(),
              "sim_digest": digest}
    window = untraced
    if trace:
        window, spans = asyncio.run(measure(wl, seconds, True, 1, run_dir, "traced", watchdog,
                                            counters))
        traced_problems, traced_digest = check(wl, window)
        problems += traced_problems
        if traced_digest != digest:
            problems.append(f"traced sim digest {traced_digest} != untraced {digest}")
        metrics, details = report.per_layer(window, untraced, spans)
    else:
        metrics, details = report.end_to_end(untraced)
        details["unscaled"] = report.end_to_end(untraced, scaled=False)[0]
    failed = sum(1 for x in window.samples if not x.ok)
    if failed:
        errors = sorted({x.error for x in window.samples if not x.ok})
        problems.append(f"{failed} failed operations: {errors[:3]}")
    if window.client_cpu_ratio > CLIENT_CPU_LIMIT:
        problems.append(f"client saturated a core ({window.client_cpu_ratio:.2f})")
    if window.lateness_p99_ms > wl.open_interval_s * 1e3:
        problems.append(f"open-loop generator ran {window.lateness_p99_ms:.2f} ms late "
                        f"(interval {wl.open_interval_s * 1e3:.1f} ms)")
    if wl.cycle_interval_s and window.pace_lag_s > MAX_PACE_LAG * wl.cycle_interval_s:
        problems.append(f"churn cycles ended {window.pace_lag_s:.2f} s behind their schedule")
    clean = sum(1 for w in window.subwindows if w[3] <= STEAL_LIMIT)
    if clean < MIN_CLEAN_SUBWINDOWS:
        problems.append(f"host steal above {STEAL_LIMIT:.0%} in {len(window.subwindows) - clean} "
                        f"of {len(window.subwindows)} sub-windows")
    if not details.get("cpu_ms_per_deploy", {"deploys": 1})["deploys"]:
        problems.append("every window deploy overlapped an open-loop request, so none "
                        "measured cpu_ms_per_deploy")
    modelled = sum(1 for x in window.samples if x.kind == "deploy" and x.ok)
    if modelled < wl.modelled_deploys:
        problems.append(f"{modelled} window deploys, fewer than the {wl.modelled_deploys} "
                        "modelled_update_ms averages")
    if window.rss_mb is None:
        problems.append(f"the window ended before {wl.rss_mark} closed-loop operations, "
                        "when peak memory is read")
    record.update(details=details, problems=problems, metrics=metrics)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(window.samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": report.unit_of(name)}
                    for name, value in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
