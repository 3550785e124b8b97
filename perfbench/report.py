"""Turn one measured window into metrics.

End-to-end metrics come from an untraced window; per-layer metrics from a
traced one (plus the untraced one, for the reconciliation and the tracing
overhead).  Counters are deltas over the timed window.
"""

from __future__ import annotations

import bisect
import math
import statistics

#: a failed or refused operation misses every latency limit
MISSED_MS = 1e9


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


#: a tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least TAIL_BEYOND samples beyond it (the maximum when there are fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), 1.0, n
    return ordered[n - TAIL_BEYOND - 1], (n - TAIL_BEYOND) / n, n


def latencies(samples, kinds: tuple[str, ...], speed=None) -> list[float]:
    """Latencies of ``kinds`` in ms, each scaled to the reference speed
    with the host's speed while it ran when ``speed`` is given."""
    return [x.latency_ms / (speed.slowdown(x.due, x.done) if speed else 1.0)
            if x.ok else math.inf for x in samples if x.kind in kinds]


def finite(value: float) -> float:
    return value if math.isfinite(value) else MISSED_MS


def tree_delta(before: dict, after: dict, coordinator: int) -> dict:
    """CPU and peak memory of the serve tree over the window, by role."""
    roles = {"coordinator": 0.0, "workers": 0.0, "other": 0.0}
    worker_cpu = []
    ctx = 0
    for pid, end in after.items():
        start = before.get(pid, {"cpu_s": 0.0, "ctx": 0})
        cpu = end["cpu_s"] - start["cpu_s"]
        ctx += end["ctx"] - start["ctx"]
        if pid == coordinator:
            roles["coordinator"] += cpu
        elif "resource_tracker" in end["cmdline"]:
            roles["other"] += cpu
        else:
            roles["workers"] += cpu
            worker_cpu.append(cpu)
    return {
        "cpu_s": sum(roles.values()),
        "roles": roles,
        "worker_cpu_s": worker_cpu,
        "peak_rss_mb": sum(end["hwm_mb"] for end in after.values()),
        "ctx_switches": ctx,
    }


def _counter(snapshot: dict, *path, default=0):
    node = snapshot
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def counter_delta(before: dict, after: dict, *path) -> float:
    return _counter(after, *path) - _counter(before, *path)


def cycles(samples) -> dict[int, tuple[float, float, float]]:
    """Completed deploy/revoke cycles: cycle -> (when its first request
    was sent, when its last reply came, seconds its requests were
    outstanding)."""
    groups: dict[int, list] = {}
    for x in samples:
        if x.request is not None and x.request.cycle >= 0:
            groups.setdefault(x.request.cycle, []).append(x)
    return {n: (min(x.sent for x in group), max(x.done for x in group),
                sum(x.done - x.sent for x in group))
            for n, group in groups.items()
            if any(x.kind == "revoke" for x in group) and all(x.ok for x in group)}


def alone(samples, others) -> list:
    """The ``samples`` that no request of ``others`` (one connection's
    samples, answered in order) was outstanding with."""
    others = sorted(others, key=lambda x: x.sent)
    sent = [x.sent for x in others]
    out = []
    for x in samples:
        j = bisect.bisect_left(sent, x.done)  # others[:j] were sent before x was answered
        if j == 0 or others[j - 1].done <= x.sent:
            out.append(x)
    return out


def end_to_end(window, scaled: bool = True) -> tuple[dict, dict]:
    """The fourteen end-to-end metrics plus the details behind them.

    Everything measured in host time comes from the window's quietest
    sub-windows (see ``run.STEAL_QUIET``) and, when ``scaled``, is scaled
    to the reference speed with the host's speed while it was measured
    (``calibrate.SpeedLog``): a latency by the speed over its own span, a
    rate or CPU figure by the speed over its sub-window, a set-up time by
    the speed over its launch."""
    speed = window.speed if scaled else None

    def slowdown(t0, t1):
        return speed.slowdown(t0, t1) if speed else 1.0

    s = window.samples
    injects = [x for x in s if x.kind == "inject" and x.ok]
    deploys = [x for x in s if x.kind == "deploy"]
    open_kinds = ("inject",) if window.churn else ("write_mem", "read_mem")
    lone_deploys = alone([x for x in deploys if x.ok and x.cpu_s is not None],
                         [x for x in s if x.kind in open_kinds])
    done_cycles = cycles(s)
    quiet = window.quietest_subwindows
    metrics = {}
    details = {}

    def timing(name, kinds):
        # p50 per sub-window, then the median over sub-windows.  The tail
        # likewise when every sub-window has a tail of its own (at least
        # eleven samples); otherwise one tail over all of them.  No stream
        # runs near eleven samples a sub-window, so a workload always
        # takes the same branch.
        per_window = [latencies([x for x in s if t0 <= x.due < t1], kinds, speed)
                      for t0, t1, _cpu, _steal in quiet]
        metrics[f"{name}_p50_ms"] = finite(p50([p50(v) for v in per_window if v]))
        if min(len(v) for v in per_window) < TAIL_BEYOND + 1:
            per_window = [[x for v in per_window for x in v]]
        tails = [tail(v) for v in per_window]
        metrics[f"{name}_tail_ms"] = finite(p50([t[0] for t in tails]))
        details[name] = {
            "tail_samples": [t[2] for t in tails],
            "tail_percentile": [round(t[1] * 100, 2) for t in tails],
            "failed": sum(1 for x in s if x.kind in kinds and not x.ok),
        }

    metrics["setup_s"] = p50(window.scaled_setup_times(scaled))
    details["setup_s"] = {"launches": window.setup_times, "phases": window.setup_phases,
                          "uncounted_first": window.warm_launch}
    rates, cpu_per_pkt, cpu_per_deploy, cycle_s = [], [], [], []
    slowdowns = []
    for t0, t1, cpu, _steal in quiet:
        f = slowdown(t0, t1)
        slowdowns.append(f)
        done = sum(x.result["processed"] for x in injects if t0 <= x.done < t1)
        # an open-loop inject stream (deploy_churn) sends at a fixed rate:
        # its rate is the schedule's, not a speed of serve's to scale
        rates.append(done / (t1 - t0) * (1.0 if window.churn else f))
        cpu_per_pkt.append(cpu / max(done, 1) * 1e6 / f)
        deploy_cpu = [x.cpu_s * 1e3 / slowdown(x.sent, x.done) for x in lone_deploys
                      if t0 <= x.done < t1]
        if deploy_cpu:
            cpu_per_deploy.append(statistics.fmean(deploy_cpu))
        cycle_s += [busy / slowdown(a, b) for a, b, busy in done_cycles.values() if t0 <= b < t1]
    metrics["inject_pps"] = p50(rates)
    timing("inject", ("inject",))
    timing("ctl", ("write_mem", "read_mem"))
    timing("deploy", ("deploy",))
    timing("revoke", ("revoke",))
    del metrics["revoke_tail_ms"]
    metrics["deploys_per_s"] = 1.0 / p50(cycle_s) if cycle_s else 0.0
    metrics["cpu_us_per_pkt"] = p50(cpu_per_pkt)
    metrics["cpu_ms_per_deploy"] = p50(cpu_per_deploy)
    metrics["peak_rss_mb"] = (window.rss_mb if window.rss_mb is not None
                              else window.tree["peak_rss_mb"])
    modelled = [x.result["update_ms"] for x in deploys if x.ok][: window.modelled_deploys]
    metrics["modelled_update_ms"] = statistics.fmean(modelled) if modelled else 0.0
    details["modelled_update_ms"] = {"deploys": len(modelled)}
    details["subwindows"] = [{"s": round(t1 - t0, 3), "steal": round(steal, 4),
                              "used": (t0, t1) in [w[:2] for w in quiet]}
                             for t0, t1, _cpu, steal in window.subwindows]
    details["subwindow_pps"] = rates
    details["subwindow_slowdown"] = slowdowns
    details["cpu_ms_per_deploy"] = {"deploys": len(lone_deploys),
                                    "overlapped": len(deploys) - len(lone_deploys)}
    details["host_steal_ratio"] = window.steal_ratio
    details["packets"] = sum(x.result["processed"] for x in injects)
    details["cycles"] = len(done_cycles)
    details["wall_s"] = window.wall_s
    details["tree"] = window.tree
    return metrics, details


# -- per-layer -------------------------------------------------------------------

LAYER_OF = {
    "service.handle_request": "service",
    "controlplane.compile": "controlplane",
    "controlplane.prepare_deploy": "controlplane",
    "controlplane.install_steps": "controlplane",
    "controlplane.revoke": "controlplane",
    "controlplane.write_memory": "controlplane",
    "lang.parse_and_check": "lang",
    "compiler.translate": "compiler",
    "compiler.allocate_program": "compiler",
    "compiler.emit_entries": "compiler",
    "dataplane.process_many": "dataplane",
    "engine.inject": "engine",
    "engine.barrier": "engine",
}
LAYERS = ("service", "engine", "dataplane", "lang", "compiler", "controlplane")


def span_analysis(spans: list[list], window_start: float, window_end: float) -> dict:
    """Self time by layer and RPC method, per request, within the window."""
    children: dict[int, float] = {}
    for name, start, end, parent, _rpc, _method in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
    method_of: dict[int, str] = {}
    request_span: dict[int, float] = {}
    request_start: dict[int, float] = {}
    for name, start, end, parent, rpc, method in spans:
        if name == "service.handle_request":
            method_of[rpc] = method
            request_span[rpc] = (end - start) * 1e3
            request_start[rpc] = start
    self_ms: dict[tuple[str, str], float] = {}
    for index, (name, start, end, parent, rpc, _method) in enumerate(spans):
        if not (window_start <= start <= window_end) or end < start:
            continue
        method = method_of.get(rpc, "other")
        key = (method, LAYER_OF[name])
        self_ms[key] = self_ms.get(key, 0.0) + (end - start - children.get(index, 0.0)) * 1e3
    return {"self_ms": self_ms, "request_ms": request_span, "request_start": request_start,
            "method": method_of}


def per_layer(traced, untraced, spans: list[list]) -> tuple[dict, dict]:
    s = traced.samples
    before, after = traced.snapshot_before, traced.snapshot_after
    m = {}
    analysis = span_analysis(spans, traced.start, traced.end)
    request_ms = analysis["request_ms"]
    window_samples = [x for x in s if x.rpc_id in request_ms]

    # service
    for method in ("inject", "deploy", "revoke", "write_mem", "read_mem"):
        mine = [x for x in window_samples if x.kind == method and x.ok]
        server = [request_ms[x.rpc_id] for x in mine]
        outside = [x.rtt_ms - request_ms[x.rpc_id] for x in mine]
        m[f"service.server_ms.{method}"] = p50(server)
        m[f"service.outside_ms.{method}"] = p50(outside)
    ctl = [x for x in window_samples if x.kind in ("write_mem", "read_mem") and x.ok]
    waits = [(analysis["request_start"][x.rpc_id] - x.sent) * 1e3 for x in ctl]
    m["service.ctl_wait_ms"] = statistics.fmean(waits) if waits else 0.0

    # engine
    tree = traced.tree
    injects = [x for x in s if x.kind == "inject" and x.ok]
    packets = max(sum(x.result["processed"] for x in injects), 1)
    wall = traced.wall_s
    engine = traced.engine_mode
    roles = tree["roles"]
    m["engine.coord_cpu_us_per_pkt"] = roles["coordinator"] / packets * 1e6 if engine else 0.0
    m["engine.worker_cpu_us_per_pkt"] = roles["workers"] / packets * 1e6
    m["engine.coord_busy"] = roles["coordinator"] / wall if engine else 0.0
    workers = tree["worker_cpu_s"]
    m["engine.worker_busy"] = statistics.fmean(workers) / wall if workers else 0.0
    transport = ("metrics", "engine", "transport")
    m["engine.stall_s"] = counter_delta(before, after, *transport, "stall_s")
    m["engine.bytes_out_per_pkt"] = counter_delta(before, after, *transport, "bytes_out") / packets
    m["engine.pipe_batches"] = counter_delta(before, after, *transport, "pipe_batches")
    for reason in ("oversize", "ring_full", "no_ring", "disabled"):
        m[f"engine.fallbacks.{reason}"] = counter_delta(
            before, after, *transport, "fallbacks", reason)
    shard_totals: list[int] = []
    for x in injects:
        for i, count in enumerate(x.result.get("shard_counts", ())):
            if i >= len(shard_totals):
                shard_totals.append(0)
            shard_totals[i] += count
    m["engine.shard_skew"] = (max(shard_totals) / sum(shard_totals)
                              if sum(shard_totals) else 0.0)

    # rmt / dataplane
    fc = ("metrics", "caches", "flow_cache")
    emc = counter_delta(before, after, *fc, "emc_hits")
    mega = counter_delta(before, after, *fc, "megaflow_hits")
    miss = counter_delta(before, after, *fc, "misses")
    uncacheable = counter_delta(before, after, *fc, "uncacheable")
    lookups = max(emc + mega + miss + uncacheable, 1)
    m["rmt.emc_hit_ratio"] = emc / lookups
    m["rmt.megaflow_hit_ratio"] = mega / lookups
    m["rmt.miss_ratio"] = (miss + uncacheable) / lookups
    m["rmt.uncacheable"] = uncacheable
    m["rmt.flowcache_invalidations"] = counter_delta(before, after, *fc, "invalidations")
    cg = ("metrics", "caches", "codegen")
    hits = counter_delta(before, after, *cg, "hits")
    m["rmt.codegen_hits"] = hits
    m["rmt.codegen_compiled"] = counter_delta(before, after, *cg, "compiled")
    reasons = set(_counter(after, *cg, "fallbacks", default={}))
    fallbacks = 0
    fallback_detail = {}
    for reason in sorted(reasons):
        delta = counter_delta(before, after, *cg, "fallbacks", reason)
        fallback_detail[reason] = delta
        fallbacks += delta
    m["rmt.codegen_fallbacks"] = fallbacks
    m["rmt.fast_path_exit_ratio"] = fallbacks / max(hits + fallbacks, 1)
    recirc = sum(x.result["recirculations"] for x in injects)
    m["dataplane.passes_per_pkt"] = 1.0 + recirc / packets

    # lang / compiler
    deploys = [x for x in s if x.kind == "deploy" and x.ok]
    m["lang.parse_ms"] = p50([x.result["parse_ms"] for x in deploys])
    m["compiler.allocation_ms"] = p50([x.result["allocation_ms"] for x in deploys])
    dc = ("metrics", "caches", "deploy_cache")
    fh = counter_delta(before, after, *dc, "frontend_hits")
    fm = counter_delta(before, after, *dc, "frontend_misses")
    sh = counter_delta(before, after, *dc, "shape_hits")
    sm = counter_delta(before, after, *dc, "shape_misses")
    m["compiler.frontend_hit_ratio"] = fh / max(fh + fm, 1)
    m["compiler.shape_hit_ratio"] = sh / max(sh + sm, 1)
    m["compiler.rebind_fallbacks"] = counter_delta(before, after, *dc, "rebind_fallbacks")
    m["compiler.rebinds"] = counter_delta(before, after, *dc, "rebinds")

    # controlplane
    install = [request_ms[x.rpc_id] - x.result["parse_ms"] - x.result["allocation_ms"]
               for x in deploys if x.rpc_id in request_ms]
    m["controlplane.install_ms"] = p50(install)
    m["controlplane.entries_per_deploy"] = (statistics.fmean(x.result["entries"] for x in deploys)
                                            if deploys else 0.0)
    m["controlplane.revoke_server_ms"] = m["service.server_ms.revoke"]

    # host guards
    m["host.client_cpu_ratio"] = traced.client_cpu_ratio
    m["host.gen_lateness_ms"] = traced.lateness_p99_ms
    m["host.serve_ctx_switches_per_s"] = tree["ctx_switches"] / wall
    m["host.steal_ratio"] = traced.steal_ratio
    m["host.slowdown_ratio"] = traced.speed.slowdown(traced.start, traced.end)

    # Layer self time per packet / per deploy.  The layer sums are
    # reconciled against the untraced window's server-side mean from the
    # ``rpc.<method>.latency_ms`` histograms, which no span defines;
    # ``unattributed`` is the share of the request span that no inner
    # layer's span covers (service self time).  The tracing overhead
    # compares serve-tree CPU per unit of the workload's work (per packet
    # on the traffic workloads, per deploy cycle on deploy_churn), traced
    # against untraced.
    self_ms = analysis["self_ms"]
    untraced_e2e, _ = end_to_end(untraced)
    traced_e2e, _ = end_to_end(traced)
    for method, unit_name, per in (("inject", "self_us_per_pkt", packets / 1e3),
                                   ("deploy", "self_ms_per_deploy", None)):
        ops = [x for x in window_samples if x.kind == method and x.ok]
        count = max(len(ops), 1)
        layer_sum = 0.0
        for layer in LAYERS:
            total = self_ms.get((method, layer), 0.0)
            m[f"trace.{unit_name}.{layer}"] = total / (per if per else count)
            layer_sum += total / count
        histogram = ("metrics", "histograms", f"rpc.{method}.latency_ms")
        served = counter_delta(untraced.snapshot_before, untraced.snapshot_after, *histogram,
                               "count")
        server_mean = counter_delta(untraced.snapshot_before, untraced.snapshot_after,
                                    *histogram, "sum_ms") / max(served, 1)
        m[f"trace.reconcile.{method}"] = layer_sum / max(server_mean, 1e-9)
        m[f"trace.unattributed.{method}"] = (self_ms.get((method, "service"), 0.0) / count
                                             / max(layer_sum, 1e-9))
    work = "cpu_ms_per_deploy" if traced.churn else "cpu_us_per_pkt"
    m["trace.overhead"] = traced_e2e[work] / max(untraced_e2e[work], 1e-9) - 1.0
    details = {"codegen_fallbacks": fallback_detail, "spans": len(spans),
               "untraced": untraced_e2e, "traced": traced_e2e}
    return m, details


def unit_of(name: str) -> str:
    """The unit of a metric, from its name."""
    if "bytes" in name:
        return "B"
    if name.endswith("_pps") or name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "_us_" in name or name.endswith("_us"):
        return "us"
    if "_ms" in name:
        return "ms"
    if "ratio" in name or name.endswith("_busy") or name.endswith("skew") or name.startswith(
            ("trace.reconcile.", "trace.overhead", "trace.unattributed.")):
        return "ratio"
    return "count"
