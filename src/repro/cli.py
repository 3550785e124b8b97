"""The P4runpro runtime CLI (paper §5: "we implement a runtime CLI to
interact with the P4runpro data plane").

Commands operate on one controller session (simulated switch by default):

    deploy <file> [--program NAME] [--objective f1|f2|f3|hierarchical]
                  [--elastic N [--branch K]]
    revoke <program-id>
    list
    ps                                     # structured process listing
    show <program-id>                      # pretty-printed source + layout
    trace <pcap-file> [index]             # per-op execution trace (Fig. 3)
    mem read <program-id> <mid> <vaddr>
    mem write <program-id> <mid> <vaddr> <value>
    addcase <program-id> --cond reg,value,mask [--cond ...]
            [--template K] [--loadi V ...]
    util                                   # resource utilization
    profile                                # Table-2 style static report

Run interactively (``python -m repro.cli``) or scripted
(``python -m repro.cli -c "deploy prog.rp" -c list``).

Two daemon-mode subcommands wrap the northbound control service
(:mod:`repro.service`) instead of an in-process controller:

    p4runpro serve  [--host H] [--port P] [--chain HOPS] [--max-programs N]
                    [--fabric SPEC [--routing auto|controlled]]
    p4runpro client <method> [key=value ...] [--tenant T] [--deadline-ms D]

Fabric subcommands build and exercise multi-switch leaf-spine
topologies (:mod:`repro.fabric`); SPEC is either ``NxM`` (N leaves, M
spines) or a JSON topology spec file:

    p4runpro fabric spec [--leaves N] [--spines M] [--out FILE]
    p4runpro fabric show <SPEC>
    p4runpro fabric run  <SPEC> [--packets N] [--locality F] [--deploy FILE]
                         [--routing auto|controlled] [--link-down A:B@K]
                         [--node-down NAME@K] [--reroute K]
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path

from .compiler.compiler import CompileOptions
from .compiler.objectives import make_objective
from .controlplane.controller import Controller, DeployedProgram
from .lang.errors import P4runproError
from .lang.printer import format_program


class CLIError(Exception):
    """User-facing command error."""


class RuntimeCLI:
    """A stateful command interpreter over one controller session."""

    def __init__(self, controller: Controller | None = None, dataplane=None, *, out=None):
        if controller is None:
            controller, dataplane = Controller.with_simulator()
        self.controller = controller
        self.dataplane = dataplane
        self.out = out or sys.stdout
        self._handles: dict[int, DeployedProgram] = {}
        self._cases: dict[int, list] = {}

    # -- plumbing ----------------------------------------------------------------
    def _print(self, *parts) -> None:
        print(*parts, file=self.out)

    def execute(self, line: str) -> bool:
        """Run one command line; returns False when the session should end."""
        try:
            tokens = shlex.split(line, comments=True)
        except ValueError as exc:
            self._print(f"error: {exc}")
            return True
        if not tokens:
            return True
        command, *args = tokens
        handler = getattr(self, f"cmd_{command.replace('-', '_')}", None)
        if handler is None:
            self._print(f"error: unknown command {command!r} (try 'help')")
            return True
        try:
            return handler(args) is not False
        except (CLIError, P4runproError, FileNotFoundError, KeyError, ValueError) as exc:
            self._print(f"error: {exc}")
            return True

    def repl(self, stream=None) -> None:
        stream = stream or sys.stdin
        for line in stream:
            if not self.execute(line):
                break

    # -- commands -------------------------------------------------------------------
    def cmd_help(self, args) -> None:
        self._print(__doc__)

    def cmd_quit(self, args) -> bool:
        return False

    cmd_exit = cmd_quit

    def cmd_deploy(self, args) -> None:
        parser = argparse.ArgumentParser(prog="deploy", add_help=False)
        parser.add_argument("file")
        parser.add_argument("--program")
        parser.add_argument("--objective", default="f1")
        parser.add_argument("--elastic", type=int)
        parser.add_argument("--branch", type=int, default=0)
        ns = parser.parse_args(args)
        source = Path(ns.file).read_text()
        from .lang.diagnostics import check_source

        diagnostics = check_source(source)
        if diagnostics:
            for diagnostic in diagnostics:
                self._print(diagnostic)
            return
        options = CompileOptions(
            objective=make_objective(ns.objective),
            elastic_cases=ns.elastic,
            elastic_branch=ns.branch,
        )
        handle = self.controller.deploy(
            source, program_name=ns.program, options=options
        )
        self._handles[handle.program_id] = handle
        stats = handle.stats
        self._print(
            f"deployed '{handle.name}' as #{handle.program_id}: "
            f"alloc {stats.allocation_ms:.2f} ms, update {stats.update_ms:.2f} ms, "
            f"{stats.entries} entries, RPBs {stats.logic_rpbs}"
        )
        for warning in stats.overlap_warnings:
            self._print(f"warning: {warning}")

    def cmd_revoke(self, args) -> None:
        program_id = self._program_id(args)
        delay = self.controller.revoke(program_id)
        self._handles.pop(program_id, None)
        self._cases.pop(program_id, None)
        self._print(f"revoked #{program_id} in {delay:.2f} ms")

    def cmd_ps(self, args) -> None:
        """Structured process listing via Controller.list_programs()."""
        listing = self.controller.list_programs()
        if not listing:
            self._print("no programs running")
            return
        self._print(
            f"{'ID':<5s} {'NAME':<14s} {'STATE':<11s} {'ENTRIES':>7s}  "
            f"{'LOGIC RPBS':<22s} MEMORY"
        )
        for info in listing:
            rpbs = ",".join(str(r) for r in info["logic_rpbs"])
            memories = " ".join(
                f"{mid}:{m['size']}@rpb{m['phys_rpb']}"
                for mid, m in info["memory"].items()
            )
            self._print(
                f"#{info['program_id']:<4d} {info['name']:<14s} {info['state']:<11s} "
                f"{info['entries']:>7d}  {rpbs:<22s} {memories or '-'}"
            )

    def cmd_list(self, args) -> None:
        records = self.controller.running_programs()
        if not records:
            self._print("no programs running")
            return
        for record in records:
            entries = len(record.batch)
            memories = ", ".join(
                f"{mid}@rpb{alloc.phys_rpb}+{alloc.base}"
                for mid, alloc in sorted(record.memory.items())
            )
            self._print(
                f"#{record.program_id:<4d} {record.name:12s} {record.state.value:10s} "
                f"{entries:4d} entries  {memories or '-'}"
            )

    def cmd_show(self, args) -> None:
        record = self.controller.manager.get(self._program_id(args))
        self._print(format_program(record.compiled.program))
        allocation = record.compiled.allocation
        self._print(f"// logic RPBs: {allocation.x}")
        self._print(f"// objective {allocation.objective_name} = "
                    f"{allocation.objective_value:.3f}, "
                    f"recirculations: {allocation.max_iteration}")

    def cmd_mem(self, args) -> None:
        if len(args) < 4:
            raise CLIError("usage: mem read|write <id> <mid> <vaddr> [value]")
        op, pid, mid, vaddr = args[0], int(args[1]), args[2], int(args[3], 0)
        if op == "read":
            value = self.controller.read_memory(pid, mid, vaddr)
            self._print(f"{mid}[{vaddr}] = {value} ({value:#x})")
        elif op == "write":
            if len(args) < 5:
                raise CLIError("mem write needs a value")
            self.controller.write_memory(pid, mid, vaddr, int(args[4], 0))
            self._print("ok")
        else:
            raise CLIError(f"unknown mem op {op!r}")

    def cmd_addcase(self, args) -> None:
        parser = argparse.ArgumentParser(prog="addcase", add_help=False)
        parser.add_argument("program_id", type=int)
        parser.add_argument("--cond", action="append", required=True)
        parser.add_argument("--branch", type=int, default=0)
        parser.add_argument("--template", type=int, default=0)
        parser.add_argument("--loadi", action="append", type=lambda v: int(v, 0))
        ns = parser.parse_args(args)
        conditions = []
        for cond in ns.cond:
            register, value, mask = cond.split(",")
            conditions.append((register, int(value, 0), int(mask, 0)))
        case = self.controller.add_case(
            ns.program_id,
            conditions,
            branch_index=ns.branch,
            template_case=ns.template,
            loadi_values=ns.loadi,
        )
        self._cases.setdefault(ns.program_id, []).append(case)
        self._print(f"added case (branch id {case.branch_id}) to #{ns.program_id}")

    def cmd_trace(self, args) -> None:
        if not args:
            raise CLIError("usage: trace <pcap-file> [packet-index]")
        if self.dataplane is None or not hasattr(self.dataplane, "process"):
            raise CLIError("no data plane attached to this session")
        from .dataplane.tracing import capture_trace
        from .rmt.wire import load_pcap

        packets = load_pcap(args[0])
        index = int(args[1]) if len(args) > 1 else 0
        if not 0 <= index < len(packets):
            raise CLIError(f"capture has {len(packets)} packets")
        with capture_trace() as trace:
            result = self.dataplane.process(packets[index])
        self._print(trace.render() or "(no program owned this packet)")
        ports = f" ports={list(result.egress_ports)}" if result.egress_ports else ""
        self._print(
            f"verdict: {result.verdict.value} "
            f"(port {result.egress_port}{ports}, "
            f"{result.recirculations} recirculation(s))"
        )

    def cmd_util(self, args) -> None:
        util = self.controller.utilization()
        self._print(
            f"memory {util['memory']:.1%}   entries {util['entries']:.1%}"
        )
        snap = self.controller.manager.utilization_snapshot()
        spec = self.controller.spec
        for i, (mem, te) in enumerate(zip(snap["memory"], snap["entries"]), start=1):
            # Physical RPB i is also logic RPB i (iteration/hop 0), so the
            # spec's ingress test labels both single-switch and chain
            # layouts correctly.
            gress = "ingress" if spec.is_ingress(i) else "egress"
            self._print(f"  rpb{i:<3d} ({gress:7s}) mem {mem:6.1%}  entries {te:6.1%}")

    def cmd_profile(self, args) -> None:
        from .baselines.profiles import p4runpro_profile

        profile = p4runpro_profile()
        self._print(f"latency (cycles): {profile.latency_cycles}")
        self._print(
            "power (W): "
            + "/".join(f"{w:.2f}" for w in profile.power_watts)
            + f"  traffic limit load {profile.traffic_limit_load:.1%}"
        )
        for key, value in profile.utilization.items():
            self._print(f"  {key:12s} {value:5.1f}%")

    # -- helpers ---------------------------------------------------------------------
    def _program_id(self, args) -> int:
        if not args:
            raise CLIError("missing program id")
        return int(args[0])


def _load_topology(spec: str, **overrides):
    """Build a Topology from ``NxM`` shorthand or a JSON spec file path."""
    import re

    from .fabric import Topology

    shorthand = re.fullmatch(r"(\d+)x(\d+)", spec)
    if shorthand:
        return Topology.leaf_spine(
            int(shorthand.group(1)), int(shorthand.group(2)), **overrides
        )
    return Topology.from_spec(spec, **overrides)


def fabric_main(argv: list[str]) -> int:
    """``p4runpro fabric``: build, inspect, and exercise fabrics."""
    parser = argparse.ArgumentParser(
        prog="p4runpro fabric",
        description="Multi-switch leaf-spine fabric tools",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    spec_p = sub.add_parser("spec", help="emit a JSON topology spec")
    spec_p.add_argument("--leaves", type=int, default=2)
    spec_p.add_argument("--spines", type=int, default=2)
    spec_p.add_argument("--workers", type=int, default=0)
    spec_p.add_argument("--latency-us", type=float, default=2.0)
    spec_p.add_argument("--bandwidth-gbps", type=float, default=100.0)
    spec_p.add_argument("--loss", type=float, default=0.0)
    spec_p.add_argument("--out", help="write the spec to a file")

    show_p = sub.add_parser("show", help="describe a topology spec")
    show_p.add_argument("spec", help="NxM shorthand or a spec file")

    run_p = sub.add_parser("run", help="drive traffic through a fabric")
    run_p.add_argument("spec", help="NxM shorthand or a spec file")
    run_p.add_argument("--packets", type=int, default=5000)
    run_p.add_argument("--locality", type=float, default=0.5)
    run_p.add_argument("--deploy", action="append", default=[],
                       help="program source file to deploy fabric-wide "
                       "(repeatable)")
    run_p.add_argument("--routing", choices=("auto", "controlled"),
                       default="auto")
    run_p.add_argument("--seed", type=int, default=7)
    run_p.add_argument("--link-down", action="append", default=[],
                       metavar="A:B@K",
                       help="take link A<->B down before packet K")
    run_p.add_argument("--node-down", action="append", default=[],
                       metavar="NAME@K",
                       help="take a switch down before packet K")
    run_p.add_argument("--reroute", type=int, action="append", default=[],
                       metavar="K",
                       help="controller reroute before packet K")
    ns = parser.parse_args(argv)
    import json

    if ns.cmd == "spec":
        spec = {
            "kind": "leaf-spine",
            "leaves": ns.leaves,
            "spines": ns.spines,
            "workers": ns.workers,
            "host_ports": 4,
            "link": {
                "latency_us": ns.latency_us,
                "bandwidth_gbps": ns.bandwidth_gbps,
                "loss": ns.loss,
            },
        }
        text = json.dumps(spec, indent=2)
        if ns.out:
            Path(ns.out).write_text(text + "\n")
            print(f"wrote {ns.out}")
        else:
            print(text)
        return 0

    if ns.cmd == "show":
        with _load_topology(ns.spec) as topo:
            print(f"leaves: {', '.join(topo.leaves) or '-'}")
            print(f"spines: {', '.join(topo.spines) or '-'}")
            for leaf, (base, mask) in topo.leaf_subnets.items():
                prefix = 32 - ((~mask) & 0xFFFFFFFF).bit_length()
                print(
                    f"  {leaf}: {base >> 24 & 255}.{base >> 16 & 255}."
                    f"{base >> 8 & 255}.{base & 255}/{prefix}"
                )
            for link in topo.links:
                print(
                    f"link {link.name}  latency {link.latency_s * 1e6:.1f} us  "
                    f"{link.bandwidth_gbps:.0f} Gb/s  loss {link.loss:.3%}"
                )
        return 0

    # cmd == "run"
    from .fabric import FabricController, Scenario
    from .traffic import make_fabric_population

    with _load_topology(ns.spec) as topo:
        fabric_ctl = FabricController(topo, routing=ns.routing)
        for source_file in ns.deploy:
            program = fabric_ctl.deploy(Path(source_file).read_text())
            print(
                f"deployed '{program.name}' as #{program.program_id} "
                f"on {len(program.handles)} switches"
            )
        traffic = make_fabric_population(
            topo, num_flows=min(4096, max(64, ns.packets // 4)),
            locality=ns.locality, seed=ns.seed,
        )
        scenario = Scenario()
        for item in ns.link_down:
            ends, _, at = item.partition("@")
            a, _, b = ends.partition(":")
            scenario.link_down(int(at or 0), a, b)
        for item in ns.node_down:
            name, _, at = item.partition("@")
            scenario.node_down(int(at or 0), name)
        for at in ns.reroute:
            scenario.reroute(at)
        report = fabric_ctl.fabric.run(
            traffic.assignments(ns.packets),
            scenario=scenario if scenario.events else None,
        )
        print(
            f"injected {report.injected}  delivered {report.delivered}  "
            f"reorders {report.reorders}  wall {report.wall_s * 1e3:.1f} ms"
        )
        if report.drops:
            print("drops: " + ", ".join(
                f"{cause}={n}" for cause, n in sorted(report.drops.items())
            ))
        for event in report.reroutes:
            print(
                f"reroute at packet {event['at_index']}: "
                f"{event['latency_ms']:.3f} ms"
            )
        for name, link in sorted(report.per_link.items()):
            print(
                f"  {name}: carried {link['carried']}  "
                f"drops down/loss/bw {link['dropped_down']}/"
                f"{link['dropped_loss']}/{link['dropped_bandwidth']}"
            )
    return 0


def serve_main(argv: list[str]) -> int:
    """``p4runpro serve``: run the northbound control service."""
    parser = argparse.ArgumentParser(
        prog="p4runpro serve",
        description="Run the multi-tenant northbound control service "
        "(newline-delimited JSON-RPC over TCP)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9400)
    parser.add_argument(
        "--chain",
        type=int,
        metavar="HOPS",
        help="serve a switch chain of HOPS hops instead of a single switch",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="shard traffic across N switch-replica worker processes "
        "(consistent-hash routed; incompatible with --chain)",
    )
    parser.add_argument(
        "--min-workers",
        type=int,
        metavar="N",
        help="floor the `scale` RPC may shrink the worker fleet to "
        "(requires --workers)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        metavar="N",
        help="ceiling the `scale` RPC may grow the worker fleet to "
        "(requires --workers)",
    )
    parser.add_argument(
        "--rebalance",
        type=float,
        metavar="SKEW",
        help="auto-rebalance the engine after injects once the hottest "
        "shard's traffic share exceeds SKEW (e.g. 0.7; requires "
        "--workers)",
    )
    parser.add_argument(
        "--fabric",
        metavar="SPEC",
        help="serve a multi-switch fabric instead of a single switch; "
        "SPEC is NxM (leaves x spines) or a JSON topology spec file "
        "(incompatible with --chain/--workers)",
    )
    parser.add_argument(
        "--routing",
        choices=("auto", "controlled"),
        default="auto",
        help="fabric ECMP mode: auto (data-plane failover) or controlled "
        "(routes pinned until a controller reroute)",
    )
    parser.add_argument(
        "--max-programs", type=int, default=8, help="per-tenant program quota"
    )
    parser.add_argument(
        "--max-memory-buckets", type=int, default=65536,
        help="per-tenant memory-bucket quota",
    )
    parser.add_argument(
        "--max-table-entries", type=int, default=512,
        help="per-tenant table-entry quota",
    )
    parser.add_argument(
        "--no-codegen", action="store_true",
        help="disable trace-to-source codegen, the data plane's fast path "
        "(every packet walks the reference interpreter)",
    )
    parser.add_argument(
        "--no-shm", action="store_true",
        help="disable the shared-memory ring transport between the engine "
        "coordinator and its workers (packet batches travel as pickled "
        "pipe frames instead); engine mode only",
    )
    parser.add_argument(
        "--shm-ring-bytes", type=int, default=None, metavar="N",
        help="per-direction shared-memory ring capacity in bytes "
        "(default 1 MiB); engine mode only",
    )
    parser.add_argument(
        "--shm-chunk-packets", type=int, default=None, metavar="N",
        help="packets per streamed ring chunk (default 256); engine "
        "mode only",
    )
    ns = parser.parse_args(argv)
    import asyncio

    from .service import ControlService, TenantQuota, TenantRegistry, serve

    if ns.chain and ns.workers:
        parser.error("--workers shards a single switch; combining it with "
                     "--chain is not supported")
    if ns.fabric and (ns.chain or ns.workers):
        parser.error("--fabric serves a topology; combining it with "
                     "--chain/--workers is not supported")
    if not ns.workers and (
        ns.min_workers is not None
        or ns.max_workers is not None
        or ns.rebalance is not None
    ):
        parser.error("--min-workers/--max-workers/--rebalance require "
                     "--workers (the sharded engine)")
    if (
        ns.min_workers is not None
        and ns.max_workers is not None
        and ns.min_workers > ns.max_workers
    ):
        parser.error("--min-workers cannot exceed --max-workers")
    if not ns.workers and (
        ns.no_shm or ns.shm_ring_bytes is not None
        or ns.shm_chunk_packets is not None
    ):
        parser.error("--no-shm/--shm-ring-bytes/--shm-chunk-packets require "
                     "--workers (the sharded engine)")
    tenants = TenantRegistry(
        TenantQuota(ns.max_programs, ns.max_memory_buckets, ns.max_table_entries)
    )
    engine = None
    topology = None
    if ns.fabric:
        from .fabric import FabricController

        topology = _load_topology(ns.fabric, codegen=not ns.no_codegen)
        fabric = FabricController(topology, routing=ns.routing)
        service = ControlService(fabric=fabric, tenants=tenants)
        print(
            f"fabric: {len(topology.leaves)} leaves x "
            f"{len(topology.spines)} spines, routing {ns.routing}"
        )
    elif ns.workers:
        from .engine import DEFAULT_CHUNK_PACKETS, DEFAULT_RING_BYTES, ShardedEngine

        engine = ShardedEngine(
            ns.workers,
            codegen=not ns.no_codegen,
            use_shm=not ns.no_shm,
            ring_bytes=ns.shm_ring_bytes or DEFAULT_RING_BYTES,
            chunk_packets=ns.shm_chunk_packets or DEFAULT_CHUNK_PACKETS,
        )
        service = ControlService(
            engine=engine,
            tenants=tenants,
            min_workers=ns.min_workers,
            max_workers=ns.max_workers,
            rebalance_threshold=ns.rebalance,
        )
        elastic = ""
        if ns.min_workers is not None or ns.max_workers is not None:
            elastic = (
                f" (elastic {ns.min_workers or 1}.."
                f"{ns.max_workers if ns.max_workers is not None else 'inf'})"
            )
        if ns.rebalance is not None:
            elastic += f", auto-rebalance at skew {ns.rebalance}"
        transport = engine.transport_stats()
        wire = (
            f"shm rings ({transport['ring_bytes']} B x "
            f"{transport['workers_with_rings']} workers)"
            if transport["enabled"] and transport["workers_with_rings"]
            else "pipes"
        )
        print(
            f"sharded engine: {ns.workers} worker processes{elastic}, "
            f"southbound transport: {wire}"
        )
    else:
        if ns.chain:
            controller, dataplane = Controller.with_chain(ns.chain)
        else:
            controller, dataplane = Controller.with_simulator()
        service = ControlService(controller, dataplane, tenants=tenants)
    codegen = getattr(service.dataplane, "codegen", None)
    if codegen is not None:
        codegen.enabled = not ns.no_codegen
        codegen.flush()
    def ready(server) -> None:
        print(
            f"p4runpro control service listening on {ns.host}:{server.port}",
            flush=True,
        )

    try:
        asyncio.run(serve(ns.host, ns.port, service, on_ready=ready))
    except KeyboardInterrupt:
        print("drained; bye")
    finally:
        if engine is not None:
            engine.close()
        if topology is not None:
            topology.close()
    return 0


def client_main(argv: list[str]) -> int:
    """``p4runpro client``: one RPC against a running control service.

    The method's params are given as ``key=value`` pairs; values parse as
    JSON when possible (so ``program_id=3`` is an int and
    ``conditions=[["har",1,255]]`` is a list), else as strings.
    ``source=@file.rp`` inlines a file's contents.
    """
    parser = argparse.ArgumentParser(
        prog="p4runpro client",
        description="Send one RPC to a running control service",
    )
    parser.add_argument("method", help="RPC method, e.g. deploy, list, metrics")
    parser.add_argument("params", nargs="*", help="key=value params")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9400)
    parser.add_argument("--tenant", default="default")
    parser.add_argument("--deadline-ms", type=float)
    parser.add_argument(
        "--codec",
        choices=("ndjson", "binary"),
        default="ndjson",
        help="wire codec (binary negotiates the length-prefixed fast path)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="subscribe to the method as a push stream (stats/metrics/audit) "
        "and print one JSON line per server push until interrupted",
    )
    parser.add_argument(
        "--interval-ms",
        type=float,
        default=500.0,
        help="push interval for --watch (default 500)",
    )
    ns = parser.parse_args(argv)
    import json

    from .service import ServiceClient, ServiceError

    params = {}
    for pair in ns.params:
        if "=" not in pair:
            parser.error(f"param {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        if value.startswith("@"):
            value = Path(value[1:]).read_text()
        else:
            try:
                value = json.loads(value)
            except json.JSONDecodeError:
                pass
        params[key] = value
    if ns.watch and ns.method not in ("stats", "metrics", "audit"):
        parser.error("--watch supports the stats, metrics, and audit streams")
    try:
        with ServiceClient(
            ns.host, ns.port, tenant=ns.tenant, codec=ns.codec
        ) as client:
            try:
                if ns.watch:
                    sub_params = {
                        "streams": [ns.method],
                        "interval_ms": ns.interval_ms,
                    }
                    if "program_id" in params:
                        sub_params["program_id"] = params["program_id"]
                    ack = client.call("subscribe", sub_params)
                    print(json.dumps(ack, sort_keys=True))
                    try:
                        for event in client.events():
                            print(json.dumps(event, sort_keys=True), flush=True)
                    except KeyboardInterrupt:
                        return 0
                    return 0
                result = client.call(ns.method, params, deadline_ms=ns.deadline_ms)
            except ServiceError as exc:
                print(f"error [{exc.code.value}]: {exc.message}", file=sys.stderr)
                return 1
    except OSError as exc:
        print(f"error: cannot reach {ns.host}:{ns.port} ({exc})", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        return client_main(argv[1:])
    if argv and argv[0] == "fabric":
        return fabric_main(argv[1:])
    parser = argparse.ArgumentParser(description="P4runpro runtime CLI")
    parser.add_argument(
        "-c",
        "--command",
        action="append",
        default=[],
        help="run a command and continue (repeatable); no REPL if given",
    )
    parser.add_argument(
        "--chain",
        type=int,
        metavar="HOPS",
        help="drive a switch chain of HOPS recirculation-free switches "
        "instead of a single switch",
    )
    ns = parser.parse_args(argv)
    if ns.chain:
        controller, dataplane = Controller.with_chain(ns.chain)
        cli = RuntimeCLI(controller, dataplane)
    else:
        cli = RuntimeCLI()
    if ns.command:
        for command in ns.command:
            cli.execute(command)
        return 0
    print("P4runpro runtime CLI — 'help' for commands, 'quit' to exit")
    cli.repl()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
