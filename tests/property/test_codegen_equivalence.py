"""Codegen tier vs interpreter: observational equivalence under churn.

Two data planes run the same randomized schedule — deploys, revokes,
dynamic ``add_case`` growth, control-plane register writes, and traffic
bursts drawn from skewed flow templates — one serving packets through
trace-to-source generated functions, the reference walking every packet
through the interpreted pipeline.  After every burst the per-packet
verdicts, egress ports, recirculation counts, and bridge state must be
identical; at the end the register arrays, traffic-manager counters, and
per-table lookup/hit counters must match bit for bit.  Generated code is
only allowed to make forwarding *faster*, never *different* — including
for stateful programs whose SALU ops re-execute on every packet, for
register-branching programs the megaflow cache refuses, and across
mid-stream invalidation (a stale function must never run: each one
depends on the table versions it read, and a ``steal`` op installs a
filter entry that orders ahead of the entries a cached chain tested).

Three configurations are proven:

* codegen alone (flow cache off) against the bare interpreter;
* the full three-tier stack (EMC/megaflow -> codegen -> interpreter)
  against the bare interpreter — this exercises the ``_process_miss``
  hand-off where negative megaflow entries route to generated code;
* a 2-worker sharded engine with per-worker codegen caches against an
  identical engine with codegen disabled.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controlplane import Controller
from repro.dataplane import constants as dp
from repro.dataplane.runpro import P4runproDataPlane
from repro.lang.errors import P4runproError
from repro.programs import PROGRAMS
from repro.rmt.packet import make_cache, make_l2, make_tcp, make_udp
from repro.rmt.table import TableEntry, TernaryKey

#: deployable mix: stateless forwarding, stateful aggregation, a
#: recirculating program, and a register-branching one (uncacheable for
#: the megaflow tier but fully codegen-servable)
NAMES = ("l2fwd", "dqacc", "cache", "firewall", "hh")

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("deploy"), st.sampled_from(NAMES)),
        st.tuples(st.just("revoke"), st.integers(0, 7)),
        st.tuples(st.just("add_case"), st.integers(0, 0xFFFF)),
        st.tuples(st.just("write_mem"), st.integers(0, 31)),
        st.tuples(st.just("traffic"), st.integers(0, 2**16)),
        st.tuples(st.just("steal"), st.integers(0, 255)),
    ),
    min_size=3,
    max_size=14,
)


def steal(dataplanes, stolen, arg, live):
    """Install a filter entry straight into each init table with a
    priority number below every deployed entry's, so it orders ahead of
    (and takes over) the flows from one source address, or (odd ``arg``)
    delete the oldest such entry; ``stolen`` keeps the handles.  Bit 1
    of ``arg`` steers the stolen flows to no program or to one live
    program (the same one on each side).
    """
    tables = [d.tables[dp.INIT_TABLE] for d in dataplanes]
    if arg % 2:
        if stolen:
            for table, handle in zip(tables, stolen.pop(0)):
                table.delete(handle)
        return
    key = (TernaryKey("hdr.ipv4.src", 0x0A000000 + arg // 4 % 5, 0xFFFFFFFF),)
    pids = [0, 0]
    if arg & 2 and live:
        pids = [h.program_id for h in live[arg // 20 % len(live)][1:]]
    stolen.append(tuple(
        table.insert(TableEntry(key, dp.ACTION_SET_PROGRAM,
                                {"program_id": pid}, priority=-1))
        for table, pid in zip(tables, pids)
    ))


#: a flow cached under l2fwd's filter, then taken over by a stealing one
STEAL_EXAMPLE = [("deploy", "l2fwd"), ("traffic", 0), ("steal", 0), ("traffic", 0)]
#: flows cached under cache's bucket, then one of them served by a new case
ADD_CASE_EXAMPLE = [("deploy", "cache"), ("traffic", 0), ("add_case", 1), ("traffic", 0)]


def _burst(seed: int):
    """A deterministic skewed packet burst: few hot flows, some cold."""
    packets = []
    for i in range(10):
        flow = (seed + i * i) % 5  # repeats within the burst: codegen hits
        packets.append(make_udp(0x0A000000 + flow, 2, 1000 + flow, 80))
        packets.append(make_tcp(0x0A000000 + flow, 3, 2000 + flow, 443))
        packets.append(make_l2(dst=flow))
        packets.append(make_cache(1, 2, op=1 + flow % 2, key=flow % 3))
    return packets


def _outcome(r):
    return (r.verdict, r.egress_port, r.recirculations, r.egress_ports,
            sorted(r.bridge.items()))


def _churn(ops, subject_ctl, process_subject, reference_ctl, process_reference):
    """Drive both controllers through the schedule, comparing per-burst
    outcomes; mutations apply to both sides in lockstep so mid-stream
    invalidation is exercised between (and, via batching, within) bursts.
    ``process_*`` take a packet list and return the per-packet results.
    """
    live = []  # (name, subject handle, reference handle)
    stolen = []
    for op, arg in ops:
        if op == "steal":
            # only on in-process data planes (an engine owns its tables)
            planes = [ctl.updater.binding for ctl in (subject_ctl, reference_ctl)]
            if all(isinstance(p, P4runproDataPlane) for p in planes):
                steal(planes, stolen, arg, live)
        elif op == "deploy":
            try:
                a = subject_ctl.deploy(PROGRAMS[arg].source)
            except P4runproError:
                try:
                    reference_ctl.deploy(PROGRAMS[arg].source)
                except P4runproError:
                    continue
                raise AssertionError("only the codegen side failed to deploy")
            b = reference_ctl.deploy(PROGRAMS[arg].source)
            live.append((arg, a, b))
        elif op == "revoke":
            if not live:
                continue
            _name, a, b = live.pop(arg % len(live))
            subject_ctl.revoke(a.program_id)
            reference_ctl.revoke(b.program_id)
        elif op == "add_case":
            targets = [(a, b) for name, a, b in live if name == "cache"]
            if not targets:
                continue
            a, b = targets[0]
            conditions = lambda: [
                ("har", 1, 0xFF),
                ("sar", 0, 0xFFFFFFFF),
                ("mar", arg, 0xFFFFFFFF),
            ]
            try:
                subject_ctl.add_case(
                    a, conditions(), template_case=0, loadi_values=[arg % 256]
                )
            except P4runproError:
                try:
                    reference_ctl.add_case(
                        b, conditions(), template_case=0, loadi_values=[arg % 256]
                    )
                except P4runproError:
                    continue
                raise AssertionError("only the codegen side failed add_case")
            reference_ctl.add_case(
                b, conditions(), template_case=0, loadi_values=[arg % 256]
            )
        elif op == "write_mem":
            targets = [
                (name, a, b) for name, a, b in live if PROGRAMS[name].memories
            ]
            if not targets:
                continue
            name, a, b = targets[0]
            mid = PROGRAMS[name].memories[0]
            subject_ctl.write_memory(a, mid, arg, 0xBEEF ^ arg)
            reference_ctl.write_memory(b, mid, arg, 0xBEEF ^ arg)
        else:  # traffic
            burst = _burst(arg)
            got = process_subject([p.clone() for p in burst])
            want = process_reference([p.clone() for p in burst])
            assert [_outcome(r) for r in got] == [_outcome(r) for r in want]
    return live


def _assert_final_state(subject, reference):
    for phys in range(1, 23):
        assert (
            subject._array(phys).snapshot() == reference._array(phys).snapshot()
        ), f"rpb{phys} register state diverged"
    for attr in ("forwarded", "dropped", "reflected", "to_cpu", "multicast"):
        assert getattr(subject.switch.tm, attr) == getattr(
            reference.switch.tm, attr
        ), attr
    assert subject.switch.packets_in == reference.switch.packets_in
    assert subject.switch.pipeline_passes == reference.switch.pipeline_passes
    for name in subject.tables:
        st_, rt = subject.tables[name], reference.tables[name]
        assert (st_.lookups, st_.hits) == (rt.lookups, rt.hits), name


@settings(max_examples=20, deadline=None)
@given(ops=ops_strategy)
@example(ops=STEAL_EXAMPLE)
@example(ops=ADD_CASE_EXAMPLE)
def test_codegen_forwarding_is_observationally_identical(ops):
    """Codegen tier alone (flow cache off) vs the bare interpreter."""
    subject = P4runproDataPlane(flow_cache=False)
    subject_ctl = Controller(subject)
    reference = P4runproDataPlane(flow_cache=False, codegen=False)
    reference_ctl = Controller(reference)
    assert subject.codegen.enabled
    assert not reference.codegen.enabled

    _churn(
        ops, subject_ctl, subject.process_many, reference_ctl,
        reference.process_many,
    )
    _assert_final_state(subject, reference)


@settings(max_examples=15, deadline=None)
@given(ops=ops_strategy)
@example(ops=STEAL_EXAMPLE)
@example(ops=ADD_CASE_EXAMPLE)
def test_three_tier_stack_is_observationally_identical(ops):
    """The full stack — EMC/megaflow cache over codegen over interpreter
    — vs the bare interpreter.  Register-branching programs (firewall)
    get negative megaflow entries, so this drives the cache-miss
    ``_process_miss`` hand-off into generated code under churn."""
    subject_ctl, subject = Controller.with_simulator()
    reference = P4runproDataPlane(flow_cache=False, codegen=False)
    reference_ctl = Controller(reference)
    assert subject.flow_cache.enabled and subject.codegen.enabled

    _churn(
        ops, subject_ctl, subject.process_many, reference_ctl,
        reference.process_many,
    )
    _assert_final_state(subject, reference)


@settings(max_examples=5, deadline=None)
@given(ops=ops_strategy)
def test_sharded_engine_codegen_equivalence(ops):
    """2-worker engines, codegen on vs off: per-packet results, merged
    register snapshots, per-program entry counters, and aggregate TM
    totals all identical under the same churn schedule."""
    from repro.engine import ShardedEngine

    with ShardedEngine(2) as subject, ShardedEngine(2, codegen=False) as ref:
        live = _churn(
            ops, subject.controller, subject.inject, ref.controller, ref.inject
        )
        # Merged register state per surviving program, byte-identical.
        for name, a, b in live:
            for mid in PROGRAMS[name].memories:
                assert subject.controller.snapshot_memory(
                    a, mid
                ) == ref.controller.snapshot_memory(b, mid), (name, mid)
            assert subject.controller.program_stats(
                a
            ) == ref.controller.program_stats(b), name
        got, want = subject.stats()["totals"], ref.stats()["totals"]
        for attr in ("packets_in", "pipeline_passes", "forwarded", "dropped",
                     "reflected", "to_cpu", "multicast"):
            assert got[attr] == want[attr], attr
        # The codegen side actually served traffic from generated code.
        assert "codegen" in got
