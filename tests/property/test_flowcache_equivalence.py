"""Flow cache vs full pipeline walk: observational equivalence under churn.

Two data planes run the same randomized schedule — deploys, revokes,
dynamic ``add_case`` growth, control-plane register writes, and traffic
bursts drawn from skewed flow templates — one with the two-tier flow
cache enabled, one with it disabled (the reference walks every packet
through the full pipeline).  After every burst the per-packet verdicts,
egress ports, recirculation counts, and bridge state must be identical;
at the end the register arrays, traffic-manager counters, and per-table
lookup/hit counters must match bit for bit.  The cache is only allowed
to make forwarding *faster*, never *different* — including for stateful
programs whose SALU ops must re-execute live on every hit, and across
mid-stream invalidation, including a ``steal`` op that installs a filter
entry ordering ahead of the entry cached flows matched.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controlplane import Controller
from repro.dataplane.runpro import P4runproDataPlane
from repro.lang.errors import P4runproError
from repro.programs import PROGRAMS
from repro.rmt.packet import make_cache, make_l2, make_tcp, make_udp
from tests.property.test_codegen_equivalence import ADD_CASE_EXAMPLE, STEAL_EXAMPLE, steal

#: deployable mix: stateless forwarding, stateful aggregation, a
#: recirculating program, and an uncacheable register-branching one
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


def _burst(seed: int):
    """A deterministic skewed packet burst: few hot flows, some cold."""
    packets = []
    for i in range(10):
        flow = (seed + i * i) % 5  # repeats within the burst: cache hits
        packets.append(make_udp(0x0A000000 + flow, 2, 1000 + flow, 80))
        packets.append(make_tcp(0x0A000000 + flow, 3, 2000 + flow, 443))
        packets.append(make_l2(dst=flow))
        packets.append(make_cache(1, 2, op=1 + flow % 2, key=flow % 3))
    return packets


def _outcomes(dataplane, seed: int):
    return [
        (r.verdict, r.egress_port, r.recirculations, r.egress_ports,
         sorted(r.bridge.items()))
        for r in dataplane.process_many([p.clone() for p in _burst(seed)])
    ]


@settings(max_examples=20, deadline=None)
@given(ops=ops_strategy)
@example(ops=STEAL_EXAMPLE)
@example(ops=ADD_CASE_EXAMPLE)
def test_cached_forwarding_is_observationally_identical(ops):
    cached_ctl, cached = Controller.with_simulator()
    # Codegen off on BOTH sides: this suite isolates cache-vs-interpreter
    # (the codegen tier has its own churn suite in
    # test_codegen_equivalence.py).
    cached.codegen.enabled = False
    reference = P4runproDataPlane(flow_cache=False, codegen=False)
    ref_ctl = Controller(reference)
    assert cached.flow_cache.enabled
    assert not reference.flow_cache.enabled

    live = []  # (name, cached handle, reference handle)
    stolen = []
    for op, arg in ops:
        if op == "steal":
            steal([cached, reference], stolen, arg, live)
        elif op == "deploy":
            try:
                a = cached_ctl.deploy(PROGRAMS[arg].source)
            except P4runproError:
                try:
                    ref_ctl.deploy(PROGRAMS[arg].source)
                except P4runproError:
                    continue
                raise AssertionError("only the cached side failed to deploy")
            b = ref_ctl.deploy(PROGRAMS[arg].source)
            live.append((arg, a, b))
        elif op == "revoke":
            if not live:
                continue
            _name, a, b = live.pop(arg % len(live))
            cached_ctl.revoke(a.program_id)
            ref_ctl.revoke(b.program_id)
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
                cached_ctl.add_case(
                    a, conditions(), template_case=0, loadi_values=[arg % 256]
                )
            except P4runproError:
                try:
                    ref_ctl.add_case(
                        b, conditions(), template_case=0, loadi_values=[arg % 256]
                    )
                except P4runproError:
                    continue
                raise AssertionError("only the cached side failed add_case")
            ref_ctl.add_case(
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
            cached_ctl.write_memory(a, mid, arg, 0xBEEF ^ arg)
            ref_ctl.write_memory(b, mid, arg, 0xBEEF ^ arg)
        else:  # traffic
            assert _outcomes(cached, arg) == _outcomes(reference, arg)

    # Final state: registers, TM counters, and table counters bit-identical.
    for phys in range(1, 23):
        assert (
            cached._array(phys).snapshot() == reference._array(phys).snapshot()
        ), f"rpb{phys} register state diverged"
    for attr in ("forwarded", "dropped", "reflected", "to_cpu", "multicast"):
        assert getattr(cached.switch.tm, attr) == getattr(
            reference.switch.tm, attr
        ), attr
    assert cached.switch.packets_in == reference.switch.packets_in
    assert cached.switch.pipeline_passes == reference.switch.pipeline_passes
    for name in cached.tables:
        ct, rt = cached.tables[name], reference.tables[name]
        assert (ct.lookups, ct.hits) == (rt.lookups, rt.hits), name
