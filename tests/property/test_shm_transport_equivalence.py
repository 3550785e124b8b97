"""Shm-ring transport vs pipe transport: bit-identical under churn.

The shared-memory data path replaces pickle-over-pipe with a wire-native
codec, chunked streaming, and an order-preserving pipe fallback — none of
which may change a single observable bit.  Two engines run the same
randomized schedule (deploys, revokes, ``add_case`` growth, register
writes, traffic bursts, and worker add/remove rescales applied in
lockstep), one over shm rings and one with ``use_shm=False``.  After
every burst the per-packet verdicts, egress ports, recirculation counts,
egress fan-out, and bridge state must match; at the end merged register
snapshots, per-program entry/table counters, and aggregate TM totals
must match bit for bit.  A third schedule squeezes the rings (tiny
capacity, zero stall budget) so the very fallbacks being relied on —
ring-full and oversize reroutes to ``batch_rest`` — are exercised while
equivalence holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ShardedEngine
from repro.lang.errors import P4runproError
from repro.programs import PROGRAMS

from .strategies import churn_examples
from .test_codegen_equivalence import NAMES, _burst, _churn, _outcome

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("deploy"), st.sampled_from(NAMES)),
        st.tuples(st.just("revoke"), st.integers(0, 7)),
        st.tuples(st.just("add_case"), st.integers(0, 0xFFFF)),
        st.tuples(st.just("write_mem"), st.integers(0, 31)),
        st.tuples(st.just("traffic"), st.integers(0, 2**16)),
    ),
    min_size=3,
    max_size=12,
)

rescale_ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("deploy"), st.sampled_from(NAMES)),
        st.tuples(st.just("revoke"), st.integers(0, 7)),
        st.tuples(st.just("traffic"), st.integers(0, 2**16)),
        st.tuples(st.just("add_worker"), st.just(0)),
        st.tuples(st.just("remove_worker"), st.just(0)),
    ),
    min_size=4,
    max_size=10,
)


def _assert_final_state(subject, ref, live):
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


@settings(max_examples=churn_examples(5), deadline=None)
@given(ops=ops_strategy)
def test_shm_transport_is_observationally_identical(ops):
    """2-worker engines, shm rings vs pipes, same churn schedule."""
    with ShardedEngine(2) as subject, ShardedEngine(2, use_shm=False) as ref:
        assert subject.transport_stats()["enabled"]
        assert not ref.transport_stats()["enabled"]
        live = _churn(
            ops, subject.controller, subject.inject, ref.controller, ref.inject
        )
        _assert_final_state(subject, ref, live)
        # The subject never regressed to classic pipe batches, and the
        # reference never touched a ring.
        assert subject.transport_stats()["pipe_batches"] == 0
        assert ref.transport_stats()["ring_batches"] == 0


@settings(max_examples=churn_examples(3), deadline=None)
@given(ops=rescale_ops_strategy)
def test_shm_transport_equivalent_under_rescale(ops):
    """Worker add/remove churn in lockstep: ring allocation/retirement
    and live migration must not perturb results relative to pipes."""
    with ShardedEngine(2) as subject, ShardedEngine(2, use_shm=False) as ref:
        live = []
        for op, arg in ops:
            if op == "deploy":
                try:
                    a = subject.controller.deploy(PROGRAMS[arg].source)
                except P4runproError:
                    continue
                b = ref.controller.deploy(PROGRAMS[arg].source)
                live.append((arg, a, b))
            elif op == "revoke":
                if not live:
                    continue
                _name, a, b = live.pop(arg % len(live))
                subject.controller.revoke(a.program_id)
                ref.controller.revoke(b.program_id)
            elif op == "add_worker":
                if subject.num_workers < 4:
                    subject.add_worker()
                    ref.add_worker()
                assert (
                    subject.transport_stats()["workers_with_rings"]
                    == subject.num_workers
                )
            elif op == "remove_worker":
                if subject.num_workers > 1:
                    subject.remove_worker()
                    ref.remove_worker()
                assert (
                    subject.transport_stats()["workers_with_rings"]
                    == subject.num_workers
                )
            else:  # traffic
                burst = _burst(arg)
                got = subject.inject([p.clone() for p in burst])
                want = ref.inject([p.clone() for p in burst])
                assert [_outcome(r) for r in got] == [
                    _outcome(r) for r in want
                ]
        assert subject.num_workers == ref.num_workers
        _assert_final_state(subject, ref, live)


@settings(max_examples=churn_examples(3), deadline=None)
@given(ops=ops_strategy)
def test_shm_transport_equivalent_under_forced_fallback(ops):
    """Starved rings (tiny capacity, zero stall budget) force the
    oversize/ring-full reroutes; outcomes must still match pipes."""
    with ShardedEngine(
        2, ring_bytes=2048, chunk_packets=64, ring_stall_timeout_s=0.0
    ) as subject, ShardedEngine(2, use_shm=False) as ref:
        live = _churn(
            ops, subject.controller, subject.inject, ref.controller, ref.inject
        )
        _assert_final_state(subject, ref, live)
