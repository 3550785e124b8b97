"""Elastic engine vs static switch: observational equivalence under churn.

A 3-worker sharded engine runs a randomized schedule of control-plane
churn (deploys, revokes, dynamic ``add_case`` growth, register writes)
and traffic bursts — with *topology* churn interleaved: workers added
and retired mid-schedule, pinned programs live-migrated between shards.
The reference is a static single-process switch that never rescales.

Per burst, the per-packet verdicts, egress ports, recirculation counts,
and bridge state must be identical; at the end, every surviving
program's register snapshots and per-entry hit counters plus the
engine's aggregated traffic-manager totals must match the reference bit
for bit.  Rescaling and migration are allowed to change *where* a packet
is processed, never *what* happens to it — including counters harvested
from workers that no longer exist.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controlplane import Controller
from repro.engine import ShardedEngine
from repro.programs import PROGRAMS
from tests.property.strategies import churn_examples
from tests.property.test_codegen_equivalence import NAMES, _churn

MAX_WORKERS = 5

#: the control/traffic churn of the codegen suite, plus topology ops;
#: integer args are reduced modulo whatever is live when the op runs
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("deploy"), st.sampled_from(NAMES)),
        st.tuples(st.just("revoke"), st.integers(0, 7)),
        st.tuples(st.just("add_case"), st.integers(0, 0xFFFF)),
        st.tuples(st.just("write_mem"), st.integers(0, 31)),
        st.tuples(st.just("traffic"), st.integers(0, 2**16)),
        st.tuples(st.just("add_worker"), st.just(0)),
        st.tuples(st.just("remove_worker"), st.integers(0, 7)),
        st.tuples(st.just("migrate"), st.integers(0, 7)),
    ),
    min_size=4,
    max_size=16,
)


def _apply_topology(engine, op, arg):
    if op == "add_worker":
        if engine.num_workers < MAX_WORKERS:
            engine.add_worker()
    elif op == "remove_worker":
        if engine.num_workers > 1:
            ids = engine.worker_ids
            engine.remove_worker(ids[arg % len(ids)])
    else:  # migrate
        pinned = sorted(engine.pinned_programs)
        if pinned and engine.num_workers > 1:
            engine.migrate(pinned[arg % len(pinned)])


@settings(max_examples=churn_examples(5), deadline=None)
@given(ops=ops_strategy)
# l2fwd is data-parallel (placement maps it to None): nothing to migrate
@example(ops=[("deploy", "l2fwd"), ("migrate", 0), ("traffic", 0), ("traffic", 1)])
def test_elastic_engine_is_observationally_identical(ops):
    reference_ctl, reference = Controller.with_simulator()
    with ShardedEngine(3) as engine:
        # Interleave: run the shared-churn prefix up to each topology op,
        # apply the topology op to the engine only, continue.
        live = []
        pending = []
        for op, arg in ops:
            if op in ("add_worker", "remove_worker", "migrate"):
                live += _churn(pending, engine.controller, engine.inject,
                               reference_ctl, reference.process_many)
                pending = []
                _apply_topology(engine, op, arg)
            else:
                pending.append((op, arg))
        live += _churn(pending, engine.controller, engine.inject,
                       reference_ctl, reference.process_many)

        # Bit-identical end state: registers and per-entry counters per
        # surviving program, TM totals across the whole fleet (including
        # stats harvested from retired workers).
        for name, a, b in live:
            for mid in PROGRAMS[name].memories:
                assert engine.controller.snapshot_memory(
                    a, mid
                ) == reference_ctl.snapshot_memory(b, mid), (name, mid)
            assert engine.controller.program_stats(
                a
            ) == reference_ctl.program_stats(b), name
        totals = engine.stats()["totals"]
        assert totals["packets_in"] == reference.switch.packets_in
        assert totals["pipeline_passes"] == reference.switch.pipeline_passes
        for attr in ("forwarded", "dropped", "reflected", "to_cpu",
                     "multicast"):
            assert totals[attr] == getattr(reference.switch.tm, attr), attr
        assert engine.num_workers >= 1


@settings(max_examples=churn_examples(3), deadline=None)
@given(ops=ops_strategy)
def test_elastic_engine_matches_static_engine(ops):
    """Same schedule against a 2-worker engine that never rescales: the
    merged controller view (memory snapshots + stats) is topology-blind.
    Exercises ``_assert_final_state``-grade checks at the engine level
    via the coordinator's own mirrored data plane."""
    with ShardedEngine(3) as elastic, ShardedEngine(2) as static:
        live = []
        pending = []
        for op, arg in ops:
            if op in ("add_worker", "remove_worker", "migrate"):
                live += _churn(pending, elastic.controller, elastic.inject,
                               static.controller, static.inject)
                pending = []
                _apply_topology(elastic, op, arg)
            else:
                pending.append((op, arg))
        live += _churn(pending, elastic.controller, elastic.inject,
                       static.controller, static.inject)
        for name, a, b in live:
            for mid in PROGRAMS[name].memories:
                assert elastic.controller.snapshot_memory(
                    a, mid
                ) == static.controller.snapshot_memory(b, mid), (name, mid)
        got, want = elastic.stats()["totals"], static.stats()["totals"]
        for attr in ("packets_in", "forwarded", "dropped", "to_cpu"):
            assert got[attr] == want[attr], attr
