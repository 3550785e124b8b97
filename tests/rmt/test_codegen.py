"""Codegen tier unit tests: dispatch, scoped invalidation (including
mid-batch races), live register visibility, miss routing from the flow
cache, counter coalescing, and stats plumbing."""

from repro.controlplane import Controller
from repro.dataplane.runpro import P4runproDataPlane
from repro.dataplane.tracing import capture_trace
from repro.programs import PROGRAMS
from repro.rmt.packet import (
    NC_READ,
    NC_WRITE,
    make_cache,
    make_l2,
    make_udp,
)
from repro.rmt.pipeline import Switch, Verdict


def deployed(source, *, flow_cache=False, codegen=True):
    """A dataplane with the flow cache OFF by default, so every packet
    exercises the codegen tier (or, with ``codegen=False``, the
    interpreter)."""
    dataplane = P4runproDataPlane(flow_cache=flow_cache, codegen=codegen)
    ctl = Controller(dataplane)
    ctl.deploy(source)
    return ctl, dataplane


def result_tuple(result):
    return (
        result.verdict,
        result.egress_port,
        result.recirculations,
        result.egress_ports,
        sorted(result.bridge.items()),
    )


class TestKnobs:
    def test_default_on(self):
        dataplane = P4runproDataPlane()
        assert dataplane.codegen.enabled
        assert dataplane.codegen is dataplane.switch.codegen

    def test_ctor_knob_disables(self):
        dataplane = P4runproDataPlane(codegen=False)
        assert not dataplane.codegen.enabled

    def test_switch_knob(self):
        machine = P4runproDataPlane().switch.parse_machine
        assert Switch(machine).codegen.enabled
        assert not Switch(machine, codegen=False).codegen.enabled

    def test_disabled_codegen_is_inert(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source, codegen=False)
        for _ in range(4):
            dataplane.process(make_l2(dst=0x1))
        stats = dataplane.codegen.stats()
        assert not stats["enabled"]
        assert stats["hits"] == 0 and stats["compiled"] == 0


class TestDispatch:
    def test_repeat_packets_run_generated_function(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        for _ in range(5):
            result = dataplane.process(make_l2(dst=0x1))
        assert result.verdict is Verdict.FORWARD and result.egress_port == 1
        stats = dataplane.codegen.stats()
        assert stats["hits"] == 5
        assert stats["compiled"] == 1  # one composition, compiled once
        assert stats["functions"] == 1

    def test_matches_interpreter(self):
        _, fast = deployed(PROGRAMS["l2fwd"].source)
        _, slow = deployed(PROGRAMS["l2fwd"].source, codegen=False)
        for dst in (0x1, 0x2, 0x999, 0x1, 0x2):
            a = fast.process(make_l2(dst=dst))
            b = slow.process(make_l2(dst=dst))
            assert result_tuple(a) == result_tuple(b)

    def test_compositions_get_distinct_functions(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1))
        dataplane.process(make_udp(0x0A000001, 2, 1000, 80))
        assert dataplane.codegen.stats()["compiled"] == 2


class TestInvalidation:
    def test_deploy_keeps_other_programs_functions(self):
        """A deploy touches its own RPB buckets and appends a filter entry
        behind l2fwd's catch-all: the l2 function stays valid."""
        ctl, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1))
        compiled = dataplane.codegen.stats()["compiled"]
        ctl.deploy(PROGRAMS["dqacc"].source)
        assert dataplane.process(make_l2(dst=0x1)).egress_port == 1
        stats = dataplane.codegen.stats()
        assert stats["compiled"] == compiled
        assert stats["invalidations"] == 0

    def test_revoke_flushes_stale_function(self):
        ctl, dataplane = deployed(PROGRAMS["l2fwd"].source)
        handle = ctl.running_programs()[0]
        assert dataplane.process(make_l2(dst=0x1)).egress_port == 1
        ctl.revoke(handle.program_id)
        result = dataplane.process(make_l2(dst=0x1))
        assert result.egress_port == 0  # default port: program gone
        assert dataplane.codegen.stats()["invalidations"] >= 1

    def _mid_batch(self, codegen, mutate_when, mutate):
        """Run a 4-packet read burst with ``mutate(ctl, handle)`` applied
        mid-batch (between packets ``mutate_when`` and ``mutate_when+1``,
        from inside the iterator ``process_batch`` consumes)."""
        ctl, dataplane = deployed(PROGRAMS["cache"].source, codegen=codegen)
        handle = ctl.running_programs()[0].program_id

        def stream():
            for i in range(4):
                if i == mutate_when:
                    mutate(ctl, handle)
                yield make_cache(i + 1, 2, op=NC_READ, key=0x8888)

        return dataplane, dataplane.process_many(stream())

    def _mid_batch_equivalence(self, mutate, *, invalidates):
        fast, got = self._mid_batch(True, 2, mutate)
        _slow, want = self._mid_batch(False, 2, mutate)
        assert [result_tuple(a) for a in got] == [
            result_tuple(b) for b in want
        ]
        for phys in range(1, 23):
            assert fast._array(phys).snapshot() == _slow._array(phys).snapshot()
        if invalidates:
            assert fast.codegen.stats()["invalidations"] >= 1

    def test_add_case_mid_batch_never_runs_stale_function(self):
        def mutate(ctl, handle):
            ctl.add_case(
                handle,
                [("har", 1, 0xFF), ("sar", 0, 0xFFFFFFFF), ("mar", 7, 0xFFFF)],
                template_case=0,
                loadi_values=[9],
            )

        self._mid_batch_equivalence(mutate, invalidates=True)

    def test_remove_case_mid_batch_never_runs_stale_function(self):
        def mutate(ctl, handle):
            case = ctl.add_case(
                handle,
                [("har", 1, 0xFF), ("sar", 0, 0xFFFFFFFF), ("mar", 7, 0xFFFF)],
                template_case=0,
                loadi_values=[9],
            )
            ctl.remove_case(handle, case)

        self._mid_batch_equivalence(mutate, invalidates=True)

    def test_write_mem_mid_batch_is_visible(self):
        """Register writes need no invalidation — generated code reads
        the arrays live — but the new value must appear immediately."""

        def mutate(ctl, handle):
            ctl.write_memory(handle, "mem1", 128, 77)

        self._mid_batch_equivalence(mutate, invalidates=False)

    def test_write_mem_does_not_invalidate(self):
        ctl, dataplane = deployed(PROGRAMS["cache"].source)
        handle = ctl.running_programs()[0].program_id
        dataplane.process(make_cache(1, 2, op=NC_READ, key=0x8888))
        compiled = dataplane.codegen.stats()["compiled"]
        ctl.write_memory(handle, "mem1", 128, 55)
        served = dataplane.process(make_cache(2, 2, op=NC_READ, key=0x8888))
        assert served.packet.headers["nc"]["val"] == 55
        stats = dataplane.codegen.stats()
        assert stats["compiled"] == compiled
        assert stats["invalidations"] == 0

    def test_dataplane_writes_visible_without_recompile(self):
        _, dataplane = deployed(PROGRAMS["cache"].source)
        dataplane.process(make_cache(1, 2, op=NC_WRITE, key=0x8888, value=42))
        compiled = dataplane.codegen.stats()["compiled"]
        served = dataplane.process(make_cache(2, 2, op=NC_READ, key=0x8888))
        assert served.packet.headers["nc"]["val"] == 42
        assert dataplane.codegen.stats()["compiled"] == compiled


class TestMissRouting:
    def test_negative_megaflow_entries_route_to_codegen(self):
        """Register-branching programs (hh thresholds on a live CMS
        count) are uncacheable for the megaflow tier; with codegen on,
        those misses run generated code instead of the interpreter."""
        from repro.rmt.packet import make_tcp

        _, dataplane = deployed(PROGRAMS["hh"].source, flow_cache=True)
        packets = [
            make_tcp(0x0A000001, 0x0B000001, 999, 80) for _ in range(8)
        ]
        a = [result_tuple(r) for r in dataplane.process_many(packets)]
        assert dataplane.flow_cache.stats()["uncacheable"] > 0
        assert dataplane.codegen.stats()["hits"] > 0

        _, reference = deployed(
            PROGRAMS["hh"].source, flow_cache=False, codegen=False
        )
        b = [result_tuple(r) for r in reference.process_many(packets)]
        assert a == b


class TestCoalescing:
    """Straight-line bodies defer constant counter bumps to batch end
    (or apply them immediately outside a batch) — either way the final
    counts must be bit-identical to the interpreter's."""

    def _counters(self, dataplane):
        return {
            name: (t.lookups, t.hits) for name, t in dataplane.tables.items()
        } | {
            "packets_in": dataplane.switch.packets_in,
            "pipeline_passes": dataplane.switch.pipeline_passes,
            "forwarded": dataplane.switch.tm.forwarded,
        }

    def test_single_packet_counters_apply_immediately(self):
        _, fast = deployed(PROGRAMS["l2fwd"].source)
        _, slow = deployed(PROGRAMS["l2fwd"].source, codegen=False)
        for dataplane in (fast, slow):
            dataplane.process(make_l2(dst=0x1))  # no batch: no end_batch
        assert self._counters(fast) == self._counters(slow)

    def test_batch_counters_flush_at_end(self):
        _, fast = deployed(PROGRAMS["l2fwd"].source)
        _, slow = deployed(PROGRAMS["l2fwd"].source, codegen=False)
        packets = [make_l2(dst=(i % 3)) for i in range(24)]
        for dataplane in (fast, slow):
            dataplane.process_many([p.clone() for p in packets])
        assert self._counters(fast) == self._counters(slow)

    def test_flush_is_idempotent(self):
        _, fast = deployed(PROGRAMS["l2fwd"].source)
        fast.process_many([make_l2(dst=0x1) for _ in range(8)])
        before = self._counters(fast)
        fast.codegen.end_batch()  # second flush: cells already drained
        assert self._counters(fast) == before


class TestStatsPlumbing:
    def test_dataplane_stats_includes_codegen(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1))
        stats = dataplane.stats()
        assert stats["codegen"]["hits"] == 1
        assert set(stats["codegen"]) >= {
            "enabled",
            "functions",
            "compiled",
            "hits",
            "invalidations",
            "fallbacks",
        }

    def test_tracing_falls_back_with_taxonomy_entry(self):
        """Tracing needs real execution: the dispatcher refuses and logs
        the reason, mirroring the flow cache's bypass."""
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1))
        with capture_trace() as trace:
            dataplane.process(make_l2(dst=0x1))
        assert len(trace.steps) > 0
        # capture_trace engages the flow-cache recorder bypass, which the
        # dispatcher checks first — either label proves the refusal.
        fallbacks = dataplane.codegen.stats()["fallbacks"]
        assert sum(fallbacks.values()) == 1
        assert set(fallbacks) <= {"recording", "tracing"}
