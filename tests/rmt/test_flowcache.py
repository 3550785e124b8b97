"""Two-tier flow cache unit tests: EMC, megaflow, stateful replay,
generation invalidation, and uncacheable classification."""

import pytest

from repro.controlplane import Controller
from repro.compiler.target import TargetSpec
from repro.dataplane.runpro import P4runproDataPlane
from repro.dataplane.tracing import capture_trace
from repro.programs import PROGRAMS
from repro.rmt.packet import make_cache, make_l2, make_tcp, make_udp
from repro.rmt.pipeline import Verdict


def deployed(source, *, spec=None, flow_cache=True):
    dataplane = P4runproDataPlane(spec or TargetSpec(), flow_cache=flow_cache)
    ctl = Controller(dataplane, spec=spec)
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


class TestEmc:
    def test_identical_packets_hit_emc(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        for _ in range(5):
            result = dataplane.process(make_l2(dst=0x1))
        assert result.verdict is Verdict.FORWARD and result.egress_port == 1
        stats = dataplane.flow_cache.stats()
        assert stats["misses"] == 1
        assert stats["emc_hits"] == 4

    def test_emc_verdict_matches_uncached(self):
        _, cached = deployed(PROGRAMS["l2fwd"].source)
        _, uncached = deployed(PROGRAMS["l2fwd"].source, flow_cache=False)
        for dst in (0x1, 0x2, 0x999, 0x1, 0x2):
            a = cached.process(make_l2(dst=dst))
            b = uncached.process(make_l2(dst=dst))
            assert result_tuple(a) == result_tuple(b)

    def test_emc_capacity_evicts_oldest(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.flow_cache.emc_capacity = 4
        for i in range(10):
            dataplane.process(make_l2(dst=0x1, src=0x100 + i))
        assert dataplane.flow_cache.stats()["occupancy"]["emc"] <= 4

    def test_emc_hit_bumps_table_counters(self):
        """Template replay must keep lookup/hit counters bit-identical."""
        _, cached = deployed(PROGRAMS["l2fwd"].source)
        _, uncached = deployed(PROGRAMS["l2fwd"].source, flow_cache=False)
        for _ in range(6):
            cached.process(make_l2(dst=0x1))
            uncached.process(make_l2(dst=0x1))
        for name in cached.tables:
            ct, ut = cached.tables[name], uncached.tables[name]
            assert (ct.lookups, ct.hits) == (ut.lookups, ut.hits), name

    def test_emc_hit_skips_pipeline_walk(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1))
        table = dataplane.tables["init"]
        accesses_fn = lambda: sum(
            a.accesses
            for s in dataplane.switch.ingress.stages
            for a in s.register_arrays.values()
        )
        # l2fwd is stateless: a template hit touches no register array
        # and the switch-level pass counter still advances.
        passes = dataplane.switch.pipeline_passes
        dataplane.process(make_l2(dst=0x1))
        assert dataplane.switch.pipeline_passes == passes + 1


class TestMegaflow:
    def test_unconsulted_fields_wildcard(self):
        """Flows differing only in unconsulted fields share one megaflow."""
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        for i in range(12):
            dataplane.process(make_l2(dst=0x1, src=0x5000 + i))
        stats = dataplane.flow_cache.stats()
        assert stats["misses"] == 1
        assert stats["megaflow_hits"] == 11
        assert stats["occupancy"]["megaflow"] == 1

    def test_consulted_fields_split_megaflows(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        for dst in (0x1, 0x2, 0x3):
            dataplane.process(make_l2(dst=dst))
        assert dataplane.flow_cache.stats()["occupancy"]["megaflow"] == 3

    def test_megaflow_hit_promotes_to_emc(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1, src=0xA))
        dataplane.process(make_l2(dst=0x1, src=0xB))  # megaflow hit
        dataplane.process(make_l2(dst=0x1, src=0xB))  # now an EMC hit
        stats = dataplane.flow_cache.stats()
        assert stats["megaflow_hits"] == 1
        assert stats["emc_hits"] == 1

    def test_parse_path_pins_presence(self):
        """A TCP-recorded trace must not swallow a UDP packet."""
        _, cached = deployed(PROGRAMS["firewall"].source)
        _, uncached = deployed(PROGRAMS["firewall"].source, flow_cache=False)
        stream = [
            make_tcp(0x0A000001, 0x0A000002, 1000, 80),
            make_udp(0x0A000001, 0x0A000002, 1000, 80),
            make_tcp(0x0A000001, 0x0A000002, 1000, 80),
        ] * 3
        for pkt in stream:
            a = cached.process(pkt)
            b = uncached.process(pkt)
            assert result_tuple(a) == result_tuple(b)


class TestStatefulReplay:
    def test_salu_ops_reexecute_on_hit(self):
        """dqacc MEMADDs per packet: hits must keep mutating the bucket."""
        _, cached = deployed(PROGRAMS["dqacc"].source)
        _, uncached = deployed(PROGRAMS["dqacc"].source, flow_cache=False)
        pkt = lambda: make_cache(0x0A000001, 0x0A000002, op=1, key=0x44, value=5)
        for _ in range(6):
            assert result_tuple(cached.process(pkt())) == result_tuple(
                uncached.process(pkt())
            )
        assert cached.flow_cache.stats()["emc_hits"] >= 4
        for phys in range(1, 23):
            assert (
                cached._array(phys).snapshot() == uncached._array(phys).snapshot()
            ), f"rpb{phys} diverged"

    def test_register_dependent_branch_is_uncacheable(self):
        """hh thresholds on a live CMS count: its traces cannot be cached."""
        _, dataplane = deployed(PROGRAMS["hh"].source)
        for _ in range(8):
            dataplane.process(make_tcp(0x0A000001, 0x0B000001, 999, 80))
        stats = dataplane.flow_cache.stats()
        assert stats["emc_hits"] == 0
        assert stats["megaflow_hits"] == 0
        assert stats["uncacheable"] >= 7

    def test_uncacheable_flow_still_correct(self):
        _, cached = deployed(PROGRAMS["hh"].source)
        _, uncached = deployed(PROGRAMS["hh"].source, flow_cache=False)
        for i in range(30):
            pkt = lambda: make_tcp(0x0A000001 + i % 3, 0x0B000001, 999, 80)
            assert result_tuple(cached.process(pkt())) == result_tuple(
                uncached.process(pkt())
            )
        for phys in range(1, 23):
            assert cached._array(phys).snapshot() == uncached._array(phys).snapshot()

    def test_recirculating_stateful_trace_replays(self):
        spec = TargetSpec(max_recirculations=4)
        body = []
        for i in range(5):
            body += [
                f"LOADI(mar, {i});",
                "EXTRACT(hdr.nc.val, sar);",
                "MEMADD(slots);",
            ]
        source = (
            "@ slots 1024\nprogram agg(<hdr.udp.dst_port, 9999, 0xffff>) { "
            + " ".join(body)
            + " }"
        )
        _, cached = deployed(source, spec=spec)
        _, uncached = deployed(source, spec=spec, flow_cache=False)

        def pkt():
            p = make_udp(0x0A000001, 0x0A000002, 1234, 9999, size=80)
            p.headers["nc"] = {"op": 0, "key1": 0, "key2": 0, "val": 3}
            return p

        for _ in range(6):
            a, b = cached.process(pkt()), uncached.process(pkt())
            assert result_tuple(a) == result_tuple(b)
        assert a.recirculations == 4
        assert cached.flow_cache.stats()["emc_hits"] == 5
        assert cached.switch.pipeline_passes == uncached.switch.pipeline_passes
        for phys in range(1, 23):
            assert cached._array(phys).snapshot() == uncached._array(phys).snapshot()


class TestInvalidation:
    def test_deploy_keeps_other_programs_flows(self):
        """Another program's deploy touches neither l2fwd's RPB buckets
        nor its filter entry (the new one is appended behind it)."""
        ctl, dataplane = deployed(PROGRAMS["l2fwd"].source)
        for _ in range(3):
            dataplane.process(make_l2(dst=0x1))
        hits = dataplane.flow_cache.stats()["emc_hits"]
        ctl.deploy(PROGRAMS["dqacc"].source)
        assert dataplane.process(make_l2(dst=0x1)).egress_port == 1
        stats = dataplane.flow_cache.stats()
        assert stats["emc_hits"] == hits + 1
        assert stats["invalidations"] == 0

    def test_revoke_flushes_stale_verdicts(self):
        ctl, dataplane = deployed(PROGRAMS["l2fwd"].source)
        handle = ctl.running_programs()[0]
        result = dataplane.process(make_l2(dst=0x1))
        assert result.egress_port == 1
        ctl.revoke(handle.program_id)
        result = dataplane.process(make_l2(dst=0x1))
        assert result.egress_port == 0  # default port: program gone

    def test_write_bucket_keeps_cached_flows(self):
        """Register contents stale no trace: the stateful trace replays
        its SALU ops live against the written value."""
        _, dataplane = deployed(PROGRAMS["dqacc"].source)
        pkt = lambda: make_cache(0x0A000001, 0x0A000002, op=1, key=0x1)
        dataplane.process(pkt())
        dataplane.write_bucket(1, 0, 42)
        dataplane.process(pkt())
        stats = dataplane.flow_cache.stats()
        assert stats["emc_hits"] == 1
        assert stats["invalidations"] == 0

    def test_multicast_reconfig_invalidates(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1))
        dataplane.configure_multicast_group(1, [2, 3])
        dataplane.process(make_l2(dst=0x1))
        stats = dataplane.flow_cache.stats()
        assert stats["misses"] == 2 and stats["emc_hits"] == 0
        assert stats["invalidations"] >= 1

    def test_stale_hits_counted_as_invalidations(self):
        ctl, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1))
        ctl.revoke(ctl.running_programs()[0].program_id)  # deletes its entries
        dataplane.process(make_l2(dst=0x1))  # stale EMC + megaflow entries
        assert dataplane.flow_cache.stats()["invalidations"] >= 1

    def test_disabled_cache_is_inert(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source, flow_cache=False)
        for _ in range(4):
            dataplane.process(make_l2(dst=0x1))
        stats = dataplane.flow_cache.stats()
        assert not stats["enabled"]
        assert stats["misses"] == 0 and stats["emc_hits"] == 0


class TestTracingBypass:
    def test_capture_trace_sees_full_walk(self):
        """Tracing needs real execution, so a hot flow must still trace."""
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        for _ in range(3):
            dataplane.process(make_l2(dst=0x1))  # hot: EMC resident
        with capture_trace() as trace:
            dataplane.process(make_l2(dst=0x1))
        assert len(trace.steps) > 0
        hits_during_trace = dataplane.flow_cache.stats()["emc_hits"]
        dataplane.process(make_l2(dst=0x1))
        assert dataplane.flow_cache.stats()["emc_hits"] == hits_during_trace + 1


class TestBatchPooling:
    def test_process_many_reuses_phvs(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.flow_cache.enabled = False  # force full walks
        dataplane.codegen.enabled = False  # ...through the interpreter
        packets = [make_l2(dst=0x1, src=0x100 + i) for i in range(32)]
        results = dataplane.process_many(packets)
        assert len(results) == 32
        assert len(dataplane.switch._phv_pool) >= 1

    def test_batch_matches_sequential(self):
        _, batch = deployed(PROGRAMS["l2fwd"].source)
        _, seq = deployed(PROGRAMS["l2fwd"].source)
        packets = [make_l2(dst=(i % 3), src=0x100 + i) for i in range(24)]
        batched = batch.process_many([p.clone() for p in packets])
        single = [seq.process(p.clone()) for p in packets]
        assert [result_tuple(a) for a in batched] == [
            result_tuple(b) for b in single
        ]


class TestStats:
    def test_dataplane_stats_includes_flow_cache(self):
        _, dataplane = deployed(PROGRAMS["l2fwd"].source)
        dataplane.process(make_l2(dst=0x1))
        stats = dataplane.stats()
        assert stats["packets_in"] == 1
        assert stats["flow_cache"]["misses"] == 1
        assert set(stats["flow_cache"]) >= {
            "emc_hits",
            "megaflow_hits",
            "misses",
            "uncacheable",
            "invalidations",
            "occupancy",
        }
