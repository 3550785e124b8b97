"""Scoped invalidation: one rule per test (see repro.rmt.table and
repro.rmt.dependency).

A control op on program *p* may stale only what *p*'s entries or *p*'s
memory could change.  Each test pins one rule at the level it is argued
— compiled pools, flow-cache traces, generated functions — and checks
the served verdicts against a data plane with both fast paths off.
"""

from repro.controlplane import Controller
from repro.dataplane import constants as dp
from repro.dataplane.runpro import P4runproDataPlane
from repro.programs import PROGRAMS
from repro.rmt.dependency import Dependent
from repro.rmt.packet import NC_READ, make_cache, make_l2, make_tcp
from repro.rmt.phv import PHV, PHVLayout
from repro.rmt.table import MatchActionTable, TableEntry, TernaryKey

CASE = [("har", 1, 0xFF), ("sar", 0, 0xFFFFFFFF), ("mar", 7, 0xFFFF)]


def deployed(*names, flow_cache=True, codegen=True):
    dataplane = P4runproDataPlane(flow_cache=flow_cache, codegen=codegen)
    ctl = Controller(dataplane)
    handles = {name: ctl.deploy(PROGRAMS[name].source) for name in names}
    return ctl, dataplane, handles


def outcome(result):
    return (result.verdict, result.egress_port, result.recirculations,
            result.egress_ports, sorted(result.bridge.items()))


def steal(dataplane, key, priority, program_id=0):
    """Install a filter entry straight into the init table."""
    return dataplane.tables[dp.INIT_TABLE].insert(
        TableEntry((key,), dp.ACTION_SET_PROGRAM, {"program_id": program_id},
                   priority=priority)
    )


def pid_phv(pid):
    layout = PHVLayout()
    layout.declare("ud.pid", 16)
    phv = PHV(layout, make_l2())
    phv.set("ud.pid", pid)
    return phv


class TestBucketScope:
    """RPB tables: an insert into (or delete from) bucket p bumps only p."""

    def test_pools_and_versions_of_other_buckets_survive(self):
        table = MatchActionTable("t", 16, index_field="ud.pid", index_mask=0xFFFF)
        for pid in (1, 2):
            table.insert(TableEntry((TernaryKey("ud.pid", pid, 0xFFFF),), f"a{pid}"))
        phv = pid_phv(2)
        assert table.lookup(phv)[0] == "a2"
        pool2 = table._compiled_pools[2]
        seen = table.versions_read(2, None)
        table.insert(TableEntry((TernaryKey("ud.pid", 1, 0xFFFF),), "b1", priority=-1))
        assert table._compiled_pools.get(2) is pool2
        assert all(version.n == n for version, n in seen)
        assert table.lookup(phv)[0] == "a2"
        phv.set("ud.pid", 1)
        assert table.lookup(phv)[0] == "b1"

    def test_add_case_keeps_other_programs_traces(self):
        ctl, dataplane, h = deployed("cache", "l2fwd")
        for _ in range(2):
            dataplane.process(make_l2(dst=0x1))
            dataplane.process(make_cache(1, 2, op=NC_READ, key=0x8888))
        before = dataplane.flow_cache.stats()
        ctl.add_case(h["cache"].program_id, CASE, template_case=0, loadi_values=[9])
        assert dataplane.process(make_l2(dst=0x1)).egress_port == 1
        after = dataplane.flow_cache.stats()
        assert after["emc_hits"] == before["emc_hits"] + 1
        assert after["misses"] == before["misses"]
        dataplane.process(make_cache(1, 2, op=NC_READ, key=0x8888))
        assert dataplane.flow_cache.stats()["misses"] == before["misses"] + 1

    def test_add_case_keeps_other_programs_functions(self):
        ctl, dataplane, h = deployed("cache", "l2fwd", flow_cache=False)
        dataplane.process(make_l2(dst=0x1))
        compiled = dataplane.codegen.stats()["compiled"]
        ctl.add_case(h["cache"].program_id, CASE, template_case=0, loadi_values=[9])
        assert dataplane.process(make_l2(dst=0x1)).egress_port == 1
        stats = dataplane.codegen.stats()
        assert stats["compiled"] == compiled
        assert stats["invalidations"] == 0


class TestInitShadow:
    """Init table: a dependent stales only if its matched entry is
    deleted or an insert orders ahead of it."""

    def test_lower_priority_number_insert_steals_cached_flow(self):
        _, cached, _ = deployed("l2fwd")
        _, reference, _ = deployed("l2fwd", flow_cache=False, codegen=False)
        for _ in range(2):
            assert cached.process(make_l2(dst=0x1)).egress_port == 1
        for dataplane in (cached, reference):
            steal(dataplane, TernaryKey("hdr.eth.dst", 0x1, 0xFFFF), priority=-1)
        got = cached.process(make_l2(dst=0x1))
        assert outcome(got) == outcome(reference.process(make_l2(dst=0x1)))
        assert got.egress_port == 0  # now owned by no program
        assert cached.flow_cache.stats()["invalidations"] >= 1

    def test_priority_zero_append_keeps_cached_flow(self):
        _, dataplane, _ = deployed("l2fwd")
        for _ in range(2):
            dataplane.process(make_l2(dst=0x1))
        hits = dataplane.flow_cache.stats()["emc_hits"]
        steal(dataplane, TernaryKey("hdr.eth.dst", 0x1, 0xFFFF), priority=0)
        assert dataplane.process(make_l2(dst=0x1)).egress_port == 1
        stats = dataplane.flow_cache.stats()
        assert stats["emc_hits"] == hits + 1
        assert stats["invalidations"] == 0

    def test_function_chain_ends_at_its_terminal_entry(self):
        """l2fwd's filter matches every Ethernet packet, so a filter
        appended behind it cannot change the function; one ordered
        ahead of it must."""
        _, dataplane, _ = deployed("l2fwd", flow_cache=False)
        _, reference, _ = deployed("l2fwd", flow_cache=False, codegen=False)
        dataplane.process(make_tcp(0x0A000001, 2, 1000, 80))
        compiled = dataplane.codegen.stats()["compiled"]
        key = TernaryKey("hdr.ipv4.src", 0x0A000001, 0xFFFFFFFF)
        steal(dataplane, key, priority=0)
        dataplane.process(make_tcp(0x0A000001, 2, 1000, 80))
        assert dataplane.codegen.stats()["compiled"] == compiled
        for plane in (dataplane, reference):
            steal(plane, key, priority=-1)
        got = dataplane.process(make_tcp(0x0A000001, 2, 1000, 80))
        assert outcome(got) == outcome(reference.process(make_tcp(0x0A000001, 2, 1000, 80)))
        assert dataplane.codegen.stats()["compiled"] == compiled + 1

    def test_deleting_the_matched_entry_stales(self):
        ctl, dataplane, h = deployed("l2fwd")
        dataplane.process(make_l2(dst=0x1))
        ctl.revoke(h["l2fwd"].program_id)
        assert dataplane.process(make_l2(dst=0x1)).egress_port == 0
        assert dataplane.flow_cache.stats()["invalidations"] >= 1

    def test_deleting_a_losing_entry_keeps_the_flow(self):
        """cache's filter orders ahead of l2fwd's, but an L2 packet fails
        it: revoking cache cannot change which entry the flow matches."""
        ctl, dataplane, h = deployed("cache", "l2fwd")
        for _ in range(2):
            dataplane.process(make_l2(dst=0x2))
        hits = dataplane.flow_cache.stats()["emc_hits"]
        ctl.revoke(h["cache"].program_id)
        assert dataplane.process(make_l2(dst=0x2)).egress_port == 2
        stats = dataplane.flow_cache.stats()
        assert stats["emc_hits"] == hits + 1
        assert stats["invalidations"] == 0


class TestRegisters:
    def test_write_mem_under_a_register_steered_branch_matches_oracle(self):
        """hh BRANCHes on har after MIN with a MEMADD output: the trace
        dies at that consult and its negative entry routes the flow to
        generated code, which reads the registers live.  Writing the
        count rows past the threshold must flip the verdict at once,
        with no invalidation."""
        results = []
        for fast in (True, False):
            ctl, dataplane, h = deployed("hh", flow_cache=fast, codegen=fast)
            pkt = lambda: make_tcp(0x0A000001, 0x0B000001, 999, 80)
            out = [outcome(dataplane.process(pkt())) for _ in range(3)]
            for mid in ("mem_cms_row1", "mem_cms_row2"):
                for vaddr in range(256):
                    ctl.write_memory(h["hh"], mid, vaddr, 5000)
            out += [outcome(dataplane.process(pkt())) for _ in range(3)]
            results.append(out)
            if fast:
                stats = dataplane.flow_cache.stats()
                assert stats["uncacheable"] >= 4
                assert stats["invalidations"] == 0
        assert results[0] == results[1]
        assert results[0][3][0].value == "to_cpu"  # reported past the threshold


class TestMulticast:
    def test_reconfiguration_still_flushes(self):
        """Pure templates bake in the replicated port list: the one
        global flush left."""
        _, dataplane, _ = deployed("l2fwd")
        for _ in range(2):
            dataplane.process(make_l2(dst=0x1))
        assert dataplane.flow_cache.stats()["occupancy"]["emc"] == 1
        dataplane.configure_multicast_group(3, [4, 5])
        stats = dataplane.flow_cache.stats()
        assert stats["occupancy"] == {"emc": 0, "megaflow": 0, "subtables": 0}
        assert stats["invalidations"] >= 1


class TestDependent:
    def test_revalidation_restamps_only_while_versions_hold(self):
        table = MatchActionTable("t", 4)
        entry = TableEntry((TernaryKey("ud.x", 1, 0xFF),), "a")
        table.insert(entry)
        dependent = Dependent()
        dependent.epoch = -1
        dependent.versions = table.versions_read("*", entry)
        assert dependent.revalidate(7) and dependent.epoch == 7
        table.insert(TableEntry((TernaryKey("ud.x", 1, 0xFF),), "b"))  # appended
        assert dependent.revalidate(8)
        table.insert(TableEntry((TernaryKey("ud.x", 1, 0xFF),), "c", priority=-1))
        assert not dependent.revalidate(9)
