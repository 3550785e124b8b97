"""Coordinator routing: generated route functions against the interpreter.

The engine routes each packet with the coordinator replica's generated
route function and falls back to the interpreter's parse and init-table
lookup wherever the generator refuses.  Whichever decides, a packet must
get the same program id, shard and flow hash; these tests hold the two
side by side on the library programs' traffic, across the init-table
mutations that stale a route function, and for a program whose packets
park mid-migration.
"""

import pytest

from repro.dataplane import constants as dp
from repro.engine import ShardedEngine, flow_hash
from repro.programs import PROGRAMS
from repro.rmt.packet import (
    NC_READ,
    NC_WRITE,
    make_cache,
    make_calc,
    make_ipv4,
    make_l2,
    make_tcp,
    make_udp,
)
from repro.rmt.parser import ParseMachine
from repro.rmt.table import MatchActionTable, TableEntry, TernaryKey


@pytest.fixture(scope="module")
def engine():
    with ShardedEngine(2) as engine:
        yield engine


def tunnel(label):
    packet = make_l2(dst=label)
    packet.headers["eth"]["etype"] = 0x88F7
    packet.headers["tun"] = {"id": label}
    return packet


def traffic():
    """Every composition the evaluation parser knows, from sources inside
    and outside the library filters' 10.0.0.0/16."""
    packets = []
    for i in range(6):
        src = (0x0A000001 if i % 2 else 0xC0A80001) + i
        packets += [
            make_l2(dst=i % 3),
            tunnel(i % 3),
            make_tcp(src, 0x0A000002 + i, 1000 + i, 80),
            make_udp(src, 0x0A000003 + i, 2000 + i, 53),
            make_ipv4(src, 0x0A000004, ecn=i % 4),
            make_cache(src, 0x0A000005, op=NC_WRITE if i % 2 else NC_READ, key=i),
            make_calc(src, 0x0A000006, op=1, a=i, b=2),
        ]
    return packets


def check_routes(engine, packets):
    """Generated and interpreted routes agree on every packet, and the
    generated one served every packet it was asked for."""
    cg, switch = engine._codegen, engine._switch
    hits = cg.route_hits
    for packet in packets:
        program_id, five_tuple = cg.route(switch, packet)
        assert program_id == engine._interpret_route(packet)
        assert flow_hash(five_tuple) == flow_hash(packet.five_tuple())
    assert cg.route_hits == hits + len(packets)
    generated = [engine._route(p) for p in packets]
    cg.enabled = False
    try:
        interpreted = [engine._route(p) for p in packets]
    finally:
        cg.enabled = True
    assert generated == interpreted
    return generated


def steal(engine, key, priority, program_id=0):
    """Install a filter entry straight into the coordinator's init table."""
    return engine.dataplane.tables[dp.INIT_TABLE].insert(
        TableEntry((key,), dp.ACTION_SET_PROGRAM, {"program_id": program_id},
                   priority=priority)
    )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_library_program_traffic(engine, name):
    handle = engine.controller.deploy(PROGRAMS[name].source)
    try:
        packets = traffic()
        check_routes(engine, packets)
        owned = {engine._codegen.route(engine._switch, p)[0] for p in packets}
        assert handle.program_id in owned
    finally:
        engine.controller.revoke(handle.program_id)


class TestInitTableMutations:
    """The scenarios of tests/rmt/test_invalidation_scope.py, on the
    coordinator's route functions."""

    def test_steal_restales_and_reroutes(self, engine):
        handle = engine.controller.deploy(PROGRAMS["l2fwd"].source)
        table = engine.dataplane.tables[dp.INIT_TABLE]
        try:
            check_routes(engine, [make_l2(dst=0x1)])
            compiled = engine.routing_stats()["compiled"]
            handle_stolen = steal(engine, TernaryKey("hdr.eth.dst", 0x1, 0xFFFF), -1)
            try:
                check_routes(engine, [make_l2(dst=0x1)])
                program_id, _ = engine._codegen.route(engine._switch, make_l2(dst=0x1))
                assert program_id == 0  # the stolen flow belongs to no program
                stats = engine.routing_stats()
                assert stats["compiled"] == compiled + 1
                assert stats["invalidations"] >= 1
            finally:
                table.delete(handle_stolen)
        finally:
            engine.controller.revoke(handle.program_id)

    def test_priority_zero_append_keeps_route_function(self, engine):
        handle = engine.controller.deploy(PROGRAMS["l2fwd"].source)
        table = engine.dataplane.tables[dp.INIT_TABLE]
        try:
            check_routes(engine, [make_l2(dst=0x1)])
            before = engine.routing_stats()
            appended = steal(engine, TernaryKey("hdr.eth.dst", 0x1, 0xFFFF), 0)
            try:
                check_routes(engine, [make_l2(dst=0x1)])
                after = engine.routing_stats()
                assert after["compiled"] == before["compiled"]
                assert after["invalidations"] == before["invalidations"]
            finally:
                table.delete(appended)
        finally:
            engine.controller.revoke(handle.program_id)

    def test_deleting_the_matched_entry_reroutes(self, engine):
        handle = engine.controller.deploy(PROGRAMS["cache"].source)
        packet = make_cache(0x0A000001, 0x0A000002, op=NC_READ, key=1)
        _shard, program_id = check_routes(engine, [packet])[0]
        assert program_id == handle.program_id
        invalidations = engine.routing_stats()["invalidations"]
        engine.controller.revoke(handle.program_id)
        assert check_routes(engine, [packet])[0][1] is None
        assert engine.routing_stats()["invalidations"] > invalidations


def test_mid_migration_packets_still_park(engine):
    handle = engine.controller.deploy(PROGRAMS["cache"].source)
    pid = handle.program_id
    packets = [make_cache(0x0A000001 + i, 0x0A000002, op=NC_READ, key=i)
               for i in range(4)]
    try:
        source = engine.placement[pid]
        engine.begin_migration(pid)
        assert check_routes(engine, packets) == [(None, pid)] * len(packets)
        assert {engine.shard_of(p) for p in packets} == {source}
        engine.complete_migration(pid)
        assert check_routes(engine, packets) == [(engine.placement[pid], pid)] * 4
    finally:
        engine.controller.revoke(pid)


class TestInterpreterFallback:
    def routed_by_interpreter(self, engine, packet, reason):
        before = engine.routing_stats()["fallbacks"].get(reason, 0)
        assert engine._codegen.route(engine._switch, packet) is None
        engine._route(packet)
        assert engine.routing_stats()["fallbacks"][reason] == before + 2

    def test_codegen_disabled(self):
        with ShardedEngine(1, codegen=False) as engine:
            engine.controller.deploy(PROGRAMS["l2fwd"].source)
            self.routed_by_interpreter(engine, make_l2(dst=0x1), "disabled")
            assert engine.routing_stats()["compiled"] == 0

    def test_header_with_an_extra_field(self, engine):
        handle = engine.controller.deploy(PROGRAMS["cache"].source)
        try:
            packet = make_cache(0x0A000001, 0x0A000002, op=NC_READ, key=1)
            packet.headers["udp"]["extra"] = 7
            self.routed_by_interpreter(engine, packet, "guard")
            assert engine._route(packet)[1] == handle.program_id
        finally:
            engine.controller.revoke(handle.program_id)

    def test_unfrozen_parser(self, engine):
        machine = engine._switch.parse_machine
        machine._frozen = False
        try:
            self.routed_by_interpreter(engine, make_l2(dst=0x1), "parser-unfrozen")
        finally:
            machine._frozen = True


def test_generated_route_builds_no_phv(engine, monkeypatch):
    """A warm route runs neither the parser, the table lookup nor the PHV
    constructor, and leaves the coordinator's init-table counters alone."""
    handle = engine.controller.deploy(PROGRAMS["cache"].source)
    try:
        packets = traffic()
        check_routes(engine, packets)
        table = engine.dataplane.tables[dp.INIT_TABLE]
        counters = (table.lookups, table.hits)

        def refuse(*_args, **_kwargs):
            raise AssertionError("interpreter on the routing hot path")

        monkeypatch.setattr(ParseMachine, "parse", refuse)
        monkeypatch.setattr(MatchActionTable, "lookup", refuse)
        monkeypatch.setattr("repro.engine.engine.PHV", refuse)
        for packet in packets:
            engine._route(packet)
        assert (table.lookups, table.hits) == counters
    finally:
        monkeypatch.undo()
        engine.controller.revoke(handle.program_id)


def test_stats_report_routing_apart_from_worker_codegen(engine):
    handle = engine.controller.deploy(PROGRAMS["l2fwd"].source)
    try:
        before = engine.stats()
        packets = [make_l2(dst=i % 3) for i in range(12)]
        engine.inject(packets)
        after = engine.stats()
        worker_hits = (after["totals"]["codegen"]["hits"]
                       - before["totals"]["codegen"]["hits"])
        assert worker_hits == len(packets)
        assert after["routing"]["hits"] - before["routing"]["hits"] == len(packets)
        assert set(after["routing"]) == {
            "enabled", "functions", "compiled", "hits", "invalidations", "fallbacks",
        }
    finally:
        engine.controller.revoke(handle.program_id)
