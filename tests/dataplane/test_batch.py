"""Batched processing equivalence: process_many == sequential process.

Two identically provisioned data planes run the same packet stream, one
packet at a time and as one batch; every observable output must match —
verdicts, egress ports, recirculation counts, deparsed headers, TM
counters, table counters, and register-array state.
"""

from repro.controlplane import Controller
from repro.programs import PROGRAMS
from repro.rmt.packet import make_cache, make_udp


def build(programs=("cache",)):
    ctl, dataplane = Controller.with_simulator()
    ids = [ctl.deploy(PROGRAMS[name].source).program_id for name in programs]
    return ctl, dataplane, ids


def traffic():
    packets = []
    for i in range(40):
        packets.append(make_cache(1, 2, op=1 + (i % 2), key=i % 5, value=i))
        packets.append(make_udp(i + 1, 2, 1000 + i, 80))
    return packets


def observable(result):
    return (
        result.verdict,
        result.egress_port,
        result.recirculations,
        result.egress_ports,
        result.packet.headers,
        result.bridge,
    )


def test_batch_equals_sequential():
    _, seq_dp, _ = build()
    _, batch_dp, _ = build()
    packets = traffic()

    seq_results = [seq_dp.process(p.clone()) for p in packets]
    batch_results = batch_dp.process_many([p.clone() for p in packets])

    assert [observable(r) for r in seq_results] == [
        observable(r) for r in batch_results
    ]
    assert vars(seq_dp.switch.tm).keys() == vars(batch_dp.switch.tm).keys()
    for counter in ("forwarded", "dropped", "reflected", "to_cpu", "multicast"):
        assert getattr(seq_dp.switch.tm, counter) == getattr(
            batch_dp.switch.tm, counter
        )
    for name, table in seq_dp.tables.items():
        other = batch_dp.tables[name]
        assert (table.lookups, table.hits) == (other.lookups, other.hits), name
    # Register state (the cache program writes memory on NC_WRITE).
    for phys in range(1, seq_dp.spec.num_rpbs + 1):
        for addr in range(0, 64):
            assert seq_dp.read_bucket(phys, addr) == batch_dp.read_bucket(phys, addr)


def test_batch_with_multiple_programs():
    _, seq_dp, _ = build(("cache", "lb", "hh"))
    _, batch_dp, _ = build(("cache", "lb", "hh"))
    packets = traffic()

    seq = [observable(seq_dp.process(p.clone())) for p in packets]
    batch = [observable(r) for r in batch_dp.process_many([p.clone() for p in packets])]
    assert seq == batch


def test_batch_preserves_order_and_count():
    _, dataplane, _ = build()
    packets = traffic()
    results = dataplane.process_many([p.clone() for p in packets])
    assert len(results) == len(packets)


def test_empty_batch():
    _, dataplane, _ = build()
    assert dataplane.process_many([]) == []


def test_switch_process_batch_counts_passes():
    _, dataplane, _ = build()
    switch = dataplane.switch
    before = switch.packets_in
    dataplane.process_many([make_udp(1, 2, 3, 4) for _ in range(5)])
    assert switch.packets_in == before + 5


def test_interpreted_batch_reuses_phvs():
    _, dataplane, _ = build()
    dataplane.codegen.enabled = False  # pooling serves the interpreter
    dataplane.process_many([make_udp(i + 1, 2, 3, 4) for i in range(32)])
    assert len(dataplane.switch._phv_pool) >= 1
