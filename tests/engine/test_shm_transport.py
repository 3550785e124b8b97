"""Unit tests for the shared-memory ring transport (engine/shm.py).

Covers the SPSC ring itself (wrap-around, full/empty, oversized
records), the wire-native packet/result codec, the engine-level fallback
taxonomy (pipe fallback on ring-full and with shm disabled, oversized
chunks, empty batches), the southbound frame-size guard, and worker
death detected mid-ring instead of hanging the coordinator.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.engine import (
    EngineError,
    FrameTooLargeError,
    ShardedEngine,
    ShmRing,
    send_frame,
)
from repro.engine import shm as shm_codec
from repro.engine.shm import RingError
from repro.programs import PROGRAMS
from repro.rmt.packet import Packet, make_cache, make_udp
from repro.rmt.pipeline import SwitchResult, Verdict


def traffic(total: int) -> list:
    return [
        make_cache(i % 16 + 1, 2, op=1, key=i % 9)
        if i % 2
        else make_udp(i % 16 + 1, 2, 5000 + i % 64, 80)
        for i in range(total)
    ]


# -- the ring -----------------------------------------------------------------


class TestShmRing:
    def test_roundtrip_and_fifo(self):
        ring = ShmRing.create(4096)
        try:
            payloads = [bytes([i]) * (i + 1) for i in range(10)]
            for p in payloads:
                assert ring.try_push(p)
            assert [ring.try_pop() for _ in payloads] == payloads
            assert ring.try_pop() is None
        finally:
            ring.close()
            ring.unlink()

    def test_wrap_around_many_sizes(self):
        """Records of varying size cycle through the wrap point; every
        payload must come back bit-identical and in order."""
        ring = ShmRing.create(2048)
        try:
            seq = [os.urandom(n % 700 + 1) for n in range(500)]
            out, i = [], 0
            while len(out) < len(seq):
                while i < len(seq) and ring.try_push(seq[i]):
                    i += 1
                got = ring.try_pop()
                assert got is not None, "ring empty while pushes pending"
                out.append(got)
            assert out == seq
        finally:
            ring.close()
            ring.unlink()

    def test_full_ring_refuses_push(self):
        ring = ShmRing.create(512)
        try:
            pushed = 0
            while ring.try_push(b"x" * 64):
                pushed += 1
            assert pushed > 0
            assert not ring.try_push(b"x" * 64)
            # Draining one record frees space again.
            assert ring.try_pop() == b"x" * 64
            assert ring.try_push(b"y" * 64)
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_record_raises(self):
        ring = ShmRing.create(512)
        try:
            with pytest.raises(RingError, match="exceeds ring max"):
                ring.try_push(b"x" * 400)
        finally:
            ring.close()
            ring.unlink()

    def test_attach_sees_producer_records(self):
        ring = ShmRing.create(4096)
        try:
            other = ShmRing.attach(ring.name)
            assert other.capacity == ring.capacity
            assert ring.try_push(b"hello")
            assert other.try_pop() == b"hello"
            other.close()
        finally:
            ring.close()
            ring.unlink()


# -- the codec ----------------------------------------------------------------


class TestPacketCodec:
    def roundtrip(self, packets):
        enc, dec = shm_codec.PacketEncoder(), shm_codec.PacketDecoder()
        blob, extra = enc.encode_packets(packets)
        payload = shm_codec.encode_chunk(enc.take_defs(), blob, extra)
        tag, defs, blob, extra = shm_codec.decode_ring_payload(payload)
        assert tag == "R"
        dec.add_defs(defs)
        return dec.decode_packets(blob, extra)

    def test_packets_roundtrip(self):
        packets = traffic(20) + [Packet(), make_cache(1, 2, op=2, key=3, value=9)]
        back_all = self.roundtrip(packets)
        assert len(back_all) == len(packets)
        for orig, back in zip(packets, back_all):
            assert back.headers == orig.headers
            assert back.size == orig.size
            assert back.ts == orig.ts
            assert back.ingress_port == orig.ingress_port
            assert back.queue_depth == orig.queue_depth

    def test_structural_fallback_for_exotic_values(self):
        """Field values the packed-u64 layout cannot express still travel
        (structural fallback records interleaved with fast ones)."""
        weird = Packet(headers={"x": {"neg": -7, "big": 1 << 70}})
        enc = shm_codec.PacketEncoder()
        _blob, extra = enc.encode_packets([weird])
        assert len(extra) == 1
        mixed = [make_udp(1, 2, 3, 4), weird, make_udp(5, 6, 7, 8)]
        back = self.roundtrip(mixed)
        assert back[1].headers == {"x": {"neg": -7, "big": 1 << 70}}
        assert back[0].headers == mixed[0].headers
        assert back[2].headers == mixed[2].headers

    def test_non_float_ts_takes_structural_fallback(self):
        pkt = make_udp(1, 2, 3, 4)
        pkt.ts = 7  # int, would be coerced to 7.0 by the packed double
        back = self.roundtrip([pkt])[0]
        assert back.ts == 7 and isinstance(back.ts, int)

    def test_composition_defs_ship_once(self):
        enc = shm_codec.PacketEncoder()
        enc.encode_packets([make_udp(1, 2, 3, 4)])
        assert len(enc.take_defs()) == 1
        enc.encode_packets([make_udp(5, 6, 7, 8)])
        assert enc.take_defs() == []  # same shape: no new definition

    def test_field_order_shares_the_composition(self):
        """Fields in another dict order reuse the header sequence's
        composition and decode to an equal header dict."""
        first, shuffled = make_udp(1, 2, 3, 4), make_udp(5, 6, 7, 8)
        shuffled.headers["ipv4"] = dict(reversed(shuffled.headers["ipv4"].items()))
        enc = shm_codec.PacketEncoder()
        enc.encode_packets([first])
        enc.take_defs()
        enc.encode_packets([shuffled])
        assert enc.take_defs() == []
        back = self.roundtrip([first, shuffled])
        assert [p.headers for p in back] == [first.headers, shuffled.headers]

    def test_extra_field_takes_its_exact_shape(self):
        plain, extra = make_udp(1, 2, 3, 4), make_udp(5, 6, 7, 8)
        extra.headers["udp"]["extra"] = 9
        enc = shm_codec.PacketEncoder()
        enc.encode_packets([plain, extra, make_udp(9, 9, 9, 9)])
        assert len(enc.take_defs()) == 2
        back = self.roundtrip([plain, extra, plain])
        assert [p.headers for p in back] == [
            plain.headers, extra.headers, plain.headers,
        ]
        assert back[1].headers["udp"]["extra"] == 9

    def test_extra_field_first_does_not_pin_its_shape(self):
        """After an odd packet opens a header sequence, the packets that
        follow in the plain shape are found by header names again."""
        odd, plain = make_udp(1, 2, 3, 4), make_udp(5, 6, 7, 8)
        odd.headers["udp"]["extra"] = 9
        enc = shm_codec.PacketEncoder()
        enc.encode_packets([odd, plain])
        plain_id = enc.take_defs()[1][0]
        assert enc._shapes[tuple(plain.headers)][0] == plain_id
        back = self.roundtrip([odd, plain, plain])
        assert [p.headers for p in back] == [odd.headers, plain.headers, plain.headers]

    def test_results_roundtrip_full_mode(self):
        packet = make_cache(1, 2, op=1, key=5)
        result = SwitchResult(
            verdict=Verdict.MULTICAST,
            egress_port=None,
            packet=packet,
            recirculations=2,
            egress_ports=(1, 4),
            bridge={"depth": 3},
        )
        enc, dec = shm_codec.PacketEncoder(), shm_codec.PacketDecoder()
        blob, extra = shm_codec.encode_results([result], "full", enc)
        payload = shm_codec.encode_chunk(enc.take_defs(), blob, extra)
        _tag, defs, blob, extra = shm_codec.decode_ring_payload(payload)
        dec.add_defs(defs)
        back = shm_codec.decode_results(blob, extra, "full", dec)[0]
        assert back.verdict is Verdict.MULTICAST
        assert back.egress_port is None
        assert back.recirculations == 2
        assert back.egress_ports == (1, 4)
        assert back.bridge == {"depth": 3}
        assert back.packet.headers == packet.headers

    def test_results_roundtrip_verdicts_mode(self):
        results = [
            SwitchResult(verdict=Verdict.FORWARD, egress_port=7, packet=Packet()),
            SwitchResult(
                verdict=Verdict.DROP, egress_port=None, packet=Packet()
            ),
        ]
        enc, dec = shm_codec.PacketEncoder(), shm_codec.PacketDecoder()
        blob, extra = shm_codec.encode_results(results, "verdicts", enc)
        assert shm_codec.result_count(blob, extra) == 2
        assert shm_codec.decode_results(blob, extra, "verdicts", dec) == [
            ("forward", 7, 0),
            ("drop", None, 0),
        ]


# -- the frame-size guard -----------------------------------------------------


class TestSendFrame:
    class _Conn:
        def __init__(self):
            self.sent = []

        def send_bytes(self, data):
            self.sent.append(bytes(data))

    def test_small_frame_passes(self):
        conn = self._Conn()
        send_frame(conn, b"abc")
        assert conn.sent == [b"abc"]

    def test_oversized_frame_refused_with_structured_error(self):
        conn = self._Conn()
        with pytest.raises(FrameTooLargeError, match="exceeds"):
            send_frame(conn, b"x" * 100, limit=64)
        assert conn.sent == []  # nothing hit the pipe


# -- engine-level transport behavior -----------------------------------------


class TestEngineTransport:
    def test_shm_disabled_uses_pipes(self):
        with ShardedEngine(2, use_shm=False) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            results = engine.inject(traffic(64), mode="verdicts")
            assert len(results) == 64
            transport = engine.transport_stats()
            assert not transport["enabled"]
            assert transport["workers_with_rings"] == 0
            assert transport["ring_batches"] == 0
            assert transport["pipe_batches"] > 0

    def test_shm_enabled_uses_rings(self):
        with ShardedEngine(2) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            results = engine.inject(traffic(64), mode="verdicts")
            assert len(results) == 64
            transport = engine.transport_stats()
            assert transport["enabled"]
            assert transport["workers_with_rings"] == 2
            assert transport["ring_batches"] > 0
            assert transport["ring_records"] == 64
            assert transport["bytes_out"] > 0
            assert transport["bytes_in"] > 0
            assert transport["pipe_batches"] == 0

    def test_ring_full_falls_back_to_pipe(self):
        """With a worker frozen (SIGSTOP) its tiny ring fills; a zero
        stall budget reroutes the stream tail over the pipe, and results
        stay complete once the worker resumes."""
        with ShardedEngine(
            2,
            ring_bytes=8192,
            chunk_packets=4,
            ring_stall_timeout_s=0.0,
        ) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            victim = engine.worker_ids[0]
            pid = engine._procs[victim].pid
            os.kill(pid, signal.SIGSTOP)
            resume = threading.Timer(1.0, os.kill, (pid, signal.SIGCONT))
            resume.start()
            try:
                results = engine.inject(traffic(200), mode="verdicts")
            finally:
                resume.cancel()
                os.kill(pid, signal.SIGCONT)
            assert len(results) == 200
            assert all(r is not None for r in results)
            transport = engine.transport_stats()
            assert transport["fallbacks"]["ring_full"] > 0

    def test_oversized_chunk_falls_back_to_pipe(self):
        """One packet bigger than the ring's record cap flips its shard's
        stream tail to the pipe instead of erroring."""
        with ShardedEngine(1, ring_bytes=2048, chunk_packets=4) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            packets = traffic(8)
            big = make_udp(1, 2, 9999, 80)
            # A giant structural header blob no chunk record can hold.
            big.headers["blob"] = {f"f{i}": i for i in range(2000)}
            packets.append(big)
            results = engine.inject(packets, mode="verdicts")
            assert len(results) == 9
            assert all(r is not None for r in results)
            assert engine.transport_stats()["fallbacks"]["oversize"] > 0

    def test_plan_inject_plan_over_rings(self):
        with ShardedEngine(2) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            packets = traffic(128)
            plan = engine.plan(packets, mode="verdicts")
            assert plan.chunks and not plan.frames
            first = engine.inject_plan(plan)
            second = engine.inject_plan(plan)  # plans are reusable
            assert len(first) == len(second) == 128
            assert engine.transport_stats()["ring_batches"] >= 2

    def test_empty_inject_short_circuits(self):
        with ShardedEngine(2) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            assert engine.inject([], mode="verdicts") == []
            transport = engine.transport_stats()
            assert transport["ring_batches"] == 0
            assert transport["pipe_batches"] == 0
            stats = engine.last_inject_stats
            assert stats["shard_counts"] == [0, 0]
            assert stats["worker_cpu_s"] == {}

    def test_rescale_allocates_and_retires_rings(self):
        with ShardedEngine(2) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            assert engine.transport_stats()["workers_with_rings"] == 2
            wid = engine.add_worker()
            assert engine.transport_stats()["workers_with_rings"] == 3
            engine.inject(traffic(64), mode="verdicts")
            engine.remove_worker(wid)
            assert engine.transport_stats()["workers_with_rings"] == 2
            assert wid not in engine._rings
            results = engine.inject(traffic(64), mode="verdicts")
            assert all(r is not None for r in results)

    def test_worker_death_detected_mid_ring(self):
        """A worker killed between batches must surface as EngineError on
        the next shm inject, not hang the coordinator."""
        with ShardedEngine(2, reply_timeout_s=10.0) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            engine.inject(traffic(32), mode="verdicts")
            victim = engine.worker_ids[0]
            engine._procs[victim].kill()
            engine._procs[victim].join(timeout=5)
            with pytest.raises(EngineError, match=f"worker {victim} is dead"):
                engine.inject(traffic(256), mode="verdicts")

    def test_stats_exposes_transport_section(self):
        with ShardedEngine(2) as engine:
            engine.controller.deploy(PROGRAMS["cms"].source)
            engine.inject(traffic(32), mode="verdicts")
            transport = engine.stats()["transport"]
            assert transport["enabled"]
            assert transport["ring_batches"] > 0
            assert set(transport["fallbacks"]) == {
                "oversize",
                "ring_full",
                "no_ring",
                "disabled",
            }
