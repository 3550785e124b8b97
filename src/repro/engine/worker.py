"""The shard worker process: one full switch replica behind a pipe.

Each worker owns a complete :class:`~repro.dataplane.runpro.P4runproDataPlane`
replica and serves two kinds of messages from the coordinator:

* **pipelined control commands** (``ctl_run``) — southbound mutations
  fanned out by :class:`~repro.engine.engine.FanoutBinding`, coalesced
  into one multi-command binary frame per flush (:mod:`.sbwire`) and
  applied in FIFO order without replies; failures are held until the
  next barrier;
* **synchronous requests** — ``barrier`` (ack with the applied generation
  plus any deferred control errors), ``batch`` (process packets, reply
  verdicts or full results plus the worker's CPU seconds), register
  region reads/writes for the cross-shard merge, entry-counter reads,
  ``harvest`` (entry counters plus final stats in one round trip, used
  when the coordinator retires this worker), and ``stats``/``stop``.

Packet batches additionally travel over **shared-memory rings**
(:mod:`.shm`) when the coordinator provisioned a ring pair for this
worker: a ``batch_shm`` pipe message opens a streamed batch session, the
worker drains wire-native packet chunks from its request ring while the
coordinator is still routing, pushes result chunks into the mirror ring,
and closes the session with an ``ok_shm`` pipe reply carrying the result
count, CPU seconds, and any result chunks too large for the ring.  A
``batch_rest`` message mid-session delivers the chunks the coordinator
could not fit into a full ring; the worker finishes the ring first (the
coordinator stops pushing before sending it), so stream order holds.

Table-entry handles are process-local (the simulator draws them from a
process-global counter), so the coordinator ships *its* handle with every
insert and the worker keeps a ``coordinator handle -> local handle`` map;
deletes and counter reads address entries by coordinator handle.

The module is import-safe for both ``fork`` and ``spawn`` start methods:
:func:`worker_main` is a top-level function and builds its replica from a
pickled ``(TargetSpec, ParseMachine | None, codegen)`` provisioning tuple.

A worker exits when its coordinator does, however the coordinator died:
every wait for a frame also watches the parent-process sentinel
(:func:`_frame_waiter`).
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
import traceback
from multiprocessing.connection import wait

from . import shm as shm_codec
from .sbwire import decode_msg, encode_msg, unpack_entry
from .shm import ShmRing


def _build_dataplane(setup_bytes: bytes):
    from ..dataplane.runpro import P4runproDataPlane

    spec, parse_machine, codegen = pickle.loads(setup_bytes)
    return P4runproDataPlane(spec, parse_machine, codegen=codegen)


def _frame_waiter(conn):
    """``ready(timeout)``: whether a frame is waiting on ``conn`` within
    ``timeout`` seconds (``None``: block), raising :class:`EOFError`
    once the coordinator has exited.

    Pipe EOF cannot signal that under ``fork``: a forked worker inherits
    the coordinator's end of its own pipe (and of every earlier worker's
    pipe), so the peer end never closes while the worker lives.  The
    parent-process sentinel becomes readable when the coordinator dies,
    whatever descriptors leaked into its children.
    """
    sentinel = multiprocessing.parent_process().sentinel
    watch = (conn, sentinel)

    def ready(timeout: float | None) -> bool:
        got = wait(watch, timeout)
        if sentinel in got:
            raise EOFError("coordinator exited")
        return bool(got)

    return ready


def _apply_ctl(dataplane, handle_map: dict, op: tuple) -> None:
    kind = op[0]
    if kind == "insert":
        _kind, coord_handle, packed = op
        handle_map[coord_handle] = dataplane.insert_entry(unpack_entry(packed))
    elif kind == "insert_many":
        _kind, pairs = op
        for coord_handle, packed in pairs:
            handle_map[coord_handle] = dataplane.insert_entry(unpack_entry(packed))
    elif kind == "delete":
        _kind, table, coord_handle = op
        dataplane.delete_entry(table, handle_map.pop(coord_handle))
    elif kind == "reset_memory":
        _kind, phys_rpb, base, size = op
        dataplane.reset_memory(phys_rpb, base, size)
    elif kind == "write_bucket":
        _kind, phys_rpb, addr, value = op
        dataplane.write_bucket(phys_rpb, addr, value)
    elif kind == "mcast":
        _kind, group, ports = op
        dataplane.configure_multicast_group(group, list(ports))
    else:
        raise ValueError(f"unknown control op {kind!r}")


def _stats_payload(dataplane) -> dict:
    tm = dataplane.switch.tm
    return {
        "packets_in": dataplane.switch.packets_in,
        "pipeline_passes": dataplane.switch.pipeline_passes,
        "forwarded": tm.forwarded,
        "dropped": tm.dropped,
        "reflected": tm.reflected,
        "to_cpu": tm.to_cpu,
        "multicast": tm.multicast,
        "codegen": dataplane.codegen.stats(),
    }


def _run_batch(dataplane, mode: str, packets) -> tuple[list, float]:
    """Process one packet batch; returns (payload, CPU seconds spent).

    CPU time (not wall time) is reported so the coordinator can project
    aggregate capacity independently of how many cores the host actually
    grants — on an unloaded multi-core machine the two are equal.
    """
    cpu0 = time.process_time()
    results = dataplane.process_many(packets)
    cpu_s = time.process_time() - cpu0
    if mode == "verdicts":
        payload = [
            (r.verdict.value, r.egress_port, r.recirculations) for r in results
        ]
    else:
        payload = results
    return payload, cpu_s


def _serve_shm_batch(
    conn, frame_ready, dataplane, mode: str, rings, reply_buf
) -> None:
    """One streamed batch session over the shared-memory ring pair.

    Drains packet chunks from the request ring (processing each as soon
    as it lands — the coordinator is still routing later chunks), pushes
    encoded result chunks into the response ring, and finishes with an
    ``ok_shm`` pipe reply.  Result chunks too large for the ring are
    replaced in-stream by an overflow reference and ride in the final
    reply, so the coordinator reassembles everything in stream order.
    """
    req_ring, resp_ring = rings
    packet_decoder = shm_codec.PacketDecoder()
    result_encoder = shm_codec.PacketEncoder()
    state = {"rest": None, "total": None}
    overflow: list[bytes] = []
    results_total = 0
    chunks_seen = 0
    cpu_total = 0.0

    def pipe_turn(timeout: float = 0.0005) -> None:
        # A blocked session still listens: batch_rest redirects the tail
        # of the stream to the pipe, a dead coordinator ends the worker.
        if frame_ready(timeout):
            msg = decode_msg(conn.recv_bytes())
            if msg[0] != "batch_rest":
                raise ValueError(f"unexpected {msg[0]!r} during shm batch")
            state["rest"] = list(msg[1])
            state["total"] = msg[2]

    def process_chunk(chunk) -> None:
        nonlocal results_total, chunks_seen, cpu_total
        _tag, defs, blob, extra = chunk
        chunks_seen += 1
        if defs:
            packet_decoder.add_defs(defs)
        packets = packet_decoder.decode_packets(blob, extra)
        cpu0 = time.process_time()
        results = dataplane.process_many(packets)
        cpu_total += time.process_time() - cpu0
        out_blob, out_extra = shm_codec.encode_results(
            results, mode, result_encoder
        )
        defs = result_encoder.take_defs()
        payload = shm_codec.encode_chunk(defs, out_blob, out_extra)
        if len(payload) > resp_ring.max_record:
            overflow.append(shm_codec.encode_chunk([], out_blob, out_extra))
            payload = shm_codec.encode_overflow_ref(
                len(overflow) - 1, len(results), defs
            )
        while not resp_ring.try_push(payload):
            pipe_turn()
        results_total += len(results)

    while True:
        payload = req_ring.try_pop()
        if payload is None:
            if state["rest"] is not None:
                break  # ring drained; the stream's tail came by pipe
            pipe_turn()
            continue
        chunk = shm_codec.decode_ring_payload(payload)
        if chunk[0] == "E":
            state["total"] = chunk[1]
            break
        process_chunk(chunk)
    if state["rest"]:
        for payload in state["rest"]:
            process_chunk(shm_codec.decode_ring_payload(payload))
    if state["total"] is not None and chunks_seen != state["total"]:
        raise RuntimeError(
            f"shm stream lost chunks: saw {chunks_seen} of {state['total']}"
        )
    conn.send_bytes(
        encode_msg(("ok_shm", results_total, cpu_total, overflow), out=reply_buf)
    )


def worker_main(conn, setup_bytes: bytes, ring_names=None) -> None:
    """Blocking request loop of one shard worker (runs in a child process)."""
    # The coordinator owns worker lifetime (stop message / pipe close); a
    # terminal Ctrl-C must not make every shard dump a KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    rings = None
    if ring_names is not None:
        try:
            rings = (ShmRing.attach(ring_names[0]), ShmRing.attach(ring_names[1]))
        except Exception:  # pragma: no cover - degraded host
            rings = None
    try:
        _serve(conn, setup_bytes, rings)
    finally:
        if rings is not None:
            rings[0].close()
            rings[1].close()


def _serve(conn, setup_bytes: bytes, rings) -> None:
    dataplane = _build_dataplane(setup_bytes)
    handle_map: dict[int, int] = {}
    applied_gen = 0
    ctl_errors: list[str] = []
    reply_buf = bytearray()
    frame_ready = _frame_waiter(conn)
    # Zero-packet sub-batches reply with this precomputed frame: no
    # pickling an empty list per request on either end.
    empty_reply = bytes(
        encode_msg(
            ("ok", (pickle.dumps([], protocol=pickle.HIGHEST_PROTOCOL), 0.0))
        )
    )
    while True:
        try:
            frame_ready(None)
            msg = decode_msg(conn.recv_bytes())
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "ctl_run":
            # Pipelined, coalesced: one frame carries every command the
            # coordinator queued since the last flush.  Never replies;
            # failures surface at the next barrier.
            _kind, gen, ops = msg
            for op in ops:
                try:
                    _apply_ctl(dataplane, handle_map, op)
                except Exception:
                    ctl_errors.append(
                        f"ctl gen {gen} {op[0]}: {traceback.format_exc()}"
                    )
            applied_gen = gen
            continue
        try:
            if kind == "barrier":
                errors, ctl_errors = ctl_errors, []
                conn.send_bytes(
                    encode_msg(("ack", msg[1], applied_gen, errors), out=reply_buf)
                )
            elif kind == "batch_shm":
                if rings is None:
                    raise RuntimeError("shm rings unavailable in this worker")
                _serve_shm_batch(
                    conn, frame_ready, dataplane, msg[1], rings, reply_buf
                )
            elif kind == "batch":
                # Packets arrive as one pickle blob (bytes leaf) and the
                # results go back the same way — one pickle per batch is
                # the fast path for opaque packet/result objects.
                _kind, mode, blob = msg
                packets = pickle.loads(blob) if blob else []
                if not packets:
                    conn.send_bytes(empty_reply)
                    continue
                payload, cpu_s = _run_batch(dataplane, mode, packets)
                conn.send_bytes(
                    encode_msg(
                        (
                            "ok",
                            (
                                pickle.dumps(
                                    payload, protocol=pickle.HIGHEST_PROTOCOL
                                ),
                                cpu_s,
                            ),
                        ),
                        out=reply_buf,
                    )
                )
            elif kind == "read_buckets":
                _kind, phys_rpb, addrs = msg
                values = [dataplane.read_bucket(phys_rpb, a) for a in addrs]
                conn.send_bytes(encode_msg(("ok", values), out=reply_buf))
            elif kind == "write_buckets":
                _kind, phys_rpb, pairs = msg
                for addr, value in pairs:
                    dataplane.write_bucket(phys_rpb, addr, value)
                conn.send_bytes(encode_msg(("ok", None), out=reply_buf))
            elif kind == "counters":
                _kind, refs = msg
                hits = [
                    dataplane.read_entry_counter(table, handle_map[handle])
                    for table, handle in refs
                ]
                conn.send_bytes(encode_msg(("ok", hits), out=reply_buf))
            elif kind == "stats":
                conn.send_bytes(
                    encode_msg(("ok", _stats_payload(dataplane)), out=reply_buf)
                )
            elif kind == "harvest":
                # Retirement snapshot: every entry counter plus the final
                # stats payload in one round trip, so the coordinator can
                # fold this replica's history into its base offsets.
                _kind, refs = msg
                hits = [
                    dataplane.read_entry_counter(table, handle_map[handle])
                    for table, handle in refs
                ]
                conn.send_bytes(
                    encode_msg(
                        ("ok", (hits, _stats_payload(dataplane))), out=reply_buf
                    )
                )
            elif kind == "stop":
                conn.send_bytes(encode_msg(("bye",), out=reply_buf))
                return
            else:
                raise ValueError(f"unknown message {kind!r}")
        except EOFError:
            return  # the coordinator exited mid-request
        except Exception:
            # Synchronous requests get the failure as their reply; the
            # coordinator raises it as a WorkerError.
            try:
                conn.send_bytes(
                    encode_msg(("err", traceback.format_exc()), out=reply_buf)
                )
            except (OSError, BrokenPipeError):
                return
