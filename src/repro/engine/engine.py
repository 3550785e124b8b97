"""The sharded engine coordinator: placement, fan-out, routing, merge.

:class:`ShardedEngine` owns

* a **coordinator replica** — a full controller + data plane that never
  processes packets.  Its resource manager is the single source of truth
  for allocation, and its register arrays hold the authoritative merged
  state (the *base* every shard was last rebased to);
* an **elastic fleet** of worker processes (:mod:`repro.engine.worker`),
  each a full switch replica driven over a pipe.  Workers can be added
  and removed at runtime: a new worker bootstraps from the coordinator's
  pickled provisioning plus a replay of every tracked table entry,
  multicast group, and non-zero register bucket (rebased through
  :meth:`sync` first, so the snapshot is the merged truth); a departing
  worker first hands its pinned programs to a peer, folds its mergeable
  deltas through :meth:`sync`, and has its entry counters and
  traffic-manager totals harvested into coordinator-side base offsets so
  aggregated statistics stay bit-identical;
* the **placement map** — ``program_id -> owning shard`` for pinned
  programs, ``None`` for data-parallel ones (stateless, or every memory
  op mergeable-and-unobserved; see
  :mod:`repro.compiler.register_semantics`);
* a **consistent-hash ring** (:class:`repro.engine.ring.HashRing`) —
  data-parallel flows route to the owner of their hash's arc, so
  rescaling by one worker remaps only ~1/N of the flows (the modulo
  router this replaced remapped nearly all of them).  Per-worker ring
  weights let the rebalancer steer hash traffic away from shards that
  are hot with pinned-program traffic;
* :class:`FanoutBinding` — the coordinator controller's southbound
  binding.  Every control-plane mutation (entry insert/delete, memory
  reset, bucket write, multicast config) applies locally and is broadcast
  to every worker as a generation-stamped pipelined command; an explicit
  ``barrier`` drains the command channel and collects acks before any
  traffic or state read, so a deploy followed immediately by an inject
  can never observe a shard without the program.

Packet routing parses each packet on the coordinator replica and runs the
*real* init-table lookup, so ownership decisions (first-match filter
semantics, conditional parse paths) are bit-identical to what every
worker's own init block will decide.  Packets of a pinned program go to
its owning shard; everything else is spread by an RSS-style CRC32 of the
5-tuple through the ring, which keeps every flow on one shard (per-flow
order preserved).

**Live migration** moves a pinned program between shards without
dropping or reordering a packet: :meth:`ShardedEngine.begin_migration`
quiesces the program at the router (its packets park, in arrival order,
in a per-program holding queue), :meth:`ShardedEngine.complete_migration`
barrier-drains the owning shard via the ctl_run ack machinery, snapshots
the program's SALU register regions, installs them on the target shard
(mirroring the coordinator base), flips the placement map, and replays
the parked packets.  Per-flow order holds because every parked flow
belongs to the migrating program and replays in arrival order; register
state is bit-identical because the owner was drained before the
snapshot.  A load-aware :meth:`ShardedEngine.rebalance` watches
per-shard routed-packet and CPU-time telemetry and combines pinned
migrations with ring reweighting when one shard's share exceeds a skew
threshold.

Cross-shard merge (:meth:`ShardedEngine.sync`) folds each mergeable
memory block's shard replicas into the coordinator's base value with
:func:`repro.rmt.salu.merge_buckets` and rebases all workers to the
merged value; pinned programs just mirror their owning shard's region
into the coordinator.  It runs on demand before every control-plane read
or write of register state, and periodically every ``merge_every``
injected packets.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
import time
import zlib
from dataclasses import dataclass, field

from ..compiler.entries import EntryConfig
from ..compiler.target import TargetSpec
from ..controlplane.controller import Controller
from ..controlplane.manager import ProgramNotFoundError, ProgramState
from ..dataplane import constants as dp
from ..dataplane.runpro import P4runproDataPlane
from ..rmt.phv import PHV
from ..rmt.salu import merge_buckets
from . import shm as shm_codec
from .ring import DEFAULT_VNODES, HashRing
from .sbwire import decode_msg, encode_msg, pack_entry, send_frame
from .shm import DEFAULT_CHUNK_PACKETS, DEFAULT_RING_BYTES, HAVE_SHM, ShmRing
from .worker import worker_main


class EngineError(RuntimeError):
    """Coordinator-side engine failure (dead worker, timeout)."""


class WorkerError(EngineError):
    """A worker request or fanned-out control command failed."""


class MigrationError(EngineError):
    """A live-migration request was invalid or cannot proceed."""


_FLOW_PACK = struct.Struct("!IIIHH")

#: bounded history for migration latency summaries
_LATENCY_KEEP = 512


def flow_hash(five_tuple: tuple[int, int, int, int, int]) -> int:
    """Stable RSS-style flow hash: CRC32 over the packed 5-tuple."""
    src, dst, proto, sport, dport = five_tuple
    return zlib.crc32(
        _FLOW_PACK.pack(
            src & 0xFFFFFFFF,
            dst & 0xFFFFFFFF,
            proto & 0xFFFFFFFF,
            sport & 0xFFFF,
            dport & 0xFFFF,
        )
    )


@dataclass
class ShardPlan:
    """A routed, pre-pickled packet batch, reusable across injections.

    ``frames[w]`` is the ready-to-send wire frame for worker ``w``
    (workers that received no packets are absent); ``index_lists[w]``
    maps the worker's reply positions back to original batch positions.
    Building the plan once amortizes routing and serialization across
    repeated :meth:`ShardedEngine.inject_plan` calls (benchmark loops).

    Plans are stamped with the engine's ``routing_version``; any rescale,
    migration, or ring reweight bumps the version and a stale plan is
    transparently re-routed from its retained ``packets`` at the next
    :meth:`ShardedEngine.inject_plan`.  ``parked`` lists the positions of
    packets owned by a program that is mid-migration — those are held in
    the program's holding queue instead of being dispatched.
    """

    frames: dict[int, bytes]
    index_lists: dict[int, list[int]]
    total: int
    mode: str
    #: per-shard pre-encoded shm chunk payloads for workers with rings;
    #: a shard appears in either ``chunks`` (ring transport) or
    #: ``frames`` (pipe transport), never both
    chunks: dict[int, list[bytes]] = field(default_factory=dict)
    routing_version: int = 0
    #: the original batch, retained so a stale plan can be re-routed
    packets: list = field(default_factory=list)
    #: worker ids the plan was routed against, sorted
    worker_ids: list[int] = field(default_factory=list)
    #: per-shard packet counts aligned with ``worker_ids``
    shard_counts: list[int] = field(default_factory=list)
    #: ``(index, packet, program_id)`` for packets quiesced by migration
    parked: list = field(default_factory=list)
    #: routing telemetry: packets pinned/hash-routed per worker, and per
    #: pinned program — accumulated by inject_plan for the rebalancer
    pinned_counts: dict = field(default_factory=dict)
    hash_counts: dict = field(default_factory=dict)
    program_counts: dict = field(default_factory=dict)


class FanoutBinding:
    """Southbound binding fanning every mutation out to all shards.

    Wraps the coordinator's own data plane: mutations apply locally first
    (keeping the coordinator replica authoritative) and are then broadcast
    as pipelined generation-stamped commands.  State *reads* trigger an
    on-demand cross-shard merge so the control plane always observes
    merged traffic state.  Inserted entries and multicast groups are also
    recorded on the engine so a worker added later can replay them.
    """

    def __init__(self, local: P4runproDataPlane, engine: "ShardedEngine"):
        self.local = local
        self.engine = engine
        #: init-entry handle -> program id, for placement-map cleanup
        self._init_handles: dict[int, int] = {}

    # -- DataPlaneBinding (mutations) --------------------------------------
    def insert_entry(self, entry: EntryConfig) -> int:
        handle = self.local.insert_entry(entry)
        packed = pack_entry(entry)
        self.engine._broadcast(("insert", handle, packed))
        self.engine._entries[handle] = packed
        if entry.table == dp.INIT_TABLE and entry.action == dp.ACTION_SET_PROGRAM:
            program_id = entry.data().get("program_id")
            if program_id is not None:
                self._init_handles[handle] = program_id
                self.engine._note_program(program_id)
        return handle

    def insert_entries(self, entries: list[EntryConfig]) -> list[int]:
        """Group-atomic batched insert, fanned out as ONE pipelined frame.

        The local replica applies the whole group first (rolling back on
        failure, so nothing is ever broadcast for a failed group); the
        shards then receive a single ``insert_many`` command instead of
        one frame per entry — the RBFRT-style batching that makes grouped
        installs cheap at fan-out degree N.
        """
        handles = self.local.insert_entries(list(entries))
        packed_pairs = tuple(
            (h, pack_entry(e)) for h, e in zip(handles, entries)
        )
        self.engine._broadcast(("insert_many", packed_pairs))
        for handle, packed in packed_pairs:
            self.engine._entries[handle] = packed
        for entry, handle in zip(entries, handles):
            if entry.table == dp.INIT_TABLE and entry.action == dp.ACTION_SET_PROGRAM:
                program_id = entry.data().get("program_id")
                if program_id is not None:
                    self._init_handles[handle] = program_id
                    self.engine._note_program(program_id)
        return handles

    def delete_entry(self, table: str, handle: int) -> None:
        self.local.delete_entry(table, handle)
        self.engine._broadcast(("delete", table, handle))
        self.engine._entries.pop(handle, None)
        self.engine._counter_base.pop((table, handle), None)
        program_id = self._init_handles.pop(handle, None)
        if program_id is not None:
            self.engine._drop_program(program_id)

    def reset_memory(self, phys_rpb: int, base: int, size: int) -> None:
        self.local.reset_memory(phys_rpb, base, size)
        self.engine._broadcast(("reset_memory", phys_rpb, base, size))

    def configure_multicast_group(self, group: int, ports: list[int]) -> None:
        self.local.configure_multicast_group(group, ports)
        self.engine._mcast[group] = tuple(ports)
        self.engine._broadcast(("mcast", group, tuple(ports)))

    # -- control-plane state access ----------------------------------------
    def read_bucket(self, phys_rpb: int, addr: int) -> int:
        self.engine.sync()
        return self.local.read_bucket(phys_rpb, addr)

    def write_bucket(self, phys_rpb: int, addr: int, value: int) -> None:
        # Merge outstanding shard deltas first so the write rebases all
        # replicas to a consistent absolute value instead of clobbering
        # unmerged partial aggregates.
        self.engine.sync()
        self.local.write_bucket(phys_rpb, addr, value)
        self.engine._broadcast(("write_bucket", phys_rpb, addr, value))

    def read_entry_counter(self, table: str, handle: int) -> int:
        """Aggregate an entry's hit counter across all shards.

        The coordinator replica processes no packets (its own counters
        only reflect routing lookups), so the true count is the sum over
        live workers of their local entry's counter, plus the harvested
        base from any worker that has since been removed.
        """
        return self.engine._aggregate_counter(table, handle)


class _ShmSession:
    """Coordinator-side state of one worker's streamed shm batch.

    The producer half pushes encoded packet chunks into the worker's
    request ring (falling back to a ``batch_rest`` pipe delivery when a
    chunk exceeds the ring record cap or the ring stays full past the
    stall timeout — from that point the whole tail of the stream rides
    the pipe so chunk order is preserved); the consumer half drains
    result chunks from the response ring as they land, and the session
    closes on the worker's ``ok_shm`` pipe reply (result count, CPU
    seconds, overflow chunks too large for the ring).
    """

    __slots__ = (
        "engine", "worker", "mode", "req", "resp", "decoder", "parts",
        "collected", "chunks_sent", "header_sent", "pipe_mode", "rest",
        "done", "expected", "cpu_s", "overflow",
    )

    def __init__(self, engine: "ShardedEngine", worker: int, mode: str):
        self.engine = engine
        self.worker = worker
        self.mode = mode
        self.req, self.resp = engine._rings[worker]
        self.decoder = shm_codec.PacketDecoder()
        #: decoded result runs in stream order; an overflow chunk holds
        #: its place as ("ovf", slot, count) until the final reply
        self.parts: list = []
        self.collected = 0
        self.chunks_sent = 0
        self.header_sent = False
        self.pipe_mode = False
        self.rest: list[bytes] = []
        self.done = False
        self.expected: int | None = None
        self.cpu_s = 0.0
        self.overflow: list[bytes] | None = None

    def send_header(self) -> None:
        if self.header_sent:
            return
        self.header_sent = True
        self.engine._transport["ring_batches"] += 1
        self._send_pipe(bytes(encode_msg(("batch_shm", self.mode))))

    def _send_pipe(self, frame: bytes) -> None:
        try:
            send_frame(self.engine._conns[self.worker], frame)
        except (OSError, EOFError) as exc:
            raise EngineError(
                f"worker {self.worker} is dead: {exc}"
            ) from exc

    def push_chunk(self, payload: bytes) -> None:
        transport = self.engine._transport
        self.chunks_sent += 1
        if not self.pipe_mode and len(payload) > self.req.max_record:
            # One oversized chunk flips the whole tail to the pipe:
            # chunks must reach the worker in stream order.
            self.pipe_mode = True
            transport["fallbacks"]["oversize"] += 1
        if self.pipe_mode:
            self.rest.append(payload)
            return
        if self._push_with_stall(payload):
            transport["ring_chunks"] += 1
            transport["bytes_out"] += len(payload)
        else:
            self.pipe_mode = True
            transport["fallbacks"]["ring_full"] += 1
            self.rest.append(payload)

    def _push_with_stall(self, payload: bytes) -> bool:
        req = self.req
        if req.try_push(payload):
            return True
        engine = self.engine
        transport = engine._transport
        timeout = engine.ring_stall_timeout_s
        stall0 = time.perf_counter()
        deadline = stall0 + timeout
        ok = False
        while timeout > 0:
            # Draining our response ring is what unblocks a worker that
            # is itself stalled pushing results.
            self.drain()
            self.poll_pipe()
            if req.try_push(payload):
                ok = True
                break
            if time.perf_counter() >= deadline:
                break
            engine._check_alive(self.worker)
            time.sleep(0.0002)
        transport["stall_s"] += time.perf_counter() - stall0
        return ok

    def finish(self) -> None:
        """Close the request stream: END marker in-ring, or the buffered
        tail as one ``batch_rest`` pipe frame."""
        engine = self.engine
        if self.pipe_mode:
            self._send_pipe(
                bytes(encode_msg(("batch_rest", self.rest, self.chunks_sent)))
            )
            return
        end = shm_codec.encode_end(self.chunks_sent)
        if not self._push_with_stall(end):
            engine._transport["fallbacks"]["ring_full"] += 1
            self._send_pipe(
                bytes(encode_msg(("batch_rest", [], self.chunks_sent)))
            )

    def drain(self) -> int:
        """Pop and decode every available result chunk; returns how many
        records were collected."""
        transport = self.engine._transport
        decoder = self.decoder
        mode = self.mode
        popped = 0
        while True:
            payload = self.resp.try_pop()
            if payload is None:
                return popped
            transport["bytes_in"] += len(payload)
            rec = shm_codec.decode_ring_payload(payload)
            if rec[0] == "R":
                _tag, defs, blob, extra = rec
                if defs:
                    decoder.add_defs(defs)
                out = shm_codec.decode_results(blob, extra, mode, decoder)
                self.parts.append(out)
                self.collected += len(out)
                popped += len(out)
            else:  # ("O", slot, count, defs) — result rides the final reply
                _tag, slot, count, defs = rec
                if defs:
                    decoder.add_defs(defs)
                self.parts.append(("ovf", slot, count))
                self.collected += count
                popped += count

    def poll_pipe(self) -> None:
        if self.done:
            return
        engine = self.engine
        conn = engine._conns[self.worker]
        try:
            if not conn.poll(0):
                return
            reply = decode_msg(conn.recv_bytes())
        except (EOFError, OSError) as exc:
            raise EngineError(f"worker {self.worker} is dead: {exc}") from exc
        if reply[0] == "err":
            raise WorkerError(f"worker {self.worker}: {reply[1]}")
        _tag, total, cpu_s, overflow = reply
        self.done = True
        self.expected = total
        self.cpu_s = cpu_s
        self.overflow = overflow

    def complete(self) -> bool:
        return self.done and self.collected >= (self.expected or 0)

    def results(self) -> list:
        """Flatten the collected runs, substituting overflow chunks."""
        if self.collected != self.expected:
            raise EngineError(
                f"worker {self.worker} shm batch returned {self.collected} "
                f"records, expected {self.expected}"
            )
        out: list = []
        decoder = self.decoder
        mode = self.mode
        for part in self.parts:
            if isinstance(part, list):
                out.extend(part)
            else:
                _tag, slot, _count = part
                _t, _defs, blob, extra = shm_codec.decode_ring_payload(
                    self.overflow[slot]
                )
                out.extend(shm_codec.decode_results(blob, extra, mode, decoder))
        return out


class ShardedEngine:
    """Elastic N-shard packet engine over one coordinator control plane."""

    #: telemetry packets required before maybe_rebalance will act
    REBALANCE_MIN_PACKETS = 512

    def __init__(
        self,
        num_workers: int = 2,
        *,
        spec: TargetSpec | None = None,
        parse_machine=None,
        merge_every: int | None = 500_000,
        start_method: str | None = None,
        reply_timeout_s: float = 120.0,
        codegen: bool = True,
        vnodes: int = DEFAULT_VNODES,
        use_shm: bool = True,
        ring_bytes: int = DEFAULT_RING_BYTES,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
        ring_stall_timeout_s: float = 0.25,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.spec = spec or TargetSpec()
        self.merge_every = merge_every
        self.reply_timeout_s = reply_timeout_s

        #: shared-memory ring transport for packet batches; pipes remain
        #: the fallback (per shard) and the control/request channel
        self._use_shm = bool(use_shm) and HAVE_SHM
        self._ring_bytes = ring_bytes
        self._chunk_packets = max(1, chunk_packets)
        self.ring_stall_timeout_s = ring_stall_timeout_s
        self._rings: dict[int, tuple[ShmRing, ShmRing]] = {}
        self._transport: dict = {
            "enabled": self._use_shm,
            "ring_batches": 0,
            "ring_chunks": 0,
            "ring_records": 0,
            "bytes_out": 0,
            "bytes_in": 0,
            "pipe_batches": 0,
            "stall_s": 0.0,
            "fallbacks": {
                "oversize": 0,
                "ring_full": 0,
                "no_ring": 0,
                "disabled": 0,
            },
        }

        # Provisioning is pickled before the coordinator freezes the parse
        # machine, so every replica — including workers added long after
        # construction — is built from the same description.  Each worker
        # owns a private codegen cache; FanoutBinding mutations reach every
        # replica through its own southbound binding, so the table versions
        # its functions depend on move without an extra broadcast.
        self._setup_bytes = pickle.dumps((self.spec, parse_machine, codegen))
        self.dataplane = P4runproDataPlane(
            self.spec, parse_machine, codegen=codegen
        )
        self.binding = FanoutBinding(self.dataplane, self)
        self.controller = Controller(self.binding, spec=self.spec)
        self._init_table = self.dataplane.tables[dp.INIT_TABLE]

        #: program id -> owning shard (pinned) or None (data-parallel)
        self.placement: dict[int, int | None] = {}
        self._semantics: dict[int, object] = {}

        self._generation = 0
        self._ctl_pending = False
        #: coalesced pipelined commands awaiting flush (one wire frame)
        self._pending_ops: list[tuple] = []
        #: reusable encode buffers: broadcasts and synchronous requests
        #: never interleave mid-encode, and ``send_bytes`` copies
        #: synchronously, so one buffer per role suffices
        self._sb_buf = bytearray()
        self._req_buf = bytearray()
        self._traffic_dirty = False
        self._since_merge = 0
        self.merges = 0
        #: timing of the most recent inject_plan, for benchmarks:
        #: wall seconds, per-worker CPU seconds, coordinator CPU seconds
        self.last_inject_stats: dict = {}

        #: provisioning replayed into workers added at runtime
        self._entries: dict[int, tuple] = {}
        self._mcast: dict[int, tuple[int, ...]] = {}
        #: counters/stats harvested from removed workers, so aggregates
        #: stay bit-identical across downscales
        self._counter_base: dict[tuple[str, int], int] = {}
        self._retired_stats: list[dict] = []

        #: routing epoch — bumped by rescale/migration/reweight; plans
        #: stamped with an older epoch are transparently re-routed
        self._routing_version = 0
        self.ring = HashRing(vnodes)

        #: in-flight migrations: program id -> holding queue + endpoints
        self._migrations: dict[int, dict] = {}
        self._orphans: list[tuple] = []
        self._in_replay = False
        self._mstats: dict = {
            "started": 0,
            "completed": 0,
            "cancelled": 0,
            "rebalances": 0,
            "parked_packets": 0,
            "quiesce_ms": [],
            "flip_ms": [],
            "last": None,
        }
        self._reset_telemetry()

        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._conns: dict[int, object] = {}
        self._procs: dict[int, object] = {}
        self._next_worker_id = 0
        for _ in range(num_workers):
            wid = self._spawn_worker()
            self.ring.add(wid)
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._conns)

    @property
    def worker_ids(self) -> list[int]:
        return sorted(self._conns)

    @property
    def routing_version(self) -> int:
        return self._routing_version

    def _spawn_worker(self) -> int:
        wid = self._next_worker_id
        self._next_worker_id += 1
        parent, child = self._ctx.Pipe(duplex=True)
        ring_names = None
        if self._use_shm:
            rings = self._make_rings()
            if rings is not None:
                self._rings[wid] = rings
                ring_names = (rings[0].name, rings[1].name)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child, self._setup_bytes, ring_names),
            daemon=True,
        )
        proc.start()
        child.close()
        self._conns[wid] = parent
        self._procs[wid] = proc
        return wid

    def _make_rings(self) -> tuple[ShmRing, ShmRing] | None:
        """One request/response ring pair, or None on a degraded host
        (shm mount missing, fd/segment limits) — that worker just runs
        on the pipe transport."""
        req = resp = None
        try:
            req = ShmRing.create(self._ring_bytes)
            resp = ShmRing.create(self._ring_bytes)
            return req, resp
        except Exception:  # pragma: no cover - degraded host
            for ring in (req, resp):
                if ring is not None:
                    ring.close()
                    ring.unlink()
            return None

    def _retire_rings(self, wid: int) -> None:
        rings = self._rings.pop(wid, None)
        if rings is None:
            return
        for ring in rings:
            ring.close()
            ring.unlink()

    def _check_alive(self, worker: int) -> None:
        proc = self._procs.get(worker)
        if proc is not None and not proc.is_alive():
            raise EngineError(f"worker {worker} is dead: exited mid-batch")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns.values():
            try:
                conn.send_bytes(bytes(encode_msg(("stop",))))
            except (OSError, BrokenPipeError):
                pass
        for wid, proc in self._procs.items():
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
            self._conns[wid].close()
            self._retire_rings(wid)
        for wid in list(self._rings):  # pragma: no cover - defensive
            self._retire_rings(wid)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- command channel ----------------------------------------------------
    def _broadcast(self, op: tuple) -> None:
        """Queue one pipelined control command for every shard.

        Commands coalesce: nothing hits the pipes until the next
        synchronous exchange (barrier, request, or inject), at which point
        every queued command ships as ONE multi-command wire frame per
        worker — the install of an N-entry program costs a handful of
        frames instead of N, and each frame is encoded once into a
        reusable buffer and shared by all pipes.
        """
        self._generation += 1
        self._pending_ops.append(op)
        self._ctl_pending = True

    def _flush_ctl(self) -> None:
        if not self._pending_ops:
            return
        ops, self._pending_ops = self._pending_ops, []
        frame = encode_msg(
            ("ctl_run", self._generation, tuple(ops)), out=self._sb_buf
        )
        for worker, conn in self._conns.items():
            try:
                send_frame(conn, frame)
            except (OSError, BrokenPipeError) as exc:
                raise EngineError(f"worker {worker} is dead: {exc}") from exc

    def _recv(self, worker: int):
        conn = self._conns[worker]
        if not conn.poll(self.reply_timeout_s):
            raise EngineError(
                f"worker {worker} did not reply within {self.reply_timeout_s}s"
            )
        reply = decode_msg(conn.recv_bytes())
        if reply[0] == "err":
            raise WorkerError(f"worker {worker}: {reply[1]}")
        return reply

    def _request(self, worker: int, msg: tuple):
        self._flush_ctl()
        send_frame(self._conns[worker], encode_msg(msg, out=self._req_buf))
        reply = self._recv(worker)
        return reply[1]

    def _barrier_one(self, worker: int, gen: int) -> None:
        """Targeted barrier against a single worker (bootstrap path)."""
        self._conns[worker].send_bytes(encode_msg(("barrier", gen), out=self._req_buf))
        tag, ack_gen, applied_gen, worker_errors = self._recv(worker)
        if tag != "ack" or ack_gen != gen or applied_gen < gen:
            raise EngineError(
                f"worker {worker} acked generation {applied_gen}, expected {gen}"
            )
        if worker_errors:
            raise WorkerError(
                "; ".join(f"worker {worker}: {e}" for e in worker_errors)
            )

    def barrier(self) -> None:
        """Drain the command channel: every shard acks the current
        generation; deferred control errors surface here."""
        if not self._ctl_pending:
            return
        self._flush_ctl()
        gen = self._generation
        frame = encode_msg(("barrier", gen), out=self._req_buf)
        for worker, conn in self._conns.items():
            try:
                send_frame(conn, frame)
            except (OSError, EOFError) as exc:
                raise EngineError(f"worker {worker} is dead: {exc}") from exc
        errors = []
        for worker in self.worker_ids:
            tag, ack_gen, applied_gen, worker_errors = self._recv(worker)
            if tag != "ack" or ack_gen != gen or applied_gen < gen:
                raise EngineError(
                    f"worker {worker} acked generation {applied_gen}, "
                    f"expected {gen}"
                )
            errors.extend(f"worker {worker}: {e}" for e in worker_errors)
        self._ctl_pending = False
        if errors:
            raise WorkerError("; ".join(errors))

    # -- placement ----------------------------------------------------------
    @property
    def pinned_programs(self) -> dict[int, int]:
        """Program id -> owning shard, for pinned programs only (the
        data-parallel ones map to ``None`` in :attr:`placement` and have
        nothing to migrate)."""
        return {p: shard for p, shard in self.placement.items() if shard is not None}

    def _note_program(self, program_id: int) -> None:
        if program_id in self.placement:
            return
        try:
            record = self.controller.manager.get(program_id)
        except ProgramNotFoundError:  # pragma: no cover - foreign binding use
            return
        semantics = record.compiled.register_semantics()
        self._semantics[program_id] = semantics
        if semantics.data_parallel:
            self.placement[program_id] = None
            return
        loads = {w: 0 for w in self.worker_ids}
        for shard in self.pinned_programs.values():
            loads[shard] += 1
        self.placement[program_id] = min(
            self.worker_ids, key=lambda w: (loads[w], w)
        )

    def _drop_program(self, program_id: int) -> None:
        self.placement.pop(program_id, None)
        self._semantics.pop(program_id, None)
        migration = self._migrations.pop(program_id, None)
        if migration is not None:
            # Revoked mid-migration: the holding queue's packets still
            # count as traffic — they re-route (and replay) at the next
            # inject boundary, after the revoke finishes.
            self._orphans.extend(migration["parked"])
            self._mstats["cancelled"] += 1
            self._routing_version += 1

    # -- routing ------------------------------------------------------------
    def _route(self, packet) -> tuple[int | None, int | None]:
        """``(shard, program_id)`` for one packet under the current epoch.

        ``program_id`` is set only for pinned-program traffic; a ``None``
        shard means the owning program is mid-migration and the packet
        must park in its holding queue.
        """
        switch = self.dataplane.switch
        phv = PHV(switch.layout, packet)
        switch.parse_machine.parse(packet, phv)
        hit = self._init_table.lookup(phv)
        if hit is not None and hit[0] == dp.ACTION_SET_PROGRAM:
            program_id = hit[1].get("program_id")
            if program_id is not None and program_id in self._migrations:
                return None, program_id
            pinned = self.placement.get(program_id)
            if pinned is not None:
                return pinned, program_id
        return self.ring.lookup(flow_hash(packet.five_tuple())), None

    def shard_of(self, packet) -> int:
        """Which shard a packet belongs to (identical to init-block
        ownership semantics: real parse, real first-match lookup)."""
        shard, program_id = self._route(packet)
        if shard is None:
            # Mid-migration the packet would park; its current owner is
            # still the migration source.
            return self._migrations[program_id]["source"]
        return shard

    def plan(self, packets, mode: str = "full") -> ShardPlan:
        """Route a batch and pre-pickle one wire frame per shard."""
        if mode not in ("full", "verdicts"):
            raise ValueError(f"unknown inject mode {mode!r}")
        packets = list(packets)
        worker_ids = self.worker_ids
        buckets: dict[int, list] = {}
        index_lists: dict[int, list[int]] = {}
        parked: list = []
        pinned_counts: dict[int, int] = {}
        hash_counts: dict[int, int] = {}
        program_counts: dict[int, int] = {}
        for index, packet in enumerate(packets):
            shard, program_id = self._route(packet)
            if shard is None:
                parked.append((index, packet, program_id))
                continue
            buckets.setdefault(shard, []).append(packet)
            index_lists.setdefault(shard, []).append(index)
            if program_id is not None:
                pinned_counts[shard] = pinned_counts.get(shard, 0) + 1
                program_counts[program_id] = program_counts.get(program_id, 0) + 1
            else:
                hash_counts[shard] = hash_counts.get(shard, 0) + 1
        # A shard with a ring pair gets its bucket pre-encoded as a list
        # of wire-native chunk payloads (self-contained: composition
        # definitions ride in the first chunk that uses them, so a reused
        # plan replays cleanly); a shard without rings keeps the classic
        # ONE-pickle-blob wire frame.  Fresh buffers: plans outlive the
        # next encode.
        frames: dict[int, bytes] = {}
        chunks: dict[int, list[bytes]] = {}
        for shard, bucket in buckets.items():
            if self._use_shm and shard in self._rings:
                chunks[shard] = self._encode_chunks(bucket)
                continue
            if self._use_shm:
                self._transport["fallbacks"]["no_ring"] += 1
            frames[shard] = bytes(
                encode_msg(
                    (
                        "batch",
                        mode,
                        pickle.dumps(bucket, protocol=pickle.HIGHEST_PROTOCOL),
                    )
                )
            )
        return ShardPlan(
            frames=frames,
            chunks=chunks,
            index_lists=index_lists,
            total=len(packets),
            mode=mode,
            routing_version=self._routing_version,
            packets=packets,
            worker_ids=worker_ids,
            shard_counts=[len(buckets.get(w, ())) for w in worker_ids],
            parked=parked,
            pinned_counts=pinned_counts,
            hash_counts=hash_counts,
            program_counts=program_counts,
        )

    # -- traffic ------------------------------------------------------------
    def _encode_chunks(self, bucket: list) -> list[bytes]:
        """One shard bucket -> wire-native chunk payloads for its ring."""
        encoder = shm_codec.PacketEncoder()
        step = self._chunk_packets
        payloads = []
        for start in range(0, len(bucket), step):
            blob, extra = encoder.encode_packets(bucket[start:start + step])
            payloads.append(
                shm_codec.encode_chunk(encoder.take_defs(), blob, extra)
            )
        return payloads

    def inject(self, packets, mode: str = "full") -> list:
        """Route + process a batch; results come back in arrival order.

        With rings on every worker the batch is *streamed*: routed
        sub-batches flow into the rings chunk by chunk while workers are
        already draining them, overlapping routing with compute.  Without
        full ring coverage (``use_shm=False``, shm unavailable, or a
        degraded worker) the classic route-everything-then-send plan path
        runs, which itself uses rings per shard where available.
        """
        self._replay_orphans()
        packets = list(packets)
        if not packets:
            # Empty sub-batch short-circuit: flush pending control state
            # for identical barrier semantics, but touch no worker.
            if mode not in ("full", "verdicts"):
                raise ValueError(f"unknown inject mode {mode!r}")
            self.barrier()
            self.last_inject_stats = {
                "wall_s": 0.0,
                "coordinator_cpu_s": 0.0,
                "worker_cpu_s": {},
                "worker_ids": self.worker_ids,
                "shard_counts": [0] * self.num_workers,
                "parked": 0,
            }
            return []
        if self._use_shm and all(w in self._rings for w in self._conns):
            return self._inject_stream(packets, mode)
        if self._use_shm and not self._rings:
            self._transport["fallbacks"]["disabled"] += 1
        return self.inject_plan(self.plan(packets, mode))

    def _inject_stream(self, packets: list, mode: str) -> list:
        """Route and submit in one pass: every full chunk is pushed to
        its shard's ring immediately, so workers process the head of the
        batch while the coordinator is still routing the tail."""
        if mode not in ("full", "verdicts"):
            raise ValueError(f"unknown inject mode {mode!r}")
        self.barrier()
        wall0 = time.perf_counter()
        coord_cpu0 = time.process_time()
        transport = self._transport
        step = self._chunk_packets
        worker_ids = self.worker_ids
        sessions: dict[int, _ShmSession] = {}
        encoders: dict[int, shm_codec.PacketEncoder] = {}
        pending: dict[int, list] = {}
        index_lists: dict[int, list[int]] = {}
        parked: list = []
        pinned_counts: dict[int, int] = {}
        hash_counts: dict[int, int] = {}
        program_counts: dict[int, int] = {}

        def flush(shard: int) -> None:
            chunk = pending[shard]
            if not chunk:
                return
            encoder = encoders[shard]
            blob, extra = encoder.encode_packets(chunk)
            payload = shm_codec.encode_chunk(encoder.take_defs(), blob, extra)
            transport["ring_records"] += len(chunk)
            del chunk[:]
            sessions[shard].push_chunk(payload)

        for index, packet in enumerate(packets):
            shard, program_id = self._route(packet)
            if shard is None:
                parked.append((index, packet, program_id))
                continue
            session = sessions.get(shard)
            if session is None:
                session = sessions[shard] = _ShmSession(self, shard, mode)
                session.send_header()
                encoders[shard] = shm_codec.PacketEncoder()
                pending[shard] = []
                index_lists[shard] = []
            index_lists[shard].append(index)
            pending[shard].append(packet)
            if program_id is not None:
                pinned_counts[shard] = pinned_counts.get(shard, 0) + 1
                program_counts[program_id] = (
                    program_counts.get(program_id, 0) + 1
                )
            else:
                hash_counts[shard] = hash_counts.get(shard, 0) + 1
            if len(pending[shard]) >= step:
                flush(shard)
                session.drain()
        for shard in sessions:
            flush(shard)
        for session in sessions.values():
            session.finish()

        results: list = [None] * len(packets)
        for _index, packet, program_id in parked:
            self._migrations[program_id]["parked"].append((packet, mode))
            self._mstats["parked_packets"] += 1
        worker_cpu = self._collect_sessions(sessions, index_lists, results)
        self._finalize_inject(
            total=len(packets),
            parked_count=len(parked),
            worker_cpu=worker_cpu,
            worker_ids=worker_ids,
            shard_counts=[len(index_lists.get(w, ())) for w in worker_ids],
            pinned_counts=pinned_counts,
            hash_counts=hash_counts,
            program_counts=program_counts,
            wall0=wall0,
            coord_cpu0=coord_cpu0,
        )
        return results

    def inject_plan(self, plan: ShardPlan) -> list:
        """Process a pre-routed batch.  Results are ordered by original
        batch position; per-flow order is preserved by construction.
        Packets of a mid-migration program are parked (their result slot
        stays ``None``) and replayed by :meth:`complete_migration`."""
        self.barrier()
        if plan.routing_version != self._routing_version:
            # The fleet was rescaled, a migration started/finished, or the
            # ring was reweighted since this plan was built: re-route it
            # from the retained batch under the current epoch.
            plan = self.plan(plan.packets, plan.mode)
        wall0 = time.perf_counter()
        coord_cpu0 = time.process_time()
        # Pipe-transport shards get their whole frame first — they start
        # computing while the ring streams are fed.
        pipe_workers = sorted(plan.frames)
        for worker in pipe_workers:
            send_frame(self._conns[worker], plan.frames[worker])
            self._transport["pipe_batches"] += 1
        sessions: dict[int, _ShmSession] = {}
        if plan.chunks:
            sessions = {
                w: _ShmSession(self, w, plan.mode) for w in sorted(plan.chunks)
            }
            for session in sessions.values():
                session.send_header()
            # Breadth-first submission: one chunk per shard per round so
            # every worker starts immediately, draining results between
            # pushes to keep the mirror rings flowing.
            queues = {w: list(plan.chunks[w]) for w in sessions}
            while queues:
                for w in list(queues):
                    sessions[w].push_chunk(queues[w].pop(0))
                    sessions[w].drain()
                    if not queues[w]:
                        del queues[w]
            for w, session in sessions.items():
                self._transport["ring_records"] += len(plan.index_lists[w])
                session.finish()
        results: list = [None] * plan.total
        for _index, packet, program_id in plan.parked:
            self._migrations[program_id]["parked"].append((packet, plan.mode))
            self._mstats["parked_packets"] += 1
        worker_cpu = self._collect_sessions(sessions, plan.index_lists, results)
        for worker in pipe_workers:
            payload_blob, cpu_s = self._recv(worker)[1]
            payload = pickle.loads(payload_blob)
            worker_cpu[worker] = cpu_s
            indices = plan.index_lists[worker]
            for index, result in zip(indices, payload):
                results[index] = result
        self._finalize_inject(
            total=plan.total,
            parked_count=len(plan.parked),
            worker_cpu=worker_cpu,
            worker_ids=list(plan.worker_ids),
            shard_counts=list(plan.shard_counts),
            pinned_counts=plan.pinned_counts,
            hash_counts=plan.hash_counts,
            program_counts=plan.program_counts,
            wall0=wall0,
            coord_cpu0=coord_cpu0,
        )
        return results

    def _collect_sessions(
        self,
        sessions: dict[int, "_ShmSession"],
        index_lists: dict[int, list[int]],
        results: list,
    ) -> dict[int, float]:
        """Drain every open shm session to completion, mapping decoded
        results back to their original batch positions."""
        worker_cpu: dict[int, float] = {}
        if not sessions:
            return worker_cpu
        live = dict(sessions)
        deadline = time.perf_counter() + self.reply_timeout_s
        while live:
            progress = False
            for w in list(live):
                session = live[w]
                progress |= session.drain() > 0
                session.poll_pipe()
                if session.complete():
                    worker_cpu[w] = session.cpu_s
                    for index, result in zip(index_lists[w], session.results()):
                        results[index] = result
                    del live[w]
                    progress = True
            if live and not progress:
                if time.perf_counter() >= deadline:
                    raise EngineError(
                        f"workers {sorted(live)} did not finish their shm "
                        f"batch within {self.reply_timeout_s}s"
                    )
                for w in live:
                    self._check_alive(w)
                time.sleep(0.0002)
        return worker_cpu

    def _finalize_inject(
        self,
        *,
        total: int,
        parked_count: int,
        worker_cpu: dict[int, float],
        worker_ids: list[int],
        shard_counts: list[int],
        pinned_counts: dict,
        hash_counts: dict,
        program_counts: dict,
        wall0: float,
        coord_cpu0: float,
    ) -> None:
        coord_cpu = time.process_time() - coord_cpu0
        wall = time.perf_counter() - wall0
        self.last_inject_stats = {
            "wall_s": wall,
            "coordinator_cpu_s": coord_cpu,
            "worker_cpu_s": worker_cpu,
            "worker_ids": worker_ids,
            "shard_counts": shard_counts,
            "parked": parked_count,
        }
        telemetry = self._telemetry
        for worker, count in pinned_counts.items():
            telemetry["pinned"][worker] = telemetry["pinned"].get(worker, 0) + count
        for worker, count in hash_counts.items():
            telemetry["hash"][worker] = telemetry["hash"].get(worker, 0) + count
        for program_id, count in program_counts.items():
            telemetry["programs"][program_id] = (
                telemetry["programs"].get(program_id, 0) + count
            )
        for worker, cpu_s in worker_cpu.items():
            telemetry["cpu"][worker] = telemetry["cpu"].get(worker, 0.0) + cpu_s
        telemetry["total"] += total - parked_count
        if total:
            self._traffic_dirty = True
            self._since_merge += total
            if self.merge_every and self._since_merge >= self.merge_every:
                self.sync()

    def _replay_orphans(self) -> None:
        """Re-inject holding-queue packets whose migration was cancelled
        (program revoked mid-migration).  They re-route under the current
        epoch in arrival order; results are unobserved by construction
        (the original inject already returned)."""
        if not self._orphans or self._in_replay:
            return
        self._in_replay = True
        try:
            while self._orphans:
                mode = self._orphans[0][1]
                batch = []
                while self._orphans and self._orphans[0][1] == mode:
                    batch.append(self._orphans.pop(0)[0])
                self.inject_plan(self.plan(batch, mode))
        finally:
            self._in_replay = False

    # -- elastic rescale -----------------------------------------------------
    def add_worker(self) -> int:
        """Spawn and bootstrap one worker; returns its id.

        The new replica is built from the same pickled provisioning as
        the originals, then caught up by replaying every tracked table
        entry and multicast group as one coalesced ctl_run frame, and
        copying every non-zero register bucket of each live program from
        the coordinator's merged base (:meth:`sync` runs first so the
        base *is* the truth).  Only then does the worker join the ring —
        consistent hashing remaps ~1/(N+1) of the hash-routed flows to
        it, and every remapped flow moves *to* the new worker.
        """
        if self._closed:
            raise EngineError("engine is closed")
        self.barrier()
        self.sync()
        wid = self._spawn_worker()
        # Replay provisioning.  The frame is stamped with the current
        # generation even when empty so the newcomer's first global
        # barrier ack matches its peers'.
        ops = [
            ("insert", handle, packed) for handle, packed in self._entries.items()
        ]
        ops.extend(("mcast", group, ports) for group, ports in self._mcast.items())
        send_frame(
            self._conns[wid],
            encode_msg(("ctl_run", self._generation, tuple(ops)), out=self._sb_buf),
        )
        self._barrier_one(wid, self._generation)
        # Install merged register state: one write_buckets request per
        # memory block, non-zero buckets only (fresh replicas are zero).
        for record in self.controller.manager.programs():
            if record.state not in (ProgramState.RUNNING, ProgramState.INSTALLING):
                continue
            for alloc in record.memory.values():
                phys = alloc.phys_rpb
                pairs = [
                    (addr, value)
                    for _off, base, size in alloc.virtual_layout()
                    for addr in range(base, base + size)
                    if (value := self.dataplane.read_bucket(phys, addr))
                ]
                if pairs:
                    self._request(wid, ("write_buckets", phys, pairs))
        self.ring.add(wid)
        self._routing_version += 1
        return wid

    def remove_worker(self, worker_id: int | None = None) -> int:
        """Drain and retire one worker (default: the newest).

        Pinned programs hosted there migrate to the least-loaded peer
        first; :meth:`sync` then folds the worker's mergeable deltas into
        the coordinator base; finally its entry hit counters and
        traffic-manager totals are harvested into coordinator-side base
        offsets so every aggregate (stats, program counters) remains
        bit-identical to a fleet that never downsized.
        """
        if self._closed:
            raise EngineError("engine is closed")
        if self.num_workers <= 1:
            raise EngineError("cannot remove the last worker")
        wid = max(self._conns) if worker_id is None else worker_id
        if wid not in self._conns:
            raise EngineError(f"no such worker {wid}")
        for program_id, migration in self._migrations.items():
            if wid in (migration["source"], migration["target"]):
                raise MigrationError(
                    f"worker {wid} is mid-migration of program {program_id}; "
                    "complete it first"
                )
        self.barrier()
        for program_id, shard in self.pinned_programs.items():
            if shard == wid:
                self.migrate(program_id)
        self.sync()
        refs = tuple((packed[1], handle) for handle, packed in self._entries.items())
        hits, final_stats = self._request(wid, ("harvest", refs))
        for (table, handle), count in zip(refs, hits):
            if count:
                key = (table, handle)
                self._counter_base[key] = self._counter_base.get(key, 0) + count
        self._retired_stats.append(final_stats)
        self.ring.remove(wid)
        self._routing_version += 1
        conn = self._conns.pop(wid)
        proc = self._procs.pop(wid)
        try:
            conn.send_bytes(bytes(encode_msg(("stop",))))
        except (OSError, BrokenPipeError):  # pragma: no cover - defensive
            pass
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
            proc.join(timeout=5)
        conn.close()
        self._retire_rings(wid)
        return wid

    # -- live migration ------------------------------------------------------
    def begin_migration(self, program_id: int, target: int | None = None) -> int:
        """Quiesce a pinned program for migration; returns the target.

        From this point the router parks the program's packets, in
        arrival order, in its per-program holding queue.  No state moves
        until :meth:`complete_migration`.
        """
        source = self.placement.get(program_id)
        if source is None:
            raise MigrationError(
                f"program {program_id} is not pinned (nothing to migrate)"
            )
        if program_id in self._migrations:
            raise MigrationError(f"program {program_id} is already migrating")
        if target is None:
            candidates = [w for w in self.worker_ids if w != source]
            if not candidates:
                raise MigrationError("no other worker to migrate to")
            telemetry = self._telemetry
            pinned_count = {w: 0 for w in self.worker_ids}
            for shard in self.pinned_programs.values():
                pinned_count[shard] += 1
            target = min(
                candidates,
                key=lambda w: (
                    telemetry["pinned"].get(w, 0) + telemetry["hash"].get(w, 0),
                    pinned_count[w],
                    w,
                ),
            )
        if target == source:
            raise MigrationError(f"program {program_id} already lives on {target}")
        if target not in self._conns:
            raise MigrationError(f"no such worker {target}")
        self._migrations[program_id] = {
            "source": source,
            "target": target,
            "parked": [],
            "t0": time.perf_counter(),
        }
        self._routing_version += 1
        self._mstats["started"] += 1
        return target

    def complete_migration(self, program_id: int) -> list:
        """Drain, snapshot, install, flip, replay.  Returns the results
        of the replayed holding-queue packets, in arrival order."""
        migration = self._migrations.get(program_id)
        if migration is None:
            raise MigrationError(f"program {program_id} is not migrating")
        source, target = migration["source"], migration["target"]
        # Barrier-drain: batches are synchronous, so the source shard has
        # no traffic in flight; the barrier flushes and acks any pending
        # control ops so the snapshot sees a settled replica.
        self.barrier()
        quiesce_ms = (time.perf_counter() - migration["t0"]) * 1e3
        flip0 = time.perf_counter()
        try:
            record = self.controller.manager.get(program_id)
        except ProgramNotFoundError:  # pragma: no cover - defensive
            self._drop_program(program_id)
            raise MigrationError(f"program {program_id} vanished mid-migration")
        moved = 0
        for alloc in record.memory.values():
            phys = alloc.phys_rpb
            addrs = [
                addr
                for _off, base, size in alloc.virtual_layout()
                for addr in range(base, base + size)
            ]
            if not addrs:
                continue
            values = self._request(source, ("read_buckets", phys, addrs))
            pairs = list(zip(addrs, values))
            self._request(target, ("write_buckets", phys, pairs))
            # Mirror into the coordinator base too — the same contract
            # sync() maintains for pinned programs (owner authoritative).
            for addr, value in pairs:
                self.dataplane.write_bucket(phys, addr, value)
            moved += len(pairs)
        self.placement[program_id] = target
        del self._migrations[program_id]
        self._routing_version += 1
        flip_ms = (time.perf_counter() - flip0) * 1e3
        parked = migration["parked"]
        stats = self._mstats
        stats["completed"] += 1
        stats["quiesce_ms"].append(quiesce_ms)
        stats["flip_ms"].append(flip_ms)
        del stats["quiesce_ms"][:-_LATENCY_KEEP]
        del stats["flip_ms"][:-_LATENCY_KEEP]
        stats["last"] = {
            "program_id": program_id,
            "source": source,
            "target": target,
            "moved_buckets": moved,
            "parked": len(parked),
            "quiesce_ms": quiesce_ms,
            "flip_ms": flip_ms,
        }
        # Replay the holding queue in arrival order; packets route to the
        # new owner now, so per-flow order and register evolution are
        # exactly what an unmigrated switch would have produced.
        results: list = []
        index = 0
        while index < len(parked):
            mode = parked[index][1]
            batch = []
            while index < len(parked) and parked[index][1] == mode:
                batch.append(parked[index][0])
                index += 1
            results.extend(self.inject_plan(self.plan(batch, mode)))
        return results

    def migrate(self, program_id: int, target: int | None = None) -> dict:
        """Synchronous live migration: begin + complete in one call.
        Returns a report with endpoints, moved buckets, and latencies."""
        self.begin_migration(program_id, target)
        self.complete_migration(program_id)
        return dict(self._mstats["last"])

    # -- load-aware rebalancing ----------------------------------------------
    def _reset_telemetry(self) -> None:
        self._telemetry = {
            "pinned": {},
            "hash": {},
            "programs": {},
            "cpu": {},
            "total": 0,
        }

    def _skew(self) -> tuple[float, dict[int, float]]:
        """Worst per-shard load share since the last rebalance.

        Loads blend routed-packet counts with worker CPU seconds: the
        skew is the max of the two shares, so a shard that is hot either
        by flow count or by per-packet cost trips the threshold.
        """
        telemetry = self._telemetry
        packets = {
            w: telemetry["pinned"].get(w, 0) + telemetry["hash"].get(w, 0)
            for w in self.worker_ids
        }
        skew = 0.0
        total_packets = sum(packets.values())
        if total_packets > 0:
            skew = max(packets.values()) / total_packets
        total_cpu = sum(telemetry["cpu"].get(w, 0.0) for w in self.worker_ids)
        if total_cpu > 0:
            skew = max(
                skew,
                max(telemetry["cpu"].get(w, 0.0) for w in self.worker_ids)
                / total_cpu,
            )
        return skew, packets

    def rebalance(self, threshold: float = 0.7) -> dict:
        """Load-aware rebalance: pinned migrations + ring reweighting.

        When the hottest shard's share of routed traffic (or CPU time)
        exceeds ``threshold``, (1) pinned programs greedily migrate off
        shards whose pinned load alone exceeds the fair share, and
        (2) ring weights are set so hash-routed traffic fills the
        *remaining* headroom of each shard — a shard saturated by a
        pinned owner gets weight 0 and stops receiving hash flows
        entirely.  Telemetry resets afterwards so the next window
        measures the new routing.
        """
        self.barrier()
        skew, packets = self._skew()
        report: dict = {
            "triggered": False,
            "skew_before": skew,
            "loads": dict(packets),
            "workers": self.num_workers,
            "migrations": [],
            "reweighted": False,
        }
        total = sum(packets.values())
        if total <= 0 or self.num_workers < 2 or skew <= threshold:
            return report
        report["triggered"] = True
        fair = total / self.num_workers
        telemetry = self._telemetry
        pinned = self.pinned_programs
        program_load = {
            program_id: telemetry["programs"].get(program_id, 0)
            for program_id in pinned
        }
        pinned_load = {w: 0 for w in self.worker_ids}
        for program_id, shard in pinned.items():
            pinned_load[shard] += program_load[program_id]
        hash_load = {
            w: telemetry["hash"].get(w, 0) for w in self.worker_ids
        }
        # 1) Migrate pinned programs off shards whose pinned load alone
        # exceeds the fair share (hash traffic can be steered away
        # entirely, pinned traffic cannot).  Greedy hottest→coldest,
        # bounded, only while each move strictly improves the max.
        for _ in range(4 * len(pinned) + 4):
            hot = max(self.worker_ids, key=lambda w: pinned_load[w])
            if pinned_load[hot] <= fair:
                break
            cold = min(self.worker_ids, key=lambda w: pinned_load[w])
            movable = sorted(
                (
                    p
                    for p, shard in self.pinned_programs.items()
                    if shard == hot and program_load.get(p, 0) > 0
                ),
                key=lambda p: -program_load[p],
            )
            move = next(
                (
                    p
                    for p in movable
                    if pinned_load[cold] + program_load[p] < pinned_load[hot]
                ),
                None,
            )
            if move is None:
                break
            report["migrations"].append(self.migrate(move, cold))
            pinned_load[hot] -= program_load[move]
            pinned_load[cold] += program_load[move]
        # 2) Reweight the ring so hash traffic fills each shard's
        # remaining headroom below the fair share.
        hash_total = sum(hash_load.values())
        if hash_total > 0:
            targets = {
                w: max(0.0, fair - pinned_load[w]) for w in self.worker_ids
            }
            if sum(targets.values()) <= 0:
                # Every shard is at/over fair from pinned load alone;
                # spread hash traffic evenly instead of nowhere.
                targets = {w: 1.0 for w in self.worker_ids}
            top = max(targets.values())
            changed = False
            for w in self.worker_ids:
                changed |= self.ring.set_weight(w, targets[w] / top)
            if changed:
                self._routing_version += 1
                report["reweighted"] = True
                report["weights"] = self.ring.weights()
            target_sum = sum(targets.values())
            projected = {
                w: pinned_load[w] + hash_total * targets[w] / target_sum
                for w in self.worker_ids
            }
            report["skew_after_projected"] = max(projected.values()) / total
        self._mstats["rebalances"] += 1
        self._reset_telemetry()
        return report

    def maybe_rebalance(self, threshold: float = 0.7) -> dict | None:
        """Auto-rebalance hook: acts only with enough telemetry and a
        skew actually above the threshold; returns the report or None."""
        if self.num_workers < 2:
            return None
        if self._telemetry["total"] < self.REBALANCE_MIN_PACKETS:
            return None
        skew, _packets = self._skew()
        if skew <= threshold:
            return None
        return self.rebalance(threshold)

    # -- cross-shard merge ---------------------------------------------------
    def sync(self) -> None:
        """Merge shard register state into the coordinator and rebase.

        Mergeable blocks: fold every bucket's shard values over the
        coordinator's base with the block's merge kind, store the merged
        value locally, and push it back to every shard (the new common
        base).  Pinned blocks: mirror the owning shard's region into the
        coordinator (the owner stays authoritative).  No-op when no
        traffic ran since the last merge.
        """
        if not self._traffic_dirty:
            return
        self.barrier()
        worker_ids = self.worker_ids
        for record in self.controller.manager.programs():
            if record.state not in (ProgramState.RUNNING, ProgramState.INSTALLING):
                continue
            semantics = self._semantics.get(record.program_id)
            if semantics is None:
                semantics = record.compiled.register_semantics()
            shard = self.placement.get(record.program_id)
            for mid, alloc in record.memory.items():
                addrs = [
                    addr
                    for _off, base, size in alloc.virtual_layout()
                    for addr in range(base, base + size)
                ]
                if not addrs:
                    continue
                phys = alloc.phys_rpb
                if not semantics.data_parallel:
                    if shard is None:  # pragma: no cover - defensive
                        continue
                    values = self._request(shard, ("read_buckets", phys, addrs))
                    for addr, value in zip(addrs, values):
                        self.dataplane.write_bucket(phys, addr, value)
                    continue
                kind = semantics.memories.get(mid)
                if kind in (None, "read"):
                    # Read-only replicas never diverge; nothing to fold.
                    continue
                base_values = [self.dataplane.read_bucket(phys, a) for a in addrs]
                shard_values = [
                    self._request(w, ("read_buckets", phys, addrs))
                    for w in worker_ids
                ]
                merged = [
                    merge_buckets(
                        kind,
                        base_values[i],
                        [values[i] for values in shard_values],
                        self.spec.register_width,
                    )
                    for i in range(len(addrs))
                ]
                # Rebase every bucket where any replica (coordinator or
                # shard) diverges from the merged value — a shard's copy
                # is base+its-own-delta, so deltas that cancel across
                # shards still leave replicas to reset.
                rebase = [
                    (addr, value)
                    for i, (addr, value) in enumerate(zip(addrs, merged))
                    if value != base_values[i]
                    or any(values[i] != value for values in shard_values)
                ]
                for addr, value in rebase:
                    self.dataplane.write_bucket(phys, addr, value)
                if rebase:
                    for worker in worker_ids:
                        self._request(worker, ("write_buckets", phys, rebase))
        self._traffic_dirty = False
        self._since_merge = 0
        self.merges += 1

    # -- monitoring ----------------------------------------------------------
    def _aggregate_counter(self, table: str, handle: int) -> int:
        self.barrier()
        return self._counter_base.get((table, handle), 0) + sum(
            self._request(worker, ("counters", [(table, handle)]))[0]
            for worker in self.worker_ids
        )

    @staticmethod
    def _latency_summary(values: list[float]) -> dict:
        if not values:
            return {"count": 0, "mean_ms": 0.0, "max_ms": 0.0, "last_ms": 0.0}
        return {
            "count": len(values),
            "mean_ms": sum(values) / len(values),
            "max_ms": max(values),
            "last_ms": values[-1],
        }

    def transport_stats(self) -> dict:
        """Southbound transport counters: ring submits, bytes moved,
        fallbacks taken, and coordinator stall time."""
        transport = self._transport
        return {
            "enabled": transport["enabled"],
            "ring_bytes": self._ring_bytes,
            "chunk_packets": self._chunk_packets,
            "workers_with_rings": len(self._rings),
            "ring_batches": transport["ring_batches"],
            "ring_chunks": transport["ring_chunks"],
            "ring_records": transport["ring_records"],
            "bytes_out": transport["bytes_out"],
            "bytes_in": transport["bytes_in"],
            "pipe_batches": transport["pipe_batches"],
            "stall_s": transport["stall_s"],
            "fallbacks": dict(transport["fallbacks"]),
        }

    def migration_stats(self) -> dict:
        """Migration/rebalance counters plus latency summaries."""
        stats = self._mstats
        return {
            "started": stats["started"],
            "completed": stats["completed"],
            "cancelled": stats["cancelled"],
            "rebalances": stats["rebalances"],
            "parked_packets": stats["parked_packets"],
            "in_flight": len(self._migrations),
            "quiesce_ms": self._latency_summary(stats["quiesce_ms"]),
            "flip_ms": self._latency_summary(stats["flip_ms"]),
            "last": dict(stats["last"]) if stats["last"] else None,
        }

    def stats(self) -> dict:
        """Aggregated traffic-manager counters plus per-shard detail.

        Totals fold in the final stats harvested from removed workers,
        so downscaling never loses packet accounting.
        """
        self.barrier()
        worker_ids = self.worker_ids
        shards = [self._request(worker, ("stats",)) for worker in worker_ids]
        totals: dict[str, int] = {}
        codegen: dict = {}
        for shard in shards + self._retired_stats:
            for key, value in shard.items():
                if key == "codegen":
                    # Nested per-worker codegen stats: sum counters, merge
                    # the fallback-reason map, drop the enabled flag.
                    for ckey, cvalue in value.items():
                        if ckey == "fallbacks":
                            merged = codegen.setdefault("fallbacks", {})
                            for reason, count in cvalue.items():
                                merged[reason] = merged.get(reason, 0) + count
                        elif isinstance(cvalue, int) and not isinstance(cvalue, bool):
                            codegen[ckey] = codegen.get(ckey, 0) + cvalue
                else:
                    totals[key] = totals.get(key, 0) + value
        if codegen:
            totals["codegen"] = codegen
        return {
            "workers": self.num_workers,
            "worker_ids": worker_ids,
            "totals": totals,
            "shards": shards,
            "migration": self.migration_stats(),
            "transport": self.transport_stats(),
        }
