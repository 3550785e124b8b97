"""Zero-copy shared-memory packet rings for the engine data path.

Two pieces:

* :class:`ShmRing` — a single-producer/single-consumer byte ring over one
  :class:`multiprocessing.shared_memory.SharedMemory` segment.  The head
  (consumer) and tail (producer) counters live on separate cache lines at
  the front of the segment, followed by the embedded data capacity (the
  kernel may round the segment size up, so the attaching side reads the
  capacity out of the segment instead of deriving it).  Counters are
  monotonic u64 byte offsets; ``position = counter % capacity``.  Records
  are framed ``[u32 length][payload]``; when a record does not fit in the
  bytes remaining before the wrap point, the producer writes a wrap
  marker (``0xFFFFFFFF``) and restarts at offset zero — and when fewer
  than four bytes remain (no room for a marker), both sides skip the
  remainder implicitly.

* a wire-native packet/result codec — :class:`PacketEncoder`,
  :class:`PacketDecoder`, :func:`encode_result`, :func:`decode_result` —
  that turns packets into compact records without pickling on the hot
  path.  Header *compositions* (the ordered header/field-name shape of a
  packet) are interned per stream: the first packet of a new shape ships
  its composition definition in-band, every later packet of that shape is
  just ``(comp_id, struct-packed u64 field values, size, ts, port,
  queue_depth)``.  Packets the fast layout cannot express (negative or
  oversized field values) fall back to a structural dict record, still
  wire-encoded.  Chunks of records travel as one wire payload
  (:func:`repro.service.wire.encode_payload` with ``preserve_tuples`` and
  the trusted-channel pickle extension enabled for exotic leaves).

The ring transports *opaque byte payloads*; chunk framing and codec
choices live in the callers (:mod:`.engine`, :mod:`.worker`).
"""

from __future__ import annotations

import operator
import struct

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker, shared_memory

    HAVE_SHM = True
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    shared_memory = None
    resource_tracker = None
    HAVE_SHM = False

from ..rmt.packet import Packet
from ..rmt.pipeline import SwitchResult, Verdict
from ..service.wire import decode_payload, encode_payload

#: default per-direction ring capacity (data area, bytes)
DEFAULT_RING_BYTES = 1 << 20

#: default packets per streamed chunk record
DEFAULT_CHUNK_PACKETS = 256

_CACHE_LINE = 64
_HEAD_OFF = 0
_TAIL_OFF = _CACHE_LINE
_CAP_OFF = 2 * _CACHE_LINE
_DATA_OFF = 3 * _CACHE_LINE

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_WRAP = 0xFFFFFFFF
_WRAP_BYTES = _U32.pack(_WRAP)


class RingError(RuntimeError):
    """A ring operation that cannot succeed (oversized record, closed)."""


class ShmRing:
    """SPSC byte ring over one shared-memory segment.

    Exactly one process calls :meth:`try_push` and exactly one calls
    :meth:`try_pop`; the counters need no locks because each side writes
    only its own counter and reads the other's (CPython emits the payload
    stores before the counter-publish store in program order, which is
    sufficient on the cache-coherent hosts ``multiprocessing`` targets).
    """

    def __init__(self, shm, data_bytes: int, owner: bool):
        self._shm = shm
        self._buf = shm.buf
        self._cap = data_bytes
        self._owner = owner
        self._closed = False
        #: largest payload a push will attempt: a record must never fill
        #: the ring completely (full would be indistinguishable from
        #: empty) and wrap slack must always fit
        self.max_record = data_bytes // 2 - 8

    # -- lifecycle ----------------------------------------------------------
    @classmethod
    def create(cls, data_bytes: int = DEFAULT_RING_BYTES) -> "ShmRing":
        if not HAVE_SHM:
            raise RingError("multiprocessing.shared_memory is unavailable")
        if data_bytes < 4 * _CACHE_LINE:
            raise ValueError(f"ring of {data_bytes} bytes is too small")
        shm = shared_memory.SharedMemory(create=True, size=_DATA_OFF + data_bytes)
        ring = cls(shm, data_bytes, owner=True)
        buf = shm.buf
        buf[_HEAD_OFF:_HEAD_OFF + 8] = _U64.pack(0)
        buf[_TAIL_OFF:_TAIL_OFF + 8] = _U64.pack(0)
        buf[_CAP_OFF:_CAP_OFF + 8] = _U64.pack(data_bytes)
        return ring

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        if not HAVE_SHM:
            raise RingError("multiprocessing.shared_memory is unavailable")
        # The creator's resource tracker owns cleanup.  Attaching would
        # re-register the segment with the (shared, under fork) tracker;
        # un-registering afterwards would then clobber the creator's own
        # record.  Suppress registration for the attach instead (3.11 has
        # no ``track=False``).
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        (cap,) = _U64.unpack(bytes(shm.buf[_CAP_OFF:_CAP_OFF + 8]))
        return cls(shm, cap, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def capacity(self) -> int:
        return self._cap

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buf = None
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - defensive
            pass

    # -- counters -----------------------------------------------------------
    def _read_head(self) -> int:
        return _U64.unpack_from(self._buf, _HEAD_OFF)[0]

    def _read_tail(self) -> int:
        return _U64.unpack_from(self._buf, _TAIL_OFF)[0]

    def __len__(self) -> int:
        """Bytes currently enqueued (framing included)."""
        return self._read_tail() - self._read_head()

    # -- producer -----------------------------------------------------------
    def try_push(self, payload) -> bool:
        """Enqueue one record; False when the ring lacks space."""
        buf = self._buf
        if buf is None:
            raise RingError("ring is closed")
        n = len(payload)
        if n > self.max_record:
            raise RingError(
                f"record of {n} bytes exceeds ring max {self.max_record}"
            )
        cap = self._cap
        tail = self._read_tail()
        pos = tail - (tail // cap) * cap
        rem = cap - pos
        needed = 4 + n
        if rem < 4:
            skip, wrap = rem, False
        elif rem < needed:
            skip, wrap = rem, True
        else:
            skip = wrap = 0
        if cap - (tail - self._read_head()) < skip + needed:
            return False
        if wrap:
            buf[_DATA_OFF + pos:_DATA_OFF + pos + 4] = _WRAP_BYTES
        if skip:
            tail += skip
            pos = 0
        base = _DATA_OFF + pos
        buf[base:base + 4] = _U32.pack(n)
        buf[base + 4:base + 4 + n] = payload
        buf[_TAIL_OFF:_TAIL_OFF + 8] = _U64.pack(tail + needed)
        return True

    # -- consumer -----------------------------------------------------------
    def try_pop(self) -> bytes | None:
        """Dequeue one record; None when the ring is empty."""
        buf = self._buf
        if buf is None:
            raise RingError("ring is closed")
        cap = self._cap
        head = self._read_head()
        tail = self._read_tail()
        while True:
            if head == tail:
                return None
            pos = head - (head // cap) * cap
            rem = cap - pos
            if rem < 4:
                head += rem
                continue
            (n,) = _U32.unpack_from(buf, _DATA_OFF + pos)
            if n == _WRAP:
                head += rem
                continue
            base = _DATA_OFF + pos + 4
            payload = bytes(buf[base:base + n])
            buf[_HEAD_OFF:_HEAD_OFF + 8] = _U64.pack(head + 4 + n)
            return payload


# -- packet / result codec ---------------------------------------------------

#: verdict index table: results ship the index, not the string
VERDICT_VALUES = tuple(v for v in Verdict)

#: per-packet fast-path record header: comp_id, size, ts, port, queue_depth
_PKT_HDR = struct.Struct("<iqdqq")
#: per-result verdicts-mode record: verdict idx, egress port, recirculations
_RES_V = struct.Struct("<iqq")
#: egress-port sentinel for None inside the packed i64 slot
_PORT_NONE = -(1 << 60)


def _getter(fields: tuple):
    """A header dict's values in ``fields`` order, as a tuple."""
    if len(fields) > 1:
        return operator.itemgetter(*fields)
    return lambda hfields: tuple(hfields[f] for f in fields)


class PacketEncoder:
    """Stream encoder interning header compositions.

    One instance per (stream, direction); compositions are numbered from
    zero in first-seen order and their definitions travel in-band inside
    the first chunk that uses them (:meth:`take_defs`).  A packet finds
    its composition by its header-name sequence alone, guarded by one
    field-set compare per header, and its values pack in the
    composition's field order; a packet whose field sets differ (an
    extra or a missing field) takes its exact shape instead, which its
    header sequence then tries first.  A chunk's records pack into one
    contiguous blob — fixed :data:`_PKT_HDR` header plus the
    composition's struct-packed u64 field values per packet — so the wire
    layer moves a single ``bytes`` leaf instead of thousands of tuples.
    """

    def __init__(self):
        #: exact shape (header, field-name tuples) -> (comp_id, struct,
        #: per-header (field-name set, field-order getter))
        self._comps: dict[tuple, tuple] = {}
        #: header-name tuple -> the ``_comps`` value of the last exact
        #: shape seen with those headers, which any packet whose headers
        #: carry the same field sets reuses, whatever their dict order
        self._shapes: dict[tuple, tuple] = {}
        self._pending_defs: list = []

    def _define(self, headers: dict) -> tuple:
        """The composition of ``headers``' exact shape, defined (and
        queued for :meth:`take_defs`) on first sight, and made the one
        its header sequence tries first."""
        key = tuple((h, tuple(f)) for h, f in headers.items())
        ent = self._comps.get(key)
        if ent is None:
            count = sum(len(fields) for _h, fields in key)
            ent = self._comps[key] = (
                len(self._comps),
                struct.Struct(f"<{count}Q") if count else None,
                tuple((frozenset(f), _getter(f)) for _h, f in key),
            )
            self._pending_defs.append(
                (ent[0], [(h, list(fields)) for h, fields in key])
            )
        self._shapes[tuple(headers)] = ent
        return ent

    def encode_packets(self, packets) -> tuple[bytes, list]:
        """A chunk of packets -> (packed blob, structural fallbacks).

        Packets the fast layout cannot express (negative or >u64 field
        values, non-int fields, non-float ``ts``) leave a ``comp_id -1``
        marker in the blob and append ``(headers, size, ts, port,
        queue_depth)`` to the fallback list, consumed in blob order.
        """
        shapes = self._shapes
        hdr_pack = _PKT_HDR.pack
        parts: list[bytes] = []
        fallbacks: list = []
        for pkt in packets:
            headers = pkt.headers
            ts = pkt.ts
            try:
                if type(ts) is not float:
                    raise TypeError("ts must stay float across the blob")
                ent = shapes.get(tuple(headers))
                values = []
                if ent is not None:
                    for hfields, (names, getter) in zip(headers.values(), ent[2]):
                        if hfields.keys() != names:
                            ent = None
                            break
                        values += getter(hfields)
                if ent is None:
                    ent = self._define(headers)
                    values = [v for hfields in headers.values() for v in hfields.values()]
                comp_id, st, _plan = ent
                # Pack values first — a failure here must not leave a
                # stray record header in the blob.
                packed = st.pack(*values) if st else b""
                parts.append(
                    hdr_pack(
                        comp_id, pkt.size, ts, pkt.ingress_port, pkt.queue_depth
                    )
                )
                if packed:
                    parts.append(packed)
            except (struct.error, TypeError):
                parts.append(hdr_pack(-1, 0, 0.0, 0, 0))
                fallbacks.append(
                    (headers, pkt.size, ts, pkt.ingress_port, pkt.queue_depth)
                )
        return b"".join(parts), fallbacks

    def take_defs(self) -> list:
        """Composition definitions added since the last call."""
        defs, self._pending_defs = self._pending_defs, []
        return defs


class PacketDecoder:
    """Mirror of :class:`PacketEncoder`: replays in-band definitions."""

    def __init__(self):
        self._comps: dict[int, tuple[list, struct.Struct | None]] = {}

    def add_defs(self, defs) -> None:
        for comp_id, layout in defs:
            count = sum(len(fields) for _h, fields in layout)
            st = struct.Struct(f"<{count}Q") if count else None
            self._comps[comp_id] = (layout, st)

    def decode_packets(self, blob, fallbacks) -> list[Packet]:
        comps = self._comps
        hdr_unpack = _PKT_HDR.unpack_from
        hdr_size = _PKT_HDR.size
        fb = iter(fallbacks)
        out: list[Packet] = []
        off, end = 0, len(blob)
        while off < end:
            comp_id, size, ts, port, queue_depth = hdr_unpack(blob, off)
            off += hdr_size
            if comp_id == -1:
                headers_src, size, ts, port, queue_depth = next(fb)
                headers = {h: dict(f) for h, f in headers_src.items()}
            else:
                layout, st = comps[comp_id]
                if st:
                    values = st.unpack_from(blob, off)
                    off += st.size
                else:
                    values = ()
                headers = {}
                i = 0
                for hname, fields in layout:
                    n = len(fields)
                    headers[hname] = dict(zip(fields, values[i:i + n]))
                    i += n
            out.append(
                Packet(
                    headers=headers,
                    size=size,
                    ts=ts,
                    ingress_port=port,
                    queue_depth=queue_depth,
                )
            )
        return out


def encode_results(results, mode: str, encoder: PacketEncoder):
    """A worker batch's :class:`SwitchResult` list -> (blob, extra).

    Verdicts mode packs every record into the blob (fixed 20-byte
    :data:`_RES_V` entries, ``iter_unpack``-able on the other side); full
    mode ships structural tuple records in ``extra`` (an empty blob) —
    bridge dicts and nested packets have no fixed layout.
    """
    if mode == "verdicts":
        pack = _RES_V.pack
        vidx = _VERDICT_INDEX
        return (
            b"".join(
                pack(
                    vidx[r.verdict.value],
                    _PORT_NONE if r.egress_port is None else r.egress_port,
                    r.recirculations,
                )
                for r in results
            ),
            [],
        )
    return (
        b"",
        [
            (
                _VERDICT_INDEX[r.verdict.value],
                r.egress_port,
                r.recirculations,
                r.egress_ports,
                r.bridge,
                encoder.encode_packets([r.packet]),
            )
            for r in results
        ],
    )


def decode_results(blob, extra, mode: str, decoder: PacketDecoder) -> list:
    """Inverse of :func:`encode_results` for one chunk."""
    if mode == "verdicts":
        verdicts = VERDICT_VALUES
        return [
            (
                verdicts[vidx].value,
                None if port == _PORT_NONE else port,
                recircs,
            )
            for vidx, port, recircs in _RES_V.iter_unpack(blob)
        ]
    out = []
    for vidx, port, recircs, egress_ports, bridge, packet_rec in extra:
        pkt_blob, pkt_fallbacks = packet_rec
        out.append(
            SwitchResult(
                verdict=VERDICT_VALUES[vidx],
                egress_port=port,
                packet=decoder.decode_packets(pkt_blob, pkt_fallbacks)[0],
                recirculations=recircs,
                egress_ports=tuple(egress_ports),
                bridge=bridge,
            )
        )
    return out


def result_count(blob, extra) -> int:
    """Records contributed by one result chunk (either representation)."""
    return len(blob) // _RES_V.size if blob else len(extra)


_VERDICT_INDEX = {v.value: i for i, v in enumerate(VERDICT_VALUES)}


# -- chunk framing -----------------------------------------------------------
#
# A ring payload is one wire-encoded tuple:
#   ("R", defs, blob, extra) — a chunk of records (packets or results):
#                              ``blob`` is the packed fast-path records,
#                              ``extra`` the structural stragglers, and
#                              ``defs`` any composition definitions first
#                              used by this chunk;
#   ("E", count)             — end-of-stream; count = chunks sent, a cheap
#                              integrity check against dropped records.


def encode_chunk(defs, blob, extra, out: bytearray | None = None) -> bytes:
    return bytes(
        encode_payload(
            ("R", defs, blob, extra),
            preserve_tuples=True,
            allow_pickle=True,
            out=out,
        )
    )


def encode_end(count: int) -> bytes:
    return bytes(encode_payload(("E", count), preserve_tuples=True))


def encode_overflow_ref(idx: int, count: int, defs) -> bytes:
    """In-stream stand-in for a result chunk too large for the ring.

    The real records ride in the session's final pipe reply; the stand-in
    keeps stream order (``idx`` names the overflow slot, ``count`` the
    records it contributes) and carries any composition definitions the
    oversized chunk introduced, since later in-ring chunks may reference
    them.
    """
    return bytes(
        encode_payload(
            ("O", idx, count, defs), preserve_tuples=True, allow_pickle=True
        )
    )


def decode_ring_payload(data):
    """One ring payload -> ("R", defs, blob, extra) | ("E", count) |
    ("O", idx, count, defs)."""
    return decode_payload(data, allow_pickle=True)
