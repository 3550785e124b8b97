"""Two-tier flow cache: exact-match + megaflow trace cache (OVS-style).

Software datapaths amortize per-packet pipeline traversal with flow
caching; this module brings the same structure to the simulated RMT
switch.  Two tiers front :meth:`Switch.process_packet`:

* the **exact-match cache (EMC)** keys on the packet's parsed header
  bytes plus the intrinsic metadata the PHV constructor reads (ingress
  port, queue depth, length, timestamp).  A hit on a *pure* trace (no
  register-array ops) applies a precompiled verdict template — recorded
  header rewrites, verdict, ports, bridge state, counter deltas —
  without building a PHV at all;
* the **megaflow cache** keys on the *masked* fields the original
  traversal actually consulted: parser presence checks and select
  fields, ternary key masks scanned during table lookups (up to and
  including the first failing key of every losing entry), and
  branch-relevant exact keys.  Entries sharing a mask signature live in
  one subtable, exactly like OVS's megaflow classifier.

A megaflow hit (or an EMC hit on a stateful trace) *replays* the
recorded trace: the per-entry compiled action closures run again in
recorded order on a fresh PHV, so stateful steps — SALU register ops,
hash reads, recirculation decisions — re-execute against live state and
cms/bf/cache/hh stay bit-identical with the uncached path.  Traces whose
control flow consults a register *value* produced by a memory op (a
BRANCH entry matching ``ud.sar`` after a MEMREAD) are fundamentally
uncacheable: the recorder marks them dead and installs a negative
megaflow entry so repeat flows skip the recording overhead.

Soundness rests on taint tracking during the recording pass: every PHV
field carries a dependency — ``None`` (constant under the recorded
conditions), a frozenset of raw input fields, or the ``STATEFUL``
sentinel.  A consult of a pristine raw field adds a masked condition; a
consult of a derived field adds full-width conditions on its inputs; a
consult of a stateful field kills the trace.  Any packet matching the
accumulated conditions therefore takes the identical branch path and
matches the identical table entries, making op-sequence replay exact.

Invalidation is scoped by the dependency model of
:mod:`repro.rmt.dependency`: every recorded table lookup reports the
versions it read (:meth:`MatchActionTable.versions_read` — its program's
index bucket for an RPB, the matched filter entry for the init table),
and an entry stays valid while none of them moved.  A deploy, revoke or
``add_case`` for program *p* therefore stales only flows whose trace
looked up *p*'s buckets, or whose init match an entry now shadows.
Register writes (``write_bucket``, ``reset_memory``) stale nothing, and
the taint rules above are why: a pure trace never touches a register, a
stateful trace replays its SALU ops live, and a trace steered by a
register value dies at its first ``STATEFUL`` consult whatever the
value, leaving a negative entry that routes the flow to the codegen tier
or the interpreter, both of which read registers live.  Multicast-group
programming is the one global flush (:meth:`FlowCache.flush`): pure
templates bake in the replicated port list.
"""

from __future__ import annotations

from . import fields as field_registry
from .dependency import EPOCH, Dependent
from .packet import Packet

#: Sentinel dependency: the field's value came out of a register array —
#: replayable (the op re-executes) but never usable for control flow.
STATEFUL = object()

#: Full-width mask for exact-value conditions (``v & -1 == v``).
FULL_MASK = -1

#: The active recorder, if any (single-threaded simulator, mirroring
#: ``tracing._ACTIVE``).  Execution units consult it on their hot paths.
_RECORDER = None

#: When positive, the cache front door is bypassed entirely (execution
#: tracing wants to observe the real traversal, not a replay).
_BYPASS = 0

_canon = field_registry.canonical_name

_META_GETTERS = {
    "meta.ingress_port": lambda p: p.ingress_port,
    "meta.queue_depth": lambda p: p.queue_depth,
    "meta.pkt_len": lambda p: p.size,
    "meta.timestamp": lambda p: int(p.ts * 1_000_000) & 0xFFFFFFFF,
}

#: The intrinsic inputs the PHV constructor reads from the packet; the
#: recorder seeds these as raw inputs on the first pass.
_META_INPUTS = tuple(_META_GETTERS)


def _read_input(packet: Packet, name: str):
    """Read one raw input field off an unprocessed packet (``None`` when
    the packet does not carry it) — the megaflow matcher's accessor."""
    if name.startswith("hdr."):
        _, header, fname = name.split(".", 2)
        fields = packet.headers.get(header)
        if fields is None:
            return None
        return fields.get(fname)
    getter = _META_GETTERS.get(name)
    if getter is None:
        return None
    return getter(packet)


class _PassRecord:
    """Everything one pipeline pass did, replayable without lookups."""

    __slots__ = (
        "headers",
        "bitmap",
        "ingress_ops",
        "egress_ops",
        "ingress_lookups",
        "egress_lookups",
    )

    def __init__(self):
        self.headers: list[str] = []
        self.bitmap = 0
        self.ingress_ops: list = []
        self.egress_ops: list = []
        self.ingress_lookups: list = []
        self.egress_lookups: list = []


class FlowTrace:
    """A recorded end-to-end traversal (all recirculation passes)."""

    __slots__ = ("passes", "stateful", "written")

    def __init__(self, passes, stateful, written):
        self.passes = passes
        self.stateful = stateful
        #: header fields some MODIFY wrote (``hdr.h.f`` names) — the
        #: template builder snapshots their final values
        self.written = written


class _Template:
    """Precompiled EMC verdict template for a pure (stateless) trace."""

    __slots__ = (
        "verdict",
        "egress_port",
        "recirculations",
        "egress_ports",
        "bridge",
        "header_writes",
        "tm_attr",
        "passes",
        "table_counts",
        "entry_counts",
    )


class _EmcEntry(Dependent):
    __slots__ = ("trace", "template")

    def __init__(self, trace, template, epoch, versions):
        self.trace = trace
        self.template = template
        self.epoch = epoch
        self.versions = versions


class _MegaflowEntry(Dependent):
    """``trace is None`` marks a negative (uncacheable-flow) entry."""

    __slots__ = ("trace",)

    def __init__(self, trace, epoch, versions):
        self.trace = trace
        self.epoch = epoch
        self.versions = versions


_TM_ATTR = {
    "forward": "forwarded",
    "drop": "dropped",
    "reflect": "reflected",
    "to_cpu": "to_cpu",
    "multicast": "multicast",
}


class Recorder:
    """Accumulates the trace + consulted-field conditions of one miss pass.

    The switch drives the pass structure (``begin_pass`` /
    ``begin_egress`` / ``finish_pass``); the parser and the execution
    units report loads, consults, ops, and taint through the module's
    ``_RECORDER`` hook while the miss packet takes the normal path.
    """

    __slots__ = (
        "dead",
        "stateful",
        "deps",
        "pristine",
        "input_values",
        "cond_masks",
        "presence",
        "absent",
        "written",
        "passes",
        "versions",
        "_cur",
        "_egress",
        "_carried_deps",
    )

    def __init__(self, packet: Packet):
        self.dead = False
        self.stateful = False
        #: field -> None (constant) | frozenset of raw inputs | STATEFUL
        self.deps: dict = {
            name: frozenset((name,)) for name in _META_INPUTS
        }
        #: raw inputs never overwritten — eligible for masked conditions
        self.pristine: set[str] = set(_META_INPUTS)
        self.input_values: dict[str, int] = {
            name: getter(packet) for name, getter in _META_GETTERS.items()
        }
        #: accumulated megaflow conditions: field -> union of masks
        self.cond_masks: dict[str, int] = {}
        #: parser presence checks: header -> was it on the wire
        self.presence: dict[str, bool] = {}
        #: header fields consulted while unparsed (must stay absent)
        self.absent: set[str] = set()
        self.written: set[str] = set()
        self.passes: list[_PassRecord] = []
        #: version -> value seen, over every table lookup of the pass
        self.versions: dict = {}
        self._cur: _PassRecord | None = None
        self._egress = False
        self._carried_deps: dict | None = None

    # -- pass structure (driven by the switch loop) -----------------------
    def begin_pass(self) -> None:
        if self._cur is not None:
            # A fresh PHV: every field reverts to its template constant
            # except parsed headers (packet-persistent), the intrinsic
            # metadata the constructor re-reads, and the bridged carry.
            kept = {
                name: dep
                for name, dep in self.deps.items()
                if name.startswith("hdr.")
            }
            for name in ("meta.queue_depth", "meta.pkt_len", "meta.timestamp"):
                kept[name] = self.deps.get(name)
            if self._carried_deps:
                kept.update(self._carried_deps)
            # Recirculated passes enter through the recirculation port.
            kept["meta.ingress_port"] = None
            kept["ud.recirc_count"] = None
            self.deps = kept
        self._cur = _PassRecord()
        self._egress = False
        self.passes.append(self._cur)

    def begin_egress(self) -> None:
        self._egress = True

    def finish_pass(self, phv, carried: dict | None) -> None:
        if phv._extra is not None:
            # Late-registered fields live outside the slot layout; the
            # replay path does not model them — refuse to cache.
            self.dead = True
        if carried is not None:
            deps = self.deps
            saved = {name: deps.get(name) for name in carried}
            saved["ud.recirc_count"] = None
            self._carried_deps = saved

    # -- parser hooks -----------------------------------------------------
    def note_header_loaded(self, header: str, packet: Packet) -> None:
        self.presence.setdefault(header, True)
        self._cur.headers.append(header)
        deps = self.deps
        prefix = f"hdr.{header}."
        for fname, value in packet.headers[header].items():
            name = prefix + fname
            if name not in deps:
                deps[name] = frozenset((name,))
                self.pristine.add(name)
                self.input_values[name] = value

    def note_header_missing(self, header: str) -> None:
        self.presence.setdefault(header, False)

    def note_bitmap(self, bitmap: int) -> None:
        self._cur.bitmap = bitmap

    # -- consult / taint hooks (parser, tables, execution units) ----------
    def note_field_consult(self, name: str, mask: int) -> None:
        if self.dead:
            return
        if mask == 0:
            # Wildcard consult (mask-0 ternary key): the value cannot
            # influence the outcome, so it constrains nothing — and must
            # not kill the trace even when the field is STATEFUL.
            return
        name = _canon(name)
        dep = self.deps.get(name)
        if dep is None:
            return  # constant under the recorded conditions
        if dep is STATEFUL:
            # Control flow depends on a register value: uncacheable.
            self.dead = True
            return
        if name in self.pristine:
            self.cond_masks[name] = self.cond_masks.get(name, 0) | mask
            return
        masks = self.cond_masks
        for src in dep:
            masks[src] = masks.get(src, 0) | FULL_MASK

    def note_field_absent(self, name: str) -> None:
        if self.dead:
            return
        name = _canon(name)
        if name.startswith("hdr."):
            self.absent.add(name)
        else:
            self.dead = True  # metadata is never absent on the slot path

    def dep_of(self, name: str):
        return self.deps.get(_canon(name))

    def set_dep(self, name: str, dep) -> None:
        name = _canon(name)
        self.pristine.discard(name)
        if name.startswith("hdr."):
            self.written.add(name)
        self.deps[name] = dep

    def combine(self, *deps):
        union: frozenset | None = None
        for dep in deps:
            if dep is None:
                continue
            if dep is STATEFUL:
                return STATEFUL
            union = dep if union is None else union | dep
        return union

    # -- op / counter recording -------------------------------------------
    def note_op(self, op, stage) -> None:
        cur = self._cur
        (cur.egress_ops if self._egress else cur.ingress_ops).append((op, stage))

    def note_lookup(self, table, entry, versions) -> None:
        cur = self._cur
        (cur.egress_lookups if self._egress else cur.ingress_lookups).append(
            (table, entry)
        )
        self.versions.update(versions)


def _emc_key(packet: Packet):
    # Two flat tuples per header (names, values) instead of one 2-tuple
    # per field: same discriminating power — a key collision would need
    # identical header names, field names in order, and values — at a
    # fraction of the allocations on the per-packet hot path.
    return (
        packet.ingress_port,
        packet.queue_depth,
        packet.size,
        packet.ts,
        tuple(
            (header, tuple(fields), tuple(fields.values()))
            for header, fields in packet.headers.items()
        ),
    )


def _build_template(trace: FlowTrace, result) -> _Template:
    t = _Template()
    t.verdict = result.verdict
    t.egress_port = result.egress_port
    t.recirculations = result.recirculations
    t.egress_ports = result.egress_ports
    t.bridge = dict(result.bridge)
    t.tm_attr = _TM_ATTR[result.verdict.value]
    t.passes = len(trace.passes)
    writes = []
    headers = result.packet.headers
    for name in trace.written:
        _, header, fname = name.split(".", 2)
        fields = headers.get(header)
        if fields is not None and fname in fields:
            writes.append((header, fname, fields[fname]))
    t.header_writes = tuple(writes)
    table_counts: dict[int, list] = {}
    entry_counts: dict[int, list] = {}
    for rec in trace.passes:
        for lookups in (rec.ingress_lookups, rec.egress_lookups):
            for table, entry in lookups:
                row = table_counts.get(id(table))
                if row is None:
                    row = table_counts[id(table)] = [table, 0, 0]
                row[1] += 1
                if entry is not None:
                    row[2] += 1
                    erow = entry_counts.get(id(entry))
                    if erow is None:
                        erow = entry_counts[id(entry)] = [entry, 0]
                    erow[1] += 1
    t.table_counts = tuple(
        (table, n, h) for table, n, h in table_counts.values()
    )
    t.entry_counts = tuple((entry, n) for entry, n in entry_counts.values())
    return t


class FlowCache:
    """The two-tier cache fronting one :class:`Switch`."""

    def __init__(self, emc_capacity: int = 8192, megaflow_capacity: int = 4096):
        self.enabled = True
        self.emc_capacity = emc_capacity
        self.megaflow_capacity = megaflow_capacity
        self.emc: dict = {}
        #: mask signature -> {masked key -> _MegaflowEntry}
        self.subtables: dict = {}
        self._megaflow_count = 0
        self.emc_hits = 0
        self.megaflow_hits = 0
        self.misses = 0
        self.uncacheable = 0
        self.invalidations = 0
        #: batch-mode counter coalescing (see begin_batch): template ->
        #: deferred hit count, applied to table/entry counters at batch end
        self._batching = False
        self._pending_templates: dict = {}

    # -- batch counter coalescing -----------------------------------------
    def begin_batch(self) -> None:
        """Defer template-hit table/entry counter bumps until end_batch.

        Inside :meth:`Switch.process_batch` no caller can observe the
        counters mid-batch (the simulator is single-threaded), so the
        per-hit loop over every consulted table collapses into one
        aggregated application per batch.  Totals are bit-identical.
        """
        self._batching = True

    def end_batch(self) -> None:
        self._batching = False
        pending = self._pending_templates
        if pending:
            for t, n in pending.values():
                for table, lookups, hits in t.table_counts:
                    table.lookups += lookups * n
                    table.hits += hits * n
                for entry, hits in t.entry_counts:
                    entry.hits += hits * n
            pending.clear()

    def flush(self) -> None:
        """Drop every entry (multicast reconfiguration, knob changes)."""
        self.invalidations += len(self.emc) + self._megaflow_count
        self.emc.clear()
        self.subtables.clear()
        self._megaflow_count = 0

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "emc_hits": self.emc_hits,
            "megaflow_hits": self.megaflow_hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "invalidations": self.invalidations,
            "occupancy": {
                "emc": len(self.emc),
                "megaflow": self._megaflow_count,
                "subtables": len(self.subtables),
            },
        }

    # -- data-plane side --------------------------------------------------
    def process(self, switch, packet: Packet):
        epoch = EPOCH.n
        key = _emc_key(packet)
        hit = self.emc.get(key)
        if hit is not None:
            if hit.epoch == epoch or hit.revalidate(epoch):
                self.emc_hits += 1
                if hit.template is not None:
                    return self._replay_template(switch, packet, hit.template)
                return self._replay(switch, packet, hit.trace)
            del self.emc[key]
            self.invalidations += 1
        entry = self._megaflow_lookup(packet, epoch)
        if entry is not None:
            if entry.trace is None:
                # Negative entry: the flow's control flow is register-value
                # steered, which the *trace* cache cannot key — but the
                # codegen tier re-evaluates branch conditions per packet,
                # so it serves these flows soundly (and much faster).
                self.uncacheable += 1
                return switch._process_miss(packet)
            self.megaflow_hits += 1
            result = self._replay(switch, packet, entry.trace)
            self._install_emc(key, entry.trace, result, epoch, entry.versions)
            return result
        return self._record(switch, packet, key)

    # -- recording --------------------------------------------------------
    def _record(self, switch, packet: Packet, key):
        global _RECORDER
        self.misses += 1
        rec = Recorder(packet)
        _RECORDER = rec
        try:
            result = switch._process_packet(packet, None, rec)
        finally:
            _RECORDER = None
        epoch = EPOCH.n
        versions = tuple(rec.versions.items())
        if rec.dead:
            if rec.cond_masks or rec.presence or rec.absent:
                self._install_megaflow(rec, None, epoch, versions)
            return result
        trace = FlowTrace(tuple(rec.passes), rec.stateful, frozenset(rec.written))
        self._install_megaflow(rec, trace, epoch, versions)
        self._install_emc(key, trace, result, epoch, versions)
        return result

    def _install_megaflow(self, rec: Recorder, trace, epoch, versions) -> None:
        pres_sig = tuple(sorted(rec.presence))
        absent_sig = tuple(sorted(rec.absent))
        mask_sig = tuple(sorted(rec.cond_masks.items()))
        sig = (pres_sig, absent_sig, mask_sig)
        key = (
            tuple(rec.presence[h] for h in pres_sig),
            tuple(rec.input_values[f] & m for f, m in mask_sig),
        )
        table = self.subtables.get(sig)
        if table is None:
            table = self.subtables[sig] = {}
        if key not in table:
            if self._megaflow_count >= self.megaflow_capacity:
                self._evict_megaflow()
            self._megaflow_count += 1
        table[key] = _MegaflowEntry(trace, epoch, versions)

    def _evict_megaflow(self) -> None:
        for table in self.subtables.values():
            if table:
                table.pop(next(iter(table)))
                self._megaflow_count -= 1
                return

    def _install_emc(self, key, trace: FlowTrace, result, epoch, versions) -> None:
        emc = self.emc
        if key not in emc and len(emc) >= self.emc_capacity:
            emc.pop(next(iter(emc)))
        template = None
        if not trace.stateful and result is not None:
            template = _build_template(trace, result)
        emc[key] = _EmcEntry(trace, template, epoch, versions)

    # -- matching ---------------------------------------------------------
    def _megaflow_lookup(self, packet: Packet, epoch):
        headers = packet.headers
        for sig, table in self.subtables.items():
            if not table:
                continue
            pres_sig, absent_sig, mask_sig = sig
            if any(_read_input(packet, n) is not None for n in absent_sig):
                continue
            key = self._masked_key(headers, packet, pres_sig, mask_sig)
            if key is None:
                continue
            entry = table.get(key)
            if entry is None:
                continue
            if entry.epoch != epoch and not entry.revalidate(epoch):
                del table[key]
                self._megaflow_count -= 1
                self.invalidations += 1
                continue
            return entry
        return None

    @staticmethod
    def _masked_key(headers, packet, pres_sig, mask_sig):
        values = []
        for name, mask in mask_sig:
            value = _read_input(packet, name)
            if value is None:
                return None
            values.append(value & mask)
        return (
            tuple(header in headers for header in pres_sig),
            tuple(values),
        )

    # -- replay -----------------------------------------------------------
    def _replay(self, switch, packet: Packet, trace: FlowTrace):
        """Re-run the recorded op sequence — pure header rewrites from the
        compiled closures, stateful steps live against the register
        arrays — mirroring the uncached loop structure exactly."""
        switch.packets_in += 1
        tm = switch.tm
        current = packet
        carried = None
        recirculations = 0
        for rec in trace.passes:
            switch.pipeline_passes += 1
            phv = switch._acquire_phv(current)
            for header in rec.headers:
                phv.load_header(header)
            phv.set("ud.parse_bitmap", rec.bitmap)
            if carried is not None:
                for name, value in carried.items():
                    phv.set(name, value)
            bridge_pairs = switch._bridge_slot_pairs(phv.cl)
            for op, stage in rec.ingress_ops:
                op(phv, stage)
            for table, entry in rec.ingress_lookups:
                table.lookups += 1
                if entry is not None:
                    table.hits += 1
                    entry.hits += 1
            will_recirculate = bool(phv.get("ud.recirc_flag"))
            if not will_recirculate:
                verdict, port = tm.decide(phv)
                if verdict is Verdict.DROP:
                    slots = phv.slots
                    bridge = {name: slots[slot] for name, slot in bridge_pairs}
                    bridge["meta.egress_port"] = slots[phv.cl.slot_egress]
                    out = phv.deparse()
                    switch._release_phv(phv)
                    return SwitchResult(
                        verdict, None, out, recirculations, (), bridge
                    )
            for op, stage in rec.egress_ops:
                op(phv, stage)
            for table, entry in rec.egress_lookups:
                table.lookups += 1
                if entry is not None:
                    table.hits += 1
                    entry.hits += 1
            if will_recirculate:
                recirculations += 1
                slots = phv.slots
                carried = {name: slots[slot] for name, slot in bridge_pairs}
                carried["ud.recirc_count"] = recirculations
                carried["meta.egress_port"] = phv.get("meta.egress_port")
                current = phv.deparse()
                switch._release_phv(phv)
                current.ingress_port = RECIRC_PORT
                continue
            ports: tuple = ()
            if verdict is Verdict.MULTICAST:
                ports = tm.multicast_groups[phv.get("ud.mcast_grp")]
            slots = phv.slots
            bridge = {name: slots[slot] for name, slot in bridge_pairs}
            bridge["meta.egress_port"] = slots[phv.cl.slot_egress]
            out = phv.deparse()
            switch._release_phv(phv)
            return SwitchResult(verdict, port, out, recirculations, ports, bridge)
        raise AssertionError("recorded trace ended without a final pass")

    def _replay_template(self, switch, packet: Packet, t: _Template):
        switch.packets_in += 1
        switch.pipeline_passes += t.passes
        for header, fname, value in t.header_writes:
            packet.headers[header][fname] = value
        tm = switch.tm
        setattr(tm, t.tm_attr, getattr(tm, t.tm_attr) + 1)
        if self._batching:
            pending = self._pending_templates
            acc = pending.get(id(t))
            if acc is None:
                pending[id(t)] = [t, 1]
            else:
                acc[1] += 1
        else:
            for table, lookups, hits in t.table_counts:
                table.lookups += lookups
                table.hits += hits
            for entry, hits in t.entry_counts:
                entry.hits += hits
        return SwitchResult(
            t.verdict,
            t.egress_port,
            packet,
            t.recirculations,
            t.egress_ports,
            dict(t.bridge),
        )


# Bottom import, mirroring pipeline.py's bottom `from . import flowcache`:
# by the time either module's bottom runs, the other's names exist, and
# the replay hot paths get plain module globals instead of per-call
# imports.
from .pipeline import RECIRC_PORT, SwitchResult, Verdict  # noqa: E402
