"""Trace-to-source codegen: compile pipeline traversals to Python functions.

The switch's one fast path, in front of the reference interpreter.  The
interpreter walks every packet through per-stage/per-table/per-action
closures.  This module instead *emits an actual Python function* per
wire-header composition — textual source + ``compile()`` — that inlines
the parser state machine, the pre-indexed match candidates of every
table, and the compiled VLIW action bodies into straight-line code with
early exits.  A packet then pays one dict lookup and one function call
instead of the full closure dispatch; whatever the generator refuses
(the fallback taxonomy below) walks the interpreter.

Specialization levers:

* **composition keying** — the cache key is ``tuple(packet.headers)``;
  header presence checks inside the parser fold away, and match keys on
  fields of headers the wire cannot carry prune their entries entirely;
* **program-ID folding** — ``ud.program_id`` is written exactly once (by
  the initialization block; ``MODIFY`` targeting it falls back), so the
  generated init chain dispatches into a per-program body in which every
  ``ud.program_id`` key test is folded at codegen time and each RPB's
  candidate pool is pre-narrowed to that program's index bucket;
* **constant folding** — slots that provably hold their template value at
  a given point (branch id before the first ``set_branch``-capable table,
  recirc count outside recirculation loops, forwarding flags no candidate
  action writes) fold their key tests; the traffic-manager decide chain
  only materializes branches for verdict flags some candidate can set.

Exactness contract: a generated function is bit-identical to the
interpreter — verdicts, egress ports, recirculation passes, bridge state,
deparsed headers, register-array contents and access counters, and every
table/entry lookup/hit counter.  Stateful SALU and hash ops execute live
against the register arrays, and register-value-steered matching
(BRANCH entries on har/sar/mar) is re-evaluated per packet, so neither
needs invalidation.  ``execute_action`` /
``lookup_reference_entry`` remain the oracle; the hypothesis churn suite
in tests/property/test_codegen_equivalence.py pins the contract.

Invalidation is scoped by the dependency model of
:mod:`repro.rmt.dependency`.  While emitting, every candidate pool the
generator reads records its versions: an RPB (or recirculation) apply
pre-narrowed to one program's bucket depends on that bucket and the
table's unindexed pool only, so a deploy, revoke or ``add_case`` for
another program leaves the function alone.  The init chain depends on
the shadow of each filter entry it tests, up to its terminal entry — the
first one that matches every packet of the composition — and on nothing
after it; a filter entry appended behind the terminal can never win for
this composition, which is what keeps churn from recompiling functions.
Each dispatch additionally pins the compiled PHV layout and both
pipelines' compiled unit programs by identity, so a mid-batch
``add_case``/``remove_case``/``write_mem`` can never execute a stale
function.  Register-array *contents* need no invalidation — the
generated code reads and writes the live arrays.

Fallback taxonomy (reasons reported via :meth:`CodegenCache.stats`):

====================  ====================================================
``tracing``           execution tracing is observing the real traversal
``parser-unfrozen``   the switch is still being provisioned
``guard``             per-packet header field-set mismatch (slow-path PHV)
``init-shape``        no/misplaced initialization block
``init-action``       init default action is not ``set_program``
``recirc-action``     recirc-table action is not ``recirculate``
``unit:<cls>``        a pipeline unit outside the known block set
``action:<name>``     an action outside the closed atomic-operation set
``action-data:<a>``   malformed action data (bad register name)
``modify:<field>``    MODIFY targeting a specialization-bearing field
``key:<field>``       match key on a field outside the slot layout
``field:<name>``      action operand field outside the slot layout
``header:<name>``     wire header with no registered field layout
``parse-loop``        cyclic parse machine
``parse-select``      select on a field that may be unparsed
``parse-shape``       no start state / dangling transition target
====================  ====================================================

Everything in the table simply routes the packet to the interpreter,
which preserves the reference semantics (including its error behaviour).
"""

from __future__ import annotations

import sys

from .dependency import EPOCH, Dependent
from .table import MatchActionTable, _entry_order

_M32 = 0xFFFFFFFF

#: MODIFY targets that would break codegen specialization: the program id
#: (bodies are specialized per program), and the recirculation fields
#: (pass structure is decided at codegen time).
_BANNED_MODIFY = frozenset(
    {"ud.program_id", "ud.recirc_count", "ud.recirc_flag"}
)

_REG_FIELDS = {"har": "ud.har", "sar": "ud.sar", "mar": "ud.mar"}

_ALU_EXPR = {
    "ADD": "(s[{a}] + s[{b}]) & 4294967295",
    "AND": "s[{a}] & s[{b}]",
    "OR": "s[{a}] | s[{b}]",
    "XOR": "s[{a}] ^ s[{b}]",
    "MAX": "s[{a}] if s[{a}] >= s[{b}] else s[{b}]",
    "MIN": "s[{a}] if s[{a}] <= s[{b}] else s[{b}]",
}

_MEMORY_OPS = frozenset(
    {"MEMADD", "MEMSUB", "MEMAND", "MEMOR", "MEMREAD", "MEMWRITE", "MEMMAX"}
)

#: sentinel distinguishing "entry can never match" from "no conditions"
_DEAD = object()


class _Unsupported(Exception):
    """Raised during emission when a construct cannot be compiled."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Entry(Dependent):
    """One cache slot: a compiled function (or a negative record) plus the
    table versions and identity stamps that make staleness detectable at
    dispatch time."""

    __slots__ = ("fn", "reason", "cl", "ing", "eg", "source", "coalesce")


class CodegenCache:
    """Per-switch cache of generated per-composition functions."""

    def __init__(self, enabled: bool = True, capacity: int = 512):
        self.enabled = enabled
        self.capacity = capacity
        #: composition tuple -> _Entry (negative entries included, so an
        #: unsupported composition is not re-analyzed per packet)
        self.cache: dict[tuple, _Entry] = {}
        self.compiled = 0
        self.hits = 0
        self.invalidations = 0
        self.fallbacks: dict[str, int] = {}

    def flush(self) -> None:
        self._flush_counters()
        self.cache.clear()

    # -- coalesced counters ------------------------------------------------
    # Straight-line bodies that provably cannot raise defer their
    # constant per-call counter bumps (table lookups, unconditional
    # hits, TM verdicts) into a per-body call cell, applied in bulk at
    # batch end (nothing can observe counters mid-batch).
    def end_batch(self) -> None:
        self._flush_counters()

    def _flush_counters(self) -> None:
        for ent in self.cache.values():
            if ent.coalesce:
                self._flush_entry(ent)

    @staticmethod
    def _flush_entry(ent: _Entry) -> None:
        for cell, targets in ent.coalesce:
            n = cell[0]
            if n:
                cell[0] = 0
                for obj, attr, k in targets:
                    setattr(obj, attr, getattr(obj, attr) + k * n)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "functions": sum(
                1 for ent in self.cache.values() if ent.fn is not None
            ),
            "compiled": self.compiled,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "fallbacks": dict(self.fallbacks),
        }

    # -- dispatch ----------------------------------------------------------
    def _fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        return None

    def run(self, switch, packet):
        """Serve one packet, or return ``None`` to defer to the interpreter."""
        tracing = sys.modules.get("repro.dataplane.tracing")
        if tracing is not None and tracing._ACTIVE is not None:
            return self._fallback("tracing")
        if not switch.parse_machine.frozen:
            # Provisioning still mutates the parser; freezing bumps no
            # table version, so this must not be negative-cached.
            return self._fallback("parser-unfrozen")
        key = tuple(packet.headers)
        ent = self.cache.get(key)
        epoch = EPOCH.n
        if (
            ent is None
            or ent.cl is not switch.layout.compiled()
            or ent.ing is not switch.ingress._compiled
            or ent.eg is not switch.egress._compiled
            or (ent.epoch != epoch and not ent.revalidate(epoch))
        ):
            ent = self._compile(switch, key, ent)
        if ent.fn is None:
            return self._fallback(ent.reason)
        result = ent.fn(switch, packet)
        if result is None:
            return self._fallback("guard")
        self.hits += 1
        if ent.coalesce and not switch._pooling:
            # outside a batch the caller can observe counters right away
            self._flush_entry(ent)
        return result

    # -- compilation -------------------------------------------------------
    def _compile(self, switch, key: tuple, stale: _Entry | None) -> _Entry:
        if stale is not None:
            self.invalidations += 1
            if stale.coalesce:
                # pending deltas reference the old tables: settle them
                # before the entry is dropped from the dict
                self._flush_entry(stale)
        if len(self.cache) >= self.capacity:
            self._flush_counters()
            self.cache.clear()
        ent = _Entry()
        ent.epoch = EPOCH.n
        ent.cl = switch.layout.compiled()
        ent.ing = switch.ingress.compiled_units()
        ent.eg = switch.egress.compiled_units()
        ent.coalesce = ()
        emitter = _Emitter(self, switch, key, ent.cl)
        try:
            source, namespace = emitter.emit()
            code = compile(source, f"<codegen:{'/'.join(key) or 'bare'}>", "exec")
            exec(code, namespace)
            ent.fn = namespace["_run"]
            ent.reason = None
            ent.source = source
            ent.coalesce = tuple(emitter.coalesce)
            self.compiled += 1
        except _Unsupported as exc:
            # versions read before the refusal cover what refused: the
            # offending entry's pool (or filter entry) was recorded first
            ent.fn = None
            ent.reason = exc.reason
            ent.source = None
        ent.versions = tuple(emitter.versions.items())
        self.cache[key] = ent
        return ent


class _Emitter:
    """Builds the generated module source for one header composition."""

    def __init__(self, cache: CodegenCache, switch, key: tuple, cl):
        from ..dataplane import constants as dp
        from ..dataplane.blocks import InitBlock, RecirculationBlock
        from ..dataplane.rpb import RPB, _hash_unit
        from .pipeline import (
            CPU_PORT,
            RECIRC_PORT,
            RecirculationLimitError,
            SwitchResult,
            UnknownMulticastGroupError,
            Verdict,
        )

        self.cache = cache
        self.switch = switch
        self.key = key
        self.cl = cl
        self.slot_of = cl.slot_of
        self.dp = dp
        self.InitBlock = InitBlock
        self.RecirculationBlock = RecirculationBlock
        self.RPB = RPB
        self._hash_unit = _hash_unit
        self.CPU_PORT = CPU_PORT
        self.RECIRC_PORT = RECIRC_PORT

        tm = switch.tm
        #: version -> value seen, for every candidate pool read (the
        #: function's dependencies, see the module docstring)
        self.versions: dict = {}
        self.ns: dict = {
            "_T": cl.template,
            "_R": SwitchResult,
            "_VD": Verdict.DROP,
            "_VC": Verdict.TO_CPU,
            "_VR": Verdict.REFLECT,
            "_VM": Verdict.MULTICAST,
            "_VF": Verdict.FORWARD,
            "_RLE": RecirculationLimitError,
            "_UMG": UnknownMulticastGroupError,
            "_tm": tm,
            "_mg": tm.multicast_groups,
        }
        self._bound: dict = {}
        self.chunks: list[str] = []
        self._need_ft5 = False
        self._vh_leaves: dict = {}
        self._bodies: dict[int, str] = {}
        self._body_chunks: list[str] = []
        #: per-body (call-count cell, merged (obj, attr, k) targets)
        self.coalesce: list = []
        #: active divert list for constant counter bumps (None = inline)
        self._co_targets: list | None = None
        #: hdr slots any action may write — everything else skips the
        #: deparse write-back (the loaded value is already in the header)
        self.hdr_written: set[int] = set()
        #: a zero-size register array raises ZeroDivisionError per packet,
        #: which disqualifies the body from counter coalescing
        self._saw_zero_mem = False

        so = self.slot_of
        self.s_bm = so["ud.parse_bitmap"]
        self.s_rcf = so["ud.recirc_flag"]
        self.s_rc = so["ud.recirc_count"]
        self.s_drop = so["ud.drop_ctl"]
        self.s_cpu = so["ud.to_cpu"]
        self.s_refl = so["ud.reflect"]
        self.s_mc = so["ud.mcast_grp"]
        self.s_pid = so.get("ud.program_id")
        self.s_bid = so.get("ud.branch_id")
        self.s_eg = cl.slot_egress
        self.s_in = cl.slot_ingress
        self.intrinsics = {
            cl.slot_ingress,
            cl.slot_qdepth,
            cl.slot_pktlen,
            cl.slot_ts,
        }
        #: slots provably at their (non-None) template value before parse;
        #: the parse bitmap is excluded (written by _parse, leaf-dependent,
        #: and bridged across recirculation passes like any ud field)
        self.known0 = {
            i: v
            for i, v in enumerate(cl.template)
            if v is not None and i not in self.intrinsics and i != self.s_bm
        }
        self.bridge_pairs = switch._bridge_slot_pairs(cl)

    # -- namespace helpers -------------------------------------------------
    def bind(self, obj, prefix: str) -> str:
        handle = (prefix, id(obj))
        name = self._bound.get(handle)
        if name is None:
            name = f"_{prefix}{len(self._bound)}"
            self._bound[handle] = name
            self.ns[name] = obj
        return name

    def is_hdr_slot(self, slot: int) -> bool:
        return self.cl.template[slot] is None

    # -- top level ---------------------------------------------------------
    def emit(self) -> tuple[str, dict]:
        ing_units = self.switch.ingress.compiled_units()
        eg_units = self.switch.egress.compiled_units()
        ing_pairs = [(apply.__self__, stage) for apply, stage in ing_units]
        eg_pairs = [(apply.__self__, stage) for apply, stage in eg_units]
        if not ing_pairs or not isinstance(ing_pairs[0][0], self.InitBlock):
            raise _Unsupported("init-shape")
        for unit, _stage in ing_pairs[1:] + eg_pairs:
            if isinstance(unit, self.InitBlock):
                raise _Unsupported("init-shape")
            if not isinstance(unit, (self.RPB, self.RecirculationBlock)):
                raise _Unsupported(f"unit:{type(unit).__name__}")
        self.init_table = ing_pairs[0][0].table
        self.ing_pairs = ing_pairs[1:]
        self.eg_pairs = eg_pairs

        self._emit_parse()
        self._emit_run()
        # deparse last: only after every body is emitted do we know which
        # hdr slots can be written (and need the write-back) at all
        self._emit_deparse()
        if self._need_ft5:
            self._emit_ft5()
        source = "\n".join(self.chunks + self._body_chunks) + "\n"
        return source, self.ns

    # -- parser ------------------------------------------------------------
    def _emit_parse(self) -> None:
        machine = self.switch.parse_machine
        if machine.start is None:
            raise _Unsupported("parse-shape")
        composition = set(self.key)
        cl = self.cl
        lines = ["def _parse(s, hs):"]
        self.loadable: set[str] = set()
        bm_mask = cl.masks[self.s_bm]
        leaves: list[tuple[int, tuple]] = []

        def leaf(bitmap: int, loaded: tuple, ind: str) -> None:
            leaves.append((bitmap & bm_mask, loaded))
            sig = (bitmap, loaded)
            name = self._vh_leaves.get(sig)
            if name is None:
                vh = tuple(
                    (header, tuple(cl.header_slots[header])) for header in loaded
                )
                name = f"_vh{len(self._vh_leaves)}"
                self._vh_leaves[sig] = name
                self.ns[name] = vh
            lines.append(f"{ind}s[{self.s_bm}] = {bitmap & bm_mask}")
            lines.append(f"{ind}return {name}")

        def walk(state_name: str, bitmap: int, loaded: tuple, path: frozenset, ind: str) -> None:
            if state_name == machine.ACCEPT:
                leaf(bitmap, loaded, ind)
                return
            if state_name in path:
                raise _Unsupported("parse-loop")
            state = machine.states.get(state_name)
            if state is None:
                raise _Unsupported("parse-shape")
            path = path | {state_name}
            header = state.header
            if header is not None:
                if header not in composition:
                    # the wire doesn't carry it: hardware parser stops here
                    leaf(bitmap, loaded, ind)
                    return
                slots = cl.header_slots.get(header)
                if slots is None:
                    raise _Unsupported(f"header:{header}")
                self.loadable.add(header)
                lines.append(f"{ind}_x = hs[{header!r}]")
                for fname, index in slots:
                    lines.append(f"{ind}s[{index}] = _x[{fname!r}]")
                loaded = loaded + (header,)
                bit = machine.bitmap_bits.get(header)
                if bit is not None:
                    bitmap |= 1 << bit
            if state.select is None:
                leaf(bitmap, loaded, ind)
                return
            slot = self.slot_of.get(state.select)
            if slot is None:
                raise _Unsupported("parse-select")
            if self.is_hdr_slot(slot):
                sel_header = state.select.split(".", 2)[1]
                if sel_header not in loaded:
                    # the interpreter would raise KeyError per packet here
                    raise _Unsupported("parse-select")
            lines.append(f"{ind}_k = s[{slot}]")
            first = True
            for value, target in state.transitions.items():
                if value is None:
                    continue
                kw = "if" if first else "elif"
                first = False
                lines.append(f"{ind}{kw} _k == {value!r}:")
                walk(target, bitmap, loaded, path, ind + "    ")
            default = state.transitions.get(None, machine.ACCEPT)
            if first:
                walk(default, bitmap, loaded, path, ind)
            else:
                lines.append(f"{ind}else:")
                walk(default, bitmap, loaded, path, ind + "    ")

        walk(machine.start, 0, (), frozenset(), "    ")
        self.chunks.append("\n".join(lines))
        #: parse facts, true right after ``_parse`` whichever leaf it took:
        #: the bitmap values it can leave, and the presence tests on
        #: headers every leaf loads (a loaded field is not None unless
        #: the packet itself carries a None value)
        self.leaf_bitmaps = {bitmap for bitmap, _loaded in leaves}
        always = set.intersection(*(set(loaded) for _bitmap, loaded in leaves))
        self.always_present = {
            f"s[{index}] is not None"
            for header in always
            for _fname, index in cl.header_slots[header]
        }
        #: hdr slots that can never be populated for this composition
        self.never = {
            index
            for header, slots in cl.header_slots.items()
            if header not in self.loadable
            for _fname, index in slots
        }

    def _emit_deparse(self) -> None:
        # narrow the per-leaf field lists to slots some action may write:
        # an unwritten slot still holds the value loaded from the very
        # dict the write-back would target, so skipping it is identical
        written = self.hdr_written
        for name in self._vh_leaves.values():
            vh = self.ns[name]
            self.ns[name] = tuple(
                (header, kept)
                for header, pairs in vh
                if (kept := tuple(p for p in pairs if p[1] in written))
            )
        if not written:
            self.chunks.append("def _deparse(s, vh, hs):\n    pass")
            return
        self.chunks.append(
            "def _deparse(s, vh, hs):\n"
            "    for _h, _fields in vh:\n"
            "        _t = hs[_h]\n"
            "        for _f, _i in _fields:\n"
            "            _v = s[_i]\n"
            "            if _v is not None:\n"
            "                _t[_f] = _v"
        )

    def _emit_ft5(self) -> None:
        so = self.slot_of

        def present(name: str):
            slot = so.get(name)
            if slot is None or slot in self.never:
                return None
            return slot

        lines = ["def _ft5(s):"]
        t_sp, t_dp = present("hdr.tcp.src_port"), present("hdr.tcp.dst_port")
        u_sp, u_dp = present("hdr.udp.src_port"), present("hdr.udp.dst_port")
        if t_sp is not None and t_dp is None:
            raise _Unsupported("field:hdr.tcp.dst_port")
        if u_sp is not None and u_dp is None:
            raise _Unsupported("field:hdr.udp.dst_port")
        lines.append("    _sp = _dp = 0")
        branch = "if"
        if t_sp is not None:
            lines.append(f"    {branch} s[{t_sp}] is not None:")
            lines.append(f"        _sp = s[{t_sp}]; _dp = s[{t_dp}]")
            branch = "elif"
        if u_sp is not None:
            lines.append(f"    {branch} s[{u_sp}] is not None:")
            lines.append(f"        _sp = s[{u_sp}]; _dp = s[{u_dp}]")
        parts = []
        for name in ("hdr.ipv4.src", "hdr.ipv4.dst", "hdr.ipv4.proto"):
            slot = present(name)
            if slot is None:
                parts.append("0")
            else:
                parts.append(f"(s[{slot}] if s[{slot}] is not None else 0)")
        lines.append(f"    return ({parts[0]}, {parts[1]}, {parts[2]}, _sp, _dp)")
        self.chunks.append("\n".join(lines))

    # -- match folding -----------------------------------------------------
    def _fold_keys(self, entry, working: dict, after_parse: bool = False):
        """Fold one entry's compiled key triples against static facts.

        Returns ``_DEAD`` if the entry can never match here, else the list
        of runtime condition strings (empty = always matches).  With
        ``after_parse`` (the init chain, which runs before any action can
        write the bitmap) a parse-bitmap key folds when every parse leaf
        agrees on it."""
        conds: list[str] = []
        cl = self.cl
        for fname, value, mask in entry.compiled_keys:
            slot = self.slot_of.get(fname)
            if slot is None:
                raise _Unsupported(f"key:{fname}")
            if slot in self.never:
                return _DEAD  # absent field fails even a mask-0 key
            if slot in working:
                if (working[slot] & mask) != value:
                    return _DEAD
                continue
            if after_parse and slot == self.s_bm:
                hits = {(bitmap & mask) == value for bitmap in self.leaf_bitmaps}
                if hits == {False}:
                    return _DEAD
                if hits == {True}:
                    continue
            if self.is_hdr_slot(slot):
                if mask == 0:
                    conds.append(f"s[{slot}] is not None")
                else:
                    conds.append(
                        f"s[{slot}] is not None and (s[{slot}] & {mask}) == {value}"
                    )
            else:
                if mask == 0:
                    continue  # (pv & 0) == 0 on an always-present slot
                name = cl.slot_names[slot]
                if mask == cl.masks[slot] and name.startswith("ud."):
                    # ud slots are stored masked, so a full-mask test is
                    # plain equality; intrinsic meta slots are seeded raw
                    # and keep the masked compare.
                    conds.append(f"s[{slot}] == {value}")
                else:
                    conds.append(f"(s[{slot}] & {mask}) == {value}")
        return conds

    def _candidates(self, table: MatchActionTable, working: dict) -> list:
        """The (priority, handle)-ordered candidate list, pre-narrowed to
        the index bucket when the index slot's value is a static fact.
        Records the versions of the pool read."""
        key = "*"
        if table._index_field is not None:
            slot = self.slot_of.get(table._index_field)
            if slot is not None and slot in working:
                key = working[slot] & table._index_mask
        self.versions.update(table.pool_versions(key))
        if key != "*":
            bucket = [e for e in table._index.get(key, ()) if e.live]
            unindexed = [e for e in table._unindexed if e.live]
            return sorted(bucket + unindexed, key=_entry_order)
        return sorted(table._entries.values(), key=_entry_order)

    # -- actions -----------------------------------------------------------
    def _reg_slot(self, action: str, data: dict, field: str = "reg") -> int:
        try:
            name = _REG_FIELDS[data[field]]
        except KeyError:
            raise _Unsupported(f"action-data:{action}")
        return self.slot_of[name]

    def _action_written(self, action: str, data: dict) -> list[int]:
        """Slots an action may write (for decide pruning / fact kills)."""
        so, cl = self.slot_of, self.cl
        if action == "set_branch":
            return [self.s_bid] if self.s_bid is not None else []
        if action in ("EXTRACT", "LOADI", "RESTORE"):
            return [self._reg_slot(action, data)]
        if action in _ALU_EXPR:
            return [self._reg_slot(action, data, "reg0")]
        if action == "MODIFY":
            fname = data["field"]
            if fname in _BANNED_MODIFY:
                raise _Unsupported(f"modify:{fname}")
            slot = so.get(fname)
            return [] if slot is None else [slot]
        if action in ("HASH", "HASH_5_TUPLE"):
            return [so["ud.har"]]
        if action in ("HASH_MEM", "HASH_5_TUPLE_MEM"):
            return [so["ud.mar"]]
        if action == "OFFSET":
            return [so["ud.phys_addr"]]
        if action in _MEMORY_OPS:
            return [] if action == "MEMWRITE" else [so["ud.sar"]]
        if action == "FORWARD":
            return [self.s_eg]
        if action == "MULTICAST":
            return [self.s_mc]
        if action == "DROP":
            return [self.s_drop]
        if action == "RETURN":
            return [self.s_refl]
        if action == "REPORT":
            return [self.s_cpu]
        if action == "BACKUP":
            return [so["ud.reg_backup"]]
        if action == "recirculate":
            return [self.s_rcf]
        raise _Unsupported(f"action:{action}")

    def _action_lines(self, unit, action: str, data: dict) -> list[str]:
        """Unindented statements replicating ``execute_action`` exactly."""
        so, cl = self.slot_of, self.cl
        if action == "set_branch":
            if self.s_bid is None:
                raise _Unsupported("field:ud.branch_id")
            return [f"s[{self.s_bid}] = {data['branch_id'] & cl.masks[self.s_bid]}"]
        if action == "EXTRACT":
            reg = self._reg_slot(action, data)
            slot = so.get(data["field"])
            if slot is None or slot in self.never:
                return [f"s[{reg}] = 0"]
            if self.is_hdr_slot(slot):
                return [
                    "_x = s[%d]" % slot,
                    f"s[{reg}] = (_x & 4294967295) if _x is not None else 0",
                ]
            return [f"s[{reg}] = s[{slot}] & 4294967295"]
        if action == "MODIFY":
            fname = data["field"]
            if fname in _BANNED_MODIFY:
                raise _Unsupported(f"modify:{fname}")
            reg = self._reg_slot(action, data)
            slot = so.get(fname)
            if slot is None or slot in self.never:
                return []  # writing an unparsed/unknown field is a no-op
            mask = cl.masks[slot]
            rhs = f"s[{reg}]" if mask >= _M32 else f"s[{reg}] & {mask}"
            if self.is_hdr_slot(slot):
                self.hdr_written.add(slot)
                return [f"if s[{slot}] is not None:", f"    s[{slot}] = {rhs}"]
            return [f"s[{slot}] = {rhs}"]
        if action in ("HASH", "HASH_5_TUPLE", "HASH_MEM", "HASH_5_TUPLE_MEM"):
            unit_var = self.bind(self._hash_unit(data["algorithm"]), "h")
            if action in ("HASH_5_TUPLE", "HASH_5_TUPLE_MEM"):
                self._need_ft5 = True
                digest = f"{unit_var}.hash_five_tuple(_ft5(s))"
            else:
                digest = f"{unit_var}.hash_values((s[{so['ud.har']}],))"
            if action in ("HASH", "HASH_5_TUPLE"):
                return [f"s[{so['ud.har']}] = {digest} & 4294967295"]
            return [f"s[{so['ud.mar']}] = {digest} & {data['mask'] & _M32}"]
        if action == "OFFSET":
            return [
                f"s[{so['ud.phys_addr']}] = "
                f"(s[{so['ud.mar']}] + {data['base']}) & 4294967295"
            ]
        if action in _MEMORY_OPS:
            return self._memory_lines(unit, action)
        if action == "LOADI":
            reg = self._reg_slot(action, data)
            return [f"s[{reg}] = {data['value'] & _M32}"]
        if action in _ALU_EXPR:
            a = self._reg_slot(action, data, "reg0")
            b = self._reg_slot(action, data, "reg1")
            return [f"s[{a}] = " + _ALU_EXPR[action].format(a=a, b=b)]
        if action == "FORWARD":
            return [f"s[{self.s_eg}] = {data['port'] & cl.masks[self.s_eg]}"]
        if action == "MULTICAST":
            return [f"s[{self.s_mc}] = {data['group'] & cl.masks[self.s_mc]}"]
        if action == "DROP":
            return [f"s[{self.s_drop}] = 1"]
        if action == "RETURN":
            return [f"s[{self.s_refl}] = 1"]
        if action == "REPORT":
            return [f"s[{self.s_cpu}] = 1"]
        if action == "BACKUP":
            reg = self._reg_slot(action, data)
            return [f"s[{so['ud.reg_backup']}] = s[{reg}]"]
        if action == "RESTORE":
            reg = self._reg_slot(action, data)
            return [f"s[{reg}] = s[{so['ud.reg_backup']}]"]
        if action == "recirculate":
            return [f"s[{self.s_rcf}] = 1"]
        raise _Unsupported(f"action:{action}")

    def _memory_lines(self, rpb, action: str) -> list[str]:
        stage = self._stage_of[id(rpb)]
        array = stage.register_arrays.get(rpb.memory_name)
        if array is None:
            raise _Unsupported("memory")
        if array.size == 0:
            self._saw_zero_mem = True
        avar = self.bind(array, "m")
        dvar = self.bind(array._data, "d")
        sar = self.slot_of["ud.sar"]
        pa = self.slot_of["ud.phys_addr"]
        wm = (1 << array.width) - 1
        operand = f"s[{sar}]" if wm >= _M32 else f"s[{sar}] & {wm}"
        out = "_o" if wm <= _M32 else f"_o & {_M32}"
        # address first (a zero-size array raises before the access count,
        # as RegisterArray.execute does), then the access counter, then the
        # SALU microprogram inlined per op
        lines = [f"_x = s[{pa}] % {array.size}", f"{avar}.accesses += 1"]
        if action == "MEMADD":
            lines += [
                f"_o = ({dvar}[_x] + {operand}) & {wm}",
                f"{dvar}[_x] = _o",
                f"s[{sar}] = {out}",
            ]
        elif action == "MEMSUB":
            lines += [
                f"_o = ({dvar}[_x] - {operand}) & {wm}",
                f"{dvar}[_x] = _o",
                f"s[{sar}] = {out}",
            ]
        elif action == "MEMAND":
            lines += [
                f"_o = {dvar}[_x] & s[{sar}]",
                f"{dvar}[_x] = _o",
                f"s[{sar}] = {out}",
            ]
        elif action == "MEMOR":
            store = f"(_o | {operand})" if wm >= _M32 else f"(_o | {operand}) & {wm}"
            lines += [
                f"_o = {dvar}[_x]",
                f"{dvar}[_x] = {store}",
                f"s[{sar}] = {out}",  # MEMOR returns the *old* value
            ]
        elif action == "MEMREAD":
            lines += [f"_o = {dvar}[_x]", f"s[{sar}] = {out}"]
        elif action == "MEMWRITE":
            lines += [f"{dvar}[_x] = {operand}"]
        elif action == "MEMMAX":
            lines += [
                f"_o = max({dvar}[_x], {operand})",
                f"{dvar}[_x] = _o",
                f"s[{sar}] = {out}",
            ]
        return lines

    # -- table applies -----------------------------------------------------
    def _emit_apply(self, unit, lines: list[str], ind: str, working: dict) -> None:
        """Emit one RPB/recirc-block table apply with candidate folding."""
        is_recirc = isinstance(unit, self.RecirculationBlock)
        table = unit.table
        tvar = self.bind(table, "t")
        co = self._co_targets
        if co is not None:
            co.append((table, "lookups", 1))
        else:
            lines.append(f"{ind}{tvar}.lookups += 1")
        branches = []
        for entry in self._candidates(table, working):
            conds = self._fold_keys(entry, working)
            if conds is _DEAD:
                continue
            if is_recirc and entry.action != "recirculate":
                raise _Unsupported("recirc-action")
            branches.append((conds, entry))
            if not conds:
                break  # unconditional: later candidates are unreachable
        terminal = bool(branches) and not branches[-1][0]
        default = table.default_action
        if is_recirc and default is not None and default != "recirculate":
            raise _Unsupported("recirc-action")

        def entry_stmts(entry) -> list[str]:
            evar = self.bind(entry, "e")
            return [
                f"{tvar}.hits += 1",
                f"{evar}.hits += 1",
            ] + self._action_lines(unit, entry.action, entry.action_data)

        if not branches:
            if default is not None:
                for stmt in self._action_lines(unit, default, table.default_action_data):
                    lines.append(ind + stmt)
        else:
            for i, (conds, entry) in enumerate(branches):
                if not conds:  # terminal always-match entry
                    if i == 0:
                        if co is not None:
                            # unconditional hit: coalesce the bumps, keep
                            # the action statements inline
                            co.append((table, "hits", 1))
                            co.append((entry, "hits", 1))
                            stmts = self._action_lines(
                                unit, entry.action, entry.action_data
                            )
                        else:
                            stmts = entry_stmts(entry)
                        for stmt in stmts:
                            lines.append(ind + stmt)
                    else:
                        lines.append(f"{ind}else:")
                        for stmt in entry_stmts(entry):
                            lines.append(ind + "    " + stmt)
                    break
                kw = "if" if i == 0 else "elif"
                lines.append(f"{ind}{kw} {' and '.join(conds)}:")
                for stmt in entry_stmts(entry):
                    lines.append(ind + "    " + stmt)
            if not terminal and default is not None:
                lines.append(f"{ind}else:")
                stmts = self._action_lines(unit, default, table.default_action_data)
                if stmts:
                    for stmt in stmts:
                        lines.append(ind + "    " + stmt)
                else:
                    lines.append(ind + "    pass")
        # any outcome may have written these slots: kill the static facts
        for conds, entry in branches:
            for slot in self._action_written(entry.action, entry.action_data):
                working.pop(slot, None)
        if default is not None and not terminal:
            for slot in self._action_written(default, table.default_action_data):
                working.pop(slot, None)

    def _apply_writes(self, unit, facts: dict) -> tuple[set, bool]:
        """Pre-scan: slots any candidate (or default) may write, and
        whether any candidate exists at all.  Validates every action."""
        written: set[int] = set()
        any_candidate = False
        table = unit.table
        is_recirc = isinstance(unit, self.RecirculationBlock)
        for entry in self._candidates(table, facts):
            if self._fold_keys(entry, facts) is _DEAD:
                continue
            if is_recirc and entry.action != "recirculate":
                raise _Unsupported("recirc-action")
            any_candidate = True
            self._action_lines(unit, entry.action, entry.action_data)  # validate
            written.update(self._action_written(entry.action, entry.action_data))
        if table.default_action is not None:
            if is_recirc and table.default_action != "recirculate":
                raise _Unsupported("recirc-action")
            any_candidate = True
            self._action_lines(unit, table.default_action, table.default_action_data)
            written.update(
                self._action_written(table.default_action, table.default_action_data)
            )
        return written, any_candidate

    # -- bodies ------------------------------------------------------------
    def _body_for(self, pid: int) -> str:
        name = self._bodies.get(pid)
        if name is None:
            name = f"_b_{pid}"
            self._bodies[pid] = name
            self._emit_body(pid, name)
        return name

    def _emit_body(self, pid: int, name: str) -> None:
        body_known = dict(self.known0)
        if self.s_pid is not None:
            body_known[self.s_pid] = pid
        if self.s_bid is not None:
            body_known[self.s_bid] = 0

        # pre-scan with the program id as the only durable fact: collect
        # the may-write set and validate every reachable action up front
        scan_facts = (
            {self.s_pid: pid} if self.s_pid is not None else {}
        )
        mw: set[int] = set()
        can_recirc = False
        self._saw_zero_mem = False
        for unit, stage in self.ing_pairs + self.eg_pairs:
            written, any_candidate = self._apply_writes(unit, scan_facts)
            mw.update(written)
            if isinstance(unit, self.RecirculationBlock) and any_candidate:
                can_recirc = True
        if self.s_pid is not None and self.s_pid in mw:
            raise _Unsupported("modify:ud.program_id")

        if can_recirc:
            # facts that survive every pass: never written by any action,
            # bridged back unchanged (or re-zeroed by the template copy)
            facts = {
                s: v
                for s, v in body_known.items()
                if s not in mw and s != self.s_rc
            }
        else:
            facts = {s: v for s, v in body_known.items() if s not in mw}

        # per-packet constant bumps: coalesced into a call-count cell when
        # the body provably cannot raise mid-flight (a raise would leave
        # the interpreter's partial bumps unaccounted), else inline
        lines = [f"def {name}(switch, packet, hs, s, vh):"]
        prologue = [
            f"    {self.bind(self.init_table, 't')}.lookups += 1",
            "    switch.packets_in += 1",
            "    switch.pipeline_passes += 1",
        ]
        if can_recirc:
            eg_name = None
            if self.eg_pairs:
                eg_name = f"_eg_{pid}"
                eg_lines = [f"def {eg_name}(s):"]
                eg_working = dict(facts)
                for unit, stage in self.eg_pairs:
                    self._emit_apply(unit, eg_lines, "    ", eg_working)
                self._body_chunks.append("\n".join(eg_lines))
            lines += prologue
            self._emit_recirc_body(pid, lines, body_known, facts, mw, eg_name)
        else:
            can_coalesce = self.s_mc not in mw and not self._saw_zero_mem
            if can_coalesce:
                targets = [
                    (self.switch, "packets_in", 1),
                    (self.switch, "pipeline_passes", 1),
                    (self.init_table, "lookups", 1),
                ]
                self._co_targets = targets
                cell = [0]
                self.ns[f"_nc{pid}"] = cell
                lines.append(f"    _nc{pid}[0] += 1")
            else:
                lines += prologue
            try:
                self._emit_straight_body(pid, lines, body_known, mw, facts)
            finally:
                self._co_targets = None
            if can_coalesce:
                merged: dict = {}
                for obj, attr, k in targets:
                    mk = (id(obj), attr)
                    if mk in merged:
                        merged[mk][2] += k
                    else:
                        merged[mk] = [obj, attr, k]
                self.coalesce.append(
                    (cell, tuple((o, a, k) for o, a, k in merged.values()))
                )
        self._body_chunks.append("\n".join(lines))

    def _emit_straight_body(self, pid, lines, body_known, mw, eg_facts) -> None:
        working = dict(body_known)
        for unit, stage in self.ing_pairs:
            self._emit_apply(unit, lines, "    ", working)
        self._emit_decide_and_finish(lines, "    ", mw, "0", None, eg_facts)

    def _emit_recirc_body(self, pid, lines, body_known, facts, mw, eg_name) -> None:
        lines.append("    recircs = 0")
        lines.append("    while 1:")
        ind = "        "
        working = dict(facts)
        for unit, stage in self.ing_pairs:
            self._emit_apply(unit, lines, ind, working)
        # recirculation branch: egress still runs, then the bridge carry
        lines.append(f"{ind}if s[{self.s_rcf}]:")
        t = ind + "    "
        if eg_name is not None:
            lines.append(f"{t}{eg_name}(s)")
        lines.append(f"{t}recircs += 1")
        lines.append(f"{t}if recircs > switch.config.max_recirculations:")
        lines.append(
            f"{t}    raise _RLE('packet exceeded %d recirculations'"
            " % switch.config.max_recirculations)"
        )
        # save only the bridge slots that are not static facts (a fact's
        # saved value would be its template zero, restored by the copy)
        carry = [
            (fname, slot)
            for fname, slot in self.bridge_pairs
            if slot not in facts and slot != self.s_rc
        ]
        if carry:
            saves = ", ".join(f"s[{slot}]" for _fname, slot in carry)
            lines.append(f"{t}_c = ({saves}{',' if len(carry) == 1 else ''})")
        lines.append(f"{t}_ep = s[{self.s_eg}]")
        lines.append(f"{t}_deparse(s, vh, hs)")
        lines.append(f"{t}packet.ingress_port = {self.RECIRC_PORT}")
        lines.append(f"{t}switch.pipeline_passes += 1")
        lines.append(f"{t}s = _T.copy()")
        cl = self.cl
        lines.append(f"{t}s[{cl.slot_ingress}] = {self.RECIRC_PORT}")
        lines.append(f"{t}s[{cl.slot_qdepth}] = packet.queue_depth")
        lines.append(f"{t}s[{cl.slot_pktlen}] = packet.size")
        lines.append(f"{t}s[{cl.slot_ts}] = int(packet.ts * 1000000) & 4294967295")
        lines.append(f"{t}vh = _parse(s, hs)")
        if carry:
            targets = ", ".join(f"s[{slot}]" for _fname, slot in carry)
            lines.append(f"{t}{targets}{',' if len(carry) == 1 else ''} = _c")
        if self.s_pid is not None and pid:
            # the program id is a static fact (never carried), but the
            # template copy zeroed it — re-establish the folded constant
            lines.append(f"{t}s[{self.s_pid}] = {pid}")
        rc_mask = cl.masks[self.s_rc]
        lines.append(f"{t}s[{self.s_rc}] = recircs & {rc_mask}")
        lines.append(f"{t}s[{self.s_eg}] = _ep")
        lines.append(f"{t}continue")
        self._emit_decide_and_finish(lines, ind, mw, "recircs", eg_name, None)

    def _emit_decide_and_finish(
        self, lines, ind, mw, recircs_expr, eg_name, eg_facts
    ) -> None:
        bridge = ", ".join(
            f"{fname!r}: s[{slot}]" for fname, slot in self.bridge_pairs
        )
        bridge = (
            "{" + bridge + (", " if bridge else "")
            + f"'meta.egress_port': s[{self.s_eg}]" + "}"
        )
        t = ind + "    "
        emitted_if = False
        if self.s_drop in mw:
            lines.append(f"{ind}if s[{self.s_drop}]:")
            lines.append(f"{t}_tm.dropped += 1")
            lines.append(f"{t}_deparse(s, vh, hs)")
            lines.append(f"{t}return _R(_VD, None, packet, {recircs_expr}, (), {bridge})")
            emitted_if = True
        branches = []
        if self.s_cpu in mw:
            branches.append(
                (f"s[{self.s_cpu}]", ["_tm.to_cpu += 1", f"_v = _VC; _p = {self.CPU_PORT}"])
            )
        if self.s_refl in mw:
            branches.append(
                (f"s[{self.s_refl}]", ["_tm.reflected += 1", f"_v = _VR; _p = s[{self.s_in}]"])
            )
        if self.s_mc in mw:
            branches.append(
                (
                    f"s[{self.s_mc}]",
                    [
                        f"if s[{self.s_mc}] not in _mg:",
                        f"    raise _UMG(s[{self.s_mc}])",
                        "_tm.multicast += 1",
                        "_v = _VM; _p = None",
                    ],
                )
            )
        forward = ["_tm.forwarded += 1", f"_v = _VF; _p = s[{self.s_eg}]"]
        if not branches:
            if self._co_targets is not None and not emitted_if:
                # statically FORWARD: the verdict bump is per-call constant
                self._co_targets.append((self.ns["_tm"], "forwarded", 1))
                forward = forward[1:]
            for stmt in forward:
                lines.append(ind + stmt)
        else:
            for i, (cond, stmts) in enumerate(branches):
                kw = "if" if i == 0 and not emitted_if else "elif"
                # after a DROP early return, the chain continues with elif
                # only syntactically if an if came first; otherwise restart
                if i == 0 and emitted_if:
                    kw = "elif"
                lines.append(f"{ind}{kw} {cond}:")
                for stmt in stmts:
                    lines.append(t + stmt)
            lines.append(f"{ind}else:")
            for stmt in forward:
                lines.append(t + stmt)
        if eg_name is not None:
            lines.append(f"{ind}{eg_name}(s)")
        elif eg_facts is not None and self.eg_pairs:
            # straight body: inline the egress applies (single call site)
            eg_working = dict(eg_facts)
            for unit, stage in self.eg_pairs:
                self._emit_apply(unit, lines, ind, eg_working)
        if self.s_mc in mw:
            lines.append(f"{ind}_ports = _mg[s[{self.s_mc}]] if _v is _VM else ()")
        else:
            lines.append(f"{ind}_ports = ()")
        lines.append(f"{ind}_deparse(s, vh, hs)")
        lines.append(
            f"{ind}return _R(_v, _p, packet, {recircs_expr}, _ports, {bridge})"
        )

    # -- _run --------------------------------------------------------------
    def _emit_run(self) -> None:
        cl = self.cl
        self._stage_of = {
            id(unit): stage for unit, stage in self.ing_pairs + self.eg_pairs
        }
        lines = ["def _run(switch, packet):", "    hs = packet.headers"]
        # field-set guards: any mismatch means the interpreter would take
        # the PHV slow path (partial slots + _extra), which the generated
        # code does not model — bail before ANY side effect
        for header in self.key:
            slots = cl.header_slots.get(header)
            if slots is None:
                continue  # never parseable: inert for this layout
            kvar = self.bind(frozenset(f for f, _i in slots), "k")
            lines.append(f"    if hs[{header!r}].keys() != {kvar}:")
            lines.append("        return None")
        # packets_in / pipeline_passes / init-table lookups are bumped (or
        # coalesced) inside the body — every dispatch path enters exactly
        # one body, and nothing between here and there can raise
        lines.append("    s = _T.copy()")
        lines.append(f"    s[{cl.slot_ingress}] = packet.ingress_port")
        lines.append(f"    s[{cl.slot_qdepth}] = packet.queue_depth")
        lines.append(f"    s[{cl.slot_pktlen}] = packet.size")
        lines.append(f"    s[{cl.slot_ts}] = int(packet.ts * 1000000) & 4294967295")
        lines.append("    vh = _parse(s, hs)")

        working = dict(self.known0)

        table = self.init_table
        tvar = self.bind(table, "t")
        if self.s_pid is None or self.s_bid is None:
            raise _Unsupported("init-shape")
        pid_mask = cl.masks[self.s_pid]

        def dispatch(pid_raw: int) -> list[str]:
            pid = pid_raw & pid_mask
            body = self._body_for(pid)
            stmts = []
            if pid != 0:
                stmts.append(f"s[{self.s_pid}] = {pid}")
            stmts.append(f"s[{self.s_bid}] = 0")
            stmts.append(f"return {body}(switch, packet, hs, s, vh)")
            return stmts

        # The chain depends on the shadow of every entry it tests (a
        # delete, or an insert ordering ahead of it, changes the chain)
        # and ends at the first entry that matches every packet of the
        # composition: later entries can never win here.  An entry whose
        # only runtime tests are presence tests on always-parsed headers
        # ends it too; the packets it misses (a None header value) leave
        # for the interpreter before any side effect, so the function
        # still depends on nothing behind it.  Without such an entry the
        # fall-through depends on every future insert.
        branches = []
        bail = False
        for entry in sorted(table._entries.values(), key=_entry_order):
            reads = table.versions_read("*", entry)
            try:
                conds = self._fold_keys(entry, working, after_parse=True)
            except _Unsupported:
                self.versions.update(reads)  # the refusal depends on it
                raise
            if conds is _DEAD:
                continue  # never matches here: its fate changes nothing
            self.versions.update(reads)
            if entry.action != self.dp.ACTION_SET_PROGRAM:
                raise _Unsupported("init-action")
            branches.append((conds, entry))
            if not conds:
                break
            if self.always_present.issuperset(conds):
                bail = True
                break
        else:
            self.versions.update(table.versions_read("*", None))
        terminal = bool(branches) and not branches[-1][0]
        for i, (conds, entry) in enumerate(branches):
            evar = self.bind(entry, "e")
            stmts = [f"{tvar}.hits += 1", f"{evar}.hits += 1"]
            stmts += dispatch(entry.action_data["program_id"])
            if not conds:
                if i == 0:
                    for stmt in stmts:
                        lines.append("    " + stmt)
                else:
                    lines.append("    else:")
                    for stmt in stmts:
                        lines.append("        " + stmt)
                break
            kw = "if" if i == 0 else "elif"
            lines.append(f"    {kw} {' and '.join(conds)}:")
            for stmt in stmts:
                lines.append("        " + stmt)
        if bail:
            lines.append("    return None")
        elif not terminal:
            default = table.default_action
            if default is not None and default != self.dp.ACTION_SET_PROGRAM:
                raise _Unsupported("init-action")
            if default is not None:
                stmts = dispatch(table.default_action_data["program_id"])
            else:
                stmts = [f"return {self._body_for(0)}(switch, packet, hs, s, vh)"]
            if branches:
                lines.append("    else:")
                for stmt in stmts:
                    lines.append("        " + stmt)
            else:
                for stmt in stmts:
                    lines.append("    " + stmt)
        self.chunks.append("\n".join(lines))
