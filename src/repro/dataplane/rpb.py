"""Runtime Programming Blocks: the per-stage execution units (paper §4.1.2).

Each RPB is one large ternary match-action table keyed on the three control
flags (program ID, branch ID, recirculation ID) and the three registers
(har/sar/mar — used by BRANCH entries), whose actions are the pre-installed
atomic operations.  The RPB also owns the stage's register array (its
dynamic memory) and uses the stage's hash units.

Two dispatch paths implement the runtime behaviour of every primitive in
Table 3 plus the compiler-internal OFFSET/BACKUP/RESTORE ops and the
``set_branch`` flag update:

* :func:`execute_action` — the reference interpreter, a plain if-chain over
  action names, used by tests and as the oracle for the compiled path;
* :func:`compile_action` — builds a closure per installed entry with the
  action's operands resolved once (at first dispatch after insert), so the
  per-packet cost is one indirect call instead of string dispatch plus
  dict lookups.  The closure is cached on the entry; any structural table
  update that replaces the entry drops it with the entry.
"""

from __future__ import annotations

from ..rmt.hashing import HashUnit
from ..rmt.phv import PHV
from ..rmt.stage import LogicalUnit, Stage
from ..rmt.table import MatchActionTable
from . import constants as dp
from . import tracing

REGISTER_MASK = 0xFFFFFFFF

_ALU_OPS = {
    "ADD": lambda a, b: (a + b) & REGISTER_MASK,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "MAX": max,
    "MIN": min,
    "XOR": lambda a, b: a ^ b,
}

_MEMORY_OPS = frozenset(
    {"MEMADD", "MEMSUB", "MEMAND", "MEMOR", "MEMREAD", "MEMWRITE", "MEMMAX"}
)

_hash_unit_cache: dict[str, HashUnit] = {}


def _hash_unit(algorithm: str) -> HashUnit:
    unit = _hash_unit_cache.get(algorithm)
    if unit is None:
        unit = HashUnit(algorithm)
        _hash_unit_cache[algorithm] = unit
    return unit


def _phv_five_tuple(phv: PHV) -> tuple[int, int, int, int, int]:
    """Read the 5-tuple from the PHV (zeros for absent layers)."""
    src = phv.get("hdr.ipv4.src") if phv.has("hdr.ipv4.src") else 0
    dst = phv.get("hdr.ipv4.dst") if phv.has("hdr.ipv4.dst") else 0
    proto = phv.get("hdr.ipv4.proto") if phv.has("hdr.ipv4.proto") else 0
    sport = dport = 0
    if phv.has("hdr.tcp.src_port"):
        sport = phv.get("hdr.tcp.src_port")
        dport = phv.get("hdr.tcp.dst_port")
    elif phv.has("hdr.udp.src_port"):
        sport = phv.get("hdr.udp.src_port")
        dport = phv.get("hdr.udp.dst_port")
    return (src, dst, proto, sport, dport)


class RPB(LogicalUnit):
    """One Runtime Programming Block bound to a pipeline stage."""

    def __init__(self, phys_rpb: int, table: MatchActionTable, memory_name: str):
        self.phys_rpb = phys_rpb
        self.name = dp.rpb_table(phys_rpb)
        self.table = table
        self.memory_name = memory_name

    def apply(self, phv: PHV, stage: Stage) -> None:
        entry = self.table.lookup_entry(phv)
        if entry is None:
            # no entry for this (program, branch, recirc) — a NOP unless
            # the table carries a default action
            action = self.table.default_action
            if action is None:
                return
            data = self.table.default_action_data
            execute_action(self, action, data, phv, stage)
            if tracing._ACTIVE is not None:
                tracing._ACTIVE.record(self.name, action, data, phv)
            return
        op = entry.compiled_op
        if op is None:
            op = compile_action(self, entry.action, entry.action_data)
            entry.compiled_op = op
        op(phv, stage)
        if tracing._ACTIVE is not None:
            tracing._ACTIVE.record(self.name, entry.action, entry.action_data, phv)


def compile_action(rpb: RPB, action: str, data: dict):
    """Bind one atomic operation into a ``(phv, stage) -> None`` closure.

    Operand resolution (action-data dict reads, register-field name
    mapping, hash-unit lookup) happens here, once per installed entry;
    the returned closure performs only PHV/stage work per packet.
    Semantically identical to :func:`execute_action` — the equivalence is
    asserted by tests/dataplane/test_rpb.py.
    """
    if action == dp.ACTION_SET_BRANCH:
        branch_id = data["branch_id"]
        return lambda phv, stage: phv.set("ud.branch_id", branch_id)
    if action == "EXTRACT":
        field_name = data["field"]
        reg = dp.REGISTER_FIELDS[data["reg"]]

        def _extract(phv, stage):
            # Hardware semantics: reading an unparsed header's container
            # yields an undefined value (0 here), never a fault.
            phv.set(reg, phv.get(field_name) if phv.has(field_name) else 0)

        return _extract
    if action == "MODIFY":
        field_name = data["field"]
        reg = dp.REGISTER_FIELDS[data["reg"]]

        def _modify(phv, stage):
            # Writing an unparsed header is a no-op (the deparser would
            # not emit it anyway).
            if phv.has(field_name):
                phv.set(field_name, phv.get(reg))

        return _modify
    if action == "HASH_5_TUPLE":
        unit = _hash_unit(data["algorithm"])
        return lambda phv, stage: phv.set(
            "ud.har", unit.hash_five_tuple(_phv_five_tuple(phv))
        )
    if action == "HASH":
        unit = _hash_unit(data["algorithm"])
        return lambda phv, stage: phv.set(
            "ud.har", unit.hash_values((phv.get("ud.har"),))
        )
    if action == "HASH_5_TUPLE_MEM":
        unit = _hash_unit(data["algorithm"])
        mask = data["mask"]

        def _hash5_mem(phv, stage):
            # Mask step, merged with the hash action (§4.1.2): clip the
            # hash output to the virtual memory size before anything can
            # observe it.
            phv.set("ud.mar", unit.hash_five_tuple(_phv_five_tuple(phv)) & mask)

        return _hash5_mem
    if action == "HASH_MEM":
        unit = _hash_unit(data["algorithm"])
        mask = data["mask"]
        return lambda phv, stage: phv.set(
            "ud.mar", unit.hash_values((phv.get("ud.har"),)) & mask
        )
    if action == "OFFSET":
        base = data["base"]
        # Offset step: virtual -> physical address, into a scratch field
        # so the mar keeps its virtual value (§4.1.2).
        return lambda phv, stage: phv.set(
            "ud.phys_addr", (phv.get("ud.mar") + base) & REGISTER_MASK
        )
    if action in _MEMORY_OPS:
        memory_name = rpb.memory_name
        is_write = action == "MEMWRITE"

        def _memory(phv, stage):
            array = stage.register_arrays[memory_name]
            addr = phv.get("ud.phys_addr") % array.size
            output = array.execute(action, addr, phv.get("ud.sar"))
            if not is_write:
                phv.set("ud.sar", output)

        return _memory
    if action == "LOADI":
        reg = dp.REGISTER_FIELDS[data["reg"]]
        value = data["value"]
        return lambda phv, stage: phv.set(reg, value)
    if action in _ALU_OPS:
        alu = _ALU_OPS[action]
        reg0 = dp.REGISTER_FIELDS[data["reg0"]]
        reg1 = dp.REGISTER_FIELDS[data["reg1"]]
        return lambda phv, stage: phv.set(reg0, alu(phv.get(reg0), phv.get(reg1)))
    if action == "FORWARD":
        port = data["port"]
        return lambda phv, stage: phv.set("meta.egress_port", port)
    if action == "MULTICAST":
        group = data["group"]
        return lambda phv, stage: phv.set("ud.mcast_grp", group)
    if action == "DROP":
        return lambda phv, stage: phv.set("ud.drop_ctl", 1)
    if action == "RETURN":
        return lambda phv, stage: phv.set("ud.reflect", 1)
    if action == "REPORT":
        return lambda phv, stage: phv.set("ud.to_cpu", 1)
    if action == "BACKUP":
        reg = dp.REGISTER_FIELDS[data["reg"]]
        return lambda phv, stage: phv.set("ud.reg_backup", phv.get(reg))
    if action == "RESTORE":
        reg = dp.REGISTER_FIELDS[data["reg"]]
        return lambda phv, stage: phv.set(reg, phv.get("ud.reg_backup"))
    raise ValueError(f"RPB {rpb.name}: unknown action {action!r}")


def execute_action(rpb: RPB, action: str, data: dict, phv: PHV, stage: Stage) -> None:
    """Run one atomic operation against the PHV and stage state."""
    if action == dp.ACTION_SET_BRANCH:
        phv.set("ud.branch_id", data["branch_id"])
        return
    if action == "EXTRACT":
        # Hardware semantics: reading an unparsed header's container yields
        # an undefined value (0 here), never a fault.  Programs whose
        # filters guarantee the header is parsed never hit this path.
        field_name = data["field"]
        value = phv.get(field_name) if phv.has(field_name) else 0
        phv.set(dp.REGISTER_FIELDS[data["reg"]], value)
        return
    if action == "MODIFY":
        # Writing an unparsed header is a no-op (the deparser would not
        # emit it anyway).
        if phv.has(data["field"]):
            phv.set(data["field"], phv.get(dp.REGISTER_FIELDS[data["reg"]]))
        return
    if action == "HASH_5_TUPLE":
        unit = _hash_unit(data["algorithm"])
        phv.set("ud.har", unit.hash_five_tuple(_phv_five_tuple(phv)))
        return
    if action == "HASH":
        unit = _hash_unit(data["algorithm"])
        phv.set("ud.har", unit.hash_values((phv.get("ud.har"),)))
        return
    if action == "HASH_5_TUPLE_MEM":
        unit = _hash_unit(data["algorithm"])
        digest = unit.hash_five_tuple(_phv_five_tuple(phv))
        # Mask step, merged with the hash action (§4.1.2): clip the hash
        # output to the virtual memory size before anything can observe it.
        phv.set("ud.mar", digest & data["mask"])
        return
    if action == "HASH_MEM":
        unit = _hash_unit(data["algorithm"])
        digest = unit.hash_values((phv.get("ud.har"),))
        phv.set("ud.mar", digest & data["mask"])
        return
    if action == "OFFSET":
        # Offset step: virtual -> physical address, into a scratch field so
        # the mar keeps its virtual value (§4.1.2).
        phv.set("ud.phys_addr", (phv.get("ud.mar") + data["base"]) & REGISTER_MASK)
        return
    if action in _MEMORY_OPS:
        array = stage.register_arrays[rpb.memory_name]
        addr = phv.get("ud.phys_addr") % array.size
        output = array.execute(action, addr, phv.get("ud.sar"))
        if action != "MEMWRITE":
            phv.set("ud.sar", output)
        return
    if action == "LOADI":
        phv.set(dp.REGISTER_FIELDS[data["reg"]], data["value"])
        return
    if action in _ALU_OPS:
        reg0 = dp.REGISTER_FIELDS[data["reg0"]]
        reg1 = dp.REGISTER_FIELDS[data["reg1"]]
        phv.set(reg0, _ALU_OPS[action](phv.get(reg0), phv.get(reg1)))
        return
    if action == "FORWARD":
        phv.set("meta.egress_port", data["port"])
        return
    if action == "MULTICAST":
        phv.set("ud.mcast_grp", data["group"])
        return
    if action == "DROP":
        phv.set("ud.drop_ctl", 1)
        return
    if action == "RETURN":
        phv.set("ud.reflect", 1)
        return
    if action == "REPORT":
        phv.set("ud.to_cpu", 1)
        return
    if action == "BACKUP":
        phv.set("ud.reg_backup", phv.get(dp.REGISTER_FIELDS[data["reg"]]))
        return
    if action == "RESTORE":
        phv.set(dp.REGISTER_FIELDS[data["reg"]], phv.get("ud.reg_backup"))
        return
    raise ValueError(f"RPB {rpb.name}: unknown action {action!r}")
