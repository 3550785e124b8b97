"""Initialization and recirculation blocks (paper §4.1.1 / §4.1.3).

* The **initialization block** occupies the first ingress stage.  Its
  filter tables match the parsing bitmap plus arbitrary header fields and
  assign the packet's program ID — the isolation boundary every later
  block keys on.
* The **recirculation block** occupies the last ingress stage.  When the
  running program's allocation spans recirculation iterations, the block
  flags the packet so the traffic manager loops it back through the
  pipeline with its stateless state (registers, flags, addresses) bridged
  in an internal header.
"""

from __future__ import annotations

from ..rmt.phv import PHV
from ..rmt.stage import LogicalUnit, Stage
from ..rmt.table import MatchActionTable
from . import constants as dp
from . import tracing


class InitBlock(LogicalUnit):
    """Flow filtering: parsing-path filter tables assigning program IDs."""

    name = dp.INIT_TABLE

    def __init__(self, table: MatchActionTable):
        self.table = table

    def apply(self, phv: PHV, stage: Stage) -> None:
        if phv.get("ud.recirc_count"):
            # Recirculated packets carry their program ID and branch ID in
            # the bridge header (§4.1.3); filtering ran on the first pass.
            return
        result = self.table.lookup(phv)
        if result is None:
            return  # program_id stays 0: packet belongs to no program
        action, data = result
        if action != dp.ACTION_SET_PROGRAM:
            raise ValueError(f"init block: unexpected action {action!r}")
        program_id = data["program_id"]
        phv.set("ud.program_id", program_id)
        phv.set("ud.branch_id", 0)
        if tracing._ACTIVE is not None:
            tracing._ACTIVE.record(self.name, action, data, phv)


class RecirculationBlock(LogicalUnit):
    """Flags packets whose program continues in a later iteration."""

    name = dp.RECIRC_TABLE

    def __init__(self, table: MatchActionTable):
        self.table = table

    def apply(self, phv: PHV, stage: Stage) -> None:
        result = self.table.lookup(phv)
        if result is None:
            return
        action, _data = result
        if action != dp.ACTION_RECIRCULATE:
            raise ValueError(f"recirculation block: unexpected action {action!r}")
        phv.set("ud.recirc_flag", 1)
        if tracing._ACTIVE is not None:
            tracing._ACTIVE.record(self.name, action, _data, phv)
