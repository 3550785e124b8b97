"""Building the P4runpro data plane on the RMT simulator (paper §5).

Layout on the simulated chip (single pipeline pair):

* ingress stage 0 — initialization block (one filter table per parsing
  path, modelled as one logical table with a parsing-bitmap key);
* ingress stages 1..N — ingress RPBs 1..N (N=10 by default);
* ingress stage N+1 — recirculation block;
* egress stages 0..11 — egress RPBs N+1..M (12 by default).

Each RPB carries a 2,048-entry ternary table and a 65,536 x 32-bit
register array.  The class doubles as the control plane's
:class:`~repro.controlplane.update.DataPlaneBinding`: entry inserts and
deletes are applied atomically to the simulated tables, and memory resets
zero the arrays.
"""

from __future__ import annotations

from ..compiler.entries import EntryConfig
from ..compiler.target import TargetSpec
from ..rmt.flowcache import FlowCache
from ..rmt.packet import Packet
from ..rmt.parser import ParseMachine, default_parse_machine
from ..rmt.pipeline import Switch, SwitchConfig, SwitchResult
from ..rmt.salu import RegisterArray
from ..rmt.table import MatchActionTable, TableEntry, TernaryKey
from ..rmt.hashing import HashUnit
from . import constants as dp
from .blocks import InitBlock, RecirculationBlock
from .rpb import RPB

#: Per-RPB VLIW instruction words consumed by the pre-installed atomic
#: operation set (nearly the whole stage budget — §6.3: "P4runpro uses
#: almost all the VLIW to implement atomic operations").
RPB_VLIW_SLOTS = 30
INIT_VLIW_SLOTS = 2
RECIRC_VLIW_SLOTS = 1


class UnknownTableError(KeyError):
    """Entry refers to a table the data plane does not have."""


class P4runproDataPlane:
    """The provisioned P4runpro pipeline plus its southbound binding."""

    def __init__(
        self,
        spec: TargetSpec | None = None,
        parse_machine: ParseMachine | None = None,
        switch_config: SwitchConfig | None = None,
        *,
        include_recirc_block: bool = True,
        flow_cache: bool = True,
        flow_cache_emc_capacity: int = 8192,
        flow_cache_megaflow_capacity: int = 4096,
        codegen: bool = True,
    ):
        self.spec = spec or TargetSpec()
        self.include_recirc_block = include_recirc_block
        machine = parse_machine or default_parse_machine()
        extra_ingress_stages = 2 if include_recirc_block else 1
        config = switch_config or SwitchConfig(
            num_ingress_stages=self.spec.num_ingress_rpbs + extra_ingress_stages,
            num_egress_stages=self.spec.num_egress_rpbs,
        )
        self.switch = Switch(machine, config, codegen=codegen)
        for name, width in dp.P4RUNPRO_FIELDS.items():
            self.switch.layout.declare(name, width)
        self.tables: dict[str, MatchActionTable] = {}
        #: southbound event hooks: callables ``(event, detail)`` invoked
        #: after every successful binding mutation ("insert_entry",
        #: "delete_entry", "reset_memory").  The control service's audit
        #: layer subscribes here; hooks must not raise.
        self.event_hooks: list = []
        self._build_blocks(machine)
        self.switch.provision_done()
        #: Two-tier flow cache (EMC + megaflow trace cache) fronting
        #: :meth:`process` / :meth:`process_many`.  Always constructed so
        #: counters/stats stay introspectable; ``enabled`` gates use.
        fc = FlowCache(
            emc_capacity=flow_cache_emc_capacity,
            megaflow_capacity=flow_cache_megaflow_capacity,
        )
        fc.enabled = flow_cache
        self.flow_cache = fc
        self.switch.flow_cache = fc
        #: trace-to-source codegen tier (between flow cache and the
        #: interpreter).  Both tiers track the table versions they read
        #: (repro.rmt.dependency), so table mutations need no hook here;
        #: write_bucket / reset_memory / multicast changes need no codegen
        #: invalidation: generated code reads register arrays and the
        #: TM's multicast-group dict live on every packet.
        self.codegen = self.switch.codegen

    def add_event_hook(self, hook) -> None:
        """Subscribe ``hook(event: str, detail: dict)`` to binding events."""
        self.event_hooks.append(hook)

    def _emit(self, event: str, **detail) -> None:
        for hook in self.event_hooks:
            hook(event, detail)

    # -- construction -----------------------------------------------------------
    def _build_blocks(self, machine: ParseMachine) -> None:
        from ..controlplane.manager import INIT_TABLE_CAPACITY, RECIRC_TABLE_CAPACITY

        spec = self.spec
        init_table = MatchActionTable(
            dp.INIT_TABLE,
            INIT_TABLE_CAPACITY,
            index_field=None,
        )
        self.tables[dp.INIT_TABLE] = init_table
        init_stage = self.switch.ingress.stages[0]
        num_paths = max(len(machine.parsing_paths()), 1)
        init_stage.attach_unit(
            InitBlock(init_table),
            tcam_entries=INIT_TABLE_CAPACITY,
            # Modelled as K narrow per-parsing-path tables: each path table
            # only matches its own fields, so the effective key is one
            # TCAM block wide.
            key_bits=44,
            vliw_slots=INIT_VLIW_SLOTS,
            ltids=min(num_paths, init_stage.budget.ltids),
        )

        for phys in range(1, spec.num_rpbs + 1):
            if phys <= spec.num_ingress_rpbs:
                stage = self.switch.ingress.stages[phys]
            else:
                stage = self.switch.egress.stages[phys - spec.num_ingress_rpbs - 1]
            table = MatchActionTable(
                dp.rpb_table(phys),
                spec.rpb_table_size,
                index_field="ud.program_id",
                index_mask=dp.PROGRAM_ID_MASK,
            )
            self.tables[table.name] = table
            memory = RegisterArray(dp.rpb_memory(phys), spec.rpb_memory_size)
            stage.attach_register_array(memory)
            stage.attach_hash_unit(f"{table.name}.hash0", HashUnit("crc_16_buypass"))
            stage.attach_hash_unit(f"{table.name}.hash1", HashUnit("crc_16_mcrf4xx"))
            stage.attach_unit(
                RPB(phys, table, memory.name),
                tcam_entries=spec.rpb_table_size,
                # program id + branch id + recirc id + three registers
                key_bits=16 + 16 + 4 + 3 * 32,
                vliw_slots=RPB_VLIW_SLOTS,
                ltids=1,
            )

        if self.include_recirc_block:
            # Indexed like the RPBs (every recirculation entry keys the full
            # program id), so a deploy stales only its own program's
            # dependents of this table, not every flow that missed in it.
            recirc_table = MatchActionTable(
                dp.RECIRC_TABLE,
                RECIRC_TABLE_CAPACITY,
                index_field="ud.program_id",
                index_mask=dp.PROGRAM_ID_MASK,
            )
            self.tables[dp.RECIRC_TABLE] = recirc_table
            recirc_stage = self.switch.ingress.stages[spec.num_ingress_rpbs + 1]
            recirc_stage.attach_unit(
                RecirculationBlock(recirc_table),
                tcam_entries=RECIRC_TABLE_CAPACITY,
                key_bits=16 + 4,  # program id + recirculation id
                vliw_slots=RECIRC_VLIW_SLOTS,
                ltids=1,
            )

    # -- DataPlaneBinding ---------------------------------------------------------
    def insert_entry(self, entry: EntryConfig) -> int:
        # EntryConfig keys satisfy the TernaryKey protocol (field/value/
        # mask + matches), so they are installed as-is — no per-key rewrap.
        table = self._table(entry.table)
        handle = table.insert(
            TableEntry(entry.keys, entry.action, entry.data(), priority=entry.priority)
        )
        self._emit("insert_entry", table=entry.table, action=entry.action, handle=handle)
        return handle

    def insert_entries(self, entries: list[EntryConfig]) -> list[int]:
        """Group-atomic batched insert: all entries land or none do (a
        failure rolls the partial prefix back before propagating).

        Consecutive entries bound for the same table go through the
        table's :meth:`~repro.rmt.table.MatchActionTable.insert_many` —
        one structural update (one pool re-sort, one mutation-hook round)
        per run instead of one per entry — which is where grouped
        southbound installs get their speed.
        """
        handles: list[int] = []
        try:
            i, n = 0, len(entries)
            while i < n:
                name = entries[i].table
                j = i + 1
                while j < n and entries[j].table == name:
                    j += 1
                table = self._table(name)
                group = [
                    TableEntry(e.keys, e.action, dict(e.action_data), priority=e.priority)
                    for e in entries[i:j]
                ]
                run_handles = table.insert_many(group)
                handles.extend(run_handles)
                for e, handle in zip(entries[i:j], run_handles):
                    self._emit(
                        "insert_entry", table=name, action=e.action, handle=handle
                    )
                i = j
        except Exception:
            for done, handle in reversed(list(zip(entries, handles))):
                self.delete_entry(done.table, handle)
            raise
        return handles

    def delete_entry(self, table: str, handle: int) -> None:
        self._table(table).delete(handle)
        self._emit("delete_entry", table=table, handle=handle)

    def reset_memory(self, phys_rpb: int, base: int, size: int) -> None:
        # No cache invalidation: no cached trace depends on a register
        # value.  Pure traces never touch one, stateful traces replay
        # their SALU ops live, and a trace steered by a register dies at
        # its first STATEFUL consult whatever the value, so its negative
        # entry (routing the flow to codegen or the interpreter, which
        # read registers live) is the same before and after the reset.
        self._array(phys_rpb).reset_range(base, size)
        self._emit("reset_memory", phys_rpb=phys_rpb, base=base, size=size)

    # -- raw control-plane memory APIs ---------------------------------------
    def read_bucket(self, phys_rpb: int, addr: int) -> int:
        return self._array(phys_rpb).read(addr)

    def write_bucket(self, phys_rpb: int, addr: int, value: int) -> None:
        # Like reset_memory: register contents stale no cached trace.
        self._array(phys_rpb).write(addr, value)

    def read_entry_counter(self, table: str, handle: int) -> int:
        """Direct-counter readback for one installed entry."""
        return self._table(table).get(handle).hits

    def configure_multicast_group(self, group: int, ports: list[int]) -> None:
        """Program the traffic manager's replication table (PRE)."""
        self.switch.tm.configure_multicast_group(group, ports)
        # Pure-trace templates bake in the replicated egress port list:
        # the one global flush left.
        self.flow_cache.flush()

    # -- traffic ---------------------------------------------------------------
    def process(
        self, packet: Packet, carried: dict[str, int] | None = None
    ) -> SwitchResult:
        return self.switch.process_packet(packet, carried)

    def process_many(
        self, packets, carried: dict[str, int] | None = None
    ) -> list[SwitchResult]:
        """Run a batch of packets through the switch in arrival order.

        Equivalent to calling :meth:`process` per packet (same verdicts,
        counters, and register mutations) but amortizes compiled-state
        resolution across the batch via :meth:`Switch.process_batch`.
        """
        return self.switch.process_batch(packets, carried)

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict:
        """Data-plane counters: switch totals, TM verdicts, flow cache."""
        switch = self.switch
        tm = switch.tm
        return {
            "packets_in": switch.packets_in,
            "pipeline_passes": switch.pipeline_passes,
            "forwarded": tm.forwarded,
            "dropped": tm.dropped,
            "reflected": tm.reflected,
            "to_cpu": tm.to_cpu,
            "multicast": tm.multicast,
            "flow_cache": self.flow_cache.stats(),
            "codegen": self.codegen.stats(),
        }

    # -- internals ------------------------------------------------------------
    def _table(self, name: str) -> MatchActionTable:
        table = self.tables.get(name)
        if table is None:
            raise UnknownTableError(name)
        return table

    def _array(self, phys_rpb: int) -> RegisterArray:
        spec = self.spec
        if phys_rpb <= spec.num_ingress_rpbs:
            stage = self.switch.ingress.stages[phys_rpb]
        else:
            stage = self.switch.egress.stages[phys_rpb - spec.num_ingress_rpbs - 1]
        return stage.register_arrays[dp.rpb_memory(phys_rpb)]
