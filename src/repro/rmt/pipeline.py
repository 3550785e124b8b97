"""Pipelines, traffic manager, and the whole-switch processing loop.

Architecture (paper §3.1): an ingress pipeline and an egress pipeline with a
traffic manager (TM) in between.  Forwarding decisions — forward, drop,
reflect, report-to-CPU — are taken in the ingress pipeline via intrinsic
metadata and *executed* by the TM, which is why egress stages cannot host
forwarding operations (the allocator constraint (4) of §4.3).

Recirculation: if a packet leaves egress flagged for recirculation it
re-enters the ingress pipeline through a dedicated recirculation port,
consuming pipeline bandwidth — the source of the throughput loss measured
in Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .codegen import CodegenCache
from .packet import Packet
from .parser import ParseMachine
from .phv import PHV, PHVLayout
from .stage import Stage

#: Forwarding-decision metadata fields (intrinsic to the simulated chip).
FWD_FIELDS: dict[str, int] = {
    "ud.drop_ctl": 1,
    "ud.reflect": 1,
    "ud.to_cpu": 1,
    "ud.mcast_grp": 16,
    "ud.recirc_flag": 1,
    "ud.recirc_count": 4,
    "ud.parse_bitmap": 8,
}

CPU_PORT = 192
RECIRC_PORT = 68


class Verdict(Enum):
    FORWARD = "forward"
    DROP = "drop"
    REFLECT = "reflect"
    TO_CPU = "to_cpu"
    MULTICAST = "multicast"


@dataclass
class SwitchResult:
    """Outcome of processing one packet through the switch."""

    verdict: Verdict
    egress_port: int | None
    packet: Packet
    recirculations: int = 0
    #: replication targets for a MULTICAST verdict
    egress_ports: tuple[int, ...] = ()
    #: final bridge-header state (user metadata + forwarding intent) so a
    #: downstream device — the next switch of a chain — can continue the
    #: program where this one stopped
    bridge: dict[str, int] = field(default_factory=dict)


class UnknownMulticastGroupError(KeyError):
    """A MULTICAST verdict referenced an unconfigured group."""


class TrafficManager:
    """Executes the forwarding decision between ingress and egress.

    Multicast groups (group id -> replication port list) are configured by
    the control plane, like Tofino's PRE programming.
    """

    def __init__(self) -> None:
        self.forwarded = 0
        self.dropped = 0
        self.reflected = 0
        self.to_cpu = 0
        self.multicast = 0
        self.multicast_groups: dict[int, tuple[int, ...]] = {}

    def configure_multicast_group(self, group: int, ports: list[int]) -> None:
        if group <= 0:
            raise ValueError("multicast group ids start at 1")
        self.multicast_groups[group] = tuple(ports)

    def decide(self, phv: PHV) -> tuple[Verdict, int | None]:
        if phv.get("ud.drop_ctl"):
            self.dropped += 1
            return Verdict.DROP, None
        if phv.get("ud.to_cpu"):
            self.to_cpu += 1
            return Verdict.TO_CPU, CPU_PORT
        if phv.get("ud.reflect"):
            self.reflected += 1
            return Verdict.REFLECT, phv.get("meta.ingress_port")
        if phv.get("ud.mcast_grp"):
            group = phv.get("ud.mcast_grp")
            if group not in self.multicast_groups:
                raise UnknownMulticastGroupError(group)
            self.multicast += 1
            return Verdict.MULTICAST, None
        self.forwarded += 1
        return Verdict.FORWARD, phv.get("meta.egress_port")


class Pipeline:
    """An ordered list of stages in one gress.

    Packet processing runs over a *compiled unit program*: the attached
    :class:`~repro.rmt.stage.LogicalUnit` list of every stage is flattened
    into one list of ``(apply, stage)`` bound-method pairs, resolved once
    per deploy (attaching a unit invalidates it) rather than per packet.
    """

    def __init__(self, gress: str, stages: list[Stage]):
        self.gress = gress
        self.stages = stages
        self._compiled: list[tuple] | None = None
        for stage in stages:
            stage.pipeline = self

    def invalidate_compiled(self) -> None:
        self._compiled = None

    def compiled_units(self) -> list[tuple]:
        compiled = self._compiled
        if compiled is None:
            compiled = [
                (unit.apply, stage) for stage in self.stages for unit in stage.units
            ]
            self._compiled = compiled
        return compiled

    def process(self, phv: PHV) -> None:
        for apply, stage in self.compiled_units():
            apply(phv, stage)

    def __len__(self) -> int:
        return len(self.stages)


@dataclass
class SwitchConfig:
    """Static configuration of the simulated switch."""

    num_ingress_stages: int = 12
    num_egress_stages: int = 12
    num_ports: int = 64
    max_recirculations: int = 8  # hardware safety cap, not the compiler's R
    port_gbps: float = 100.0
    #: Aggregate pipeline packet rate (packets/s) at minimum packet size —
    #: used by the throughput model in Fig. 11.
    pipeline_pps: float = 1.4e9


class RecirculationLimitError(RuntimeError):
    """Packet exceeded the hardware recirculation safety cap."""


class Switch:
    """The whole simulated RMT switch (single pipeline pair)."""

    def __init__(
        self,
        parse_machine: ParseMachine,
        config: SwitchConfig | None = None,
        codegen: bool = True,
    ):
        self.config = config or SwitchConfig()
        self.parse_machine = parse_machine
        self.layout = PHVLayout()
        for name, width in FWD_FIELDS.items():
            self.layout.declare(name, width)
        self.ingress = Pipeline(
            "ingress", [Stage(i, "ingress") for i in range(self.config.num_ingress_stages)]
        )
        self.egress = Pipeline(
            "egress", [Stage(i, "egress") for i in range(self.config.num_egress_stages)]
        )
        self.tm = TrafficManager()
        #: total packets injected / recirculation passes, for load accounting
        self.packets_in = 0
        self.pipeline_passes = 0
        #: trace-to-source codegen: the fast path in front of the
        #: interpreter
        self.codegen = CodegenCache(enabled=codegen)
        #: PHV free list, active only inside :meth:`process_batch`
        self._phv_pool: list[PHV] = []
        self._pooling = False
        #: cached bridge-header field list (user fields minus the recirc
        #: flag), rebuilt when the layout grows
        self._bridge_fields: tuple[str, ...] = ()
        self._bridge_fields_count = -1
        #: bridge fields resolved to (name, slot) pairs for one compiled
        #: layout snapshot
        self._bridge_slots: tuple[tuple[str, int], ...] = ()
        self._bridge_slots_cl = None

    def provision_done(self) -> None:
        """Freeze compile-time structures (parser); enter runtime phase."""
        self.parse_machine.freeze()

    def _bridge_field_names(self) -> tuple[str, ...]:
        user_fields = self.layout.user_fields
        if len(user_fields) != self._bridge_fields_count:
            self._bridge_fields = tuple(
                name for name in user_fields if name != "ud.recirc_flag"
            )
            self._bridge_fields_count = len(user_fields)
        return self._bridge_fields

    def _bridge_slot_pairs(self, cl) -> tuple[tuple[str, int], ...]:
        if self._bridge_slots_cl is not cl:
            slot_of = cl.slot_of
            self._bridge_slots = tuple(
                (name, slot_of[name]) for name in self._bridge_field_names()
            )
            self._bridge_slots_cl = cl
        return self._bridge_slots

    # -- PHV pooling ---------------------------------------------------------
    def _acquire_phv(self, packet: Packet) -> PHV:
        if self._pooling:
            pool = self._phv_pool
            cl = self.layout.compiled()
            while pool:
                phv = pool.pop()
                if phv.cl is cl:
                    phv.reset(packet)
                    return phv
                # stale layout snapshot: drop it and keep looking
        return PHV(self.layout, packet)

    def _release_phv(self, phv: PHV) -> None:
        if self._pooling and phv._extra is None and len(self._phv_pool) < 64:
            self._phv_pool.append(phv)

    # -- packet processing --------------------------------------------------
    def process_packet(
        self, packet: Packet, carried: dict[str, int] | None = None
    ) -> SwitchResult:
        """Run one packet to completion, including recirculation passes.

        ``carried`` injects bridge-header state from an upstream device
        (the previous switch of a chain) before the first pass.

        Generated code serves the packet when it can; everything it
        refuses (see the fallback taxonomy in :mod:`repro.rmt.codegen`)
        walks the interpreter in :meth:`_process_packet`.
        """
        if carried is None:
            cg = self.codegen
            if cg.enabled:
                result = cg.run(self, packet)
                if result is not None:
                    return result
        return self._process_packet(packet, carried)

    def _process_packet(
        self, packet: Packet, carried: dict[str, int] | None
    ) -> SwitchResult:
        """The interpreted traversal: the reference semantics."""
        self.packets_in += 1
        recirculations = 0
        current = packet
        while True:
            self.pipeline_passes += 1
            phv = self._acquire_phv(current)
            self.parse_machine.parse(current, phv)
            if carried is not None:
                # Restore the stateless carry (registers, flags, addresses)
                # that the recirculation block attached to the packet header
                # on the previous pass (paper §4.1.3).
                for name, value in carried.items():
                    phv.set(name, value)
            bridge_pairs = self._bridge_slot_pairs(phv.cl)

            def bridge_state() -> dict[str, int]:
                slots = phv.slots
                state = {name: slots[slot] for name, slot in bridge_pairs}
                state["meta.egress_port"] = slots[phv.cl.slot_egress]
                return state

            self.ingress.process(phv)
            # The recirculation block sits at the last ingress stage: when it
            # flags the packet, the TM's forwarding decision is deferred to
            # the final pass (drop/reflect intents stay latched in the PHV
            # and are carried across passes).
            will_recirculate = bool(phv.get("ud.recirc_flag"))
            if not will_recirculate:
                verdict, port = self.tm.decide(phv)
                if verdict is Verdict.DROP:
                    result = SwitchResult(
                        verdict, None, phv.deparse(), recirculations, (), bridge_state()
                    )
                    self._release_phv(phv)
                    return result
            self.egress.process(phv)
            if will_recirculate:
                recirculations += 1
                if recirculations > self.config.max_recirculations:
                    raise RecirculationLimitError(
                        f"packet exceeded {self.config.max_recirculations} recirculations"
                    )
                slots = phv.slots
                carried = {name: slots[slot] for name, slot in bridge_pairs}
                carried["ud.recirc_count"] = recirculations
                # The forwarding intent latched so far (e.g. FORWARD's
                # egress port) is stateless per-packet data and rides the
                # bridge header like the registers and flags do.
                carried["meta.egress_port"] = phv.get("meta.egress_port")
                current = phv.deparse()
                self._release_phv(phv)
                current.ingress_port = RECIRC_PORT
                continue
            ports: tuple[int, ...] = ()
            if verdict is Verdict.MULTICAST:
                ports = self.tm.multicast_groups[phv.get("ud.mcast_grp")]
            result = SwitchResult(
                verdict, port, phv.deparse(), recirculations, ports, bridge_state()
            )
            self._release_phv(phv)
            return result

    def process_batch(
        self, packets, carried: dict[str, int] | None = None
    ) -> list[SwitchResult]:
        """Run a batch of packets to completion, amortizing per-packet setup.

        Semantically identical to calling :meth:`process_packet` on each
        packet in order (same verdicts, same counters, same register-array
        mutations); the batch form resolves the compiled pipeline programs,
        the PHV layout, and the bridge-field list once up front.
        """
        # Force one compilation of everything the per-packet loop consumes
        # so the whole batch runs on warmed caches.
        self.layout.compiled()
        self.ingress.compiled_units()
        self.egress.compiled_units()
        self._bridge_field_names()
        process = self.process_packet
        # PHV pooling is batch-scoped: callers of process_packet may hold
        # no reference past the return, so reuse is only safe while this
        # frame owns the loop.  Codegen counter coalescing is likewise
        # batch-scoped (nothing can observe counters mid-batch).
        self._pooling = True
        try:
            return [process(packet, carried) for packet in packets]
        finally:
            self._pooling = False
            self.codegen.end_batch()

    # -- throughput model (Fig. 11) -----------------------------------------
    #: wire size of the bridge header the recirculation block attaches
    #: (registers + flags + addresses carried between passes, §4.1.3).
    BRIDGE_HEADER_BYTES = 16

    def max_lossless_throughput_gbps(
        self, packet_size: int, recirc_iterations: int, offered_gbps: float = 100.0
    ) -> float:
        """Maximum lossless throughput for a flow that recirculates.

        Every recirculation pass re-sends the packet — grown by the bridge
        header — through the fixed-bandwidth recirculation port, so the port
        must carry ``R * (size + bridge) / size`` of the original rate.
        Smaller packets pay proportionally more bridge overhead, which is
        why Fig. 11 shows ~10% loss at 128B but ~1% at 1500B for R=1.
        """
        if recirc_iterations <= 0:
            return offered_gbps
        inflation = (packet_size + self.BRIDGE_HEADER_BYTES) / packet_size
        port_bound = self.config.port_gbps / (recirc_iterations * inflation)
        return min(offered_gbps, port_bound)

    def added_latency_ms(self, recirc_iterations: int, packet_size: int = 512) -> float:
        """Extra zero-queue latency from recirculation passes.

        Each pass costs pipeline traversal plus recirculation-port
        (de)serialization; measured end to end through the generator stack
        this lands at roughly 0.1–0.25 ms per pass depending on packet size
        (0.5–1.5 ms total at R=6, §6.3).
        """
        per_pass_ms = 0.08 + 0.11 * (packet_size / 1500.0)
        return recirc_iterations * per_pass_ms

