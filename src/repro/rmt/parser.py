"""Programmable parser: a parse-state machine producing a parsing bitmap.

The paper (§4.1.1) keeps a *parsing state bitmap* in the PHV: one bit per
header the parser extracted, set as the state machine visits each state.
The initialization block later selects a per-parsing-path filter table from
this bitmap.

The state machine here is data-driven: states declare which header they
extract and how to pick the next state from a field of that header, exactly
like a P4 parser.  The default machine covers the L2→IPv4→{TCP,UDP}→{nc,
calc} paths the evaluation uses; operators can build custom machines.

RMT parsers are *not* runtime-reconfigurable (paper §7), so the machine is
fixed once the switch is provisioned — the simulator enforces this with
``freeze()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .packet import ETYPE_IPV4, PROTO_TCP, PROTO_UDP, Packet
from .phv import PHV

#: Canonical bit positions in the parsing bitmap for the default machine.
DEFAULT_BITMAP_BITS: dict[str, int] = {
    "eth": 0,
    "ipv4": 1,
    "tcp": 2,
    "udp": 3,
    "nc": 4,
    "calc": 5,
    "tun": 6,
}


class ParserFrozenError(RuntimeError):
    """Raised on attempts to modify a frozen (provisioned) parser."""


@dataclass
class ParseState:
    """One state of the parse machine.

    Attributes:
        header: header extracted on entering this state (``None`` for pure
            branch states).
        select: field used to choose the next state, or ``None`` to accept.
        transitions: field value -> next state name.  A ``None`` key is the
            default transition.
    """

    name: str
    header: str | None = None
    select: str | None = None
    transitions: dict[int | None, str] = field(default_factory=dict)


class ParseMachine:
    """The full parser: states, start state, and bitmap assignment."""

    ACCEPT = "accept"

    def __init__(self, bitmap_bits: dict[str, int] | None = None):
        self.states: dict[str, ParseState] = {}
        self.start: str | None = None
        self.bitmap_bits = dict(bitmap_bits or DEFAULT_BITMAP_BITS)
        self._frozen = False

    # -- construction -----------------------------------------------------
    def add_state(self, state: ParseState, *, start: bool = False) -> None:
        if self._frozen:
            raise ParserFrozenError("parser is frozen after provisioning")
        self.states[state.name] = state
        if start:
            self.start = state.name

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- runtime ----------------------------------------------------------
    def parse(self, packet: Packet, phv: PHV) -> int:
        """Run the machine over a packet, loading headers into the PHV.

        Returns the parsing bitmap, which is also stored in the PHV as
        ``ud.parse_bitmap``.
        """
        if self.start is None:
            raise RuntimeError("parse machine has no start state")
        bitmap = 0
        state_name = self.start
        visited = 0
        while state_name != self.ACCEPT:
            visited += 1
            if visited > len(self.states) + 1:
                raise RuntimeError("parse machine loop detected")
            state = self.states[state_name]
            if state.header is not None:
                if not packet.has(state.header):
                    # The wire didn't carry the header this state expects;
                    # stop parsing, as a hardware parser would on short pkts.
                    break
                phv.load_header(state.header)
                bit = self.bitmap_bits.get(state.header)
                if bit is not None:
                    bitmap |= 1 << bit
            if state.select is None:
                break
            key = phv.get(state.select)
            state_name = state.transitions.get(key, state.transitions.get(None, self.ACCEPT))
        phv.set("ud.parse_bitmap", bitmap)
        return bitmap

    def parsing_paths(self) -> list[int]:
        """Enumerate the bitmaps of all root-to-accept paths.

        Used by the initialization block to instantiate one filter table per
        parsing path (paper §4.1.1 and §5: "K tables, where K is the number
        of possible parsing paths").
        """
        paths: set[int] = set()

        def walk(state_name: str, bitmap: int, seen: frozenset[str]) -> None:
            if state_name == self.ACCEPT or state_name in seen:
                paths.add(bitmap)
                return
            state = self.states[state_name]
            if state.header is not None:
                bit = self.bitmap_bits.get(state.header)
                if bit is not None:
                    bitmap |= 1 << bit
            # A header may legitimately be absent (short packet): the path
            # ending here is also reachable.
            paths.add(bitmap)
            if state.select is None:
                return
            for nxt in set(state.transitions.values()):
                walk(nxt, bitmap, seen | {state_name})

        if self.start is not None:
            walk(self.start, 0, frozenset())
        paths.discard(0)
        return sorted(paths)


def default_parse_machine(
    *,
    nc_port: int = 7777,
    calc_port: int = 8888,
    tunnel_etype: int = 0x88F7,
) -> ParseMachine:
    """The evaluation parser: eth -> ipv4 -> {tcp, udp} -> {nc, calc}."""
    machine = ParseMachine()
    machine.add_state(
        ParseState(
            "parse_eth",
            header="eth",
            select="hdr.eth.etype",
            transitions={ETYPE_IPV4: "parse_ipv4", tunnel_etype: "parse_tun"},
        ),
        start=True,
    )
    machine.add_state(
        ParseState(
            "parse_tun",
            header="tun",
            select=None,
        )
    )
    machine.add_state(
        ParseState(
            "parse_ipv4",
            header="ipv4",
            select="hdr.ipv4.proto",
            transitions={PROTO_TCP: "parse_tcp", PROTO_UDP: "parse_udp"},
        )
    )
    machine.add_state(ParseState("parse_tcp", header="tcp"))
    machine.add_state(
        ParseState(
            "parse_udp",
            header="udp",
            select="hdr.udp.dst_port",
            transitions={nc_port: "parse_nc", calc_port: "parse_calc"},
        )
    )
    machine.add_state(ParseState("parse_nc", header="nc"))
    machine.add_state(ParseState("parse_calc", header="calc"))
    return machine
