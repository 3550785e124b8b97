"""Stateful ALUs and per-stage register arrays.

Each RMT stage owns SRAM register arrays accessed through stateful ALUs
(SALUs).  A SALU executes a single read-modify-write on one bucket per
packet; it can additionally perform a conditional comparison before the
write (the capability the paper borrows from FlyMon to multiplex two memory
operations behind one SALU flag, §4.1.2).

The seven P4runpro memory operations of Table 3 are provided as SALU
microprograms: MEMADD, MEMSUB, MEMAND, MEMOR, MEMREAD, MEMWRITE, MEMMAX.
All arithmetic wraps at the register width, matching hardware overflow
behaviour (which the pseudo-primitives SUB/SUBI exploit, Appendix A.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: A SALU microprogram: (old bucket value, operand) -> (new bucket value,
#: value returned to the PHV).
SaluProgram = Callable[[int, int], tuple[int, int]]


class MemoryOutOfRangeError(IndexError):
    """Raised on access past the end of a register array."""


def _wrap(width: int) -> int:
    return (1 << width) - 1


def make_salu_programs(width: int = 32) -> dict[str, SaluProgram]:
    """The Table-3 memory operations as SALU microprograms."""
    mask = _wrap(width)
    return {
        # mid[mar] += sar; sar = mid[mar]
        "MEMADD": lambda old, sar: (((old + sar) & mask),) * 2,
        # mid[mar] -= sar; sar = mid[mar]
        "MEMSUB": lambda old, sar: (((old - sar) & mask),) * 2,
        # mid[mar] &= sar; sar = mid[mar]
        "MEMAND": lambda old, sar: ((old & sar),) * 2,
        # sar = mid[mar] (old value!); mid[mar] |= sar
        "MEMOR": lambda old, sar: ((old | sar) & mask, old),
        # sar = mid[mar]
        "MEMREAD": lambda old, sar: (old, old),
        # mid[mar] = sar
        "MEMWRITE": lambda old, sar: (sar & mask, sar & mask),
        # mid[mar] = sar if sar > mid[mar]
        "MEMMAX": lambda old, sar: (max(old, sar & mask), max(old, sar & mask)),
    }


MEMORY_OPS: frozenset[str] = frozenset(make_salu_programs().keys())

#: Shard-merge semantics of each SALU microprogram, for the flow-sharded
#: engine (:mod:`repro.engine`).  A kind names the commutative monoid the
#: op's bucket updates form, so N shard replicas that each started from a
#: common base value can be folded back into one merged value:
#:
#: * ``"sum"``  — MEMADD/MEMSUB: bucket deltas are additive (mod 2^width);
#: * ``"or"``   — MEMOR: bucket updates only set bits;
#: * ``"and"``  — MEMAND: bucket updates only clear bits;
#: * ``"max"``  — MEMMAX: bucket updates are monotone maxima;
#: * ``"read"`` — MEMREAD: never mutates the bucket, so replicas stay
#:   identical as long as all *control-plane* writes fan out;
#: * ``None``   — MEMWRITE: a blind last-writer-wins store.  Write order
#:   across shards is undefined, so no merge can reproduce the
#:   single-process state; programs using it must be pinned to one shard.
#:
#: A kind is necessary but not sufficient for data-parallel execution: the
#: op's PHV output (``sar``) must also be *unobserved* downstream, because
#: a shard replica's bucket holds only that shard's partial aggregate (see
#: :mod:`repro.compiler.register_semantics` for the liveness check).
MERGE_SEMANTICS: dict[str, str | None] = {
    "MEMADD": "sum",
    "MEMSUB": "sum",
    "MEMAND": "and",
    "MEMOR": "or",
    "MEMMAX": "max",
    "MEMREAD": "read",
    "MEMWRITE": None,
}


def merge_buckets(
    kind: str, base: int, shard_values: list[int], width: int = 32
) -> int:
    """Fold one bucket's shard-replica values into the merged value.

    ``base`` is the common value all replicas started from (the
    coordinator's copy as of the last rebase); ``shard_values`` are the
    replicas' current values.  For ``"sum"`` each replica's delta from the
    base is accumulated; the monotone kinds fold directly.
    """
    mask = _wrap(width)
    if kind == "sum":
        merged = base
        for value in shard_values:
            merged = (merged + value - base) & mask
        return merged
    if kind == "max":
        return max(base, *shard_values) if shard_values else base
    if kind == "or":
        merged = base
        for value in shard_values:
            merged |= value
        return merged & mask
    if kind == "and":
        merged = base
        for value in shard_values:
            merged &= value
        return merged
    if kind == "read":
        return base
    raise ValueError(f"unknown merge kind {kind!r}")


@dataclass
class RegisterArray:
    """A stage-local SRAM register array behind one SALU."""

    name: str
    size: int
    width: int = 32

    def __post_init__(self) -> None:
        self._data = [0] * self.size
        self._programs = make_salu_programs(self.width)
        self.accesses = 0

    def execute(self, op: str, addr: int, operand: int) -> int:
        """Run a SALU microprogram on bucket ``addr``; returns the PHV value."""
        if not 0 <= addr < self.size:
            raise MemoryOutOfRangeError(f"{self.name}[{addr}] out of range (size {self.size})")
        program = self._programs.get(op)
        if program is None:
            raise ValueError(f"unknown SALU op {op!r}")
        self.accesses += 1
        new_value, output = program(self._data[addr], operand & _wrap(self.width))
        self._data[addr] = new_value
        return output

    # -- control plane access (raw APIs) ----------------------------------
    def read(self, addr: int) -> int:
        if not 0 <= addr < self.size:
            raise MemoryOutOfRangeError(f"{self.name}[{addr}] out of range (size {self.size})")
        return self._data[addr]

    def write(self, addr: int, value: int) -> None:
        if not 0 <= addr < self.size:
            raise MemoryOutOfRangeError(f"{self.name}[{addr}] out of range (size {self.size})")
        self._data[addr] = value & _wrap(self.width)

    def reset_range(self, start: int, length: int) -> None:
        """Zero ``length`` buckets starting at ``start`` (memory reclaim)."""
        if start < 0 or start + length > self.size:
            raise MemoryOutOfRangeError(
                f"{self.name}[{start}:{start + length}] out of range (size {self.size})"
            )
        for addr in range(start, start + length):
            self._data[addr] = 0

    def snapshot(self, start: int = 0, length: int | None = None) -> list[int]:
        if length is None:
            length = self.size - start
        return list(self._data[start : start + length])
