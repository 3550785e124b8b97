"""Per-packet execution tracing.

Captures every atomic operation a packet triggers — which block/RPB ran
it, the action and its data, and the register state afterwards — exactly
the walkthrough the paper's Figure 3 draws for the program cache.  Used
by the CLI's ``trace`` command and by tests as an execution oracle.

Usage::

    with capture_trace() as trace:
        result = dataplane.process(packet)
    for step in trace.steps:
        print(step)
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from ..rmt.phv import PHV


@dataclass(frozen=True)
class TraceStep:
    """One executed atomic operation."""

    unit: str  # "init", "rpb7", "recirc", ...
    action: str
    data: tuple[tuple[str, object], ...]
    har: int
    sar: int
    mar: int
    program_id: int
    branch_id: int
    recirc_count: int

    def __str__(self) -> str:
        data = ", ".join(f"{k}={v}" for k, v in self.data)
        return (
            f"{self.unit:>7s}  {self.action}({data})  "
            f"har={self.har:#x} sar={self.sar:#x} mar={self.mar:#x}  "
            f"prog={self.program_id} branch={self.branch_id} "
            f"pass={self.recirc_count}"
        )


@dataclass
class Trace:
    """All steps one (or more) packets executed while capturing."""

    steps: list[TraceStep] = field(default_factory=list)

    def record(self, unit: str, action: str, data: dict, phv: PHV) -> None:
        self.steps.append(
            TraceStep(
                unit=unit,
                action=action,
                data=tuple(sorted(data.items())),
                har=phv.get("ud.har") if phv.has("ud.har") else 0,
                sar=phv.get("ud.sar") if phv.has("ud.sar") else 0,
                mar=phv.get("ud.mar") if phv.has("ud.mar") else 0,
                program_id=phv.get("ud.program_id") if phv.has("ud.program_id") else 0,
                branch_id=phv.get("ud.branch_id") if phv.has("ud.branch_id") else 0,
                recirc_count=phv.get("ud.recirc_count"),
            )
        )

    def actions(self) -> list[str]:
        return [step.action for step in self.steps]

    def by_unit(self) -> dict[str, list[TraceStep]]:
        grouped: dict[str, list[TraceStep]] = {}
        for step in self.steps:
            grouped.setdefault(step.unit, []).append(step)
        return grouped

    def render(self) -> str:
        return "\n".join(str(step) for step in self.steps)


#: The active trace, if any (single-threaded simulator).
_ACTIVE: Trace | None = None


def active_trace() -> Trace | None:
    return _ACTIVE


def emit(unit: str, action: str, data: dict, phv: PHV) -> None:
    """Record a step on the active trace (no-op when not tracing)."""
    if _ACTIVE is not None:
        _ACTIVE.record(unit, action, data, phv)


@contextlib.contextmanager
def capture_trace():
    """Capture every executed operation within the block.

    Tracing needs the interpreter's walk — generated code records no
    steps — so codegen defers every packet to the interpreter (its
    ``tracing`` fallback) while a capture is active.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = Trace()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
