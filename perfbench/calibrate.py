"""How fast the host runs Python, measured while the benchmark runs.

The benchmark's host is a small virtual machine whose speed changes from
one second to the next, by up to half, with no steal to show it: its
physical CPUs run other guests' work too, so the VM keeps its CPUs but
each does less in a second.  Every host-time figure of ``serve`` moves
with it.

So the idle spinners (``serveproc.IdleSpinners``) do not just spin: each
runs :func:`spin_round`, a fixed piece of interpreter work, over and over
at ``SCHED_IDLE`` priority, and after every round no other task
interrupted publishes how many such rounds it finished and the CPU time
they took.  The spinners run only when nothing else wants their CPU, but
that is often (every few milliseconds), so the CPU seconds per round over
any stretch of a run is how fast the host was running Python then.
:class:`SpeedLog` samples the counters, and the report scales each
host-time figure to a reference speed: it reads as it would on a host
where one round takes ``REFERENCE_S``.

The round is the benchmark's own code, never ``src``: a change to
``serve`` cannot move it.  It does the kinds of work ``serve`` does per
packet, in the interpreter: tuple-keyed dict lookups and updates,
attribute access and method calls, ``struct`` packing, small integer
arithmetic and string formatting.

Run as ``python3 calibrate.py COUNTERS SLOT`` it is one spinner.
"""

from __future__ import annotations

import bisect
import mmap
import os
import resource
import struct
import sys
import time
from pathlib import Path

#: CPU seconds one round takes on the reference host (about what a
#: 2-vCPU Xeon VM at 2.1 GHz with Python 3.11 takes, in round figures)
REFERENCE_S = 0.0004
#: per spinner: a sequence number (odd while the spinner rewrites the
#: slot), clean rounds finished, their CPU nanoseconds
SLOT = struct.Struct("<qqq")
_SEQ = struct.Struct("<q")
#: a speed needs at least this many rounds behind it; shorter stretches
#: are widened to the neighbouring samples until they have them
MIN_ROUNDS = 200

_PACK = struct.Struct("!IIIHH")


class _Flow:
    __slots__ = ("key", "hits", "bytes")

    def __init__(self, key):
        self.key = key
        self.hits = 0
        self.bytes = 0

    def touch(self, size: int) -> int:
        self.hits += 1
        self.bytes += size
        return self.hits


def spin_round() -> int:
    """One round: fixed interpreter work, ``REFERENCE_S`` on the reference host."""
    table: dict[tuple, _Flow] = {}
    acc = 0
    for i in range(300):
        j = i % 100
        key = (j * 2654435761 & 0xFFFFFFFF, j & 0xFF, 6 + (j & 1), 1024 + j, 80)
        flow = table.get(key)
        if flow is None:
            flow = table[key] = _Flow(key)
        acc += flow.touch(64 + (i & 63))
        acc ^= _PACK.unpack(_PACK.pack(*key))[3]
        if i % 50 == 0:
            acc += len(f"{key[0]:08x}:{key[3]}:{acc & 0xFFFF}")
    return acc


class Counters:
    """The spinners' shared counters: a file of one ``SLOT`` per spinner,
    mapped into every process that uses it."""

    def __init__(self, path: Path, slots: int):
        path.write_bytes(bytes(SLOT.size * slots))
        self.slots = slots
        self.last = [(0, 0)] * slots
        with open(path, "r+b") as f:
            self.map = mmap.mmap(f.fileno(), 0)

    def wait_started(self, timeout_s: float = 30.0) -> None:
        """Wait until every spinner has finished a round."""
        deadline = time.monotonic() + timeout_s
        while any(self._slot(slot)[0] == 0 for slot in range(self.slots)):
            if time.monotonic() > deadline:
                raise RuntimeError(f"the speed spinners did not start within {timeout_s} s")
            time.sleep(0.01)

    def read(self) -> tuple[int, int]:
        """(rounds, CPU ns) summed over the spinners."""
        rounds = cpu = 0
        for slot in range(self.slots):
            r, c = self._slot(slot)
            rounds += r
            cpu += c
        return rounds, cpu

    def _slot(self, slot: int) -> tuple[int, int]:
        # A spinner may be rewriting its slot, and may stay preempted
        # half-way for as long as this process runs on its CPU: a read
        # that saw a write in progress keeps the slot's last whole value.
        at = slot * SLOT.size
        seq, rounds, cpu = SLOT.unpack(self.map[at:at + SLOT.size])
        if seq % 2 == 0 and _SEQ.unpack(self.map[at:at + _SEQ.size])[0] == seq:
            self.last[slot] = (rounds, cpu)
        return self.last[slot]

    def close(self) -> None:
        self.map.close()


class SpeedLog:
    """Samples of the spinners' counters over time, and the host's speed
    over any stretch between them."""

    def __init__(self, counters: Counters | None):
        self.counters = counters
        self.times: list[float] = []
        #: (rounds, CPU ns) at each of ``times``
        self.counts: list[tuple[int, int]] = []

    def sample(self, t: float) -> None:
        if self.counters is not None:
            self.times.append(t)
            self.counts.append(self.counters.read())

    def round_s(self, a: float, b: float) -> float | None:
        """CPU seconds per round from the last sample at or before ``a``
        to the first at or after ``b``, widened both ways until MIN_ROUNDS
        rounds lie between; None without samples."""
        counts, last = self.counts, len(self.counts) - 1
        if last < 1:
            return None
        i = max(bisect.bisect_right(self.times, a) - 1, 0)
        j = min(max(bisect.bisect_left(self.times, b), i + 1), last)
        while counts[j][0] - counts[i][0] < MIN_ROUNDS and (i > 0 or j < last):
            i, j = max(i - 1, 0), min(j + 1, last)
        rounds = counts[j][0] - counts[i][0]
        return (counts[j][1] - counts[i][1]) / 1e9 / rounds if rounds else None

    def slowdown(self, a: float, b: float) -> float:
        """How many times slower than the reference the host ran Python
        from ``a`` to ``b`` (1.0 when unknown)."""
        round_s = self.round_s(a, b)
        return round_s / REFERENCE_S if round_s else 1.0


def _switches() -> int:
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    return usage.ru_nvcsw + usage.ru_nivcsw


def spin(path: str, slot: int) -> None:
    """Run rounds for ever, publishing the clean ones: a round during which
    another task took the CPU paid for refilling the caches that task
    emptied, so it would measure how busy ``serve`` was, not the host."""
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    with open(path, "r+b") as f:
        counters = mmap.mmap(f.fileno(), 0)
    at = slot * SLOT.size
    seq = rounds = cpu_ns = 0
    while True:
        switches = _switches()
        t0 = time.thread_time_ns()
        spin_round()
        t1 = time.thread_time_ns()
        if _switches() == switches:
            rounds += 1
            cpu_ns += t1 - t0
            # slice stores, not pack_into, which zeroes the slot first
            counters[at:at + _SEQ.size] = _SEQ.pack(seq + 1)
            counters[at:at + SLOT.size] = SLOT.pack(seq + 1, rounds, cpu_ns)
            seq += 2
            counters[at:at + _SEQ.size] = _SEQ.pack(seq)


if __name__ == "__main__":
    spin(sys.argv[1], int(sys.argv[2]))
