"""The dependency model shared by every cache derived from table contents.

Table mutations bump :class:`Version` counters (which ones, and what a
lookup depends on, is argued in :mod:`repro.rmt.table`).  A cached result
— a flow-cache trace, a generated function — records the ``(version, n)``
pairs of everything it read.  It stays valid while every recorded
version still reads ``n``; a control op that touches other programs'
pools therefore leaves it alone.

Every structural update also bumps the process-wide :data:`EPOCH`.  A
:class:`Dependent` stamped at the current epoch is valid after one
compare, so the hit path pays nothing while no control op arrives; a
stale stamp costs one walk over the few recorded pairs, after which the
dependent is re-stamped (or dropped).
"""

from __future__ import annotations


class Version:
    """A counter bumped by one kind of table mutation.  Dependents record
    ``(version, n)`` pairs for everything they read and stay valid while
    every recorded version still reads ``n``."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


#: Bumped by every structural update of every table in the process: the
#: one-compare fast check in front of a dependent's version walk.
EPOCH = Version()


class Dependent:
    """Base of every cached result derived from table contents (flow-cache
    entries, generated functions): an epoch stamp plus the versions read."""

    __slots__ = ("epoch", "versions")

    def revalidate(self, epoch: int) -> bool:
        """Slow half of the validity check, for a stamp older than
        ``epoch``: still valid (and re-stamped) iff nothing read changed."""
        for version, n in self.versions:
            if version.n != n:
                return False
        self.epoch = epoch
        return True
