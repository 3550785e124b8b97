"""Match-action tables.

The simulator supports exact and ternary matching with priorities, the two
kinds P4runpro's data plane uses (all P4runpro tables are ternary, paper
§7 "Entry Expansion").  Each entry binds a key to a named action plus
action data; the action implementation is resolved by the owning stage.

Hardware semantics preserved here:

* single-entry updates are atomic — a packet either sees an entry fully or
  not at all (the property P4runpro's consistent update builds on, §4.3);
* tables have a fixed capacity; inserting past it raises
  :class:`TableFullError` (the resource the allocator must budget);
* ternary matches are resolved by explicit priority (lower number wins),
  ties broken by insertion order, as TCAM entry ordering does.

Two lookup paths exist:

* the **compiled fast path** (:meth:`MatchActionTable.lookup`): entries are
  kept pre-sorted by ``(priority, handle)`` in per-bucket and unindexed
  pools so the scan early-exits on the first match; each entry's key tuple
  is compiled once into ``(slot, value & mask, mask)`` triples against the
  PHV's interned slot layout, so a key test is two list indexes and one
  masked compare;
* the **reference path** (:meth:`MatchActionTable.lookup_reference`): a
  naive full scan through :class:`TernaryKey.matches` used as the oracle by
  the equivalence property tests.

Derived state — the compiled pools below, the flow cache's traces and
the codegen tier's generated functions — is kept valid by one dependency
model, built from :class:`Version` counters:

* an indexed table keeps one version per index bucket plus one for its
  unindexed pool; an insert or delete bumps only the version of the pool
  the entry lives in, so a dependent that read bucket *b* (and the
  unindexed pool every bucket merges) survives mutations of bucket *c*;
* a lookup that could not use the index read every entry and depends on
  the table-wide version (:attr:`MatchActionTable.generation`);
* an unindexed table (the init filter table) depends on *what matched*:
  every entry carries a shadow version, bumped when the entry is deleted
  and when an insert lands ahead of it in ``(priority, handle)`` order.
  A new entry takes the largest handle, so it orders ahead only of
  entries with a larger priority number — a priority-0 append into a
  priority-0 table bumps nothing.  A lookup that matched entry *M*
  depends on *M*'s shadow (deleting a loser cannot change the winner; a
  packet that failed it still fails everything before *M*); a lookup
  that matched nothing depends on the table's insert counter (a delete
  cannot make a miss match).

Every structural update also bumps the process-wide epoch that
:mod:`repro.rmt.dependency` puts in front of the version walk.  Compiled
pools are table-internal, so they are dropped eagerly instead: a
mutation of bucket *b* drops *b*'s pool and the all-entries pool, one of
the unindexed pool drops them all.  A packet
in flight either sees an entry fully or not at all — never a half-built
index.  Deletes are tombstones (O(1) amortized): the entry is unlinked
from the handle map immediately and the sorted pools are compacted only
once tombstones pile up.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field

from . import flowcache
from .dependency import EPOCH, Version
from .phv import PHV


class TableFullError(RuntimeError):
    """Raised when an insert would exceed the table's capacity."""


class EntryNotFoundError(KeyError):
    """Raised when deleting or fetching an entry that does not exist."""


@dataclass(frozen=True)
class TernaryKey:
    """One match condition: ``phv[field] & mask == value & mask``."""

    field: str
    value: int
    mask: int

    def matches(self, phv: PHV) -> bool:
        if not phv.has(self.field):
            return False
        return (phv.get(self.field) & self.mask) == (self.value & self.mask)


def _entry_order(entry: "TableEntry") -> tuple[int, int]:
    return (entry.priority, entry.handle)


@dataclass
class TableEntry:
    """A single installed match-action entry."""

    keys: tuple[TernaryKey, ...]
    action: str
    action_data: dict = field(default_factory=dict)
    priority: int = 0
    handle: int = -1  # assigned by the table on insert
    #: direct counter: packets that matched this entry
    hits: int = 0
    #: False once deleted; tombstones are skipped by the fast path and
    #: swept out of the sorted pools in bulk
    live: bool = field(default=True, repr=False, compare=False)
    #: compiled key triples ``(field, value & mask, mask)`` — set at insert
    compiled_keys: tuple = field(default=None, repr=False, compare=False)
    #: action closure bound by the owning execution unit (e.g. an RPB),
    #: resolved once per deploy rather than per packet
    compiled_op: object = field(default=None, repr=False, compare=False)
    #: bumped on delete and whenever an insert lands ahead of this entry
    #: (what a lookup that matched it depends on)
    shadow: Version = field(default_factory=Version, repr=False, compare=False)

    def matches(self, phv: PHV) -> bool:
        return all(key.matches(phv) for key in self.keys)


class MatchActionTable:
    """A fixed-capacity ternary match-action table."""

    _handle_counter = itertools.count(1)

    def __init__(
        self,
        name: str,
        capacity: int,
        *,
        default_action: str | None = None,
        default_action_data: dict | None = None,
        index_field: str | None = None,
        index_mask: int = 0,
    ):
        self.name = name
        self.capacity = capacity
        self.default_action = default_action
        self.default_action_data = default_action_data or {}
        self._entries: dict[int, TableEntry] = {}
        #: Optional lookup acceleration: entries carrying a key on
        #: ``index_field`` with exactly ``index_mask`` are bucketed by the
        #: masked value (models hardware key hashing; purely an
        #: optimization, match semantics unchanged).
        self._index_field = index_field
        self._index_mask = index_mask
        self._index: dict[int, list[TableEntry]] = {}
        self._unindexed: list[TableEntry] = []
        #: the dependency model (module docstring): one version per index
        #: bucket, one for the unindexed pool, one table-wide, and an
        #: insert counter for unindexed lookups that matched nothing
        self._bucket_versions: dict[int, Version] = {}
        self._unindexed_version = Version()
        self._version = Version()
        self._inserts = Version()
        self._tombstones = 0
        #: compiled candidate pools, keyed by masked index value (or "*"
        #: for lookups that cannot use the index): bucket + unindexed
        #: entries merged in (priority, handle) order, each as a
        #: ``(slot_triples_or_None, entry)`` pair.  A mutation drops the
        #: pools that merged the touched pool; a layout change drops all.
        self._compiled_pools: dict = {}
        self._compiled_cl = None
        self._index_slot: int | None = None
        #: number of lookups / hits, for utilization reporting
        self.lookups = 0
        self.hits = 0

    @property
    def generation(self) -> int:
        """Table-wide structural-update count (any insert/delete/clear)."""
        return self._version.n

    def _index_value(self, entry: TableEntry) -> int | None:
        if self._index_field is None:
            return None
        for key in entry.keys:
            if key.field == self._index_field and key.mask == self._index_mask:
                return key.value & self._index_mask
        return None

    # -- management --------------------------------------------------------
    def _link(self, entry: TableEntry) -> int | None:
        """Assign a handle, compile the keys, register the entry; returns
        its index bucket (``None`` for the unindexed pool)."""
        handle = next(self._handle_counter)
        entry.handle = handle
        entry.live = True
        entry.compiled_keys = tuple(
            (key.field, key.value & key.mask, key.mask) for key in entry.keys
        )
        entry.compiled_op = None
        self._entries[handle] = entry
        return self._index_value(entry)

    def _bucket_version(self, bucket: int) -> Version:
        version = self._bucket_versions.get(bucket)
        if version is None:
            version = self._bucket_versions[bucket] = Version()
        return version

    def _touched(self, bucket: int | None) -> None:
        """Bump the version of the pool an entry went into or left
        (``None``: the unindexed pool), drop the compiled pools that
        merged it, and bump the table-wide version and the epoch."""
        pools = self._compiled_pools
        if bucket is None:
            self._unindexed_version.n += 1
            pools.clear()  # every bucket's pool merges the unindexed one
        else:
            self._bucket_version(bucket).n += 1
            pools.pop(bucket, None)
            pools.pop("*", None)
        self._version.n += 1
        EPOCH.n += 1

    def _shadow_after(self, priority: int) -> None:
        """An unindexed insert at ``priority`` (with a handle larger than
        every installed one) orders ahead of exactly the entries with a
        larger priority number — a suffix of the sorted pool.  Bump their
        shadows: a lookup that matched one of them may now lose."""
        for entry in reversed(self._unindexed):
            if entry.priority <= priority:
                break
            entry.shadow.n += 1

    def insert(self, entry: TableEntry) -> int:
        """Atomically install ``entry``; returns its handle."""
        if len(self._entries) >= self.capacity:
            raise TableFullError(f"table {self.name} full ({self.capacity} entries)")
        bucket = self._link(entry)
        if bucket is None:
            self._shadow_after(entry.priority)
            insort(self._unindexed, entry, key=_entry_order)
        else:
            pool = self._index.get(bucket)
            if pool is None:
                self._index[bucket] = [entry]
            else:
                insort(pool, entry, key=_entry_order)
        self._inserts.n += 1
        self._touched(bucket)
        return entry.handle

    def insert_many(self, entries: list["TableEntry"]) -> list[int]:
        """Install a group of entries in one structural update.

        Equivalent to calling :meth:`insert` per entry (handles are
        assigned in order and the resulting pool order is identical —
        ``_entry_order`` is total, so one stable sort after appending
        matches repeated ``insort``), but each touched pool is re-sorted
        once and its version bumped once for the whole group.  The
        capacity check happens up front, so a full table rejects the
        group before any entry lands.
        """
        if len(self._entries) + len(entries) > self.capacity:
            raise TableFullError(f"table {self.name} full ({self.capacity} entries)")
        buckets: dict[int, list[TableEntry]] = {}
        unindexed: list[TableEntry] = []
        for entry in entries:
            bucket = self._link(entry)
            if bucket is None:
                unindexed.append(entry)
            else:
                pool = self._index.get(bucket)
                if pool is None:
                    pool = self._index[bucket] = []
                pool.append(entry)
                buckets[bucket] = pool
        for pool in buckets.values():
            pool.sort(key=_entry_order)
        for bucket in buckets:
            self._touched(bucket)
        if unindexed:
            self._shadow_after(min(entry.priority for entry in unindexed))
            self._unindexed.extend(unindexed)
            self._unindexed.sort(key=_entry_order)
            self._touched(None)
        self._inserts.n += 1
        return [entry.handle for entry in entries]

    def delete(self, handle: int) -> None:
        """Atomically remove the entry with ``handle`` (O(1) amortized)."""
        entry = self._entries.pop(handle, None)
        if entry is None:
            raise EntryNotFoundError(f"table {self.name}: no entry {handle}")
        entry.live = False
        entry.shadow.n += 1
        self._tombstones += 1
        self._touched(self._index_value(entry))
        if self._tombstones > max(16, len(self._entries)):
            self._sweep()

    def _sweep(self) -> None:
        """Compact tombstones out of the sorted pools (the live entry set,
        and so every version, is unchanged)."""
        self._unindexed = [e for e in self._unindexed if e.live]
        for bucket in list(self._index):
            pool = [e for e in self._index[bucket] if e.live]
            if pool:
                self._index[bucket] = pool
            else:
                del self._index[bucket]
        self._tombstones = 0

    def get(self, handle: int) -> TableEntry:
        if handle not in self._entries:
            raise EntryNotFoundError(f"table {self.name}: no entry {handle}")
        return self._entries[handle]

    def clear(self) -> None:
        for entry in self._entries.values():
            entry.live = False
            entry.shadow.n += 1
        self._entries.clear()
        self._index.clear()
        self._unindexed.clear()
        self._tombstones = 0
        for version in self._bucket_versions.values():
            version.n += 1
        self._touched(None)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self._entries)

    def utilization(self) -> float:
        return len(self._entries) / self.capacity if self.capacity else 0.0

    def entries(self) -> list[TableEntry]:
        return list(self._entries.values())

    # -- data plane ----------------------------------------------------------
    def lookup(self, phv: PHV) -> tuple[str, dict] | None:
        """Find the highest-priority matching entry.

        Returns ``(action, action_data)``; falls back to the default action
        if no entry matches, or ``None`` if there is no default either.
        """
        entry = self.lookup_entry(phv)
        if entry is not None:
            return entry.action, entry.action_data
        if self.default_action is not None:
            return self.default_action, self.default_action_data
        return None

    def lookup_entry(self, phv: PHV) -> TableEntry | None:
        """Fast path: return the winning live entry (or ``None``), updating
        the lookup/hit counters exactly as :meth:`lookup` does."""
        rec = flowcache._RECORDER
        if rec is not None:
            return self._lookup_entry_recorded(rec, phv)
        self.lookups += 1
        cl = phv.cl
        if self._compiled_cl is not cl:
            self._recompile(cl)
        if self._index_field is not None:
            index_slot = self._index_slot
            if index_slot is not None:
                index_value = phv.slots[index_slot]
            elif phv.has(self._index_field):
                # Index field lives outside the slot layout (late-declared);
                # fall back to the dict API for the bucket selection.
                index_value = phv.get(self._index_field)
            else:
                index_value = None
            key = index_value & self._index_mask if index_value is not None else "*"
        else:
            key = "*"
        pool = self._compiled_pools.get(key)
        if pool is None:
            pool = self._build_pool(key, cl)
        slots = phv.slots
        for triples, entry in pool:
            if triples is None:
                # Entry keyed on a field outside this layout's slot space:
                # match through the generic dict-API path.
                if entry.matches(phv):
                    self.hits += 1
                    entry.hits += 1
                    return entry
                continue
            for slot, value, mask in triples:
                pv = slots[slot]
                if pv is None or (pv & mask) != value:
                    break
            else:
                self.hits += 1
                entry.hits += 1
                return entry
        return None

    def _lookup_entry_recorded(self, rec, phv: PHV) -> TableEntry | None:
        """Recording-pass lookup: identical semantics and counters to
        :meth:`lookup_entry`, but every key consulted along the scan is
        reported to the flow-cache recorder — the per-failing-entry keys
        up to and including the first mismatch, and the winner's full key
        set.  Entries after the winner are never consulted, so their
        masks stay out of the megaflow key (that is what makes the cache
        a *megaflow* cache rather than an exact-match one)."""
        self.lookups += 1
        cl = phv.cl
        if self._compiled_cl is not cl:
            self._recompile(cl)
        if self._index_field is not None:
            if phv.has(self._index_field):
                rec.note_field_consult(self._index_field, self._index_mask)
                key = phv.get(self._index_field) & self._index_mask
            else:
                rec.note_field_absent(self._index_field)
                key = "*"
        else:
            key = "*"
        pool = self._compiled_pools.get(key)
        if pool is None:
            pool = self._build_pool(key, cl)
        for _triples, entry in pool:
            matched = True
            for fname, value, mask in entry.compiled_keys:
                if not phv.has(fname):
                    rec.note_field_absent(fname)
                    matched = False
                    break
                rec.note_field_consult(fname, mask)
                if (phv.get(fname) & mask) != value:
                    matched = False
                    break
            if matched:
                self.hits += 1
                entry.hits += 1
                rec.note_lookup(self, entry, self.versions_read(key, entry))
                return entry
        rec.note_lookup(self, None, self.versions_read(key, None))
        return None

    def versions_read(self, key, winner: TableEntry | None) -> tuple:
        """The ``(version, n)`` pairs a lookup depends on that scanned the
        pool for ``key`` (a masked index value, or ``"*"``) and stopped at
        ``winner`` (``None``: ran off the end) — the rules of the module
        docstring.  For an unindexed table that is the winner's shadow,
        which also serves a chain that tests ``winner``: it moves when
        ``winner`` goes or an insert lands ahead of it."""
        if self._index_field is None:
            version = self._inserts if winner is None else winner.shadow
            return ((version, version.n),)
        if key == "*":
            return ((self._version, self._version.n),)
        return self.pool_versions(key)

    def pool_versions(self, key) -> tuple:
        """Versions of everything a scan of bucket ``key``'s merged pool
        reads: the bucket itself plus the unindexed pool (``"*"`` or an
        unindexed table: every entry)."""
        if key == "*" or self._index_field is None:
            return ((self._version, self._version.n),)
        bucket = self._bucket_version(key)
        unindexed = self._unindexed_version
        return ((bucket, bucket.n), (unindexed, unindexed.n))

    def _recompile(self, cl) -> None:
        """Reset compiled lookup state for a new PHV layout."""
        self._compiled_pools = {}
        self._compiled_cl = cl
        self._index_slot = (
            cl.slot_of.get(self._index_field) if self._index_field is not None else None
        )

    def _build_pool(self, key, cl) -> list:
        """Compile the candidate pool for one masked index value.

        The pool merges the bucket's entries with the unindexed entries in
        (priority, handle) order — which is exactly "lowest priority wins,
        ties broken by insertion order" — and resolves every entry's keys
        to slot triples once, so the per-packet scan is a flat loop.
        """
        if key == "*":
            candidates = sorted(self._entries.values(), key=_entry_order)
        else:
            bucket = self._index.get(key, ())
            unindexed = self._unindexed
            if not unindexed:
                candidates = [e for e in bucket if e.live]
            elif not bucket:
                candidates = [e for e in unindexed if e.live]
            else:
                candidates = sorted(
                    [e for e in bucket if e.live] + [e for e in unindexed if e.live],
                    key=_entry_order,
                )
        slot_of = cl.slot_of
        pool = []
        for entry in candidates:
            triples: tuple | None = tuple(
                (slot_of[fname], value, mask)
                for fname, value, mask in entry.compiled_keys
                if fname in slot_of
            )
            if len(triples) != len(entry.compiled_keys):
                triples = None
            pool.append((triples, entry))
        if len(self._compiled_pools) >= 4096:
            # Pathological probe streams could otherwise grow one pool per
            # distinct masked index value without bound.
            self._compiled_pools.clear()
        self._compiled_pools[key] = pool
        return pool

    # -- reference path -------------------------------------------------------
    def lookup_reference_entry(self, phv: PHV) -> TableEntry | None:
        """Naive full-scan oracle: same semantics as the fast path —
        lowest priority wins, ties broken by insertion order (handle) —
        implemented directly from the documented TCAM rules.  Updates no
        counters; used by the equivalence property tests."""
        best: TableEntry | None = None
        for entry in self._entries.values():
            if entry.matches(phv):
                if best is None or (entry.priority, entry.handle) < (
                    best.priority,
                    best.handle,
                ):
                    best = entry
        return best

    def lookup_reference(self, phv: PHV) -> tuple[str, dict] | None:
        entry = self.lookup_reference_entry(phv)
        if entry is not None:
            return entry.action, entry.action_data
        if self.default_action is not None:
            return self.default_action, self.default_action_data
        return None
