"""Sharded columnar storage: hash-partitioned code matrices.

This module is a *storage layout*, not an execution engine: a
:class:`ShardedColumnarRelation` stores its tuples as ``shard_count``
independent :class:`~repro.db.columnar.ColumnarRelation` shards — each
a compacted main segment plus delta segments — over **one shared
dictionary**.  Rows are routed by a multiplicative hash of the code in
one *key column*, so equal tuples always land in the same shard and
the shards partition the tuple set.

What the layout buys is per-shard *storage* work: hash-routed batched
ingestion, per-shard delta logs and compaction, per-shard checkpoint
files, and an LRU :class:`~repro.db.spill.SpillPool` that keeps cold
shards' main segments on disk.  Those per-shard maps dispatch through
the relation's :class:`~repro.db.executor.ShardExecutor`.  Queries do
not see the partitioning: dictionary codes are append-only and global,
so the shards' code matrices concatenate into one ordinary columnar
code matrix, and every algorithm (joins, FAQ message passing, direct
access, enumeration, Generic Join) reads the relation through
:meth:`ShardedColumnarRelation.codes` — the cached shard
concatenation — exactly as it reads an unsharded
:class:`~repro.db.columnar.ColumnarRelation`.  A query's working set
is therefore O(m) whatever the shard count or spill budget.

**Ingestion.**  ``add_all`` encodes the whole batch once, computes the
shard of every row in one vectorized hash pass, and hands each shard
its sub-batch as a code matrix (:meth:`ColumnarRelation.
add_coded_batch`) — no per-row Python beyond the encode boundary that
every backend pays.  Single-tuple ``add``/``discard`` route to the
owning shard's delta segments in O(1).

**Consistency.**  Each shard keeps its own ``mutation_stamp`` /
``delta_since`` history, so the PR 3 consistency contract holds
*shard-locally*; the sharded relation exposes the same contract
globally by translating a global stamp back to the per-shard stamps it
corresponds to (a small routing history) and concatenating the shard
deltas.  When any shard compacted past the requested stamp the global
``delta_since`` raises :class:`~repro.db.interface.
TruncatedHistoryError` under the *parent's* name and global stamps —
exactly the columnar contract.

**Durability.**  Each shard carries a :class:`_ShardJournal`
forwarding hook: shard-level ops and barriers are mirrored into the
parent's write-ahead log under the parent's name.  Replay is purely
parent-level — routing is deterministic (bit-identical scalar and
vectorized hashes), so re-applying the parent-named records rebuilds
identical shards without persisting any shard ids.

**Coalesce counter.**  Every multi-shard concatenation in
``codes()`` reports its row count through :func:`note_coalesce`;
:func:`coalesced_row_peak` reads the largest one since the last reset.
It is a plain counter for benchmarks (how many rows did serving this
query concatenate), not a promise that any path avoids coalescing.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.columnar import (
    DELTA_COMPACT_MIN,
    ColumnarRelation,
    Dictionary,
    Value,
)
from repro.db.executor import SERIAL, ShardExecutor, get_default_executor
from repro.db.interface import TruncatedHistoryError

# Default number of shards for relations created without an explicit
# count (Database(backend="sharded")).  Database.to_backend("sharded")
# sizes by input instead (repro.db.interface.preferred_shard_count).
DEFAULT_SHARD_COUNT = 4

# Routing-history length bound: single-tuple ops append one (global
# stamp, shard, shard stamp) entry so delta_since can translate global
# stamps back to per-shard ones.  Past the bound the history is
# rebased (old stamps become unanswerable — callers rebuild), mirroring
# the weight-log truncation of repro.semiring.faq.WeightedDatabase.
_HISTORY_LIMIT = 8192

# 64-bit multiplicative (Fibonacci) hash constant; spreads consecutive
# dictionary codes across shards even though codes are dense.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# ----------------------------------------------------------------------
# coalesce instrumentation
# ----------------------------------------------------------------------
# Peak row count of any multi-shard coalesce since the last reset.
# The read-compare-write is lock-guarded: concurrent readers can
# coalesce different relations at once, and an unguarded max would let
# a smaller concurrent peak overwrite a larger one.
_COALESCED_PEAK = 0
_COALESCED_LOCK = threading.Lock()


def coalesced_row_peak() -> int:
    """Largest multi-shard coalesce (rows) since the last reset."""
    return _COALESCED_PEAK


def reset_coalesced_row_peak() -> None:
    global _COALESCED_PEAK
    with _COALESCED_LOCK:
        _COALESCED_PEAK = 0


def note_coalesce(rows: int) -> None:
    """Record a global (cross-shard) materialization of ``rows`` rows."""
    global _COALESCED_PEAK
    with _COALESCED_LOCK:
        if rows > _COALESCED_PEAK:
            _COALESCED_PEAK = rows


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def shard_of_code(code: int, shard_count: int) -> int:
    """The shard owning one dictionary code (scalar hash route).

    Fibonacci hash, then a multiply-shift range map over the *high*
     32 bits — the low bits of ``code * odd-constant`` are a mere
    permutation of ``code mod 2^k``, so a ``% shard_count`` route
    would partition dense codes with visible skew.
    """
    if shard_count <= 1:
        return 0
    mixed = (int(code) * _MIX) & _MASK
    mixed ^= mixed >> 33
    return int(((mixed >> 32) * shard_count) >> 32)


def shard_ids(key_codes: np.ndarray, shard_count: int) -> np.ndarray:
    """Per-row shard ids for a key-code column (vectorized hash route).

    Bit-identical to :func:`shard_of_code` applied elementwise, so the
    single-tuple and batched ingestion paths can never disagree about
    a tuple's owning shard.
    """
    if shard_count <= 1:
        return np.zeros(len(key_codes), dtype=np.int64)
    mixed = key_codes.astype(np.uint64) * np.uint64(_MIX)
    mixed ^= mixed >> np.uint64(33)
    high = mixed >> np.uint64(32)
    return ((high * np.uint64(shard_count)) >> np.uint64(32)).astype(
        np.int64
    )


class _ShardJournal:
    """Forwards a shard's journal records under the *parent's* name.

    Shards are internal ("R#3" never appears in the WAL): routing is
    deterministic, so replaying parent-named records through the
    parent's routed mutation methods reconstructs identical shards.
    The parent's journal is looked up per record, so attaching or
    detaching durability on the parent takes effect immediately.
    """

    __slots__ = ("_parent",)

    def __init__(self, parent: "ShardedColumnarRelation") -> None:
        self._parent = parent

    def record_op(self, _name: str, coded, is_insert: bool) -> None:
        journal = self._parent._journal
        if journal is not None:
            journal.record_op(self._parent.name, coded, is_insert)

    def record_batch(self, _name: str, codes) -> None:
        journal = self._parent._journal
        if journal is not None:
            journal.record_batch(self._parent.name, codes)

    def record_remove(self, _name: str, codes) -> None:
        journal = self._parent._journal
        if journal is not None:
            journal.record_remove(self._parent.name, codes)

    def record_compact(self, _name: str) -> None:
        journal = self._parent._journal
        if journal is not None:
            journal.record_compact(self._parent.name)


class ShardedColumnarRelation(ColumnarRelation):
    """A columnar relation hash-partitioned into independent shards.

    Drop-in replacement for :class:`ColumnarRelation` (it *is* one, so
    every columnar code path accepts it): same mutation/access/operator
    surface, same set semantics, one shared dictionary.  Storage is a
    list of per-shard :class:`ColumnarRelation` objects; rows are
    routed by hashing the dictionary code of the ``key_column``
    (default: the first column), so the shards are disjoint and the
    routing of a tuple never changes.

    Storage-level consumers (checkpoints, the spill pool) read the
    shards via :attr:`shards` / :meth:`shard_delta_since`; every query
    algorithm reads :meth:`codes`, the cached shard concatenation.
    """

    backend = "sharded"

    def __init__(
        self,
        name: str,
        arity: int,
        rows: Optional[Iterable[Sequence[Value]]] = None,
        dictionary: Optional[Dictionary] = None,
        shard_count: Optional[int] = None,
        key_column: int = 0,
        executor: Optional[ShardExecutor] = None,
        spill=None,
    ) -> None:
        super().__init__(name, arity, rows=None, dictionary=dictionary)
        if shard_count is None:
            shard_count = DEFAULT_SHARD_COUNT
        if shard_count < 1:
            raise ValueError("shard_count must be positive")
        if arity == 0:
            key_column = 0
        elif not 0 <= key_column < arity:
            raise IndexError(
                f"key column {key_column} out of range for arity {arity}"
            )
        self.shard_count = shard_count
        self.key_column = key_column
        # Injected ShardExecutor for per-shard fan-outs (None => the
        # process default, see repro.db.executor).
        self.executor = executor
        self._shards: List[ColumnarRelation] = [
            ColumnarRelation(
                f"{name}#{i}", arity, dictionary=self.dictionary
            )
            for i in range(shard_count)
        ]
        # Routing history: (global stamp, shard index, shard stamp)
        # per single-tuple op since the last barrier, so delta_since
        # can translate a recorded global stamp to per-shard stamps.
        self._history: List[Tuple[int, int, int]] = []
        self._global_base_stamp = 0
        self._base_shard_stamps: List[int] = [0] * shard_count
        self._coalesced: Optional[np.ndarray] = None
        self.spill = None
        if spill is not None:
            self.attach_spill(spill)
        if rows is not None:
            self.add_all(rows)

    def attach_spill(self, pool) -> None:
        """Hand every shard's main segment to a
        :class:`repro.db.spill.SpillPool` (residency becomes
        pool-managed; see the spill module docstring)."""
        self.spill = pool
        for shard in self._shards:
            pool.register(shard)

    # ------------------------------------------------------------------
    # internal state
    # ------------------------------------------------------------------
    @property
    def _journal(self):
        return self.__dict__.get("_journal_value")

    @_journal.setter
    def _journal(self, journal) -> None:
        # Attaching durability on the parent wires every shard's hook
        # through a _ShardJournal (records surface under the parent's
        # name); detaching unhooks the shards so the no-durability
        # mutation path stays a single None check.
        self.__dict__["_journal_value"] = journal
        wrapper = _ShardJournal(self) if journal is not None else None
        for shard in getattr(self, "_shards", ()):
            shard._journal = wrapper

    def _exec(self) -> ShardExecutor:
        """Executor for read-only per-shard fan-outs."""
        executor = self.executor
        return executor if executor is not None else get_default_executor()

    def _mutation_exec(self) -> ShardExecutor:
        """Executor for *mutating* per-shard fan-outs.

        Serialized whenever durability or spilling is attached: WAL
        records from two shards must not interleave in the log, and a
        spill demotion triggered by one shard's barrier must not swap a
        sibling shard's main segment mid-rewrite.  Plain in-memory
        relations parallelize freely — shard state is disjoint.
        """
        if self._journal is not None or self.spill is not None:
            return SERIAL
        return self._exec()

    def _invalidate(self) -> None:
        super()._invalidate()
        self._coalesced = None

    def _rebase(self) -> None:
        """Truncate routing history (a global history barrier)."""
        self._history.clear()
        self._global_base_stamp = self.mutation_stamp
        self._base_shard_stamps = [
            shard.mutation_stamp for shard in self._shards
        ]

    def _owning_shard(self, coded: Sequence[int]) -> int:
        if self.arity == 0:
            return 0
        return shard_of_code(coded[self.key_column], self.shard_count)

    def _route_codes(self, codes: np.ndarray) -> np.ndarray:
        if self.arity == 0 or self.shard_count == 1:
            return np.zeros(len(codes), dtype=np.int64)
        return shard_ids(codes[:, self.key_column], self.shard_count)

    def _apply_one(self, coded: Tuple[int, ...], insert: bool) -> None:
        shard_index = self._owning_shard(coded)
        shard = self._shards[shard_index]
        shard.apply_coded(coded, insert)
        self._invalidate()
        self._history.append(
            (self.mutation_stamp, shard_index, shard.mutation_stamp)
        )
        if len(self._history) > _HISTORY_LIMIT:
            self._rebase()

    # ------------------------------------------------------------------
    # shard introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[ColumnarRelation, ...]:
        """The per-shard stores (read-only by convention)."""
        return tuple(self._shards)

    def shard_sizes(self) -> List[int]:
        """Tuples per shard (reveals partition skew)."""
        return [len(shard) for shard in self._shards]

    def shard_stamps(self) -> Tuple[int, ...]:
        """Each shard's current ``mutation_stamp`` (shard-local contract)."""
        return tuple(shard.mutation_stamp for shard in self._shards)

    def shard_delta_since(
        self, shard_index: int, stamp: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One shard's net delta since a *shard-local* stamp (raises
        :class:`~repro.db.interface.TruncatedHistoryError` under the
        shard's own name when its history is gone)."""
        return self._shards[shard_index].delta_since(stamp)

    # ------------------------------------------------------------------
    # consistency contract
    # ------------------------------------------------------------------
    @property
    def mutation_stamp(self) -> int:
        """Monotone global stamp: the sum of the shard stamps."""
        return sum(shard.mutation_stamp for shard in self._shards)

    @property
    def delta_size(self) -> int:
        return sum(shard.delta_size for shard in self._shards)

    def delta_since(self, stamp: int) -> Tuple[np.ndarray, np.ndarray]:
        """Net ``(inserted, deleted)`` code rows since a global stamp.

        Translates the global stamp to the per-shard stamps it
        corresponds to (via the routing history) and concatenates the
        shards' exact net deltas.  Raises
        :class:`~repro.db.interface.TruncatedHistoryError` — under the
        parent's name and global stamps — when the routing history was
        rebased past ``stamp`` or any shard compacted its own history
        away; callers rebuild, exactly as for the unsharded contract.
        """
        empty = np.empty((0, self.arity), dtype=np.int64)
        current = self.mutation_stamp
        if stamp == current:
            return empty, empty
        if stamp < self._global_base_stamp or stamp > current:
            raise TruncatedHistoryError(
                self.name, stamp, self._global_base_stamp
            )
        targets = list(self._base_shard_stamps)
        for global_stamp, shard_index, shard_stamp in self._history:
            if global_stamp > stamp:
                break
            targets[shard_index] = shard_stamp
        def shard_delta(pair: Tuple[ColumnarRelation, int]):
            shard, target = pair
            return shard.delta_since(target)

        try:
            deltas = self._exec().map(
                shard_delta, list(zip(self._shards, targets))
            )
        except TruncatedHistoryError as exc:
            raise TruncatedHistoryError(
                self.name, stamp, self._global_base_stamp
            ) from exc
        inserted_parts: List[np.ndarray] = []
        deleted_parts: List[np.ndarray] = []
        for inserted, deleted in deltas:
            if len(inserted):
                inserted_parts.append(inserted)
            if len(deleted):
                deleted_parts.append(deleted)

        def cat(parts: List[np.ndarray]) -> np.ndarray:
            if not parts:
                return empty
            if len(parts) == 1:
                return parts[0]
            return np.concatenate(parts, axis=0)

        return cat(inserted_parts), cat(deleted_parts)

    def compact(self) -> None:
        """Fold every shard's delta segments in (content unchanged)."""
        self._mutation_exec().map(
            lambda shard: shard.compact(), self._shards
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, row: Sequence[Value]) -> None:
        """Insert one tuple into its owning shard (O(1) delta append)."""
        tup = self._check_width(tuple(row))
        encode = self.dictionary.encode
        self._apply_one(tuple(encode(v) for v in tup), True)

    def discard(self, row: Sequence[Value]) -> None:
        """Remove a tuple if present, from its owning shard (O(1))."""
        tup = self._check_width(tuple(row))
        coded = []
        for value in tup:
            code = self.dictionary.encode_existing(value)
            if code is None:
                return  # value unseen => tuple cannot be stored
            coded.append(code)
        self._apply_one(tuple(coded), False)

    def apply_coded(self, coded: Sequence[int], insert: bool = True) -> None:
        """One insert/delete of an already-encoded tuple, routed to
        its owning shard (the code-level counterpart of
        :meth:`add`/:meth:`discard`)."""
        if len(coded) != self.arity:
            raise ValueError(
                f"coded row of width {len(coded)} for arity {self.arity}"
            )
        self._apply_one(tuple(int(c) for c in coded), insert)

    def add_coded_batch(self, codes: np.ndarray) -> None:
        """Bulk-insert already-encoded rows, hash-routed to the shards
        (a history barrier, like the unsharded counterpart)."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            codes = codes.reshape(len(codes), self.arity)
        if not len(codes):
            return
        ids = self._route_codes(codes)
        work = []
        for index, shard in enumerate(self._shards):
            part = codes[ids == index]
            if len(part):
                work.append((shard, part))
        self._mutation_exec().map(
            lambda item: item[0].add_coded_batch(item[1]), work
        )
        self._invalidate()
        self._rebase()

    def remove_coded_batch(self, codes: np.ndarray) -> int:
        """Bulk-delete already-encoded rows, hash-routed to the shards.

        A matching removal is a global history barrier, like the
        unsharded counterpart; an empty or fully-absent batch touches
        nothing.  WAL replay and replication followers use this to
        re-apply ``retain`` barriers (logged as removed code rows).
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            codes = codes.reshape(len(codes), self.arity)
        if not len(codes):
            return 0
        ids = self._route_codes(codes)
        work = []
        for index, shard in enumerate(self._shards):
            part = codes[ids == index]
            if len(part):
                work.append((shard, part))
        removed = sum(
            self._mutation_exec().map(
                lambda item: item[0].remove_coded_batch(item[1]), work
            )
        )
        if removed:
            self._invalidate()
            self._rebase()
        return removed

    def add_all(self, rows: Iterable[Sequence[Value]]) -> None:
        """Batched ingestion: encode once, route whole code batches.

        One encode pass, one vectorized hash-routing pass, then each
        shard receives its sub-batch as a code matrix.  Small batches
        (``<= DELTA_COMPACT_MIN`` rows) route through the shards'
        delta segments and keep history; larger ones are per-shard
        bulk rewrites and act as a global history barrier.
        """
        fresh = self.dictionary.encode_rows(
            (self._check_width(tuple(r)) for r in rows), self.arity
        )
        if not len(fresh):
            return
        if len(fresh) <= DELTA_COMPACT_MIN:
            for coded in map(tuple, fresh.tolist()):
                self._apply_one(coded, True)
            return
        self.add_coded_batch(fresh)

    def retain(self, predicate) -> int:
        """Keep only tuples satisfying ``predicate`` (per-shard scan).

        Same semantics as the unsharded ``retain``: evaluated on the
        merged view, and a removing ``retain`` is a history barrier.
        """
        removed = sum(
            self._mutation_exec().map(
                lambda shard: shard.retain(predicate), self._shards
            )
        )
        if removed:
            self._invalidate()
            self._rebase()
        return removed

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def codes(self) -> np.ndarray:
        """The global code matrix: the shards' matrices concatenated.

        Cached until the next mutation; this is the one interface the
        query algorithms read.  Multi-shard concatenations are counted
        through :func:`note_coalesce`.
        """
        if self._coalesced is None:
            parts = self._exec().map(
                lambda shard: shard.codes(), self._shards
            )
            if len(parts) == 1:
                self._coalesced = parts[0]
            else:
                note_coalesce(sum(len(part) for part in parts))
                self._coalesced = np.concatenate(parts, axis=0)
        return self._coalesced

    def __len__(self) -> int:
        # Shards are disjoint (routing is deterministic per tuple).
        return sum(len(shard) for shard in self._shards)

    def is_empty(self) -> bool:
        return all(shard.is_empty() for shard in self._shards)

    def has_coded(self, coded: Sequence[int]) -> bool:
        return self._shards[self._owning_shard(coded)].has_coded(coded)

    def distinct_values(self, column: int) -> set:
        (col,) = self._check_columns((column,))
        parts = self._exec().map(
            lambda shard: shard.distinct_values(col), self._shards
        )
        out: set = set()
        for part in parts:
            out |= part
        return out

    def column_distinct_counts(self) -> Tuple[int, ...]:
        """Distinct codes per column, unioned across shards (no coalesce).

        Per-shard ``np.unique`` passes fan out over the shard executor
        and the shard results are unioned per column — a code can land
        in several shards unless the column is the routing key, so the
        per-shard counts cannot simply be summed.  No global code
        matrix is materialized; :meth:`shard_sizes` supplies the
        companion skew histogram the planner's ``explain()`` cites.
        """
        if self._distinct_counts is None:
            arity = self.arity

            def shard_uniques(shard: ColumnarRelation) -> List[np.ndarray]:
                codes = shard.codes()
                return [np.unique(codes[:, j]) for j in range(arity)]

            parts = self._exec().map(shard_uniques, list(self._shards))
            self._distinct_counts = tuple(
                int(len(np.unique(np.concatenate([p[j] for p in parts]))))
                for j in range(arity)
            )
        return self._distinct_counts

    def active_domain(self) -> set:
        parts = self._exec().map(
            lambda shard: shard.active_domain(), self._shards
        )
        out: set = set()
        for part in parts:
            out |= part
        return out

    def copy(self, name: Optional[str] = None) -> "ShardedColumnarRelation":
        """An independent copy with the same partitioning (shared dict).

        The copy inherits the executor but not the spill pool: a pool
        manages the residency of exactly the shards registered with it.
        """
        out = ShardedColumnarRelation(
            name or self.name,
            self.arity,
            dictionary=self.dictionary,
            shard_count=self.shard_count,
            key_column=self.key_column,
            executor=self.executor,
        )
        out._shards = [shard.copy() for shard in self._shards]
        return out

    # ------------------------------------------------------------------
    # durability (snapshot / restore)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> List[Tuple[np.ndarray, int]]:
        """Per-shard ``(codes, stamp)`` pairs, for checkpointing.

        Shards are snapshotted individually (the ISSUE's per-shard
        column files); the parent's global stamp is the sum of the
        shard stamps, so nothing beyond the pairs needs persisting.
        """
        return [shard.snapshot_state() for shard in self._shards]

    def restore_state(  # type: ignore[override]
        self, shard_states: Sequence[Tuple[np.ndarray, int]], stamp: int = 0
    ) -> None:
        """Install per-shard snapshots and rebase the routing history.

        The rebase makes the restored global stamp the new answerable
        floor — pre-snapshot global stamps raise, exactly as if every
        shard had compacted at snapshot time.
        """
        if len(shard_states) != self.shard_count:
            raise ValueError(
                f"snapshot has {len(shard_states)} shards, relation "
                f"has {self.shard_count}"
            )
        for shard, (codes, shard_stamp) in zip(self._shards, shard_states):
            shard.restore_state(codes, shard_stamp)
        self._invalidate()
        self._rebase()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedColumnarRelation({self.name!r}, arity={self.arity}, "
            f"size={len(self)}, shards={self.shard_count})"
        )
