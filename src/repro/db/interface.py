"""The common backend interface for tuple stores and frames.

The repo ships two storage backends behind one contract and one frame
algebra; a database is stored in exactly one of them and every
algorithm executes on it:

=============  =================================================  ==========================================
backend        tuple store (relations)                            frame (operator algebra)
=============  =================================================  ==========================================
``"columnar"`` :class:`repro.db.columnar.ColumnarRelation`        :class:`repro.joins.vectorized.ColumnarFrame`
``"sharded"``  :class:`repro.db.sharded.ShardedColumnarRelation`  :class:`repro.joins.vectorized.ColumnarFrame`
=============  =================================================  ==========================================

Sharding is a *storage layout*, not a second execution engine: a
sharded relation is a :class:`~repro.db.columnar.ColumnarRelation`
whose ``codes()`` is the cached concatenation of its shards, and every
algorithm reads it through that one interface.

Every relation of a :class:`repro.db.database.Database` is
dictionary-encoded over the database's one value
:class:`~repro.db.columnar.Dictionary` (a relation built over another
dictionary is re-encoded when it is registered), so the algorithms
compare codes across atoms and decode only at the value boundary.
Python values in, Python values out: :data:`Row` / :data:`Value` name
what crosses that boundary.

The backend is selected with a ``backend=`` switch at the boundaries —
:class:`repro.db.database.Database`, the engine front doors
:func:`repro.connect` / :func:`repro.db.attach` and the workload
generators in :mod:`repro.workloads.databases`, all defaulting to
``"columnar"``.  ``"sharded"`` is the caller's choice for spillable /
out-of-core data; nothing promotes a database into it by size.
:meth:`repro.db.database.Database.to_backend` converts explicitly.

The classes below are *virtual* ABCs: implementations are registered
rather than subclassed, so ``isinstance`` checks against the interface
work without imposing a base class on the storage layouts.

Mutation / consistency contract
-------------------------------

Derived answer structures (FAQ message tables, the direct-access
stores of :class:`repro.direct_access.lex.LexDirectAccess`, the
enumeration blocks of
:class:`repro.enumeration.constant_delay.ConstantDelayEnumerator`)
snapshot a relation at preprocessing time.  Serving answers from such
a snapshot after the relation mutated is the *stale-answer-structure*
bug class; the contract below makes it detectable and, where the
backend keeps delta history, cheaply repairable.

``mutation_stamp``
    A monotone non-negative integer, bumped by every mutating call
    (``add`` / ``add_all`` / ``discard`` / ``retain``) that may have
    changed the tuple set.  Two equal stamps guarantee identical
    content; a drifted stamp means "possibly changed" (the columnar
    backend bumps even for logically-absorbed ops such as re-adding a
    present tuple — :meth:`delta_since` then reports an exact, possibly
    empty, net delta).  Derived structures record the stamp of every
    relation they read at build time and compare on access — on drift
    they raise :class:`StaleStructureError` or refresh, never silently
    answer from the dead snapshot.

``delta_since(stamp) -> (inserted, deleted)``
    The *net* change of the tuple set between the snapshot taken at
    ``stamp`` and now, as two code matrices (columnar backend; rows
    are dictionary codes).  When the history needed to answer exactly
    is gone — the stamp predates the last barrier (compaction, bulk
    rewrite, removing ``retain``) — it raises
    :class:`TruncatedHistoryError` carrying both stamps, and callers
    rebuild.  Exactness matters: an ``add`` of a present tuple or an
    ``add``/``discard`` pair cancels to nothing, so replaying the
    delta against a structure built at ``stamp`` reproduces the
    current content.

**Columnar storage layout.**  A
:class:`~repro.db.columnar.ColumnarRelation` holds a compacted *main
segment* (one deduplicated int64 code matrix) plus an append-only op
log of single-tuple inserts/deletes (the *delta segments*).  Reads
merge on the fly (``codes()`` filters deleted main rows and appends
net inserts, cached until the next mutation).  When the delta grows
past ``max(DELTA_COMPACT_MIN, DELTA_COMPACT_FRACTION * len(main))``
the merged view is adopted as the new main segment and the log is
cleared — which truncates history, so ``delta_since`` raises
:class:`TruncatedHistoryError` for stamps before the compaction and
derived structures fall back to a full rebuild (exactly the regime
where the delta was no longer small).  ``retain`` calls that remove
something and large ``add_all`` calls are bulk rewrites: they compact
first and also act as history barriers (no-op retains and empty-log
compactions leave both the stamp and the history untouched).
"""

from __future__ import annotations

from abc import ABC
from typing import Dict, Iterable, Optional, Tuple

Value = object
Row = Tuple[Value, ...]

BACKENDS = ("columnar", "sharded")

# Shard-count heuristic for Database.to_backend("sharded") without an
# explicit count: aim for roughly this many tuples per shard,
# doubling the shard count until reached, capped at MAX_SHARD_COUNT
# (diminishing returns: each extra shard adds one part to every
# coalesce and one file to every checkpoint).
SHARD_TARGET_ROWS = 1 << 15
MAX_SHARD_COUNT = 16


def preferred_shard_count(size: int, target: Optional[int] = None) -> int:
    """Power-of-two shard count for an input size.

    Doubles until shards hold at most ~``target`` tuples each
    (default :data:`SHARD_TARGET_ROWS`), capped at
    :data:`MAX_SHARD_COUNT`.  Sizes below one target's worth get a
    single shard — partitioning them is pure overhead.
    """
    if target is None:
        target = SHARD_TARGET_ROWS
    count = 1
    while count < MAX_SHARD_COUNT and count * target < size:
        count *= 2
    return count


def check_backend(backend: str) -> str:
    """Validate a backend name (single source of truth for all layers)."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS} "
            '(use "columnar" for in-memory storage)'
        )
    return backend


def check_stored_kind(kind: str, artifact: str) -> str:
    """Validate the storage kind a durable artifact records.

    Recovery refuses any other kind (the retired ``"python"`` payloads
    included) with :class:`CorruptSnapshotError` before building a
    relation from it.
    """
    if kind not in BACKENDS:
        raise CorruptSnapshotError(
            artifact,
            f"stored kind {kind!r} is not supported; durable relations "
            f"are stored as one of {BACKENDS}",
        )
    return kind


class StaleStructureError(RuntimeError):
    """A derived answer structure outlived the relations it was built on.

    Raised by direct-access / enumeration / maintenance structures when
    a relation's ``mutation_stamp`` drifted past the one recorded at
    preprocessing time and the structure was not asked to refresh.
    Serving the old snapshot would silently return pre-mutation
    answers — the bug this error makes loud.
    """


class TruncatedHistoryError(StaleStructureError):
    """``delta_since`` was asked about a stamp whose history is gone.

    The requested stamp predates the relation's last history barrier
    (compaction, bulk ``add_all`` rewrite, or a removing ``retain``),
    so the exact net delta can no longer be reconstructed from the op
    log.  Carries both stamps so recovery code and replication
    followers can dispatch on the *distance* (resync vs full re-seed)
    instead of string-matching the message.  Being a
    :class:`StaleStructureError` subclass, existing rebuild-on-stale
    handlers catch it unchanged.
    """

    def __init__(
        self, relation: str, requested_stamp: int, barrier_stamp: int
    ) -> None:
        super().__init__(
            f"relation {relation!r}: delta history for stamp "
            f"{requested_stamp} was truncated by a barrier at stamp "
            f"{barrier_stamp}; rebuild or re-seed from a snapshot"
        )
        self.relation = relation
        self.requested_stamp = requested_stamp
        self.barrier_stamp = barrier_stamp


class CorruptionError(RuntimeError):
    """On-disk durable state failed an integrity check.

    The root of the storage-corruption taxonomy
    (:mod:`repro.db.scrub`): every checkpoint file and sealed WAL
    segment is checksummed in ``MANIFEST.json``, and recovery verifies
    what it reads — so damage that is not a clean torn tail surfaces
    as a typed error *before* any wrong row can be served.  Carries
    the offending artifact path in ``artifact``.
    """

    def __init__(self, artifact: str, detail: str) -> None:
        super().__init__(f"{artifact}: {detail}")
        self.artifact = artifact
        self.detail = detail


class CorruptSnapshotError(CorruptionError):
    """A checkpoint artifact (column, meta, dictionary, manifest) is
    missing or fails its recorded size/CRC32 — recovery refuses to
    build relations from it.  Repair options, in preference order:
    :func:`repro.db.scrub.repair` (newest intact base+delta chain, an
    older snapshot plus its WAL suffix, or a replica feed), else
    ``attach(path, degraded=True)`` for read-only access to the
    intact remainder."""


class CorruptWalError(CorruptionError, TruncatedHistoryError):
    """A WAL segment is damaged *mid-log*: valid records exist beyond
    the corrupt region (or the segment fails its sealed whole-file
    CRC), so truncating to the valid prefix would silently drop
    acknowledged operations.  Distinct from a torn tail — trailing
    damage with nothing valid after it — which recovery truncates
    safely without ceremony.

    Subclasses :class:`TruncatedHistoryError`: the log's history is
    effectively truncated at the corruption point, and structure-level
    handlers that rebuild on truncated history remain correct if one
    ever escapes that far.  ``offset`` is the last trusted byte.
    """

    def __init__(self, artifact: str, offset: int, detail: str) -> None:
        RuntimeError.__init__(
            self,
            f"{artifact}: corrupt WAL record after byte {offset}: "
            f"{detail}",
        )
        self.artifact = artifact
        self.detail = detail
        self.offset = offset
        self.relation = None
        self.requested_stamp = None
        self.barrier_stamp = None


class DegradedDatabaseError(RuntimeError):
    """A mutation reached a database opened in degraded (read-only)
    mode — ``attach(path, degraded=True)`` serves the intact remainder
    of a corrupt directory for inspection and evacuation, never for
    writes (there is no WAL to make them durable)."""


def snapshot_stamps(db, names: Iterable[str]) -> Dict[str, int]:
    """The current ``mutation_stamp`` of each named relation in ``db``."""
    return {name: db[name].mutation_stamp for name in names}


def stale_relations(db, stamps: Dict[str, int]) -> Dict[str, int]:
    """The subset of ``stamps`` whose relation has since drifted.

    Maps each drifted relation name to the *recorded* (build-time)
    stamp, so callers can ask the relation for ``delta_since`` it.
    """
    return {
        name: stamp
        for name, stamp in stamps.items()
        if db[name].mutation_stamp != stamp
    }


class TupleStore(ABC):
    """What a relation backend must provide.

    Identity:   ``name``, ``arity``.
    Mutation:   ``add(row)``, ``add_all(rows)``, ``discard(row)``,
                ``retain(predicate) -> int``.
    Consistency:``mutation_stamp`` (monotone int property),
                ``delta_since(stamp)`` (net change, or
                :class:`TruncatedHistoryError` past a barrier — see
                the module docstring's mutation/consistency contract).
    Access:     ``__len__``, ``__iter__`` (value tuples),
                ``__contains__``, ``rows() -> frozenset``,
                ``is_empty()``, ``active_domain()``.
    Operators:  ``index(columns)`` / ``lookup(columns, key)`` (hash
                index as dict-of-lists over value tuples),
                ``distinct_values(column)``, ``project(columns)``,
                ``select_eq(column, value)``, ``copy()``.
    """


class FrameAlgebra(ABC):
    """What a frame backend must provide.

    Identity:  ``variables`` (distinct, ordered), ``rows`` (set of
               value tuples — attribute or cached property).
    Shape:     ``__len__``, ``__iter__``, ``__contains__``,
               ``is_empty()``, ``positions(variables)``,
               ``key_of(row, positions)``.
    Algebra:   ``project``, ``rename``, ``select_in``, ``semijoin``,
               ``join``, ``reorder``, ``to_tuples``.
    Factories: ``unit_like()``, ``empty_like(variables)`` — identity /
               absorber frames over the *same* dictionary.
    """


def register_backends() -> None:
    """Register the backends' classes against the virtual ABCs."""
    from repro.db.columnar import ColumnarRelation
    from repro.db.sharded import ShardedColumnarRelation
    from repro.joins.vectorized import ColumnarFrame

    TupleStore.register(ColumnarRelation)
    TupleStore.register(ShardedColumnarRelation)
    FrameAlgebra.register(ColumnarFrame)
