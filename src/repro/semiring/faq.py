"""FAQ-style aggregation of join queries over a semiring.

For an acyclic join query with join tree T, message passing computes

    ⊕_{a ∈ q(D)}  ⊗_{i}  w_i(π_{X_i}(a))

in Õ(m): bottom-up, each node's tuple weight is its own weight ⊗ the
⊕-sums of matching child messages, grouped by the child separator.
With the counting semiring and unit weights this is exactly the
linear-time answer counting of Theorem 3.8; with the tropical semiring
it is min-weight aggregation (Section 4.1.2).

**One execution path.**  Over the frames of one database
(:class:`repro.joins.vectorized.ColumnarFrame` sharing its dictionary)
the recurrence runs as an array program — a *message* is a pair
``(separator code matrix, weight column)`` that the parent consumes
with one :func:`repro.db.columnar.fused_group_lookup` (group-reduce,
binary-search gather and in-place ⊗ in one pass); a sharded relation
binds to the same frames through its coalesced ``codes()``.  Semirings
without native NumPy kernels fall back to object-dtype ``frompyfunc``
folds (see :meth:`repro.semiring.semirings.Semiring.kernels`), keeping
a single code path.  No tuple is decoded back into Python values
unless a caller's scalar weight function asks for them.

**Incremental maintenance.**  :class:`AggregateMaintainer` keeps the
aggregate of an acyclic join query current under single-tuple updates:
it stores, per join-tree node, the (unreduced) code matrix, a *weight
column aligned to the relation's delta segments* (rows appended or
dropped in step with :class:`repro.db.columnar.ColumnarRelation`'s op
log), and the node's message as lex-sorted ``(separator reps, value
column)`` arrays.  A single-tuple update becomes a one-row delta
message that is folded into the node's message and propagated along
the root path — k updates cost O(k · depth) group-merges (each over
the touched keys) plus one vectorized row scan per tree level (to
locate affected parent rows, and a deleted tuple's own row) instead
of a full recompute.  Deletions fold as ⊕-negated deltas, so they need the
semiring to be a ring in ⊕ (``np_negate``, e.g. counting); otherwise,
and whenever a relation's delta history is gone (compaction / bulk
rewrite), the maintainer falls back to a full rebuild.  The engine
facade builds none: every unweighted aggregate it serves is the image
``n·1`` (:func:`aggregate_units`) of the count it reads off its
counted layered tree.  Maintainers — the counting instance behind
:func:`repro.dynamic.acyclic_count.maintained_count`, other semirings,
a :class:`WeightedDatabase` — are for direct callers.

Cyclic join queries fall back to :func:`aggregate_generic`: enumerate
the full join with the worst-case-optimal join (Õ(m^{ρ*})) and fold.
The gap between the two paths on the clique query is experiment E13.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.db.columnar import (
    atom_projection,
    common_keys,
    fused_group_lookup,
    group_reduce,
    group_rows,
    lookup_rows,
)
from repro.db.database import Database
from repro.db.interface import (
    TruncatedHistoryError,
    snapshot_stamps,
    stale_relations,
)
from repro.hypergraph.gyo import join_tree
from repro.hypergraph.jointree import JoinTree
from repro.db.interface import Row
from repro.joins.generic_join import generic_join, generic_join_codes
from repro.joins.semijoin import atom_frames, full_reducer_pass
from repro.joins.vectorized import ColumnarFrame
from repro.query.cq import ConjunctiveQuery
from repro.semiring.semirings import Semiring

WeightFn = Callable[[int, Row], object]


class WeightedDatabase:
    """A database whose tuples carry semiring weights.

    Weights are stored per relation name and tuple; missing entries
    default to the semiring's ``one`` (unweighted tuples are neutral),
    matching the convention that an unweighted query aggregates to a
    pure count/existence value.  The store wraps the database it is
    given — ``WeightedDatabase(session.db)`` mutates the very relations
    the session's prepared queries execute on, and they notice through
    the relations' mutation stamps.

    The store additionally keys every weight by the tuple's
    *dictionary codes*, so the vectorized aggregation reads
    whole weight columns (:meth:`coded_weight_column`) without decoding
    a single relation row — membership checks go through
    :meth:`repro.db.columnar.ColumnarRelation.has_coded`.

    Mutate weighted relations through :meth:`add` / :meth:`discard`:
    ``discard`` purges the stored weight along with the tuple.
    (Discarding through the bare relation used to leave the weight
    behind, so a later re-add silently resurrected it — the lingering
    -weights bug.)  ``mutation_stamp`` counts weight-store changes the
    relations' own stamps cannot see; maintained aggregates record it
    and rebuild when it drifts.
    """

    # Weight-change log length bound; older history is truncated and
    # maintainers that synced before the truncation point rebuild.
    _WEIGHT_LOG_LIMIT = 4096

    def __init__(self, db: Database) -> None:
        self.db = db
        self._weights: Dict[str, Dict[Row, object]] = {}
        # relation name -> {coded tuple: weight}.
        self._coded: Dict[str, Dict[Tuple[int, ...], object]] = {}
        self._stamp = 0
        # Which (relation, coded tuple) weights changed, in order.
        self._weight_log: List[Tuple[str, Optional[Tuple[int, ...]]]] = []
        self._weight_log_start = 0

    @property
    def mutation_stamp(self) -> int:
        """Monotone stamp over *weight-store* changes (not tuple churn)."""
        return self._stamp

    @property
    def weight_log_position(self) -> int:
        """Cursor into the weight-change log (for maintainers to record)."""
        return self._weight_log_start + len(self._weight_log)

    def weight_changes_since(
        self, position: int
    ) -> Optional[List[Tuple[str, Optional[Tuple[int, ...]]]]]:
        """Weight-store changes after ``position``, or None if truncated."""
        if position < self._weight_log_start:
            return None
        return self._weight_log[position - self._weight_log_start :]

    def _log_weight_change(
        self, relation: str, coded: Optional[Tuple[int, ...]]
    ) -> None:
        self._stamp += 1
        self._weight_log.append((relation, coded))
        if len(self._weight_log) > 2 * self._WEIGHT_LOG_LIMIT:
            dropped = len(self._weight_log) - self._WEIGHT_LOG_LIMIT
            self._weight_log = self._weight_log[dropped:]
            self._weight_log_start += dropped

    def set_weight(self, relation: str, row: Row, weight: object) -> None:
        tup = tuple(row)
        rel = self.db[relation]
        coded = tuple(map(rel.dictionary.encode_existing, tup))
        if None in coded or not rel.has_coded(coded):
            raise KeyError(
                f"tuple {row} not present in relation {relation!r}"
            )
        self._coded.setdefault(relation, {})[coded] = weight
        self._weights.setdefault(relation, {})[tup] = weight
        self._log_weight_change(relation, coded)

    def add(
        self, relation: str, row: Row, weight: Optional[object] = None
    ) -> None:
        """Insert a tuple, optionally with a weight, through the store."""
        self.db[relation].add(tuple(row))
        if weight is not None:
            self.set_weight(relation, row, weight)

    def discard(self, relation: str, row: Row) -> None:
        """Remove a tuple *and* its stored weight.

        The purge is the point: without it a discarded tuple's weight
        lingered in ``_weights``/``_coded`` and a later re-add of the
        same tuple silently resurrected the old weight instead of
        defaulting to the semiring's ``one``.
        """
        tup = tuple(row)
        rel = self.db[relation]
        rel.discard(tup)
        purged = False
        coded_key: Optional[Tuple[int, ...]] = None
        weights = self._weights.get(relation)
        if weights is not None and weights.pop(tup, None) is not None:
            purged = True
        coded_store = self._coded.get(relation)
        if coded_store is not None:
            coded = tuple(map(rel.dictionary.encode_existing, tup))
            if coded_store.pop(coded, None) is not None:
                purged = True
                coded_key = coded
        if purged:
            self._log_weight_change(relation, coded_key)

    def weight(self, relation: str, row: Row, semiring: Semiring) -> object:
        return self._weights.get(relation, {}).get(tuple(row), semiring.one)

    def coded_weights(
        self, relation: str
    ) -> Dict[Tuple[int, ...], object]:
        """Stored weights of a columnar relation, keyed by code tuples."""
        return self._coded.get(relation, {})

    def coded_weight_column(
        self,
        relation: str,
        full_codes: np.ndarray,
        semiring: Semiring,
        cardinality: int,
    ) -> np.ndarray:
        """A weight column aligned with already-encoded relation rows.

        ``full_codes`` holds full-arity coded tuples of ``relation`` —
        a frame's expansion, a main segment, or a *delta segment* (the
        incremental maintainer calls this for the handful of rows an
        update touched, which is what keeps delta weight columns
        aligned to the delta code arrays).  Stored code-keyed weights
        are scattered in via one binary-search lookup; missing entries
        default to the semiring's ``one``.  Zero decodes.
        """
        stored = self._coded.get(relation)
        if not stored:
            return semiring.unit_column(len(full_codes))
        keys = np.asarray(list(stored), dtype=np.int64).reshape(
            len(stored), full_codes.shape[1]
        )
        weight_values = list(stored.values())
        index = lookup_rows(full_codes, keys, cardinality)
        found = index >= 0
        _, _, dtype = semiring.kernels()
        if np.dtype(dtype) != np.dtype(object):
            try:
                values = np.asarray(weight_values)
            except (OverflowError, ValueError):
                values = None
            if (
                values is not None
                and values.ndim == 1
                and values.dtype != np.dtype(object)
            ):
                gathered = values[np.where(found, index, 0)]
                return np.where(found, gathered, semiring.one)
        # Exotic carriers (sequence-valued weights, ints >= 2^63):
        # fill an object column element by element — exact, and no
        # slower than the object-dtype fold that consumes it.
        column = semiring.unit_column(len(full_codes))
        if column.dtype != np.dtype(object):
            fallback = np.empty(len(full_codes), dtype=object)
            fallback[:] = column
            column = fallback
        for position, slot in enumerate(index.tolist()):
            if slot >= 0:
                column[position] = weight_values[slot]
        return column

    def atom_weight_fn(
        self, query: ConjunctiveQuery, semiring: Semiring
    ) -> "_AtomWeights":
        """A per-atom weight function for the given query.

        The returned object is callable as ``weights(i, frame_row)``
        (a stored weight by value) and additionally exposes
        :meth:`_AtomWeights.column` for the vectorized path.  Atoms
        with repeated variables map the deduplicated frame row back to
        the full relation tuple in both cases.
        """
        return _AtomWeights(self, query, semiring)


class _AtomWeights:
    """Per-atom tuple weights, usable scalar-wise or as weight columns."""

    def __init__(
        self,
        weighted: WeightedDatabase,
        query: ConjunctiveQuery,
        semiring: Semiring,
    ) -> None:
        self.weighted = weighted
        self.semiring = semiring
        self.expanders: List[Tuple[str, Tuple[int, ...]]] = []
        for atom in query.atoms:
            distinct: list = []
            for v in atom.variables:
                if v not in distinct:
                    distinct.append(v)
            index = {v: i for i, v in enumerate(distinct)}
            positions = tuple(index[v] for v in atom.variables)
            self.expanders.append((atom.relation, positions))

    def __call__(self, atom_index: int, frame_row: Row) -> object:
        relation, positions = self.expanders[atom_index]
        full_row = tuple(frame_row[p] for p in positions)
        return self.weighted.weight(relation, full_row, self.semiring)

    def column(self, atom_index: int, frame: ColumnarFrame) -> np.ndarray:
        """The weight column of ``frame``'s rows, aligned with its codes.

        Zero-decode when the frame shares the weighted relation's
        dictionary (frames of the weighted database): stored code-keyed
        weights are scattered into the column via one binary-search
        lookup.  Frames over another dictionary fall back to per-row
        scalar lookups over decoded rows.
        """
        relation, positions = self.expanders[atom_index]
        rel = self.weighted.db[relation]
        codes = frame.codes()
        if frame.dictionary is rel.dictionary:
            return self.weighted.coded_weight_column(
                relation,
                codes[:, list(positions)],
                self.semiring,
                len(frame.dictionary),
            )
        return _ScalarWeights(self).column(atom_index, frame)


class _ScalarWeights:
    """A scalar weight function ``weights(i, frame_row)`` read as weight
    columns: one call per decoded frame row, into an object column."""

    def __init__(self, weights: WeightFn) -> None:
        self.weights = weights

    def column(self, atom_index: int, frame: ColumnarFrame) -> np.ndarray:
        rows = frame.dictionary.decode_rows(frame.codes())
        column = np.empty(len(rows), dtype=object)
        for position, row in enumerate(rows):
            column[position] = self.weights(atom_index, row)
        return column


def aggregate_acyclic(
    query: ConjunctiveQuery,
    db: Database,
    semiring: Semiring,
    weights: Optional[WeightFn] = None,
    tree: Optional[JoinTree] = None,
) -> object:
    """Aggregate an acyclic *join* query over a semiring in Õ(m).

    ``weights(i, row)`` gives atom i's weight of a frame row (defaults
    to the semiring ``one``, so the counting semiring yields the answer
    count of Theorem 3.8).  Raises on cyclic or projected queries.
    """
    if not query.is_join_query():
        raise ValueError(
            "aggregate_acyclic requires a join query; project first "
            "(for free-connex counting see repro.counting)"
        )
    if tree is None:
        tree = join_tree(query.hypergraph())
    frames = dict(enumerate(atom_frames(query, db)))
    reduced = full_reducer_pass(frames, tree)
    return aggregate_frames(reduced, tree, semiring, weights)


def aggregate_free_connex(
    query: ConjunctiveQuery,
    db: Database,
    semiring: Semiring,
) -> object:
    """⊕-fold ``semiring.one`` over the *distinct answers* of a
    free-connex query, in Õ(m).

    Generalizes :func:`repro.counting.algorithms.count_free_connex`
    beyond the counting semiring: the query is reduced to an acyclic
    join query over the free variables
    (:func:`repro.joins.fc_reduce.free_connex_reduce`) and the message
    passing runs over the reduced frames with unit weights, so the
    result is ``⊕_{a ∈ q(D)} 1`` — the answer count in ``K``.  Boolean
    queries aggregate their single empty answer when satisfiable.
    Per-atom weights make no sense for projected queries (several body
    assignments collapse onto one answer); use
    :func:`aggregate_acyclic` on join queries for weighted aggregation.
    The engine facade (:mod:`repro.engine`) does not reach this: an
    unweighted ``AnswerSet.aggregate`` is :func:`aggregate_units` of
    the count.
    """
    if query.is_boolean():
        from repro.joins.yannakakis import yannakakis_boolean

        return (
            semiring.one
            if yannakakis_boolean(query, db)
            else semiring.zero
        )
    from repro.joins.fc_reduce import free_connex_reduce

    reduced = free_connex_reduce(query, db)
    if reduced.is_empty:
        return semiring.zero
    return aggregate_frames(reduced.frames, reduced.tree, semiring)


def aggregate_frames(
    frames: Mapping[int, ColumnarFrame],
    tree: JoinTree,
    semiring: Semiring,
    weights: Optional[WeightFn] = None,
) -> object:
    """Message passing over already-reduced frames on a join tree.

    ``frames`` must be globally consistent (run the full reducer first);
    otherwise tuples without child matches are ⊕-skipped, which computes
    the aggregate over the actual join but may visit dead tuples.

    Runs as one array program over the frames' codes.
    Column-capable weights (:meth:`WeightedDatabase.atom_weight_fn`)
    are scattered from code-keyed stores; any other ``weights(i, row)``
    is called once per decoded frame row.
    """
    if weights is not None and not hasattr(weights, "column"):
        weights = _ScalarWeights(weights)
    return _aggregate_frames_fused(frames, tree, semiring, weights)


def _aggregate_frames_fused(
    frames: Mapping[int, ColumnarFrame],
    tree: JoinTree,
    semiring: Semiring,
    weights: Optional["_AtomWeights"],
) -> object:
    """Fused message passing over one dictionary's frames.

    A child's message stays *unreduced* — its surviving separator
    codes and combined values, arrays it owns anyway — and the parent
    consumes it with one :func:`~repro.db.columnar.fused_group_lookup`
    call per child: group-reduce, gather, and in-place ⊗ into the
    parent's running column, reusing a single scratch buffer across
    children.  The only per-child allocation is the reduced message
    itself (one entry per distinct separator key); ``scratch_peak``
    asserts it.  Grouping uses stable sorts, so each ⊕ segment folds
    the child's rows in frame order and children ⊗-apply in tree
    order.
    """
    plus_ufunc, times_fn, dtype = semiring.kernels()
    # pending[child]: the child's surviving separator codes and
    # combined values, unreduced; consumed exactly once by the parent.
    pending: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    node_value: Dict[int, object] = {}
    root_set = set(tree.roots)
    for node in tree.bottom_up():
        frame = frames[node]
        cardinality = len(frame.dictionary)
        codes = frame.codes()
        n = len(codes)
        if weights is None:
            values = semiring.unit_column(n)
        else:
            values = weights.column(node, frame)
        alive = np.ones(n, dtype=bool)
        scratch = (
            np.empty(n, dtype=dtype)
            if dtype is not None and np.dtype(dtype) != np.dtype(object)
            else None
        )
        for child in tree.children(node):
            sep = tuple(
                sorted(
                    v for v in frame.variables
                    if v in frames[child].variables
                )
            )
            positions = list(frame.positions(sep))
            child_sub, child_values = pending.pop(child)
            found = fused_group_lookup(
                child_sub,
                child_values,
                codes[:, positions],
                cardinality,
                plus_ufunc,
                times_fn,
                values,
                scratch=scratch,
            )
            # Dead rows hold garbage combinations; masked out below.
            alive &= found
        if not alive.all():
            codes = codes[alive]
            values = values[alive]
        if node in root_set:
            node_value[node] = (
                semiring.as_scalar(plus_ufunc.reduce(values))
                if len(values)
                else semiring.zero
            )
        else:
            sep_to_parent = tree.separator(node)
            parent_key_vars = tuple(
                sorted(v for v in frame.variables if v in sep_to_parent)
            )
            parent_pos = list(frame.positions(parent_key_vars))
            pending[node] = (codes[:, parent_pos], values)
    return semiring.as_scalar(
        semiring.product(node_value[root] for root in tree.roots)
    )


def aggregate_generic(
    query: ConjunctiveQuery,
    db: Database,
    semiring: Semiring,
    weights: Optional[WeightFn] = None,
    codes: Optional[np.ndarray] = None,
) -> object:
    """Aggregate any join query via worst-case-optimal enumeration.

    Runs in Õ(m^{ρ*}); this is the baseline path for cyclic queries
    such as the k-clique and k-cycle queries of Section 4.

    The answers come from the frontier join as a code matrix
    (:func:`~repro.joins.generic_join.generic_join_codes`) and the fold
    runs as weight-column ⊗ products plus one ⊕ reduce — zero
    per-answer Python, zero decodes.  Arbitrary scalar weight
    functions (anything without the coded-column protocol of
    :meth:`WeightedDatabase.atom_weight_fn`) fold over decoded answers.

    ``codes`` is that matrix (one row per answer, head columns, any
    row order) when the caller already holds it current for ``db`` —
    a prepared cyclic query's served answers — and spares the join.
    """
    if not query.is_join_query():
        raise ValueError("aggregate_generic requires a join query")
    if weights is None or hasattr(weights, "expanders"):
        if codes is None:
            codes = generic_join_codes(query, db)[0]
        return _aggregate_codes(query, db, semiring, weights, codes)
    if weights is None:
        weights = lambda i, row: semiring.one  # noqa: E731
    head = tuple(query.head)
    position = {v: i for i, v in enumerate(head)}
    atom_positions = []
    for atom in query.atoms:
        distinct: list = []
        for v in atom.variables:
            if v not in distinct:
                distinct.append(v)
        atom_positions.append(tuple(position[v] for v in distinct))
    total = semiring.zero
    for answer in generic_join(query, db):
        value = semiring.one
        for i, positions in enumerate(atom_positions):
            row = tuple(answer[p] for p in positions)
            value = semiring.times(value, weights(i, row))
        total = semiring.plus(total, value)
    return total


def aggregate_units(semiring: Semiring, count: int) -> object:
    """The unweighted aggregate of ``count`` answers: ⊕ of ``count`` ones.

    ``n·1`` by binary expansion (double, add ``one`` per set bit) with
    the semiring's own kernels on one-element columns: O(log count) ⊕
    and nothing count-sized allocated, so a maintained count that was
    never materialized maps into the semiring as cheaply as a small
    one.  Needs only associativity of ⊕.
    """
    if count <= 0:
        return semiring.as_scalar(semiring.zero)
    plus_ufunc, _, _ = semiring.kernels()
    one = semiring.unit_column(1)
    if one.dtype.kind == "i" and count > np.iinfo(one.dtype).max:
        # A count past int64 (the counted tree's root product is a
        # Python int): stay exact past the kernel's width.
        one = one.astype(object)
    total = one
    for bit in bin(count)[3:]:  # the bits below the leading one
        total = plus_ufunc(total, total)
        if bit == "1":
            total = plus_ufunc(total, one)
    return semiring.as_scalar(total[0])


def _aggregate_codes(
    query: ConjunctiveQuery,
    db: Database,
    semiring: Semiring,
    weights: Optional["_AtomWeights"],
    codes: np.ndarray,
) -> object:
    """⊕-fold the coded answer matrix of a join query, zero decodes.

    One weight column per atom (scattered from the stored code-keyed
    weights, defaulting to ``one``), ⊗-combined in atom order exactly
    like the scalar fold, then one ⊕ reduce.
    """
    if weights is None or not len(codes):
        return aggregate_units(semiring, len(codes))
    plus_ufunc, times_fn, _ = semiring.kernels()
    position = {v: i for i, v in enumerate(query.head)}
    values = semiring.unit_column(len(codes))
    cardinality = len(db.dictionary)
    for atom in query.atoms:
        full = codes[:, [position[v] for v in atom.variables]]
        column = weights.weighted.coded_weight_column(
            atom.relation, full, semiring, cardinality
        )
        values = times_fn(values, column)
    return semiring.as_scalar(plus_ufunc.reduce(values))


# ----------------------------------------------------------------------
# incremental maintenance
# ----------------------------------------------------------------------
class Message:
    """A message as aligned arrays: unique lex-sorted reps + values.

    Both the 64-bit packing and the joint-``unique`` fallback of
    :func:`repro.db.columnar.common_keys` map lexicographic row order
    monotonically to sorted 1-D keys, so keeping ``reps`` lex-sorted
    makes gathers and folds binary searches even though the shared
    dictionary (and hence the packing width) may grow between calls.
    """

    __slots__ = ("reps", "values")

    def __init__(self, reps: np.ndarray, values: np.ndarray) -> None:
        self.reps = reps
        self.values = values

    def gather(
        self, sub: np.ndarray, cardinality: int, zero: object
    ) -> np.ndarray:
        """Per-row message values for ``sub``'s keys, ``zero``-filled.

        Zero-filling (instead of the batch path's alive-masking) is
        what lets the maintainer keep dead rows around: ``zero``
        ⊗-absorbs and is ⊕-neutral, so a dead row contributes nothing
        until a later update revives it.
        """
        n = len(sub)
        if not len(self.reps):
            return _constant_column(n, zero, self.values.dtype)
        q_keys, t_keys = common_keys(sub, self.reps, cardinality)
        pos = np.searchsorted(t_keys, q_keys)
        pos = np.minimum(pos, len(t_keys) - 1)
        found = t_keys[pos] == q_keys
        gathered = self.values[pos]
        if bool(found.all()):
            return gathered
        if gathered.dtype == np.dtype(object):
            out = _constant_column(n, zero, gathered.dtype)
            out[found] = gathered[found]
            return out
        return np.where(found, gathered, zero)

    def fold(
        self,
        delta_reps: np.ndarray,
        delta_values: np.ndarray,
        cardinality: int,
        plus_ufunc,
    ) -> None:
        """⊕-fold a delta message (unique, lex-sorted reps) into this one.

        Existing keys accumulate in place; new keys are spliced in at
        their sort position — one binary search plus one ``np.insert``
        memmove, never a re-sort.
        """
        if not len(delta_reps):
            return
        if not len(self.reps):
            self.reps = delta_reps.copy()
            self.values = delta_values.copy()
            return
        q_keys, t_keys = common_keys(delta_reps, self.reps, cardinality)
        pos = np.searchsorted(t_keys, q_keys)
        clipped = np.minimum(pos, len(t_keys) - 1)
        found = t_keys[clipped] == q_keys
        hits = clipped[found]
        if len(hits):
            self.values[hits] = plus_ufunc(
                self.values[hits], delta_values[found]
            )
        if not bool(found.all()):
            miss = ~found
            self.reps = np.insert(
                self.reps, pos[miss], delta_reps[miss], axis=0
            )
            self.values = np.insert(
                self.values, pos[miss], delta_values[miss]
            )


def _constant_column(length: int, value: object, dtype) -> np.ndarray:
    if np.dtype(dtype) == np.dtype(object):
        out = np.empty(length, dtype=object)
        out.fill(value)
        return out
    return np.full(length, value, dtype=dtype)


class AggregateMaintainer:
    """Maintain an acyclic join-query aggregate under tuple updates.

    Built over the *unreduced* atom frames of a database (all relations
    share its dictionary): per join-tree node it stores the
    code matrix, a weight column aligned row-for-row with it (appended
    and dropped in step with the relation's delta segments), and the
    node's message toward its parent as a :class:`Message`.

    Usage: mutate the relations (or the :class:`WeightedDatabase`)
    directly, then call :meth:`value` — it resynchronizes through
    ``mutation_stamp`` / ``delta_since`` before answering, so it can
    never serve a stale aggregate.  Each single-tuple update costs one
    delta-message fold per node on the path to the root — O(depth)
    group-merges, each over the handful of touched keys, plus one
    vectorized scan per level to find the affected parent rows (a
    deletion locates its own row by the same kind of scan).

    Full-rebuild fallbacks (counted in ``rebuilds``): a relation's
    delta history is gone (compaction or bulk rewrite — the delta was
    no longer small), a deletion under a semiring without ``np_negate``
    (⊕ has no inverse, so negative deltas cannot fold), or a drifted
    weight store.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        semiring: Semiring,
        weights: Optional[WeightedDatabase] = None,
        tree: Optional[JoinTree] = None,
    ) -> None:
        if not query.is_join_query():
            raise ValueError(
                "AggregateMaintainer requires a join query; project "
                "first (free-connex queries reduce to one)"
            )
        self.query = query
        self.db = db
        self.semiring = semiring
        self.weights = weights
        self.tree = (
            tree if tree is not None else join_tree(query.hypergraph())
        )
        self.rebuilds = -1  # _build below is construction, not a rebuild
        plus_ufunc, times_fn, _ = semiring.kernels()
        self._plus = plus_ufunc
        self._times = times_fn
        self._negate = semiring.np_negate
        self._atom_nodes: Dict[str, List[int]] = {}
        self._atom_proj: Dict[
            int, Tuple[Tuple[int, ...], List[Tuple[int, int]]]
        ] = {}
        for node, atom in enumerate(query.atoms):
            self._atom_nodes.setdefault(atom.relation, []).append(node)
            self._atom_proj[node] = atom_projection(atom.variables)
        self._rebuild()

    # ------------------------------------------------------------------
    # build / rebuild
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        self.rebuilds += 1
        query, db, semiring = self.query, self.db, self.semiring
        frames = dict(enumerate(atom_frames(query, db)))
        self.dictionary = dictionary = db.dictionary
        self._stamps = snapshot_stamps(db, query.relation_symbols)
        self._weight_stamp = (
            self.weights.mutation_stamp if self.weights is not None else 0
        )
        self._weight_pos = (
            self.weights.weight_log_position
            if self.weights is not None
            else 0
        )
        atom_weights = (
            self.weights.atom_weight_fn(query, semiring)
            if self.weights is not None
            else None
        )
        cardinality = len(dictionary)
        # Per node: the atom frame's code matrix and a weight column
        # aligned row-for-row with it.
        self._codes: Dict[int, np.ndarray] = {}
        self._values: Dict[int, np.ndarray] = {}
        self._messages: Dict[int, Message] = {}
        self._child_pos: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._parent_pos: Dict[int, Tuple[int, ...]] = {}
        for node in self.tree.bottom_up():
            frame = frames[node]
            codes = frame.codes()
            if atom_weights is not None:
                values = atom_weights.column(node, frame)
            else:
                values = semiring.unit_column(len(codes))
            self._codes[node] = codes
            self._values[node] = values
            child_pos: Dict[int, Tuple[int, ...]] = {}
            for child in self.tree.children(node):
                sep = tuple(
                    sorted(
                        v for v in frame.variables
                        if v in frames[child].variables
                    )
                )
                child_pos[child] = frame.positions(sep)
            self._child_pos[node] = child_pos
            sep_to_parent = self.tree.separator(node)
            parent_vars = tuple(
                sorted(v for v in frame.variables if v in sep_to_parent)
            )
            ppos = frame.positions(parent_vars)
            self._parent_pos[node] = ppos
            combined = values
            for child, pos in child_pos.items():
                gathered = self._messages[child].gather(
                    codes[:, list(pos)], cardinality, semiring.zero
                )
                combined = self._times(combined, gathered)
            sub = codes[:, list(ppos)] if ppos else codes[:, :0]
            reps, group_ids, group_count = group_rows(sub, cardinality)
            reduced = group_reduce(
                combined, group_ids, group_count, self._plus
            )
            self._messages[node] = Message(reps, reduced)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def value(self) -> object:
        """The current aggregate (resynchronizing first)."""
        self.refresh()
        semiring = self.semiring
        total = semiring.one
        for root in self.tree.roots:
            message = self._messages[root]
            if len(message.values):
                root_value = semiring.as_scalar(
                    self._plus.reduce(message.values)
                )
            else:
                root_value = semiring.zero
            total = semiring.times(total, root_value)
        return semiring.as_scalar(total)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Fold the relations' net deltas in (or rebuild if impossible)."""
        weight_drift = (
            self.weights is not None
            and self.weights.mutation_stamp != self._weight_stamp
        )
        drifted = stale_relations(self.db, self._stamps)
        if not drifted and not weight_drift:
            return
        plan: List[Tuple[str, np.ndarray, np.ndarray]] = []
        for name, stamp in drifted.items():
            try:
                inserted, deleted = self.db[name].delta_since(stamp)
            except TruncatedHistoryError:
                self._rebuild()
                return
            if len(deleted) and self._negate is None:
                self._rebuild()
                return
            plan.append((name, np.asarray(inserted), np.asarray(deleted)))
        if weight_drift:
            # A weight change is harmless exactly when its tuple is part
            # of the pending net delta: inserts read the *current* weight
            # when applied, and deletes fold the stored (as-of-sync)
            # column value regardless of a later purge.  Anything else —
            # a retroactive change to an already-synced tuple, a purge
            # cancelled by a re-add, a truncated log — needs a rebuild.
            changes = self.weights.weight_changes_since(self._weight_pos)
            if changes is None:
                self._rebuild()
                return
            delta_rows = {
                name: set(map(tuple, inserted.tolist()))
                | set(map(tuple, deleted.tolist()))
                for name, inserted, deleted in plan
            }
            for relation, coded in changes:
                if coded is None or coded not in delta_rows.get(
                    relation, ()
                ):
                    self._rebuild()
                    return
        for name, inserted, deleted in plan:
            nodes = self._atom_nodes.get(name, ())
            for row in map(tuple, deleted.tolist()):
                for node in nodes:
                    self._apply(node, name, row, insert=False)
            for row in map(tuple, inserted.tolist()):
                for node in nodes:
                    self._apply(node, name, row, insert=True)
            self._stamps[name] = self.db[name].mutation_stamp
        if self.weights is not None:
            self._weight_stamp = self.weights.mutation_stamp
            self._weight_pos = self.weights.weight_log_position

    def _all_zero(self, values: np.ndarray) -> bool:
        try:
            return bool(np.all(values == self.semiring.zero))
        except (TypeError, ValueError):  # incomparable carrier
            return False

    def _apply(
        self, node: int, name: str, rel_row: Row, insert: bool
    ) -> None:
        """Apply one net relation delta row to one atom node."""
        proj, checks = self._atom_proj[node]
        for pos, first in checks:
            if rel_row[pos] != rel_row[first]:
                return  # fails the atom's repeated-variable selection
        semiring = self.semiring
        cardinality = len(self.dictionary)
        codes = self._codes[node]
        values = self._values[node]
        frame_row = np.asarray(
            [rel_row[p] for p in proj], dtype=np.int64
        ).reshape(1, len(proj))
        if insert:
            weight = semiring.one
            if self.weights is not None:
                weight = self.weights.coded_weights(name).get(
                    rel_row, semiring.one
                )
            weight_arr = _constant_column(1, weight, values.dtype)
            if weight_arr.dtype != np.dtype(object):
                weight_arr = weight_arr.astype(values.dtype, copy=False)
            delta = weight_arr
            for child, pos in self._child_pos[node].items():
                gathered = self._messages[child].gather(
                    frame_row[:, list(pos)], cardinality, semiring.zero
                )
                delta = self._times(delta, gathered)
            self._codes[node] = np.concatenate([codes, frame_row], axis=0)
            self._values[node] = np.concatenate([values, weight_arr])
        else:
            if codes.shape[1]:
                mask = np.all(codes == frame_row[0], axis=1)
            else:
                mask = np.ones(len(codes), dtype=bool)
            hit = np.flatnonzero(mask)
            if not len(hit):
                return  # row never reached this node (defensive)
            row_index = int(hit[0])
            delta = values[row_index : row_index + 1].copy()
            for child, pos in self._child_pos[node].items():
                gathered = self._messages[child].gather(
                    frame_row[:, list(pos)], cardinality, semiring.zero
                )
                delta = self._times(delta, gathered)
            delta = self._negate(delta)
            keep = np.ones(len(codes), dtype=bool)
            keep[row_index] = False
            self._codes[node] = codes[keep]
            self._values[node] = values[keep]
        if self._all_zero(delta):
            return  # dead row: ⊕-neutral, nothing to propagate
        ppos = self._parent_pos[node]
        delta_reps = (
            frame_row[:, list(ppos)] if ppos else frame_row[:, :0]
        )
        self._messages[node].fold(
            delta_reps, delta, cardinality, self._plus
        )
        self._propagate(node, delta_reps, delta)

    def _propagate(
        self, child: int, delta_reps: np.ndarray, delta_values: np.ndarray
    ) -> None:
        """Fold a child's delta message up the root path."""
        semiring = self.semiring
        cardinality = len(self.dictionary)
        while True:
            parent = self.tree.parent.get(child)
            if parent is None:
                return
            pos = self._child_pos[parent][child]
            codes = self._codes[parent]
            sub = codes[:, list(pos)] if pos else codes[:, :0]
            q_keys, t_keys = common_keys(sub, delta_reps, cardinality)
            affected = np.flatnonzero(np.isin(q_keys, t_keys))
            if not len(affected):
                return
            rows = codes[affected]
            values = self._values[parent][affected]
            delta_message = Message(delta_reps, delta_values)
            for other, opos in self._child_pos[parent].items():
                other_sub = (
                    rows[:, list(opos)] if opos else rows[:, :0]
                )
                source = (
                    delta_message
                    if other == child
                    else self._messages[other]
                )
                values = self._times(
                    values,
                    source.gather(other_sub, cardinality, semiring.zero),
                )
            ppos = self._parent_pos[parent]
            sep = rows[:, list(ppos)] if ppos else rows[:, :0]
            reps, group_ids, group_count = group_rows(sep, cardinality)
            reduced = group_reduce(
                values, group_ids, group_count, self._plus
            )
            try:
                alive = np.asarray(
                    reduced != semiring.zero, dtype=bool
                ).reshape(len(reduced))
            except (TypeError, ValueError):
                alive = np.ones(len(reduced), dtype=bool)
            if not bool(alive.all()):
                reps, reduced = reps[alive], reduced[alive]
            if not len(reduced):
                return
            self._messages[parent].fold(
                reps, reduced, cardinality, self._plus
            )
            delta_reps, delta_values = reps, reduced
            child = parent
