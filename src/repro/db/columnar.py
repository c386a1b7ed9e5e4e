"""Columnar relation storage: dictionary-encoded NumPy columns.

This module is the storage half of the columnar execution backend (the
operator half lives in :mod:`repro.joins.vectorized`).  It trades the
per-tuple Python objects of :class:`repro.db.relation.Relation` for a
layout the hardware likes:

**Dictionary encoding.**  A :class:`Dictionary` is an append-only
bijection between arbitrary hashable Python values and dense int codes
``0, 1, 2, ...``.  A :class:`ColumnarRelation` stores its tuples as one
``(n, arity)`` int64 code matrix (equivalently, ``arity`` aligned int64
columns) plus a reference to the dictionary that decodes them.  All
relations of a columnar :class:`~repro.db.database.Database` share one
dictionary, so joins between them compare codes — never Python values.

Because codes are dense, a whole ``k``-column key usually fits in a
single machine word: with ``c`` distinct values a column needs
``ceil(log2 c)`` bits, and :func:`pack_rows` packs ``k`` such columns
into one int64 whenever ``k * bits <= 63``.  Equality of packed words
is equality of rows, which turns ``distinct``, hash joins, semijoins
and group-by into one-dimensional :func:`numpy.unique`,
:func:`numpy.searchsorted` and :func:`numpy.isin` calls.  When the keys
genuinely cannot fit (huge dictionaries times wide keys),
:func:`common_keys` falls back to a lexicographic row ``unique`` that
is slower but never wrong.

**When each backend wins.**  The Python backend pays O(1) *per tuple
touched* with a large constant (hashing, tuple allocation, pointer
chasing); the columnar backend pays a small per-*operation* constant
(array allocation, Python/NumPy boundary) plus O(1) per tuple with a
tiny constant (SIMD-friendly scans and sorts).  So: bulk analytics —
full reducers, hash joins, distinct, large projections — favour the
columnar backend by one to two orders of magnitude once relations have
more than a few thousand tuples.  Single-tuple mutation, tiny
relations, and workloads dominated by per-row Python callbacks (e.g.
``retain`` with an arbitrary predicate) favour the Python backend,
which is why it stays the default.

**Delta segments.**  Single-tuple ``add``/``discard`` do not rewrite
the code matrix: they append to an op log whose net effect (the
*delta segments* — pending inserts and deletes) is merged into the
compacted *main segment* on read and folded in for good only when the
delta outgrows ``max(DELTA_COMPACT_MIN, DELTA_COMPACT_FRACTION *
len(main))``.  Between compactions the relation keeps exact history:
``delta_since(stamp)`` reports the net inserted/deleted code rows
since any recorded ``mutation_stamp``, which is what lets derived
answer structures (FAQ messages, direct-access stores, enumeration
blocks) repair themselves incrementally instead of rebuilding — see
the mutation/consistency contract in :mod:`repro.db.interface`.
"""

from __future__ import annotations

import threading
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.db.interface import TruncatedHistoryError

Value = object
Row = Tuple[Value, ...]

# ----------------------------------------------------------------------
# delta-segment compaction policy
# ----------------------------------------------------------------------
# Pending single-tuple ops are folded into the main segment once they
# touch more than max(DELTA_COMPACT_MIN, DELTA_COMPACT_FRACTION * n)
# distinct tuples.  Below the threshold reads merge on the fly and the
# op log keeps exact history for ColumnarRelation.delta_since; at the
# threshold incremental repair of derived structures would approach
# rebuild cost anyway, so compaction (which truncates history) is the
# designed fallback point.
DELTA_COMPACT_MIN = 64
DELTA_COMPACT_FRACTION = 0.25

# ----------------------------------------------------------------------
# decode instrumentation
# ----------------------------------------------------------------------
# Counts how many rows have been decoded back into Python value tuples
# since the last reset.  The vectorized pipelines (counting, FAQ
# aggregation, direct access, enumeration preprocessing) promise *zero*
# per-row decodes on columnar inputs; tests assert that promise through
# this hook rather than by auditing call sites.  The bump is lock-guarded:
# concurrent readers decode on their own threads and an unguarded
# read-modify-write would drop counts under contention.
_DECODED_ROWS = 0
_DECODED_LOCK = threading.Lock()


def decoded_row_count() -> int:
    """Rows decoded via :meth:`Dictionary.decode_rows` since last reset."""
    return _DECODED_ROWS


def reset_decoded_row_count() -> None:
    global _DECODED_ROWS
    with _DECODED_LOCK:
        _DECODED_ROWS = 0


# ----------------------------------------------------------------------
# aggregation-scratch instrumentation
# ----------------------------------------------------------------------
# Peak row count of any materialized aggregation intermediate — a
# gathered per-row message column or a reduced (per-group) message —
# since the last reset.  The chained FAQ pipeline materializes one
# full-size gathered column per child message; the fused pipeline
# (:func:`fused_group_lookup`) only ever materializes group-sized
# reduced values, and tests assert that win through this hook instead
# of auditing allocations.  Same locking rationale as the decode
# counter: concurrent readers aggregate on their own threads and an
# unguarded max would let a smaller concurrent peak overwrite a larger
# one.
_SCRATCH_PEAK = 0
_SCRATCH_LOCK = threading.Lock()


def scratch_peak() -> int:
    """Largest materialized aggregation intermediate (rows) since reset."""
    return _SCRATCH_PEAK


def reset_scratch_peak() -> None:
    global _SCRATCH_PEAK
    with _SCRATCH_LOCK:
        _SCRATCH_PEAK = 0


def note_scratch(rows: int) -> None:
    """Record a materialized aggregation intermediate of ``rows`` rows."""
    global _SCRATCH_PEAK
    with _SCRATCH_LOCK:
        if rows > _SCRATCH_PEAK:
            _SCRATCH_PEAK = rows


class Dictionary:
    """An append-only bijection ``value <-> dense int code``.

    Codes are assigned in first-seen order.  The mapping only ever
    grows, so sharing one dictionary between many relations and frames
    is safe: codes never get reassigned behind a holder's back.
    """

    __slots__ = ("_code_of", "_values")

    def __init__(self) -> None:
        self._code_of: Dict[Value, int] = {}
        self._values: List[Value] = []

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> List[Value]:
        """All known values, in code order (index == code)."""
        return self._values

    def encode(self, value: Value) -> int:
        """The code of ``value``, assigning a fresh one if unseen."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._values)
            self._code_of[value] = code
            self._values.append(value)
        return code

    def encode_existing(self, value: Value) -> Optional[int]:
        """The code of ``value``, or ``None`` if it was never encoded."""
        return self._code_of.get(value)

    def extend_tail(self, values: Sequence[Value]) -> None:
        """Bulk-append fresh ``values`` as codes ``len(self)..`` .

        The fast path for re-seeding a dictionary from a checkpoint,
        whose dictionary files store exactly the value suffix in code
        order — one dict update instead of one :meth:`encode` call per
        value.  Every value must be previously unseen: a duplicate
        would silently fork the bijection (codes past it shift by
        one), so it raises ``ValueError`` instead and leaves the
        dictionary unchanged.
        """
        start = len(self._values)
        code_of = self._code_of
        code_of.update(zip(values, range(start, start + len(values))))
        if len(code_of) != start + len(values):
            # a duplicate collapsed the update: restore the map from
            # the (untouched) value list and refuse
            self._code_of = {v: c for c, v in enumerate(self._values)}
            raise ValueError(
                "extend_tail got an already-encoded or repeated value"
            )
        self._values.extend(values)

    def decode(self, code: int) -> Value:
        return self._values[code]

    def encode_rows(
        self, rows: Iterable[Sequence[Value]], arity: int
    ) -> np.ndarray:
        """Encode an iterable of width-``arity`` rows into a code matrix.

        This is the only place the columnar backend touches values one
        by one; everything downstream is vectorized.
        """
        code_of = self._code_of
        values = self._values
        flat: List[int] = []
        count = 0
        for row in rows:
            if len(row) != arity:
                raise ValueError(
                    f"row of width {len(row)} for arity {arity}"
                )
            count += 1
            for value in row:
                code = code_of.get(value)
                if code is None:
                    code = len(values)
                    code_of[value] = code
                    values.append(value)
                flat.append(code)
        return np.asarray(flat, dtype=np.int64).reshape(count, arity)

    def decode_rows(self, codes: np.ndarray) -> List[Row]:
        """Decode a code matrix back into a list of value tuples."""
        global _DECODED_ROWS
        with _DECODED_LOCK:
            _DECODED_ROWS += len(codes)
        if not codes.shape[1]:
            return [()] * len(codes)
        lookup = self._values.__getitem__  # column-wise: one map per column
        return list(zip(*(map(lookup, col) for col in codes.T.tolist())))


# ----------------------------------------------------------------------
# vectorized key primitives
# ----------------------------------------------------------------------
def pack_rows(codes: np.ndarray, cardinality: int) -> Optional[np.ndarray]:
    """Pack each row of a code matrix into one int64 key, if it fits.

    With ``cardinality`` distinct codes, each column needs
    ``bit_length(cardinality - 1)`` bits; ``k`` columns fit when the
    total stays within 63 bits.  Returns ``None`` on overflow — callers
    fall back to :func:`numpy.unique` over rows.  A single int64 column
    is its own key and comes back as a view: callers read keys, never
    write them.
    """
    n, k = codes.shape
    if k == 0:
        return np.zeros(n, dtype=np.int64)
    if k == 1:
        return codes[:, 0].astype(np.int64, copy=False)
    bits = max(int(cardinality - 1).bit_length(), 1) if cardinality > 1 else 1
    if bits * k > 63:
        return None
    packed = codes[:, 0].astype(np.int64, copy=True)
    for j in range(1, k):
        np.left_shift(packed, bits, out=packed)
        np.bitwise_or(packed, codes[:, j], out=packed)
    return packed


def unique_rows(codes: np.ndarray, cardinality: int) -> np.ndarray:
    """Distinct rows of a code matrix (order unspecified — set semantics)."""
    if len(codes) <= 1:
        return codes.copy()
    if codes.shape[1] == 0:
        return codes[:1]
    packed = pack_rows(codes, cardinality)
    if packed is not None:
        _, first = np.unique(packed, return_index=True)
        return codes[first]
    return np.unique(codes, axis=0)


def common_keys(
    left: np.ndarray, right: np.ndarray, cardinality: int
) -> Tuple[np.ndarray, np.ndarray]:
    """1-D int64 keys for two code matrices, comparable across both.

    Equal rows (within or across the two inputs) get equal keys.  Uses
    64-bit packing when possible, otherwise a joint lexicographic
    ``unique`` over the concatenation.
    """
    packed_left = pack_rows(left, cardinality)
    if packed_left is not None:
        packed_right = pack_rows(right, cardinality)
        if packed_right is not None:
            return packed_left, packed_right
    both = np.concatenate([left, right], axis=0)
    _, inverse = np.unique(both, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1).astype(np.int64, copy=False)
    return inverse[: len(left)], inverse[len(left):]


def atom_projection(
    atom_variables: Sequence[str],
) -> Tuple[Tuple[int, ...], List[Tuple[int, int]]]:
    """First-occurrence positions and repeated-position checks.

    Returns ``(proj, checks)``: the positions that survive projection
    onto distinct variables (first occurrences, in order) and the
    ``(position, first_position)`` pairs a stored tuple must satisfy
    with equality to pass the atom's repeated-variable selection.
    This is the single-row counterpart of :func:`atom_codes` — the
    incremental maintainers use it to map a relation's delta rows onto
    frame rows, so the semantics cannot drift from the bulk path.
    """
    first: Dict[str, int] = {}
    proj: List[int] = []
    checks: List[Tuple[int, int]] = []
    for pos, var in enumerate(atom_variables):
        if var in first:
            checks.append((pos, first[var]))
        else:
            first[var] = pos
            proj.append(pos)
    return tuple(proj), checks


def atom_codes(
    relation: "ColumnarRelation", atom_variables: Sequence[str]
) -> Tuple[List[str], Dict[str, int], np.ndarray]:
    """Bind a relation's code matrix to an atom's variable tuple.

    Repeated variables act as equality selections, applied as
    vectorized column compares.  Returns the distinct variables in
    first-occurrence order, each variable's first column position, and
    the filtered code matrix.  Shared by the frame constructor and the
    Generic Join trie builder so repeated-variable semantics cannot
    drift between them.
    """
    distinct: List[str] = []
    first_pos: Dict[str, int] = {}
    mask: Optional[np.ndarray] = None
    codes = relation.codes()
    for pos, var in enumerate(atom_variables):
        if var not in first_pos:
            first_pos[var] = pos
            distinct.append(var)
        else:
            eq = codes[:, pos] == codes[:, first_pos[var]]
            mask = eq if mask is None else (mask & eq)
    if mask is not None:
        codes = codes[mask]
    return distinct, first_pos, codes


def match_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(li, ri)`` with ``left_keys[li] == right_keys[ri]``.

    The vectorized core of the hash join: sort the right keys once,
    locate each left key's run by binary search, then expand the runs
    with ``repeat``/``cumsum`` arithmetic — no per-row Python.
    """
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    starts = np.searchsorted(sorted_right, left_keys, side="left")
    ends = np.searchsorted(sorted_right, left_keys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_index = np.repeat(np.arange(len(left_keys)), counts)
    offsets = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(offsets, counts)
    right_index = order[np.repeat(starts, counts) + within]
    return left_index, right_index


def group_rows(
    codes: np.ndarray, cardinality: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Group equal rows of a code matrix.

    Returns ``(representatives, group_ids, group_count)``: one
    representative row per distinct key (in ascending key order), a
    dense group id in ``[0, group_count)`` for every input row, and the
    number of groups.  Width-0 matrices form a single group.  This is
    the vectorized core of group-by-aggregate: callers pair the group
    ids with :func:`group_reduce`.
    """
    packed = pack_rows(codes, cardinality)
    if packed is not None:
        _, first, inverse = np.unique(
            packed, return_index=True, return_inverse=True
        )
    else:
        _, first, inverse = np.unique(
            codes, axis=0, return_index=True, return_inverse=True
        )
    inverse = inverse.reshape(-1).astype(np.int64, copy=False)
    return codes[first], inverse, len(first)


def group_reduce(
    values: np.ndarray,
    group_ids: np.ndarray,
    group_count: int,
    ufunc,
) -> np.ndarray:
    """Reduce ``values`` per dense group id with a binary ufunc.

    Sorts by group id once, then reduces each contiguous segment with
    ``ufunc.reduceat`` — ``np.add`` realizes counting, ``np.minimum`` /
    ``np.maximum`` the tropical semirings, and ``np.frompyfunc`` lifts
    an arbitrary Python fold over object arrays (the escape hatch for
    semirings without a native dtype).  Every group id in
    ``[0, group_count)`` must occur at least once (guaranteed when the
    ids come from :func:`group_rows`).
    """
    if group_count == 0:
        return values[:0]
    order = np.argsort(group_ids, kind="stable")
    sorted_values = values[order]
    sorted_ids = group_ids[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    return ufunc.reduceat(sorted_values, starts)


def block_slices(
    sorted_codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous equal-row blocks of an already-sorted code matrix.

    Returns ``(representatives, starts, ends)``: one representative
    row per block plus the half-open ``[start, end)`` bounds.  Rows
    equal under the matrix's columns must already be adjacent (sort by
    those columns first); width-0 matrices form a single block.  The
    direct-access and enumeration builders derive their per-separator
    slice maps from this.
    """
    n = len(sorted_codes)
    if not n:
        empty = np.empty(0, dtype=np.int64)
        return sorted_codes[:0], empty, empty
    if sorted_codes.shape[1]:
        change = np.any(sorted_codes[1:] != sorted_codes[:-1], axis=1)
        starts = np.flatnonzero(np.concatenate(([True], change)))
    else:
        starts = np.zeros(1, dtype=np.int64)
    ends = np.append(starts[1:], n)
    return sorted_codes[starts], starts, ends


def lookup_rows(
    queries: np.ndarray, table: np.ndarray, cardinality: int
) -> np.ndarray:
    """For each query row, its index in ``table`` — or ``-1`` if absent.

    ``table`` must hold distinct rows (e.g. the representatives from
    :func:`group_rows`).  One joint key computation plus a binary
    search per query row; no per-row Python.
    """
    if not len(table):
        return np.full(len(queries), -1, dtype=np.int64)
    query_keys, table_keys = common_keys(queries, table, cardinality)
    order = np.argsort(table_keys, kind="stable")
    sorted_keys = table_keys[order]
    pos = np.searchsorted(sorted_keys, query_keys)
    pos = np.minimum(pos, len(sorted_keys) - 1)
    found = sorted_keys[pos] == query_keys
    return np.where(found, order[pos], -1).astype(np.int64, copy=False)


def fused_group_lookup(
    source_sub: np.ndarray,
    source_values: np.ndarray,
    query_sub: np.ndarray,
    cardinality: int,
    plus_ufunc,
    times_fn,
    target: np.ndarray,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused ``group_reduce`` → binary-search gather → ⊗-combine.

    Semantically identical to the chained pipeline

        reps, ids, n = group_rows(source_sub, cardinality)
        reduced = group_reduce(source_values, ids, n, plus_ufunc)
        index = lookup_rows(query_sub, reps, cardinality)
        found = index >= 0
        target[:] = times_fn(target, reduced[np.where(found, index, 0)])

    but in one pass: the source rows are key-sorted once, each equal-key
    segment is ⊕-reduced (``reduceat``), the query keys binary-search
    the sorted unique source keys directly, and the gathered segment
    values are ⊗-combined into ``target`` in place (``out=`` for native
    dtypes, reusing ``scratch`` for the gather).  Neither the group
    representative matrix (G×d) nor — given a ``scratch`` buffer — a
    fresh full-size gathered column is materialized; the new
    allocations are the 1-D key columns and the group-sized reduced
    values, reported through :func:`note_scratch` (the chained pipeline
    reports its full-size gathered columns through the same hook, which
    is how tests assert the fusion's peak-memory win).

    The per-group ⊕ fold runs in source row order within each key (the
    stable sort), exactly like :func:`group_reduce` after
    :func:`group_rows` — results are bit-identical to the chain for
    every semiring, including object-dtype carriers.

    Query rows without a matching source key pick up an arbitrary
    segment's value; mask them with the returned ``found`` array, the
    same way the chained pipeline masks its dead rows.
    """
    n = len(target)
    if not len(source_sub):
        return np.zeros(n, dtype=bool)
    q_keys, s_keys = common_keys(query_sub, source_sub, cardinality)
    order = np.argsort(s_keys, kind="stable")
    sorted_keys = s_keys[order]
    seg_starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    uniq_keys = sorted_keys[seg_starts]
    sorted_values = source_values[order]
    note_scratch(len(uniq_keys))
    found = np.empty(n, dtype=bool)
    reduced = plus_ufunc.reduceat(sorted_values, seg_starts)
    pos = np.searchsorted(uniq_keys, q_keys)
    np.minimum(pos, len(uniq_keys) - 1, out=pos)
    np.equal(uniq_keys[pos], q_keys, out=found)
    if (
        scratch is not None
        and scratch.shape == target.shape
        and scratch.dtype == reduced.dtype
        and reduced.dtype != np.dtype(object)
    ):
        np.take(reduced, pos, out=scratch)
        times_fn(target, scratch, out=target)
    else:
        gathered = reduced[pos]
        note_scratch(len(gathered))
        target[:] = times_fn(target, gathered)
    return found


class ColumnarRelation:
    """A named, fixed-arity tuple set stored as NumPy code columns.

    Drop-in replacement for :class:`repro.db.relation.Relation`: same
    constructor shape, same mutation/access/operator surface, same set
    semantics.  Values are dictionary-encoded on ingestion; relational
    operators work on the code matrix and only decode at the Python
    boundary (iteration, ``rows()``, legacy ``index()``).

    Storage is a compacted main segment plus delta segments: an op log
    of single-tuple inserts/deletes merged on read and compacted when
    it outgrows a fraction of the main segment (module docstring).
    ``mutation_stamp`` / ``delta_since`` expose the consistency
    contract of :mod:`repro.db.interface` to derived structures.
    """

    backend = "columnar"

    def __init__(
        self,
        name: str,
        arity: int,
        rows: Optional[Iterable[Sequence[Value]]] = None,
        dictionary: Optional[Dictionary] = None,
    ) -> None:
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self.name = name
        self.arity = arity
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        # Compacted main segment: deduplicated (n, arity) code matrix.
        self._main = np.empty((0, arity), dtype=np.int64)
        # Delta segments: append-only op log since the last barrier
        # (coded tuple, True=insert/False=delete, stamp), plus its
        # last-op-wins net view used by merge-on-read and has_coded.
        self._log: List[Tuple[Tuple[int, ...], bool, int]] = []
        self._net: Dict[Tuple[int, ...], bool] = {}
        self._stamp = 0
        # Stamp as of the last barrier (compaction / bulk rewrite);
        # delta_since cannot answer for stamps before it.
        self._base_stamp = 0
        self._merged: Optional[np.ndarray] = None
        # Membership index of the main segment (see _in_main).
        self._main_keys: Optional[Tuple[int, Optional[np.ndarray]]] = None
        self._tuple_cache: Optional[List[Row]] = None
        self._set_cache: Optional[FrozenSet[Row]] = None
        self._indexes: Dict[Tuple[int, ...], Dict[Row, List[Row]]] = {}
        self._distinct_counts: Optional[Tuple[int, ...]] = None
        # Durability hook (repro.db.wal.WalJournal, or the sharded
        # substrate's forwarding wrapper).  None costs one attribute
        # check per mutation; non-None mirrors every op and barrier
        # into the write-ahead log.
        self._journal = None
        # Residency hook (repro.db.spill.SpillPool).  None costs one
        # attribute check per read/barrier; non-None lets the pool
        # swap the main segment between RAM and an np.memmap-backed
        # file, keeping only the LRU-hot shards resident.
        self._spill = None
        if rows is not None:
            self.add_all(rows)

    # ------------------------------------------------------------------
    # internal state
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._tuple_cache = None
        self._set_cache = None
        self._merged = None
        self._indexes.clear()
        self._distinct_counts = None

    def _compact_limit(self) -> int:
        return max(
            DELTA_COMPACT_MIN,
            int(DELTA_COMPACT_FRACTION * len(self._main)),
        )

    def _in_main(self, rows: np.ndarray) -> np.ndarray:
        """Which coded rows are in the main segment.

        One binary search per row in the segment's sorted packed keys,
        cached per epoch — 8 bytes a row and one sort, where a set of
        code tuples cost a hundred and a Python pass.  The pack width
        is fixed by the segment's own largest code (a row holding a
        larger one is not in it), so a growing dictionary leaves the
        cache valid; segments too wide to pack are searched by
        :func:`lookup_rows` per call.
        """
        if self._main_keys is None:
            width = int(self._main.max()) + 1 if self._main.size else 1
            packed = pack_rows(self._main, width)
            self._main_keys = (
                width, None if packed is None else np.sort(packed)
            )
        width, keys = self._main_keys
        if keys is None:
            return lookup_rows(rows, self._main, len(self.dictionary)) >= 0
        if not len(keys):
            return np.zeros(len(rows), dtype=bool)
        fits = (rows < width).all(axis=1)
        wanted = pack_rows(np.where(fits[:, None], rows, 0), width)
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return fits & (keys[at] == wanted)

    def _merge(self) -> np.ndarray:
        """The merged view: main minus net deletes plus net inserts."""
        if not self._net:
            return self._main
        ops = np.asarray(list(self._net.keys()), dtype=np.int64).reshape(
            len(self._net), self.arity
        )
        is_insert = np.fromiter(
            self._net.values(), dtype=bool, count=len(self._net)
        )
        main_keys, op_keys = common_keys(
            self._main, ops, len(self.dictionary)
        )
        delete_keys = op_keys[~is_insert]
        base = (
            self._main[~np.isin(main_keys, delete_keys)]
            if len(delete_keys)
            else self._main
        )
        appends = ops[is_insert & ~np.isin(op_keys, main_keys)]
        if not len(appends):
            return base
        return np.concatenate([base, appends], axis=0)

    def _adopt(self, codes: np.ndarray) -> None:
        """Make ``codes`` the new main segment (a history barrier)."""
        self._main = codes
        self._log.clear()
        self._net.clear()
        self._base_stamp = self._stamp
        self._main_keys = None
        self._merged = codes
        if self._spill is not None:
            self._spill.adopted(self)

    def _log_op(self, coded: Tuple[int, ...], is_insert: bool) -> None:
        self._stamp += 1
        self._log.append((coded, is_insert, self._stamp))
        self._net[coded] = is_insert
        self._invalidate()
        if self._journal is not None:
            self._journal.record_op(self.name, coded, is_insert)
        if len(self._net) > self._compact_limit():
            # Auto-compaction is a pure function of the op stream, so
            # WAL replay re-triggers it at exactly this point — it is
            # deliberately *not* journaled (only explicit compact()
            # calls are, since they are invisible to the op stream).
            self._adopt(self._merge())

    def compact(self) -> None:
        """Fold the delta segments into the main segment.

        A no-op when there are no pending ops: the barrier stamp does
        not move and history survives.  An effective compaction leaves
        content unchanged (``mutation_stamp`` does not move) but
        truncates history: ``delta_since`` raises
        :class:`~repro.db.interface.TruncatedHistoryError` for stamps
        recorded before this point, and the barrier is mirrored into
        the write-ahead log as an explicit record.
        """
        if self._net:
            self._adopt(self._merge())
            if self._journal is not None:
                self._journal.record_compact(self.name)

    @property
    def mutation_stamp(self) -> int:
        """Monotone stamp, bumped by every (possibly) mutating call."""
        return self._stamp

    @property
    def delta_size(self) -> int:
        """Distinct tuples touched by the pending delta segments."""
        return len(self._net)

    def delta_since(self, stamp: int) -> Tuple[np.ndarray, np.ndarray]:
        """Net ``(inserted, deleted)`` code rows since ``stamp``.

        Exact: logically-absorbed ops (re-adding a present tuple, an
        add/discard pair) cancel out.  Raises
        :class:`~repro.db.interface.TruncatedHistoryError` when
        ``stamp`` predates the last barrier (compaction or bulk
        rewrite) or lies beyond the current stamp (the caller's
        snapshot belongs to a pre-recovery incarnation) — the history
        needed no longer exists and callers must rebuild.
        """
        empty = np.empty((0, self.arity), dtype=np.int64)
        if stamp == self._stamp:
            return empty, empty
        if stamp < self._base_stamp or stamp > self._stamp:
            raise TruncatedHistoryError(self.name, stamp, self._base_stamp)
        before: Dict[Tuple[int, ...], bool] = {}
        touched: Dict[Tuple[int, ...], None] = {}
        for coded, is_insert, op_stamp in self._log:
            if op_stamp <= stamp:
                before[coded] = is_insert
            else:
                touched[coded] = None

        def matrix(rows: List[Tuple[int, ...]]) -> np.ndarray:
            if not rows:
                return empty
            return np.asarray(rows, dtype=np.int64).reshape(
                len(rows), self.arity
            )

        # A tuple first touched after ``stamp`` was there iff the main
        # segment holds it.
        unlogged = [coded for coded in touched if coded not in before]
        before.update(zip(unlogged, self._in_main(matrix(unlogged)).tolist()))
        inserted: List[Tuple[int, ...]] = []
        deleted: List[Tuple[int, ...]] = []
        for coded in touched:
            now, was = self._net[coded], before[coded]
            if now and not was:
                inserted.append(coded)
            elif was and not now:
                deleted.append(coded)
        return matrix(inserted), matrix(deleted)

    def codes(self) -> np.ndarray:
        """The deduplicated ``(n, arity)`` int64 code matrix (merged view)."""
        if self._spill is not None:
            self._spill.touch(self)
        if self._merged is None:
            self._merged = self._merge()
        return self._merged

    def _tuples(self) -> List[Row]:
        """Decoded rows, aligned with :meth:`codes` (cached)."""
        if self._tuple_cache is None:
            self._tuple_cache = self.dictionary.decode_rows(self.codes())
        return self._tuple_cache

    def _row_set(self) -> FrozenSet[Row]:
        if self._set_cache is None:
            self._set_cache = frozenset(self._tuples())
        return self._set_cache

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _check_width(self, tup: Row) -> Row:
        if len(tup) != self.arity:
            raise ValueError(
                f"relation {self.name} has arity {self.arity}, "
                f"got tuple of length {len(tup)}"
            )
        return tup

    def add(self, row: Sequence[Value]) -> None:
        """Insert one tuple; duplicates are silently absorbed.

        Appends to the delta segments in O(1); the main segment is not
        rewritten.  ``mutation_stamp`` advances even when the tuple was
        already present (``delta_since`` reports the exact net change).
        """
        tup = self._check_width(tuple(row))
        encode = self.dictionary.encode
        self._log_op(tuple(encode(v) for v in tup), True)

    def add_all(self, rows: Iterable[Sequence[Value]]) -> None:
        """Bulk insert: one encode pass, one vectorized dedupe.

        Small batches (``<= DELTA_COMPACT_MIN`` rows) route through the
        delta segments and keep history; larger ones rewrite the main
        segment and act as a history barrier.
        """
        fresh = self.dictionary.encode_rows(
            (self._check_width(tuple(r)) for r in rows), self.arity
        )
        if not len(fresh):
            return
        if len(fresh) <= DELTA_COMPACT_MIN:
            for coded in map(tuple, fresh.tolist()):
                self._log_op(coded, True)
            return
        self.add_coded_batch(fresh)

    def discard(self, row: Sequence[Value]) -> None:
        """Remove a tuple if present (delta-segment append, O(1))."""
        tup = self._check_width(tuple(row))
        coded = []
        for value in tup:
            code = self.dictionary.encode_existing(value)
            if code is None:
                return  # value unseen => tuple cannot be stored
            coded.append(code)
        self._log_op(tuple(coded), False)

    def apply_coded(self, coded: Sequence[int], insert: bool = True) -> None:
        """One insert/delete of an *already-encoded* tuple (O(1) log append).

        Code-level counterpart of :meth:`add`/:meth:`discard` for
        callers that route batches of codes themselves (the sharded
        substrate of :mod:`repro.db.sharded`).  The codes must come
        from this relation's dictionary; no validation is performed.
        """
        if len(coded) != self.arity:
            raise ValueError(
                f"coded row of width {len(coded)} for arity {self.arity}"
            )
        self._log_op(tuple(int(c) for c in coded), insert)

    def add_coded_batch(self, codes: np.ndarray) -> None:
        """Bulk-insert already-encoded rows (a history barrier).

        The code-level counterpart of :meth:`add_all`'s bulk path:
        one concatenate + one vectorized dedupe, no per-row Python.
        Used by the sharded substrate to route whole code batches to
        their owning shard without re-encoding.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:  # width-0 rows defeat reshape(-1, 0)
            codes = codes.reshape(len(codes), self.arity)
        if not len(codes):
            return
        merged = np.concatenate([self.codes(), codes], axis=0)
        self._stamp += 1
        self._invalidate()
        self._adopt(unique_rows(merged, len(self.dictionary)))
        if self._journal is not None:
            self._journal.record_batch(self.name, codes)

    def remove_coded_batch(self, codes: np.ndarray) -> int:
        """Bulk-delete already-encoded rows; return the removed count.

        The deletion counterpart of :meth:`add_coded_batch`: one key
        pass over the merged view, no per-row Python.  A matching
        removal is a bulk rewrite and therefore a history barrier
        (mirrored into the write-ahead log); an empty or fully-absent
        batch touches nothing — no stamp advance, no barrier.  Used by
        WAL replay (``retain`` barriers are logged as the removed code
        rows, since predicates cannot be replayed) and by replication
        followers applying shipped deletions.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            codes = codes.reshape(len(codes), self.arity)
        if not len(codes):
            return 0
        merged = self.codes()
        if not len(merged):
            return 0
        if self.arity == 0:
            # One deduplicated row at most; removing () empties it.
            removed = len(merged)
            keep = np.zeros(len(merged), dtype=bool)
        else:
            merged_keys, drop_keys = common_keys(
                merged, codes, len(self.dictionary)
            )
            keep = ~np.isin(merged_keys, drop_keys)
            removed = int(len(merged) - keep.sum())
        if not removed:
            return 0
        retained = merged[keep]
        self._stamp += 1
        self._invalidate()
        self._adopt(retained)
        if self._journal is not None:
            self._journal.record_remove(self.name, codes)
        return removed

    def retain(self, predicate) -> int:
        """Keep only tuples satisfying ``predicate``; return removed count.

        The predicate is an arbitrary Python callable, so this is a
        decode-and-scan — one of the operations where the Python
        backend's layout is no worse (see module docstring).

        Semantics under delta segments: the predicate is evaluated on
        the *merged* view (pending ops included, last-op-wins), and a
        removing ``retain`` is a bulk rewrite — it compacts the result
        into the main segment and acts as a history barrier for
        ``delta_since``.  A ``retain`` that removes nothing leaves the
        stamp, the delta segments and the history untouched.
        """
        tuples = self._tuples()
        if not tuples:
            return 0
        keep = np.fromiter(
            (bool(predicate(t)) for t in tuples),
            dtype=bool,
            count=len(tuples),
        )
        removed = int(len(tuples) - keep.sum())
        if removed:
            # Route through remove_coded_batch so the barrier reaches
            # the write-ahead log as the removed code rows (an
            # arbitrary Python predicate cannot be replayed).
            self.remove_coded_batch(self.codes()[~keep])
        return removed

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes())

    def __iter__(self) -> Iterator[Row]:
        return iter(self._tuples())

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in self._row_set()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarRelation):
            return (
                self.arity == other.arity
                and self._row_set() == other._row_set()
            )
        rows = getattr(other, "rows", None)
        if callable(rows) and hasattr(other, "arity"):
            return self.arity == other.arity and self._row_set() == rows()
        return NotImplemented

    def __hash__(self):  # relations are mutable
        raise TypeError("ColumnarRelation objects are unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarRelation({self.name!r}, arity={self.arity}, "
            f"size={len(self)})"
        )

    def rows(self) -> FrozenSet[Row]:
        """A frozen snapshot of the (decoded) tuple set."""
        return self._row_set()

    def has_coded(self, coded: Sequence[int]) -> bool:
        """Membership test on an already-encoded tuple — no value decode.

        Weight stores and other code-level callers use this instead of
        ``__contains__``, which would decode the whole relation just to
        build a value set.  Cheap under update streams: the net delta
        ops answer directly, falling back to one binary search in the
        main segment's key index (rebuilt only at compaction, not per
        mutation).
        """
        key = tuple(coded)
        net = self._net.get(key)
        if net is not None:
            return net
        row = np.asarray(key, dtype=np.int64).reshape(1, self.arity)
        return bool(self._in_main(row)[0])

    def is_empty(self) -> bool:
        return not len(self.codes())

    # ------------------------------------------------------------------
    # indexes and relational operators
    # ------------------------------------------------------------------
    def _check_columns(self, columns: Sequence[int]) -> Tuple[int, ...]:
        cols = tuple(columns)
        for c in cols:
            if not 0 <= c < self.arity:
                raise IndexError(
                    f"column {c} out of range for arity {self.arity}"
                )
        return cols

    def index(self, columns: Sequence[int]) -> Dict[Row, List[Row]]:
        """Legacy dict-of-lists hash index over decoded tuples (cached).

        Provided for compatibility with callers written against the
        Python backend (brute-force oracle, enumeration).  Vectorized
        operators never use it — they group via sorted code arrays.
        """
        cols = self._check_columns(columns)
        cached = self._indexes.get(cols)
        if cached is not None:
            return cached
        idx: Dict[Row, List[Row]] = {}
        for tup in self._tuples():
            key = tuple(tup[c] for c in cols)
            idx.setdefault(key, []).append(tup)
        self._indexes[cols] = idx
        return idx

    def lookup(self, columns: Sequence[int], key: Sequence[Value]) -> List[Row]:
        """All tuples whose projection onto ``columns`` equals ``key``."""
        return self.index(columns).get(tuple(key), [])

    def distinct_values(self, column: int) -> set:
        """The set of values appearing in one column (vectorized)."""
        (col,) = self._check_columns((column,))
        codes = np.unique(self.codes()[:, col])
        decode = self.dictionary.decode
        return {decode(int(c)) for c in codes}

    def column_distinct_counts(self) -> Tuple[int, ...]:
        """Distinct codes per column (cached until the next mutation).

        The cheap statistic behind statistics-aware planning (ROADMAP
        open item 4): Generic Join breaks variable-order ties toward
        variables whose columns hold fewer distinct values (narrower
        frontiers), and ``explain()`` cites the measured counts.  One
        ``np.unique`` per column over the merged view; ``_invalidate``
        drops the cache, so a stale count is never served.
        """
        if self._distinct_counts is None:
            codes = self.codes()
            self._distinct_counts = tuple(
                int(len(np.unique(codes[:, j])))
                for j in range(self.arity)
            )
        return self._distinct_counts

    def project(
        self, columns: Sequence[int], name: Optional[str] = None
    ) -> "ColumnarRelation":
        """Projection onto column positions (set semantics, vectorized)."""
        cols = self._check_columns(columns)
        out = ColumnarRelation(
            name or f"{self.name}_proj", len(cols), dictionary=self.dictionary
        )
        taken = self.codes()[:, list(cols)] if cols else self.codes()[:, :0]
        out._main = unique_rows(taken, len(self.dictionary))
        return out

    def select_eq(self, column: int, value: Value) -> "ColumnarRelation":
        """Selection ``column = value`` (vectorized compare)."""
        (col,) = self._check_columns((column,))
        out = ColumnarRelation(
            f"{self.name}_sel", self.arity, dictionary=self.dictionary
        )
        code = self.dictionary.encode_existing(value)
        if code is not None:
            codes = self.codes()
            out._main = codes[codes[:, col] == code]
        return out

    def active_domain(self) -> set:
        """All values appearing anywhere in the relation."""
        codes = np.unique(self.codes())
        decode = self.dictionary.decode
        return {decode(int(c)) for c in codes}

    def copy(self, name: Optional[str] = None) -> "ColumnarRelation":
        """An independent copy (the dictionary is shared — append-only)."""
        out = ColumnarRelation(
            name or self.name, self.arity, dictionary=self.dictionary
        )
        out._main = self.codes().copy()
        return out

    # ------------------------------------------------------------------
    # durability (snapshot / restore)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple[np.ndarray, int]:
        """The merged code matrix and current stamp, for checkpointing.

        The snapshot is the *merged* view — pending delta segments are
        included, not folded (no barrier, no stamp movement), so taking
        a checkpoint never perturbs live ``delta_since`` history.
        """
        return self.codes(), self._stamp

    def restore_state(self, codes: np.ndarray, stamp: int) -> None:
        """Install a snapshot: ``codes`` becomes the main segment.

        History restarts at ``stamp`` (``_base_stamp == stamp``), so
        ``delta_since(stamp)`` is immediately answerable and earlier
        stamps raise — identical semantics to a relation that compacted
        at the moment the snapshot was taken.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != self.arity:
            codes = codes.reshape(len(codes), self.arity)
        self._log.clear()
        self._net.clear()
        self._stamp = self._base_stamp = int(stamp)
        self._invalidate()
        self._main = codes
        self._main_keys = None
        if self._spill is not None:
            self._spill.adopted(self)
        self._merged = codes
