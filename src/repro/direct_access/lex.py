"""Lexicographic direct access (paper Theorems 3.18/3.24, Cor. 3.22).

For a free-connex acyclic query (join queries included) and a variable
order admitting a layered join tree — an order with no disruptive trio
that keeps every atom's own block and every component contiguous (see
:mod:`repro.direct_access.layered`) — preprocessing is Õ(m) and each
access costs Õ(log m):

1. reduce to an acyclic join query over the free variables
   (:func:`repro.joins.fc_reduce.free_connex_reduce`);
2. find a layered join tree for the order
   (:mod:`repro.direct_access.layered`);
3. bottom-up, count each tuple's extensions in its subtree, and store,
   per (node, parent-separator key), the tuples sorted by their own
   variables with prefix sums of those counts;
4. ``access(i)`` descends the tree, selecting each node's tuple by
   binary search in the prefix sums and splitting the residual index
   across the children blocks mixed-radix style.

**Columnar preprocessing.**  When the reduced frames are columnar
(:class:`repro.joins.vectorized.ColumnarFrame` over one dictionary),
step 3 is an array program: subtree counts are binary-search gathers of
child block totals (:func:`repro.db.columnar.lookup_rows`) multiplied
columnwise; the per-separator blocks come from one ``np.lexsort`` over
(separator codes, order-preserving *value ranks* of the own columns —
dictionary codes are first-seen, not sorted, so the own columns are
remapped through a rank table before sorting); and the prefix sums are
one ``np.cumsum``.  No row is decoded during preprocessing —
``access(i)`` descends over codes via ``np.searchsorted`` and decodes
only the single returned answer; ``access_range`` expands a contiguous
range from runs of store rows (the enumeration: no search per answer)
or sends a strided index array down the same tree, and decodes the
block once.  Subtree counts use
int64 and raise :class:`OverflowError` where they would wrap (the root
product, and the Python store, keep bigints).

**Staleness and maintenance.**  The stores snapshot the database: the
constructor records every relation's ``mutation_stamp`` and ``access``
compares them first.  On drift the default (``on_stale="error"``) is
to raise :class:`repro.db.interface.StaleStructureError` — the
structure used to answer silently from the dead snapshot.  With
``on_stale="refresh"`` on coded storage the structure repairs itself,
projected queries included, and skips the full reducer:

- *Derived relations.*  The existential variables are eliminated
  bottom-up along the join tree of ``H ∪ {S}``
  (:func:`repro.hypergraph.freeconnex.free_connex_join_tree`).  Every
  atom below the S-node carries a *support count* per key — the
  variables it shares with its parent, the head's for a child ``c`` of
  the S-node: the number of its *live* rows with that key, a row being
  live when every child has support on the row's separator key (int64
  counts bounded by m, held as the sorted ``(codes, count)``
  :class:`repro.semiring.faq.Message`).  The tree's node for ``c`` is
  the derived relation ``D_c = π_{F_c}(frame_c)`` = the keys with
  support > 0; a subtree without free variables is a nullary ``D_c``,
  an emptiness gate; a child with nothing to eliminate is its atom
  frame itself — a join query is that special case throughout.
- *Dead rows stay.*  The stores are built over the unreduced ``D_c``:
  a row no sibling subtree extends keeps subtree count 0 — the access
  math already skips it — and can revive later.
- *Array patches.*  Each relation's net delta from
  :meth:`repro.db.columnar.ColumnarRelation.delta_since` is folded up
  its existential subtree, going on only where a support count
  crosses zero; an update absorbed by the supports touches no store.
  The rows of ``D_c`` that were born or died are spliced into the
  node's sorted blocks as one array — positions by bisect, one
  ``np.insert`` / ``np.delete`` per column, one prefix-sum recompute —
  and the ancestor counts of their separator keys are repaired level
  by level (a vectorized scan per level).

When a relation's delta history is gone (compaction past the
threshold, or a bulk rewrite) refresh falls back to a full rebuild —
the regime where patching would not have been cheaper anyway; Python
stores and relations over several dictionaries rebuild always.

**Sharded inputs.**  Sharding is a storage layout: a sharded relation
binds to the same plain :class:`~repro.joins.vectorized.ColumnarFrame`
as an unsharded one (through its coalesced ``codes()``), so the
per-node stores are built, served and patched identically.

When no layered tree exists, the ``strict=False`` fallback
materializes and sorts the whole result — the superlinear
preprocessing that Lemma 3.23 proves necessary when the order has a
disruptive trio.

This is the low-level entry point, and the one structure the engine
facade (:mod:`repro.engine`) holds for a free-connex query: ``count()``
behind ``len``, ``access_range`` behind pages and iteration — see
``examples/quickstart.py`` vs ``examples/ranked_paging.py`` (direct).
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.columnar import (
    atom_projection,
    block_slices,
    common_keys,
    group_rows,
    lookup_rows,
    unique_rows,
)
from repro.db.database import Database
from repro.db.interface import (
    StaleStructureError,
    TruncatedHistoryError,
    snapshot_stamps,
    stale_relations,
)
from repro.direct_access.layered import (
    VIRTUAL_ROOT,
    LayeredTree,
    find_layered_tree,
)
from repro.hypergraph.freeconnex import free_connex_join_tree, is_free_connex
from repro.hypergraph.gyo import is_acyclic
from repro.joins.fc_reduce import free_connex_reduce
from repro.joins.generic_join import generic_join, generic_join_codes
from repro.joins.semijoin import atom_frames
from repro.joins.vectorized import (
    ColumnarFrame,
    columnar_family,
    relation_family,
)
from repro.joins.yannakakis import yannakakis_project
from repro.query.cq import ConjunctiveQuery
from repro.semiring.faq import Message

Row = Tuple[object, ...]

_INT64_MAX = int(np.iinfo(np.int64).max)
_OVERFLOW = "answer count exceeds int64 on columnar storage"


def _scale_counts(counts: np.ndarray, factors: np.ndarray) -> None:
    """``counts *= factors`` on non-negative int64, never wrapping."""
    if np.any(counts > _INT64_MAX // np.maximum(factors, 1)):
        raise OverflowError(_OVERFLOW)
    counts *= factors


def value_rank_table(dictionary, codes: np.ndarray) -> np.ndarray:
    """An order-preserving ``code -> rank`` table for the used codes.

    Dictionary codes are assigned first-seen, not value-ordered, so
    sorting raw codes would realize insertion order.  This returns a
    dense int64 table mapping every code appearing in ``codes`` to its
    rank in the sorted order of the *decoded values*; a lexsort over
    rank-remapped columns then realizes the value order the access
    contracts promise, without decoding any row.  Values must be
    mutually comparable (the same constraint the Python backend's sort
    has).  Entries for unused codes are 0 — look up used codes only.

    Shared by the lexicographic stores here and the sum-order covering
    path (:mod:`repro.direct_access.sum_order`), so the two access
    structures cannot drift in how they realize value order.
    """
    used = np.unique(codes)
    if not len(used):
        return np.zeros(1, dtype=np.int64)
    values = dictionary.values()
    by_value = sorted(used.tolist(), key=values.__getitem__)
    table = np.zeros(int(used[-1]) + 1, dtype=np.int64)
    table[np.asarray(by_value, dtype=np.int64)] = np.arange(
        len(by_value), dtype=np.int64
    )
    return table


class OrderedAnswers:
    """Every answer of ``query``: counted as produced, sorted by
    ``order`` on the first read of the rows.

    The ordered materialization Lemma 3.23 proves necessary off the
    layered-tree orders, produced by the query class's own algorithm:
    the Yannakakis projection when the query is acyclic, Generic Join
    otherwise.  On coded storage (columnar relations over one
    dictionary) ``codes`` is the head code matrix, one row per answer,
    and ``len()`` reads its length — nothing is sorted or decoded for a
    count.  :meth:`sorted_rows` orders it without a Python-level sort
    (each head column rank-remapped by :func:`value_rank_table`, one
    ``np.lexsort`` with the order's first variable as the primary key)
    and decodes it once; from then on ``codes`` and ``rows`` are
    aligned row for row.  Python stores have no codes: ``codes`` is
    ``None`` and ``rows`` is sorted at once.  ``stamps`` are the
    relation stamps the answers are current for.
    """

    __slots__ = ("stamps", "codes", "rows", "_dictionary", "_positions")

    def __init__(
        self, query: ConjunctiveQuery, db: Database, order: Sequence[str]
    ) -> None:
        self.stamps = snapshot_stamps(db, query.relation_symbols)
        head = tuple(query.head)
        self._positions = [head.index(v) for v in order]
        self._dictionary = relation_family(
            db[atom.relation] for atom in query.atoms
        )
        acyclic = is_acyclic(query.hypergraph())
        self.codes: Optional[np.ndarray] = None
        self.rows: Optional[List[Row]] = None
        if self._dictionary is None:
            rows = (
                yannakakis_project(query, db).rows
                if acyclic
                else generic_join(query, db)
            )
            self.rows = sorted(
                rows, key=operator.itemgetter(*self._positions)
            )
        elif acyclic:
            self.codes = yannakakis_project(query, db).codes()
        else:
            self.codes = generic_join_codes(query, db)[0]

    def __len__(self) -> int:
        return len(self.rows if self.codes is None else self.codes)

    def sorted_rows(self) -> List[Row]:
        """The answers in ``order``; never mutated in place."""
        if self.rows is None:
            codes = self.codes
            ranks = tuple(
                value_rank_table(self._dictionary, codes[:, p])[codes[:, p]]
                for p in reversed(self._positions)
            )
            self.codes = codes = codes[np.lexsort(ranks)]
            self.rows = self._dictionary.decode_rows(codes)
        return self.rows


class _NodeStore:
    """Per-node access structures: grouped, sorted, prefix-summed."""

    __slots__ = ("groups", "sep_positions", "own_positions")

    def __init__(self) -> None:
        # key -> (sorted own projections, rows, cumulative counts)
        self.groups: Dict[Row, Tuple[List[Row], List[Row], List[int]]] = {}
        self.sep_positions: Tuple[int, ...] = ()
        self.own_positions: Tuple[int, ...] = ()

    def total(self, key: Row) -> int:
        group = self.groups.get(key)
        return group[2][-1] if group else 0

    def locate(self, key: Row, index: int) -> Tuple[Row, int]:
        """The row covering ``index`` within the key's block, and the
        cumulative count preceding that row."""
        _, rows, cumulative = self.groups[key]
        slot = bisect_right(cumulative, index)
        previous = cumulative[slot - 1] if slot else 0
        return rows[slot], previous


class _ColumnarNodeStore:
    """Per-node access structures over lexsorted code columns.

    ``codes`` holds the node's rows sorted by (separator codes, own
    value-ranks); ``counts`` the per-row subtree counts in that order
    and ``cum0`` their exclusive prefix sum.  Blocks (one per coded
    separator key) are kept as aligned sorted structures — ``rep_keys``
    (a bisectable list of key tuples), ``rep_matrix`` (the same keys as
    a code matrix, for vectorized gathers) and ``starts``/``ends``
    half-open bounds — so a single-row patch is one ``bisect`` plus a
    couple of ``np.insert`` memmoves rather than a dict rebuild.
    Zero-count rows may be present (maintained stores keep them so a
    later update can revive them); ``locate``'s right-sided binary
    search never selects them.
    """

    __slots__ = (
        "codes",
        "counts",
        "cum0",
        "rep_keys",
        "rep_matrix",
        "starts",
        "ends",
        "sep_pos",
        "own_pos",
    )

    def __init__(self) -> None:
        self.codes: np.ndarray = np.empty((0, 0), dtype=np.int64)
        self.counts: np.ndarray = np.empty(0, dtype=np.int64)
        self.cum0: np.ndarray = np.zeros(1, dtype=np.int64)
        self.rep_keys: List[Tuple[int, ...]] = []
        self.rep_matrix: np.ndarray = np.empty((0, 0), dtype=np.int64)
        self.starts: np.ndarray = np.empty(0, dtype=np.int64)
        self.ends: np.ndarray = np.empty(0, dtype=np.int64)
        self.sep_pos: List[int] = []
        self.own_pos: List[int] = []

    def block(self, key: Tuple[int, ...]) -> Optional[int]:
        """The block index of a coded separator key, or None."""
        i = bisect_left(self.rep_keys, key)
        if i < len(self.rep_keys) and self.rep_keys[i] == key:
            return i
        return None

    def refresh_cum(self) -> None:
        self.cum0 = np.concatenate(
            ([0], np.cumsum(self.counts, dtype=np.int64))
        )
        # A wrapped sum of non-negative int64 first shows as a
        # negative entry.
        if self.cum0.min() < 0:
            raise OverflowError(_OVERFLOW)

    def totals_array(self) -> np.ndarray:
        """Per-block totals, aligned with ``rep_keys``/``rep_matrix``."""
        return self.cum0[self.ends] - self.cum0[self.starts]

    def blocks_of(self, keys: np.ndarray, cardinality: int) -> np.ndarray:
        """Per row of a coded key matrix whose block exists, its block
        index.  The representatives are lex-sorted on raw codes (the
        build and every patch keep them so), hence packed or
        joint-ranked keys are monotone: one ``searchsorted``."""
        wanted, present = common_keys(keys, self.rep_matrix, cardinality)
        return np.searchsorted(present, wanted)

    def block_totals(self, keys: np.ndarray, cardinality: int) -> np.ndarray:
        """Per row of a coded key matrix, its block's total — 0 where
        there is no such block (the search of :meth:`blocks_of`, then a
        presence check)."""
        if not len(self.rep_keys):
            return np.zeros(len(keys), dtype=np.int64)
        wanted, present = common_keys(keys, self.rep_matrix, cardinality)
        block = np.minimum(
            np.searchsorted(present, wanted), len(present) - 1
        )
        totals = self.cum0[self.ends[block]] - self.cum0[self.starts[block]]
        return np.where(present[block] == wanted, totals, 0)

    def total(self, key: Row) -> int:
        i = self.block(tuple(key))
        if i is None:
            return 0
        return int(
            self.cum0[int(self.ends[i])] - self.cum0[int(self.starts[i])]
        )

    def locate(self, key: Row, index: int) -> Tuple[Row, int]:
        i = self.block(tuple(key))
        start, end = int(self.starts[i]), int(self.ends[i])
        target = int(self.cum0[start]) + index
        slot = start + int(
            np.searchsorted(
                self.cum0[start + 1 : end + 1], target, side="right"
            )
        )
        previous = int(self.cum0[slot] - self.cum0[start])
        return tuple(self.codes[slot].tolist()), previous


class _Projection:
    """One atom below the S-node with its existential variables
    eliminated (module docstring, "Derived relations").

    ``support`` counts the atom's live rows per key (``key_pos``: the
    columns shared with the parent); a row is live when every child
    (``child_pos``: the columns shared with it, in the child's key
    order) has support on the row's key.  Inner nodes keep their frame
    rows, unordered, in ``codes`` — a child key crossing zero scans
    them for the rows it flips; leaves keep none.
    """

    __slots__ = ("codes", "key_pos", "child_pos", "support")

    def __init__(
        self,
        codes: Optional[np.ndarray],
        key_pos: List[int],
        child_pos: Dict[int, List[int]],
    ) -> None:
        self.codes = codes
        self.key_pos = key_pos
        self.child_pos = child_pos
        self.support = Message(
            np.empty((0, len(key_pos)), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    def fold(
        self, inserted: np.ndarray, deleted: np.ndarray, cardinality: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold live rows gained and lost into the support counts; the
        keys that were born (support 0 → positive) and that died
        (positive → 0).  The delta is net, so a changed key without
        support can only have gained it."""
        keys = np.concatenate(
            [inserted[:, self.key_pos], deleted[:, self.key_pos]]
        )
        reps, ids, groups = group_rows(keys, cardinality)
        delta = np.bincount(
            ids[: len(inserted)], minlength=groups
        ) - np.bincount(ids[len(inserted) :], minlength=groups)
        reps, delta = reps[delta != 0], delta[delta != 0]
        before = self.support.gather(reps, cardinality, 0)
        self.support.fold(reps, delta, cardinality, np.add)
        return reps[before == 0], reps[before + delta == 0]


class LexDirectAccess:
    """Direct access to query answers under a lexicographic order.

    ``order`` lists the free variables, most significant first.
    Answers are returned as tuples in *head* order; their ranking
    follows ``order``.  ``access(i)`` raises :class:`IndexError` when
    ``i`` is past the last answer (the paper's "error" convention).

    ``store_backend`` reports which preprocessing ran: ``"columnar"``
    (vectorized, zero row decodes) when the reduced frames are
    columnar, ``"python"`` otherwise.

    ``on_stale`` picks the behaviour when an underlying relation
    mutates after preprocessing (module docstring): ``"error"`` fails
    fast with :class:`StaleStructureError`, ``"refresh"`` repairs the
    stores (incrementally where the delta segments allow it, by full
    rebuild otherwise).
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        order: Optional[Sequence[str]] = None,
        strict: bool = True,
        on_stale: str = "error",
    ) -> None:
        if on_stale not in ("error", "refresh"):
            raise ValueError(
                f"on_stale must be 'error' or 'refresh', got {on_stale!r}"
            )
        self.query = query
        self.head = tuple(query.head)
        if not self.head:
            raise ValueError("Boolean queries have no answers to access")
        self.order: Tuple[str, ...] = (
            tuple(order) if order is not None else self.head
        )
        if sorted(self.order) != sorted(self.head):
            raise ValueError(
                "order must be a permutation of the head variables"
            )
        self.strict = strict
        self.on_stale = on_stale
        self._db = db
        self.rebuilds = -1  # the build below is construction
        self._build()

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def _build(self) -> None:
        query, db = self.query, self._db
        self.rebuilds += 1
        self._stamps = snapshot_stamps(db, query.relation_symbols)
        self.mode = "layered"
        self.store_backend = "python"
        self._materialized: Optional[List[Row]] = None
        self._count = 0
        self._dictionary = None
        self._maintain = False
        self._layered: Optional[LayeredTree] = None
        # Tree node -> the frame its store is built from: reduced, or
        # the derived relations of a maintained build.
        self._frames: Dict[int, object] = {}
        self._stores: Dict[int, object] = {}

        layered: Optional[LayeredTree] = None
        if is_free_connex(query):
            if self.on_stale == "refresh" and self._try_build_maintained():
                return
            reduced = free_connex_reduce(query, db)
            if reduced.is_empty:
                return
            bags = {
                node: frozenset(frame.variables)
                for node, frame in reduced.frames.items()
            }
            layered = find_layered_tree(bags, self.order)
        if layered is None:
            if self.strict:
                raise ValueError(
                    f"query {query.name} admits no layered join tree for "
                    f"order {self.order} (disruptive trio, split atom "
                    "block, interleaved components, or not free-connex); "
                    "pass strict=False for the materializing fallback"
                )
            self.mode = "materialized"
            self._materialized = OrderedAnswers(
                query, db, self.order
            ).sorted_rows()
            self._count = len(self._materialized)
            return
        self._layered = layered
        self._frames = reduced.frames
        self._dictionary = columnar_family(reduced.frames.values())
        if self._dictionary is not None:
            self.store_backend = "columnar"
            self._build_stores_columnar()
        else:
            self._build_stores()

    def _try_build_maintained(self) -> bool:
        """Build patchable stores over the derived relations.

        For coded storage and an order with a layered tree: every
        child ``c`` of the S-node becomes one tree node holding
        ``D_c`` (module docstring) — its atom frame where nothing is
        eliminated, so a join query's nodes are its atoms and a
        relation's net delta maps row-for-row onto them (after the
        atom's repeated-variable selection).  The full reducer is
        skipped: rows without extensions carry subtree count 0, which
        the access math already treats as absent and which an update
        can later revive (stores built from *reduced* frames could not
        resurrect dropped rows).  Returns False when this build does
        not apply; the caller then falls back to the classic reduced
        build (whose refresh is a full rebuild).
        """
        query = self.query
        atoms = dict(enumerate(atom_frames(query, self._db)))
        dictionary = columnar_family(atoms.values())
        if dictionary is None:
            return False
        # Structure first: who is eliminated into whom, on which key.
        tree, s_node = free_connex_join_tree(query)
        below = [node for node in tree.bottom_up() if node != s_node]
        up = {n: p for n, p in tree.parent.items() if p != s_node}
        keys: Dict[int, Tuple[str, ...]] = {}
        for node in below:
            scope = atoms[up[node]].variables if node in up else self.head
            keys[node] = tuple(v for v in atoms[node].variables if v in scope)
        tops = [node for node in below if node not in up]
        layered = find_layered_tree(
            {node: frozenset(keys[node]) for node in tops}, self.order
        )
        if layered is None:
            return False
        self._layered = layered
        self._dictionary = dictionary
        self.store_backend = "columnar"
        self._maintain = True
        self._up = up
        self._atom_nodes: Dict[str, List[int]] = {}
        self._atom_proj: Dict[
            int, Tuple[Tuple[int, ...], List[Tuple[int, int]]]
        ] = {}
        for node, atom in enumerate(query.atoms):
            self._atom_nodes.setdefault(atom.relation, []).append(node)
            self._atom_proj[node] = atom_projection(atom.variables)
        # Then the data, children first.
        cardinality = len(dictionary)
        self._projections: Dict[int, _Projection] = {}
        for node in below:
            frame, children = atoms[node], tree.children(node)
            if node in tops and not children and keys[node] == frame.variables:
                self._frames[node] = frame  # nothing to eliminate
                continue
            codes = frame.codes()
            projection = self._projections[node] = _Projection(
                codes if children else None,
                list(frame.positions(keys[node])),
                {c: list(frame.positions(keys[c])) for c in children},
            )
            projection.fold(
                codes[self._live(node, codes)], codes[:0], cardinality
            )
            if node not in up:
                self._frames[node] = ColumnarFrame(
                    keys[node],
                    projection.support.reps,
                    dictionary,
                    _distinct=True,
                )
        self._build_stores_columnar(drop_dead=False)
        return True

    def _live(
        self, node: int, rows: np.ndarray, skip: Optional[int] = None
    ) -> np.ndarray:
        """Which of ``node``'s frame rows have support in every child
        (but ``skip``) on their separator key."""
        cardinality = len(self._dictionary)
        live = np.ones(len(rows), dtype=bool)
        for child, pos in self._projections[node].child_pos.items():
            if child != skip:
                support = self._projections[child].support
                live &= support.gather(rows[:, pos], cardinality, 0) > 0
        return live

    def _node_separator(self, node: int) -> Tuple[str, ...]:
        """Variables shared with the parent, in frame-column order."""
        parent = self._layered.parent[node]
        if parent == VIRTUAL_ROOT:
            return ()
        parent_vars = self._frames[parent].variables
        return tuple(
            v for v in self._frames[node].variables if v in parent_vars
        )

    def _finish_count(self) -> None:
        children = self._layered.children[VIRTUAL_ROOT]
        total = 1 if children else 0
        for child in children:
            total *= self._stores[child].total(())
        self._count = total

    def _build_stores(self) -> None:
        layered, frames = self._layered, self._frames
        stores: Dict[int, _NodeStore] = self._stores
        # Bottom-up over the layered tree: reversed preorder works
        # because preorder parents precede children.
        for node in reversed(layered.preorder):
            if node == VIRTUAL_ROOT:
                continue
            frame = frames[node]
            sep_vars = self._node_separator(node)
            own_vars = layered.own[node]
            store = _NodeStore()
            store.sep_positions = frame.positions(sep_vars)
            store.own_positions = frame.positions(own_vars)
            child_stores = [
                (frame.positions(self._node_separator(child)), stores[child])
                for child in layered.children[node]
            ]
            grouped: Dict[Row, List[Tuple[Row, Row, int]]] = {}
            for row in frame.rows:
                count = 1
                for positions, child_store in child_stores:
                    count *= child_store.total(
                        tuple(row[p] for p in positions)
                    )
                    if not count:
                        break
                if not count:
                    # Cannot happen after full reduction; kept so that
                    # unreduced inputs still yield correct results.
                    continue
                sep_key = tuple(row[p] for p in store.sep_positions)
                own_key = tuple(row[p] for p in store.own_positions)
                grouped.setdefault(sep_key, []).append(
                    (own_key, row, count)
                )
            for sep_key, entries in grouped.items():
                entries.sort(key=lambda e: e[0])
                own_keys = [e[0] for e in entries]
                rows = [e[1] for e in entries]
                cumulative: List[int] = []
                running = 0
                for _, _, count in entries:
                    running += count
                    cumulative.append(running)
                store.groups[sep_key] = (own_keys, rows, cumulative)
            stores[node] = store
        self._finish_count()

    def _subtree_counts(self, node: int, rows: np.ndarray) -> np.ndarray:
        """Per frame row of ``node``, the product over its children of
        the block total under the row's separator key."""
        cardinality = len(self._dictionary)
        counts = np.ones(len(rows), dtype=np.int64)
        for child, pos in self._child_sep_pos[node].items():
            _scale_counts(
                counts,
                self._stores[child].block_totals(rows[:, pos], cardinality),
            )
        return counts

    def _build_stores_columnar(self, drop_dead: bool = True) -> None:
        """Vectorized preprocessing over code columns (zero decodes).

        ``drop_dead=False`` (maintained stores) keeps rows whose
        subtree count is 0: they cost nothing during access (the
        prefix-sum search skips zero-width rows) but can be revived by
        later updates without a rebuild.
        """
        layered, frames = self._layered, self._frames
        dictionary = self._dictionary
        stores: Dict[int, _ColumnarNodeStore] = self._stores
        # Per node and child: the node's columns holding the child's
        # separator, in the child's column order.
        self._child_sep_pos: Dict[int, Dict[int, List[int]]] = {
            node: {
                child: list(frame.positions(self._node_separator(child)))
                for child in layered.children[node]
            }
            for node, frame in frames.items()
        }
        for node in reversed(layered.preorder):
            if node == VIRTUAL_ROOT:
                continue
            frame = frames[node]
            sep_pos = list(frame.positions(self._node_separator(node)))
            own_pos = list(frame.positions(layered.own[node]))
            codes = frame.codes()
            counts = self._subtree_counts(node, codes)
            if drop_dead:
                keep = counts > 0
                if not keep.all():
                    codes, counts = codes[keep], counts[keep]
            n = len(codes)
            # Dictionary codes are first-seen, not value-ordered; remap
            # the own columns through value ranks so the lexsort below
            # realizes the *value* order the access contract promises.
            if own_pos and n:
                own_codes = codes[:, own_pos]
                own_ranks = value_rank_table(dictionary, own_codes)[
                    own_codes
                ]
            else:
                own_ranks = np.empty((n, 0), dtype=np.int64)
            sep_codes = codes[:, sep_pos]
            sort_keys = [
                own_ranks[:, j]
                for j in range(own_ranks.shape[1] - 1, -1, -1)
            ] + [
                sep_codes[:, j]
                for j in range(sep_codes.shape[1] - 1, -1, -1)
            ]
            if sort_keys and n > 1:
                order = np.lexsort(tuple(sort_keys))
                codes, counts = codes[order], counts[order]
                sep_codes = codes[:, sep_pos]
            representatives, starts, ends = block_slices(sep_codes)
            store = _ColumnarNodeStore()
            store.codes = codes
            store.counts = counts
            store.refresh_cum()
            store.rep_matrix = representatives
            store.rep_keys = [
                tuple(rep) for rep in representatives.tolist()
            ]
            store.starts = starts.astype(np.int64, copy=True)
            store.ends = ends.astype(np.int64, copy=True)
            store.sep_pos = sep_pos
            store.own_pos = own_pos
            stores[node] = store
        self._finish_count()

    # ------------------------------------------------------------------
    # staleness
    # ------------------------------------------------------------------
    def _check_fresh(self) -> None:
        drifted = stale_relations(self._db, self._stamps)
        if not drifted:
            return
        if self.on_stale == "refresh":
            self.refresh()
            return
        raise StaleStructureError(
            f"LexDirectAccess for query {self.query.name} was built "
            f"before relation(s) {sorted(drifted)} mutated; its answers "
            "would be stale. Rebuild it, or construct with "
            "on_stale='refresh' to repair automatically."
        )

    def refresh(self) -> None:
        """Bring the stores up to date with the database.

        Incremental (array patches of the sorted blocks) when this is
        a maintained columnar structure and every drifted relation
        still has delta history; a full rebuild otherwise.
        """
        drifted = stale_relations(self._db, self._stamps)
        if not drifted:
            return
        try:
            self._repair(drifted)
        except OverflowError:
            # Half-repaired stores must not look fresh: forget the
            # stamps, so the next read rebuilds.
            self._maintain = False
            self._stamps = dict.fromkeys(self._stamps)
            raise

    def _repair(self, drifted: Dict[str, int]) -> None:
        if not (self._maintain and self.mode == "layered"):
            self._build()
            return
        plan: List[Tuple[str, np.ndarray, np.ndarray]] = []
        for name, stamp in drifted.items():
            try:
                inserted, deleted = self._db[name].delta_since(stamp)
            except TruncatedHistoryError:
                self._build()
                return
            plan.append((name, np.asarray(inserted), np.asarray(deleted)))
        for name, inserted, deleted in plan:
            # One atom at a time: each step takes the structure from
            # one consistent state (that atom on the old relation) to
            # the next, so self-joins need no joint treatment.
            for node in self._atom_nodes.get(name, ()):
                self._fold(
                    node,
                    self._frame_rows(node, inserted),
                    self._frame_rows(node, deleted),
                )
            self._stamps[name] = self._db[name].mutation_stamp
        self._finish_count()

    # ------------------------------------------------------------------
    # incremental patching (maintained columnar stores)
    # ------------------------------------------------------------------
    def _frame_rows(self, node: int, rows: np.ndarray) -> np.ndarray:
        """Relation rows as the atom's frame rows: the repeated-variable
        selection, then the first-occurrence columns."""
        proj, checks = self._atom_proj[node]
        for pos, first in checks:
            rows = rows[rows[:, pos] == rows[:, first]]
        return rows[:, proj]

    def _fold(
        self, node: int, inserted: np.ndarray, deleted: np.ndarray
    ) -> None:
        """Fold one atom's net frame-row delta up its existential
        subtree; patch the tree with what was born or died on top.

        Per level the delta becomes the keys whose support crossed
        zero, then the parent's rows those keys bring to life or kill
        — nothing, as a rule: an update absorbed by a support count
        stops here and touches no store.
        """
        cardinality = len(self._dictionary)
        projection = self._projections.get(node)
        if projection is not None and projection.codes is not None:
            # An inner node keeps its rows in step; the live ones count.
            gone = lookup_rows(projection.codes, deleted, cardinality)
            projection.codes = np.concatenate(
                [projection.codes[gone < 0], inserted]
            )
            inserted = inserted[self._live(node, inserted)]
            deleted = deleted[self._live(node, deleted)]
        while True:
            if node in self._projections:
                inserted, deleted = self._projections[node].fold(
                    inserted, deleted, cardinality
                )
            if not (len(inserted) or len(deleted)):
                return  # absorbed
            if node not in self._up:
                self._patch(node, deleted, insert=False)
                self._patch(node, inserted, insert=True)
                return
            node, child = self._up[node], node
            inserted = self._flipped(node, child, inserted)
            deleted = self._flipped(node, child, deleted)

    def _flipped(self, node: int, child: int, keys: np.ndarray) -> np.ndarray:
        """``node``'s rows that ``child``'s support crossing zero on
        ``keys`` brings to life or kills: those with such a separator
        key, live in every other child."""
        projection = self._projections[node]
        rows = projection.codes
        if not len(keys):
            return rows[:0]
        hit = lookup_rows(
            rows[:, projection.child_pos[child]], keys, len(self._dictionary)
        )
        rows = rows[hit >= 0]
        return rows[self._live(node, rows, skip=child)]

    def _own_key(
        self, store: _ColumnarNodeStore, codes_row: np.ndarray
    ) -> Tuple:
        values = self._dictionary.values()
        return tuple(values[int(codes_row[p])] for p in store.own_pos)

    def _bisect_block(
        self,
        store: _ColumnarNodeStore,
        start: int,
        end: int,
        own_key: Tuple,
    ) -> Tuple[int, bool]:
        """Position of ``own_key`` inside a sorted block, + exact hit.

        O(log block) comparisons, each decoding one pivot row's own
        columns — the same per-access decode budget ``access`` has.
        """
        codes = store.codes
        lo, hi = start, end
        while lo < hi:
            mid = (lo + hi) // 2
            if self._own_key(store, codes[mid]) < own_key:
                lo = mid + 1
            else:
                hi = mid
        exact = lo < end and self._own_key(store, codes[lo]) == own_key
        return lo, exact

    def _patch(self, node: int, rows: np.ndarray, insert: bool) -> None:
        """Splice distinct net delta rows into one node's store.

        Each row's position comes from two bisects against the store
        as it stands (its block, then its own key inside the block);
        the rows then go in or out as one array per column, with one
        shift of the block bounds, one prefix-sum recompute and one
        :meth:`_propagate` over their separator keys.
        """
        if not len(rows):
            return
        store: _ColumnarNodeStore = self._stores[node]
        cardinality = len(self._dictionary)
        # In final order — block by block, own values ascending:
        # np.insert keeps the given order among rows bound for one
        # position.
        keyed = sorted(
            (sep_key, self._own_key(store, row), j)
            for j, (sep_key, row) in enumerate(
                zip(map(tuple, rows[:, store.sep_pos].tolist()), rows)
            )
        )
        # Per delta row that does go in / out: its index, its position,
        # its block as rep_keys stands — or is it a new block, before
        # that one?
        spliced: List[Tuple[int, int, int, bool]] = []
        for sep_key, own_key, j in keyed:
            i = bisect_left(store.rep_keys, sep_key)
            known = i < len(store.rep_keys) and store.rep_keys[i] == sep_key
            if known:
                position, exact = self._bisect_block(
                    store, int(store.starts[i]), int(store.ends[i]), own_key
                )
            else:
                position = (
                    int(store.starts[i])
                    if i < len(store.rep_keys)
                    else len(store.codes)
                )
                exact = False
            if exact == insert:
                continue  # present already / never there (deltas are net)
            spliced.append((j, position, i, not known))
        if not spliced:
            return
        taken, positions, at, new = map(np.asarray, zip(*spliced))
        rows = rows[taken]
        sizes = store.ends - store.starts
        if insert:
            counts = self._subtree_counts(node, rows)
            store.codes = np.insert(store.codes, positions, rows, axis=0)
            store.counts = np.insert(store.counts, positions, counts)
            np.add.at(sizes, at[~new], 1)
            if new.any():
                # One new block per distinct new key, sized by its rows
                # (adjacent, and ordered as the representatives are).
                opened, first, last = block_slices(
                    rows[new][:, store.sep_pos]
                )
                before = at[new][first]
                sizes = np.insert(sizes, before, last - first)
                store.rep_matrix = np.insert(
                    store.rep_matrix, before, opened, axis=0
                )
                for i, key in reversed(
                    list(zip(before.tolist(), map(tuple, opened.tolist())))
                ):
                    store.rep_keys.insert(i, key)
        else:
            counts = store.counts[positions]
            store.codes = np.delete(store.codes, positions, axis=0)
            store.counts = np.delete(store.counts, positions)
            np.subtract.at(sizes, at, 1)  # an emptied block stays
        store.ends = np.cumsum(sizes)
        store.starts = store.ends - sizes
        store.refresh_cum()
        changed = rows[counts != 0][:, store.sep_pos]
        if len(changed):
            self._propagate(node, unique_rows(changed, cardinality))

    def _propagate(self, node: int, keys: np.ndarray) -> None:
        """Repair ancestor subtree counts for the changed child keys.

        Per level: one vectorized scan finds the parent rows matching
        a changed key, their counts are recomputed from the (already
        repaired) child block totals, the prefix sums are re-cumsummed,
        and the parent separator keys of the rows whose count actually
        changed propagate further up.  Cancellations (block totals that
        end up unchanged) stop the walk at the next level.
        """
        layered = self._layered
        cardinality = len(self._dictionary)
        child = node
        while True:
            parent = layered.parent[child]
            if parent is None or parent == VIRTUAL_ROOT:
                return
            pstore: _ColumnarNodeStore = self._stores[parent]
            if not len(pstore.codes):
                return
            sub = pstore.codes[:, self._child_sep_pos[parent][child]]
            sub_keys, changed_keys = common_keys(sub, keys, cardinality)
            affected = np.flatnonzero(np.isin(sub_keys, changed_keys))
            if not len(affected):
                return
            rows = pstore.codes[affected]
            new_counts = self._subtree_counts(parent, rows)
            changed = new_counts != pstore.counts[affected]
            if not changed.any():
                return
            pstore.counts[affected] = new_counts
            pstore.refresh_cum()
            keys = unique_rows(
                rows[changed][:, pstore.sep_pos], cardinality
            )
            child = parent

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def count(self) -> int:
        """The number of answers, the tree's root total: a Python int,
        exact past 2^63 (where ``len()`` cannot carry it)."""
        self._check_fresh()
        return self._count

    def __len__(self) -> int:
        return self.count()

    def access(self, index: int) -> Row:
        """The answer at ``index`` (0-based) in the lexicographic order."""
        self._check_fresh()
        if index < 0 or index >= self._count:
            raise IndexError(
                f"index {index} out of range for {self._count} answers"
            )
        if self.mode == "materialized":
            assert self._materialized is not None
            return self._materialized[index]
        head_pos = {v: i for i, v in enumerate(self.head)}
        assignment: List[object] = [None] * len(self.head)
        # _select assigns each node's row and recurses; kick off at the
        # virtual root with the full index.  Columnar stores descend
        # over codes; only the returned answer is decoded.
        self._descend_children(VIRTUAL_ROOT, index, assignment, head_pos)
        if self.store_backend == "columnar":
            decode = self._dictionary.decode
            return tuple(decode(code) for code in assignment)
        return tuple(assignment)

    def _select(
        self,
        node: int,
        index: int,
        assignment: List[object],
        head_pos: Dict[str, int],
    ) -> None:
        store = self._stores[node]
        if self._layered.parent[node] == VIRTUAL_ROOT:
            key: Row = ()
        else:
            key = tuple(
                assignment[head_pos[v]]
                for v in self._node_separator(node)
            )
        row, previous = store.locate(key, index)
        for position, variable in enumerate(self._frames[node].variables):
            assignment[head_pos[variable]] = row[position]
        residual = index - previous
        # Recurse into this node's children with the leftover index.
        self._descend_children(node, residual, assignment, head_pos)

    def _descend_children(
        self,
        node: int,
        residual: int,
        assignment: List[object],
        head_pos: Dict[str, int],
    ) -> None:
        children = self._layered.children[node]
        if not children:
            return
        sizes: List[int] = []
        for child in children:
            if node == VIRTUAL_ROOT:
                key: Row = ()
            else:
                key = tuple(
                    assignment[head_pos[v]]
                    for v in self._node_separator(child)
                )
            sizes.append(self._stores[child].total(key))
        suffix_products = [1] * (len(children) + 1)
        for j in range(len(children) - 1, -1, -1):
            suffix_products[j] = suffix_products[j + 1] * sizes[j]
        for j, child in enumerate(children):
            radix = suffix_products[j + 1]
            child_index = residual // radix
            residual = residual % radix
            self._select(child, child_index, assignment, head_pos)

    # ------------------------------------------------------------------
    # block access
    # ------------------------------------------------------------------
    def access_range(self, start: int, stop: int, step: int = 1) -> List[Row]:
        """``[access(i) for i in range(start, stop, step)]``, as one read.

        :class:`IndexError` if any index is outside ``[0, n)``.  On
        columnar stores a contiguous range (``step == 1``: pages,
        iteration, ``first``) is expanded, not searched
        (:meth:`_expand`): the answers below a row are runs of
        contiguous store rows, so a block costs O(block + depth·log m)
        — O(1) amortised per answer, the enumeration bound, read off
        the counted tree.  Any other step sends its index array down
        the tree (:meth:`_descend_range`: Õ(log m) per answer).  Either
        way the block is decoded once.
        """
        self._check_fresh()
        indices = range(start, stop, step)
        if not indices:
            return []
        low, high = sorted((indices[0], indices[-1]))
        if low < 0 or high >= self._count:
            raise IndexError(
                f"range({start}, {stop}, {step}) out of range for "
                f"{self._count} answers"
            )
        if self.store_backend != "columnar" or self._count > _INT64_MAX:
            # Python stores (the materialized mode's list included) and
            # a root product past int64 (exact only in the scalar
            # descent's bigints) go index by index.
            return [self.access(i) for i in indices]
        # One head column per row, so each column is gathered and
        # decoded contiguously.
        columns = np.empty((len(self.head), len(indices)), dtype=np.int64)
        head_pos = {v: i for i, v in enumerate(self.head)}
        if step == 1:
            rows_of = self._expand(
                VIRTUAL_ROOT,
                np.zeros(1, dtype=np.int64),  # the root's one (empty) row
                np.array([start], dtype=np.int64),
                np.array([stop], dtype=np.int64),
            )
            for node, rows in rows_of.items():
                codes = self._stores[node].codes.take(rows, axis=0)
                for j, variable in enumerate(self._frames[node].variables):
                    columns[head_pos[variable]] = codes[:, j]
        else:
            self._descend_range(
                VIRTUAL_ROOT, np.arange(start, stop, step), columns.T, head_pos
            )
        return self._dictionary.decode_rows(columns.T)

    def _child_blocks(
        self, node: int, child: int, rows: np.ndarray
    ) -> np.ndarray:
        """The block of ``child`` under each of ``node``'s store rows
        (block 0 under the virtual root): a live row's blocks exist."""
        if node == VIRTUAL_ROOT:
            return np.zeros_like(rows)
        codes = self._stores[node].codes.take(rows, axis=0)
        return self._stores[child].blocks_of(
            codes.take(self._child_sep_pos[node][child], axis=1),
            len(self._dictionary),
        )

    def _expand(
        self, node: int, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Segment ``k`` is answers ``lo[k]..hi[k]-1`` of the product of
        ``node``'s child blocks under its store row ``rows[k]`` (the
        virtual root has one row); returns, per node below ``node``,
        the store row every answer of the segments reads there, in
        answer order.

        A row's child blocks are found once, never per answer.  Several
        children form a mixed-radix product, the first child outermost
        as in :meth:`_descend_range`: child ``j`` advances once per
        ``radix`` answers (the product of the later block totals), so a
        segment reads the cyclic range of its block from ``lo // radix``
        to ``(hi - 1) // radix`` — never more answers than the segment
        has, at most the whole block once — and repeats / tiles it.
        """
        children = self._layered.children[node]
        if not children:
            return {}
        if len(children) == 1:
            child = children[0]
            if node == VIRTUAL_ROOT:
                # The child's one block is its whole store: the range
                # is its running count, with two searches for its edges.
                cum0 = self._stores[child].cum0
                return self._expand_runs(
                    child,
                    cum0.searchsorted(lo, "right") - 1,
                    cum0.searchsorted(hi - 1, "right"),
                    lo,
                    hi,
                )
            return self._expand_blocks(
                child, self._child_blocks(node, child, rows), lo, hi
            )
        sizes = hi - lo
        segment = np.repeat(np.arange(len(lo)), sizes)
        # Each answer's index within its segment's product.
        index = np.arange(len(segment)) + np.repeat(
            lo - (np.cumsum(sizes) - sizes), sizes
        )
        rows_of: Dict[int, np.ndarray] = {}
        radix = np.ones(len(lo), dtype=np.int64)
        for child in reversed(children):
            store: _ColumnarNodeStore = self._stores[child]
            block = self._child_blocks(node, child, rows)
            total = store.cum0[store.ends[block]] - store.cum0[store.starts[block]]
            first = lo // radix
            width = np.minimum((hi - 1) // radix - first + 1, total)
            begin = first % total
            head = np.minimum(width, total - begin)
            # The cyclic range as up to two ranges, [begin, begin + head)
            # then [0, width - head), interleaved segment by segment.
            piece_lo = np.stack([begin, np.zeros_like(begin)], 1).ravel()
            piece_hi = np.stack([begin + head, width - head], 1).ravel()
            real = piece_hi > piece_lo
            below = self._expand_blocks(
                child, np.repeat(block, 2)[real], piece_lo[real], piece_hi[real]
            )
            at = (np.cumsum(width) - width)[segment] + (
                index // radix[segment] - first[segment]
            ) % total[segment]
            for descendant, descendant_rows in below.items():
                rows_of[descendant] = descendant_rows[at]
            radix *= total
        return rows_of

    def _expand_blocks(
        self, child: int, block: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """:meth:`_expand` for answers ``lo[k]..hi[k]-1`` of ``child``'s
        block ``block[k]``, ``child`` included.

        A block's answers are its store rows ``starts..ends``, each
        repeated by its count; only a segment that starts or stops
        inside its block searches ``cum0`` for its edge row.
        """
        store: _ColumnarNodeStore = self._stores[child]
        cum0 = store.cum0
        first = store.starts[block]
        last = store.ends[block]
        # The segments as positions in the store's running count.
        base = cum0[first]
        lo, hi = base + lo, base + hi
        edge = lo > base
        first[edge] = cum0.searchsorted(lo[edge], "right") - 1
        edge = hi < cum0[last]
        last[edge] = cum0.searchsorted(hi[edge] - 1, "right")
        return self._expand_runs(child, first, last, lo, hi)

    def _expand_runs(
        self,
        child: int,
        first: np.ndarray,
        last: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> Dict[int, np.ndarray]:
        """:meth:`_expand` for the answers ``lo[k]..hi[k]-1`` of
        ``child``'s running count (``cum0``), which lie on its store
        rows ``first[k]..last[k]-1``.

        Each row is repeated by its count, so a dead (zero-count) row
        drops out for free, and a segment's first and last row pass on
        just the answers inside the segment, whatever their fanout.
        """
        store: _ColumnarNodeStore = self._stores[child]
        cum0 = store.cum0
        lengths = last - first
        ends = lengths.cumsum()
        begins = ends - lengths
        rows = (first - begins).repeat(lengths) + np.arange(ends[-1])
        # A row's answers inside its segment: all of them, less the
        # cuts of a segment's first and last row.
        size = store.counts[rows]
        cut = lo - cum0[first]
        size[begins] -= cut
        size[ends - 1] -= cum0[last] - hi
        rows_of = {child: rows.repeat(size)}
        if self._layered.children[child]:
            row_lo = np.zeros_like(size)
            row_lo[begins] = cut
            live = size > 0
            rows_of.update(
                self._expand(
                    child, rows[live], row_lo[live], (row_lo + size)[live]
                )
            )
        return rows_of

    def _descend_range(
        self,
        node: int,
        residual: np.ndarray,
        out: np.ndarray,
        head_pos: Dict[str, int],
    ) -> None:
        """:meth:`_descend_children` / :meth:`_select` for an index array
        — the strided reads of :meth:`access_range`.

        ``residual[k]`` is request ``k``'s index within the product of
        ``node``'s child blocks under the separator codes already in
        ``out[k]``.  It splits mixed-radix, last child first (siblings
        read only the parent's columns, so their order is free); every
        divisor is a block total of a selected, hence non-zero, row.
        Every node costs a block ``searchsorted`` and a ``cum0``
        ``searchsorted`` per request: Õ(log m) per answer.
        """
        cardinality = len(self._dictionary)
        for child in reversed(self._layered.children[node]):
            store: _ColumnarNodeStore = self._stores[child]
            separator = [head_pos[v] for v in self._node_separator(child)]
            block = store.blocks_of(out[:, separator], cardinality)
            first = store.cum0[store.starts[block]]
            residual, index = np.divmod(
                residual, store.cum0[store.ends[block]] - first
            )
            # Last row with exclusive prefix sum <= target: never a 0-count row.
            slot = np.searchsorted(store.cum0, first + index, "right") - 1
            variables = self._frames[child].variables
            out[:, [head_pos[v] for v in variables]] = store.codes[slot]
            self._descend_range(
                child, first + index - store.cum0[slot], out, head_pos
            )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def materialize(self) -> List[Row]:
        """All answers in order (test helper; output-sized)."""
        self._check_fresh()
        return [self.access(i) for i in range(self._count)]
