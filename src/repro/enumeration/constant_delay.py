"""Constant-delay enumeration for free-connex acyclic queries.

Preprocessing (Theorem 3.17's upper bound, all O(m)):

1. reduce the query to an equivalent acyclic *join* query over the free
   variables (:func:`repro.joins.fc_reduce.free_connex_reduce`);
2. for every join-tree node, index its rows by the separator toward the
   parent.

On Python-backend frames step 2 builds one dict-of-lists per node.  On
columnar frames it is an array program: one ``np.lexsort`` per node
(separator columns major) materializes the adjacency as contiguous
sorted blocks and block boundaries come from one vectorized
change-detection pass — the sorted matrices stay *code matrices*, so
no tuple is decoded and no per-row list is materialized during
preprocessing.  Enumeration walks the matrices with a row cursor,
binds dictionary *codes*, and decodes exactly one answer per yield, so
the decode cost is part of the (constant) delay, not the
preprocessing.

Enumeration walks the join tree depth-first.  Because the frames are
fully reduced, *every* partial assignment extends to an answer: there
are no dead ends, so the work between two consecutive answers is
bounded by the number of tree nodes — a constant in data complexity.
Answers are emitted without repetition because the reduced query is a
join query over exactly the free variables (set semantics).

**Staleness and maintenance.**  The blocks snapshot the database; the
constructor records every relation's ``mutation_stamp`` and iteration
compares them first.  On drift the default (``on_stale="error"``)
raises :class:`repro.db.interface.StaleStructureError` instead of
silently streaming pre-mutation answers.  With ``on_stale="refresh"``
the fully reduced blocks are rebuilt, so every enumerator this module
builds is dead-end-free and the delay bound holds after any update.
(Cheap maintenance lives in the counted layered tree of
:mod:`repro.direct_access.lex`, whose zero-count rows vanish in the
prefix sums instead of becoming dead ends.)

For non-free-connex queries, ``strict=False`` switches to a
materialize-first fallback whose preprocessing is the full evaluation —
the superlinear behaviour that Theorem 3.16 proves necessary.

This is the low-level algorithm the paper names; the engine facade
(:mod:`repro.engine`) serves iteration as ordered block reads of its
counted layered tree instead and does not construct it — see
``examples/ranked_paging.py`` for direct low-level use.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.db.columnar import block_slices
from repro.db.database import Database
from repro.db.interface import (
    StaleStructureError,
    snapshot_stamps,
    stale_relations,
)
from repro.hypergraph.freeconnex import is_free_connex
from repro.joins.fc_reduce import ReducedJoinQuery, free_connex_reduce
from repro.joins.generic_join import generic_join
from repro.joins.vectorized import columnar_family
from repro.query.cq import ConjunctiveQuery

Row = Tuple[object, ...]


class ConstantDelayEnumerator:
    """Enumerate query answers with constant delay after preprocessing.

    Parameters
    ----------
    query, db:
        The conjunctive query and database.
    strict:
        When True (default), refuse non-free-connex queries with
        :class:`ValueError`.  When False, fall back to materializing
        the answers during preprocessing (superlinear, measured by the
        benchmarks as the hard side of the dichotomy).
    on_stale:
        ``"error"`` (default) raises :class:`StaleStructureError` when
        iterating after an underlying relation mutated; ``"refresh"``
        rebuilds the fully reduced blocks first (module docstring).

    The constructor *is* the preprocessing phase; iteration is the
    enumeration phase.  ``store_backend`` reports which preprocessing
    ran (``"columnar"`` = vectorized, zero row decodes).
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        strict: bool = True,
        on_stale: str = "error",
    ) -> None:
        if on_stale not in ("error", "refresh"):
            raise ValueError(
                f"on_stale must be 'error' or 'refresh', got {on_stale!r}"
            )
        self.query = query
        self.head = tuple(query.head)
        self.strict = strict
        self.on_stale = on_stale
        self._db = db
        self.rebuilds = -1  # the build below is construction
        if query.is_boolean():
            raise ValueError(
                "Boolean queries have nothing to enumerate; use "
                "yannakakis_boolean"
            )
        self._build()

    def _build(self) -> None:
        query, db = self.query, self._db
        self.rebuilds += 1
        self._stamps = snapshot_stamps(db, query.relation_symbols)
        self.mode: str
        self.store_backend = "python"
        self._materialized: Optional[List[Row]] = None
        self._reduced: Optional[ReducedJoinQuery] = None
        self._dictionary = None
        if is_free_connex(query):
            self.mode = "free-connex"
            self._reduced = free_connex_reduce(query, db)
            self._build_indexes()
        elif self.strict:
            raise ValueError(
                f"query {query.name} is not free-connex; constant-delay "
                "enumeration after linear preprocessing is impossible "
                "under the hypotheses of Theorem 3.17 (pass strict=False "
                "for the materializing fallback)"
            )
        else:
            self.mode = "materialized"
            self._materialized = sorted(generic_join(query, db))

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
            f"ConstantDelayEnumerator for query {self.query.name} was "
            f"built before relation(s) {sorted(drifted)} mutated; its "
            "stream would be stale. Rebuild it, or construct with "
            "on_stale='refresh' to repair automatically."
        )

    def refresh(self) -> None:
        """Rebuild the reduced blocks if any relation drifted."""
        if stale_relations(self._db, self._stamps):
            self._build()

    # ------------------------------------------------------------------
    # preprocessing internals
    # ------------------------------------------------------------------
    def _node_order_and_seps(self) -> None:
        """Depth-first node order and each node's parent separator."""
        reduced = self._reduced
        assert reduced is not None
        self._node_order: List[int] = []
        self._sep_vars: Dict[int, Tuple[str, ...]] = {}
        tree = reduced.tree
        # Depth-first preorder over the forest, deterministic.
        stack = list(reversed(tree.roots))
        while stack:
            node = stack.pop()
            self._node_order.append(node)
            stack.extend(reversed(tree.children(node)))
        for node in self._node_order:
            frame = reduced.frames[node]
            parent = tree.parent.get(node)
            if parent is None:
                sep: Tuple[str, ...] = ()
            else:
                parent_vars = reduced.frames[parent].variables
                sep = tuple(
                    v for v in frame.variables if v in parent_vars
                )
            self._sep_vars[node] = sep

    def _build_indexes(self) -> None:
        """Index every node's rows by its parent separator key."""
        reduced = self._reduced
        assert reduced is not None
        self._node_order = []
        self._indexes: Dict[int, Dict[Row, object]] = {}
        self._sep_vars = {}
        if reduced.is_empty:
            return
        self._node_order_and_seps()
        self._dictionary = columnar_family(reduced.frames.values())
        if self._dictionary is not None:
            self.store_backend = "columnar"
            self._blocks: Dict[
                int,
                Tuple[
                    np.ndarray,
                    Dict[Tuple[int, ...], Tuple[int, int]],
                ],
            ] = {}
            for node in self._node_order:
                self._build_node_blocks(node)
            return
        for node in self._node_order:
            frame = reduced.frames[node]
            positions = frame.positions(self._sep_vars[node])
            index: Dict[Row, List[Row]] = {}
            for row in frame.rows:
                key = tuple(row[p] for p in positions)
                index.setdefault(key, []).append(row)
            for rows in index.values():
                rows.sort()
            self._indexes[node] = index

    def _build_node_blocks(self, node: int) -> None:
        """Adjacency of one node as lexsorted code blocks (zero decodes).

        Sort the code matrix with the separator columns as major keys,
        detect block boundaries vectorized, and map each coded
        separator key to its ``(start, end)`` slice over the sorted
        matrix.  The matrix is kept *as a code matrix* — enumeration
        walks it with a row cursor and decodes one answer per yield,
        so the preprocessing performs no output-sized ``tolist``
        export (the ROADMAP's enumeration export gap).  Block-internal
        order is code order — deterministic, but backend-specific
        (value order would require comparing decoded values, which
        this phase promises not to do).
        """
        reduced = self._reduced
        assert reduced is not None
        frame = reduced.frames[node]
        codes = frame.codes()
        n, width = codes.shape
        sep_pos = list(frame.positions(self._sep_vars[node]))
        if n and width:
            # Minor keys: the full row (deterministic block order);
            # major keys (last in the lexsort tuple): separators.
            keys = [
                codes[:, j] for j in range(width - 1, -1, -1)
            ] + [codes[:, j] for j in reversed(sep_pos)]
            codes = codes[np.lexsort(tuple(keys))]
        sep_codes = codes[:, sep_pos] if sep_pos else codes[:, :0]
        representatives, starts, ends = block_slices(sep_codes)
        slices = {
            tuple(rep): (int(start), int(end))
            for rep, start, end in zip(
                representatives.tolist(),
                starts.tolist(),
                ends.tolist(),
            )
        }
        self._blocks[node] = (codes, slices)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Row]:
        self._check_fresh()
        if self.mode == "materialized":
            assert self._materialized is not None
            return iter(self._materialized)
        if self.store_backend == "columnar":
            return self._enumerate_columnar()
        return self._enumerate_free_connex()

    def _var_positions(self) -> Dict[int, List[Tuple[int, int]]]:
        reduced = self._reduced
        assert reduced is not None
        head_index = {v: i for i, v in enumerate(self.head)}
        return {
            node: [
                (head_index[v], p)
                for p, v in enumerate(reduced.frames[node].variables)
            ]
            for node in self._node_order
        }

    def _enumerate_free_connex(self) -> Iterator[Row]:
        reduced = self._reduced
        assert reduced is not None
        if reduced.is_empty:
            return
        order = self._node_order
        head_index = {v: i for i, v in enumerate(self.head)}
        var_positions = self._var_positions()
        assignment: List[object] = [None] * len(self.head)

        def recurse(depth: int) -> Iterator[Row]:
            if depth == len(order):
                yield tuple(assignment)
                return
            node = order[depth]
            sep = self._sep_vars[node]
            key = tuple(assignment[head_index[v]] for v in sep)
            for row in self._indexes[node].get(key, ()):
                # Consistency with already-bound variables beyond the
                # separator cannot fail (running intersection confines
                # sharing to the separator), so bind and descend.
                for target, source in var_positions[node]:
                    assignment[target] = row[source]
                yield from recurse(depth + 1)
            # No cleanup needed: ancestors rebind on their next row.

        yield from recurse(0)

    def _enumerate_columnar(self) -> Iterator[Row]:
        """The same depth-first walk over dictionary codes.

        Each answer is decoded individually at yield time — a
        constant-per-answer cost, preserving the delay contract while
        the preprocessing stays decode-free.
        """
        reduced = self._reduced
        assert reduced is not None
        if reduced.is_empty or not self._node_order:
            return
        order = self._node_order
        head_index = {v: i for i, v in enumerate(self.head)}
        var_positions = self._var_positions()
        decode = self._dictionary.decode
        assignment: List[int] = [0] * len(self.head)

        def recurse(depth: int) -> Iterator[Row]:
            if depth == len(order):
                yield tuple(decode(code) for code in assignment)
                return
            node = order[depth]
            sep = self._sep_vars[node]
            key = tuple(assignment[head_index[v]] for v in sep)
            rows, slices = self._blocks[node]
            slice_ = slices.get(key)
            if slice_ is None:
                return
            for position in range(slice_[0], slice_[1]):
                row = rows[position]
                for target, source in var_positions[node]:
                    assignment[target] = row[source]
                yield from recurse(depth + 1)

        yield from recurse(0)

    def count_via_enumeration(self) -> int:
        """Number of answers by exhausting the stream (test helper)."""
        return sum(1 for _ in self)
