"""Prepared queries and the uniform :class:`AnswerSet` handle.

A :class:`PreparedQuery` is the engine's unit of serving: one query,
one :class:`~repro.engine.planner.Plan`, the session's database, and a
lazily built answer structure shared by every
:meth:`PreparedQuery.run` call.  A free-connex query holds one counted
layered join tree (:class:`repro.direct_access.lex.LexDirectAccess` on
``plan.tree_order``): its root total is the count, pages and iteration
are block reads of it (``access_range``), ``answers[i]`` is one descent
— the paper's three free-connex upper bounds (Theorems 3.13, 3.17,
3.24) are one preprocessing pass seen three ways.  Every read the tree
does not serve — the cyclic and acyclic-materialize families, pages of
a free-connex query in an inadmissible order — is one
:class:`~repro.direct_access.lex.OrderedAnswers`, the output of the
query class's own algorithm: counted as produced, sorted when rows are
first read.
Aggregates own no structure: unweighted, ⊕ over the answers of ⊗ of
ones is ``n·1``, the count's image in the semiring
(:func:`repro.semiring.faq.aggregate_units`); per-atom weights run
the FAQ pipelines of :mod:`repro.semiring.faq` per call.

Liveness: every structure is built with ``on_stale="refresh"`` or
carries the relation stamps it is current for, so a prepared query
served across an update stream (mutations through
:meth:`repro.engine.session.Session.add` / ``discard``) never raises
:class:`repro.db.interface.StaleStructureError` and never serves a
stale answer — it repairs incrementally where the delta-segment
machinery allows and rebuilds otherwise.  The counted
tree of a free-connex query patches in place, projected or not: the
existential variables are eliminated into support-counted projections
(:mod:`repro.direct_access.lex`, "Staleness and maintenance"), a
projected tuple is a row of the tree while its support is positive,
and a net delta reaches the tree only where a support count crosses
zero — as arrays, one splice per node.  An :class:`OrderedAnswers` is
built by one producer run per database version, which serves count,
pages, iteration and aggregates alike, and while every drifted
relation can still answer ``delta_since`` a join query's answers are
repaired by delta joins over the changed tuples instead of being
produced again.  The classifier's ``dynamic`` verdict rules out
constant-time maintenance off the q-hierarchical class (a cyclic
query, most projections); it asks neither for a full Õ(m^{ρ*}) join
nor for an Õ(m) rebuild per single-tuple update.  The
``OrderedAnswers`` of a projected query rebuild per version.
"""

from __future__ import annotations

import operator
import threading
from contextlib import ExitStack
from itertools import compress, islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.db.columnar import lookup_rows, unique_rows
from repro.db.database import Database
from repro.db.interface import (
    TruncatedHistoryError,
    snapshot_stamps,
    stale_relations,
)
from repro.direct_access.lex import LexDirectAccess, OrderedAnswers
from repro.engine.planner import BOOLEAN, FREE_CONNEX, Plan
from repro.joins.generic_join import (
    generic_join_boolean,
    generic_join_delta_codes,
)
from repro.joins.yannakakis import yannakakis_boolean
from repro.query.cq import ConjunctiveQuery
from repro.semiring.faq import (
    WeightFn,
    aggregate_acyclic,
    aggregate_generic,
    aggregate_units,
)
from repro.semiring.semirings import Semiring

Row = Tuple[object, ...]


def _bisect_rows(rows: List[Row], target: object, key: Callable) -> int:
    """Leftmost insertion point of ``target`` among ``rows`` sorted by
    ``key`` (``bisect_left(..., key=)`` needs Python 3.10)."""
    lo, hi = 0, len(rows)
    while lo < hi:
        mid = (lo + hi) // 2
        if key(rows[mid]) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _splice_rows(
    rows: List[Row], at: List[int], new_rows: List[Row]
) -> List[Row]:
    """A new list: ``new_rows[i]`` inserted before ``rows[at[i]]``
    (``at`` ascending) — the list counterpart of ``np.insert``."""
    out: List[Row] = []
    done = 0
    for position, row in zip(at, new_rows):
        out.extend(rows[done:position])
        out.append(row)
        done = position
    out.extend(rows[done:])
    return out


class PreparedQuery:
    """A classified, planned, incrementally served query.

    Produced by :meth:`repro.engine.session.Session.prepare`; call
    :meth:`run` for an :class:`AnswerSet` and :meth:`explain` for the
    plan.  The answer structure (the free-connex family's counted
    tree, every other read's shared :class:`OrderedAnswers`) is built on
    first demand and kept for the lifetime of the prepared query,
    surviving updates through repair/rebuild.
    """

    def __init__(
        self,
        session,
        query: ConjunctiveQuery,
        plan: Plan,
        semiring: Optional[Semiring] = None,
    ) -> None:
        self.session = session
        self.query = query
        self.plan = plan
        self.semiring = semiring
        self._db: Database = session.db
        self.head = tuple(query.head)
        # Sort key realizing the plan's lexicographic paging order.
        self._page_key: Optional[Callable[[Row], object]] = None
        if plan.order:
            self._page_key = operator.itemgetter(
                *(self.head.index(v) for v in plan.order)
            )
        # Lazy serving structures; None = not built yet.
        self._accessor: Optional[LexDirectAccess] = None
        self._answers: Optional[OrderedAnswers] = None
        # The Boolean family's verdict and the stamps it is current for.
        self._decided: Optional[Tuple[Dict[str, int], bool]] = None
        # Concurrent readers serialize per prepared query (lazy
        # structure builds and repairs are not interleavable);
        # distinct prepared queries stay concurrent.
        self._build_lock = threading.RLock()

    def _serving_guard(self) -> ExitStack:
        """Session read lock + per-prepared build lock, re-entrant.

        Every read entry point takes this: the shared session lock
        keeps reads out of half-applied updates (writers are
        exclusive, see :class:`repro.util.locks.ReadWriteLock`), and
        the build lock makes lazy structure construction and repair
        single-threaded per prepared query.  Both sides are
        re-entrant, so nested reads (``__getitem__`` → ``count``) are
        free.
        """
        stack = ExitStack()
        rw = getattr(self.session, "_rw", None)
        if rw is not None:
            stack.enter_context(rw.read())
        stack.enter_context(self._build_lock)
        return stack

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The database the query executes on — ``session.db``."""
        return self._db

    def run(self) -> "AnswerSet":
        """A live, lazy view over the current answers."""
        return AnswerSet(self)

    def explain(self) -> str:
        """The chosen plan: pipelines, backend, theorems, rationale."""
        return self.plan.render()

    def count(self) -> int:
        """The current number of answers."""
        return self._count()

    # ------------------------------------------------------------------
    # capability backends
    # ------------------------------------------------------------------
    def _decide(self) -> bool:
        """Is the body satisfiable?  Decided once per database version."""
        query, db = self.query, self._db
        if self._decided is None or stale_relations(db, self._decided[0]):
            stamps = snapshot_stamps(db, query.relation_symbols)
            acyclic = self.plan.classification.acyclic
            decide = yannakakis_boolean if acyclic else generic_join_boolean
            self._decided = (stamps, decide(query, db))
        return self._decided[1]

    def _tree(self) -> LexDirectAccess:
        """The free-connex family's one structure: counted, on
        ``plan.tree_order``, self-repairing.  Callers hold the guard."""
        if self._accessor is None:
            self._accessor = LexDirectAccess(
                self.query,
                self._db,
                order=self.plan.tree_order,
                on_stale="refresh",
            )
        return self._accessor

    def _count(self) -> int:
        with self._serving_guard():
            plan = self.plan
            if plan.family == BOOLEAN:
                return 1 if self._decide() else 0
            if plan.family == FREE_CONNEX:
                return self._tree().count()
            return len(self._join_answers())

    def _iterate(self) -> Iterator[Row]:
        if self.plan.family == FREE_CONNEX:
            return self._iterate_tree()
        # A materialized list is never mutated in place, so the
        # iterator keeps reading the version it started on.
        return iter(self._materialized())

    def _iterate_tree(self) -> Iterator[Row]:
        """The tree's answers in order, as block reads doubling from 128
        rows to 4 096: each one guarded, consistent read like a page,
        no lock held in between (an update landing there shifts later
        positions as it does for a client paging by offset).  A block
        is a contiguous ``access_range``, which the tree expands from
        runs of store rows instead of searching per answer — O(1)
        amortised per answer, as are pages; strided
        slices and ``answers[i]`` search (Õ(log m) each)."""
        start, size = 0, 128
        while True:
            with self._serving_guard():
                tree = self._tree()
                stop = min(start + size, tree.count())
                rows = tree.access_range(start, stop)
            if not rows:
                return
            yield from rows
            start, size = stop, min(2 * size, 4096)

    def _access(self, index: int) -> Row:
        with self._serving_guard():
            plan = self.plan
            if plan.family == FREE_CONNEX and plan.access_admissible:
                return self._tree().access(index)
            return self._materialized()[index]

    def _slice(self, item: slice) -> List[Row]:
        """``answers[item]``, one consistent read.

        One guard hold around the whole page: no writer can commit
        between the bounds check and a row, or between rows.  A page is
        one block read of the counted tree (one run expansion, or one
        vectorised descent for a strided slice, then one decode) or one
        slice of the sorted list — never a per-row loop.
        """
        with self._serving_guard():
            plan = self.plan
            if plan.family == FREE_CONNEX and plan.access_admissible:
                tree = self._tree()
                return tree.access_range(*item.indices(tree.count()))
            return self._materialized()[item]

    def _materialized(self) -> List[Row]:
        """The sorted answer list (everything off the tree).

        The shared :class:`OrderedAnswers`' rows — sorted by the plan's
        lexicographic order, so paging agrees with what direct access
        would serve; a Boolean query's is ``[()]`` or empty.
        """
        with self._serving_guard():
            if self.plan.family == BOOLEAN:
                return [()] * self._count()
            return self._join_answers().sorted_rows()

    # ------------------------------------------------------------------
    # off the tree: one producer run per database version, delta repairs
    # ------------------------------------------------------------------
    def _join_answers(self) -> OrderedAnswers:
        """The answers off the tree, current for the database.

        Built by one producer run.  On stamp drift a join query is
        repaired from the relations' net deltas
        (:meth:`_repair_join_answers`); a projected query and truncated
        delta history rebuild instead.  Callers hold the serving
        guard.
        """
        answers = self._answers
        if answers is not None:
            drifted = stale_relations(self._db, answers.stamps)
            if not drifted or self._repair_join_answers(answers, drifted):
                return answers
        self._answers = OrderedAnswers(self.query, self._db, self.plan.order)
        return self._answers

    def _repair_join_answers(
        self, answers: OrderedAnswers, drifted: Dict[str, int]
    ) -> bool:
        """Bring ``answers`` up to date from net deltas; False = rebuild.

        An answer of a join query uses exactly one tuple per atom, so
        the answers lost are those using a net-deleted tuple at some
        atom (one ``lookup_rows`` per atom of a changed relation), and
        the answers gained are those using a net-inserted tuple at
        some atom (one delta join per such atom, on the current
        database).  Gained rows are spliced in at their sort position.
        Empty net deltas (absorbed updates) only adopt the new stamps.
        """
        query, db = self.query, self._db
        if not self.plan.repaired:
            return False
        inserted: Dict[str, np.ndarray] = {}
        deleted: Dict[str, np.ndarray] = {}
        for name, stamp in drifted.items():
            try:
                inserted[name], deleted[name] = db[name].delta_since(stamp)
            except TruncatedHistoryError:
                return False
        dictionary = db.dictionary
        cardinality = len(dictionary)
        rows, codes = answers.sorted_rows(), answers.codes
        position = {v: i for i, v in enumerate(self.head)}
        keep = np.ones(len(codes), dtype=bool)
        gained: List[np.ndarray] = []
        for index, atom in enumerate(query.atoms):
            gone = deleted.get(atom.relation, ())
            if len(gone):
                used = codes[:, [position[v] for v in atom.variables]]
                keep &= lookup_rows(used, gone, cardinality) < 0
            new = inserted.get(atom.relation, ())
            if len(new):
                gained.append(generic_join_delta_codes(query, db, index, new))
        if not keep.all():
            codes = codes[keep]
            rows = list(compress(rows, keep.tolist()))
        fresh = gained[0] if gained else ()
        if len(gained) > 1:  # one answer may use new tuples at two atoms
            fresh = unique_rows(np.concatenate(gained), cardinality)
        if len(fresh):
            key = self._page_key
            fresh_rows = dictionary.decode_rows(fresh)
            by_key = sorted(
                range(len(fresh_rows)), key=lambda i: key(fresh_rows[i])
            )
            fresh_rows = [fresh_rows[i] for i in by_key]
            at = [_bisect_rows(rows, key(row), key) for row in fresh_rows]
            codes = np.insert(codes, at, fresh[by_key], axis=0)
            rows = _splice_rows(rows, at, fresh_rows)
        answers.codes, answers.rows = codes, rows
        for name in drifted:
            answers.stamps[name] = db[name].mutation_stamp
        return True

    def _aggregate(
        self,
        semiring: Optional[Semiring],
        weights: Optional[WeightFn],
    ) -> object:
        semiring = semiring if semiring is not None else self.semiring
        if semiring is None:
            raise ValueError(
                "no semiring: pass AnswerSet.aggregate(semiring) or "
                "prepare(..., semiring=...)"
            )
        with self._serving_guard():
            return self._aggregate_locked(semiring, weights)

    def _aggregate_locked(
        self,
        semiring: Semiring,
        weights: Optional[WeightFn],
    ) -> object:
        if weights is None:
            # ⊕ over the answers of ⊗ of ones: n·1, the count's image
            # under the one homomorphism ℕ → K.  No structure, cache
            # entry or per-update work beyond the count's own.
            return aggregate_units(semiring, self._count())
        query, db, plan = self.query, self._db, self.plan
        if not query.is_join_query():
            raise ValueError(
                "per-atom weights require a join query (projection "
                "collapses body assignments); aggregate the full query "
                "with query.as_join_query() instead"
            )
        if plan.classification.acyclic:
            return aggregate_acyclic(query, db, semiring, weights)
        # Coded weights fold over the shared answer matrix.
        codes = self._join_answers().codes
        return aggregate_generic(query, db, semiring, weights, codes=codes)


class AnswerSet:
    """A uniform, lazy, *live* view over a prepared query's answers.

    - ``len(answers)`` / :meth:`count` — the dichotomy-optimal count
      (:meth:`count` is exact past 2^63, where ``len()`` cannot go);
    - iteration — on a free-connex query, ordered block reads of the
      counted tree: it follows ``plan.tree_order``, so
      ``list(answers) == answers[:]`` whenever the paging order is
      admissible.  An iterator is a sequence of consistent blocks and
      holds no lock between them: an update landing between two blocks
      shifts later positions exactly as it does for a client paging by
      offset.  Other families stream the shared sorted answers;
    - ``answers[i]`` / ``answers[i:j]`` — paging in the plan's
      lexicographic order, backed by direct access when admissible and
      by the shared sorted answers otherwise;
    - :meth:`aggregate` — semiring aggregation: the count's image
      ``n·1`` unweighted, FAQ with per-atom weights;
    - :meth:`explain` — the serving plan.

    The view holds no answers of its own: every read consults the
    prepared query's maintained structures, so answers always reflect
    the session's current data.  Boolean queries expose the
    conventional shape: count 0/1 and the single empty tuple.
    """

    def __init__(self, prepared: PreparedQuery) -> None:
        self.prepared = prepared

    @property
    def query(self) -> ConjunctiveQuery:
        return self.prepared.query

    @property
    def plan(self) -> Plan:
        return self.prepared.plan

    def count(self) -> int:
        """The current number of answers."""
        return self.prepared._count()

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator[Row]:
        return self.prepared._iterate()

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.prepared._slice(item)
        # One guard hold (it is re-entrant) around the count and the
        # row access: no writer can commit between the bounds check
        # and the row.
        with self.prepared._serving_guard():
            n = self.count()
            index = operator.index(item)
            if index < 0:
                index += n
            if not 0 <= index < n:
                raise IndexError(
                    f"index {item} out of range for {n} answers"
                )
            return self.prepared._access(index)

    def first(self, k: int) -> List[Row]:
        """The first ``k`` answers in enumeration order."""
        return list(islice(self, max(k, 0)))

    def page(self, offset: int, size: int) -> List[Row]:
        """``size`` answers starting at ``offset``, in lex order."""
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be non-negative")
        return self[offset : offset + size]

    def aggregate(
        self,
        semiring: Optional[Semiring] = None,
        weights: Optional[WeightFn] = None,
    ) -> object:
        """⊕-aggregate over the answers (⊗ of atom weights when given).

        Defaults to the semiring the query was prepared with.  Without
        weights the value is ``aggregate_units(semiring, len(self))``.
        Weights (``weights(node, row)``) are supported for join
        queries only.
        """
        return self.prepared._aggregate(semiring, weights)

    def explain(self) -> str:
        """The serving plan (same as ``PreparedQuery.explain``)."""
        return self.prepared.explain()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnswerSet({self.prepared.query!s}, "
            f"family={self.plan.family})"
        )
