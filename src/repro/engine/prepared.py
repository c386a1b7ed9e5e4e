"""Prepared queries and the uniform :class:`AnswerSet` handle.

A :class:`PreparedQuery` is the engine's unit of serving: one query,
one :class:`~repro.engine.planner.Plan`, the session's database, and a
set of lazily built answer structures shared by every
:meth:`PreparedQuery.run` call.  The structures are exactly the
low-level pipelines of the repo — FAQ maintainers
(:mod:`repro.semiring.faq`, :mod:`repro.dynamic`), constant-delay
enumerators (:mod:`repro.enumeration`), lex direct access
(:mod:`repro.direct_access`), Yannakakis and the worst-case-optimal
join (:mod:`repro.joins`) — so every answer is byte-identical to the
corresponding direct call; the facade only removes the dispatch
burden.

Liveness: every structure is built with ``on_stale="refresh"`` or is
guarded by a mutation-stamp cache, so a prepared query served across
an update stream (mutations through :meth:`repro.engine.session.
Session.add` / ``discard``) never raises
:class:`repro.db.interface.StaleStructureError` and never serves a
stale answer — it repairs incrementally where the delta-segment
machinery allows and recomputes otherwise.
"""

from __future__ import annotations

import operator
import threading
from contextlib import ExitStack
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.counting.algorithms import count_answers
from repro.db.database import Database
from repro.db.interface import snapshot_stamps, stale_relations
from repro.direct_access.lex import LexDirectAccess
from repro.dynamic.acyclic_count import maintained_count
from repro.engine.planner import BOOLEAN, FREE_CONNEX, Plan
from repro.enumeration.constant_delay import ConstantDelayEnumerator
from repro.joins.generic_join import generic_join, generic_join_boolean
from repro.joins.yannakakis import yannakakis_boolean, yannakakis_project
from repro.query.cq import ConjunctiveQuery
from repro.semiring.faq import (
    WeightFn,
    aggregate_acyclic,
    aggregate_free_connex,
    aggregate_generic,
    AggregateMaintainer,
)
from repro.semiring.semirings import COUNTING, Semiring

Row = Tuple[object, ...]


class PreparedQuery:
    """A classified, planned, incrementally served query.

    Produced by :meth:`repro.engine.session.Session.prepare`; call
    :meth:`run` for an :class:`AnswerSet` and :meth:`explain` for the
    plan.  Answer structures (count maintainer, enumerator, direct
    accessor, materialization, per-semiring aggregate maintainers) are
    built on first demand and cached for the lifetime of the prepared
    query, surviving updates through refresh/recompute.
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
        # Lazy serving structures; None = not built yet, False (for
        # the counter) = attempted and inapplicable.
        self._counter = None
        self._enumerator: Optional[ConstantDelayEnumerator] = None
        self._accessor: Optional[LexDirectAccess] = None
        # Keyed by the semiring object itself (Semiring is a frozen
        # dataclass, hence hashable): holding the key keeps the
        # semiring alive, so a recycled id can never alias two
        # semirings onto one cache slot.
        self._agg_maintainers: Dict[Semiring, object] = {}
        # capability key -> (stamps, value) for stamp-guarded scalars.
        self._cache: Dict[object, Tuple[Dict[str, int], object]] = {}
        # Concurrent readers serialize per prepared query (lazy
        # structure builds and stamp-cache refreshes are not
        # interleavable); distinct prepared queries stay concurrent.
        self._build_lock = threading.RLock()

    def _serving_guard(self) -> ExitStack:
        """Session read lock + per-prepared build lock, re-entrant.

        Every read entry point takes this: the shared session lock
        keeps reads out of half-applied updates (writers are
        exclusive, see :class:`repro.util.locks.ReadWriteLock`), and
        the build lock makes lazy structure construction and cache
        refresh single-threaded per prepared query.  Both sides are
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
    # stamp-guarded recomputation
    # ------------------------------------------------------------------
    def _cached(self, key: object, compute: Callable[[], object]):
        entry = self._cache.get(key)
        if entry is not None:
            stamps, value = entry
            if not stale_relations(self._db, stamps):
                return value
        stamps = snapshot_stamps(self._db, self.query.relation_symbols)
        value = compute()
        self._cache[key] = (stamps, value)
        return value

    # ------------------------------------------------------------------
    # capability backends
    # ------------------------------------------------------------------
    def _decide(self) -> bool:
        query, db = self.query, self._db
        if self.plan.classification.acyclic:
            compute = lambda: yannakakis_boolean(query, db)  # noqa: E731
        else:
            compute = lambda: generic_join_boolean(query, db)  # noqa: E731
        return self._cached("decide", compute)

    def _get_counter(self):
        if self._counter is None:
            made = maintained_count(self.query, self._db)
            self._counter = made if made is not None else False
        return self._counter or None

    def _count(self) -> int:
        with self._serving_guard():
            plan = self.plan
            if plan.family == BOOLEAN:
                return 1 if self._decide() else 0
            if plan.family == FREE_CONNEX:
                if plan.maintained_count:
                    counter = self._get_counter()
                    if counter is not None:
                        return counter.count()
                query, db = self.query, self._db
                return self._cached(
                    "count", lambda: count_answers(query, db)
                )
            # Fallback families: reuse a fresh materialization when one
            # exists, else count without decoding — on columnar inputs
            # count_answers reads the frontier join's code matrix
            # length directly, skipping the sorted tuple list entirely.
            entry = self._cache.get("materialized")
            if entry is not None and not stale_relations(
                self._db, entry[0]
            ):
                return len(entry[1])
            query, db = self.query, self._db
            return self._cached(
                "count", lambda: count_answers(query, db, method="brute")
            )

    def _iterate(self) -> Iterator[Row]:
        # The returned iterator itself runs outside the serving guard
        # (constant-delay enumeration is lazy); iteration concurrent
        # with updates is the one read shape left to the caller to
        # serialize.  Paging (`_access`) is the guarded alternative.
        with self._serving_guard():
            plan = self.plan
            if plan.family == BOOLEAN:
                return iter([()] if self._decide() else [])
            if plan.family == FREE_CONNEX:
                if self._enumerator is None:
                    self._enumerator = ConstantDelayEnumerator(
                        self.query, self._db, on_stale="refresh"
                    )
                return iter(self._enumerator)
            return iter(self._materialized())

    def _access(self, index: int) -> Row:
        with self._serving_guard():
            plan = self.plan
            if plan.family == BOOLEAN:
                return ()
            if plan.family == FREE_CONNEX and plan.access_admissible:
                if self._accessor is None:
                    self._accessor = LexDirectAccess(
                        self.query,
                        self._db,
                        order=plan.order,
                        on_stale="refresh",
                    )
                return self._accessor.access(index)
            return self._materialized()[index]

    def _materialized(self) -> List[Row]:
        """The sorted answer list (stamp-guarded; fallback families).

        Acyclic queries materialize through the output-sensitive
        Yannakakis projection; cyclic ones through the worst-case
        -optimal join.  Sorted by the plan's lexicographic order, so
        paging agrees with what direct access would serve.
        """
        query, db = self.query, self._db
        head, order = self.head, self.plan.order
        acyclic = self.plan.classification.acyclic

        def compute() -> List[Row]:
            if acyclic:
                rows = list(yannakakis_project(query, db).rows)
            else:
                rows = list(generic_join(query, db))
            positions = [head.index(v) for v in order]
            rows.sort(key=lambda row: tuple(row[p] for p in positions))
            return rows

        with self._serving_guard():
            return self._cached("materialized", compute)

    def _aggregate_maintainer(self, semiring: Semiring):
        key = semiring
        if key not in self._agg_maintainers:
            try:
                maintainer = AggregateMaintainer(
                    self.query, self._db, semiring
                )
            except ValueError:
                maintainer = False
            self._agg_maintainers[key] = maintainer
        return self._agg_maintainers[key] or None

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
        query, db, plan = self.query, self._db, self.plan
        if plan.family == BOOLEAN:
            return semiring.one if self._decide() else semiring.zero
        if query.is_join_query():
            if plan.classification.acyclic:
                if weights is not None:
                    return aggregate_acyclic(query, db, semiring, weights)
                if plan.maintained_count and semiring is COUNTING:
                    # Share the count maintainer instead of building a
                    # second, identical COUNTING message-passing
                    # structure that every update would also pay for.
                    counter = self._get_counter()
                    if counter is not None:
                        return counter.count()
                if plan.backend in ("columnar", "sharded"):
                    maintainer = self._aggregate_maintainer(semiring)
                    if maintainer is not None:
                        return maintainer.value()
                return self._cached(
                    ("aggregate", semiring),
                    lambda: aggregate_acyclic(query, db, semiring),
                )
            if weights is not None:
                return aggregate_generic(query, db, semiring, weights)
            return self._cached(
                ("aggregate", semiring),
                lambda: aggregate_generic(query, db, semiring),
            )
        if weights is not None:
            raise ValueError(
                "per-atom weights require a join query (projection "
                "collapses body assignments); aggregate the full query "
                "with query.as_join_query() instead"
            )
        if plan.family == FREE_CONNEX:
            return self._cached(
                ("aggregate", semiring),
                lambda: aggregate_free_connex(query, db, semiring),
            )
        return semiring.sum(
            semiring.one for _ in self._materialized()
        )


class AnswerSet:
    """A uniform, lazy, *live* view over a prepared query's answers.

    - ``len(answers)`` / :meth:`count` — the dichotomy-optimal count;
    - iteration — constant-delay enumeration when the query admits it
      (enumeration order is the enumerator's, not the lex order);
    - ``answers[i]`` / ``answers[i:j]`` — paging in the plan's
      lexicographic order, backed by direct access when admissible and
      by the sorted materialization otherwise;
    - :meth:`aggregate` — semiring aggregation (FAQ);
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
        # One guard hold (it is re-entrant) around the count and every
        # row access: a page is one consistent read — no writer can
        # commit between the bounds check and a row, or between rows.
        with self.prepared._serving_guard():
            n = self.count()
            if isinstance(item, slice):
                return [
                    self.prepared._access(i)
                    for i in range(*item.indices(n))
                ]
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
        if k <= 0:
            return []
        out: List[Row] = []
        for answer in self:
            out.append(answer)
            if len(out) == k:
                break
        return out

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

        Defaults to the semiring the query was prepared with.  Weights
        (``weights(node, row)``) are supported for join queries only.
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
