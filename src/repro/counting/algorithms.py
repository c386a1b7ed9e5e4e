"""Counting algorithms with the complexity profile the paper predicts.

The dichotomy (Theorem 3.13): for self-join free queries, linear-time
counting exists iff the query is free-connex acyclic (assuming SETH +
Triangle + Hyperclique).  The implementations here realize the upper
bounds; the benchmark harness confirms the lower-bound side by watching
the fallback paths go superlinear on exactly the predicted queries.

Both linear counters delegate to the semiring message passing of
:mod:`repro.semiring.faq`, which dispatches on the frame backend: on a
columnar database the whole count is an array program (weight columns,
segment reduces) with zero per-row decodes — the easy side of the
dichotomy then runs at hardware speed (``bench_a07``), while the hard
side still pays its superlinear enumeration.

:func:`count_answers` is the low-level dispatcher for benchmarks and
experiments; the engine facade (:mod:`repro.engine`) does not call it —
``AnswerSet.count()`` is the size of the structure it already serves.
"""

from __future__ import annotations

from typing import Optional

from repro.db.database import Database
from repro.hypergraph.freeconnex import is_free_connex
from repro.hypergraph.gyo import is_acyclic
from repro.joins.generic_join import generic_join, generic_join_codes
from repro.query.cq import ConjunctiveQuery
from repro.semiring.faq import aggregate_acyclic, aggregate_free_connex
from repro.semiring.semirings import COUNTING


def count_acyclic_join(query: ConjunctiveQuery, db: Database) -> int:
    """Count answers of an acyclic join query in Õ(m) (Theorem 3.8)."""
    return aggregate_acyclic(query, db, COUNTING)


def count_free_connex(query: ConjunctiveQuery, db: Database) -> int:
    """Count answers of a free-connex acyclic query in Õ(m)
    (Theorem 3.13's upper bound).

    Boolean queries count their single empty answer when satisfiable.
    """
    return aggregate_free_connex(query, db, COUNTING)


def count_brute_force(query: ConjunctiveQuery, db: Database) -> int:
    """Materialize-and-count through the worst-case-optimal join.

    Õ(m^{ρ*} ) for join queries; for projected queries the cost is the
    full-join size, which is the superlinear behaviour Theorems 3.12
    and 4.6 say is unavoidable for non-free-connex queries.
    """
    if query.is_boolean():
        return 1 if query.holds(db) else 0
    coded = generic_join_codes(query, db)
    if coded is not None:
        # Columnar inputs: the frontier join's distinct head rows are
        # the count — no tuple ever decodes.
        return len(coded[0])
    return len(generic_join(query, db))


def count_answers(
    query: ConjunctiveQuery,
    db: Database,
    method: Optional[str] = None,
) -> int:
    """Count answers, dispatching to the best applicable algorithm.

    ``method`` forces a specific path (``"acyclic-join"``,
    ``"free-connex"``, ``"brute"``); by default:

    1. free-connex acyclic (includes acyclic join queries and acyclic
       Boolean queries) → linear-time message passing;
    2. everything else → worst-case-optimal enumeration.
    """
    if method == "acyclic-join":
        return count_acyclic_join(query, db)
    if method == "free-connex":
        return count_free_connex(query, db)
    if method == "brute":
        return count_brute_force(query, db)
    if method is not None:
        raise ValueError(f"unknown counting method {method!r}")
    if is_acyclic(query.hypergraph()):
        if query.is_join_query():
            return count_acyclic_join(query, db)
        if is_free_connex(query):
            return count_free_connex(query, db)
    return count_brute_force(query, db)
