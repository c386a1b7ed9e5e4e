"""Lemmas 3.20, 3.21, 3.23: testing, direct access, and triangles.

Lemma 3.21: a testing oracle for q*_2 with Õ(m) preprocessing and
Õ(1) per test would detect triangles in Õ(m): put R := E (symmetrized)
and test, for every edge (a, b), whether (a, b) ∈ q*_2(D) — that holds
iff a and b have a common neighbour, i.e. iff the edge closes a
triangle.

Lemma 3.23 chains this through Lemma 3.20: lexicographic direct access
for q̂*_2 under the order x1 > x2 > z yields (by binary search over the
leading prefix) a tester for q*_2 — so that direct access task needs
superlinear preprocessing too.  Both pipelines are runnable here.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import networkx as nx

from repro.db.database import Database
from repro.query.catalog import star_query, star_query_full
from repro.query.cq import ConjunctiveQuery


def star_database_from_graph(graph: nx.Graph) -> Database:
    """R := symmetrized edge set, the database of both lemmas."""
    pairs = set()
    for u, v in graph.edges():
        if u == v:
            continue
        pairs.add((u, v))
        pairs.add((v, u))
    db = Database()
    db.ensure_relation("R", 2).add_all(pairs)
    return db


def detect_triangle_via_testing(
    graph: nx.Graph,
    oracle_factory: Optional[Callable] = None,
) -> bool:
    """Lemma 3.21's algorithm: one test per edge.

    ``oracle_factory(query, db)`` must return an object with a
    ``test(tuple) -> bool`` method; defaults to
    :class:`repro.direct_access.testing.TestingOracle` (which, q*_2
    not being free-connex, takes its superlinear hash path — the
    lemma's point is that no linear-preprocessing path can exist).
    """
    if oracle_factory is None:
        from repro.direct_access.testing import TestingOracle

        oracle_factory = TestingOracle
    query = star_query(2)
    db = star_database_from_graph(graph)
    oracle = oracle_factory(query, db)
    for u, v in graph.edges():
        if u == v:
            continue
        if oracle.test((u, v)):
            return True
    return False


def detect_triangle_via_direct_access(
    graph: nx.Graph,
    access_factory: Optional[Callable] = None,
) -> bool:
    """Lemma 3.23's pipeline: direct access on q̂*_2 (order x1 > x2 > z)
    → testing for q*_2 (Lemma 3.20 binary search) → triangle detection.

    ``access_factory(query, db, order)`` must return an object with
    ``access(i)`` and ``__len__``; defaults to
    :class:`repro.direct_access.lex.LexDirectAccess` with
    ``strict=False`` (the order has a disruptive trio, so the honest
    implementation must fall back to superlinear preprocessing).
    """
    if access_factory is None:
        from repro.direct_access.lex import LexDirectAccess

        def access_factory(query, db, order):
            return LexDirectAccess(query, db, order=order, strict=False)

    query = star_query_full(2)  # q̂*_2(x1, x2, z), self-joins on R
    db = star_database_from_graph(graph)
    accessor = access_factory(query, db, ("x1", "x2", "z"))
    total = len(accessor)

    def prefix_exists(a, b) -> bool:
        """Binary search for a block with (x1, x2) = (a, b) — Lemma 3.20."""
        low, high = 0, total - 1
        while low <= high:
            mid = (low + high) // 2
            x1, x2, _z = accessor.access(mid)
            if (x1, x2) == (a, b):
                return True
            if (x1, x2) < (a, b):
                low = mid + 1
            else:
                high = mid - 1
        return False

    for u, v in graph.edges():
        if u == v:
            continue
        if prefix_exists(u, v):
            return True
    return False
