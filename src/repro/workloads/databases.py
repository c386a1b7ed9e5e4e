"""Database generators for the catalog queries.

Every generator takes a ``backend=`` switch (``"columnar"`` default,
``"sharded"``) and builds rows in bulk first, so each relation is
ingested with a single encode pass and one vectorized dedupe instead of
per-tuple inserts.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.util.rng import SeedLike, make_rng


def _bulk_relation(db: Database, name: str, arity: int, rows) -> None:
    """Register one relation, built through the database's backend."""
    db.add_relation(db.new_relation(name, arity, rows))


def random_database(
    query: ConjunctiveQuery,
    tuples_per_relation: int,
    domain_size: int,
    seed: SeedLike = None,
    backend: str = "columnar",
) -> Database:
    """IID-uniform tuples for every relation symbol of the query.

    Duplicates are absorbed by set semantics, so relations may end up
    slightly smaller than requested on small domains.
    """
    rng = make_rng(seed)
    db = Database(backend=backend)
    for symbol in query.relation_symbols:
        arity = next(
            a.arity for a in query.atoms if a.relation == symbol
        )
        rows = [
            tuple(rng.randrange(domain_size) for _ in range(arity))
            for _ in range(tuples_per_relation)
        ]
        _bulk_relation(db, symbol, arity, rows)
    return db


def random_triangle_db(
    m_per_relation: int,
    domain_size: int,
    seed: SeedLike = None,
    backend: str = "columnar",
) -> Database:
    """Random binary relations R1, R2, R3 for the triangle query."""
    from repro.query.catalog import triangle_query

    return random_database(
        triangle_query(), m_per_relation, domain_size, seed, backend=backend
    )


def agm_tight_triangle_db(
    m_per_relation: int, backend: str = "columnar"
) -> Database:
    """The AGM-tight triangle instance with Θ(m^{3/2}) answers.

    Take disjoint value groups A, B, C of size √m and set
    R1 = A×B, R2 = B×C, R3 = C×A.  Every (a, b, c) is an answer, so the
    output is |A|·|B|·|C| = m^{3/2} — the instance showing the AGM
    bound tight (Section 3.1.1) and forcing binary join plans into
    Ω(m^2) intermediates.
    """
    side = max(int(math.isqrt(m_per_relation)), 1)
    a_values = [("a", i) for i in range(side)]
    b_values = [("b", i) for i in range(side)]
    c_values = [("c", i) for i in range(side)]
    db = Database(backend=backend)
    _bulk_relation(
        db, "R1", 2, [(a, b) for a in a_values for b in b_values]
    )
    _bulk_relation(
        db, "R2", 2, [(b, c) for b in b_values for c in c_values]
    )
    _bulk_relation(
        db, "R3", 2, [(c, a) for c in c_values for a in a_values]
    )
    return db


def random_star_db(
    k: int,
    m: int,
    domain_size: int,
    seed: SeedLike = None,
    self_join_free: bool = False,
    backend: str = "columnar",
) -> Database:
    """A database for q*_k (single R) or q̄*_k (R1..Rk)."""
    rng = make_rng(seed)
    db = Database(backend=backend)
    names = (
        [f"R{i + 1}" for i in range(k)] if self_join_free else ["R"]
    )
    for name in names:
        rows = [
            (rng.randrange(domain_size), rng.randrange(domain_size))
            for _ in range(m)
        ]
        _bulk_relation(db, name, 2, rows)
    return db


def functional_path_db(
    length: int, m: int, seed: SeedLike = None, backend: str = "columnar"
) -> Database:
    """A path-query database where each relation is near-functional.

    Useful for enumeration experiments: the output stays O(m) while m
    grows, so delays are measurable over many answers without the
    result itself exploding.
    """
    rng = make_rng(seed)
    db = Database(backend=backend)
    for i in range(1, length + 1):
        rows = [(j, (j + rng.randrange(3)) % m) for j in range(m)]
        _bulk_relation(db, f"R{i}", 2, rows)
    return db
