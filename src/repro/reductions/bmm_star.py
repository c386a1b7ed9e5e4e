"""Theorem 3.15: sparse Boolean matrix multiplication via enumerating
the star query q̄*_2.

Given Boolean matrices A and B as coordinate lists, set R1 := A and
R2 := Bᵀ; then

    q̄*_2(x, y) :- R1(x, z), R2(y, z)

has exactly the non-zero positions of AB as its answers.  An
enumeration algorithm with Õ(m) preprocessing and Õ(1) delay would
compute the product in Õ(m + m') — refuting the Sparse BMM Hypothesis.
This module executes the reduction with any enumerator, so the
benchmark can measure the output-sensitive behaviour directly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Tuple

from repro.db.database import Database
from repro.matmul.sparse import SparseBooleanMatrix
from repro.query.catalog import star_query_sjf
from repro.query.cq import ConjunctiveQuery

Enumerator = Callable[[ConjunctiveQuery, Database], Iterable[Tuple]]


def build_star_database(
    a: SparseBooleanMatrix, b: SparseBooleanMatrix
) -> Database:
    """R1 := A, R2 := Bᵀ — the proof's database for q̄*_2."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {a.shape} vs {b.shape}"
        )
    db = Database()
    db.ensure_relation("R1", 2).add_all(a.entries)
    db.ensure_relation("R2", 2).add_all((j, k) for (k, j) in b.entries)
    return db


def _default_enumerator(
    query: ConjunctiveQuery, db: Database
) -> Iterator[Tuple]:
    """The materializing fallback enumerator (q̄*_2 is not free-connex,
    so a strict constant-delay enumerator would rightly refuse)."""
    from repro.enumeration import ConstantDelayEnumerator

    return iter(ConstantDelayEnumerator(query, db, strict=False))


def bmm_via_enumeration(
    a: SparseBooleanMatrix,
    b: SparseBooleanMatrix,
    enumerator: Enumerator = None,
) -> SparseBooleanMatrix:
    """The Boolean product AB computed by enumerating q̄*_2.

    With a hypothetical constant-delay enumerator this would run in
    Õ(m + m'); with the real fallback it costs a full join —
    the gap the Sparse BMM Hypothesis says is inherent.
    """
    if enumerator is None:
        enumerator = _default_enumerator
    query = star_query_sjf(2)
    db = build_star_database(a, b)
    entries = {(x, y) for (x, y) in enumerator(query, db)}
    return SparseBooleanMatrix(
        entries, shape=(a.shape[0], b.shape[1])
    )
