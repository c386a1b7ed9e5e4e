"""The dynamic count maintainer vs from-scratch recomputation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.dynamic import HierarchicalCountMaintainer
from repro.query import catalog, parse_query

HIERARCHICAL_QUERIES = [
    parse_query("q(x, y) :- R(x, y)"),
    catalog.star_query_full(2, self_join_free=True),
    catalog.star_query_full(3, self_join_free=True),
    catalog.star_query_full(2),  # self-joins
    parse_query("q(a, b, c) :- R(a, b), S(a, b, c), T(a)"),
    parse_query("q(x, y, u, v) :- R(x, y), S(x, u), T(x, u, v)"),
]


def brute_count(query, relations):
    db = Database()
    for symbol in query.relation_symbols:
        arity = next(
            a.arity for a in query.atoms if a.relation == symbol
        )
        db.add_relation(ColumnarRelation(symbol, arity, relations[symbol]))
    return query.count_brute_force(db)


def random_update_stream(query, steps, seed):
    rng = random.Random(seed)
    symbols = []
    for symbol in query.relation_symbols:
        arity = next(
            a.arity for a in query.atoms if a.relation == symbol
        )
        symbols.append((symbol, arity))
    for _ in range(steps):
        symbol, arity = rng.choice(symbols)
        row = tuple(rng.randrange(4) for _ in range(arity))
        yield (rng.random() < 0.7, symbol, row)  # 70% inserts


@pytest.mark.parametrize(
    "query", HIERARCHICAL_QUERIES, ids=lambda q: str(q)
)
def test_maintainer_tracks_brute_force(query):
    maintainer = HierarchicalCountMaintainer(query)
    shadow = {symbol: set() for symbol in query.relation_symbols}
    for step, (is_insert, symbol, row) in enumerate(
        random_update_stream(query, 120, seed=hash(query.name) % 997)
    ):
        if is_insert:
            maintainer.insert(symbol, row)
            shadow[symbol].add(row)
        else:
            maintainer.delete(symbol, row)
            shadow[symbol].discard(row)
        if step % 10 == 0:  # brute force is the slow part
            assert maintainer.count() == brute_count(query, shadow), step
    assert maintainer.count() == brute_count(query, shadow)


def test_maintainer_rejects_non_hierarchical():
    with pytest.raises(ValueError):
        HierarchicalCountMaintainer(catalog.path_query(3))


def test_maintainer_rejects_projected_queries():
    with pytest.raises(ValueError):
        HierarchicalCountMaintainer(catalog.star_query_sjf(2))


def test_maintainer_idempotent_updates():
    query = catalog.star_query_full(2, self_join_free=True)
    maintainer = HierarchicalCountMaintainer(query)
    maintainer.insert("R1", (1, 9))
    maintainer.insert("R1", (1, 9))  # duplicate: no effect
    maintainer.insert("R2", (2, 9))
    assert maintainer.count() == 1
    maintainer.delete("R1", (7, 7))  # absent: no effect
    assert maintainer.count() == 1
    maintainer.delete("R1", (1, 9))
    assert maintainer.count() == 0
    maintainer.delete("R1", (1, 9))  # double delete: still fine
    assert maintainer.count() == 0


def test_maintainer_validation_errors():
    query = catalog.star_query_full(2, self_join_free=True)
    maintainer = HierarchicalCountMaintainer(query)
    with pytest.raises(KeyError):
        maintainer.insert("Nope", (1, 2))
    with pytest.raises(ValueError):
        maintainer.insert("R1", (1, 2, 3))


def test_maintainer_bulk_load_matches_static_count():
    from repro.counting import count_answers
    from repro.workloads import random_database

    query = catalog.star_query_full(3, self_join_free=True)
    db = random_database(query, 60, 5, seed=3)
    maintainer = HierarchicalCountMaintainer(query)
    maintainer.load(db)
    assert maintainer.count() == count_answers(query, db)


def test_maintainer_self_join_coupling():
    """With self-joins one physical insert feeds every atom at once."""
    query = catalog.star_query_full(2)  # R(x1,z), R(x2,z), all free
    maintainer = HierarchicalCountMaintainer(query)
    maintainer.insert("R", (1, 9))
    # (x1, x2, z) = (1, 1, 9) uses the same tuple twice.
    assert maintainer.count() == 1
    maintainer.insert("R", (2, 9))
    # pairs: (1,1),(1,2),(2,1),(2,2) at z=9.
    assert maintainer.count() == 4
    maintainer.delete("R", (1, 9))
    assert maintainer.count() == 1


@given(st.integers(0, 10_000))
def test_maintainer_random_streams_property(seed):
    query = catalog.star_query_full(2, self_join_free=True)
    maintainer = HierarchicalCountMaintainer(query)
    shadow = {symbol: set() for symbol in query.relation_symbols}
    for is_insert, symbol, row in random_update_stream(query, 30, seed):
        if is_insert:
            maintainer.insert(symbol, row)
            shadow[symbol].add(row)
        else:
            maintainer.delete(symbol, row)
            shadow[symbol].discard(row)
    assert maintainer.count() == brute_count(query, shadow)
