"""Counting algorithms (Theorems 3.8/3.13) and interpolation."""

import pytest
from hypothesis import assume, given

from repro.counting import (
    count_acyclic_join,
    count_answers,
    count_brute_force,
    count_free_connex,
    count_with_colors,
    star_counts_by_interpolation,
)
from repro.counting.interpolation import default_star_oracle, tag_relations
from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.hypergraph.freeconnex import is_free_connex
from repro.hypergraph.gyo import is_acyclic
from repro.query import catalog, parse_query
from repro.workloads import random_database, random_star_db

from tests.strategies import queries_with_databases


# ---------------------------------------------------------------------
# acyclic join counting (Theorem 3.8)
# ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "query",
    [
        catalog.path_query(2),
        catalog.path_query(4),
        catalog.star_query_full(3),
        catalog.semijoin_reducible_query(),
    ],
    ids=lambda q: q.name,
)
def test_count_acyclic_join_matches_brute(query):
    db = random_database(query, 60, 6, seed=21)
    assert count_acyclic_join(query, db) == query.count_brute_force(db)


def test_count_acyclic_join_with_self_joins():
    # Theorem 3.8 needs no self-join freeness on the upper-bound side.
    query = catalog.star_query_full(3)  # all atoms share symbol R
    db = random_star_db(3, 50, 7, seed=22)
    assert count_acyclic_join(query, db) == query.count_brute_force(db)


def test_count_acyclic_join_rejects_projection():
    _, nfc = catalog.free_connex_pair()
    db = random_database(nfc, 10, 4, seed=23)
    with pytest.raises(ValueError):
        count_acyclic_join(nfc, db)


def test_count_acyclic_join_empty_result():
    query = catalog.path_query(2)
    db = Database()
    db.add_relation(ColumnarRelation("R1", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("R2", 2))
    assert count_acyclic_join(query, db) == 0


def test_count_disconnected_multiplies():
    query = parse_query("q(x, y) :- R(x), S(y)")
    db = Database.from_dict({"R": [(1,), (2,), (3,)], "S": [(7,), (8,)]})
    assert count_acyclic_join(query, db) == 6


# ---------------------------------------------------------------------
# free-connex counting (Theorem 3.13)
# ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "q(x, y, z) :- R(x, y), S(y, z)",
        "q(x, y) :- R(x, y), S(y, z)",
        "q(x) :- R(x, y)",
        "q(x, y) :- R(x, y, a), S(a, b), T(b)",
        "q(x1, x2, z) :- R1(x1, z), R2(x2, z)",
    ],
)
def test_count_free_connex_matches_brute(text):
    query = parse_query(text)
    assert is_free_connex(query)
    for seed in (31, 32):
        db = random_database(query, 50, 6, seed=seed)
        assert count_free_connex(query, db) == query.count_brute_force(db)


def test_count_free_connex_boolean():
    query = catalog.path_query(2, boolean=True)
    db = random_database(query, 30, 5, seed=33)
    assert count_free_connex(query, db) == (1 if query.holds(db) else 0)


def test_count_free_connex_empty_result():
    query = parse_query("q(x) :- R(x, y), S(y)")
    db = Database()
    db.add_relation(ColumnarRelation("R", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("S", 1))
    assert count_free_connex(query, db) == 0


def test_count_free_connex_large_output_without_materializing():
    """A cross product with n^2 answers must still count in O(m)."""
    query = parse_query("q(x, y) :- R(x), S(y)")
    n = 500
    db = Database.from_dict(
        {"R": [(i,) for i in range(n)], "S": [(i,) for i in range(n)]}
    )
    assert count_free_connex(query, db) == n * n


# ---------------------------------------------------------------------
# the dispatching front door
# ---------------------------------------------------------------------

@given(queries_with_databases(max_atoms=3, max_tuples=12))
def test_count_answers_always_correct(query_db):
    query, db = query_db
    assert count_answers(query, db) == query.count_brute_force(db)


@given(
    queries_with_databases(max_atoms=3, max_tuples=10, self_join_free=False)
)
def test_count_answers_with_self_joins(query_db):
    query, db = query_db
    assert count_answers(query, db) == query.count_brute_force(db)


def test_count_answers_method_forcing():
    query = catalog.path_query(2)
    db = random_database(query, 25, 5, seed=34)
    expected = query.count_brute_force(db)
    assert count_answers(query, db, method="acyclic-join") == expected
    assert count_answers(query, db, method="free-connex") == expected
    assert count_answers(query, db, method="brute") == expected
    with pytest.raises(ValueError):
        count_answers(query, db, method="magic")


def test_count_brute_force_boolean():
    query = catalog.triangle_query()
    db = random_database(catalog.triangle_query(boolean=False), 30, 5, seed=35)
    assert count_brute_force(query, db) in (0, 1)


# ---------------------------------------------------------------------
# interpolation (the Theorem 3.8 self-join remark, executable)
# ---------------------------------------------------------------------

def _random_relations(k, m, n, seed):
    import random

    rng = random.Random(seed)
    return [
        {(rng.randrange(n), rng.randrange(n)) for _ in range(m)}
        for _ in range(k)
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_counts_sjf_star(k):
    relations = _random_relations(k, 15, 5, seed=40 + k)
    query = catalog.star_query_sjf(k)
    db = Database()
    for i, rel in enumerate(relations):
        db.add_relation(ColumnarRelation(f"R{i + 1}", 2, rel))
    expected = query.count_brute_force(db)
    assert star_counts_by_interpolation(relations) == expected


def test_interpolation_with_explicit_oracle():
    relations = _random_relations(2, 12, 4, seed=50)
    oracle = default_star_oracle(2)
    query = catalog.star_query_sjf(2)
    db = Database(
        [ColumnarRelation(f"R{i + 1}", 2, rel) for i, rel in enumerate(relations)]
    )
    assert count_with_colors(relations, oracle) == query.count_brute_force(db)


def test_tagging_preserves_join_column():
    relations = [{(1, 9), (2, 9)}, {(3, 9)}]
    tagged = tag_relations(relations)
    assert tagged[0] == {((0, 1), 9), ((0, 2), 9)}
    assert tagged[1] == {((1, 3), 9)}
    # disjoint first columns
    firsts0 = {t[0] for t in tagged[0]}
    firsts1 = {t[0] for t in tagged[1]}
    assert not (firsts0 & firsts1)


def test_interpolation_rejects_empty_input():
    with pytest.raises(ValueError):
        count_with_colors([], default_star_oracle(1))


def test_count_multi_variable_separator_regression():
    """Regression: message keys must use a canonical column order when
    the join-tree separator has several variables (found by
    hypothesis: R0(a,b) under R1(b,c,a) exchanged (a,b)- vs
    (b,a)-ordered keys)."""
    query = parse_query("q(a, b, c) :- R0(a, b), R1(b, c, a)")
    db = Database()
    db.add_relation(ColumnarRelation("R0", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("R1", 3, [(2, 3, 1)]))
    assert count_acyclic_join(query, db) == 1
    assert count_answers(query, db) == 1
