"""The free-connex reduction (the engine behind Thms 3.13/3.17/3.18)."""

import pytest
from hypothesis import assume, given

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.hypergraph.freeconnex import is_free_connex
from repro.hypergraph.gyo import is_acyclic
from repro.joins.fc_reduce import free_connex_reduce
from repro.query import catalog, parse_query
from repro.workloads import random_database

from tests.strategies import databases_for, queries_with_databases

FC_QUERIES = [
    parse_query("q(x, y, z) :- R(x, y), S(y, z)"),
    parse_query("q(x, y) :- R(x, y), S(y, z)"),
    parse_query("q(x) :- R(x, y)"),
    parse_query("q(x, y) :- R(x, y, a), S(a, b), T(b)"),
    parse_query("q(x1, x2, z) :- R1(x1, z), R2(x2, z)"),
    parse_query("q(x, y, u) :- R(x, y), S(y), T(u, y)"),
    catalog.star_query_full(3),
    catalog.path_query(4),
]


@pytest.mark.parametrize("query", FC_QUERIES, ids=lambda q: q.name)
def test_reduction_preserves_answers(query):
    assert is_free_connex(query)
    for seed in (71, 72):
        db = random_database(query, 45, 5, seed=seed)
        reduced = free_connex_reduce(query, db)
        assert reduced.answer_frame().to_tuples(
            query.head
        ) == query.evaluate_brute_force(db)


@pytest.mark.parametrize("query", FC_QUERIES, ids=lambda q: q.name)
def test_reduced_query_is_acyclic_join_over_head(query):
    db = random_database(query, 30, 5, seed=73)
    reduced = free_connex_reduce(query, db)
    reduced.tree.validate()
    head_set = set(query.head)
    for frame in reduced.frames.values():
        assert set(frame.variables) <= head_set


def test_reduction_rejects_boolean():
    with pytest.raises(ValueError):
        free_connex_reduce(
            catalog.path_query(2, boolean=True), Database.from_dict(
                {"R1": [(1, 2)], "R2": [(2, 3)]}
            )
        )


def test_reduction_rejects_non_free_connex():
    _, nfc = catalog.free_connex_pair()
    db = random_database(nfc, 10, 4, seed=74)
    with pytest.raises(ValueError):
        free_connex_reduce(nfc, db)


def test_reduction_detects_empty_result():
    query = parse_query("q(x) :- R(x, y), S(y)")
    db = Database()
    db.add_relation(ColumnarRelation("R", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("S", 1))
    reduced = free_connex_reduce(query, db)
    assert reduced.is_empty
    assert reduced.answer_frame().is_empty()


def test_reduction_tuples_all_participate():
    """Every tuple of every reduced frame extends to an answer."""
    query = parse_query("q(x, y) :- R(x, y, a), S(a, b), T(b)")
    db = random_database(query, 40, 4, seed=75)
    reduced = free_connex_reduce(query, db)
    answers = query.evaluate_brute_force(db)
    head = tuple(query.head)
    for frame in reduced.frames.values():
        positions = [head.index(v) for v in frame.variables]
        projections = {
            tuple(a[p] for p in positions) for a in answers
        }
        assert frame.rows == projections


@given(queries_with_databases(max_atoms=3, max_tuples=12))
def test_reduction_property(query_db):
    query, db = query_db
    assume(query.head)
    assume(is_free_connex(query))
    reduced = free_connex_reduce(query, db)
    assert reduced.answer_frame().to_tuples(
        query.head
    ) == query.evaluate_brute_force(db)
