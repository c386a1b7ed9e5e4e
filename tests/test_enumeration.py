"""Constant-delay enumeration (Theorem 3.17)."""

import pytest
from hypothesis import assume, given

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.enumeration import ConstantDelayEnumerator, measure_delays
from repro.hypergraph.freeconnex import is_free_connex
from repro.query import catalog, parse_query
from repro.workloads import random_database

from tests.strategies import queries_with_databases


@pytest.mark.parametrize(
    "text",
    [
        "q(x, y, z) :- R(x, y), S(y, z)",
        "q(x, y) :- R(x, y), S(y, z)",
        "q(x, y) :- R(x, y, a), S(a, b), T(b)",
        "q(x1, x2, z) :- R1(x1, z), R2(x2, z)",
    ],
)
def test_enumeration_complete_and_duplicate_free(text):
    query = parse_query(text)
    db = random_database(query, 50, 5, seed=81)
    produced = list(ConstantDelayEnumerator(query, db))
    assert len(produced) == len(set(produced))
    assert set(produced) == query.evaluate_brute_force(db)


def test_enumeration_deterministic_order():
    query = catalog.path_query(2)
    db = random_database(query, 40, 6, seed=82)
    first = list(ConstantDelayEnumerator(query, db))
    second = list(ConstantDelayEnumerator(query, db))
    assert first == second


def test_enumeration_strict_rejects_non_free_connex():
    _, nfc = catalog.free_connex_pair()
    db = random_database(nfc, 10, 4, seed=83)
    with pytest.raises(ValueError):
        ConstantDelayEnumerator(nfc, db)


def test_enumeration_fallback_still_correct():
    _, nfc = catalog.free_connex_pair()
    db = random_database(nfc, 30, 5, seed=84)
    enum = ConstantDelayEnumerator(nfc, db, strict=False)
    assert enum.mode == "materialized"
    assert set(enum) == nfc.evaluate_brute_force(db)


def test_enumeration_boolean_rejected():
    query = catalog.path_query(2, boolean=True)
    db = random_database(query, 5, 4, seed=85)
    with pytest.raises(ValueError):
        ConstantDelayEnumerator(query, db)


def test_enumeration_empty_result():
    query = parse_query("q(x) :- R(x, y), S(y)")
    db = Database()
    db.add_relation(ColumnarRelation("R", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("S", 1))
    assert list(ConstantDelayEnumerator(query, db)) == []


def test_enumeration_cross_product_streams():
    """Large outputs stream: grabbing a prefix must not require the
    whole result."""
    query = parse_query("q(x, y) :- R(x), S(y)")
    n = 300
    db = Database.from_dict(
        {"R": [(i,) for i in range(n)], "S": [(i,) for i in range(n)]}
    )
    enumerator = ConstantDelayEnumerator(query, db)
    prefix = []
    for answer in enumerator:
        prefix.append(answer)
        if len(prefix) == 10:
            break
    assert len(prefix) == 10
    assert enumerator.count_via_enumeration() == n * n


def test_enumeration_restartable():
    query = catalog.path_query(2)
    db = random_database(query, 25, 5, seed=86)
    enumerator = ConstantDelayEnumerator(query, db)
    assert list(enumerator) == list(enumerator)  # fresh iterator each time


@given(queries_with_databases(max_atoms=3, max_tuples=12))
def test_enumeration_property(query_db):
    query, db = query_db
    assume(query.head)
    assume(is_free_connex(query))
    produced = list(ConstantDelayEnumerator(query, db))
    assert len(produced) == len(set(produced))
    assert set(produced) == query.evaluate_brute_force(db)


def test_measure_delays_profile():
    query = catalog.path_query(2)
    db = random_database(query, 60, 6, seed=87)
    profile = measure_delays(
        lambda: ConstantDelayEnumerator(query, db), limit=50
    )
    assert profile.answers <= 50
    assert profile.preprocessing_seconds > 0
    assert profile.max_delay >= profile.mean_delay >= 0
    assert len(profile.delays) == profile.answers


def test_measure_delays_zero_answers():
    query = parse_query("q(x) :- R(x, y), S(y)")
    db = Database()
    db.add_relation(ColumnarRelation("R", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("S", 1))
    profile = measure_delays(lambda: ConstantDelayEnumerator(query, db))
    assert profile.answers == 0
    assert profile.max_delay == 0.0
