"""Semiring laws and FAQ aggregation (Section 4.1.2 / Theorem 3.8)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.query import catalog, parse_query
from repro.semiring import (
    BOOLEAN,
    COUNTING,
    MAX_PLUS,
    MIN_PLUS,
    Semiring,
    WeightedDatabase,
    aggregate_acyclic,
    aggregate_generic,
)
from repro.semiring.faq import aggregate_units
from repro.workloads import random_database

SEMIRINGS = [BOOLEAN, COUNTING, MIN_PLUS, MAX_PLUS]
ELEMENTS = {
    "boolean": st.booleans(),
    "counting": st.integers(0, 50),
    "min-plus": st.one_of(st.just(math.inf), st.integers(-20, 20)),
    "max-plus": st.one_of(st.just(-math.inf), st.integers(-20, 20)),
}


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_identities(semiring):
    values = [semiring.one, semiring.zero]
    for value in values:
        assert semiring.plus(value, semiring.zero) == value
        assert semiring.times(value, semiring.one) == value


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_fold_helpers(semiring):
    assert semiring.sum([]) == semiring.zero
    assert semiring.product([]) == semiring.one


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@given(data=st.data())
def test_semiring_laws(semiring, data):
    elements = ELEMENTS[semiring.name]
    a = data.draw(elements)
    b = data.draw(elements)
    c = data.draw(elements)
    # commutativity
    assert semiring.plus(a, b) == semiring.plus(b, a)
    assert semiring.times(a, b) == semiring.times(b, a)
    # associativity
    assert semiring.plus(semiring.plus(a, b), c) == semiring.plus(
        a, semiring.plus(b, c)
    )
    assert semiring.times(semiring.times(a, b), c) == semiring.times(
        a, semiring.times(b, c)
    )
    # distributivity
    assert semiring.times(a, semiring.plus(b, c)) == semiring.plus(
        semiring.times(a, b), semiring.times(a, c)
    )


def _weighted_instance(query, seed):
    db = random_database(query, 40, 5, seed=seed)
    weighted = WeightedDatabase(db)
    import random

    rng = random.Random(seed + 1)
    for name in query.relation_symbols:
        for row in db[name]:
            weighted.set_weight(name, row, rng.randint(-5, 9))
    return db, weighted


def _brute_min_weight(query, db, weighted):
    best = math.inf
    head = tuple(query.head)
    for answer in query.evaluate_brute_force(db):
        assignment = dict(zip(head, answer))
        total = 0
        for atom in query.atoms:
            row = tuple(assignment[v] for v in atom.variables)
            total += weighted.weight(atom.relation, row, MIN_PLUS)
        best = min(best, total)
    return best


@pytest.mark.parametrize(
    "query",
    [catalog.path_query(2), catalog.path_query(3), catalog.star_query_full(2)],
    ids=lambda q: q.name,
)
def test_tropical_aggregation_acyclic(query):
    db, weighted = _weighted_instance(query, seed=60)
    expected = _brute_min_weight(query, db, weighted)
    got = aggregate_acyclic(
        query, db, MIN_PLUS, weighted.atom_weight_fn(query, MIN_PLUS)
    )
    assert got == expected


def test_tropical_aggregation_cyclic_via_generic():
    query = catalog.cycle_query(4)
    db, weighted = _weighted_instance(query, seed=61)
    expected = _brute_min_weight(query, db, weighted)
    got = aggregate_generic(
        query, db, MIN_PLUS, weighted.atom_weight_fn(query, MIN_PLUS)
    )
    assert got == expected


def test_counting_semiring_counts():
    query = catalog.path_query(3)
    db = random_database(query, 50, 6, seed=62)
    assert aggregate_acyclic(query, db, COUNTING) == query.count_brute_force(db)
    assert aggregate_generic(query, db, COUNTING) == query.count_brute_force(db)


def test_boolean_semiring_decides():
    query = catalog.path_query(2)
    db = random_database(query, 8, 6, seed=63)
    assert aggregate_acyclic(query, db, BOOLEAN) == query.holds(db)


def test_empty_join_aggregates_to_zero():
    query = catalog.path_query(2)
    db = Database()
    db.add_relation(ColumnarRelation("R1", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("R2", 2))
    assert aggregate_acyclic(query, db, COUNTING) == 0
    assert aggregate_acyclic(query, db, MIN_PLUS) == math.inf


def test_aggregate_rejects_projected_queries():
    _, nfc = catalog.free_connex_pair()
    db = random_database(nfc, 5, 4, seed=64)
    with pytest.raises(ValueError):
        aggregate_acyclic(nfc, db, COUNTING)
    with pytest.raises(ValueError):
        aggregate_generic(nfc, db, COUNTING)


def test_weighted_database_validation():
    db = Database.from_dict({"R": [(1, 2)]})
    weighted = WeightedDatabase(db)
    weighted.set_weight("R", (1, 2), 5)
    assert weighted.weight("R", (1, 2), COUNTING) == 5
    assert weighted.weight("R", (9, 9), COUNTING) == 1  # default one
    with pytest.raises(KeyError):
        weighted.set_weight("R", (9, 9), 3)


def test_weight_fn_handles_repeated_variables():
    query = parse_query("q(x, z) :- R(x, x), S(x, z)")
    db = Database.from_dict({"R": [(1, 1), (2, 2)], "S": [(1, 5), (2, 6)]})
    weighted = WeightedDatabase(db)
    weighted.set_weight("R", (1, 1), 10)
    weighted.set_weight("R", (2, 2), 20)
    got = aggregate_acyclic(
        query, db, MIN_PLUS, weighted.atom_weight_fn(query, MIN_PLUS)
    )
    assert got == 10  # the (1,1),(1,5) answer


def test_unit_aggregate_folds_by_doubling():
    # n·1 in O(log n) ⊕ with nothing n-sized allocated: a maintained
    # count that was never materialized flows in here.
    calls = []

    def plus(a, b):
        calls.append(1)
        return (a[0] + b[0], max(a[1], b[1]))

    pair = Semiring(
        name="pair",
        plus=plus,
        times=lambda a, b: (a[0] * b[0], a[1] + b[1]),
        zero=(0, -math.inf),
        one=(1, 0),
    )
    assert aggregate_units(pair, 10**6) == (10**6, 0)
    assert len(calls) <= 2 * math.ceil(math.log2(10**6))
    assert aggregate_units(pair, 10**12) == (10**12, 0)
    assert aggregate_units(pair, 0) == aggregate_units(pair, -3) == pair.zero
    for semiring in SEMIRINGS:
        for n in (0, 1, 2, 3, 7, 100, 12_345):
            fold = semiring.sum(semiring.one for _ in range(n))
            value = aggregate_units(semiring, n)
            assert value == fold
            assert not isinstance(value, np.generic)
    # int64 kernel up to its last value, Python ints past it (the
    # counted tree's root product is a bigint past 2^63).
    for n in (2**63 - 1, 2**63, 2**70 + 5):
        assert aggregate_units(COUNTING, n) == n
