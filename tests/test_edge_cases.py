"""Edge cases across modules: disconnected queries, repeated variables,
duplicate scopes, degenerate inputs."""

import itertools

import pytest

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.direct_access import LexDirectAccess, SumOrderDirectAccess
from repro.direct_access.layered import find_layered_tree
from repro.enumeration import ConstantDelayEnumerator
from repro.counting import count_answers, count_free_connex
from repro.joins import generic_join, yannakakis_full
from repro.joins.fc_reduce import free_connex_reduce
from repro.query import catalog, parse_query
from repro.workloads import random_database

from tests.layered_oracle import candidate_join_trees


# ---------------------------------------------------------------------
# disconnected queries (cross products)
# ---------------------------------------------------------------------

CROSS = parse_query("q(x, y) :- R(x), S(y)")


def cross_db():
    return Database.from_dict(
        {"R": [(1,), (2,), (3,)], "S": [(10,), (20,)]}
    )


def test_cross_product_evaluators_agree():
    db = cross_db()
    expected = {(a, b) for a in (1, 2, 3) for b in (10, 20)}
    assert CROSS.evaluate_brute_force(db) == expected
    assert generic_join(CROSS, db) == expected
    assert yannakakis_full(CROSS, db).to_tuples(CROSS.head) == expected
    assert count_answers(CROSS, db) == 6
    assert set(ConstantDelayEnumerator(CROSS, db)) == expected


@pytest.mark.parametrize("order", [("x", "y"), ("y", "x")])
def test_cross_product_direct_access(order):
    db = cross_db()
    accessor = LexDirectAccess(CROSS, db, order=order)
    key = [CROSS.head.index(v) for v in order]
    expected = sorted(
        CROSS.evaluate_brute_force(db),
        key=lambda t: tuple(t[p] for p in key),
    )
    assert accessor.materialize() == expected


def test_disconnected_three_components():
    query = parse_query("q(x, y, z) :- R(x), S(y), T(z)")
    db = Database.from_dict({"R": [(1,)], "S": [(2,), (3,)], "T": [(4,)]})
    assert count_free_connex(query, db) == 2
    accessor = LexDirectAccess(query, db, order=("z", "y", "x"))
    assert len(accessor) == 2


# ---------------------------------------------------------------------
# repeated variables inside atoms
# ---------------------------------------------------------------------

def test_repeated_variable_atom_through_the_stack():
    query = parse_query("q(x, y) :- R(x, x), S(x, y)")
    db = Database.from_dict(
        {"R": [(1, 1), (2, 3), (4, 4)], "S": [(1, 9), (4, 8), (2, 7)]}
    )
    expected = {(1, 9), (4, 8)}
    assert query.evaluate_brute_force(db) == expected
    assert generic_join(query, db) == expected
    assert count_answers(query, db) == 2
    assert set(ConstantDelayEnumerator(query, db)) == expected


def test_unary_atoms_everywhere():
    query = parse_query("q(x) :- R(x), S(x)")
    db = Database.from_dict({"R": [(1,), (2,)], "S": [(2,), (3,)]})
    assert generic_join(query, db) == {(2,)}
    assert count_answers(query, db) == 1
    assert LexDirectAccess(query, db).materialize() == [(2,)]


# ---------------------------------------------------------------------
# duplicate scopes / parallel atoms
# ---------------------------------------------------------------------

def test_parallel_atoms_intersect():
    query = parse_query("q(x, y) :- R(x, y), S(x, y)")
    db = Database.from_dict(
        {"R": [(1, 2), (3, 4)], "S": [(1, 2), (5, 6)]}
    )
    expected = {(1, 2)}
    assert generic_join(query, db) == expected
    assert yannakakis_full(query, db).to_tuples(query.head) == expected
    assert count_answers(query, db) == 1
    reduced = free_connex_reduce(query, db)
    assert reduced.answer_frame().to_tuples(query.head) == expected


def test_candidate_join_trees_with_duplicate_bags():
    bags = {0: frozenset({"x", "y"}), 1: frozenset({"x", "y"})}
    trees = candidate_join_trees(bags)
    assert trees
    for tree in trees:
        tree.validate()
    # One copy owns the block, the other hangs below it as a filter.
    layered = find_layered_tree(bags, ("y", "x"))
    assert layered.own == {-1: (), 0: ("y", "x"), 1: ()}
    assert layered.preorder == [-1, 0, 1]


def test_layered_tree_with_contained_bags():
    bags = {
        0: frozenset({"y"}),
        1: frozenset({"x", "y", "z"}),
    }
    layered = find_layered_tree(bags, ("x", "y", "z"))
    assert layered is not None
    # Both bags could own y's block first; the larger one does, and the
    # contained bag hangs below it as a filter.
    layered = find_layered_tree(bags, ("y", "x", "z"))
    assert layered.own == {-1: (), 0: (), 1: ("y", "x", "z")}


# ---------------------------------------------------------------------
# degenerate databases
# ---------------------------------------------------------------------

def test_singleton_database_pipeline():
    query = catalog.path_query(2)
    db = Database.from_dict({"R1": [(1, 2)], "R2": [(2, 3)]})
    assert count_answers(query, db) == 1
    assert list(ConstantDelayEnumerator(query, db)) == [(1, 2, 3)]
    accessor = LexDirectAccess(query, db)
    assert accessor.access(0) == (1, 2, 3)
    assert len(accessor) == 1


def test_all_relations_empty():
    query = catalog.path_query(2)
    db = Database()
    db.add_relation(ColumnarRelation("R1", 2))
    db.add_relation(ColumnarRelation("R2", 2))
    assert count_answers(query, db) == 0
    assert list(ConstantDelayEnumerator(query, db)) == []
    assert len(LexDirectAccess(query, db)) == 0


def test_sum_order_with_negative_and_tied_weights():
    query = parse_query("q(x, y) :- R(x, y)")
    db = Database.from_dict({"R": [(1, 2), (2, 1), (3, 0)]})
    weights = {0: -5.0, 1: 1.0, 2: 1.0, 3: 2.0}
    accessor = SumOrderDirectAccess(query, db, weights)
    rows = [accessor.access(i) for i in range(3)]
    # (3,0) weighs -3; the two (1,2)/(2,1) ties weigh 2 each.
    assert rows[0] == (3, 0)
    assert set(rows[1:]) == {(1, 2), (2, 1)}


def test_large_domain_values_are_fine():
    query = catalog.path_query(2)
    big = 10**15
    db = Database.from_dict(
        {"R1": [(big, big + 1)], "R2": [(big + 1, big + 2)]}
    )
    assert count_answers(query, db) == 1


def test_string_domain_values():
    query = parse_query("q(a, b) :- Knows(a, b)")
    db = Database.from_dict(
        {"Knows": [("ada", "grace"), ("grace", "mary")]}
    )
    accessor = LexDirectAccess(query, db, order=("a", "b"))
    assert accessor.access(0) == ("ada", "grace")


# ---------------------------------------------------------------------
# direct access exhaustive order sweep (mixed-radix correctness)
# ---------------------------------------------------------------------

def test_semijoin_reducible_query_all_orders():
    query = catalog.semijoin_reducible_query()
    db = random_database(query, 25, 4, seed=5)
    answers = query.evaluate_brute_force(db)
    head = tuple(query.head)
    for order in itertools.permutations(sorted(query.variables)):
        try:
            accessor = LexDirectAccess(query, db, order=order)
        except ValueError:
            continue  # disruptive trio for this order
        key = [head.index(v) for v in order]
        expected = sorted(
            answers, key=lambda t: tuple(t[p] for p in key)
        )
        assert accessor.materialize() == expected, order
