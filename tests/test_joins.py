"""Join algorithms vs the brute-force reference.

Yannakakis (Theorem 3.1), generic join (worst-case optimal), binary
plans, the AYZ triangle algorithm (Theorem 3.2), and Loomis–Whitney
joins (Example 3.4) must all agree with
``ConjunctiveQuery.evaluate_brute_force`` on arbitrary inputs.
"""

import pytest
from hypothesis import given

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.hypergraph.gyo import is_acyclic, join_tree
from repro.joins import (
    generic_join,
    generic_join_boolean,
    left_deep_plan_join,
    loomis_whitney_boolean,
    loomis_whitney_join,
    triangle_boolean_ayz,
    triangle_boolean_naive,
    triangle_join_naive,
    yannakakis_boolean,
    yannakakis_full,
    yannakakis_project,
)
from repro.joins.hashjoin import plan_intermediate_sizes
from repro.joins.semijoin import (
    atom_frames,
    full_reducer_pass,
    is_globally_consistent,
)
from repro.joins.triangle import split_threshold
from repro.query import catalog, parse_query
from repro.workloads import (
    agm_tight_triangle_db,
    random_database,
    random_triangle_db,
)

from tests.strategies import queries_with_databases, random_database_for


# ---------------------------------------------------------------------
# semijoin reducer
# ---------------------------------------------------------------------

def test_full_reducer_reaches_global_consistency():
    query = catalog.path_query(3)
    db = random_database(query, 60, 8, seed=1)
    tree = join_tree(query.hypergraph())
    reduced = full_reducer_pass(
        dict(enumerate(atom_frames(query, db))), tree
    )
    assert is_globally_consistent(reduced, tree)


def test_full_reducer_is_idempotent():
    query = catalog.semijoin_reducible_query()
    db = random_database(query, 50, 6, seed=2)
    tree = join_tree(query.hypergraph())
    frames = dict(enumerate(atom_frames(query, db)))
    once = full_reducer_pass(frames, tree)
    twice = full_reducer_pass(once, tree)
    assert all(once[i].rows == twice[i].rows for i in once)


def test_full_reducer_keeps_only_participating_tuples():
    query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
    db = Database.from_dict(
        {"R": [(1, 10), (2, 99)], "S": [(10, 5)]}
    )
    tree = join_tree(query.hypergraph())
    reduced = full_reducer_pass(
        dict(enumerate(atom_frames(query, db))), tree
    )
    assert reduced[0].rows == {(1, 10)}
    assert reduced[1].rows == {(10, 5)}


def test_full_reducer_node_mismatch():
    query = catalog.path_query(2)
    db = random_database(query, 5, 3, seed=3)
    tree = join_tree(query.hypergraph())
    with pytest.raises(ValueError):
        full_reducer_pass({0: atom_frames(query, db)[0]}, tree)


# ---------------------------------------------------------------------
# Yannakakis
# ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "query",
    [
        catalog.path_query(2),
        catalog.path_query(3),
        catalog.star_query_full(3),
        catalog.semijoin_reducible_query(),
    ],
    ids=lambda q: q.name,
)
def test_yannakakis_full_matches_brute(query):
    db = random_database(query, 70, 7, seed=11)
    result = yannakakis_full(query, db)
    assert result.to_tuples(query.head) == query.evaluate_brute_force(db)


def test_yannakakis_full_rejects_projections():
    fc, _ = catalog.free_connex_pair()
    projected = fc.with_head(("x",))
    db = random_database(projected, 10, 4, seed=4)
    with pytest.raises(ValueError):
        yannakakis_full(projected, db)


def test_yannakakis_boolean_matches_brute():
    query = catalog.path_query(4, boolean=True)
    for seed in range(5):
        db = random_database(query, 12, 10, seed=seed)
        assert yannakakis_boolean(query, db) == query.holds(db)


def test_yannakakis_boolean_empty_relation():
    query = catalog.path_query(2, boolean=True)
    db = Database()
    db.add_relation(ColumnarRelation("R1", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("R2", 2))
    assert not yannakakis_boolean(query, db)


def test_yannakakis_project_matches_brute():
    query = catalog.path_query(3).with_head(("v1", "v4"))
    db = random_database(query, 60, 6, seed=5)
    got = yannakakis_project(query, db)
    assert got.to_tuples(query.head) == query.evaluate_brute_force(db)


def test_yannakakis_project_boolean_head():
    query = catalog.path_query(2, boolean=True)
    db = random_database(query, 20, 5, seed=6)
    frame = yannakakis_project(query, db)
    assert (len(frame) == 1) == query.holds(db)


def test_yannakakis_disconnected_query():
    query = parse_query("q(x, y) :- R(x), S(y)")
    db = Database.from_dict({"R": [(1,), (2,)], "S": [(7,)]})
    result = yannakakis_full(query, db)
    assert result.to_tuples(query.head) == {(1, 7), (2, 7)}


# ---------------------------------------------------------------------
# generic join
# ---------------------------------------------------------------------

@given(queries_with_databases(max_atoms=3, max_tuples=15))
def test_generic_join_matches_brute_force(query_db):
    query, db = query_db
    assert generic_join(query, db) == query.evaluate_brute_force(db)


@given(queries_with_databases(max_atoms=3, max_tuples=12, self_join_free=False))
def test_generic_join_with_self_joins(query_db):
    query, db = query_db
    assert generic_join(query, db) == query.evaluate_brute_force(db)


def test_generic_join_respects_explicit_order():
    query = catalog.triangle_query(boolean=False)
    db = random_triangle_db(50, 8, seed=7)
    expected = query.evaluate_brute_force(db)
    for order in (("x", "y", "z"), ("z", "y", "x"), ("y", "x", "z")):
        assert generic_join(query, db, order=order) == expected


def test_generic_join_rejects_bad_order():
    query = catalog.triangle_query(boolean=False)
    db = random_triangle_db(5, 4, seed=8)
    with pytest.raises(ValueError):
        generic_join(query, db, order=("x", "y"))


def test_generic_join_limit_short_circuits():
    query = catalog.triangle_query(boolean=False)
    db = agm_tight_triangle_db(100)
    answers = generic_join(query, db, limit=1)
    assert len(answers) == 1
    assert generic_join_boolean(catalog.triangle_query(), db)


# ---------------------------------------------------------------------
# binary plans
# ---------------------------------------------------------------------

def test_left_deep_plan_matches_brute():
    query = catalog.triangle_query(boolean=False)
    db = random_triangle_db(60, 8, seed=9)
    got = left_deep_plan_join(query, db)
    assert got.to_tuples(query.head) == query.evaluate_brute_force(db)


def test_left_deep_plan_explicit_order_and_validation():
    query = catalog.path_query(2)
    db = random_database(query, 20, 5, seed=10)
    got = left_deep_plan_join(query, db, order=(1, 0))
    assert got.to_tuples(query.head) == query.evaluate_brute_force(db)
    with pytest.raises(ValueError):
        left_deep_plan_join(query, db, order=(0, 0))


def test_binary_plan_blowup_on_agm_tight_instance():
    """The motivating gap: binary plans materialize ~m^2 intermediates
    on AGM-tight triangle inputs whose output is only m^{3/2}."""
    db = agm_tight_triangle_db(400)  # side 20, each relation 400 rows
    query = catalog.triangle_query(boolean=False)
    sizes = plan_intermediate_sizes(query, db)
    m = 400
    assert max(sizes) >= m ** 1.5  # the 20^3 = 8000 cube blowup


# ---------------------------------------------------------------------
# triangle algorithms (Theorem 3.2)
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_triangle_algorithms_agree(seed):
    db = random_triangle_db(40, 6, seed=seed)
    expected = catalog.triangle_query().holds(db)
    assert triangle_boolean_naive(db) == expected
    assert triangle_boolean_ayz(db) == expected
    assert triangle_boolean_ayz(db, backend="naive") == expected
    assert triangle_boolean_ayz(db, backend="strassen") == expected


def test_triangle_ayz_delta_extremes():
    """Δ = 0 forces the all-heavy BMM path; huge Δ forces the
    all-light path; both must stay correct."""
    db = random_triangle_db(50, 7, seed=100)
    expected = catalog.triangle_query().holds(db)
    assert triangle_boolean_ayz(db, delta=0.0) == expected
    assert triangle_boolean_ayz(db, delta=10.0**9) == expected


def test_triangle_join_naive_matches_brute():
    db = random_triangle_db(45, 7, seed=12)
    query = catalog.triangle_query(boolean=False)
    assert triangle_join_naive(db) == query.evaluate_brute_force(db)


def test_triangle_empty_database():
    db = Database()
    for name in ("R1", "R2", "R3"):
        db.add_relation(ColumnarRelation(name, 2))
    assert not triangle_boolean_ayz(db)
    assert not triangle_boolean_naive(db)


def test_split_threshold_formula():
    # omega = 3: Δ = m^{1/2}; omega = 2: Δ = m^{1/3}.
    assert split_threshold(10000, 3.0) == pytest.approx(100.0)
    assert split_threshold(1000, 2.0) == pytest.approx(10.0)
    assert split_threshold(0, 3.0) == 0.0


def test_agm_tight_triangle_answer_count():
    db = agm_tight_triangle_db(100)  # side 10
    query = catalog.triangle_query(boolean=False)
    assert len(triangle_join_naive(db)) == 1000


# ---------------------------------------------------------------------
# Loomis-Whitney (Example 3.4)
# ---------------------------------------------------------------------

def test_loomis_whitney_matches_brute():
    query = catalog.loomis_whitney_query(4, boolean=False)
    db = random_database_for(query, 90, 6, seed=13)
    assert loomis_whitney_join(db, 4) == query.evaluate_brute_force(db)


def test_loomis_whitney_boolean():
    query = catalog.loomis_whitney_query(4, boolean=False)
    db = random_database_for(query, 40, 5, seed=14)
    assert loomis_whitney_boolean(db, 4) == bool(
        query.evaluate_brute_force(db)
    )


def test_loomis_whitney_exponent_helper():
    from repro.joins.loomis_whitney import loomis_whitney_exponent

    assert loomis_whitney_exponent(3) == pytest.approx(1.5)
    assert loomis_whitney_exponent(5) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        loomis_whitney_exponent(2)
