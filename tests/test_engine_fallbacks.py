"""Planner fallback routing: the hard sides must degrade, not crash.

Non-free-connex queries route to materialize-then-serve with an
explicit "no constant-delay guarantee" note; inadmissible lexicographic
orders (disruptive trios) drop direct access to the shared sorted
answers; and on random acyclic CQs the AnswerSet's paging is
byte-identical to the sorted materialized answers on both backends.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings

from repro.direct_access.layered import find_layered_tree
from repro.engine import Session
from repro.engine.planner import (
    ACYCLIC_MATERIALIZE,
    CYCLIC_MATERIALIZE,
    FREE_CONNEX,
    plan_query,
)
from repro.hypergraph.freeconnex import free_variable_bags
from repro.hypergraph.gyo import is_acyclic
from repro.query.parser import parse_query
from tests.strategies import queries_with_databases, random_database_for

BACKENDS = ("columnar", "sharded")


def test_non_free_connex_routes_to_materialize_with_note():
    query = parse_query("q(x, z) :- R(x, y), S(y, z)")
    plan = plan_query(query, size=10)
    assert plan.family == ACYCLIC_MATERIALIZE
    assert not plan.access_admissible
    assert "no constant-delay guarantee" in plan.route("iterate").note
    assert "no constant-delay guarantee" in plan.route("access").note
    assert "no constant-delay guarantee" in plan.render()
    # Every capability names the one structure it reads and its producer.
    for capability in ("count", "iterate", "access", "aggregate"):
        assert plan.route(capability).algorithm == (
            "one Yannakakis projection per database version, shared by "
            "count, pages, iteration and aggregates"
        )


def test_cyclic_routes_to_generic_join_fallback():
    query = parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
    plan = plan_query(query, size=10)
    assert plan.family == CYCLIC_MATERIALIZE
    assert not plan.access_admissible
    # Unweighted, the aggregate is the count's verdict; the note names
    # what per-atom weights run.
    aggregate = plan.route("aggregate")
    assert aggregate.cost == plan.route("count").cost
    assert "worst-case-optimal join + fold" in aggregate.note
    assert "no constant-delay guarantee" in plan.route("iterate").note
    assert plan.backend == "columnar"
    assert aggregate.algorithm == plan.route("access").algorithm == (
        "one worst-case-optimal join per database version, shared by "
        "count, pages, iteration and aggregates"
    )


def test_disruptive_trio_order_drops_direct_access_only():
    # (a, c, b) has the disruptive trio; the query itself stays
    # free-connex, so counting and enumeration keep their guarantees.
    query = parse_query("q(a, b, c) :- R(a, b), S(b, c)")
    plan = plan_query(query, size=10, order=("a", "c", "b"))
    assert plan.family == FREE_CONNEX
    assert not plan.access_admissible
    assert "disruptive trio" in plan.route("access").note
    assert plan.route("access").algorithm == (
        "one Yannakakis projection per database version, sorted on (a > c > b)"
    )
    # Count and iteration keep the tree, on the planner's own order.
    assert plan.tree_order != plan.order
    assert find_layered_tree(free_variable_bags(query), plan.tree_order)
    assert plan.route("iterate").algorithm == (
        "ordered block reads of the counted layered tree "
        f"({' > '.join(plan.tree_order)})"
    )
    assert plan.route("count").algorithm == (
        "root total of the counted layered tree"
    )
    # The planner left alone picks an admissible order instead, and
    # the request changed nothing but the access route.
    free = plan_query(query, size=10)
    assert free.access_admissible and free.tree_order == free.order
    assert [r for r in free.routes if r.capability != "access"] == [
        r for r in plan.routes if r.capability != "access"
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_head_whose_trio_free_order_splits_a_block_serves_brute_force(backend):
    """Regression: the head admits no layered tree and the trio-free
    order the planner tried next split R2's block, so the tree order
    fell back to the head and ``len`` raised "admits no layered join
    tree".  The planner now reads its order off a join forest."""
    query = parse_query(
        "q(v0, v1, v2, v3, v4, v5, v6) :- R0(v4, v3, v0), R1(v5, v3), "
        "R2(v4, v1, v2), R3(v4, v2), R4(v6, v2), R5(v4, v1, v2)"
    )
    db = random_database_for(
        query, tuples_per_relation=20, domain_size=3, seed=5
    )
    prepared = Session(db.to_backend(backend)).prepare(query)
    answers = prepared.run()
    assert prepared.plan.access_admissible
    positions = [query.head.index(v) for v in prepared.plan.order]
    oracle = sorted(
        query.evaluate_brute_force(db),
        key=lambda row: tuple(row[p] for p in positions),
    )
    assert len(oracle) > 10
    assert len(answers) == len(oracle)
    assert answers.page(3, 7) == oracle[3:10]
    assert list(answers) == answers[:] == oracle


@pytest.mark.parametrize("backend", BACKENDS)
def test_materialize_families_serve_correct_pages(backend):
    for text in (
        "q(x, z) :- R(x, y), S(y, z)",
        "q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
    ):
        query = parse_query(text)
        session = Session(
            {
                "R": [(1, 2), (2, 3), (4, 2), (3, 1)],
                "S": [(2, 3), (3, 1), (2, 1)],
                "T": [(3, 1), (1, 4), (1, 1)],
            },
            backend=backend,
        )
        answers = session.prepare(query).run()
        oracle = sorted(query.evaluate_brute_force(session.db))
        assert len(answers) == len(oracle)
        assert answers[:] == oracle
        assert list(answers) == oracle
        for i in range(len(oracle)):
            assert answers[i] == oracle[i]
        assert answers[1:3] == oracle[1:3]
        # Updates re-materialize instead of crashing or serving stale.
        session.add("R", (9, 2))
        session.add("S", (2, 7))
        oracle = sorted(query.evaluate_brute_force(session.db))
        assert answers[:] == oracle


def test_trio_order_pages_match_sorted_materialization():
    query = parse_query("q(a, b, c) :- R(a, b), S(b, c)")
    session = Session(
        {"R": [(1, 2), (2, 2), (0, 1)], "S": [(2, 0), (2, 5), (1, 9)]}
    )
    prepared = session.prepare(query, order=("a", "c", "b"))
    answers = prepared.run()
    oracle = sorted(
        query.evaluate_brute_force(session.db),
        key=lambda row: (row[0], row[2], row[1]),
    )
    assert answers[:] == oracle
    assert [answers[i] for i in range(len(oracle))] == oracle


@settings(max_examples=30, deadline=None)
@given(queries_with_databases(max_atoms=3, max_tuples=10))
def test_answer_set_paging_equals_sorted_materialization(query_db):
    """Acceptance: on random acyclic CQs, paging == sorted answers on
    both backends (whatever family the planner picked)."""
    query, db = query_db
    assume(not query.is_boolean())
    assume(is_acyclic(query.hypergraph()))
    brute = sorted(query.evaluate_brute_force(db))
    for backend in BACKENDS:
        session = Session(db.to_backend(backend))
        prepared = session.prepare(query)
        answers = prepared.run()
        positions = [query.head.index(v) for v in prepared.plan.order]
        oracle = sorted(
            brute,
            key=lambda row: tuple(row[p] for p in positions),
        )
        assert answers[:] == oracle
        assert answers[: len(oracle) // 2] == oracle[: len(oracle) // 2]
        for index in range(0, len(oracle), max(1, len(oracle) // 5)):
            assert answers[index] == oracle[index]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "text, order",
    [
        ("q(x, z) :- R(x, y), S(y, z)", None),
        ("q(x, y, z) :- R(x, y), S(y, z), T(z, x)", ("z", "x", "y")),
        ("q(a, b, c) :- R(a, b), S(b, c)", ("a", "c", "b")),
    ],
    ids=["acyclic-materialize", "cyclic", "trio-order"],
)
def test_materialized_page_is_one_slice(backend, text, order, monkeypatch):
    """Where a sorted list serves pages, ``answers[i:j:k]`` is one list
    slice under one freshness check — no per-row ``_access`` round trip
    through the serving guard and the relation stamps."""
    query = parse_query(text)
    rows = [(i % 5, (i * 3) % 7 % 5) for i in range(30)]
    session = Session({"R": rows, "S": rows[::2], "T": rows[1::2]}, backend=backend)
    prepared = session.prepare(query, order=order)
    answers = prepared.run()
    positions = [query.head.index(v) for v in prepared.plan.order]
    oracle = sorted(
        query.evaluate_brute_force(session.db),
        key=lambda row: tuple(row[p] for p in positions),
    )
    assert len(oracle) > 6
    per_row = []
    with monkeypatch.context() as patch:
        patch.setattr(prepared, "_access", per_row.append)
        for item in (
            slice(None),
            slice(1, 4),
            slice(None, None, 2),
            slice(-3, None),
            slice(5, 1, -1),
            slice(4, 4),
            slice(len(oracle) - 2, len(oracle) + 50),
            slice(1000, 2000),
        ):
            assert answers[item] == oracle[item]
        assert answers.page(2, 3) == oracle[2:5]
    assert per_row == []
    assert answers[-1] == oracle[-1]
    n = len(oracle)
    with pytest.raises(
        IndexError, match=f"index {n} out of range for {n} answers"
    ):
        answers[n]
