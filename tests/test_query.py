"""Unit and property tests for atoms, queries and the brute evaluator."""

import pytest
from hypothesis import given

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery

from tests.strategies import queries_with_databases


def test_atom_scope_deduplicates():
    atom = Atom("R", ("x", "y", "x"))
    assert atom.arity == 3
    assert atom.scope == frozenset({"x", "y"})
    assert atom.has_repeated_variables()


def test_atom_rejects_bad_names():
    with pytest.raises(ValueError):
        Atom("R", ("not a var",))
    with pytest.raises(ValueError):
        Atom("9bad", ("x",))


def test_atom_rename():
    atom = Atom("R", ("x", "y"))
    assert atom.rename({"x": "z"}).variables == ("z", "y")
    assert atom.rename(lambda v: v.upper()).variables == ("X", "Y")


def test_query_safety_enforced():
    with pytest.raises(ValueError):
        ConjunctiveQuery(("z",), (Atom("R", ("x", "y")),))


def test_query_head_distinct():
    with pytest.raises(ValueError):
        ConjunctiveQuery(("x", "x"), (Atom("R", ("x", "y")),))


def test_query_needs_atoms():
    with pytest.raises(ValueError):
        ConjunctiveQuery((), ())


def test_symbol_arity_consistency():
    with pytest.raises(ValueError):
        ConjunctiveQuery(
            (),
            (Atom("R", ("x", "y")), Atom("R", ("x",))),
        )


def test_structure_predicates():
    q = ConjunctiveQuery(
        ("x",), (Atom("R", ("x", "y")), Atom("R", ("y", "z")))
    )
    assert not q.is_boolean()
    assert not q.is_join_query()
    assert not q.is_self_join_free()
    assert q.variables == frozenset({"x", "y", "z"})
    assert q.existential_variables == frozenset({"y", "z"})
    assert q.relation_symbols == ("R",)
    assert q.arity_bound() == 2
    assert len(q.atoms_of("R")) == 2


def test_as_boolean_and_as_join_query():
    q = ConjunctiveQuery(("x",), (Atom("R", ("x", "y")),))
    assert q.as_boolean().is_boolean()
    full = q.as_join_query()
    assert full.is_join_query()
    assert full.head[0] == "x"  # existing head vars first


def test_rename_apart_preserves_answers():
    q = ConjunctiveQuery(
        ("x",), (Atom("R", ("x", "y")), Atom("R", ("y", "x")))
    )
    db = Database.from_dict({"R": [(1, 2), (2, 1), (2, 3)]})
    renamed = q.rename_apart()
    assert renamed.is_self_join_free()
    renamed_db = q.rename_apart_database(db)
    assert q.evaluate_brute_force(db) == renamed.evaluate_brute_force(
        renamed_db
    )


def test_validate_database_errors():
    q = ConjunctiveQuery((), (Atom("R", ("x", "y")),))
    with pytest.raises(KeyError):
        q.validate_database(Database())
    with pytest.raises(ValueError):
        q.validate_database(Database.from_dict({"R": [(1,)]}))


def test_brute_force_simple_join():
    q = ConjunctiveQuery(
        ("x", "z"),
        (Atom("R", ("x", "y")), Atom("S", ("y", "z"))),
    )
    db = Database.from_dict(
        {"R": [(1, 10), (2, 20)], "S": [(10, 100), (20, 200), (10, 101)]}
    )
    assert q.evaluate_brute_force(db) == {(1, 100), (1, 101), (2, 200)}


def test_brute_force_repeated_variable_selection():
    q = ConjunctiveQuery(("x",), (Atom("R", ("x", "x")),))
    db = Database.from_dict({"R": [(1, 1), (1, 2), (3, 3)]})
    assert q.evaluate_brute_force(db) == {(1,), (3,)}


def test_brute_force_boolean_and_holds():
    q = ConjunctiveQuery((), (Atom("R", ("x", "y")),))
    assert q.holds(Database.from_dict({"R": [(1, 2)]}))
    empty = Database()
    empty.add_relation(ColumnarRelation("R", 2))
    assert not q.holds(empty)


def test_brute_force_self_join_shares_relation():
    q = ConjunctiveQuery(
        ("x", "z"),
        (Atom("E", ("x", "y")), Atom("E", ("y", "z"))),
    )
    db = Database.from_dict({"E": [(1, 2), (2, 3)]})
    assert q.evaluate_brute_force(db) == {(1, 3)}


def test_count_brute_force():
    q = ConjunctiveQuery(("x",), (Atom("R", ("x", "y")),))
    db = Database.from_dict({"R": [(1, 2), (1, 3), (2, 2)]})
    assert q.count_brute_force(db) == 2


def test_query_str_roundtrip_shape():
    q = ConjunctiveQuery(
        ("x",), (Atom("R", ("x", "y")),), name="myq"
    )
    assert str(q) == "myq(x) :- R(x, y)"


def test_query_equality_and_hash():
    a1 = ConjunctiveQuery(("x",), (Atom("R", ("x", "y")),))
    a2 = ConjunctiveQuery(("x",), (Atom("R", ("x", "y")),))
    assert a1 == a2
    assert hash(a1) == hash(a2)
    assert a1 != a1.as_boolean()


@given(queries_with_databases(max_atoms=3, max_tuples=12))
def test_answers_project_from_full_join(query_db):
    """Property: q(D) = π_head(full-join(D)) for every query."""
    query, db = query_db
    full = query.as_join_query()
    positions = [full.head.index(v) for v in query.head]
    projected = {
        tuple(row[p] for p in positions)
        for row in full.evaluate_brute_force(db)
    }
    assert query.evaluate_brute_force(db) == projected


@given(queries_with_databases(max_atoms=3, max_tuples=10))
def test_boolean_agrees_with_answer_existence(query_db):
    query, db = query_db
    assert query.holds(db) == bool(query.evaluate_brute_force(db))
