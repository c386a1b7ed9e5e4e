"""Every relation of a database shares the database's one dictionary.

However a relation arrives — passed to the constructor, registered
with ``add_relation`` while built over another
:class:`~repro.db.columnar.Dictionary`, copied by ``to_backend``, or
recovered by ``attach`` — it ends up encoded over ``db.dictionary``,
and the engine's answers over it equal brute force.
"""

import random

import pytest

from repro.db import ColumnarRelation, Database, attach
from repro.engine import Session
from repro.query.parser import parse_query
from repro.semiring.semirings import COUNTING, MIN_PLUS

from tests import brute

JOIN = "q(x, y, z) :- R(x, y), S(y, z)"
PROJECTED = "q(x) :- R(x, y), S(y, z)"

R_ROWS = [(1, "a"), (2, "a"), (3, "b"), (4, "b")]
S_ROWS = [("a", 10), ("b", 20), ("b", 25), ("c", 30)]


def _weight(atom_index, row):
    return (atom_index + 1) * len(repr(row))


def _foreign():
    """R and S, each over a dictionary of its own."""
    return (
        ColumnarRelation("R", 2, R_ROWS),
        ColumnarRelation("S", 2, S_ROWS),
    )


def assert_one_dictionary_and_brute_force(db):
    assert all(rel.dictionary is db.dictionary for rel in db)
    session = Session(db)
    for text in (JOIN, PROJECTED):
        prepared = session.prepare(text)
        answers = prepared.run()
        expected = brute.page_order(prepared)
        assert expected
        assert len(answers) == len(expected)
        assert answers.page(0, len(expected) + 1) == expected
        assert answers.aggregate(COUNTING) == len(expected)
        assert answers.aggregate(MIN_PLUS) == brute.fold(text, db, MIN_PLUS)
    join = session.prepare(JOIN).run()
    assert join.aggregate(MIN_PLUS, weights=_weight) == brute.fold(
        JOIN, db, MIN_PLUS, _weight
    )


def test_constructor_relations_share_the_dictionary():
    r, s = _foreign()
    db = Database(relations=[r, s])
    assert db["R"] is not r and db["S"] is not s
    assert_one_dictionary_and_brute_force(db)


@pytest.mark.parametrize("backend", ("columnar", "sharded"))
def test_add_relation_reencodes_a_foreign_dictionary(backend):
    db = Database(backend=backend)
    db.ensure_relation("R", 2).add_all(R_ROWS)
    _, s = _foreign()
    assert s.dictionary is not db.dictionary
    registered = db.add_relation(s)
    assert registered is db["S"] and registered.dictionary is db.dictionary
    assert registered.rows() == set(S_ROWS)
    assert_one_dictionary_and_brute_force(db)


def test_to_backend_sharded_shares_the_new_dictionary():
    db = Database(relations=_foreign()).to_backend("sharded", shard_count=3)
    assert_one_dictionary_and_brute_force(db)


def test_attach_recovery_shares_the_dictionary(tmp_path):
    path = str(tmp_path / "db")
    db = attach(path)
    for relation in _foreign():
        db.add_relation(relation)
    db.checkpoint()
    db.ensure_relation("S", 2).add(("a", 40))  # a WAL suffix
    db.close()
    recovered = attach(path)
    assert_one_dictionary_and_brute_force(recovered)
    recovered.close()


# One query per family the planner distinguishes, each served by a
# different coded algorithm (Yannakakis, constant-delay enumeration,
# lex direct access, materialization, Generic Join).
FAMILY_QUERIES = {
    "join-chain": "q(a, b, c) :- R(a, b), S(b, c)",
    "projected-free-connex": "q(a) :- R(a, b), S(b, c)",
    "star": "q(a, b) :- R(a, b), T(a, c)",
    "boolean": "q() :- R(a, b), S(b, c)",
    "non-free-connex": "q(a, c) :- R(a, b), S(b, c)",
    "cyclic": "q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
}


def _mixed_foreign():
    """R, S and T over int and str columns (one type per column, so
    every family above joins like types), each over a dictionary of its
    own and built in its own order, so no two dictionaries assign the
    same codes."""
    rng = random.Random(5)
    ints, strs = [0, 1, 2, 3, 4], ["a", "b", "c", "d"]
    relations = []
    layouts = (("R", (ints, strs)), ("S", (strs, ints)), ("T", (ints, ints)))
    for name, domains in layouts:
        rows = list({tuple(map(rng.choice, domains)) for _ in range(14)})
        rng.shuffle(rows)
        relations.append(ColumnarRelation(name, 2, rows))
    return relations


def _via_constructor(tmp_path):
    return Database(relations=_mixed_foreign())


def _via_add_relation(backend):
    def build(tmp_path):
        db = Database(backend=backend)
        for relation in _mixed_foreign():
            db.add_relation(relation)
        return db

    return build


def _via_to_backend(tmp_path):
    return Database(relations=_mixed_foreign()).to_backend(
        "sharded", shard_count=3
    )


def _via_attach(tmp_path):
    path = str(tmp_path / "db")
    db = attach(path)
    for relation in _mixed_foreign():
        db.add_relation(relation)
    db.close()
    return attach(path)


ENTRY_PATHS = {
    "constructor": _via_constructor,
    "add_relation-columnar": _via_add_relation("columnar"),
    "add_relation-sharded": _via_add_relation("sharded"),
    "to_backend-sharded": _via_to_backend,
    "attach": _via_attach,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_PATHS))
@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_every_query_family_runs_coded_over_the_shared_dictionary(
    tmp_path, family, entry
):
    """Whichever way foreign relations arrive, every family's answers,
    pages and aggregates equal brute force over the shared dictionary."""
    db = ENTRY_PATHS[entry](tmp_path)
    try:
        assert all(rel.dictionary is db.dictionary for rel in db)
        text = FAMILY_QUERIES[family]
        prepared = Session(db).prepare(text)
        answers = prepared.run()
        expected = brute.page_order(prepared)
        assert expected
        assert len(answers) == len(expected)
        assert answers.page(0, len(expected) + 1) == expected
        assert answers.aggregate(COUNTING) == brute.fold(text, db, COUNTING)
        assert answers.aggregate(MIN_PLUS) == brute.fold(text, db, MIN_PLUS)
        if parse_query(text).is_join_query():
            assert answers.aggregate(MIN_PLUS, weights=_weight) == brute.fold(
                text, db, MIN_PLUS, _weight
            )
    finally:
        if hasattr(db, "close"):
            db.close()
