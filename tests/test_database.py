"""Unit tests for the Database container."""

import pytest

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation


def test_from_dict_infers_arity():
    db = Database.from_dict({"R": [(1, 2)], "S": [(1,)]})
    assert db["R"].arity == 2
    assert db["S"].arity == 1


def test_from_dict_rejects_empty_relation():
    with pytest.raises(ValueError):
        Database.from_dict({"R": []})


def test_duplicate_names_rejected():
    db = Database([ColumnarRelation("R", 1)])
    with pytest.raises(ValueError):
        db.add_relation(ColumnarRelation("R", 2))


def test_missing_relation_raises_keyerror():
    db = Database()
    with pytest.raises(KeyError):
        db["nope"]


def test_contains_and_len():
    db = Database([ColumnarRelation("R", 1), ColumnarRelation("S", 2)])
    assert "R" in db
    assert "missing" not in db
    assert len(db) == 2
    assert sorted(db.names()) == ["R", "S"]


def test_size_counts_all_tuples():
    db = Database.from_dict({"R": [(1, 2), (3, 4)], "S": [(1,)]})
    assert db.size() == 3


def test_active_domain_union():
    db = Database.from_dict({"R": [(1, 2)], "S": [(7,)]})
    assert db.active_domain() == {1, 2, 7}


def test_ensure_relation_creates_and_validates():
    db = Database()
    rel = db.ensure_relation("R", 2)
    assert rel.arity == 2
    assert db.ensure_relation("R", 2) is rel
    with pytest.raises(ValueError):
        db.ensure_relation("R", 3)


def test_copy_is_deep_for_rows():
    db = Database.from_dict({"R": [(1, 2)]})
    clone = db.copy()
    clone["R"].add((3, 4))
    assert len(db["R"]) == 1
    assert len(clone["R"]) == 2


def test_iteration_yields_relations():
    db = Database.from_dict({"R": [(1,)], "S": [(2,)]})
    names = {rel.name for rel in db}
    assert names == {"R", "S"}
