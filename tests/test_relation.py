"""Unit tests for the ColumnarRelation tuple store (the TupleStore surface)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.columnar import ColumnarRelation


def test_add_and_len():
    rel = ColumnarRelation("R", 2)
    rel.add((1, 2))
    rel.add((2, 3))
    assert len(rel) == 2


def test_duplicates_are_absorbed():
    rel = ColumnarRelation("R", 2, [(1, 2), (1, 2), (1, 2)])
    assert len(rel) == 1


def test_arity_mismatch_rejected():
    rel = ColumnarRelation("R", 2)
    with pytest.raises(ValueError):
        rel.add((1, 2, 3))


def test_add_all_arity_mismatch_rejected():
    rel = ColumnarRelation("R", 2)
    with pytest.raises(ValueError):
        rel.add_all([(1, 2), (3,)])


def test_negative_arity_rejected():
    with pytest.raises(ValueError):
        ColumnarRelation("R", -1)


def test_zero_arity_relation():
    rel = ColumnarRelation("Nullary", 0)
    rel.add(())
    assert () in rel
    assert len(rel) == 1


def test_contains_and_iter():
    rows = {(1, 2), (3, 4)}
    rel = ColumnarRelation("R", 2, rows)
    assert (1, 2) in rel
    assert (9, 9) not in rel
    assert set(rel) == rows


def test_discard():
    rel = ColumnarRelation("R", 2, [(1, 2), (3, 4)])
    rel.discard((1, 2))
    assert (1, 2) not in rel
    rel.discard((99, 99))  # absent: no error
    assert len(rel) == 1


def test_retain_filters_and_counts():
    rel = ColumnarRelation("R", 1, [(i,) for i in range(10)])
    removed = rel.retain(lambda t: t[0] % 2 == 0)
    assert removed == 5
    assert set(rel) == {(i,) for i in range(0, 10, 2)}


def test_retain_noop_returns_zero():
    rel = ColumnarRelation("R", 1, [(1,)])
    assert rel.retain(lambda t: True) == 0


def test_index_lookup():
    rel = ColumnarRelation("R", 2, [(1, 2), (1, 3), (2, 3)])
    assert sorted(rel.lookup((0,), (1,))) == [(1, 2), (1, 3)]
    assert rel.lookup((0, 1), (2, 3)) == [(2, 3)]
    assert rel.lookup((1,), (99,)) == []


def test_index_out_of_range_column():
    rel = ColumnarRelation("R", 2, [(1, 2)])
    with pytest.raises(IndexError):
        rel.index((5,))


def test_index_invalidated_on_mutation():
    rel = ColumnarRelation("R", 2, [(1, 2)])
    assert rel.lookup((0,), (3,)) == []
    rel.add((3, 4))
    assert rel.lookup((0,), (3,)) == [(3, 4)]


def test_project():
    rel = ColumnarRelation("R", 2, [(1, 2), (1, 3)])
    proj = rel.project((0,))
    assert set(proj) == {(1,)}
    assert proj.arity == 1


def test_project_reorders_and_repeats():
    rel = ColumnarRelation("R", 2, [(1, 2)])
    assert set(rel.project((1, 0, 1))) == {(2, 1, 2)}


def test_select_eq():
    rel = ColumnarRelation("R", 2, [(1, 2), (1, 3), (2, 3)])
    assert set(rel.select_eq(0, 1)) == {(1, 2), (1, 3)}


def test_distinct_values_and_active_domain():
    rel = ColumnarRelation("R", 2, [(1, 2), (3, 2)])
    assert rel.distinct_values(0) == {1, 3}
    assert rel.distinct_values(1) == {2}
    assert rel.active_domain() == {1, 2, 3}


def test_copy_is_independent():
    rel = ColumnarRelation("R", 1, [(1,)])
    clone = rel.copy()
    clone.add((2,))
    assert len(rel) == 1
    assert len(clone) == 2


def test_equality_ignores_name():
    assert ColumnarRelation("A", 2, [(1, 2)]) == ColumnarRelation("B", 2, [(1, 2)])
    assert ColumnarRelation("A", 2, [(1, 2)]) != ColumnarRelation("A", 2, [(2, 1)])


def test_relations_unhashable():
    with pytest.raises(TypeError):
        hash(ColumnarRelation("R", 1))


@given(
    st.sets(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30
    )
)
def test_index_partitions_rows(rows):
    """Property: a column index's buckets partition the tuple set."""
    rel = ColumnarRelation("R", 2, rows)
    index = rel.index((0,))
    recovered = set()
    for key, bucket in index.items():
        for tup in bucket:
            assert tup[0] == key[0]
            recovered.add(tup)
    assert recovered == set(rows)


@given(
    st.sets(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=25
    )
)
def test_project_is_idempotent(rows):
    rel = ColumnarRelation("R", 2, rows)
    once = rel.project((0,))
    twice = once.project((0,))
    assert set(once) == set(twice)
