"""Frame algebra tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.columnar import ColumnarRelation
from repro.joins.vectorized import ColumnarFrame


def test_distinct_variables_required():
    with pytest.raises(ValueError):
        ColumnarFrame.from_rows(("x", "x"), [])


def test_row_width_checked():
    with pytest.raises(ValueError):
        ColumnarFrame.from_rows(("x", "y"), [(1,)])


def test_from_atom_repeated_variables_select_diagonal():
    rel = ColumnarRelation("R", 2, [(1, 1), (1, 2), (3, 3)])
    frame = ColumnarFrame.from_atom(rel, ("x", "x"))
    assert frame.variables == ("x",)
    assert frame.rows == {(1,), (3,)}


def test_from_atom_arity_check():
    rel = ColumnarRelation("R", 2, [(1, 2)])
    with pytest.raises(ValueError):
        ColumnarFrame.from_atom(rel, ("x",))


def test_unit_and_empty():
    assert len(ColumnarFrame.unit()) == 1
    assert ColumnarFrame.empty(("x",)).is_empty()
    # unit is the join identity
    f = ColumnarFrame.from_rows(("x",), [(1,), (2,)])
    assert ColumnarFrame.unit().join(f).rows == f.rows


def test_project_and_rename_and_reorder():
    f = ColumnarFrame.from_rows(("x", "y"), [(1, 2), (1, 3)])
    assert f.project(("x",)).rows == {(1,)}
    assert f.rename({"x": "a"}).variables == ("a", "y")
    assert f.reorder(("y", "x")).rows == {(2, 1), (3, 1)}
    with pytest.raises(ValueError):
        f.reorder(("x",))
    with pytest.raises(KeyError):
        f.project(("zz",))


def test_join_on_shared_variable():
    left = ColumnarFrame.from_rows(("x", "y"), [(1, 10), (2, 20)])
    right = ColumnarFrame.from_rows(("y", "z"), [(10, 100), (10, 101), (30, 300)])
    joined = left.join(right)
    assert joined.variables == ("x", "y", "z")
    assert joined.rows == {(1, 10, 100), (1, 10, 101)}


def test_join_cross_product_when_disjoint():
    left = ColumnarFrame.from_rows(("x",), [(1,), (2,)])
    right = ColumnarFrame.from_rows(("y",), [(7,)])
    joined = left.join(right)
    assert joined.rows == {(1, 7), (2, 7)}


def test_join_build_side_symmetry():
    small = ColumnarFrame.from_rows(("x", "y"), [(1, 1)])
    big = ColumnarFrame.from_rows(("y", "z"), [(1, i) for i in range(10)])
    assert small.join(big).rows == {
        (1, 1, i) for i in range(10)
    }
    flipped = big.join(small)
    assert flipped.to_tuples(("x", "y", "z")) == small.join(big).rows


def test_semijoin():
    left = ColumnarFrame.from_rows(("x", "y"), [(1, 10), (2, 20)])
    right = ColumnarFrame.from_rows(("y",), [(10,)])
    assert left.semijoin(right).rows == {(1, 10)}


def test_semijoin_no_shared_variables():
    left = ColumnarFrame.from_rows(("x",), [(1,)])
    assert left.semijoin(ColumnarFrame.from_rows(("y",), [(5,)])).rows == {(1,)}
    assert left.semijoin(ColumnarFrame.from_rows(("y",), [])).is_empty()


def test_select_in():
    f = ColumnarFrame.from_rows(("x", "y"), [(1, 2), (3, 4)])
    assert f.select_in(("x",), {(1,)}).rows == {(1, 2)}


def test_to_tuples_with_order():
    f = ColumnarFrame.from_rows(("x", "y"), [(1, 2)])
    assert f.to_tuples(("y", "x")) == {(2, 1)}


@given(
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
)
def test_join_is_commutative(a_rows, b_rows):
    left = ColumnarFrame.from_rows(("x", "y"), a_rows)
    right = ColumnarFrame.from_rows(("y", "z"), b_rows)
    forward = left.join(right).to_tuples(("x", "y", "z"))
    backward = right.join(left).to_tuples(("x", "y", "z"))
    assert forward == backward


@given(
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
)
def test_semijoin_is_idempotent(rows):
    f = ColumnarFrame.from_rows(("x", "y"), rows)
    g = ColumnarFrame.from_rows(("y", "z"), {(y, y) for _, y in rows})
    once = f.semijoin(g)
    twice = once.semijoin(g)
    assert once.rows == twice.rows
