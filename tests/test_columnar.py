"""The columnar (NumPy) storage and frame algebra against plain Python
set semantics, and the join stack against the brute-force oracle.

Covers the tuple-store surface (`ColumnarRelation` vs Python sets), the
frame algebra (`ColumnarFrame` vs the set-algebra oracle below), and the
full join stack (binary plans, Generic Join, Yannakakis) on random
queries/databases over both storage layouts, including empty relations,
arity-0/1 relations and repeated-variable atoms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    ColumnarRelation,
    Database,
    Dictionary,
    FrameAlgebra,
    TupleStore,
)
from repro.db.columnar import common_keys, match_pairs, pack_rows, unique_rows
from repro.db.sharded import ShardedColumnarRelation
from repro.hypergraph.gyo import join_tree
from repro.joins import (
    ColumnarFrame,
    generic_join,
    left_deep_plan_join,
    yannakakis_boolean,
    yannakakis_full,
    yannakakis_project,
)
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery

from tests.strategies import queries_with_databases

BACKENDS = ("columnar", "sharded")


def both_backends(db):
    """The same database in both storage layouts."""
    return db.to_backend("columnar"), db.to_backend("sharded", shard_count=3)


# ----------------------------------------------------------------------
# the set-algebra oracle: frames as (variables, set of value rows)
# ----------------------------------------------------------------------
def _project(variables, rows, keep):
    positions = [variables.index(v) for v in keep]
    return {tuple(row[p] for p in positions) for row in rows}


def _agree(left_vars, left_row, right_vars, right_row):
    return all(
        left_row[i] == right_row[right_vars.index(v)]
        for i, v in enumerate(left_vars)
        if v in right_vars
    )


def _join(left_vars, left_rows, right_vars, right_rows):
    extra = [j for j, v in enumerate(right_vars) if v not in left_vars]
    return {
        tuple(left) + tuple(right[j] for j in extra)
        for left in set(left_rows)
        for right in set(right_rows)
        if _agree(left_vars, left, right_vars, right)
    }


def _semijoin(left_vars, left_rows, right_vars, right_rows):
    return {
        tuple(left)
        for left in left_rows
        if any(_agree(left_vars, left, right_vars, r) for r in right_rows)
    }


# ----------------------------------------------------------------------
# vectorized primitives
# ----------------------------------------------------------------------
rows_matrices = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.integers(min_value=0, max_value=4).flatmap(
        lambda k: st.lists(
            st.tuples(*([st.integers(0, 9)] * k)),
            min_size=n,
            max_size=n,
        ).map(lambda rows: np.asarray(rows, dtype=np.int64).reshape(n, k))
    )
)


@given(rows_matrices)
def test_unique_rows_matches_set_semantics(codes):
    got = unique_rows(codes, 10)
    expected = {tuple(r) for r in codes.tolist()}
    assert {tuple(r) for r in got.tolist()} == expected
    assert len(got) == len(expected)


@given(rows_matrices, rows_matrices)
def test_common_keys_equal_iff_rows_equal(a, b):
    if a.shape[1] != b.shape[1]:
        b = b[:, : a.shape[1]] if b.shape[1] > a.shape[1] else b
        if a.shape[1] != b.shape[1]:
            a = a[:, : b.shape[1]]
    ka, kb = common_keys(a, b, 10)
    for i in range(min(len(a), 8)):
        for j in range(min(len(b), 8)):
            assert (ka[i] == kb[j]) == (
                tuple(a[i].tolist()) == tuple(b[j].tolist())
            )


def test_pack_rows_overflow_falls_back():
    # 5 columns × 2^13 codes = 65 bits > 63: must refuse to pack.
    wide = np.zeros((3, 5), dtype=np.int64)
    assert pack_rows(wide, 1 << 13) is None
    # The generic path still produces correct joint keys.
    ka, kb = common_keys(wide, wide[:2], 1 << 13)
    assert ka[0] == kb[0]


def test_match_pairs_enumerates_all_matches():
    left = np.asarray([3, 1, 3, 7], dtype=np.int64)
    right = np.asarray([3, 3, 9, 1], dtype=np.int64)
    li, ri = match_pairs(left, right)
    pairs = set(zip(li.tolist(), ri.tolist()))
    expected = {
        (i, j)
        for i in range(len(left))
        for j in range(len(right))
        if left[i] == right[j]
    }
    assert pairs == expected


# ----------------------------------------------------------------------
# tuple-store parity
# ----------------------------------------------------------------------
relation_rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30
)


@given(relation_rows, relation_rows)
def test_columnar_relation_matches_set_semantics(rows, more_rows):
    py = set(rows)
    col = ColumnarRelation("R", 2, rows)
    assert col == ColumnarRelation("S", 2, py)
    assert len(col) == len(py)
    assert col.rows() == py
    assert col.project((1, 0)).rows() == {(b, a) for a, b in py}
    assert col.project(()).rows() == ({()} if py else set())
    assert col.select_eq(0, 3).rows() == {r for r in py if r[0] == 3}
    assert col.distinct_values(1) == {b for _, b in py}
    assert col.active_domain() == {v for r in py for v in r}
    assert col.index((0,)).keys() == {(a,) for a, _ in py}
    for key, bucket in col.index((0, 1)).items():
        assert bucket == [key]
    # interleaved single-tuple mutation
    for i, row in enumerate(more_rows):
        if i % 3 == 2:
            py.discard(row)
            col.discard(row)
        else:
            py.add(row)
            col.add(row)
        assert col.rows() == py
    kept = {t for t in py if t[0] % 2 == 0}
    assert col.retain(lambda t: t[0] % 2 == 0) == len(py) - len(kept)
    assert col.rows() == kept
    assert col.copy() == col


def test_columnar_relation_edge_arities():
    zero = ColumnarRelation("Z", 0)
    assert zero.is_empty() and len(zero) == 0
    zero.add(())
    assert len(zero) == 1 and () in zero
    zero.add(())
    assert len(zero) == 1
    zero.discard(())
    assert zero.is_empty()

    one = ColumnarRelation("U", 1, [("x",), ("y",), ("x",)])
    assert len(one) == 2
    assert one.distinct_values(0) == {"x", "y"}
    with pytest.raises(ValueError):
        one.add(("a", "b"))
    with pytest.raises(IndexError):
        one.index((1,))


def test_backend_interface_registration():
    assert isinstance(ColumnarRelation("R", 1), TupleStore)
    assert isinstance(ColumnarFrame.empty(("x",)), FrameAlgebra)


def test_database_backend_switch():
    db = Database.from_dict({"R": [(1, 2)], "S": [(2, 3)]}, backend="columnar")
    assert db.backend == "columnar"
    assert isinstance(db["R"], ColumnarRelation)
    # relations of one database share the dictionary
    assert db["R"].dictionary is db["S"].dictionary
    assert isinstance(db.ensure_relation("T", 3), ColumnarRelation)
    assert isinstance(db.copy()["R"], ColumnarRelation)
    back = db.to_backend("sharded")
    assert isinstance(back["R"], ShardedColumnarRelation)
    assert back["R"].rows() == db["R"].rows()
    with pytest.raises(ValueError):
        Database(backend="gpu")
    with pytest.raises(ValueError, match="columnar"):
        Database(backend="python")


# ----------------------------------------------------------------------
# frame-algebra parity
# ----------------------------------------------------------------------
frame_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    max_size=25,
)


@given(frame_rows, frame_rows)
def test_frame_algebra_parity(left_rows, right_rows):
    lv, rv = ["x", "y", "z"], ["y", "z", "w"]
    shared = Dictionary()
    col_l = ColumnarFrame.from_rows(lv, left_rows, shared)
    col_r = ColumnarFrame.from_rows(rv, right_rows, shared)

    assert col_l.to_tuples() == set(left_rows)
    assert col_l.project(("z", "x")).to_tuples() == _project(
        lv, left_rows, ("z", "x")
    )
    assert col_l.project(()).to_tuples() == _project(lv, left_rows, ())
    assert col_l.join(col_r).to_tuples() == _join(
        lv, left_rows, rv, right_rows
    )
    assert col_l.semijoin(col_r).to_tuples() == _semijoin(
        lv, left_rows, rv, right_rows
    )
    allowed = {(r[1], r[2]) for r in left_rows[::2]}
    assert col_l.select_in(("y", "z"), allowed).to_tuples() == {
        r for r in left_rows if (r[1], r[2]) in allowed
    }
    assert col_l.rename({"x": "a"}).to_tuples(("a", "y", "z")) == set(
        left_rows
    )
    assert col_l.reorder(("z", "y", "x")).to_tuples() == _project(
        lv, left_rows, ("z", "y", "x")
    )


@given(frame_rows, frame_rows)
def test_frame_cross_product_parity(left_rows, right_rows):
    lv, rv = ["x", "y", "z"], ["u", "v", "w"]
    col_l = ColumnarFrame.from_rows(lv, left_rows)
    col_r = ColumnarFrame.from_rows(rv, right_rows)
    assert col_l.join(col_r).to_tuples() == _join(
        lv, left_rows, rv, right_rows
    )
    assert col_l.semijoin(col_r).to_tuples() == _semijoin(
        lv, left_rows, rv, right_rows
    )


@given(frame_rows)
def test_frames_over_separate_dictionaries_interoperate(rows):
    """Frames over two dictionaries join and semijoin either way round
    (the other operand is re-encoded first)."""
    order = ("x", "y", "z", "w")
    lv, rv = ["x", "y", "z"], ["y", "z", "w"]
    col_l = ColumnarFrame.from_rows(lv, rows)
    col_r = ColumnarFrame.from_rows(rv, rows)
    assert col_l.dictionary is not col_r.dictionary
    expected = _join(lv, rows, rv, rows)
    assert col_l.join(col_r).to_tuples(order) == expected
    assert col_r.join(col_l).to_tuples(order) == expected
    assert col_l.semijoin(col_r).to_tuples() == _semijoin(lv, rows, rv, rows)
    assert col_r.semijoin(col_l).to_tuples() == _semijoin(rv, rows, lv, rows)


def test_columnar_frame_separate_dictionaries_coerce():
    a = ColumnarFrame.from_rows(("x", "y"), [(1, 2), (3, 4)])
    b = ColumnarFrame.from_rows(("y", "z"), [(2, 9), (4, 7), (5, 5)])
    assert a.join(b).to_tuples() == {(1, 2, 9), (3, 4, 7)}
    assert a.semijoin(b).to_tuples() == {(1, 2), (3, 4)}


def test_columnar_frame_unit_and_empty():
    unit = ColumnarFrame.unit()
    assert len(unit) == 1 and () in unit
    empty = ColumnarFrame.empty(("x",))
    assert empty.is_empty()
    some = ColumnarFrame.from_rows(("x",), [(1,)])
    assert some.join(unit.unit_like()).to_tuples() == {(1,)}
    assert some.join(some.empty_like(("x",))).to_tuples() == set()
    assert some.semijoin(unit).to_tuples() == {(1,)}
    assert some.semijoin(empty.empty_like(())).to_tuples() == set()


def test_from_atom_repeated_variables():
    rel = ColumnarRelation("R", 3, [(1, 1, 2), (1, 2, 2), (4, 4, 4)])
    frame = ColumnarFrame.from_atom(rel, ("x", "x", "y"))
    assert frame.variables == ("x", "y")
    assert frame.to_tuples() == {(1, 2), (4, 4)}


# ----------------------------------------------------------------------
# join-stack parity on random queries and databases
# ----------------------------------------------------------------------
@settings(max_examples=40)
@given(queries_with_databases(max_atoms=3, max_tuples=20))
def test_join_stack_backend_parity(query_db):
    query, db = query_db
    expected = query.evaluate_brute_force(db)
    db_col, db_sharded = both_backends(db)

    assert generic_join(query, db_col) == expected
    assert generic_join(query, db_sharded) == expected

    assert left_deep_plan_join(query, db_col).to_tuples() == expected
    assert left_deep_plan_join(query, db_sharded).to_tuples() == expected

    try:
        tree = join_tree(query.hypergraph())
    except ValueError:
        return  # cyclic — Yannakakis does not apply
    full = query.as_join_query()
    full_expected = full.evaluate_brute_force(db)
    for stored in (db_col, db_sharded):
        assert yannakakis_boolean(query, stored, tree) == bool(expected)
        assert yannakakis_project(query, stored, tree).to_tuples() == expected
        result = yannakakis_full(full, stored, tree)
        assert isinstance(result, ColumnarFrame)
        assert result.to_tuples() == full_expected


def test_arity0_empty_relation_falsifies_query():
    """Regression: generic_join used to ignore empty arity-0 atoms."""
    query = ConjunctiveQuery((), (Atom("T", ()),))
    for backend in BACKENDS:
        db = Database(backend=backend)
        db.add_relation(db.new_relation("T", 0))
        assert query.evaluate_brute_force(db) == set()
        assert generic_join(query, db) == set()
        assert left_deep_plan_join(query, db).to_tuples() == set()
        db["T"].add(())
        assert generic_join(query, db) == {()}
        assert left_deep_plan_join(query, db).to_tuples() == {()}


def test_empty_relation_flows_through_columnar_stack():
    query = ConjunctiveQuery(
        ("x", "y", "z"),
        (Atom("R", ("x", "y")), Atom("S", ("y", "z"))),
    )
    db = Database(backend="columnar")
    db.add_relation(db.new_relation("R", 2))
    db.add_relation(db.new_relation("S", 2, [(1, 2)]))
    assert generic_join(query, db) == set()
    assert left_deep_plan_join(query, db).to_tuples() == set()
    assert yannakakis_full(query, db).to_tuples() == set()
    assert not yannakakis_boolean(query, db)


def test_self_join_columnar_parity():
    query = ConjunctiveQuery(
        ("x", "y", "z"),
        (Atom("E", ("x", "y")), Atom("E", ("y", "z"))),
    )
    rows = [(1, 2), (2, 3), (3, 1), (2, 2)]
    db_col = Database.from_dict({"E": rows}, backend="columnar")
    expected = {
        (x, y, z) for (x, y) in rows for (y2, z) in rows if y == y2
    }
    assert query.evaluate_brute_force(db_col) == expected
    assert generic_join(query, db_col) == expected
    assert left_deep_plan_join(query, db_col).to_tuples() == expected
