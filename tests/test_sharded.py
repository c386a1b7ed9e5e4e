"""Sharded-backend parity: the hash-partitioned substrate must agree
with the single-shard columnar backend and the brute-force oracle
everywhere.

Covers the tuple-store surface (`ShardedColumnarRelation` vs Python
sets), routing determinism, the join stack (semijoin reducer,
Yannakakis, Generic Join) on random queries/databases, merge-based
counting/aggregation, the `delta_since` consistency contract under
update streams, empty shards / `shard_count=1` / skewed partitions,
update streams through `Session`, and that a sharded relation binds
to the same plain columnar frames every algorithm runs on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import count_answers
from repro.db import Database, ShardedColumnarRelation
from repro.db.interface import TruncatedHistoryError
from repro.db.columnar import reset_decoded_row_count, decoded_row_count
from repro.db.sharded import shard_ids, shard_of_code
from repro.engine import connect
from repro.joins import generic_join, yannakakis_boolean, yannakakis_project
from repro.joins.semijoin import atom_frames, full_reducer_pass
from repro.joins.vectorized import ColumnarFrame
from repro.hypergraph.gyo import is_acyclic, join_tree
from repro.semiring.faq import aggregate_acyclic
from repro.semiring.semirings import COUNTING, MIN_PLUS

from tests import brute
from tests.strategies import queries_with_databases

SHARD_COUNTS = (1, 3)


def sharded_copy(db, shard_count):
    return db.to_backend("sharded", shard_count=shard_count)


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=50),
    st.integers(min_value=1, max_value=16),
)
def test_scalar_and_vector_routing_agree(codes, shard_count):
    array = np.asarray(codes, dtype=np.int64)
    vectorized = shard_ids(array, shard_count).tolist()
    assert vectorized == [shard_of_code(c, shard_count) for c in codes]
    assert all(0 <= s < shard_count for s in vectorized)


# ----------------------------------------------------------------------
# tuple-store surface
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40
    ),
    st.sampled_from(SHARD_COUNTS),
)
def test_tuple_store_parity(rows, shard_count):
    oracle = set(rows)
    sharded = ShardedColumnarRelation(
        "R", 2, rows, shard_count=shard_count
    )
    assert len(sharded) == len(oracle)
    assert sharded.rows() == oracle
    assert sharded.distinct_values(0) == {a for a, _ in oracle}
    assert sharded.active_domain() == {v for r in oracle for v in r}
    assert sharded.project([1, 0]).rows() == {(b, a) for a, b in oracle}
    if rows:
        value = rows[0][0]
        assert sharded.select_eq(0, value).rows() == {
            r for r in oracle if r[0] == value
        }
    # The shards partition the tuple set.
    assert sum(sharded.shard_sizes()) == len(oracle)


def test_skewed_partition_single_hot_key():
    # Every row shares the key-column value: all rows land in ONE
    # shard, the rest stay empty, and everything still works.
    rows = [(7, i) for i in range(100)]
    rel = ShardedColumnarRelation("R", 2, rows, shard_count=4)
    sizes = rel.shard_sizes()
    assert sorted(sizes) == [0, 0, 0, 100]
    assert len(rel) == 100
    assert rel.rows() == set(rows)


def test_coded_mutators_route_to_shards():
    # Regression: the code-level mutators must route like their
    # value-level counterparts, not write to hidden inherited storage.
    rel = ShardedColumnarRelation("R", 2, shard_count=3)
    one, two = rel.dictionary.encode(1), rel.dictionary.encode(2)
    rel.apply_coded((one, two), True)
    assert len(rel) == 1 and rel.has_coded((one, two)) and (1, 2) in rel
    rel.apply_coded((one, two), False)
    assert rel.is_empty()
    rel.add_coded_batch(np.asarray([[one, two], [two, one]], dtype=np.int64))
    assert rel.rows() == frozenset({(1, 2), (2, 1)})


def test_empty_relation_and_arity_zero():
    empty = ShardedColumnarRelation("E", 2, shard_count=3)
    assert len(empty) == 0 and empty.is_empty()
    inserted, deleted = empty.delta_since(empty.mutation_stamp)
    assert not len(inserted) and not len(deleted)
    nullary = ShardedColumnarRelation("N", 0, shard_count=3)
    nullary.add(())
    assert len(nullary) == 1 and () in nullary
    nullary.discard(())
    assert nullary.is_empty()


# ----------------------------------------------------------------------
# join stack parity
# ----------------------------------------------------------------------
@given(queries_with_databases())
@settings(max_examples=20)
def test_join_stack_parity(query_db):
    query, db = query_db
    join_query = query.as_join_query()
    acyclic = is_acyclic(query.hypergraph())
    expected = join_query.evaluate_brute_force(db)
    answers = query.evaluate_brute_force(db)
    for shard_count in SHARD_COUNTS:
        sharded = sharded_copy(db, shard_count)
        assert set(generic_join(join_query, sharded)) == expected
        if acyclic:
            assert set(yannakakis_project(query, sharded).rows) == answers
            if query.is_boolean():
                assert yannakakis_boolean(query, sharded) == bool(answers)


@given(queries_with_databases())
@settings(max_examples=20)
def test_full_reducer_parity(query_db):
    query, db = query_db
    query = query.as_join_query()
    if not is_acyclic(query.hypergraph()):
        return
    tree = join_tree(query.hypergraph())
    reduced_py = full_reducer_pass(
        dict(enumerate(atom_frames(query, db))), tree
    )
    for shard_count in SHARD_COUNTS:
        sharded = sharded_copy(db, shard_count)
        reduced_sh = full_reducer_pass(
            dict(enumerate(atom_frames(query, sharded))), tree
        )
        for node, frame in reduced_py.items():
            assert set(reduced_sh[node].rows) == set(frame.rows)


# ----------------------------------------------------------------------
# counting and aggregation
# ----------------------------------------------------------------------
@given(queries_with_databases())
@settings(max_examples=20)
def test_count_and_aggregate_parity(query_db):
    query, db = query_db
    expected_count = query.count_brute_force(db)
    join_query = query.as_join_query()
    acyclic = is_acyclic(join_query.hypergraph())
    for shard_count in SHARD_COUNTS:
        sharded = sharded_copy(db, shard_count)
        assert count_answers(query, sharded) == expected_count
        if acyclic:
            for semiring in (COUNTING, MIN_PLUS):
                assert aggregate_acyclic(
                    join_query, sharded, semiring
                ) == brute.fold(join_query, db, semiring)


def test_sharded_is_the_same_pipeline():
    # Sharding is a storage layout: a sharded relation binds to the
    # plain columnar frame (same rows as the unsharded relation's), and
    # counting / aggregating over it decodes nothing.
    rows_r = [(i % 97, i % 13) for i in range(3000)]
    rows_s = [(i % 13, i % 41) for i in range(3000)]
    db = Database.from_dict(
        {"R": rows_r, "S": rows_s}, backend="sharded", shard_count=4
    )
    assert all(
        len(rel.shards) == 4 and sum(s > 0 for s in rel.shard_sizes()) > 1
        for rel in db
    )
    columnar = db.to_backend("columnar")
    for name, variables in (("R", ("x", "y")), ("S", ("y", "y"))):
        frame = ColumnarFrame.from_atom(db[name], variables)
        assert type(frame) is ColumnarFrame
        plain = ColumnarFrame.from_atom(columnar[name], variables)
        assert frame.variables == plain.variables
        assert frame.rows == plain.rows
    from repro.query.parser import parse_query

    query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
    expected_count = query.count_brute_force(db)
    expected_min = brute.fold(query, db, MIN_PLUS)
    reset_decoded_row_count()
    assert count_answers(query, db) == expected_count
    assert aggregate_acyclic(query, db, MIN_PLUS) == expected_min
    assert decoded_row_count() == 0


# ----------------------------------------------------------------------
# the consistency contract (delta_since) under update streams
# ----------------------------------------------------------------------
ops_streams = st.lists(
    st.tuples(
        st.booleans(),  # True = add, False = discard
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
    ),
    max_size=40,
)


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30),
    ops_streams,
    st.sampled_from(SHARD_COUNTS),
)
def test_delta_since_is_exact(seed_rows, ops, shard_count):
    rel = ShardedColumnarRelation(
        "R", 2, seed_rows, shard_count=shard_count
    )
    oracle = set(rel.rows())
    stamp = rel.mutation_stamp
    snapshot = set(oracle)
    for is_add, row in ops:
        if is_add:
            rel.add(row)
            oracle.add(row)
        else:
            rel.discard(row)
            oracle.discard(row)
    assert rel.rows() == frozenset(oracle)
    try:
        inserted, deleted = rel.delta_since(stamp)
    except TruncatedHistoryError:
        return  # history legitimately truncated (shard compaction)
    decode = rel.dictionary.decode
    ins = {tuple(decode(c) for c in row) for row in inserted.tolist()}
    dele = {tuple(decode(c) for c in row) for row in deleted.tolist()}
    # Exact net change: replaying the delta on the snapshot yields the
    # current content, and the two sides never overlap.
    assert ins == oracle - snapshot
    assert dele == snapshot - oracle
    assert not ins & dele


def test_delta_since_raises_after_barriers():
    rel = ShardedColumnarRelation("R", 2, shard_count=3)
    rel.add_all([(i, i) for i in range(10)])
    stamp = rel.mutation_stamp
    rel.add_all([(i, i + 1) for i in range(200)])  # bulk: barrier
    with pytest.raises(TruncatedHistoryError) as excinfo:
        rel.delta_since(stamp)
    assert excinfo.value.relation == "R"  # parent name, not a shard's
    stamp = rel.mutation_stamp
    assert rel.retain(lambda t: t[0] % 2 == 0) > 0
    with pytest.raises(TruncatedHistoryError):
        rel.delta_since(stamp)
    # Unanswerable stamps from before construction-time history.
    with pytest.raises(TruncatedHistoryError):
        rel.delta_since(-1)


def test_shard_local_contract():
    rel = ShardedColumnarRelation("R", 1, shard_count=4)
    rel.add_all([(i,) for i in range(100)])
    stamps = rel.shard_stamps()
    rel.add((1000,))
    drifted = [
        i
        for i, (before, shard) in enumerate(zip(stamps, rel.shards))
        if shard.mutation_stamp != before
    ]
    assert len(drifted) == 1  # the op touched exactly one shard
    inserted, deleted = rel.shard_delta_since(drifted[0], stamps[drifted[0]])
    assert len(inserted) == 1 and len(deleted) == 0
    for i in range(4):
        if i != drifted[0]:
            ins, dele = rel.shard_delta_since(i, stamps[i])
            assert not len(ins) and not len(dele)


# ----------------------------------------------------------------------
# sessions: updates route to the owning shard, answers stay live
# ----------------------------------------------------------------------
@given(queries_with_databases(max_atoms=3), ops_streams)
@settings(max_examples=10)
def test_session_update_stream_parity(query_db, ops):
    query, db = query_db
    if query.is_boolean() or not query.atoms:
        return
    arity = query.atoms[0].arity
    target = query.atoms[0].relation
    session_sh = connect(db.to_backend("sharded"))
    prepared = session_sh.prepare(query)
    answers = prepared.run()
    for is_add, row in ops:
        row = row[:arity] if len(row) >= arity else row + (0,) * (
            arity - len(row)
        )
        if is_add:
            session_sh.add(target, row)
        else:
            session_sh.discard(target, row)
        assert len(answers) == query.count_brute_force(session_sh.db)
    expected = brute.page_order(prepared)
    assert sorted(answers) == sorted(expected)
    n = len(expected)
    assert answers[0:n] == expected


def test_prepared_plan_cache():
    session = connect({"R": [(1, 2)], "S": [(2, 3)]})
    text = "q(x, y) :- R(x, z), S(z, y)"
    first = session.prepare(text)
    assert session.prepare(text) is first  # cache hit
    assert session.prepare(text, order=("y", "x")) is not first
    # A schema change (new relation created at prepare) evicts.
    session.prepare("p(a) :- T(a)")
    refreshed = session.prepare(text)
    assert refreshed is not first
    assert refreshed.count() == first.count()
    # Another backend is another session over a converted database.
    sharded = connect(session.db.to_backend("sharded"))
    forced = sharded.prepare(text)
    assert forced is not refreshed
    assert forced.plan.backend == "sharded"
    assert sharded.prepare(text) is forced


def test_sharded_session_serves_all_capabilities():
    rows = {"R1": [(i % 23, i % 7) for i in range(300)],
            "R2": [(i % 19, i % 7) for i in range(300)]}
    session = connect(rows, backend="sharded")
    prepared = session.prepare("q(z, x1, x2) :- R1(x1, z), R2(x2, z)")
    answers, expected = prepared.run(), brute.page_order(prepared)
    assert len(answers) == len(expected)
    assert answers[: len(expected)] == expected[: len(expected)]
    assert sorted(answers) == sorted(expected)
    assert answers.aggregate(COUNTING) == len(expected)
    assert "shards:" in prepared.explain()
