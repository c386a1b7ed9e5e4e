"""Parallel shard execution: the ShardExecutor layer must be invisible.

The contract of :mod:`repro.db.executor` is *bit-identical* results:
dispatching per-shard work over a thread pool changes wall-clock time
and nothing else, because every fan-out collects its per-shard results
in shard-index order before merging.  This suite pins that contract —
executor mechanics (ordering, nesting, worker resolution), full query
parity serial vs. threaded across shard counts, the out-of-core spill
pool (answers survive eviction and reload), and the thread-safety of
the process-global instrumentation counters.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import count_answers
from repro.db import Database, ShardedColumnarRelation
from repro.db.columnar import (
    Dictionary,
    decoded_row_count,
    reset_decoded_row_count,
)
from repro.db.executor import (
    SERIAL,
    ParallelExecutor,
    SerialExecutor,
    WORKERS_ENV,
    executor_for,
    get_default_executor,
    resolve_workers,
    set_default_executor,
)
from repro.db.sharded import (
    coalesced_row_peak,
    note_coalesce,
    reset_coalesced_row_peak,
)
from repro.db.spill import SpillPool
from repro.engine import connect
from repro.hypergraph.gyo import is_acyclic
from repro.joins import generic_join
from repro.semiring.faq import aggregate_acyclic
from repro.semiring.semirings import COUNTING, MIN_PLUS
from repro.util import faultpoints

from tests import brute
from tests.strategies import queries_with_databases

WORKER_COUNTS = (1, 3, 7)  # serial, moderate, more workers than shards
SHARD_COUNTS = (1, 3)


# ----------------------------------------------------------------------
# executor mechanics
# ----------------------------------------------------------------------
def test_resolve_workers_precedence(monkeypatch):
    assert resolve_workers(5) == 5
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2  # explicit beats the environment
    monkeypatch.delenv(WORKERS_ENV)
    assert resolve_workers() == (os.cpu_count() or 1)
    # A malformed override falls back to the cpu count rather than
    # refusing to build a database.
    monkeypatch.setenv(WORKERS_ENV, "not-a-number")
    assert resolve_workers() == (os.cpu_count() or 1)
    assert resolve_workers(0) == 1  # floor at serial


def test_executor_for_degenerates_to_serial():
    assert executor_for(1) is SERIAL
    assert executor_for(0) is SERIAL
    four = executor_for(4)
    assert isinstance(four, ParallelExecutor) and four.workers == 4
    assert executor_for(4) is four  # shared pool per worker count
    assert not SERIAL.parallel and four.parallel


def test_parallel_map_preserves_item_order():
    executor = ParallelExecutor(3)
    items = list(range(50))
    assert executor.map(lambda i: i * i, items) == [i * i for i in items]
    assert executor.map(lambda i: i, []) == []


def test_nested_parallel_map_runs_inline():
    # A shard task that itself fans out (e.g. a frame operation inside
    # an aggregate) must not deadlock on the shared pool: nested maps
    # detect the worker thread and run serially inside it.
    executor = ParallelExecutor(2)

    def outer(i):
        return sum(executor.map(lambda j: i + j, range(5)))

    assert executor.map(outer, range(8)) == [5 * i + 10 for i in range(8)]


def test_default_executor_roundtrip():
    original = get_default_executor()
    try:
        set_default_executor(3)
        assert get_default_executor().workers == 3
        set_default_executor(None)  # back to env/cpu resolution
        assert get_default_executor().workers == resolve_workers()
        set_default_executor(SERIAL)
        assert isinstance(get_default_executor(), SerialExecutor)
    finally:
        set_default_executor(original)


# ----------------------------------------------------------------------
# query parity: threaded == serial, bit for bit
# ----------------------------------------------------------------------
@given(queries_with_databases())
@settings(max_examples=10, deadline=None)
def test_parallel_query_parity(query_db):
    query, db = query_db
    join_query = query.as_join_query()
    expected_count = count_answers(query, db)
    expected_join = set(generic_join(join_query, db))
    acyclic = is_acyclic(join_query.hypergraph())
    for shard_count in SHARD_COUNTS:
        serial_db = db.to_backend("sharded", shard_count=shard_count)
        baseline = {
            semiring: aggregate_acyclic(join_query, serial_db, semiring)
            for semiring in (COUNTING, MIN_PLUS)
        } if acyclic else {}
        for workers in WORKER_COUNTS:
            sharded = db.to_backend("sharded", shard_count=shard_count)
            sharded.configure_shard_runtime(workers=workers)
            assert count_answers(query, sharded) == expected_count
            assert set(generic_join(join_query, sharded)) == expected_join
            for semiring, expected in baseline.items():
                assert (
                    aggregate_acyclic(join_query, sharded, semiring)
                    == expected
                )


ops_streams = st.lists(
    st.tuples(
        st.booleans(),
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
    ),
    max_size=30,
)


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=25),
    ops_streams,
    st.sampled_from(SHARD_COUNTS),
    st.sampled_from(WORKER_COUNTS),
)
@settings(deadline=None)
def test_parallel_delta_since_parity(seed_rows, ops, shard_count, workers):
    from repro.db.interface import TruncatedHistoryError

    parallel = ShardedColumnarRelation(
        "R", 2, seed_rows, shard_count=shard_count,
        executor=executor_for(workers),
    )
    serial = ShardedColumnarRelation(
        "R", 2, seed_rows, shard_count=shard_count
    )
    stamp_par, stamp_ser = parallel.mutation_stamp, serial.mutation_stamp
    for is_add, row in ops:
        (parallel.add if is_add else parallel.discard)(row)
        (serial.add if is_add else serial.discard)(row)
    assert parallel.rows() == serial.rows()
    try:
        expected = serial.delta_since(stamp_ser)
    except TruncatedHistoryError:
        with pytest.raises(TruncatedHistoryError):
            parallel.delta_since(stamp_par)
        return
    inserted, deleted = parallel.delta_since(stamp_par)
    assert np.array_equal(inserted, expected[0])
    assert np.array_equal(deleted, expected[1])


def test_empty_shards_under_parallel_executor():
    # All rows share the key value: one hot shard, three empty ones.
    rows = [(7, i) for i in range(50)]
    rel = ShardedColumnarRelation(
        "R", 2, rows, shard_count=4, executor=executor_for(4)
    )
    assert sorted(rel.shard_sizes()) == [0, 0, 0, 50]
    assert rel.rows() == frozenset(rows)
    assert rel.project([1, 0]).rows() == frozenset(
        (b, a) for a, b in rows
    )


@given(queries_with_databases(max_atoms=3), ops_streams)
@settings(max_examples=8, deadline=None)
def test_parallel_session_update_stream_parity(query_db, ops):
    query, db = query_db
    if query.is_boolean() or not query.atoms:
        return
    arity = query.atoms[0].arity
    target = query.atoms[0].relation
    threaded = connect(db.to_backend("sharded"), workers=3)
    prepared = threaded.prepare(query)
    answers = prepared.run()
    for is_add, row in ops:
        row = row[:arity] + (0,) * (arity - len(row))
        if is_add:
            threaded.add(target, row)
        else:
            threaded.discard(target, row)
        assert len(answers) == query.count_brute_force(threaded.db)
    assert sorted(answers) == sorted(query.evaluate_brute_force(threaded.db))


# ----------------------------------------------------------------------
# spillable shards: out-of-core code matrices
# ----------------------------------------------------------------------
def test_spilled_database_answers_the_full_query_suite(tmp_path):
    rows_r = [(i % 97, i % 13) for i in range(3000)]
    rows_s = [(i % 13, i % 41) for i in range(3000)]
    plain = Database.from_dict(
        {"R": rows_r, "S": rows_s}, backend="sharded", shard_count=4
    )
    spilled = Database.from_dict(
        {"R": rows_r, "S": rows_s},
        backend="sharded",
        shard_count=4,
        spill_dir=str(tmp_path),
        max_resident_shards=1,
    )
    # The budget is genuinely binding: most shards live on disk.
    assert spilled.spill.spilled_shards() >= 4
    assert spilled.spill.resident_shards() <= 1
    assert any(
        isinstance(shard._main, np.memmap)
        for rel in spilled
        for shard in rel.shards
    )
    from repro.query.parser import parse_query

    query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
    assert count_answers(query, spilled) == count_answers(query, plain)
    for semiring in (COUNTING, MIN_PLUS):
        assert aggregate_acyclic(
            query, spilled, semiring
        ) == aggregate_acyclic(query, plain, semiring)
    join_query = query.as_join_query()
    assert set(generic_join(join_query, spilled)) == set(
        generic_join(join_query, plain)
    )
    # Reads fault shards back in and evict others; the budget holds.
    assert spilled.spill.resident_shards() <= 1


def test_spilled_shards_accept_mutations(tmp_path):
    rel = ShardedColumnarRelation(
        "R", 2, [(i, i % 5) for i in range(500)], shard_count=4
    )
    pool = SpillPool(str(tmp_path), max_resident=1)
    rel.attach_spill(pool)
    oracle = set(rel.rows())
    assert pool.spilled_shards() >= 3
    for i in range(500, 600):
        rel.add((i, i % 5))
        oracle.add((i, i % 5))
    rel.discard((0, 0))
    oracle.discard((0, 0))
    rel.compact()
    assert rel.rows() == frozenset(oracle)
    assert pool.resident_shards() <= 1
    assert pool.spilled_bytes() > 0


def test_spill_files_survive_re_demote_without_rewrite(tmp_path):
    rel = ShardedColumnarRelation(
        "R", 2, [(i, i) for i in range(400)], shard_count=4
    )
    pool = SpillPool(str(tmp_path), max_resident=1)
    rel.attach_spill(pool)
    before = sorted(pool.spill_files())
    rel.rows()  # touch every shard: promote/demote churn
    rel.rows()
    after = sorted(pool.spill_files())
    # Clean shards re-demote by dropping the array, not re-saving it:
    # the same version-stamped files remain on disk.
    assert before and after
    assert set(after) >= set(before) or len(after) == len(before)
    assert rel.rows() == frozenset((i, i) for i in range(400))


def test_session_spill_knobs(tmp_path):
    # A spilled sharded session runs the whole scripted read/update
    # sequence like the brute-force oracle (over a plain copy of the
    # rows, so it never touches the spilled shards), inside the
    # residency budget.
    rows = {
        "R": [(i % 50, i % 13) for i in range(2000)],
        "S": [(i % 13, i % 41) for i in range(2000)],
    }
    session = connect(
        rows,
        backend="sharded",
        spill_dir=str(tmp_path),
        max_resident_shards=1,
    )
    truth = {name: set(data) for name, data in rows.items()}
    pool = session.db.spill
    assert pool is not None and pool.spilled_shards() >= 4
    query = "q(x, y, z) :- R(x, y), S(y, z)"
    prepared = session.prepare(query)
    answers = prepared.run()

    def check():
        plain = Database.from_dict(truth)
        expected = brute.ordered(query, plain, prepared.plan.order)
        assert pool.resident_shards() <= 1
        assert len(answers) == len(expected)
        assert pool.resident_shards() <= 1
        assert answers.page(0, 50) == expected[:50]
        assert pool.resident_shards() <= 1
        assert answers.aggregate(MIN_PLUS) == brute.fold(query, plain, MIN_PLUS)
        assert pool.resident_shards() <= 1
        return expected

    check()
    updates = (
        ("add", ("R", (999, 5))),
        ("discard", ("R", (0, 0))),
        ("add_all", ("S", [(5, 1000 + i) for i in range(300)])),
    )
    for op, (name, payload) in updates:
        getattr(session, op)(name, payload)
        if op == "add":
            truth[name].add(payload)
        elif op == "discard":
            truth[name].discard(payload)
        else:
            truth[name].update(payload)
        expected = check()
    assert sorted(answers) == sorted(expected)
    assert pool.resident_shards() <= 1


# ----------------------------------------------------------------------
# thread-safety of the process-global counters
# ----------------------------------------------------------------------
def _hammer(fn, threads=8, repeats=200):
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait()
        for _ in range(repeats):
            fn()

    pool = [threading.Thread(target=run) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


def test_decoded_row_count_is_thread_safe():
    dictionary = Dictionary()
    codes = np.asarray(
        [[dictionary.encode(i)] for i in range(10)], dtype=np.int64
    )
    reset_decoded_row_count()
    _hammer(lambda: dictionary.decode_rows(codes))
    assert decoded_row_count() == 8 * 200 * 10


def test_coalesced_row_peak_is_thread_safe():
    reset_coalesced_row_peak()
    counter = iter(range(1, 8 * 200 + 1))
    lock = threading.Lock()

    def bump():
        with lock:
            value = next(counter)
        note_coalesce(value)

    _hammer(bump)
    assert coalesced_row_peak() == 8 * 200
    reset_coalesced_row_peak()
    assert coalesced_row_peak() == 0


def test_faultpoint_countdown_is_thread_safe():
    faultpoints.declare("test.parallel.crash", module="tests")
    total = 8 * 200
    faultpoints.reset()
    faultpoints.arm("test.parallel.crash", at=total)
    fired = []
    record = fired.append
    _hammer(
        lambda: record(1)
        if faultpoints.fires("test.parallel.crash")
        else None
    )
    # Exactly one visit saw the countdown expire, no double-fire, and
    # the hit counter agrees.
    assert sum(fired) == 1
    assert faultpoints.hits("test.parallel.crash") == 1
    assert not faultpoints.fires("test.parallel.crash")
    faultpoints.reset()


# ----------------------------------------------------------------------
# planner surface
# ----------------------------------------------------------------------
def test_explain_reports_shards_as_storage_layout():
    rows = {"R": [(i % 23, i % 7) for i in range(300)],
            "S": [(i % 7, i % 5) for i in range(300)]}
    query = "q(x, y, z) :- R(x, y), S(y, z)"
    for workers in (1, 4):
        sharded = connect(
            rows, backend="sharded", shard_count=4, workers=workers
        )
        text = sharded.prepare(query).explain()
        assert (
            "  shards:   4 (storage layout: hash-partitioned on the key"
            " column; queries read the coalesced code matrix)"
        ) in text
        assert "executor:" not in text and "joins:" not in text
    text = connect(rows, backend="columnar").prepare(query).explain()
    assert "shards:" not in text and "executor:" not in text
