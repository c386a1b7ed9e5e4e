"""Delta segments, mutation stamps and exact delta history.

The columnar store's mutation core (PR 3) replaced the buffered-ops-
then-full-rewrite flush with delta code arrays: a compacted main
segment plus an op log merged on read.  These tests pin down the new
contract (:mod:`repro.db.interface`):

- ``mutation_stamp`` is monotone on both storage layouts;
- ``delta_since`` is *exact* — logically-absorbed ops cancel — and
  raises the typed :class:`~repro.db.interface.TruncatedHistoryError`
  only past a history barrier (compaction, bulk ``add_all``, removing
  ``retain``), carrying both stamps;
- ``retain`` interleaved with buffered ops acts on the merged view;
- and a hypothesis state machine drives arbitrary interleavings of
  ``add``/``add_all``/``discard``/``retain`` against a Python set as
  oracle, replaying every answerable delta against a
  recorded snapshot.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.db.columnar import (
    DELTA_COMPACT_MIN,
    ColumnarRelation,
)
from repro.db.interface import StaleStructureError, TruncatedHistoryError
from repro.db.sharded import ShardedColumnarRelation


def decode_rows(relation, codes):
    decode = relation.dictionary.decode
    return {tuple(decode(int(c)) for c in row) for row in codes.tolist()}


# ----------------------------------------------------------------------
# mutation stamps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [ShardedColumnarRelation, ColumnarRelation])
def test_mutation_stamp_monotone(cls):
    rel = cls("R", 2)
    seen = [rel.mutation_stamp]
    rel.add((1, 2))
    seen.append(rel.mutation_stamp)
    rel.add_all([(3, 4), (5, 6)])
    seen.append(rel.mutation_stamp)
    rel.discard((3, 4))
    seen.append(rel.mutation_stamp)
    rel.retain(lambda t: t[0] != 5)
    seen.append(rel.mutation_stamp)
    assert seen == sorted(seen)
    assert seen[-1] > seen[0]


def test_columnar_noop_retain_keeps_stamp_and_history():
    rel = ColumnarRelation("R", 1, [(i,) for i in range(5)])
    stamp = rel.mutation_stamp
    rel.add((9,))
    after_add = rel.mutation_stamp
    assert after_add > stamp
    assert rel.retain(lambda t: True) == 0
    assert rel.mutation_stamp == after_add
    inserted, deleted = rel.delta_since(stamp)
    assert decode_rows(rel, inserted) == {(9,)}
    assert not len(deleted)


# ----------------------------------------------------------------------
# exact delta history
# ----------------------------------------------------------------------
def test_delta_since_is_net():
    rel = ColumnarRelation("R", 2, [(i, i + 1) for i in range(10)])
    stamp = rel.mutation_stamp
    rel.add((0, 1))  # no-op: already present
    rel.add((50, 51))
    rel.discard((1, 2))
    rel.add((60, 61))
    rel.discard((60, 61))  # cancelling pair
    rel.discard((2, 3))
    rel.add((2, 3))  # delete/re-add cancels too
    inserted, deleted = rel.delta_since(stamp)
    assert decode_rows(rel, inserted) == {(50, 51)}
    assert decode_rows(rel, deleted) == {(1, 2)}


def test_delta_since_trivial_and_out_of_range():
    rel = ColumnarRelation("R", 1, [(1,)])
    now = rel.mutation_stamp
    inserted, deleted = rel.delta_since(now)
    assert not len(inserted) and not len(deleted)
    with pytest.raises(TruncatedHistoryError):
        rel.delta_since(now + 1)


def test_truncated_history_error_is_typed_and_carries_stamps():
    rel = ColumnarRelation("R", 1, [(i,) for i in range(10)])
    stamp = rel.mutation_stamp
    rel.add_all([(100 + i,) for i in range(DELTA_COMPACT_MIN + 1)])  # barrier
    with pytest.raises(TruncatedHistoryError) as excinfo:
        rel.delta_since(stamp)
    err = excinfo.value
    assert isinstance(err, StaleStructureError)  # old handlers still catch
    assert err.relation == "R"
    assert err.requested_stamp == stamp
    assert err.barrier_stamp == rel.mutation_stamp
    assert str(stamp) in str(err) and str(err.barrier_stamp) in str(err)


def test_compaction_truncates_history_but_not_content():
    rel = ColumnarRelation("R", 1, [(i,) for i in range(100)])
    stamp = rel.mutation_stamp
    for i in range(DELTA_COMPACT_MIN + 5):
        rel.add((1000 + i,))
    with pytest.raises(TruncatedHistoryError):
        rel.delta_since(stamp)  # compacted past the threshold
    assert rel.delta_size <= DELTA_COMPACT_MIN + 5
    assert len(rel) == 100 + DELTA_COMPACT_MIN + 5
    # a fresh stamp is answerable again
    fresh = rel.mutation_stamp
    rel.discard((0,))
    inserted, deleted = rel.delta_since(fresh)
    assert not len(inserted)
    assert decode_rows(rel, deleted) == {(0,)}


def test_explicit_compact_is_content_neutral():
    rel = ColumnarRelation("R", 1, [(1,), (2,)])
    rel.add((3,))
    rel.discard((1,))
    stamp = rel.mutation_stamp
    before = rel.rows()
    rel.compact()
    assert rel.mutation_stamp == stamp  # content unchanged
    assert rel.rows() == before
    assert rel.delta_size == 0


def test_bulk_add_all_is_a_barrier_small_is_not():
    rel = ColumnarRelation("R", 1, [(i,) for i in range(10)])
    stamp = rel.mutation_stamp
    rel.add_all([(100,), (101,)])  # small batch: history preserved
    inserted, _ = rel.delta_since(stamp)
    assert decode_rows(rel, inserted) == {(100,), (101,)}
    rel.add_all([(200 + i,) for i in range(DELTA_COMPACT_MIN + 1)])
    with pytest.raises(TruncatedHistoryError):
        rel.delta_since(stamp)  # bulk rewrite


def test_retain_applies_to_merged_view_and_is_a_barrier():
    rel = ColumnarRelation("R", 1, [(i,) for i in range(6)])
    rel.add((10,))  # pending insert
    rel.discard((0,))  # pending delete
    stamp = rel.mutation_stamp
    removed = rel.retain(lambda t: t[0] % 2 == 0)
    # merged view was {1..5, 10}: odd members 1, 3, 5 are removed.
    assert removed == 3
    assert rel.rows() == {(2,), (4,), (10,)}
    with pytest.raises(TruncatedHistoryError):
        rel.delta_since(stamp)  # history barrier
    # equal stamps still mean "no change"
    inserted, deleted = rel.delta_since(rel.mutation_stamp)
    assert not len(inserted) and not len(deleted)


def test_arity_zero_delta():
    rel = ColumnarRelation("R", 0)
    stamp = rel.mutation_stamp
    rel.add(())
    inserted, deleted = rel.delta_since(stamp)
    assert inserted.shape == (1, 0) and deleted.shape == (0, 0)
    assert len(rel) == 1
    rel.discard(())
    assert len(rel) == 0
    inserted, deleted = rel.delta_since(stamp)
    assert not len(inserted) and not len(deleted)


def test_has_coded_tracks_pending_ops():
    rel = ColumnarRelation("R", 2, [(1, 2)])
    code = rel.dictionary.encode_existing
    assert rel.has_coded((code(1), code(2)))
    rel.discard((1, 2))
    assert not rel.has_coded((code(1), code(2)))
    rel.add((1, 2))
    assert rel.has_coded((code(1), code(2)))


# ----------------------------------------------------------------------
# stateful interleavings vs the Python oracle
# ----------------------------------------------------------------------
rows_st = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)


class DeltaSegmentMachine(RuleBasedStateMachine):
    """Arbitrary add/add_all/discard/retain interleavings.

    A Python set is the oracle for content; recorded
    ``(stamp, rows)`` snapshots are the oracle for ``delta_since``:
    whenever history is still answerable, replaying the net delta on
    the snapshot must reproduce the current rows, the insertions must
    be genuinely new and the deletions genuinely gone.
    """

    def __init__(self):
        super().__init__()
        self.col = ColumnarRelation("R", 2)
        self.py = set()
        self.snapshots = []

    @initialize(rows=st.lists(rows_st, max_size=30))
    def seed(self, rows):
        self.col.add_all(rows)
        self.py.update(rows)
        self.snapshot()

    @rule(row=rows_st)
    def add(self, row):
        self.col.add(row)
        self.py.add(row)

    @rule(rows=st.lists(rows_st, max_size=8))
    def add_all(self, rows):
        self.col.add_all(rows)
        self.py.update(rows)

    @rule(row=rows_st)
    def discard(self, row):
        self.col.discard(row)
        self.py.discard(row)

    @rule(modulus=st.integers(min_value=2, max_value=5),
          remainder=st.integers(min_value=0, max_value=4))
    def retain(self, modulus, remainder):
        predicate = lambda t: (t[0] + t[1]) % modulus != remainder  # noqa: E731
        kept = {t for t in self.py if predicate(t)}
        assert self.col.retain(predicate) == len(self.py) - len(kept)
        self.py = kept

    @rule()
    def compact(self):
        self.col.compact()

    @rule()
    def snapshot(self):
        self.snapshots.append(
            (self.col.mutation_stamp, self.col.rows())
        )
        self.snapshots = self.snapshots[-4:]

    @invariant()
    def content_matches_oracle(self):
        assert self.col.rows() == self.py
        assert len(self.col) == len(self.py)

    @invariant()
    def stamps_monotone(self):
        assert self.col.mutation_stamp >= (
            self.snapshots[-1][0] if self.snapshots else 0
        )

    @invariant()
    def deltas_replay_exactly(self):
        current = self.col.rows()
        for stamp, rows in self.snapshots:
            try:
                delta = self.col.delta_since(stamp)
            except TruncatedHistoryError:
                continue  # history barrier passed; rebuild regime
            inserted = decode_rows(self.col, delta[0])
            deleted = decode_rows(self.col, delta[1])
            assert inserted.isdisjoint(rows)
            assert deleted <= rows
            assert (rows - deleted) | inserted == current


TestDeltaSegmentMachine = DeltaSegmentMachine.TestCase
TestDeltaSegmentMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
