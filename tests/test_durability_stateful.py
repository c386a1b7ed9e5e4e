"""Stateful durability fuzzing: crashes anywhere, parity everywhere.

A hypothesis :class:`RuleBasedStateMachine` drives one durable
database per run through arbitrary interleavings of single-tuple
updates, bulk loads, removing ``retain``\\ s, compactions,
checkpoints, clean reopens, and **injected crashes at any declared
fault point**, checking after every step that the durable content is
bit-identical to a plain python-dict oracle.

The crash rule is the heart: it arms a fault point, attempts one
mutation (or checkpoint), and — whether or not the crash fired —
recovers and requires the surviving content to be *either* the
pre-op or the post-op oracle (``sync="always"``: an acked mutation
is durable, an interrupted one vanishes atomically).  The oracle
then adopts whichever state survived, and the interleaving continues
on the recovered database — so recovery is exercised not just as an
endpoint but as a *resumable* state.

One machine per backend proves the guarantee is backend-independent.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.db import attach
from repro.db import checkpoint as _checkpoint  # registers ckpt.* points
from repro.util import faultpoints
from repro.util.faultpoints import InjectedCrash, known_fault_points

assert _checkpoint.CRASH_POINTS  # the import above is load-bearing

RELATIONS = ("R", "S")
values = st.integers(min_value=0, max_value=6)
rows = st.tuples(values, values)
relations = st.sampled_from(RELATIONS)


def durable_state(db):
    return {rel.name: set(map(tuple, rel)) for rel in db}


def net(state):
    return {name: rows for name, rows in state.items() if rows}


class DurabilityMachine(RuleBasedStateMachine):
    backend = "columnar"

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-durability-")
        self.db = None
        self.oracle = {}

    @initialize()
    def open_fresh(self):
        faultpoints.reset()
        self.db = attach(self.root, backend=self.backend, sync="always")

    # -- plain mutations (mirrored into the oracle) --------------------
    def _rel(self, name):
        self.oracle.setdefault(name, set())
        return self.db.ensure_relation(name, 2)

    @rule(name=relations, row=rows)
    def add(self, name, row):
        self._rel(name).add(row)
        self.oracle[name].add(row)

    @rule(name=relations, row=rows)
    def discard(self, name, row):
        self._rel(name).discard(row)
        self.oracle[name].discard(row)

    @rule(name=relations, batch=st.lists(rows, max_size=8))
    def bulk_add(self, name, batch):
        self._rel(name).add_all(batch)
        self.oracle[name].update(batch)

    @rule(name=relations, modulus=st.integers(min_value=2, max_value=4))
    def retain(self, name, modulus):
        self._rel(name).retain(lambda t: t[0] % modulus == 0)
        self.oracle[name] = {
            t for t in self.oracle[name] if t[0] % modulus == 0
        }

    @rule(name=relations)
    def compact(self, name):
        getattr(self._rel(name), "compact", lambda: 0)()

    # -- durability events ---------------------------------------------
    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    @rule(name=relations, batch=st.lists(rows, min_size=1, max_size=6))
    def checkpoint_with_pending_deltas(self, name, batch):
        """Checkpoint while un-compacted op-log deltas exist: the
        snapshot stores the merged view plus exact per-relation
        stamps, so reopening recovers content *and* ``mutation_stamp``
        sequences bit-identically without compaction ever running."""
        rel = self._rel(name)
        rel.add_all(batch)  # a fresh, un-folded delta segment
        self.oracle[name].update(batch)
        self.db.checkpoint()
        stamps = {r.name: r.mutation_stamp for r in self.db}
        self.db.close()
        self.db = attach(self.root)
        assert {r.name: r.mutation_stamp for r in self.db} == stamps
        assert net(durable_state(self.db)) == net(self.oracle)

    @rule()
    def clean_reopen(self):
        stamps = {r.name: r.mutation_stamp for r in self.db}
        self.db.close()
        self.db = attach(self.root)
        # a clean close/attach is exact: content *and* stamps
        assert {r.name: r.mutation_stamp for r in self.db} == stamps

    @rule(
        point=st.sampled_from(sorted(known_fault_points())),
        name=relations,
        row=rows,
        do_checkpoint=st.booleans(),
    )
    def crash_and_recover(self, point, name, row, do_checkpoint):
        before = {k: set(v) for k, v in self.oracle.items()}
        after = {k: set(v) for k, v in before.items()}
        if not do_checkpoint:
            # the post-op candidate is decided *before* the attempt: a
            # crash after the record is fully framed (e.g. at
            # wal.append.written) legitimately recovers the op applied
            after.setdefault(name, set()).add(row)
        faultpoints.arm(point, at=1)
        try:
            if do_checkpoint:
                self.db.checkpoint()  # content-preserving: after == before
            else:
                self._rel(name).add(row)
        except InjectedCrash:
            pass
        finally:
            faultpoints.reset()
            try:
                self.db.close()
            except InjectedCrash:  # pragma: no cover
                pass
        self.db = attach(self.root)
        recovered = durable_state(self.db)
        assert net(recovered) in (net(before), net(after)), (
            f"crash at {point} recovered neither the pre- nor the "
            f"post-op state"
        )
        self.oracle = {k: set(v) for k, v in recovered.items()}

    # -- the parity invariant ------------------------------------------
    @invariant()
    def durable_matches_oracle(self):
        if self.db is None:
            return
        assert net(durable_state(self.db)) == net(self.oracle)

    def teardown(self):
        faultpoints.reset()
        if self.db is not None:
            try:
                self.db.close()
            except InjectedCrash:  # pragma: no cover
                pass
        shutil.rmtree(self.root, ignore_errors=True)


class ColumnarDurabilityMachine(DurabilityMachine):
    backend = "columnar"


class ShardedDurabilityMachine(DurabilityMachine):
    backend = "sharded"


_stateful = settings(
    max_examples=10, stateful_step_count=20, deadline=None
)

TestColumnarDurability = ColumnarDurabilityMachine.TestCase
TestColumnarDurability.settings = _stateful
TestShardedDurability = ShardedDurabilityMachine.TestCase
TestShardedDurability.settings = _stateful
