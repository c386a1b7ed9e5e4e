"""Stale-answer-structure regressions and post-update parity.

Before PR 3, :class:`LexDirectAccess`, :class:`ConstantDelayEnumerator`
and cached FAQ messages snapshotted the relations at preprocessing time
and kept serving the snapshot after ``add``/``discard`` — silently
wrong answers, no error.  These tests pin the fix from both sides:

- build → mutate → query now fails fast with
  :class:`StaleStructureError` on *both* backends (these tests fail on
  the pre-PR code, which raised nothing);
- with ``on_stale="refresh"`` / the maintainers, post-update answers
  are byte-identical to a from-scratch rebuild, across random update
  streams including delete-everything and re-insert phases.
"""

import importlib
import itertools
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.counting import count_answers
from repro.db.columnar import decoded_row_count, reset_decoded_row_count
from repro.db.database import Database
from repro.db.interface import StaleStructureError, stale_relations
from repro.direct_access.lex import LexDirectAccess
from repro.dynamic import AcyclicCountMaintainer
from repro.engine import Session
from repro.enumeration.constant_delay import ConstantDelayEnumerator
from repro.hypergraph.freeconnex import is_free_connex
from repro.query import catalog
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.semiring.faq import (
    AggregateMaintainer,
    WeightedDatabase,
    aggregate_acyclic,
    aggregate_units,
)
from repro.semiring.semirings import (
    BOOLEAN,
    COUNTING,
    MAX_PLUS,
    MIN_PLUS,
    Semiring,
)
from tests import brute, strategies
from tests.test_engine import FAMILY_QUERIES

BACKENDS = ("columnar", "sharded")

STAR = catalog.star_query_full(2, self_join_free=True)
STAR_ORDER = ("z", "x1", "x2")
CHAIN = catalog.path_query(3, boolean=False)


def star_db(backend, m=60, domain=8, seed=0):
    rng = random.Random(seed)
    return Database.from_dict(
        {
            name: [
                (rng.randrange(domain * 2), rng.randrange(domain))
                for _ in range(m)
            ]
            for name in ("R1", "R2")
        },
        backend=backend,
    )


def chain_db(backend, m=60, domain=10, seed=0):
    rng = random.Random(seed)
    return Database.from_dict(
        {
            f"R{i}": [
                (rng.randrange(domain), rng.randrange(domain))
                for _ in range(m)
            ]
            for i in (1, 2, 3)
        },
        backend=backend,
    )


# ----------------------------------------------------------------------
# stale reads fail fast (regression: used to silently serve snapshots)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_lex_access_stale_after_add(backend):
    db = star_db(backend)
    access = LexDirectAccess(STAR, db, STAR_ORDER)
    access.access(0)
    db["R1"].add((999, 0))
    with pytest.raises(StaleStructureError):
        access.access(0)
    with pytest.raises(StaleStructureError):
        len(access)


@pytest.mark.parametrize("backend", BACKENDS)
def test_lex_access_stale_after_discard(backend):
    db = star_db(backend)
    access = LexDirectAccess(STAR, db, STAR_ORDER)
    first = access.access(0)
    db["R1"].discard(next(iter(db["R1"])))
    with pytest.raises(StaleStructureError):
        access.access(0)
    # a rebuilt structure answers (first may or may not still be first)
    assert LexDirectAccess(STAR, db, STAR_ORDER).access(0) is not None
    del first


@pytest.mark.parametrize("backend", BACKENDS)
def test_enumeration_stale_after_mutation(backend):
    db = chain_db(backend)
    enumerator = ConstantDelayEnumerator(CHAIN, db)
    list(enumerator)
    db["R2"].add((77, 78))
    with pytest.raises(StaleStructureError):
        list(enumerator)


def test_materialized_fallback_is_also_stale_checked():
    # star_query (z projected, self-joins) is not free-connex: the
    # strict=False materializing fallback must still detect staleness.
    query = catalog.star_query_sjf(2)
    db = star_db("columnar")
    enumerator = ConstantDelayEnumerator(query, db, strict=False)
    list(enumerator)
    db["R1"].add((55, 3))
    with pytest.raises(StaleStructureError):
        list(enumerator)


# ----------------------------------------------------------------------
# lingering weights (regression: discard left the weight behind)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_discarded_weight_is_purged_not_resurrected(backend):
    db = Database.from_dict(
        {"R1": [(1, 2)], "R2": [(1, 2)]}, backend=backend
    )
    weighted = WeightedDatabase(db)
    weighted.set_weight("R1", (1, 2), 7)
    weighted.discard("R1", (1, 2))
    db["R1"].add((1, 2))  # re-add the same tuple
    # The old weight must not resurrect: unweighted tuples are neutral.
    assert weighted.weight("R1", (1, 2), COUNTING) == COUNTING.one
    assert (1, 2) not in weighted._weights.get("R1", {})
    assert weighted.coded_weights("R1") == {}
    weights = weighted.atom_weight_fn(STAR, COUNTING)
    assert aggregate_acyclic(STAR, db, COUNTING, weights) == count_answers(
        STAR, db
    )


def test_weighted_database_stamp_moves_on_weight_changes():
    db = Database.from_dict({"R1": [(1, 2)], "R2": [(3, 2)]},
                            backend="columnar")
    weighted = WeightedDatabase(db)
    stamp = weighted.mutation_stamp
    weighted.set_weight("R1", (1, 2), 4)
    assert weighted.mutation_stamp > stamp
    stamp = weighted.mutation_stamp
    weighted.discard("R1", (1, 2))
    assert weighted.mutation_stamp > stamp


# ----------------------------------------------------------------------
# incremental maintainers track a from-scratch oracle
# ----------------------------------------------------------------------
def random_stream(rng, names, domain, steps):
    for _ in range(steps):
        name = rng.choice(names)
        row = (rng.randrange(domain), rng.randrange(domain))
        yield name, row, rng.random() < 0.45


def test_count_maintainer_matches_recompute_over_stream():
    db = star_db("columnar", m=120, domain=10, seed=5)
    maintainer = AcyclicCountMaintainer(STAR, db)
    rng = random.Random(6)
    for name, row, delete in random_stream(rng, ["R1", "R2"], 22, 250):
        (db[name].discard if delete else db[name].add)(row)
        assert maintainer.count() == count_answers(STAR, db)
    assert maintainer.rebuilds <= 6  # only compaction-driven rebuilds


def test_count_maintainer_delete_everything_then_reinsert():
    db = star_db("columnar", m=25, domain=4, seed=7)
    maintainer = AcyclicCountMaintainer(STAR, db)
    for name in ("R1", "R2"):
        for row in list(db[name]):
            db[name].discard(row)
    assert maintainer.count() == 0
    db["R1"].add((1, 2))
    db["R2"].add((3, 2))
    assert maintainer.count() == 1


def test_count_maintainer_bulk_rewrite_falls_back_to_rebuild():
    db = star_db("columnar", m=30, domain=5, seed=8)
    maintainer = AcyclicCountMaintainer(STAR, db)
    maintainer.count()
    rebuilds = maintainer.rebuilds
    db["R1"].add_all([(100 + i, i % 5) for i in range(200)])  # barrier
    assert maintainer.count() == count_answers(STAR, db)
    assert maintainer.rebuilds == rebuilds + 1


def test_aggregate_maintainer_requires_join_query():
    with pytest.raises(ValueError):
        AggregateMaintainer(
            catalog.star_query_sjf(2), star_db("columnar"), COUNTING
        )


def test_weighted_inserts_stay_incremental():
    db = star_db("columnar", m=40, domain=6, seed=9)
    weighted = WeightedDatabase(db)
    maintainer = AggregateMaintainer(STAR, db, COUNTING, weights=weighted)

    def oracle():
        return aggregate_acyclic(
            STAR, db, COUNTING, weighted.atom_weight_fn(STAR, COUNTING)
        )

    assert maintainer.value() == oracle()
    # Weighted single-tuple inserts fold incrementally: the weight
    # change rides the tuple's own delta, so no rebuild is needed.
    for i in range(8):
        weighted.add("R1", (200 + i, i % 6), weight=3)
        assert maintainer.value() == oracle()
    assert maintainer.rebuilds == 0
    # A retroactive weight change on an already-synced tuple cannot
    # fold (the stored column is stale) and must rebuild instead.
    weighted.set_weight("R2", next(iter(db["R2"])), 5)
    assert maintainer.value() == oracle()
    assert maintainer.rebuilds == 1
    # Purge cancelled by a re-add: net tuple delta is empty but the
    # weight reverted to one — must rebuild, not resurrect.
    weighted.discard("R1", (200, 0))
    db["R1"].add((200, 0))
    assert maintainer.value() == oracle()


def test_tropical_maintainer_with_weights_and_delete_fallback():
    db = Database.from_dict(
        {"R1": [(1, 2), (3, 2), (4, 5)], "R2": [(6, 2), (7, 5)]},
        backend="columnar",
    )
    weighted = WeightedDatabase(db)
    weighted.set_weight("R1", (1, 2), 3.5)
    weighted.set_weight("R2", (6, 2), 1.25)
    maintainer = AggregateMaintainer(STAR, db, MIN_PLUS, weights=weighted)

    def oracle():
        return aggregate_acyclic(
            STAR, db, MIN_PLUS, weighted.atom_weight_fn(STAR, MIN_PLUS)
        )

    assert maintainer.value() == oracle()
    weighted.add("R1", (8, 5), weight=0.5)  # insert folds incrementally
    assert maintainer.value() == oracle()
    rebuilds = maintainer.rebuilds
    weighted.discard("R2", (6, 2))  # min has no ⊕-inverse: rebuild
    assert maintainer.value() == oracle()
    assert maintainer.rebuilds > rebuilds


# ----------------------------------------------------------------------
# post-update parity: answers == from-scratch rebuild == brute force
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_lex_refresh_parity_over_stream(backend):
    db = star_db(backend, m=80, domain=7, seed=11)
    access = LexDirectAccess(STAR, db, STAR_ORDER, on_stale="refresh")
    rng = random.Random(12)
    for step, (name, row, delete) in enumerate(
        random_stream(rng, ["R1", "R2"], 16, 90)
    ):
        (db[name].discard if delete else db[name].add)(row)
        if step % 9 == 0 or step > 84:
            oracle = LexDirectAccess(STAR, db, STAR_ORDER)
            assert len(access) == len(oracle)
            assert access.materialize() == oracle.materialize()
            assert oracle.materialize() == brute.ordered(STAR, db, STAR_ORDER)


@pytest.mark.parametrize("backend", BACKENDS)
def test_enumeration_refresh_parity_over_stream(backend):
    query = CHAIN
    db = chain_db(backend, m=70, domain=9, seed=13)
    enumerator = ConstantDelayEnumerator(query, db, on_stale="refresh")
    rng = random.Random(14)
    for step, (name, row, delete) in enumerate(
        random_stream(rng, ["R1", "R2", "R3"], 11, 80)
    ):
        (db[name].discard if delete else db[name].add)(row)
        if step % 8 == 0 or step > 74:
            oracle = ConstantDelayEnumerator(query, db)
            assert sorted(enumerator) == sorted(oracle)
            assert sorted(oracle) == brute.ordered(query, db)


@pytest.mark.parametrize("backend", BACKENDS)
def test_full_pipeline_parity_after_delete_all_and_reinsert(backend):
    db = star_db(backend, m=40, domain=5, seed=15)
    access = LexDirectAccess(STAR, db, STAR_ORDER, on_stale="refresh")
    enumerator = ConstantDelayEnumerator(STAR, db, on_stale="refresh")
    for name in ("R1", "R2"):
        for row in list(db[name]):
            db[name].discard(row)
    assert len(access) == 0
    assert list(enumerator) == []
    assert count_answers(STAR, db) == 0
    rows1 = [(1, 2), (3, 2), (4, 4)]
    rows2 = [(5, 2), (6, 4)]
    for row in rows1:
        db["R1"].add(row)
    for row in rows2:
        db["R2"].add(row)
    oracle_access = LexDirectAccess(STAR, db, STAR_ORDER)
    oracle_enum = ConstantDelayEnumerator(STAR, db)
    assert access.materialize() == oracle_access.materialize()
    assert sorted(enumerator) == sorted(oracle_enum)
    assert len(access) == count_answers(STAR, db) == 3


def test_lex_refresh_starting_from_empty_relations():
    db = Database(backend="columnar")
    for name in ("R1", "R2"):
        db.add_relation(db.new_relation(name, 2))
    access = LexDirectAccess(STAR, db, STAR_ORDER, on_stale="refresh")
    assert len(access) == 0
    db["R1"].add((1, 0))
    db["R2"].add((2, 0))
    assert access.materialize() == [(1, 2, 0)]
    maintainer = AcyclicCountMaintainer(STAR, db)
    db["R2"].add((3, 0))
    assert maintainer.count() == 2
    assert access.materialize() == [(1, 2, 0), (1, 3, 0)]


def test_unary_join_query_refresh_parity():
    query = catalog.ConjunctiveQuery(
        ("x",),
        (catalog.Atom("R", ("x",)), catalog.Atom("S", ("x",))),
        name="unary_intersection",
    )
    db = Database(backend="columnar")
    db.add_relation(db.new_relation("R", 1, [(i,) for i in range(6)]))
    db.add_relation(db.new_relation("S", 1, [(i,) for i in range(3, 9)]))
    access = LexDirectAccess(query, db, ("x",), on_stale="refresh")
    maintainer = AcyclicCountMaintainer(query, db)
    assert access.materialize() == [(3,), (4,), (5,)]
    db["R"].add((7,))
    db["S"].discard((4,))
    assert access.materialize() == [(3,), (5,), (7,)]
    assert maintainer.count() == 3 == count_answers(query, db)


# ----------------------------------------------------------------------
# cyclic answer sets: one join per database version, delta-join repairs
# ----------------------------------------------------------------------
# The cyclic family serves count, pages, iteration and aggregates from
# one code matrix + row list (repro.direct_access.lex.OrderedAnswers)
# and repairs it from ``delta_since`` while history lasts.  Everything
# below compares it, after every update, against the brute-force oracle
# (answers, their order, and a brute-force fold for aggregates).
TRIANGLE = "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"

STORAGES = [
    pytest.param({"backend": "columnar"}, id="columnar"),
    pytest.param({"backend": "sharded", "shard_count": 1}, id="sharded-1"),
    pytest.param({"backend": "sharded", "shard_count": 3}, id="sharded-3"),
    pytest.param(
        {"backend": "sharded", "shard_count": 3, "max_resident_shards": 1},
        id="sharded-3-spilled",
    ),
]

CYCLIC_CASES = [
    pytest.param(TRIANGLE, None, id="triangle"),
    pytest.param(
        "q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)",
        None,
        id="four-cycle",
    ),
    # One changed relation feeds all three atoms.
    pytest.param(
        "q(x, y, z) :- R(x, y), R(y, z), R(z, x)", None, id="self-join"
    ),
    pytest.param(
        "q(x, y, z) :- R(x, y), S(y, z), P(z, x, x)",
        None,
        id="repeated-variable",
    ),
    pytest.param(TRIANGLE, ("z", "x", "y"), id="paging-order"),
]


def _row_weight(row):
    return sum(row) % 5 + 1


class _Mirror:
    """One update stream on a session under test, checked against the
    brute-force oracle after every step.

    The reference shares no code with the engine: the answers are
    :meth:`~repro.query.cq.ConjunctiveQuery.evaluate_brute_force` over
    the session's database, sorted by Python, and every aggregate is a
    fold over them (:func:`tests.brute.fold`), weights included.
    """

    def __init__(self, text, storage, rows, order=None, tmp_path=None):
        self.query = parse_query(text)
        storage = dict(storage)
        if "max_resident_shards" in storage:
            storage["spill_dir"] = str(tmp_path)
        self.arity = {a.relation: a.arity for a in self.query.atoms}
        self.present = {
            name: set(rows.get(name, ())) for name in self.arity
        }
        db = Database(**storage)
        for name, arity in self.arity.items():
            db.ensure_relation(name, arity).add_all(sorted(self.present[name]))
        self.session = Session(db)
        self.live = self.session.prepare(self.query, order=order).run()
        self.order = self.live.plan.order
        self.weighted = WeightedDatabase(db)
        self.weights = self.weighted.atom_weight_fn(self.query, MIN_PLUS)
        for name, present in self.present.items():
            self._weigh(name, present)

    def _weigh(self, name, rows):
        # Every third row carries a stored weight, the rest default to
        # ``one`` — both sides of coded_weight_column stay exercised.
        for row in rows:
            if sum(row) % 3 == 0:
                self.weighted.set_weight(name, row, _row_weight(row))

    def _reference_weight(self, atom_index, frame_row):
        """The stored weight of the relation row behind ``frame_row``."""
        atom = self.query.atoms[atom_index]
        distinct = list(dict.fromkeys(atom.variables))
        row = tuple(frame_row[distinct.index(v)] for v in atom.variables)
        return _row_weight(row) if sum(row) % 3 == 0 else MIN_PLUS.one

    def apply(self, op, name, payload):
        getattr(self.session, op)(name, payload)
        rows = payload if op.endswith("_all") else [payload]
        if op.startswith("add"):
            self.present[name].update(rows)
            self._weigh(name, rows)
        else:
            self.present[name].difference_update(rows)

    def check(self):
        live, db = self.live, self.session.db
        expected = brute.ordered(self.query, db, self.order)
        n = len(expected)
        assert len(live) == n
        assert live.page(0, n + 1) == expected
        if n:
            assert live[n - 1] == expected[-1]
        for cut in (slice(1, n, 3), slice(None, None, -1), slice(n, 0, -2)):
            assert live[cut] == expected[cut]
        # Iteration follows the tree's order on the free-connex family
        # (the paging order unless that one has a disruptive trio) and
        # the sorted materialization's everywhere else.
        iterated = brute.ordered(
            self.query, db, live.plan.tree_order or self.order
        )
        assert list(live) == iterated
        assert live.aggregate(COUNTING) == n
        assert live.aggregate(MIN_PLUS) == brute.fold(self.query, db, MIN_PLUS)
        if self.query.is_join_query():
            assert live.aggregate(MIN_PLUS, weights=self.weights) == brute.fold(
                self.query, db, MIN_PLUS, self._reference_weight
            )

    def run(self, stream):
        self.check()
        for op, name, payload in stream:
            self.apply(op, name, payload)
            self.check()


def _cyclic_stream(mirror, rng, domain):
    """A scripted mix of every update shape the repair has to survive.

    Lazily generated: each step reads ``mirror.present`` as left by the
    previous one.
    """
    names = sorted(mirror.arity)

    def row(name, low=0, high=domain):
        return tuple(
            rng.randrange(low, high) for _ in range(mirror.arity[name])
        )

    def rows(name, count, low=0, high=domain):
        return [row(name, low, high) for _ in range(count)]

    for _ in range(10):  # single-tuple churn on joining values
        name = rng.choice(names)
        if mirror.present[name] and rng.random() < 0.5:
            yield "discard", name, rng.choice(sorted(mirror.present[name]))
        else:
            yield "add", name, row(name)
    for name in names:
        # Fresh values: the dictionary grows, and the new values rank
        # before (negative) and after every value ranked at build time.
        yield "add", name, row(name, -2, 0)
        yield "add", name, row(name, domain, domain + 2)
    yield "add_all", names[0], rows(names[0], 5, -2, domain + 2)
    yield "add_all", names[-1], rows(names[-1], 64, -2, domain + 2)
    # > DELTA_COMPACT_MIN rows: a bulk rewrite, history barrier, rebuild.
    yield "add_all", names[0], rows(names[0], 70, -2, domain + 2)
    yield "add", names[-1], row(names[-1])
    yield "discard", names[0], rng.choice(sorted(mirror.present[names[0]]))
    yield (
        "discard_all",
        names[0],
        rng.sample(sorted(mirror.present[names[0]]), 10),
    )
    # An absorbed update, then delete everything and reinsert it.
    yield "add", names[0], min(mirror.present[names[0]])
    saved = {name: sorted(mirror.present[name]) for name in names}
    for name in names:
        yield "discard_all", name, saved[name]
    for name in names:
        yield "add_all", name, saved[name][:40]
    yield "add", names[-1], row(names[-1])


_DOMAIN = 6


def _random_mirror(text, order, storage, tmp_path):
    """A mirror over 20 random rows per relation, and the rng that drew
    them (seeded by the case, so every storage sees one stream)."""
    rng = random.Random(f"{text}{order}")
    rows = {
        atom.relation: {
            tuple(rng.randrange(_DOMAIN) for _ in range(atom.arity))
            for _ in range(20)
        }
        for atom in parse_query(text).atoms
    }
    mirror = _Mirror(text, storage, rows, order=order, tmp_path=tmp_path)
    return mirror, rng


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("text, order", CYCLIC_CASES)
def test_cyclic_answers_track_the_reference_over_a_stream(
    text, order, storage, tmp_path
):
    mirror, rng = _random_mirror(text, order, storage, tmp_path)
    assert mirror.live.plan.family == "cyclic-materialize"
    mirror.run(_cyclic_stream(mirror, rng, _DOMAIN))


JOIN_CHAIN = "q(a, b, c) :- R(a, b), S(b, c)"

FREE_CONNEX_CASES = [
    pytest.param(JOIN_CHAIN, None, id="join-chain"),
    pytest.param(
        "q(x, y) :- R(x, y), S(y, z), T(z, w)", None, id="projected"
    ),
    pytest.param("q(a, b, c) :- R(a, b), T(a, c)", None, id="star"),
    # One changed relation feeds both nodes of the tree.
    pytest.param("q(x, y, z) :- R(x, y), R(y, z)", None, id="self-join"),
    pytest.param(
        "q(x, y) :- R(x, y), P(y, x, x)", None, id="repeated-variable"
    ),
    # Two root children: the count is a product, an index splits
    # mixed-radix at the virtual root.
    pytest.param(
        "q(a, b, c, d) :- R(a, b), S(c, d)", None, id="cross-product"
    ),
    pytest.param(
        "q(a, c) :- R(a, b), S(c, d)", None, id="projected-cross-product"
    ),
    # Projection under updates: the existential variables are
    # eliminated into support-counted projections.  One S delete kills
    # many answers, the re-add revives them.
    pytest.param("q(x) :- R(x, y), S(y)", None, id="existential-branch"),
    # A subtree without free variables: a nullary emptiness gate.  (The
    # stream's bulk steps go to the first name, which wants two columns.)
    pytest.param("q(x) :- R(u, v), S(x)", None, id="boolean-component"),
    pytest.param(
        "q(x, y) :- R(x, y), R(y, z)", None, id="projected-self-join"
    ),
    pytest.param(
        "q(x) :- R(x, y), P(y, w, w)",
        None,
        id="existential-repeated-variable",
    ),
    # Two existential levels under a node that keeps free variables.
    pytest.param(
        "q(x, y) :- R(x, y), T(y, z, w), U(w, v)",
        None,
        id="two-level-existential",
    ),
    pytest.param(JOIN_CHAIN, ("c", "b", "a"), id="reversed-order"),
    # A disruptive trio: pages sort, count and iteration keep the tree.
    pytest.param(JOIN_CHAIN, ("a", "c", "b"), id="inadmissible-order"),
]


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("text, order", FREE_CONNEX_CASES)
def test_free_connex_answers_track_the_reference_over_a_stream(
    text, order, storage, tmp_path
):
    mirror, rng = _random_mirror(text, order, storage, tmp_path)
    plan = mirror.live.plan
    assert plan.family == "free-connex"
    assert plan.access_admissible == (order != ("a", "c", "b"))
    mirror.run(_cyclic_stream(mirror, rng, _DOMAIN))


FC3 = "q(x, y, z) :- R(x, y), S(y, z), T(z, w)"


@pytest.mark.parametrize("storage", STORAGES)
def test_projected_updates_patch_not_rebuild(storage, tmp_path, monkeypatch):
    rows = {
        "R": {(x, y) for x in range(4) for y in range(3)},
        "S": {(y, z) for y in range(3) for z in range(4)},
        "T": {(0, 0), (0, 1), (1, 0), (2, 5)},  # no support for z = 3
    }
    mirror = _Mirror(FC3, storage, rows, tmp_path=tmp_path)
    live = mirror.live
    assert live.plan.maintained and not live.query.is_join_query()
    mirror.check()
    accessor = live.prepared._accessor
    patched = []
    patch = accessor._patch
    monkeypatch.setattr(
        accessor,
        "_patch",
        lambda node, delta, insert: (
            patched.append(len(delta)),
            patch(node, delta, insert),
        ),
    )

    def step(op, name, payload):
        del patched[:]
        mirror.apply(op, name, payload)
        mirror.check()

    # Absorbed at the support level: z = 0 stays supported throughout.
    step("add", "T", (0, 2))
    step("discard", "T", (0, 0))
    assert patched == []
    # Delete to zero support, then revive: one row of D_T dies, is born.
    before = len(live), live.page(0, 1000), list(live)
    step("discard", "T", (2, 5))
    assert sum(patched) == 1 and len(live) == before[0] - 12
    step("add", "T", (2, 7))
    assert sum(patched) == 1
    assert (len(live), live.page(0, 1000), list(live)) == before
    step("add", "T", (3, 3))  # a z that never had support
    assert len(live) == before[0] + 12
    # Small updates everywhere keep history: no rebuild.
    step("add", "R", (9, 0))
    step("discard", "S", (0, 0))
    step("add_all", "S", [(0, z) for z in range(4, 9)])
    step("add_all", "T", [(z, z) for z in range(4, 40)])
    step("discard_all", "T", [(z, z) for z in range(4, 40, 2)])
    assert accessor.rebuilds == 0
    # A bulk rewrite is a history barrier: exactly one rebuild.
    step("add_all", "T", [(z % 9, z) for z in range(70)])
    assert accessor.rebuilds == 1
    step("discard", "T", (3, 3))
    step("add", "S", (1, 8))
    assert accessor.rebuilds == 1


PROJECTED_CHAIN = "q(x, w) :- R(x, y), S(y, z), T(z, w)"

# Acyclic, not free-connex: the sorted answers come from the Yannakakis
# projection and are rebuilt per version (projection collapses body
# assignments, so no delta repair).
ACYCLIC_CASES = [
    pytest.param("q(x, z) :- R(x, y), S(y, z)", None, id="projected-path"),
    pytest.param(PROJECTED_CHAIN, None, id="projected-chain"),
    pytest.param("q(x, x2) :- R(x, y), R(x2, y)", None, id="self-join"),
    pytest.param(
        "q(x, z) :- R(x, y), S(y, z), P(z, z)", None, id="repeated-variable"
    ),
    pytest.param(
        "q(x, z, w) :- R(x, y), S(y, z), U(w)", None, id="cross-product"
    ),
    pytest.param(
        "q(x, z) :- R(x, y), S(y, z)", ("z", "x"), id="paging-order"
    ),
]


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("text, order", ACYCLIC_CASES)
def test_acyclic_materialize_answers_track_the_reference_over_a_stream(
    text, order, storage, tmp_path
):
    mirror, rng = _random_mirror(text, order, storage, tmp_path)
    assert mirror.live.plan.family == "acyclic-materialize"
    mirror.run(_cyclic_stream(mirror, rng, _DOMAIN))


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("text", (TRIANGLE, PROJECTED_CHAIN))
def test_materialized_answers_starting_from_empty(text, storage, tmp_path):
    mirror = _Mirror(text, storage, {}, tmp_path=tmp_path)
    assert mirror.live.plan.family.endswith("-materialize")
    rng = random.Random(3)
    stream = []
    for _ in range(30):
        name = rng.choice("RST")
        stream.append(("add", name, (rng.randrange(4), rng.randrange(4))))
    mirror.run(stream)
    assert len(mirror.live) > 0


@pytest.mark.parametrize("backend", ("columnar", "sharded"))
def test_projected_cyclic_query_rebuilds(backend):
    # No repair here (projection collapses assignments): it still
    # answers through the one-join rebuild, weights rejected as for
    # every projected query.
    text = "q(x, y) :- R(x, y), S(y, z), T(z, x)"
    rng = random.Random(11)
    rows = {
        name: {(rng.randrange(5), rng.randrange(5)) for _ in range(15)}
        for name in "RST"
    }
    mirror = _Mirror(text, {"backend": backend}, rows)
    assert mirror.live.plan.family == "cyclic-materialize"
    mirror.run(
        [
            ("add", "R", (1, 9)),
            ("add", "S", (9, 2)),
            ("add", "T", (2, 1)),
            ("discard", "S", (9, 2)),
            ("add_all", "T", [(i % 5, i % 7) for i in range(70)]),
            ("discard_all", "R", sorted(rows["R"])[:5]),
        ]
    )
    with pytest.raises(ValueError):
        mirror.live.aggregate(MIN_PLUS, weights=mirror.weights)


def _structures(prepared):
    """The lazy serving state a prepared query has built so far."""
    fixed = {
        "session", "query", "plan", "semiring", "_db", "head", "_page_key",
        "_build_lock",
    }  # fmt: skip
    return {
        name
        for name, value in vars(prepared).items()
        if name not in fixed and value is not None
    }


def _count_frontier_runs(monkeypatch):
    """Wrap the frontier join; returns its full / delta run counters."""
    # ``repro.joins.generic_join`` the attribute is the function.
    gj = importlib.import_module("repro.joins.generic_join")
    runs = {"full": 0, "delta": 0}
    real = gj._frontier_run

    def counting(*args, **kwargs):
        # A delta run passes ``bound`` (sixth); a full run does not.
        bound = args[5] if len(args) > 5 else kwargs.get("bound")
        runs["full" if bound is None else "delta"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(gj, "_frontier_run", counting)
    return runs


def _count_projection_runs(monkeypatch):
    """Wrap the Yannakakis projection where the sorted answers' one
    builder (``OrderedAnswers``) sees it; returns the run counter."""
    lex = importlib.import_module("repro.direct_access.lex")
    runs = {"full": 0}
    real = lex.yannakakis_project

    def counting(*args, **kwargs):
        runs["full"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(lex, "yannakakis_project", counting)
    return runs


_READS = {
    "len": len,
    "page": lambda answers: answers.page(0, 5),
    "list": list,
    "index": lambda answers: answers[0],
    "aggregate": lambda answers: answers.aggregate(MIN_PLUS),
}


@pytest.mark.parametrize("backend", ("columnar", "sharded"))
@pytest.mark.parametrize(
    "text", ("q(x, z) :- R(x, y), S(y, z)", PROJECTED_CHAIN)
)
def test_one_projection_per_version_in_any_reading_order(
    text, backend, monkeypatch
):
    """Every capability of an acyclic non-free-connex query reads the
    one sorted Yannakakis projection: whichever is read first builds
    it, and none counts through a worst-case-optimal join."""
    rng = random.Random(9)
    data = {
        name: sorted({(rng.randrange(6), rng.randrange(6)) for _ in range(20)})
        for name in "RST"
    }
    session = Session(data, backend=backend)
    answers = session.prepare(text).run()
    projections = _count_projection_runs(monkeypatch)
    joins = _count_frontier_runs(monkeypatch)
    for version, reading_order in enumerate(itertools.permutations(_READS)):
        session.add("R", (version % 6, 100 + version))  # a new version
        seen = {name: _READS[name](answers) for name in reading_order}
        assert projections["full"] == version + 1, reading_order
        assert seen["len"] == len(seen["list"]) > 0
        assert seen["page"] == seen["list"][:5]
        assert seen["index"] == seen["list"][0]
    assert joins == {"full": 0, "delta": 0}


@pytest.mark.parametrize(
    "text", (PROJECTED_CHAIN, "q(x, y) :- R(x, y), S(y, z), T(z, x)")
)
def test_count_only_reads_neither_sort_nor_decode(text):
    """``len`` and the unweighted aggregate are the code matrix's length:
    rows are ordered and decoded by the first page, once, not before.
    (A repair needs sort positions and orders first; these rebuild.)"""
    rng = random.Random(12)
    data = {
        name: sorted({(rng.randrange(6), rng.randrange(6)) for _ in range(20)})
        for name in "RST"
    }
    session = Session(data, backend="columnar")
    answers = session.prepare(text).run()
    for version in range(3):
        session.add("R", (version, 100 + version))
        reset_decoded_row_count()
        count = len(answers)
        answers.aggregate(MIN_PLUS)
        assert decoded_row_count() == 0
        assert count == len(answers.query.evaluate_brute_force(session.db))
    reset_decoded_row_count()
    page = answers.page(0, 5)
    assert answers.page(0, 5) == page == list(answers)[:5]
    assert decoded_row_count() == count


@pytest.mark.parametrize("storage", STORAGES)
def test_trio_order_pages_are_repaired_not_resorted(
    storage, tmp_path, monkeypatch
):
    """A free-connex *join* query paged in an order with a disruptive
    trio keeps its sorted answers across small updates like the cyclic
    family: delta joins, no second projection, one rebuild per barrier."""
    storage = dict(storage)
    if "max_resident_shards" in storage:
        storage["spill_dir"] = str(tmp_path)
    rng = random.Random(10)
    data = {
        name: sorted({(rng.randrange(9), rng.randrange(9)) for _ in range(40)})
        for name in "RS"
    }
    session = Session(Database.from_dict(data, **storage))
    query = parse_query(JOIN_CHAIN)
    answers = session.prepare(query, order=("a", "c", "b")).run()
    projections = _count_projection_runs(monkeypatch)
    joins = _count_frontier_runs(monkeypatch)

    def read():
        truth = query.evaluate_brute_force(session.db)
        expected = sorted(truth, key=lambda row: (row[0], row[2], row[1]))
        assert len(answers) == len(expected)
        assert answers[:] == expected
        assert answers[len(expected) - 1] == expected[-1]

    read()
    assert projections == {"full": 1} and joins == {"full": 0, "delta": 0}
    for step in range(10):
        before = joins["delta"]
        if step % 2:
            session.discard("R", data["R"][step])
        else:
            session.add("S", (rng.randrange(9), 20 + step))
        read()
        # R and S each feed one atom: at most one delta run per update.
        assert joins["delta"] - before <= 1
    delta_runs = joins["delta"]
    assert 0 < delta_runs <= 10
    session.add("R", data["R"][0])  # already present
    session.add("S", (900, 901))  # an add/discard pair of one tuple
    session.discard("S", (900, 901))
    read()
    assert projections == {"full": 1}
    assert joins == {"full": 0, "delta": delta_runs}
    session.add_all("S", [(i % 9, 50 + i) for i in range(70)])  # barrier
    read()
    read()
    assert projections == {"full": 2}
    assert joins == {"full": 0, "delta": delta_runs}


def _big_triangle_session(storage, tmp_path):
    # 300 rows per relation: the compaction barrier sits at
    # max(64, 0.25 * |main|) = 75 ops, far above the streams below.
    storage = dict(storage)
    if "max_resident_shards" in storage:
        storage["spill_dir"] = str(tmp_path)
    rng = random.Random(2)
    data = {
        name: sorted(
            {(rng.randrange(40), rng.randrange(40)) for _ in range(320)}
        )[:300]
        for name in "RST"
    }
    return Session(Database.from_dict(data, **storage)), data


@pytest.mark.parametrize("storage", STORAGES)
def test_one_full_join_per_barrier_none_per_small_update(
    storage, tmp_path, monkeypatch
):
    session, data = _big_triangle_session(storage, tmp_path)
    runs = _count_frontier_runs(monkeypatch)
    answers = session.prepare(TRIANGLE).run()

    def read():
        return len(answers), answers.page(0, 50), answers.aggregate(MIN_PLUS)

    read()
    assert runs == {"full": 1, "delta": 0}  # one join serves all three
    # Holds for every family (test_every_read_shares_two_structures):
    # an unweighted aggregate is a function of the count.
    assert _structures(answers.prepared) == {"_answers"}
    rng = random.Random(4)
    for step in range(20):
        before = runs["delta"]
        if step % 2:
            session.discard("R", data["R"][step])
        else:
            session.add("T", (rng.randrange(40), rng.randrange(40)))
        read()
        # At most one delta run per atom of the changed relation.
        assert runs["delta"] - before <= 1
    session.add_all("S", [(100 + i, i % 40) for i in range(5)])
    read()
    assert runs["full"] == 1 and 0 < runs["delta"] <= 21
    delta_runs = runs["delta"]
    session.add_all("S", [(i % 40, (7 * i) % 40) for i in range(200)])
    read()
    read()
    assert runs == {"full": 2, "delta": delta_runs}  # barrier: one rebuild
    oracle = parse_query(TRIANGLE).evaluate_brute_force(session.db)
    assert set(answers) == oracle and len(answers) == len(oracle)


@pytest.mark.parametrize("storage", STORAGES)
def test_absorbed_update_runs_no_join(storage, tmp_path, monkeypatch):
    session, data = _big_triangle_session(storage, tmp_path)
    answers = session.prepare(TRIANGLE).run()
    before = (len(answers), answers.page(0, 50), answers.aggregate(COUNTING))
    runs = _count_frontier_runs(monkeypatch)
    session.add("R", data["R"][0])  # already present
    session.add("S", (900, 901))  # an add/discard pair of one tuple
    session.discard("S", (900, 901))
    after = (len(answers), answers.page(0, 50), answers.aggregate(COUNTING))
    assert after == before
    assert runs == {"full": 0, "delta": 0}
    # The empty net delta still adopts the new stamps.
    assert not stale_relations(session.db, answers.prepared._answers.stamps)


@st.composite
def _cyclic_instances(draw):
    """A random query made cyclic by a triangle over three of its
    variables (self-joined or not), a database, and an update stream."""
    base = draw(
        strategies.conjunctive_queries(
            max_atoms=2, self_join_free=draw(st.booleans())
        )
    )
    pool = strategies.VARIABLE_POOL
    a, b, c = draw(st.permutations(pool))[:3]
    names = draw(
        st.sampled_from([("E", "F", "G"), ("E", "E", "E"), ("E", "F", "E")])
    )
    body = base.atoms + (
        Atom(names[0], (a, b)),
        Atom(names[1], (b, c)),
        Atom(names[2], (c, a)),
    )
    variables = sorted({v for atom in body for v in atom.scope})
    query = ConjunctiveQuery(
        tuple(draw(st.permutations(variables))), body, name="q_cyclic"
    )
    db = draw(strategies.databases_for(query, max_tuples=8))
    arity = {atom.relation: atom.arity for atom in query.atoms}
    value = st.integers(min_value=-1, max_value=7)
    step = st.sampled_from(sorted(arity)).flatmap(
        lambda name: st.tuples(
            st.sampled_from(["add", "discard"]),
            st.just(name),
            st.tuples(*([value] * arity[name])),
        )
    )
    return query, db, draw(st.lists(step, max_size=8))


@given(_cyclic_instances(), st.sampled_from([1, 3]))
def test_cyclic_repair_matches_brute_force_on_random_queries(
    instance, shard_count
):
    query, db, stream = instance
    rows = {rel.name: set(rel) for rel in db}
    storage = {"backend": "sharded", "shard_count": shard_count}
    mirror = _Mirror(str(query), storage, rows)
    assume(mirror.live.plan.family == "cyclic-materialize")
    mirror.run(stream)


@st.composite
def _projected_free_connex_instances(draw):
    """A random free-connex query with existential variables, a
    database, and a stream of adds, discards and small ``add_all``s."""
    query = draw(
        strategies.conjunctive_queries(
            max_atoms=3, self_join_free=draw(st.booleans())
        ).filter(
            lambda q: q.head
            and not q.is_join_query()
            and is_free_connex(q)
        )
    )
    db = draw(strategies.databases_for(query, max_tuples=8))
    arity = {atom.relation: atom.arity for atom in query.atoms}
    value = st.integers(min_value=-1, max_value=7)

    def steps(name):
        row = st.tuples(*([value] * arity[name]))
        return st.one_of(
            st.tuples(st.sampled_from(["add", "discard"]), st.just(name), row),
            st.tuples(
                st.just("add_all"), st.just(name), st.lists(row, max_size=4)
            ),
        )

    step = st.sampled_from(sorted(arity)).flatmap(steps)
    return query, db, draw(st.lists(step, max_size=8))


@given(
    _projected_free_connex_instances(),
    st.sampled_from(
        [
            {"backend": "columnar"},
            {"backend": "sharded", "shard_count": 1},
            {"backend": "sharded", "shard_count": 3},
        ]
    ),
)
def test_projected_patching_matches_brute_force_on_random_queries(
    instance, storage
):
    query, db, stream = instance
    rows = {rel.name: set(rel) for rel in db}
    mirror = _Mirror(str(query), storage, rows)
    assert mirror.live.plan.maintained
    mirror.run(stream)
    assert mirror.live.prepared._accessor.rebuilds == 0


# ----------------------------------------------------------------------
# unweighted aggregates: the count's image n·1 in the semiring
# ----------------------------------------------------------------------
# An object semiring (no NumPy kernels): answer counts as tally strings.
TALLY = Semiring(
    name="tally",
    plus=lambda a, b: a + b,
    times=lambda a, b: a if b == "|" else b if a == "|" else a + b,
    zero="",
    one="|",
)
SEMIRINGS = (COUNTING, BOOLEAN, MIN_PLUS, MAX_PLUS, TALLY)

# One query per family, each reading R and S (T too when cyclic).
UNIT_QUERIES = [
    "q(x, z) :- R(x, y), S(y, z)",  # acyclic-materialize
    "q(x, y) :- R(x, y), S(y, z), T(z, x)",  # projected cyclic
    "q(x, y, z) :- R(x, y), S(y, z)",  # join-chain (maintained count)
    "q(x) :- R(x, y), S(y, z)",  # projected free-connex
    "q(x, y) :- R(x, y), S(x, z)",  # star
    "q() :- R(x, y), S(y, z)",  # Boolean
]


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("text", UNIT_QUERIES)
@pytest.mark.parametrize("empty", (False, True))
def test_fallback_aggregate_equals_brute_force_fold(text, semiring, empty):
    rng = random.Random(8)
    data = {
        name: [(rng.randrange(6), rng.randrange(6)) for _ in range(25)]
        for name in "RST"
    }
    if empty:
        data["S"] = [(50, 51)]
    truth = parse_query(text).evaluate_brute_force(Database.from_dict(data))
    fold = semiring.sum(semiring.one for _ in truth)
    assert bool(truth) != empty
    for backend in ("columnar", "sharded"):
        answers = Session(data, backend=backend).prepare(text).run()
        assert answers.aggregate(semiring) == fold


@pytest.mark.parametrize("storage", STORAGES[:3])
@pytest.mark.parametrize("text", UNIT_QUERIES)
def test_unit_aggregates_track_the_fold_over_a_stream(text, storage):
    query = parse_query(text)
    rng = random.Random(13)

    def rows(count):
        return [(rng.randrange(7), rng.randrange(7)) for _ in range(count)]

    data = {name: rows(20) for name in "RST"}
    session = Session(Database.from_dict(data, **storage))
    answers = session.prepare(query).run()
    for _ in range(30):
        name = rng.choice("RST")
        op = rng.choice(["add", "discard", "small batch", "big batch"])
        if op == "add":
            session.add(name, rows(1)[0])
        elif op == "discard":
            session.discard(name, rng.choice(sorted(session.db[name])))
        else:  # below / above the 64-row history barrier
            session.add_all(name, rows(5 if op == "small batch" else 70))
        truth = query.evaluate_brute_force(session.db)
        for semiring in SEMIRINGS:
            value = answers.aggregate(semiring)
            assert value == semiring.sum(semiring.one for _ in truth)
            assert value == aggregate_units(semiring, len(answers))


@pytest.mark.parametrize("backend", ("columnar", "sharded"))
def test_aggregate_builds_no_structure(backend, monkeypatch):
    """Counts, pages, iteration and aggregates in any semiring build
    nothing beside the one counted tree and add no per-update work of
    their own — deletes included, although min / max have no ⊕-inverse
    to fold them with."""
    built = []
    for cls in (AggregateMaintainer, ConstantDelayEnumerator):

        def recording(self, *args, _real=cls.__init__, **kwargs):
            built.append(self)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)
    rng = random.Random(5)
    data = {
        name: sorted(
            {(rng.randrange(9), rng.randrange(9)) for _ in range(60)}
        )
        for name in "RS"
    }
    session = Session(data, backend=backend)
    prepared = session.prepare(FAMILY_QUERIES["join-chain"])
    assert prepared.plan.maintained
    answers = prepared.run()

    def read():
        n = len(answers)
        assert len(answers.page(0, 10)) == min(n, 10)
        assert answers.first(10) == answers.page(0, 10)
        for semiring in SEMIRINGS:
            assert answers.aggregate(semiring) == aggregate_units(semiring, n)

    read()
    for step in range(20):
        if step % 2:
            session.discard("R", data["R"][step])
        else:
            session.add("S", (rng.randrange(9), 100 + step))
        read()
    assert built == []  # no maintainer, no enumerator: the tree alone
    assert prepared._accessor.rebuilds == 0
    assert _structures(prepared) == {"_accessor"}


@pytest.mark.parametrize("backend", ("columnar", "sharded"))
@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_every_read_shares_two_structures(family, backend):
    rng = random.Random(6)
    data = {
        name: [(rng.randrange(6), rng.randrange(6)) for _ in range(25)]
        for name in "RST"
    }
    prepared = Session(data, backend=backend).prepare(FAMILY_QUERIES[family])
    answers = prepared.run()
    assert len(answers.page(0, 5)) == min(len(answers), 5)
    assert len(list(answers)) == len(answers)
    if len(answers):
        assert answers[0] == answers.page(0, 1)[0]
    for semiring in SEMIRINGS:
        answers.aggregate(semiring)
    # After every capability was read: the counted tree or the sorted
    # answers (a Boolean query holds its verdict), nothing per
    # capability, no stamp cache.
    expected = {
        "boolean": "_decided",
        "free-connex": "_accessor",
    }.get(prepared.plan.family, "_answers")
    assert _structures(prepared) == {expected}
