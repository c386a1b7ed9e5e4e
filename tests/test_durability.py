"""Durability: WAL + checkpoint round-trips and injected-crash safety.

The durable substrate (:mod:`repro.db.wal`,
:mod:`repro.db.checkpoint`, :class:`repro.db.database.DurableDatabase`)
promises three things, each pinned here for both backends:

- **round-trip fidelity** — close/reopen (with or without an
  intervening checkpoint) recovers content *and* per-relation
  ``mutation_stamp`` values bit-identically, so derived structures
  resync through the ordinary ``delta_since`` contract;
- **crash safety** — with ``sync="always"``, a crash injected at
  *every* declared fault point (each WAL write/fsync site, each
  checkpoint write/rename site) recovers to a consistent prefix of
  the operation history: some oracle state, never a torn mix;
- **no-op barrier hygiene** (the churn regression): a ``retain`` that
  removes nothing and a ``compact`` with an empty op log advance no
  stamp, truncate no history, and append no WAL record.
"""

import os

import pytest

from repro.db import ColumnarRelation, CorruptSnapshotError, Database, attach
from repro.db import checkpoint as _checkpoint  # registers ckpt.* points
from repro.db.wal import read_records

assert _checkpoint.CRASH_POINTS  # the import above is load-bearing
from repro.util import faultpoints
from repro.util.faultpoints import InjectedCrash, known_fault_points

BACKENDS = ("columnar", "sharded")


@pytest.fixture(autouse=True)
def _clean_faultpoints():
    faultpoints.reset()
    yield
    faultpoints.reset()


def rows_of(rel):
    return set(map(tuple, rel))


def db_state(db):
    return {rel.name: rows_of(rel) for rel in db}


def db_stamps(db):
    return {rel.name: rel.mutation_stamp for rel in db}


def scripted_ops():
    """One mutation per entry — the oracle replays them one by one."""
    return [
        lambda db: db.ensure_relation("R", 2).add((1, 2)),
        lambda db: db.ensure_relation("R", 2).add((2, 3)),
        lambda db: db.ensure_relation("S", 2).add_all(
            [(i, i + 1) for i in range(8)]
        ),
        lambda db: db["R"].discard((1, 2)),
        lambda db: db["R"].add(("x", "y")),
        lambda db: db["S"].retain(lambda t: t[0] % 2 == 0),
        lambda db: db["S"].compact(),
        lambda db: db.ensure_relation("T", 1).add((42,)),
        lambda db: db["R"].discard(("nope", "nope")),
        lambda db: db["S"].add_all([(100, 101), (102, 103)]),
    ]


def run_script(db, upto=None):
    for op in scripted_ops()[:upto]:
        op(db)


@pytest.mark.parametrize("backend", BACKENDS)
def test_close_reopen_round_trip(tmp_path, backend):
    path = str(tmp_path / "db")
    with attach(path, backend=backend, sync="always") as db:
        run_script(db)
        want_state, want_stamps = db_state(db), db_stamps(db)
    recovered = attach(path)
    assert recovered.backend == backend  # stored backend wins
    assert db_state(recovered) == want_state
    assert db_stamps(recovered) == want_stamps
    recovered.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_plus_wal_suffix_round_trip(tmp_path, backend):
    path = str(tmp_path / "db")
    with attach(path, backend=backend, sync="always") as db:
        run_script(db, upto=6)
        db.checkpoint()
        assert db.checkpoint_index == 1
        run_script(db)  # full script again, post-checkpoint suffix
        want_state, want_stamps = db_state(db), db_stamps(db)
    recovered = attach(path)
    assert recovered.checkpoint_index == 1
    assert db_state(recovered) == want_state
    assert db_stamps(recovered) == want_stamps
    recovered.close()


def test_recovery_truncates_garbage_tail(tmp_path):
    path = str(tmp_path / "db")
    with attach(path, backend="columnar") as db:
        db.ensure_relation("R", 1).add((1,))
        db["R"].add((2,))
        want = db_state(db)
        wal_path = os.path.join(db.path, db._wal_name)
    size = os.path.getsize(wal_path)
    with open(wal_path, "ab") as handle:
        handle.write(b"\xde\xad\xbe\xef garbage tail")
    recovered = attach(path)
    assert db_state(recovered) == want
    # the torn tail was physically truncated before appends resumed
    assert os.path.getsize(wal_path) == size
    recovered.ensure_relation("R", 1).add((3,))
    recovered.close()
    again = attach(path)
    assert rows_of(again["R"]) == {(1,), (2,), (3,)}
    again.close()


def foreign_ops():
    """Relations built over dictionaries of their own, registered with
    ``add_relation``: each is re-encoded into the database's dictionary
    and journaled as one ``CREATE`` carrying its rows."""
    return [
        lambda db: db.ensure_relation("R", 2).add((1, "a")),
        lambda db: db.add_relation(
            ColumnarRelation("S", 2, [("a", 10), ("b", 20), ("c", 30)])
        ),
        lambda db: db["R"].add((3, "zz")),
        lambda db: db.add_relation(ColumnarRelation("T", 1, [(10,), ("b",)])),
        lambda db: db["S"].discard(("a", 10)),
        lambda db: db.add_relation(
            ColumnarRelation("U", 2, [("new", 99), (1, "a")])
        ),
        lambda db: db["S"].compact(),
        lambda db: db.add_relation(ColumnarRelation("V", 1, [(7,)])),
        lambda db: db["U"].add(("after", "ckpt")),
        lambda db: db["T"].retain(lambda t: t != (10,)),
    ]


def oracle_states(backend, ops=scripted_ops):
    """Database state after 0, 1, ..., N ops of a script (in memory)."""
    db = Database(backend=backend)
    states = [db_state(db)]
    for op in ops():
        op(db)
        states.append(db_state(db))
    return states


def crash_workload(path, backend, ops=scripted_ops):
    """The durable run the crash tests interrupt: script + checkpoint."""
    db = None
    try:
        db = attach(path, backend=backend, sync="always")
        ops = ops()
        for op in ops[:6]:
            op(db)
        db.checkpoint()
        for op in ops[6:]:
            op(db)
        db.checkpoint()
    finally:
        if db is not None:
            try:
                db.close()
            except InjectedCrash:  # pragma: no cover - depends on point
                pass


def assert_crash_recovers_a_prefix(tmp_path, backend, point, ops, at=1):
    """Crash ``ops`` at the ``at``-th visit of ``point`` and check the
    recovery; returns whether the crash fired (False once ``at`` is past
    the point's last visit)."""
    path = str(tmp_path / f"db{at}")
    faultpoints.arm(point, at=at)
    crashed = False
    try:
        crash_workload(path, backend, ops)
    except InjectedCrash as exc:
        crashed = True
        assert exc.point == point
    assert crashed or faultpoints.hits(point) < at, (
        f"fault point {point} reached {at} times but never fired"
    )
    faultpoints.reset()
    recovered = attach(path)
    assert all(rel.dictionary is recovered.dictionary for rel in recovered)

    # A scripted op may create a relation *and* insert into it; a crash
    # between those two WAL records legitimately recovers the relation
    # empty.  Content-wise both sides must still agree, so compare net
    # states (empty relations are schema metadata, not content).
    def net(state):
        return {name: rows for name, rows in state.items() if rows}

    assert net(db_state(recovered)) in [
        net(s) for s in oracle_states(backend, ops)
    ], f"recovery after crash at {point} is not a consistent prefix"
    # the recovered database is live: it takes writes and survives
    # another reopen
    recovered.ensure_relation("R", 2).add(("post", "crash"))
    want = db_state(recovered)
    recovered.close()
    again = attach(path)
    assert db_state(again) == want
    again.close()
    return crashed


@pytest.mark.parametrize("point", sorted(known_fault_points()))
@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_at_every_fault_point_recovers_a_prefix(
    tmp_path, backend, point
):
    """Arm each declared fault point; recovery must land on an oracle
    state — a consistent prefix of the op history — never a torn mix,
    and the survivor must accept writes and round-trip again."""
    assert_crash_recovers_a_prefix(tmp_path, backend, point, scripted_ops)


@pytest.mark.parametrize("point", sorted(known_fault_points()))
@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_while_reencoding_foreign_relations_recovers_a_prefix(
    tmp_path, backend, point
):
    """The crash matrix over relations registered from foreign
    dictionaries, crashing at *every* visit of each point (not only the
    first, which lands before any registration): the re-encoded
    relation and the dictionary entries it introduced recover together
    or not at all, and every recovered relation shares the recovered
    database's dictionary."""
    at = 1
    while assert_crash_recovers_a_prefix(
        tmp_path, backend, point, foreign_ops, at=at
    ):
        at += 1
    assert at > 1, f"fault point {point} never fired"


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_mid_checkpoint_preserves_previous_manifest(
    tmp_path, backend
):
    path = str(tmp_path / "db")
    with attach(path, backend=backend, sync="always") as db:
        run_script(db)
        want = db_state(db)
        faultpoints.arm("ckpt.manifest.rename", at=1)
        with pytest.raises(InjectedCrash):
            db.checkpoint()
    faultpoints.reset()
    recovered = attach(path)
    assert recovered.checkpoint_index is None  # old manifest survived
    assert db_state(recovered) == want
    recovered.close()


# ----------------------------------------------------------------------
# satellite: no-op retain / empty-log compact must not churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_noop_retain_keeps_history_and_writes_nothing(tmp_path, backend):
    path = str(tmp_path / "db")
    db = attach(path, backend=backend, sync="always")
    rel = db.ensure_relation("R", 2)
    rel.add_all([(i, i + 1) for i in range(10)])
    stamp = rel.mutation_stamp
    wal_path = os.path.join(db.path, db._wal_name)
    size_before = os.path.getsize(wal_path)
    assert rel.retain(lambda t: True) == 0
    # no stamp advance, no history truncation, no WAL record
    assert rel.mutation_stamp == stamp
    inserted, deleted = rel.delta_since(stamp)
    assert not len(inserted) and not len(deleted)
    assert os.path.getsize(wal_path) == size_before
    db.close()


@pytest.mark.parametrize("backend", ("columnar", "sharded"))
def test_empty_log_compact_keeps_history_and_writes_nothing(
    tmp_path, backend
):
    path = str(tmp_path / "db")
    db = attach(path, backend=backend, sync="always")
    rel = db.ensure_relation("R", 2)
    rel.add_all([(i, i + 1) for i in range(10)])
    rel.compact()  # effective: folds the bulk load's segments
    stamp = rel.mutation_stamp
    rel.add((99, 100))
    rel.compact()  # effective again: one pending op
    base = rel.mutation_stamp
    wal_path = os.path.join(db.path, db._wal_name)
    size_before = os.path.getsize(wal_path)
    records_before = len(read_records(wal_path)[0])
    rel.compact()  # empty log: must be a true no-op
    assert rel.mutation_stamp == base
    inserted, deleted = rel.delta_since(base)
    assert not len(inserted) and not len(deleted)
    assert os.path.getsize(wal_path) == size_before
    assert len(read_records(wal_path)[0]) == records_before
    db.close()


def test_compact_barrier_is_journaled_and_replayed(tmp_path):
    """An *effective* compact is a history barrier on both sides of a
    recovery: the replayed relation refuses pre-barrier stamps too."""
    from repro.db.interface import TruncatedHistoryError

    path = str(tmp_path / "db")
    with attach(path, backend="columnar", sync="always") as db:
        rel = db.ensure_relation("R", 1)
        rel.add((1,))
        old_stamp = rel.mutation_stamp
        rel.add((2,))
        rel.compact()
        with pytest.raises(TruncatedHistoryError):
            rel.delta_since(old_stamp)
    recovered = attach(path)
    with pytest.raises(TruncatedHistoryError):
        recovered["R"].delta_since(old_stamp)
    recovered.close()


def test_sync_policies_accepted_and_validated(tmp_path):
    for i, sync in enumerate(("always", "batch", "never")):
        db = attach(str(tmp_path / f"db{i}"), sync=sync)
        db.ensure_relation("R", 1).add((1,))
        db.flush()
        db.close()
    with pytest.raises(ValueError):
        attach(str(tmp_path / "bad"), sync="sometimes")


# ----------------------------------------------------------------------
# session layer: durable connect + warm restart
# ----------------------------------------------------------------------
def test_session_checkpoint_persists_prepared_plans(tmp_path):
    from repro.engine import connect
    from repro.engine.session import SESSION_FILE

    path = str(tmp_path / "db")
    session = connect(path=path, backend="columnar")
    for i in range(30):
        session.add("R", (i, i + 1))
        session.add("S", (i + 1, i % 5))
    prepared = session.prepare("q(x, y) :- R(x, z), S(z, y)")
    want = len(prepared.run())
    session.checkpoint()
    assert os.path.exists(os.path.join(path, SESSION_FILE))
    session.add("R", (500, 501))  # WAL suffix past the checkpoint
    session.db.close()

    warm = connect(path=path)
    # the plan cache is warm: the persisted spec was re-prepared
    assert len(warm._prepared) == 1
    (cached,) = warm._prepared.values()
    assert len(cached.run()) >= want
    assert (500, 501) in rows_of(warm.db["R"])
    warm.db.close()


def test_session_checkpoint_requires_durable_db():
    from repro.engine import connect

    session = connect({"R": [(1, 2)]})
    with pytest.raises(TypeError):
        session.checkpoint()


def test_connect_rejects_db_and_path(tmp_path):
    from repro.engine import connect

    with pytest.raises(TypeError):
        connect({"R": [(1, 2)]}, path=str(tmp_path / "db"))


def test_corrupt_session_manifest_recovers_cold(tmp_path):
    from repro.engine import connect
    from repro.engine.session import SESSION_FILE

    path = str(tmp_path / "db")
    session = connect(path=path)
    session.add("R", (1, 2))
    session.prepare("q(x, y) :- R(x, y)")
    session.checkpoint()
    session.db.close()
    with open(os.path.join(path, SESSION_FILE), "wb") as handle:
        handle.write(b"{not json")
    cold = connect(path=path)  # data recovers; plans just start cold
    assert not cold._prepared
    assert rows_of(cold.db["R"]) == {(1, 2)}
    cold.db.close()


def test_durable_reencodes_foreign_dictionary(tmp_path):
    from repro.db.columnar import ColumnarRelation

    path = str(tmp_path / "db")
    db = attach(path, backend="columnar")
    db.ensure_relation("R", 1).add(("b",))
    alien = ColumnarRelation("A", 1, [("a",), ("b",)])
    registered = db.add_relation(alien)
    assert registered is db["A"] and registered is not alien
    assert registered.dictionary is db.dictionary
    assert rows_of(registered) == {("a",), ("b",)}
    db.close()
    recovered = attach(path)
    assert rows_of(recovered["A"]) == {("a",), ("b",)}
    assert all(rel.dictionary is recovered.dictionary for rel in recovered)
    recovered.close()


def test_attach_refuses_retired_python_payloads(tmp_path):
    """Durable directories written with the retired ``"python"`` storage
    kind are refused with a typed error, never half-loaded."""
    from repro.db import checkpoint as ckpt
    from repro.db.wal import REC_CREATE

    # A manifest that records the python backend.
    path = str(tmp_path / "manifest")
    db = attach(path)
    db.ensure_relation("R", 2).add((1, 2))
    db.checkpoint()
    db.close()
    manifest = ckpt.read_manifest(path)
    ckpt.commit_manifest(path, {**manifest, "backend": "python"})
    with pytest.raises(CorruptSnapshotError, match="'python'"):
        attach(path)

    # A WAL that creates a python-kind relation.
    path = str(tmp_path / "wal")
    db = attach(path)
    db._writer.append(
        REC_CREATE, ("P", 2, {"kind": "python", "state": ([(1, 2)], 1)})
    )
    db.close()
    with pytest.raises(CorruptSnapshotError, match="'python'"):
        attach(path)
