"""Self-healing storage: incremental checkpoints, scrub, repair.

Three promises from the self-healing layer (PR 7), each pinned here
for both storage backends:

- **incremental checkpoints** — a checkpoint rewrites only the
  relations (per shard, for sharded relations) whose
  ``mutation_stamp`` advanced; untouched payloads ride along as chain
  pointers, recovery composes the base+delta chain exactly (content
  *and* stamps), and the chain folds back into a full base at the
  configured depth;
- **detect or repair, never silently wrong** — for every corruption
  mode (bit flip, truncation, zero fill) injected into every on-disk
  artifact class (checkpoint payloads, ``meta.json``, the manifest,
  sealed WAL segments, the active WAL), opening either raises a typed
  :class:`CorruptionError` or recovers a consistent *prefix* of the
  operation history; :func:`repro.db.scrub.repair` then restores the
  newest provably-consistent state (quarantining the damage) or — as
  the last rung — reseeds from a live replica feed;
- **degraded opens** — when repair is impossible,
  ``attach(path, degraded=True)`` serves whatever verifies, names the
  rest in ``damaged_relations``, and refuses mutations loudly.
"""

import os

import pytest

from repro.db import (
    CorruptionError,
    CorruptSnapshotError,
    CorruptWalError,
    DegradedDatabaseError,
    TruncatedHistoryError,
    attach,
)
from repro.db import checkpoint as ckpt
from repro.db import scrub
from repro.db.database import DurableDatabase
from repro.engine import connect
from repro.engine.replication import LeaderFeed
from repro.util.faultpoints import CORRUPTION_MODES, corrupt_file

BACKENDS = ("columnar", "sharded")

OPS_BEFORE_CKPT = 30
OPS_TOTAL = 40


def _shard_count(backend):
    return 2 if backend == "sharded" else None


def rows_of(rel):
    return set(map(tuple, rel))


def db_state(db):
    return {rel.name: rows_of(rel) for rel in db}


def db_stamps(db):
    return {rel.name: rel.mutation_stamp for rel in db}


# ----------------------------------------------------------------------
# incremental checkpoints
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_checkpoint_rewrites_only_touched(tmp_path, backend):
    db = attach(
        str(tmp_path / "db"),
        backend=backend,
        shard_count=_shard_count(backend),
    )
    r = db.ensure_relation("R", 2)
    r.add_all([(i, i) for i in range(10)])
    s = db.ensure_relation("S", 2)
    s.add_all([(i, 0) for i in range(10)])
    db.checkpoint()
    full = db.last_checkpoint
    assert full["full"]
    assert any(f.startswith("ckpt-1/1.") for f in full["files"])  # S

    # touch R only, with values the dictionary already knows — the
    # delta must not rewrite S's payloads (nor the dictionary)
    r.add((3, 7))
    db.checkpoint()
    delta = db.last_checkpoint
    assert not delta["full"]
    payloads = [f for f in delta["files"] if not f.endswith("meta.json")]
    assert payloads  # R was rewritten...
    assert all(f.startswith("ckpt-2/0.") for f in payloads)  # ...only R
    if backend == "sharded":
        # only the one shard that (3, 7) hash-routed to
        shards = {f.split(".")[1] for f in payloads}
        assert len(shards) == 1
    assert delta["bytes_written"] < full["bytes_written"]
    db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_chain_recovery_is_exact(tmp_path, backend):
    path = str(tmp_path / "db")
    db = attach(path, backend=backend, shard_count=_shard_count(backend))
    db.ensure_relation("R", 2).add_all([(i, i + 1) for i in range(20)])
    db.ensure_relation("S", 1).add_all([(i,) for i in range(5)])
    db.checkpoint()
    db["R"].add((100, 101))
    db.checkpoint()  # delta: R only
    db["S"].discard((0,))
    db.checkpoint()  # delta: S only
    db["R"].add((200, 201))  # post-checkpoint WAL suffix
    expected_state, expected_stamps = db_state(db), db_stamps(db)
    db.close()

    manifest = ckpt.read_manifest(path)
    # the base dictionary (and untouched shards) keep ckpt-1 alive
    assert manifest["chain"] == [1, 2, 3]
    recovered = attach(path)
    assert db_state(recovered) == expected_state
    assert db_stamps(recovered) == expected_stamps
    assert recovered.verify().ok
    recovered.close()


def test_chain_folds_into_full_base_at_depth(tmp_path):
    db = attach(str(tmp_path / "db"), backend="columnar", chain_depth=2)
    db.ensure_relation("R", 2).add((1, 2))
    db.ensure_relation("S", 2).add((3, 4))
    db.checkpoint()
    db["R"].add((1, 3))
    db.checkpoint()
    assert not db.last_checkpoint["full"]
    assert ckpt.read_manifest(db.path)["chain"] == [1, 2]
    db["R"].add((1, 4))
    db.checkpoint()  # chain would exceed depth 2: folds
    assert db.last_checkpoint["full"]
    assert ckpt.read_manifest(db.path)["chain"] == [3]
    # S's payload was re-materialized into the new base
    assert any(
        f.startswith("ckpt-3/1.") for f in db.last_checkpoint["files"]
    )
    db.close()


def test_full_flag_forces_a_base(tmp_path):
    db = attach(str(tmp_path / "db"), backend="columnar")
    db.ensure_relation("R", 2).add((1, 2))
    db.checkpoint()
    db["R"].add((2, 3))
    db.checkpoint(full=True)
    assert db.last_checkpoint["full"]
    assert ckpt.read_manifest(db.path)["chain"] == [2]
    db.close()


# ----------------------------------------------------------------------
# WAL rotation + retention
# ----------------------------------------------------------------------
def test_explicit_rotation_seals_and_recovers(tmp_path):
    path = str(tmp_path / "db")
    db = attach(path, backend="columnar", sync="always")
    rel = db.ensure_relation("R", 2)
    rel.add_all([(i, i) for i in range(10)])
    first = db.rotate_wal()
    assert first == "wal-0.1.log"
    rel.add_all([(i, i) for i in range(10, 20)])
    db.flush()
    manifest = ckpt.read_manifest(path)
    assert [s["name"] for s in manifest["segments"]] == ["wal-0.log"]
    assert manifest["wal"] == "wal-0.1.log"
    expected = db_state(db)
    stamps = db_stamps(db)
    db.close()
    recovered = attach(path)
    assert db_state(recovered) == expected
    assert db_stamps(recovered) == stamps
    recovered.close()


def test_size_triggered_rotation(tmp_path):
    path = str(tmp_path / "db")
    db = attach(
        path, backend="columnar", sync="always", wal_segment_bytes=512
    )
    rel = db.ensure_relation("R", 2)
    for i in range(200):
        rel.add((i, i + 1))
    db.flush()
    manifest = ckpt.read_manifest(path)
    assert len(manifest["segments"]) >= 2  # it did rotate, repeatedly
    expected, stamps = db_state(db), db_stamps(db)
    db.close()
    recovered = attach(path)
    assert db_state(recovered) == expected
    assert db_stamps(recovered) == stamps
    assert recovered.verify().ok
    recovered.close()


def test_retention_trims_old_epochs_keeps_current(tmp_path):
    path = str(tmp_path / "db")
    db = attach(path, backend="columnar", sync="always", wal_retain=1)
    rel = db.ensure_relation("R", 2)
    for epoch in range(4):
        rel.add((epoch, epoch))
        db.checkpoint()
    manifest = ckpt.read_manifest(path)
    # at most wal_retain sealed segments survive each checkpoint
    assert len(manifest["segments"]) <= 1
    on_disk = {
        name
        for name in os.listdir(path)
        if ckpt.parse_wal_name(name) is not None
    }
    assert on_disk == {manifest["wal"]} | {
        s["name"] for s in manifest["segments"]
    }
    # the retained segment's epoch checkpoint stays on disk for repair
    for seg in manifest["segments"]:
        if seg["epoch"]:
            assert os.path.isdir(
                os.path.join(path, ckpt.snapshot_dirname(seg["epoch"]))
            )
    db.close()


# ----------------------------------------------------------------------
# garbage collection of crash residue
# ----------------------------------------------------------------------
def test_recovery_collects_tmp_orphans_and_stray_wals(tmp_path):
    path = str(tmp_path / "db")
    db = attach(path, backend="columnar")
    db.ensure_relation("R", 2).add((1, 2))
    db.checkpoint()
    db.close()
    # crash residue: a half-written snapshot dir, orphaned manifest
    # and session temp files, and a WAL from an uncommitted epoch
    os.makedirs(os.path.join(path, "ckpt-9.tmp"))
    for orphan in ("MANIFEST.json.tmp", "session.json.tmp", "wal-99.log"):
        with open(os.path.join(path, orphan), "wb") as handle:
            handle.write(b"residue")
    os.makedirs(os.path.join(path, "quarantine"))
    with open(os.path.join(path, "quarantine", "evidence"), "wb") as handle:
        handle.write(b"keep me")

    recovered = attach(path)
    entries = set(os.listdir(path))
    assert "ckpt-9.tmp" not in entries
    assert "MANIFEST.json.tmp" not in entries
    assert "session.json.tmp" not in entries
    assert "wal-99.log" not in entries
    # quarantined evidence is never collected
    assert os.path.exists(os.path.join(path, "quarantine", "evidence"))
    assert rows_of(recovered["R"]) == {(1, 2)}
    recovered.close()


# ----------------------------------------------------------------------
# the detect-or-repair matrix
# ----------------------------------------------------------------------
def _build_scripted(path, backend):
    """OPS_TOTAL single adds with a checkpoint in the middle; the
    prefix states are exactly ``{(i, i) : i < k}``."""
    db = attach(
        path,
        backend=backend,
        sync="always",
        shard_count=_shard_count(backend),
    )
    rel = db.ensure_relation("R", 2)
    for i in range(OPS_BEFORE_CKPT):
        rel.add((i, i))
    db.checkpoint()
    for i in range(OPS_BEFORE_CKPT, OPS_TOTAL):
        rel.add((i, i))
    db.close()


def _assert_prefix(db):
    """The zero-silent-wrong-answers property: recovered content must
    be ``{(i, i) : i < k}`` for some k — an exact history prefix."""
    if "R" not in db:
        return 0
    rows = rows_of(db["R"])
    k = len(rows)
    assert rows == {(i, i) for i in range(k)}, "not a history prefix"
    return k


def _artifacts(path, backend):
    """One representative per on-disk artifact class."""
    manifest = ckpt.read_manifest(path)
    targets = {
        "ckpt-meta": ("ckpt-1/meta.json", None),
        "manifest": (ckpt.MANIFEST, 1),
        "active-wal": (manifest["wal"], None),
        "sealed-segment": (manifest["segments"][0]["name"], None),
    }
    payloads = sorted(
        f
        for f in manifest["files"]
        if f.startswith("ckpt-1/") and not f.endswith("meta.json")
    )
    targets["ckpt-payload"] = (payloads[0], None)
    targets["ckpt-dictionary"] = ("ckpt-1/dictionary.pkl", None)
    return targets


@pytest.mark.parametrize("backend", BACKENDS)
def test_detect_or_repair_matrix(tmp_path, backend):
    """Every corruption mode x artifact class: the open either raises
    a typed error or lands on a history prefix; repair then restores a
    (possibly longer) prefix and a clean verify."""
    case = 0
    for artifact_kind in _artifacts(
        _built(tmp_path, backend, 0), backend
    ):
        for mode in CORRUPTION_MODES:
            case += 1
            path = _built(tmp_path, backend, case)
            relpath, offset = _artifacts(path, backend)[artifact_kind]
            corrupt_file(os.path.join(path, relpath), mode, offset=offset)
            label = f"{backend}/{artifact_kind}/{mode}"

            opened_clean = True
            try:
                db = attach(path)
            except CorruptionError:
                opened_clean = False
                # detection: the scrub must flag the damage too
                assert not scrub.verify(path).ok, label
            else:
                _assert_prefix(db)
                db.close()

            if opened_clean and scrub.verify(path).ok:
                # e.g. a truncation landing exactly on a record
                # boundary — indistinguishable from a crash, already a
                # consistent prefix; nothing to repair
                continue
            summary = DurableDatabase.repair(path)
            assert summary["action"] in ("truncate", "rebuild"), label
            repaired = attach(path)
            k = _assert_prefix(repaired)
            # the checkpointed prefix can never be lost: either the
            # snapshot chain or the full WAL history reaches it
            assert k >= OPS_BEFORE_CKPT or summary["action"] == "rebuild"
            assert repaired.verify().ok, label
            repaired.close()


def _built(tmp_path, backend, case):
    path = str(tmp_path / f"case-{case}")
    if not os.path.exists(path):
        _build_scripted(path, backend)
    return path


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_corruption_detected_and_repaired_from_wal(
    tmp_path, backend
):
    """The candidate-0 rung: the only checkpoint is damaged but the
    origin WAL survives — repair replays the full history, exactly."""
    path = str(tmp_path / "db")
    _build_scripted(path, backend)
    manifest = ckpt.read_manifest(path)
    payload = sorted(
        f for f in manifest["files"] if not f.endswith("meta.json")
    )[0]
    corrupt_file(os.path.join(path, payload), "bitflip")

    report = scrub.verify(path)
    assert not report.ok
    assert {i.kind for i in report.issues} == {"snapshot-corrupt"}
    with pytest.raises(CorruptSnapshotError):
        attach(path)
    summary = DurableDatabase.repair(path)
    assert summary == {
        "action": "rebuild",
        "source": "wal-history",
        "quarantined": [payload],
    }
    assert os.path.exists(os.path.join(path, "quarantine", payload))
    repaired = attach(path)
    assert rows_of(repaired["R"]) == {(i, i) for i in range(OPS_TOTAL)}
    assert repaired.verify().ok
    repaired.close()


def test_midlog_wal_corruption_is_not_a_torn_tail(tmp_path):
    path = str(tmp_path / "db")
    _build_scripted(path, "columnar")
    active = ckpt.read_manifest(path)["wal"]
    wal_path = os.path.join(path, active)
    corrupt_file(wal_path, "zerofill", offset=40, length=12)

    report = scrub.verify(path)
    assert [i.kind for i in report.issues] == ["wal-corrupt"]
    assert not report.torn_tail_only
    with pytest.raises(CorruptWalError) as excinfo:
        attach(path)
    assert isinstance(excinfo.value, TruncatedHistoryError)
    assert excinfo.value.artifact == active
    summary = DurableDatabase.repair(path)
    assert summary["action"] == "rebuild"
    assert summary["source"] == "ckpt-1"
    assert active in summary["quarantined"]
    repaired = attach(path)
    assert _assert_prefix(repaired) >= OPS_BEFORE_CKPT
    repaired.close()


def test_torn_tail_is_truncated_in_place(tmp_path):
    path = str(tmp_path / "db")
    _build_scripted(path, "columnar")
    active = ckpt.read_manifest(path)["wal"]
    # append MAGIC-free garbage: a torn, partially-flushed record
    with open(os.path.join(path, active), "ab") as handle:
        handle.write(b"\x00" * 11)

    report = scrub.verify(path)
    assert report.torn_tail_only
    summary = DurableDatabase.repair(path)
    assert summary == {
        "action": "truncate",
        "source": active,
        "quarantined": [],
    }
    assert scrub.verify(path).ok
    repaired = attach(path)
    assert rows_of(repaired["R"]) == {(i, i) for i in range(OPS_TOTAL)}
    repaired.close()


def test_repair_on_healthy_directory_is_a_noop(tmp_path):
    path = str(tmp_path / "db")
    _build_scripted(path, "columnar")
    before = sorted(os.listdir(path))
    assert DurableDatabase.repair(path) == {
        "action": "none",
        "source": None,
        "quarantined": [],
    }
    assert sorted(os.listdir(path)) == before


def test_corrupt_manifest_is_repairable(tmp_path):
    path = str(tmp_path / "db")
    _build_scripted(path, "columnar")
    corrupt_file(os.path.join(path, ckpt.MANIFEST), "truncate", offset=5)
    report = scrub.verify(path)
    assert [i.kind for i in report.issues] == ["manifest-corrupt"]
    with pytest.raises(CorruptSnapshotError):
        attach(path)
    assert DurableDatabase.repair(path)["action"] == "rebuild"
    repaired = attach(path)
    assert rows_of(repaired["R"]) == {(i, i) for i in range(OPS_TOTAL)}
    repaired.close()


def test_reseed_from_replica_feed_when_nothing_survives(tmp_path):
    path = str(tmp_path / "db")
    _build_scripted(path, "columnar")
    manifest = ckpt.read_manifest(path)
    corrupt_file(os.path.join(path, "ckpt-1/meta.json"), "bitflip")
    for name in list(manifest["files"]) + [manifest["wal"]] + [
        s["name"] for s in manifest["segments"]
    ]:
        full = os.path.join(path, name)
        if os.path.exists(full):
            os.remove(full)

    with pytest.raises(CorruptSnapshotError) as excinfo:
        DurableDatabase.repair(path)
    assert "degraded=True" in str(excinfo.value)

    leader = connect(
        {"R": [(i, i) for i in range(OPS_TOTAL)]}, backend="columnar"
    )
    summary = DurableDatabase.repair(path, feed=LeaderFeed(leader))
    assert summary["action"] == "reseed"
    assert summary["source"] == "feed"
    repaired = attach(path)
    assert rows_of(repaired["R"]) == {(i, i) for i in range(OPS_TOTAL)}
    assert repaired.verify().ok
    repaired.close()


# ----------------------------------------------------------------------
# degraded opens
# ----------------------------------------------------------------------
def test_degraded_open_serves_the_intact_remainder(tmp_path):
    path = str(tmp_path / "db")
    db = attach(path, backend="columnar", sync="always")
    db.ensure_relation("R", 2).add_all([(i, i) for i in range(20)])
    db.ensure_relation("S", 2).add_all([(i, 0) for i in range(20)])
    db.checkpoint()
    db["S"].add((99, 99))
    db.close()
    # damage R's payload only
    target = sorted(
        f
        for f in ckpt.read_manifest(path)["files"]
        if f.startswith("ckpt-1/0.")
    )[0]
    corrupt_file(os.path.join(path, target), "bitflip")

    with pytest.raises(CorruptSnapshotError):
        attach(path)
    deg = attach(path, degraded=True)
    assert deg.degraded
    assert set(deg.damaged_relations) == {"R"}
    assert rows_of(deg["S"]) == {(i, 0) for i in range(20)} | {(99, 99)}
    with pytest.raises(CorruptSnapshotError):
        deg["R"]
    with pytest.raises(DegradedDatabaseError):
        deg["S"].add((1, 1))
    with pytest.raises(DegradedDatabaseError):
        deg.checkpoint()
    deg.close()


def test_degraded_open_modifies_nothing(tmp_path):
    path = str(tmp_path / "db")
    _build_scripted(path, "columnar")
    corrupt_file(os.path.join(path, "ckpt-1/meta.json"), "bitflip")
    before = {
        name: os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
    }
    deg = attach(path, degraded=True)
    assert "*" in deg.damaged_relations
    deg.close()
    after = {
        name: os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
    }
    assert after == before


def test_degraded_needs_a_manifest(tmp_path):
    with pytest.raises(CorruptSnapshotError):
        attach(str(tmp_path / "fresh"), degraded=True)


# ----------------------------------------------------------------------
# the error taxonomy
# ----------------------------------------------------------------------
def test_error_taxonomy():
    snap = CorruptSnapshotError("ckpt-1/0.c0.npy", "CRC32 mismatch")
    assert isinstance(snap, CorruptionError)
    assert snap.artifact == "ckpt-1/0.c0.npy"
    assert "CRC32 mismatch" in str(snap)
    wal = CorruptWalError("wal-1.log", 128, "mid-log damage")
    assert isinstance(wal, CorruptionError)
    assert isinstance(wal, TruncatedHistoryError)  # sync surface catches it
    assert wal.offset == 128
    assert "wal-1.log" in str(wal)
