"""Scrub & repair: detect-or-repair for the durable directory.

The durability stack's one uncatchable failure class is silent
corruption — a recovered database serving *wrong rows* would sail
straight past the paper's ``mutation_stamp`` consistency contract,
which assumes the storage layer tells the truth.  This module closes
that hole with two operations over a durable directory:

:func:`verify`
    Re-checks every artifact the manifest vouches for — each
    checkpoint file against its recorded size+CRC32, each sealed WAL
    segment against its whole-file seal, the active WAL frame by
    frame (distinguishing a *torn tail*, the benign crash-mid-append
    residue, from *mid-log* damage with valid records beyond it) —
    and returns a :class:`ScrubReport` of issues.  ``verify`` never
    modifies the directory.

:func:`repair`
    Restores the newest provable-consistent state, in preference
    order: a torn-tail-only directory is truncated in place; anything
    worse quarantines the damaged artifacts into ``quarantine/`` and
    rebuilds from the newest *intact* base+delta checkpoint chain
    plus its undamaged WAL suffix — falling back to ever-older
    checkpoints — and, when no on-disk candidate survives, reseeds
    from a live replica ``feed``.  The rebuilt state is committed as
    a fresh *full* checkpoint + manifest (the usual atomic swap), so
    a crash mid-repair just means repairing again.  When every source
    is exhausted, :class:`CorruptSnapshotError` propagates — the
    caller can still open read-only with ``attach(path,
    degraded=True)`` to evacuate whatever loads.

The repair ladder never *invents* state: every byte it commits was
either verified against a recorded checksum or replayed from a
CRC-valid WAL prefix, so the repaired database is always an exact
earlier-or-equal version of the damaged one (the "consistent prefix"
the fault-injection suite asserts against its oracle).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.db.interface import CorruptionError, CorruptSnapshotError

__all__ = ["ScrubIssue", "ScrubReport", "repair", "verify"]


@dataclass(frozen=True)
class ScrubIssue:
    """One damaged artifact: what, which failure class, and why.

    ``kind`` is one of ``"manifest-corrupt"``, ``"snapshot-missing"``,
    ``"snapshot-corrupt"``, ``"wal-missing"``, ``"wal-corrupt"``,
    ``"wal-torn"`` — only the last is benign (crash residue that
    recovery truncates safely).
    """

    artifact: str
    kind: str
    detail: str


@dataclass
class ScrubReport:
    """The outcome of one :func:`verify` pass."""

    path: str
    issues: List[ScrubIssue] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def torn_tail_only(self) -> bool:
        """True when every issue is a benign active-WAL torn tail."""
        return bool(self.issues) and all(
            issue.kind == "wal-torn" for issue in self.issues
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ok" if self.ok else f"{len(self.issues)} issue(s)"
        return f"ScrubReport({self.path!r}, {self.checked} checked, {state})"


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def verify(path: str) -> ScrubReport:
    """Check every manifest-tracked artifact; modify nothing."""
    from repro.db import checkpoint as ckpt
    from repro.db.wal import scan_wal, seal_info

    report = ScrubReport(path=os.fspath(path))
    try:
        manifest = ckpt.read_manifest(path)
    except CorruptSnapshotError as exc:
        report.issues.append(
            ScrubIssue(ckpt.MANIFEST, "manifest-corrupt", exc.detail)
        )
        return report
    if manifest is None:
        report.issues.append(
            ScrubIssue(ckpt.MANIFEST, "snapshot-missing", "no manifest")
        )
        return report
    verifier = ckpt.Verifier(path, manifest.get("files") or {})
    for relpath in sorted(verifier.files):
        report.checked += 1
        try:
            verifier.read(relpath)
        except CorruptSnapshotError as exc:
            kind = (
                "snapshot-missing"
                if "missing" in exc.detail
                else "snapshot-corrupt"
            )
            report.issues.append(ScrubIssue(relpath, kind, exc.detail))
    for seg in manifest.get("segments") or []:
        report.checked += 1
        seg_path = os.path.join(path, seg["name"])
        if not os.path.exists(seg_path):
            report.issues.append(
                ScrubIssue(seg["name"], "wal-missing", "sealed segment "
                           "is missing")
            )
            continue
        actual = seal_info(seg_path)
        if actual != {"size": seg["size"], "crc32": seg["crc32"]}:
            report.issues.append(
                ScrubIssue(
                    seg["name"],
                    "wal-corrupt",
                    f"sealed {seg['size']}B/crc {seg['crc32']}, found "
                    f"{actual['size']}B/crc {actual['crc32']}",
                )
            )
    active = manifest.get("wal")
    if active:
        report.checked += 1
        _, valid, damage = scan_wal(os.path.join(path, active))
        if damage == "torn":
            report.issues.append(
                ScrubIssue(
                    active,
                    "wal-torn",
                    f"torn tail after byte {valid} (safe to truncate)",
                )
            )
        elif damage == "corrupt":
            report.issues.append(
                ScrubIssue(
                    active,
                    "wal-corrupt",
                    f"valid records beyond damage at byte {valid}",
                )
            )
    return report


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
def _quarantine(path: str, artifacts) -> List[str]:
    """Move damaged artifacts under ``quarantine/`` (keeping them for
    forensics — repair never destroys evidence)."""
    qdir = os.path.join(path, "quarantine")
    moved: List[str] = []
    for artifact in sorted(set(artifacts)):
        src = os.path.join(path, artifact)
        if not os.path.exists(src):
            continue
        dst = os.path.join(qdir, artifact)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        if os.path.exists(dst):
            if os.path.isdir(dst):
                shutil.rmtree(dst)
            else:
                os.remove(dst)
        os.replace(src, dst)
        moved.append(artifact)
    return moved


def _candidate_indices(path: str, manifest) -> List[int]:
    """Checkpoint indices to attempt rebuilding from, newest first."""
    indices = set()
    if manifest is not None:
        if manifest.get("checkpoint") is not None:
            indices.add(manifest["checkpoint"])
        indices.update(manifest.get("chain") or [])
        for seg in manifest.get("segments") or []:
            if seg["epoch"]:
                indices.add(seg["epoch"])
    for entry in os.listdir(path):
        if entry.startswith("ckpt-") and not entry.endswith(".tmp"):
            try:
                indices.add(int(entry[len("ckpt-"):]))
            except ValueError:
                continue
    # Candidate 0 is the empty origin: no snapshot, full WAL history
    # from wal-0.log onward — the last on-disk rung of the ladder,
    # viable only while the origin WAL is still retained.
    indices.add(0)
    return sorted(indices, reverse=True)


def _wal_files_from(path: str, manifest, start_epoch: int):
    """The WAL files holding ops after checkpoint ``start_epoch``, in
    replay order: sealed segments (with their seals, when the manifest
    records them) then the active file, epoch/seq ordered."""
    from repro.db import checkpoint as ckpt

    known: Dict[Tuple[int, int], Optional[dict]] = {}
    if manifest is not None:
        for seg in manifest.get("segments") or []:
            known[(seg["epoch"], seg["seq"])] = seg
    active_key = None
    active = manifest.get("wal") if manifest is not None else None
    for entry in os.listdir(path):
        parsed = ckpt.parse_wal_name(entry)
        if parsed is not None:
            known.setdefault(parsed, None)
            if entry == active:
                active_key = parsed
    ordered = []
    for key in sorted(known):
        epoch, seq = key
        if epoch < start_epoch:
            continue
        seal = known[key]
        name = ckpt.wal_segment_filename(epoch, seq)
        ordered.append((key, name, seal, key == active_key))
    return ordered


def _rebuild_from_checkpoint(path: str, manifest, index: int):
    """Load checkpoint ``index`` + its undamaged WAL suffix, or raise.

    Returns ``(relations, dictionary, quarantine_list)`` — the longest
    provably-consistent prefix reachable from this candidate, plus the
    artifacts found damaged along the way.
    """
    from repro.db import checkpoint as ckpt
    from repro.db.columnar import Dictionary
    from repro.db.database import replay_records
    from repro.db.wal import read_records, scan_wal, seal_info

    files = (manifest.get("files") or {}) if manifest is not None else {}
    verifier = ckpt.Verifier(path, files)
    dictionary = Dictionary()
    relations: Dict[str, Any] = {}
    if index == 0:
        # The empty-origin candidate: everything must come from the
        # complete WAL history, so its first file is load-bearing —
        # without it an "empty" rebuild would fabricate data loss.
        if not os.path.exists(os.path.join(path, ckpt.wal_filename(0))):
            raise CorruptSnapshotError(
                ckpt.wal_filename(0), "origin WAL is no longer retained"
            )
    else:
        meta = ckpt.read_meta(path, index, verifier)
        ckpt.seed_dictionary(dictionary, path, meta, verifier)
        for entry in meta["relations"]:
            relations[entry["name"]] = ckpt.load_relation(
                path, entry, dictionary, verifier
            )
    # Replay the WAL suffix, stopping at the first damaged file or
    # sequence gap — a missing (epoch, seq) means later files may
    # depend on lost ops, so nothing after it can be applied
    # (consistent-prefix discipline).  Legal successors of (a, s) are
    # (a, s+1) — a rotation — and (a+1, 0) — a checkpoint; the replay
    # must begin at exactly (index, 0), the WAL the candidate
    # checkpoint itself created.
    damaged: List[str] = []
    expected = {(index, 0)}
    for key, name, seal, is_active in _wal_files_from(
        path, manifest, index
    ):
        if key not in expected:
            break
        expected = {(key[0], key[1] + 1), (key[0] + 1, 0)}
        full = os.path.join(path, name)
        if not os.path.exists(full):
            damaged.append(name)
            break
        if seal is not None and seal_info(full) != {
            "size": seal["size"],
            "crc32": seal["crc32"],
        }:
            damaged.append(name)
            break
        if is_active or seal is None:
            records, _, damage = scan_wal(full)
            replay_records(relations, dictionary, records)
            if damage is not None:
                damaged.append(name)
                break
        else:
            records, _ = read_records(full)
            replay_records(relations, dictionary, records)
    return relations, dictionary, damaged


def _seed_from_feed(feed):
    """Build relations + dictionary from a replica feed's handshake."""
    from repro.db.columnar import ColumnarRelation, Dictionary
    from repro.db.sharded import ShardedColumnarRelation

    import numpy as np

    seed = feed.handshake()
    dictionary = Dictionary()
    for value in seed["dict_values"]:
        dictionary.encode(value)
    relations: Dict[str, Any] = {}
    for entry in seed["relations"]:
        name, arity = entry["name"], entry["arity"]
        content = entry["content"]
        if seed["backend"] == "sharded":
            rel = ShardedColumnarRelation(
                name,
                arity,
                dictionary=dictionary,
                shard_count=seed["shard_count"],
            )
        else:
            rel = ColumnarRelation(name, arity, dictionary=dictionary)
        if len(content):
            rel.add_coded_batch(
                np.asarray(content, dtype=np.int64).reshape(
                    len(content), arity
                )
            )
        relations[name] = rel
    return relations, dictionary, seed


class _RepairedState:
    """The minimal database duck :func:`checkpoint.write_snapshot`
    needs: iteration order + the shared dictionary."""

    def __init__(self, relations, dictionary):
        self._relations = relations
        self._dictionary = dictionary

    def __iter__(self):
        return iter(self._relations.values())


def _infer_layout(manifest, relations) -> Tuple[str, Optional[int]]:
    from repro.db.sharded import ShardedColumnarRelation

    if manifest is not None:
        return manifest["backend"], manifest.get("shard_count")
    for rel in relations.values():
        if isinstance(rel, ShardedColumnarRelation):
            return "sharded", rel.shard_count
    return "columnar", None


def repair(path: str, feed=None) -> Dict[str, Any]:
    """Restore the newest provably-consistent state of ``path``.

    Returns a summary dict: ``action`` (``"none"``, ``"truncate"``,
    ``"rebuild"``, ``"reseed"``), the repair ``source``, and the
    ``quarantined`` artifacts.  Raises
    :class:`~repro.db.interface.CorruptSnapshotError` when no intact
    checkpoint chain survives and no ``feed`` was given — the
    directory is then only openable with ``attach(path,
    degraded=True)``.
    """
    from repro.db import checkpoint as ckpt
    from repro.db.wal import scan_wal

    path = os.fspath(path)
    report = verify(path)
    if report.ok:
        return {"action": "none", "source": None, "quarantined": []}
    if report.torn_tail_only:
        # The benign case: physically truncate the torn tail, exactly
        # as a normal recovery would.
        manifest = ckpt.read_manifest(path)
        wal_path = os.path.join(path, manifest["wal"])
        _, valid, _ = scan_wal(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(valid)
        return {
            "action": "truncate",
            "source": manifest["wal"],
            "quarantined": [],
        }
    try:
        manifest = ckpt.read_manifest(path)
    except CorruptSnapshotError:
        manifest = None
    quarantine = {
        issue.artifact
        for issue in report.issues
        if issue.kind != "wal-torn"
    }
    rebuilt = None
    source: Any = None
    for index in _candidate_indices(path, manifest):
        try:
            relations, dictionary, damaged = _rebuild_from_checkpoint(
                path, manifest, index
            )
        except CorruptionError:
            continue
        quarantine.update(damaged)
        rebuilt = (relations, dictionary)
        source = f"ckpt-{index}" if index else "wal-history"
        action = "rebuild"
        break
    if rebuilt is None and feed is not None:
        relations, dictionary, seed = _seed_from_feed(feed)
        rebuilt = (relations, dictionary)
        source = "feed"
        action = "reseed"
        manifest = manifest or {
            "backend": seed["backend"],
            "shard_count": seed["shard_count"],
        }
    if rebuilt is None:
        raise CorruptSnapshotError(
            path,
            "no intact checkpoint chain and no replica feed to reseed "
            "from; open with attach(path, degraded=True) to salvage "
            "what remains",
        )
    relations, dictionary = rebuilt
    backend, shard_count = _infer_layout(manifest, relations)
    # Quarantine the damage, then commit the rebuilt state as a fresh
    # full checkpoint — same atomic manifest swap as a live
    # checkpoint, so a crash mid-repair only means repairing again.
    quarantined = _quarantine(
        path,
        (a for a in quarantine if a != ckpt.MANIFEST),
    )
    new_index = max(_candidate_indices(path, manifest) or [0]) + 1
    state = _RepairedState(relations, dictionary)
    _, meta, written = ckpt.write_snapshot(path, state, new_index)
    new_wal = ckpt.wal_filename(new_index)
    with open(os.path.join(path, new_wal), "wb") as handle:
        handle.flush()
        os.fsync(handle.fileno())
    ckpt.commit_manifest(
        path,
        {
            "version": 2,
            "backend": backend,
            "shard_count": shard_count,
            "checkpoint": new_index,
            "chain": ckpt.chain_of(meta),
            "wal": new_wal,
            "segments": [],
            "files": written,
            "wal_retain": (
                manifest.get("wal_retain", 4) if manifest else 4
            ),
        },
    )
    return {
        "action": action,
        "source": source,
        "quarantined": quarantined,
    }
