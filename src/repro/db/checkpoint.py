"""Atomic per-relation snapshots: the checkpoint half of durability.

A checkpoint is a directory ``ckpt-<n>/`` holding

- ``meta.json`` — one entry per relation (arity, backend kind, stamp,
  shard layout, **source pointers**), plus the dictionary length and
  its source chain;
- ``dictionary.pkl`` — the shared value dictionary *suffix* new since
  the previous checkpoint, in code order (the full value list for a
  base checkpoint);
- per-relation payloads, named by relation *file index* (names may
  not be filename-safe): ``<i>.c<j>.npy`` — one ``np.save`` file per
  column of a columnar relation; ``<i>.s<s>.c<j>.npy`` — per shard,
  per column, for sharded relations.

**Incremental checkpoints.**  ``write_snapshot`` compares each
relation's ``mutation_stamp`` (per shard for sharded relations)
against the previous checkpoint's meta and rewrites only what
advanced; unchanged payloads are *referenced* by source pointers —
``entry["source"]`` names the checkpoint directory that physically
holds the file, ``entry["file_index"]`` its name there.  Every meta
is therefore **self-contained**: recovery reads only the newest
``meta.json`` and follows pointers into older directories (the
*chain*, :func:`chain_of`), never replaying metas transitively.  The
database bounds chain depth (``MAX_CHAIN_DEPTH``) by periodically
folding deltas back into a full base snapshot.

Atomicity is unchanged from the full-snapshot scheme and two-stage.
First the snapshot is written file-by-file into ``ckpt-<n>.tmp``
(each file fsynced) and renamed to ``ckpt-<n>`` in one
``os.replace``.  Second — and this is the *only* commit point —
``MANIFEST.json`` is atomically replaced to reference the new
checkpoint and its fresh WAL file.  A crash anywhere before the
manifest swap leaves the old manifest pointing at the old checkpoint
plus the old (still-growing, still-valid) WAL: recovery never sees a
half-written snapshot.  Stale ``ckpt-*``/``wal-*``/``*.tmp`` files
left by such a crash are garbage-collected on recovery and on the
next successful checkpoint.

**Integrity.**  Every file written here reports its size and CRC32
(the ``written`` map returned by ``write_snapshot``); the database
records them in the manifest and recovery re-checks them on every
read through a :class:`Verifier` — so snapshot corruption surfaces
as :class:`~repro.db.interface.CorruptSnapshotError` at open time,
by construction, never as silently wrong rows.

Snapshots store the *merged* view (pending delta segments included)
and the exact ``mutation_stamp`` per relation (per shard for sharded
relations), so a recovered relation answers ``delta_since`` from the
checkpoint stamp onward — identical semantics to one that compacted
at snapshot time.

Every write/rename site carries a :mod:`repro.util.faultpoints` hook.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import re
import shutil
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.db.columnar import ColumnarRelation, Dictionary
from repro.db.interface import CorruptSnapshotError, check_stored_kind
from repro.db.sharded import ShardedColumnarRelation
from repro.util.faultpoints import declare, fault_point

__all__ = [
    "CRASH_POINTS",
    "MANIFEST",
    "MAX_CHAIN_DEPTH",
    "Verifier",
    "chain_of",
    "commit_manifest",
    "compose_dictionary",
    "load_dictionary",
    "load_snapshot",
    "normalize_meta",
    "parse_wal_name",
    "read_manifest",
    "read_meta",
    "seed_dictionary",
    "wal_filename",
    "wal_segment_filename",
    "write_snapshot",
]

MANIFEST = "MANIFEST.json"

#: Maximum number of distinct checkpoint directories a meta may
#: reference (its base+delta chain) before the next checkpoint folds
#: everything back into one full base.  Bounds both recovery's
#: directory fan-out and the disk held live by old checkpoints.
MAX_CHAIN_DEPTH = 4

CRASH_POINTS = declare(
    "ckpt.begin",
    "ckpt.column.write",
    "ckpt.dictionary.write",
    "ckpt.meta.write",
    "ckpt.dir.rename",
    "ckpt.wal.create",
    "ckpt.manifest.write",
    "ckpt.manifest.rename",
    module=__name__,
)

_WAL_NAME = re.compile(r"wal-(\d+)(?:\.(\d+))?\.log")


def wal_filename(index: int) -> str:
    """The WAL file paired with checkpoint ``index``."""
    return f"wal-{index}.log"


def wal_segment_filename(epoch: int, seq: int) -> str:
    """The ``seq``-th WAL segment of checkpoint epoch ``epoch``.

    ``wal-<epoch>.log`` (seq 0) is created by the checkpoint itself;
    each size-triggered rotation seals the active file *under its own
    name* (no renames — sealed segments are immutable) and opens
    ``wal-<epoch>.<seq>.log`` as the new active tail.
    """
    if seq == 0:
        return wal_filename(epoch)
    return f"wal-{epoch}.{seq}.log"


def parse_wal_name(name: str) -> Optional[Tuple[int, int]]:
    """``(epoch, seq)`` for a WAL file name, or None for non-WAL."""
    match = _WAL_NAME.fullmatch(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2) or 0)


def snapshot_dirname(index: int) -> str:
    return f"ckpt-{index}"


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _digest(data: bytes) -> Dict[str, int]:
    return {"size": len(data), "crc32": zlib.crc32(data) & 0xFFFFFFFF}


def _write_bytes(path: str, data: bytes, point: str) -> Dict[str, int]:
    fault_point(point)
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return _digest(data)


def _write_column(path: str, column: np.ndarray) -> Dict[str, int]:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(column))
    return _write_bytes(path, buffer.getvalue(), "ckpt.column.write")


# ----------------------------------------------------------------------
# verified reads
# ----------------------------------------------------------------------
class Verifier:
    """Size+CRC32-checked reads of checkpoint artifacts.

    ``files`` maps root-relative paths (``ckpt-<n>/<file>``) to
    ``{"size", "crc32"}`` as recorded in the manifest at commit time.
    Reads of tracked files that are missing, resized, or fail the CRC
    raise :class:`CorruptSnapshotError`; untracked files (pre-upgrade
    v1 checkpoints) read unverified, so old directories stay
    openable.
    """

    def __init__(self, root: str, files: Optional[Dict[str, Any]] = None):
        self.root = root
        self.files = files or {}

    def read(self, relpath: str) -> bytes:
        path = os.path.join(self.root, relpath)
        expect = self.files.get(relpath)
        if not os.path.exists(path):
            if expect is not None:
                raise CorruptSnapshotError(relpath, "file is missing")
            raise CorruptSnapshotError(relpath, "file does not exist")
        with open(path, "rb") as handle:
            data = handle.read()
        if expect is not None:
            if len(data) != expect["size"]:
                raise CorruptSnapshotError(
                    relpath,
                    f"size {len(data)} != recorded {expect['size']}",
                )
            if zlib.crc32(data) & 0xFFFFFFFF != expect["crc32"]:
                raise CorruptSnapshotError(relpath, "CRC32 mismatch")
        return data


def _read_bytes(root: str, relpath: str, verifier: Optional[Verifier]):
    if verifier is not None:
        return verifier.read(relpath)
    path = os.path.join(root, relpath)
    if not os.path.exists(path):
        raise CorruptSnapshotError(relpath, "file does not exist")
    with open(path, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# snapshot write
# ----------------------------------------------------------------------
def _shard_sources(entry: Dict[str, Any], meta_index: int, idx: int):
    return entry.get(
        "shard_sources",
        [[meta_index, idx] for _ in entry["shard_stamps"]],
    )


def normalize_meta(meta: Dict[str, Any]) -> Dict[str, Any]:
    """Fill v1 (full-snapshot) metas' source pointers in place.

    A pre-chain meta implicitly holds every payload itself; making
    the pointers explicit lets the rest of the stack treat every meta
    as self-contained.
    """
    index = meta["index"]
    for idx, entry in enumerate(meta["relations"]):
        if entry["kind"] == "sharded":
            entry["shard_sources"] = _shard_sources(entry, index, idx)
        else:
            entry.setdefault("source", index)
            entry.setdefault("file_index", idx)
    if "dict_sources" not in meta:
        length = meta.get("dictionary_len", 0)
        meta["dict_sources"] = [[index, 0, length]] if length else []
    return meta


def chain_of(meta: Dict[str, Any]) -> List[int]:
    """Every checkpoint index the meta's payloads live in, sorted."""
    refs = {meta["index"]}
    for entry in meta["relations"]:
        if entry["kind"] == "sharded":
            refs.update(src for src, _ in entry["shard_sources"])
        else:
            refs.add(entry["source"])
    refs.update(src for src, _, _ in meta.get("dict_sources", ()))
    return sorted(refs)


def write_snapshot(
    root: str,
    db,
    index: int,
    previous: Optional[Dict[str, Any]] = None,
) -> Tuple[str, Dict[str, Any], Dict[str, Dict[str, int]]]:
    """Write ``ckpt-<index>/`` under ``root``.

    With ``previous`` (the prior checkpoint's normalized meta) the
    snapshot is *incremental*: relations — shards, for sharded
    relations — whose ``mutation_stamp`` did not advance are carried
    as source pointers into older directories instead of being
    rewritten, and only the dictionary suffix new since ``previous``
    is stored.  Without it, a full base snapshot.

    Builds the whole directory under ``ckpt-<index>.tmp`` and renames
    once — readers either see a complete snapshot or none.  The
    manifest is *not* touched here; see :func:`commit_manifest`.

    Returns ``(final_path, meta, written)`` where ``written`` maps
    each file's root-relative path to its size and CRC32 for the
    manifest's integrity map.
    """
    tmp = os.path.join(root, snapshot_dirname(index) + ".tmp")
    final = os.path.join(root, snapshot_dirname(index))
    dirname = snapshot_dirname(index)
    for stale in (tmp, final):
        if os.path.exists(stale):
            shutil.rmtree(stale)
    os.makedirs(tmp)
    fault_point("ckpt.begin")
    prev_entries: Dict[str, Dict[str, Any]] = {}
    if previous is not None:
        prev_entries = {e["name"]: e for e in previous["relations"]}
    written: Dict[str, Dict[str, int]] = {}

    def emit_column(filename: str, column: np.ndarray) -> None:
        written[f"{dirname}/{filename}"] = _write_column(
            os.path.join(tmp, filename), column
        )

    def emit_bytes(filename: str, data: bytes, point: str) -> None:
        written[f"{dirname}/{filename}"] = _write_bytes(
            os.path.join(tmp, filename), data, point
        )

    relations: List[Dict[str, Any]] = []
    for idx, rel in enumerate(db):
        entry: Dict[str, Any] = {"name": rel.name, "arity": rel.arity}
        prev = prev_entries.get(rel.name)
        if isinstance(rel, ShardedColumnarRelation):
            entry["kind"] = "sharded"
            entry["shard_count"] = rel.shard_count
            entry["key_column"] = rel.key_column
            reusable = (
                prev is not None
                and prev["kind"] == "sharded"
                and prev["arity"] == rel.arity
                and prev["shard_count"] == rel.shard_count
            )
            stamps: List[int] = []
            counts: List[int] = []
            sources: List[List[int]] = []
            shards = rel.shards
            for s in range(rel.shard_count):
                if (
                    reusable
                    and prev["shard_stamps"][s]
                    == shards[s].mutation_stamp
                ):
                    stamps.append(prev["shard_stamps"][s])
                    counts.append(prev["shard_counts"][s])
                    sources.append(list(prev["shard_sources"][s]))
                    continue
                codes, stamp = shards[s].snapshot_state()
                stamps.append(stamp)
                counts.append(len(codes))
                sources.append([index, idx])
                for j in range(rel.arity):
                    emit_column(f"{idx}.s{s}.c{j}.npy", codes[:, j])
            entry["shard_stamps"] = stamps
            entry["shard_counts"] = counts
            entry["shard_sources"] = sources
        elif isinstance(rel, ColumnarRelation):
            entry["kind"] = "columnar"
            if (
                prev is not None
                and prev["kind"] == "columnar"
                and prev["arity"] == rel.arity
                and prev["stamp"] == rel.mutation_stamp
            ):
                entry["stamp"] = prev["stamp"]
                entry["count"] = prev["count"]
                entry["source"] = prev["source"]
                entry["file_index"] = prev["file_index"]
            else:
                codes, stamp = rel.snapshot_state()
                entry["stamp"] = stamp
                entry["count"] = len(codes)
                entry["source"] = index
                entry["file_index"] = idx
                for j in range(rel.arity):
                    emit_column(f"{idx}.c{j}.npy", codes[:, j])
        relations.append(entry)

    dictionary = db._dictionary
    dict_len = len(dictionary)
    meta: Dict[str, Any] = {
        "index": index,
        "relations": relations,
        "dictionary_len": dict_len,
    }
    if previous is None:
        emit_bytes(
            "dictionary.pkl",
            pickle.dumps(
                dictionary.values(),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
            "ckpt.dictionary.write",
        )
        meta["dict_sources"] = [[index, 0, dict_len]] if dict_len else []
    else:
        sources = [list(s) for s in previous["dict_sources"]]
        prev_len = previous["dictionary_len"]
        if dict_len > prev_len:
            emit_bytes(
                "dictionary.pkl",
                pickle.dumps(
                    dictionary.values()[prev_len:],
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
                "ckpt.dictionary.write",
            )
            sources.append([index, prev_len, dict_len - prev_len])
        meta["dict_sources"] = sources
    emit_bytes(
        "meta.json",
        json.dumps(meta, indent=1).encode("utf-8"),
        "ckpt.meta.write",
    )
    fault_point("ckpt.dir.rename")
    os.replace(tmp, final)
    _fsync_dir(root)
    return final, meta, written


# ----------------------------------------------------------------------
# snapshot read
# ----------------------------------------------------------------------
def read_meta(
    root: str, index: int, verifier: Optional[Verifier] = None
) -> Dict[str, Any]:
    relpath = f"{snapshot_dirname(index)}/meta.json"
    data = _read_bytes(root, relpath, verifier)
    try:
        meta = json.loads(data.decode("utf-8"))
    except Exception as exc:
        raise CorruptSnapshotError(relpath, f"unparseable: {exc}")
    return normalize_meta(meta)


def load_dictionary(root: str, index: int) -> List[Any]:
    """The dictionary values a *base* snapshot stores (may be []).

    Kept for v1 compatibility; chained checkpoints compose their full
    dictionary with :func:`compose_dictionary`.
    """
    path = os.path.join(root, snapshot_dirname(index), "dictionary.pkl")
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        return pickle.load(handle)


def compose_dictionary(
    root: str,
    meta: Dict[str, Any],
    verifier: Optional[Verifier] = None,
) -> List[Any]:
    """The full dictionary value list, concatenated along the chain.

    Each source triple ``[ckpt, start, count]`` says: the suffix
    stored in ``ckpt-<ckpt>/dictionary.pkl`` holds codes
    ``start .. start+count``.  Contiguity and the final length are
    checked — a gap means the chain is damaged.
    """
    values: List[Any] = []
    for src, start, count in meta.get("dict_sources", ()):
        relpath = f"{snapshot_dirname(src)}/dictionary.pkl"
        chunk = pickle.loads(_read_bytes(root, relpath, verifier))
        if start != len(values) or len(chunk) != count:
            raise CorruptSnapshotError(
                relpath,
                f"dictionary chain gap: expected {count} values at "
                f"code {start}, file holds {len(chunk)} at "
                f"{len(values)}",
            )
        values.extend(chunk)
    if len(values) != meta.get("dictionary_len", 0):
        raise CorruptSnapshotError(
            f"{snapshot_dirname(meta['index'])}/meta.json",
            f"dictionary chain yields {len(values)} values, meta "
            f"records {meta['dictionary_len']}",
        )
    return values


def seed_dictionary(
    dictionary: Dictionary,
    root: str,
    meta: Dict[str, Any],
    verifier: Optional[Verifier] = None,
) -> None:
    """Compose the chain's dictionary and bulk-load it into
    ``dictionary`` (codes assigned in stored order).

    Every recovery path re-seeds through this: the stored values are
    by construction fresh and in code order, so the bulk
    :meth:`~repro.db.columnar.Dictionary.extend_tail` applies — and
    its duplicate check turns a corrupt chunk that per-value encoding
    would have silently collapsed (shifting every later code) into a
    loud :class:`CorruptSnapshotError`.
    """
    values = compose_dictionary(root, meta, verifier)
    try:
        dictionary.extend_tail(values)
    except ValueError as exc:
        raise CorruptSnapshotError(
            f"{snapshot_dirname(meta['index'])}/dictionary.pkl",
            f"dictionary chain is not a fresh code-ordered suffix: "
            f"{exc}",
        )


def _load_array(
    root: str, relpath: str, verifier: Optional[Verifier]
) -> np.ndarray:
    data = _read_bytes(root, relpath, verifier)
    try:
        return np.load(io.BytesIO(data), allow_pickle=False)
    except Exception as exc:
        raise CorruptSnapshotError(relpath, f"unreadable array: {exc}")


def _load_codes(
    root: str,
    source: int,
    pattern: str,
    arity: int,
    count: int,
    verifier: Optional[Verifier],
) -> np.ndarray:
    if arity == 0:
        return np.empty((count, 0), dtype=np.int64)
    dirname = snapshot_dirname(source)
    columns = [
        _load_array(root, f"{dirname}/{pattern.format(j=j)}", verifier)
        for j in range(arity)
    ]
    if not count and not len(columns[0]):
        return np.empty((0, arity), dtype=np.int64)
    codes = np.stack(columns, axis=1).astype(np.int64, copy=False)
    if len(codes) != count:
        raise CorruptSnapshotError(
            f"{dirname}/{pattern.format(j=0)}",
            f"{len(codes)} rows on disk, meta records {count}",
        )
    return codes


def load_snapshot(
    root: str,
    index: int,
    dictionary: Optional[Dictionary],
    verifier: Optional[Verifier] = None,
) -> Tuple[List[Any], Dict[str, Any]]:
    """Rebuild the checkpoint's relations; return them plus the meta.

    Follows each entry's source pointers across the base+delta chain,
    verifying every file read against the manifest's recorded
    size/CRC32 when a ``verifier`` is given.  Columnar and sharded
    relations are constructed against the given (already re-seeded)
    shared ``dictionary``; stamps are restored so
    ``delta_since(checkpoint stamp)`` is answerable immediately.
    """
    meta = read_meta(root, index, verifier)
    relations: List[Any] = []
    for entry in meta["relations"]:
        relations.append(load_relation(root, entry, dictionary, verifier))
    return relations, meta


def load_relation(
    root: str,
    entry: Dict[str, Any],
    dictionary: Optional[Dictionary],
    verifier: Optional[Verifier] = None,
):
    """Rebuild one relation from its (possibly chained) meta entry."""
    name, arity, kind = entry["name"], entry["arity"], entry["kind"]
    if kind == "sharded":
        rel = ShardedColumnarRelation(
            name,
            arity,
            dictionary=dictionary,
            shard_count=entry["shard_count"],
            key_column=entry["key_column"],
        )
        states = [
            (
                _load_codes(
                    root,
                    src,
                    f"{fidx}.s{s}.c{{j}}.npy",
                    arity,
                    count,
                    verifier,
                ),
                stamp,
            )
            for s, ((src, fidx), stamp, count) in enumerate(
                zip(
                    entry["shard_sources"],
                    entry["shard_stamps"],
                    entry["shard_counts"],
                )
            )
        ]
        rel.restore_state(states)
    elif kind == "columnar":
        rel = ColumnarRelation(name, arity, dictionary=dictionary)
        rel.restore_state(
            _load_codes(
                root,
                entry["source"],
                f"{entry['file_index']}.c{{j}}.npy",
                arity,
                entry["count"],
                verifier,
            ),
            entry["stamp"],
        )
    else:
        check_stored_kind(kind, name)
    return rel


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def read_manifest(root: str) -> Optional[Dict[str, Any]]:
    """The committed manifest, or ``None`` for a fresh directory.

    v1 manifests (pre-chain, no integrity map) are upgraded in
    memory: a single-element chain, no sealed segments, an empty
    files map (reads of their checkpoints are simply unverified).
    Raises :class:`CorruptSnapshotError` when the manifest exists but
    cannot be parsed — that is mid-file corruption of the commit
    record itself, repairable only by :func:`repro.db.scrub.repair`.
    """
    path = os.path.join(root, MANIFEST)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        manifest = json.loads(data.decode("utf-8"))
    except Exception as exc:
        raise CorruptSnapshotError(MANIFEST, f"unparseable: {exc}")
    if manifest.get("version", 1) < 2:
        manifest.setdefault(
            "chain",
            [manifest["checkpoint"]]
            if manifest.get("checkpoint") is not None
            else [],
        )
        manifest.setdefault("segments", [])
        manifest.setdefault("files", {})
    return manifest


def commit_manifest(root: str, manifest: Dict[str, Any]) -> None:
    """Atomically replace ``MANIFEST.json`` — the durability commit point."""
    tmp = os.path.join(root, MANIFEST + ".tmp")
    _write_bytes(
        tmp,
        json.dumps(manifest, indent=1).encode("utf-8"),
        "ckpt.manifest.write",
    )
    fault_point("ckpt.manifest.rename")
    os.replace(tmp, os.path.join(root, MANIFEST))
    _fsync_dir(root)
