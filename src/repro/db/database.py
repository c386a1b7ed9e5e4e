"""The :class:`Database`: a name-indexed collection of relations.

A database instance ``D`` for a query ``q`` supplies one relation per
relation *symbol* of ``q``.  Self-joins mean several atoms can share a
symbol and hence a relation.  The input size ``m = size(D)`` is the
total number of tuples across relations — the parameter every runtime
bound in the paper is stated in.

:class:`DurableDatabase` binds a database to an on-disk directory:
every mutation is mirrored into a write-ahead log
(:mod:`repro.db.wal`), :meth:`DurableDatabase.checkpoint` rolls the
log into an atomic snapshot (:mod:`repro.db.checkpoint`), and
:func:`attach` recovers snapshot + log suffix after a crash.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence

from repro.db.columnar import ColumnarRelation, Dictionary
from repro.db.executor import executor_for
from repro.db.interface import (
    BACKENDS,
    CorruptSnapshotError,
    CorruptWalError,
    DegradedDatabaseError,
    check_backend,
)
from repro.db.relation import Relation, Row, Value
from repro.db.sharded import ShardedColumnarRelation


class Database:
    """A mapping from relation names to relation objects.

    The ``backend`` switch selects the storage class for relations the
    database creates itself (:meth:`from_dict`, :meth:`ensure_relation`,
    :meth:`to_backend`): ``"python"`` (default) builds hash-set
    :class:`Relation` objects, ``"columnar"`` builds dictionary-encoded
    :class:`~repro.db.columnar.ColumnarRelation` objects that all share
    one value :class:`~repro.db.columnar.Dictionary`, so the vectorized
    join stack compares int codes instead of Python values, and
    ``"sharded"`` builds hash-partitioned
    :class:`~repro.db.sharded.ShardedColumnarRelation` objects
    (``shard_count`` shards each, over the same shared dictionary) —
    a storage layout for batched ingestion, per-shard compaction /
    checkpoints and spilling; queries read it like a columnar relation.
    """

    def __init__(
        self,
        relations: Optional[Iterable[Relation]] = None,
        backend: str = "python",
        shard_count: Optional[int] = None,
        workers: Optional[int] = None,
        spill_dir: Optional[str] = None,
        max_resident_shards: Optional[int] = None,
    ) -> None:
        self.backend = check_backend(backend)
        self._dictionary: Optional[Dictionary] = (
            Dictionary() if backend in ("columnar", "sharded") else None
        )
        self.shard_count = shard_count
        # Per-shard storage / residency knobs (sharded backend only):
        # workers sizes the ShardExecutor every created relation's
        # per-shard storage maps dispatch through; spill_dir /
        # max_resident_shards configure an LRU SpillPool that keeps
        # only the hot shards' main segments in RAM (out-of-core).
        self.workers = workers
        self.executor = (
            executor_for(workers) if workers is not None else None
        )
        self.spill = None
        if spill_dir is not None or max_resident_shards is not None:
            from repro.db.spill import SpillPool

            self.spill = SpillPool(spill_dir, max_resident_shards)
        self._relations: Dict[str, Relation] = {}
        if relations is not None:
            for rel in relations:
                self.add_relation(rel)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_relation(
        self, name: str, arity: int, rows: Optional[Iterable] = None
    ):
        """A relation of this database's backend (not yet registered).

        Columnar and sharded relations share the database-wide value
        dictionary, so joins between them compare codes directly.
        """
        if self.backend == "sharded":
            return ShardedColumnarRelation(
                name,
                arity,
                rows,
                dictionary=self._dictionary,
                shard_count=self.shard_count,
                executor=self.executor,
                spill=self.spill,
            )
        if self.backend == "columnar":
            return ColumnarRelation(
                name, arity, rows, dictionary=self._dictionary
            )
        return Relation(name, arity, rows)

    def configure_shard_runtime(
        self,
        workers: Optional[int] = None,
        spill_dir: Optional[str] = None,
        max_resident_shards: Optional[int] = None,
    ) -> None:
        """Set the shard executor / spill pool after construction.

        ``workers`` replaces the database executor and rewires every
        existing sharded relation to it; the spill knobs create an LRU
        :class:`~repro.db.spill.SpillPool` (once — a database keeps
        its first pool) and register existing sharded relations with
        it.  ``None`` arguments leave the corresponding setting alone.
        """
        if workers is not None:
            self.workers = workers
            self.executor = executor_for(workers)
            for rel in self._relations.values():
                if isinstance(rel, ShardedColumnarRelation):
                    rel.executor = self.executor
        if (
            spill_dir is not None or max_resident_shards is not None
        ) and self.spill is None:
            from repro.db.spill import SpillPool

            self.spill = SpillPool(spill_dir, max_resident_shards)
            for rel in self._relations.values():
                if (
                    isinstance(rel, ShardedColumnarRelation)
                    and rel.spill is None
                ):
                    rel.attach_spill(self.spill)

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Iterable[Sequence[Value]]],
        backend: str = "python",
        shard_count: Optional[int] = None,
        workers: Optional[int] = None,
        spill_dir: Optional[str] = None,
        max_resident_shards: Optional[int] = None,
    ) -> "Database":
        """Build a database from ``{name: iterable of tuples}``.

        Arity is inferred from the first tuple of each relation; empty
        iterables are rejected here because their arity is ambiguous
        (use :meth:`add_relation` with an explicit arity instead).
        """
        db = cls(
            backend=backend,
            shard_count=shard_count,
            workers=workers,
            spill_dir=spill_dir,
            max_resident_shards=max_resident_shards,
        )
        for name, rows in data.items():
            rows = [tuple(r) for r in rows]
            if not rows:
                raise ValueError(
                    f"cannot infer arity of empty relation {name!r}; "
                    "construct a Relation with explicit arity instead"
                )
            db.add_relation(db.new_relation(name, len(rows[0]), rows))
        return db

    def add_relation(self, relation: Relation) -> None:
        """Register a relation; names must be unique.

        Any backend's relation object may be registered regardless of
        the database's own backend — the frame layer coerces between
        backends where needed.
        """
        if relation.name in self._relations:
            raise ValueError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation

    def ensure_relation(self, name: str, arity: int) -> Relation:
        """Get the named relation, creating an empty one if absent.

        Created relations use the database's backend.
        """
        rel = self._relations.get(name)
        if rel is None:
            rel = self.new_relation(name, arity)
            self._relations[name] = rel
        elif rel.arity != arity:
            raise ValueError(
                f"relation {name!r} has arity {rel.arity}, expected {arity}"
            )
        return rel

    def to_backend(
        self, backend: str, shard_count: Optional[int] = None
    ) -> "Database":
        """A copy of this database with every relation converted.

        Converting to ``"columnar"`` bulk-encodes each relation into a
        dictionary shared across the new database; ``"sharded"``
        additionally hash-routes each relation's batch across
        ``shard_count`` shards (default: the size heuristic
        :func:`repro.db.interface.preferred_shard_count`); converting
        to ``"python"`` decodes back to tuple sets.  A no-op backend
        still returns an independent copy.
        """
        if backend == "sharded" and shard_count is None:
            from repro.db.interface import preferred_shard_count

            shard_count = self.shard_count or preferred_shard_count(
                self.size()
            )
        # Worker configuration carries over (it is backend-agnostic);
        # a spill pool does not — it manages the residency of exactly
        # the shards registered with it.
        out = Database(
            backend=backend, shard_count=shard_count, workers=self.workers
        )
        for rel in self._relations.values():
            out.add_relation(out.new_relation(rel.name, rel.arity, rel))
        return out

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r} in database") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> Iterator[str]:
        return iter(self._relations.keys())

    def size(self) -> int:
        """Total number of tuples, the ``m`` of every bound in the paper."""
        return sum(len(rel) for rel in self._relations.values())

    def active_domain(self) -> set:
        """Union of all values appearing in any relation."""
        dom: set = set()
        for rel in self._relations.values():
            dom.update(rel.active_domain())
        return dom

    def copy(self) -> "Database":
        """Deep copy (relations are copied, indexes are not shared).

        The semijoin passes of the Yannakakis algorithm mutate relations
        in place, so algorithm entry points copy their input first to
        keep the public API side-effect free.
        """
        out = Database(
            backend=self.backend,
            shard_count=self.shard_count,
            workers=self.workers,
        )
        # Copied columnar relations keep their (append-only) dictionary;
        # the copy must create new relations against that same one to
        # preserve the shared-dictionary invariant.
        out._dictionary = self._dictionary
        for rel in self._relations.values():
            out.add_relation(rel.copy())
        return out

    def close(self) -> None:
        """Release runtime resources deterministically (idempotent).

        In-memory databases only hold one kind of external resource —
        the spill pool's memmaps and ``.npy`` files — and closing
        returns every spilled shard to RAM and deletes the files.  The
        shard executor is deliberately *not* shut down here: pools are
        process-shared per worker count (see
        :func:`repro.db.executor.close_shared_pools` for an explicit
        global quiesce).  The database stays readable after close.
        """
        if self.spill is not None:
            self.spill.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{r.name}:{r.arity}({len(r)})" for r in self._relations.values()
        )
        return f"Database({parts})"


def replay_records(
    relations: Dict[str, Any], dictionary, records
) -> None:
    """Apply WAL records to a name→relation mapping, in order.

    The single replay semantics shared by crash recovery
    (:class:`DurableDatabase`) and WAL-file follower catch-up
    (:class:`repro.engine.replication.FollowerSession`): every record
    reproduces exactly one relation-level event, so replaying a
    suffix after a snapshot restores content *and*
    ``mutation_stamp`` sequences bit-exactly.
    """
    from repro.db.wal import (
        REC_BATCH,
        REC_COMPACT,
        REC_CREATE,
        REC_DICT,
        REC_OP,
        REC_REMOVE,
    )

    for record_type, payload in records:
        if record_type == REC_DICT:
            encode = dictionary.encode
            for value in payload:
                encode(value)
        elif record_type == REC_CREATE:
            name, arity, spec = payload
            kind = spec["kind"]
            if kind == "sharded":
                rel = ShardedColumnarRelation(
                    name,
                    arity,
                    dictionary=dictionary,
                    shard_count=spec["shard_count"],
                    key_column=spec["key_column"],
                )
                rel.restore_state(spec["state"])
            elif kind == "columnar":
                rel = ColumnarRelation(name, arity, dictionary=dictionary)
                rel.restore_state(*spec["state"])
            else:
                rel = Relation(name, arity)
                rel.restore_state(*spec["state"])
            relations[name] = rel
        elif record_type == REC_OP:
            name, coded, insert = payload
            rel = relations[name]
            if isinstance(rel, ColumnarRelation):
                rel.apply_coded(coded, insert)
            elif insert:
                rel.add(coded)
            else:
                rel.discard(coded)
        elif record_type == REC_BATCH:
            name, codes = payload
            relations[name].add_coded_batch(codes)
        elif record_type == REC_REMOVE:
            name, rows = payload
            rel = relations[name]
            if isinstance(rel, ColumnarRelation):
                rel.remove_coded_batch(rows)
            else:
                rel.remove_batch(rows)
        elif record_type == REC_COMPACT:
            relations[payload].compact()


class _DegradedJournal:
    """The journal of a degraded (read-only) open: every mutation
    attempt fails loudly instead of silently not being durable."""

    def _refuse(self, *args, **kwargs):
        raise DegradedDatabaseError(
            "database was opened degraded (read-only); mutations are "
            "not durable here — repair the directory and reopen"
        )

    record_create = record_op = record_batch = _refuse
    record_remove = record_compact = _refuse


class DurableDatabase(Database):
    """A :class:`Database` bound to an on-disk directory.

    Layout under ``path``: ``MANIFEST.json`` (the atomic commit
    point), one active WAL file plus zero or more sealed, immutable
    WAL segments (every mutation, framed and CRC-checked —
    :mod:`repro.db.wal`), and the checkpoint directories of the
    current base+delta *chain* (:mod:`repro.db.checkpoint`) plus any
    older ones retained for follower catch-up and repair.

    Opening an existing directory *recovers*: the newest checkpoint's
    (self-contained) meta is followed across the chain, every file
    read is verified against the manifest's recorded size/CRC32, the
    dictionary re-seeded, then the current epoch's sealed WAL
    segments and the active WAL are replayed record-by-record
    (stopping at — and physically truncating — the first *torn*
    record).  Damage that is not a clean torn tail raises
    :class:`~repro.db.interface.CorruptSnapshotError` /
    :class:`~repro.db.interface.CorruptWalError` — see
    :meth:`verify`, :meth:`repair`, and ``degraded=True`` for the
    recovery ladder.  Recovered relations resume with the same
    content and ``mutation_stamp`` values every fully-logged
    operation had reached, so derived structures resync through the
    ordinary ``delta_since`` contract.  The stored backend always
    wins over the constructor argument on recovery.

    ``sync``: ``"always"`` fsyncs per record (an acked mutation
    survives any crash), ``"batch"`` (default) fsyncs at
    checkpoint/flush/close, ``"never"`` leaves it to the OS.

    Robustness knobs (all persisted or harmless to vary per open):

    - ``wal_retain`` — how many sealed segments from *before* the
      current checkpoint epoch to keep for follower catch-up and
      older-snapshot repair (default 4; current-epoch segments are
      always kept — recovery needs them).
    - ``wal_segment_bytes`` — seal and rotate the active WAL once it
      exceeds this size (None: rotate only at :meth:`rotate_wal` /
      :meth:`checkpoint`).
    - ``chain_depth`` — fold incremental checkpoints back into a
      full base once the chain would reference more than this many
      directories (default
      :data:`repro.db.checkpoint.MAX_CHAIN_DEPTH`).
    - ``degraded`` — open read-only, loading whatever is intact and
      listing the rest in ``damaged_relations``; any mutation raises
      :class:`~repro.db.interface.DegradedDatabaseError`.
    """

    def __init__(
        self,
        path: str,
        backend: str = "columnar",
        shard_count: Optional[int] = None,
        sync: str = "batch",
        wal_retain: Optional[int] = None,
        wal_segment_bytes: Optional[int] = None,
        chain_depth: Optional[int] = None,
        degraded: bool = False,
        workers: Optional[int] = None,
        spill_dir: Optional[str] = None,
        max_resident_shards: Optional[int] = None,
    ) -> None:
        from repro.db import checkpoint as ckpt
        from repro.db.wal import WalJournal, WalWriter

        self.path = os.fspath(path)
        self.sync = sync
        self.degraded = degraded
        self.wal_segment_bytes = wal_segment_bytes
        self.chain_depth = (
            chain_depth if chain_depth is not None else ckpt.MAX_CHAIN_DEPTH
        )
        self.damaged_relations: Dict[str, str] = {}
        self.last_checkpoint: Optional[Dict[str, Any]] = None
        os.makedirs(self.path, exist_ok=True)
        manifest = ckpt.read_manifest(self.path)
        if manifest is None:
            if degraded:
                raise CorruptSnapshotError(
                    ckpt.MANIFEST, "nothing to open degraded: no manifest"
                )
            super().__init__(
                backend=backend,
                shard_count=shard_count,
                workers=workers,
                spill_dir=spill_dir,
                max_resident_shards=max_resident_shards,
            )
            self._ckpt_index: Optional[int] = None
            self._ckpt_meta: Optional[Dict[str, Any]] = None
            self._segments: list = []
            self._files: Dict[str, Any] = {}
            self._wal_name = ckpt.wal_filename(0)
            self.wal_retain = 4 if wal_retain is None else wal_retain
            wal_path = os.path.join(self.path, self._wal_name)
            self._writer = WalWriter(wal_path, sync=sync)
            ckpt.commit_manifest(self.path, self._manifest_dict())
        else:
            super().__init__(
                backend=manifest["backend"],
                shard_count=manifest["shard_count"],
                workers=workers,
                spill_dir=spill_dir,
                max_resident_shards=max_resident_shards,
            )
            self._ckpt_index = manifest["checkpoint"]
            self._ckpt_meta = None
            self._segments = list(manifest.get("segments") or [])
            self._files = dict(manifest.get("files") or {})
            self._wal_name = manifest["wal"]
            self.wal_retain = (
                manifest.get("wal_retain", 4)
                if wal_retain is None
                else wal_retain
            )
            verifier = ckpt.Verifier(self.path, self._files)
            if degraded:
                self._load_degraded(verifier)
                self._writer = None
                self._journal = _DegradedJournal()
                for rel in self._relations.values():
                    rel._journal = self._journal
                self._attach_shard_runtime()
                return
            if self._ckpt_index is not None:
                meta = ckpt.read_meta(
                    self.path, self._ckpt_index, verifier
                )
                self._ckpt_meta = meta
                ckpt.seed_dictionary(
                    self._dictionary, self.path, meta, verifier
                )
                for entry in meta["relations"]:
                    rel = ckpt.load_relation(
                        self.path, entry, self._dictionary, verifier
                    )
                    self._relations[rel.name] = rel
            valid = self._replay_wal_files(verifier, strict=True)
            wal_path = os.path.join(self.path, self._wal_name)
            self._writer = WalWriter(
                wal_path, sync=sync, truncate_to=valid
            )
        self._journal = WalJournal(self._writer, self._dictionary)
        if self.wal_segment_bytes:
            self._journal.on_record = self._maybe_rotate
        for rel in self._relations.values():
            rel._journal = self._journal
        self._attach_shard_runtime()
        self._collect_garbage()

    def _attach_shard_runtime(self) -> None:
        """Wire the executor / spill pool into recovered relations.

        Checkpoint loading and WAL replay construct relations outside
        :meth:`new_relation`, so relations recovered from disk would
        otherwise miss the database-level worker pool and spill knobs.
        """
        for rel in self._relations.values():
            if isinstance(rel, ShardedColumnarRelation):
                if self.executor is not None:
                    rel.executor = self.executor
                if self.spill is not None and rel.spill is None:
                    rel.attach_spill(self.spill)

    # ------------------------------------------------------------------
    # recovery: WAL replay (sealed segments of this epoch + active)
    # ------------------------------------------------------------------
    @property
    def _epoch(self) -> int:
        return self._ckpt_index or 0

    def _epoch_segments(self):
        return sorted(
            (s for s in self._segments if s["epoch"] == self._epoch),
            key=lambda s: s["seq"],
        )

    def _replay_wal_files(self, verifier, strict: bool) -> int:
        """Replay this epoch's sealed segments, then the active WAL.

        Returns the active WAL's valid-prefix length (the truncation
        point for the resumed writer).  ``strict`` raises
        :class:`CorruptWalError` on a sealed-segment checksum failure
        or mid-log damage in the active file; non-strict (degraded
        open) stops at the consistent prefix instead.
        """
        from repro.db.wal import read_records, scan_wal, seal_info

        for seg in self._epoch_segments():
            seg_path = os.path.join(self.path, seg["name"])
            if not os.path.exists(seg_path):
                actual = None
            else:
                actual = seal_info(seg_path)
            if actual != {"size": seg["size"], "crc32": seg["crc32"]}:
                if strict:
                    raise CorruptWalError(
                        seg["name"],
                        0,
                        "sealed segment fails its manifest checksum"
                        if actual is not None
                        else "sealed segment is missing",
                    )
                return 0  # stop at the consistent prefix
            records, _ = read_records(seg_path)
            self._replay(records)
        wal_path = os.path.join(self.path, self._wal_name)
        records, valid, damage = scan_wal(wal_path)
        if damage == "corrupt" and strict:
            raise CorruptWalError(
                self._wal_name,
                valid,
                "valid records exist beyond the damage (mid-log "
                "corruption, not a torn tail)",
            )
        self._replay(records)
        return valid

    def _load_degraded(self, verifier) -> None:
        """Best-effort load: keep what verifies, list what does not."""
        from repro.db import checkpoint as ckpt

        dictionary_ok = True
        meta = None
        if self._ckpt_index is not None:
            try:
                meta = ckpt.read_meta(
                    self.path, self._ckpt_index, verifier
                )
                self._ckpt_meta = meta
            except CorruptSnapshotError as exc:
                self.damaged_relations["*"] = str(exc)
                return
            if self._dictionary is not None:
                try:
                    ckpt.seed_dictionary(
                        self._dictionary, self.path, meta, verifier
                    )
                except CorruptSnapshotError as exc:
                    dictionary_ok = False
                    self.damaged_relations["<dictionary>"] = str(exc)
            for entry in meta["relations"]:
                if not dictionary_ok and entry["kind"] != "python":
                    self.damaged_relations[entry["name"]] = (
                        "shared dictionary is corrupt"
                    )
                    continue
                try:
                    rel = ckpt.load_relation(
                        self.path, entry, self._dictionary, verifier
                    )
                except CorruptSnapshotError as exc:
                    self.damaged_relations[entry["name"]] = str(exc)
                    continue
                self._relations[rel.name] = rel
        self._replay_degraded(dictionary_ok)

    def _replay_degraded(self, dictionary_ok: bool) -> None:
        from repro.db.wal import (
            REC_COMPACT,
            REC_CREATE,
            REC_DICT,
            read_records,
            scan_wal,
            seal_info,
        )

        batches = []
        for seg in self._epoch_segments():
            seg_path = os.path.join(self.path, seg["name"])
            if not os.path.exists(seg_path) or seal_info(seg_path) != {
                "size": seg["size"],
                "crc32": seg["crc32"],
            }:
                break  # consistent prefix only
            batches.append(read_records(seg_path)[0])
        else:
            wal_path = os.path.join(self.path, self._wal_name)
            batches.append(scan_wal(wal_path)[0])
        for records in batches:
            for record in records:
                record_type, payload = record
                if record_type == REC_DICT:
                    if not dictionary_ok:
                        continue
                    name = None
                elif record_type == REC_COMPACT:
                    name = payload
                else:
                    name = payload[0]
                if name is not None and name in self.damaged_relations:
                    continue
                if (
                    record_type == REC_CREATE
                    and not dictionary_ok
                    and payload[2]["kind"] != "python"
                ):
                    self.damaged_relations[name] = (
                        "shared dictionary is corrupt"
                    )
                    continue
                try:
                    replay_records(
                        self._relations, self._dictionary, [record]
                    )
                except Exception as exc:  # keep serving the rest
                    if name is not None:
                        self.damaged_relations[name] = str(exc)
                        self._relations.pop(name, None)

    def __getitem__(self, name: str):
        if name in self.damaged_relations:
            raise CorruptSnapshotError(
                name, self.damaged_relations[name]
            )
        return super().__getitem__(name)

    # ------------------------------------------------------------------
    # registration (journals a CREATE record, attaches the hook)
    # ------------------------------------------------------------------
    def _relation_spec(self, rel) -> Dict[str, Any]:
        if isinstance(rel, ShardedColumnarRelation):
            return {
                "kind": "sharded",
                "shard_count": rel.shard_count,
                "key_column": rel.key_column,
                "state": rel.snapshot_state(),
            }
        if isinstance(rel, ColumnarRelation):
            return {"kind": "columnar", "state": rel.snapshot_state()}
        return {"kind": "python", "state": rel.snapshot_state()}

    def _register_durable(self, rel) -> None:
        if (
            isinstance(rel, ColumnarRelation)
            and rel.dictionary is not self._dictionary
        ):
            raise ValueError(
                f"relation {rel.name!r} does not share the durable "
                "database's dictionary; create it via new_relation / "
                "ensure_relation instead"
            )
        self._journal.record_create(
            rel.name, rel.arity, self._relation_spec(rel)
        )
        rel._journal = self._journal

    def add_relation(self, relation) -> None:
        super().add_relation(relation)
        self._register_durable(relation)

    def ensure_relation(self, name: str, arity: int):
        created = name not in self._relations
        rel = super().ensure_relation(name, arity)
        if created:
            self._register_durable(rel)
        return rel

    # ------------------------------------------------------------------
    # recovery replay
    # ------------------------------------------------------------------
    def _replay(self, records) -> None:
        replay_records(self._relations, self._dictionary, records)

    # ------------------------------------------------------------------
    # checkpoint / lifecycle
    # ------------------------------------------------------------------
    @property
    def checkpoint_index(self) -> Optional[int]:
        """The committed checkpoint number (None before the first)."""
        return self._ckpt_index

    def _manifest_dict(self) -> Dict[str, Any]:
        from repro.db import checkpoint as ckpt

        chain = (
            ckpt.chain_of(self._ckpt_meta)
            if self._ckpt_meta is not None
            else ([self._ckpt_index] if self._ckpt_index is not None else [])
        )
        return {
            "version": 2,
            "backend": self.backend,
            "shard_count": self.shard_count,
            "checkpoint": self._ckpt_index,
            "chain": chain,
            "wal": self._wal_name,
            "segments": self._segments,
            "files": self._files,
            "wal_retain": self.wal_retain,
        }

    def _require_writer(self) -> None:
        if self._writer is None:
            raise DegradedDatabaseError(
                "database was opened degraded (read-only)"
            )

    def checkpoint(self, full: bool = False) -> str:
        """Snapshot what changed and rotate the WAL; return the path.

        Incremental by default: relations (per shard for sharded
        relations) whose ``mutation_stamp`` did not advance since the
        last checkpoint are carried as chain pointers, not rewritten;
        once the chain would exceed ``chain_depth`` directories — or
        when ``full=True`` — the deltas fold back into a full base.
        :attr:`last_checkpoint` records what the call actually wrote
        (``bytes_written``, ``files``, ``full``).

        The sequence is crash-safe at every step: the snapshot is
        written to a temp directory and renamed, the fresh (empty)
        WAL file is created, and only then is the manifest atomically
        replaced — the single commit point.  A crash anywhere earlier
        leaves the previous checkpoint plus the previous (complete)
        WAL as the recovery source; a crash after the swap merely
        leaves garbage files for the next recovery or checkpoint to
        collect.
        """
        from repro.db import checkpoint as ckpt
        from repro.db.wal import WalWriter, seal_info
        from repro.util.faultpoints import fault_point

        self._require_writer()
        index = (self._ckpt_index or 0) + 1
        self._writer.flush()
        previous = None if full else self._ckpt_meta
        if (
            previous is not None
            and len(ckpt.chain_of(previous)) >= self.chain_depth
        ):
            previous = None  # fold the chain back into a full base
        snapshot_path, meta, written = ckpt.write_snapshot(
            self.path, self, index, previous=previous
        )
        fault_point("ckpt.wal.create")
        new_wal = ckpt.wal_filename(index)
        new_wal_path = os.path.join(self.path, new_wal)
        with open(new_wal_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        # Seal the outgoing active WAL (its content is inside the new
        # snapshot, but retained segments let followers catch up from
        # files and let repair restart from an older snapshot).
        old_wal_path = os.path.join(self.path, self._wal_name)
        old_epoch, old_seq = ckpt.parse_wal_name(self._wal_name)
        sealed = seal_info(old_wal_path)
        segments = list(self._segments)
        if sealed["size"]:
            segments.append(
                {"name": self._wal_name, "epoch": old_epoch,
                 "seq": old_seq, **sealed}
            )
        if self.wal_retain >= 0:
            segments = (
                segments[-self.wal_retain:] if self.wal_retain else []
            )
        # Compose the integrity map: the new files plus every tracked
        # file in a directory that stays reachable.
        files = dict(written)
        keep_dirs = self._keep_dirs(meta, segments)
        for relpath, info in self._files.items():
            if relpath.split("/", 1)[0] in keep_dirs:
                files.setdefault(relpath, info)
        state = (
            self._ckpt_index,
            self._ckpt_meta,
            self._wal_name,
            self._segments,
            self._files,
        )
        self._ckpt_index, self._ckpt_meta = index, meta
        self._wal_name = new_wal
        self._segments, self._files = segments, files
        try:
            ckpt.commit_manifest(self.path, self._manifest_dict())
        except BaseException:
            (
                self._ckpt_index,
                self._ckpt_meta,
                self._wal_name,
                self._segments,
                self._files,
            ) = state
            raise
        # Committed: swap the journal onto the fresh log and collect
        # the superseded files.
        old_writer = self._writer
        self._writer = WalWriter(new_wal_path, sync=self.sync)
        self._journal.writer = self._writer
        old_writer.close()
        self._collect_garbage()
        self.last_checkpoint = {
            "path": snapshot_path,
            "index": index,
            "full": previous is None,
            "files": sorted(written),
            "bytes_written": sum(f["size"] for f in written.values()),
        }
        return snapshot_path

    def rotate_wal(self) -> str:
        """Seal the active WAL segment and open a fresh one.

        The sealed segment is immutable from here on — its whole-file
        size+CRC32 goes into the manifest, recovery verifies it before
        replay, and followers may stream it for cold catch-up.  The
        manifest swap is the commit point, exactly as for checkpoints:
        a crash before it leaves the old active WAL in place, still
        valid.  Returns the new active WAL's name.
        """
        from repro.db import checkpoint as ckpt
        from repro.db.wal import WalWriter, seal_info

        self._require_writer()
        self._writer.flush()
        old_name = self._wal_name
        old_path = os.path.join(self.path, old_name)
        epoch, seq = ckpt.parse_wal_name(old_name)
        new_name = ckpt.wal_segment_filename(epoch, seq + 1)
        new_path = os.path.join(self.path, new_name)
        with open(new_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        sealed = seal_info(old_path)
        state = (self._wal_name, self._segments)
        self._segments = self._segments + [
            {"name": old_name, "epoch": epoch, "seq": seq, **sealed}
        ]
        self._wal_name = new_name
        try:
            ckpt.commit_manifest(self.path, self._manifest_dict())
        except BaseException:
            self._wal_name, self._segments = state
            raise
        old_writer = self._writer
        self._writer = WalWriter(new_path, sync=self.sync)
        self._journal.writer = self._writer
        old_writer.close()
        self._collect_garbage()
        return new_name

    def _maybe_rotate(self) -> None:
        if (
            self.wal_segment_bytes
            and self._writer.tell() >= self.wal_segment_bytes
        ):
            self.rotate_wal()

    # ------------------------------------------------------------------
    # integrity surface
    # ------------------------------------------------------------------
    def verify(self):
        """Scrub this directory: re-check every checkpoint file and
        WAL segment against the manifest's recorded checksums.  Flushes
        first so the active WAL on disk is current.  Returns a
        :class:`repro.db.scrub.ScrubReport`."""
        from repro.db import scrub

        if self._writer is not None:
            self._writer.flush()
        return scrub.verify(self.path)

    @staticmethod
    def repair(path: str, feed=None):
        """Repair a damaged directory (see :func:`repro.db.scrub.repair`).

        A static method because the damaged directory typically cannot
        be opened — repair it first, then :func:`attach`.  ``feed`` is
        an optional :class:`repro.engine.replication.LeaderFeed` used
        as the last-resort reseed source.
        """
        from repro.db import scrub

        return scrub.repair(path, feed=feed)

    def _keep_dirs(self, meta, segments) -> set:
        """Checkpoint directories that must survive garbage collection:
        the current chain, plus — for retained older WAL segments —
        their epoch's checkpoint and *its* chain (so repair can restart
        from an older snapshot + WAL suffix)."""
        from repro.db import checkpoint as ckpt

        dirs = set()
        if meta is not None:
            dirs.update(
                ckpt.snapshot_dirname(i) for i in ckpt.chain_of(meta)
            )
        elif self._ckpt_index is not None:
            dirs.add(ckpt.snapshot_dirname(self._ckpt_index))
        for seg in segments:
            epoch = seg["epoch"]
            if epoch == 0:
                continue  # epoch 0 predates any checkpoint
            name = ckpt.snapshot_dirname(epoch)
            if name in dirs or not os.path.isdir(
                os.path.join(self.path, name)
            ):
                continue
            dirs.add(name)
            try:
                older = ckpt.read_meta(self.path, epoch)
                dirs.update(
                    ckpt.snapshot_dirname(i) for i in ckpt.chain_of(older)
                )
            except Exception:  # damaged older meta: keep just the dir
                pass
        return dirs

    def _collect_garbage(self) -> None:
        """Remove superseded ckpt-*/wal-* files and orphaned ``*.tmp``
        artifacts (a crash between a temp write and its rename leaves
        ``ckpt-<n>.tmp`` / ``MANIFEST.json.tmp`` / ``session.json.tmp``
        behind — recovery and every successful checkpoint sweep them).
        Quarantined artifacts are never touched."""
        import shutil

        keep = {self._wal_name}
        keep.update(seg["name"] for seg in self._segments)
        keep.update(self._keep_dirs(self._ckpt_meta, self._segments))
        for entry in os.listdir(self.path):
            if entry in keep or entry == "quarantine":
                continue
            if not (
                entry.startswith("ckpt-")
                or entry.startswith("wal-")
                or entry.endswith(".tmp")
            ):
                continue
            full = os.path.join(self.path, entry)
            try:
                if os.path.isdir(full):
                    shutil.rmtree(full)
                else:
                    os.remove(full)
            except OSError:  # pragma: no cover - cleanup is advisory
                pass

    def flush(self) -> None:
        """Flush (and, policy permitting, fsync) the active WAL."""
        self._require_writer()
        self._writer.flush()

    def close(self) -> None:
        """Flush and close the WAL (and spill); stays readable."""
        if self._writer is not None:
            self._writer.close()
        super().close()

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach(
    path: str,
    backend: str = "columnar",
    shard_count: Optional[int] = None,
    sync: str = "batch",
    wal_retain: Optional[int] = None,
    wal_segment_bytes: Optional[int] = None,
    chain_depth: Optional[int] = None,
    degraded: bool = False,
    workers: Optional[int] = None,
    spill_dir: Optional[str] = None,
    max_resident_shards: Optional[int] = None,
) -> DurableDatabase:
    """Open (creating or recovering) a durable database directory.

    The one-call durability entry point: a fresh directory becomes an
    empty durable database of the requested backend; an existing one
    is recovered from its committed checkpoint chain plus WAL suffix
    (the stored backend wins over the argument).  ``wal_retain`` /
    ``wal_segment_bytes`` / ``chain_depth`` / ``degraded`` are the
    robustness knobs documented on :class:`DurableDatabase`;
    ``workers`` / ``spill_dir`` / ``max_resident_shards`` are the
    runtime execution knobs documented on :class:`Database` (they are
    per-open, not persisted).
    """
    return DurableDatabase(
        path,
        backend=backend,
        shard_count=shard_count,
        sync=sync,
        wal_retain=wal_retain,
        wal_segment_bytes=wal_segment_bytes,
        chain_depth=chain_depth,
        degraded=degraded,
        workers=workers,
        spill_dir=spill_dir,
        max_resident_shards=max_resident_shards,
    )
