"""Out-of-core shard residency: an LRU pool of memmap-spillable shards.

The sharded backend (:mod:`repro.db.sharded`) keeps every shard's
compacted main segment in RAM, so the database is capped by memory even
though queries usually touch a hot subset of shards.  A
:class:`SpillPool` lifts that cap: each registered shard's main segment
can be *demoted* — saved once as a ``.npy`` file and replaced by a
read-only ``np.memmap``-backed view (``np.load(..., mmap_mode="r")``) —
and *promoted* back to a RAM array when it becomes hot again.  Cold
reads are then served by the OS page cache at file-backed cost instead
of failing to fit.

Mechanics and invariants:

* Only the compacted **main segment** spills.  Delta segments (the op
  log and its net view) stay in RAM — they are small by construction
  (auto-compaction folds them once they outgrow a fraction of main).
* Spill files are **versioned** (``...-v3.npy``): a demote after new
  content never rewrites a file an open memmap still maps; the old
  version is unlinked, and POSIX keeps its blocks alive until the last
  mapping closes.  A clean (unchanged) shard demotes again for free by
  re-mapping its current version.
* ``max_resident`` bounds how many *registered, non-empty* shards hold
  their main segment in RAM; eviction is least-recently-touched, where
  a touch is any :meth:`repro.db.columnar.ColumnarRelation.codes` call.
* All pool state is lock-guarded: shards are touched from executor
  worker threads (:mod:`repro.db.executor`).

Threaded through ``Database(spill_dir=..., max_resident_shards=...)``
and ``connect(...)``; every query path is oblivious — a memmap flows
through the NumPy kernels exactly like a RAM array, so answers are
bit-identical to the fully-resident run.  The pool bounds the *stored*
matrices only: queries read a sharded relation through its coalesced
``codes()`` (an in-RAM concatenation, cached until the next mutation),
so a query's working set is O(m) whatever the budget.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from typing import Dict, List, Optional

import numpy as np

#: Resident budget when ``spill_dir`` is given without an explicit
#: ``max_resident_shards`` — matches the substrate's MAX_SHARD_COUNT.
DEFAULT_MAX_RESIDENT = 16


class _Entry:
    """Residency record for one registered shard."""

    __slots__ = ("shard", "tick", "resident", "version", "saved_version", "path")

    def __init__(self, shard) -> None:
        self.shard = shard
        self.tick = 0
        self.resident = True
        self.version = 0  # bumped on every new main segment
        self.saved_version = -1  # version the spill file holds
        self.path: Optional[str] = None


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


class SpillPool:
    """LRU residency manager for shard main segments.

    One pool per :class:`repro.db.database.Database`; shards register at
    relation construction and call back through the
    ``ColumnarRelation._spill`` hook on every read (:meth:`touch`) and
    every main-segment rewrite (:meth:`adopted`).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_resident: Optional[int] = None,
    ) -> None:
        self._owns_dir = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-spill-")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.max_resident = max(
            1, int(max_resident if max_resident is not None else DEFAULT_MAX_RESIDENT)
        )
        self._lock = threading.RLock()
        self._entries: Dict[int, _Entry] = {}  # id(shard) -> entry
        self._clock = 0
        self._closed = False

    # ------------------------------------------------------------------
    # registration and hooks
    # ------------------------------------------------------------------
    def register(self, shard) -> None:
        """Adopt ``shard``: its main segment becomes pool-managed."""
        with self._lock:
            if self._closed or id(shard) in self._entries:
                return
            entry = _Entry(shard)
            self._clock += 1
            entry.tick = self._clock
            self._entries[id(shard)] = entry
            shard._spill = self
            self._enforce()

    def touch(self, shard) -> None:
        """LRU bump on read; promote a spilled shard if budget allows.

        The resident fast path is deliberately lock-free: a racy tick
        bump can only blur LRU order, never correctness.
        """
        entry = self._entries.get(id(shard))
        if entry is None:
            return
        self._clock += 1
        entry.tick = self._clock
        if entry.resident:
            return
        with self._lock:
            if not entry.resident and self._resident_count() < self.max_resident:
                self._promote(entry)

    def adopted(self, shard) -> None:
        """New main segment installed (barrier): mark hot and dirty."""
        entry = self._entries.get(id(shard))
        if entry is None:
            return
        with self._lock:
            self._clock += 1
            entry.tick = self._clock
            entry.version += 1
            entry.resident = True
            self._enforce()

    # ------------------------------------------------------------------
    # residency transitions (callers hold the lock)
    # ------------------------------------------------------------------
    def _resident_count(self) -> int:
        return sum(
            1
            for e in self._entries.values()
            if e.resident and len(e.shard._main)
        )

    def _enforce(self) -> None:
        while self._resident_count() > self.max_resident:
            victim = min(
                (
                    e
                    for e in self._entries.values()
                    if e.resident and len(e.shard._main)
                ),
                key=lambda e: e.tick,
            )
            self._demote(victim)

    def _demote(self, entry: _Entry) -> None:
        shard = entry.shard
        if entry.saved_version != entry.version:
            path = os.path.join(
                self.directory,
                f"{_safe(shard.name)}-{id(shard):x}-v{entry.version}.npy",
            )
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                np.save(handle, np.asarray(shard._main, dtype=np.int64))
            os.replace(tmp, path)
            old = entry.path
            entry.path = path
            entry.saved_version = entry.version
            if old and old != path:
                # An open memmap of the old version keeps its blocks
                # alive until the mapping closes (POSIX unlink).
                try:
                    os.unlink(old)
                except OSError:  # pragma: no cover - already gone
                    pass
        shard._main = np.load(entry.path, mmap_mode="r")
        shard._main_keys = None
        shard._invalidate()
        entry.resident = False

    def _promote(self, entry: _Entry) -> None:
        shard = entry.shard
        shard._main = np.array(shard._main, dtype=np.int64)
        shard._main_keys = None
        shard._invalidate()
        entry.resident = True

    # ------------------------------------------------------------------
    # deterministic teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every spill artifact: memmaps, files, the tempdir.

        Spilled shards are promoted back to RAM arrays first (a closed
        pool must leave its shards fully usable — the session may still
        serve a last read during teardown), then every spill file is
        unlinked and, when the pool created its own temporary
        directory, the directory is removed.  Idempotent; a closed
        pool ignores further ``register``/``touch``/``adopted`` calls,
        so late callbacks from executor threads are harmless.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            if not entry.resident:
                # np.array copies the memmap's contents into RAM and
                # drops the mapping, releasing the open file.
                entry.shard._main = np.array(
                    entry.shard._main, dtype=np.int64
                )
                entry.shard._main_keys = None
                entry.shard._invalidate()
                entry.resident = True
            entry.shard._spill = None
            if entry.path:
                try:
                    os.unlink(entry.path)
                except OSError:  # pragma: no cover - already gone
                    pass
                entry.path = None
        if self._owns_dir:
            try:
                os.rmdir(self.directory)
            except OSError:  # pragma: no cover - stray files left
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # introspection (tests, benchmarks, examples)
    # ------------------------------------------------------------------
    def resident_shards(self) -> int:
        with self._lock:
            return self._resident_count()

    def spilled_shards(self) -> int:
        with self._lock:
            return sum(1 for e in self._entries.values() if not e.resident)

    def spilled_bytes(self) -> int:
        with self._lock:
            total = 0
            for entry in self._entries.values():
                if entry.path and os.path.exists(entry.path):
                    total += os.path.getsize(entry.path)
            return total

    def spill_files(self) -> List[str]:
        with self._lock:
            return sorted(
                e.path for e in self._entries.values() if e.path is not None
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpillPool(dir={self.directory!r}, "
            f"max_resident={self.max_resident}, "
            f"registered={len(self._entries)})"
        )
