"""The write-ahead op log: framed, checksummed, crash-truncatable.

ROADMAP open item 3 observed that the delta-segment op log *is* a
write-ahead log between barriers — this module makes that literal.  A
WAL file is a flat sequence of framed records::

    +-------+------+-------------+-------+------------------+
    | magic | type | payload_len | crc32 | pickled payload  |
    | 2 B   | 1 B  | 4 B LE      | 4 B LE| payload_len B    |
    +-------+------+-------------+-------+------------------+

The CRC covers the type byte and the payload, so a bit flip anywhere
in a record (or a torn tail from a crash mid-append) fails the check
and :func:`read_records` stops at the last fully-valid record —
recovery then *physically truncates* the torn tail and resumes
appending from the consistent prefix.  That "valid prefix" discipline
is the whole crash-safety story: the only commit point for an op is
its record being fully on disk.

Record stream semantics (the replay contract with
:class:`repro.db.database.DurableDatabase`): every record corresponds
to exactly one relation-level event —

=============  =====================================================
``REC_CREATE`` a relation was registered (name, arity, backend spec)
``REC_DICT``   the shared dictionary grew (the new values, in order)
``REC_OP``     one single-tuple insert/delete (one stamp bump)
``REC_BATCH``  one bulk coded insert (a history barrier)
``REC_REMOVE`` one bulk delete — a ``retain``'s *removed rows*
               (predicates cannot be replayed) or a follower batch
``REC_COMPACT`` an **explicit** ``compact()`` call (auto-compactions
               are a pure function of the op stream and re-trigger
               on replay, so they are not logged)
=============  =====================================================

so replaying the suffix after a snapshot reproduces content *and*
``mutation_stamp`` sequences exactly, and existing maintainers resync
transparently after recovery.

Every write/fsync site carries a :mod:`repro.util.faultpoints` hook;
the crash-safety tests arm each one in turn and prove recovery yields
a consistent prefix bit-identical to the oracle.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.util.faultpoints import InjectedCrash, declare, fault_point, fires

__all__ = [
    "CRASH_POINTS",
    "REC_BATCH",
    "REC_COMPACT",
    "REC_CREATE",
    "REC_DICT",
    "REC_OP",
    "REC_REMOVE",
    "SYNC_POLICIES",
    "WalJournal",
    "WalWriter",
    "iter_records",
    "read_records",
    "scan_wal",
    "seal_info",
]

MAGIC = b"\xc4\x57"
_HEADER = struct.Struct("<2sBLL")  # magic, type, payload_len, crc32

REC_CREATE = 1
REC_DICT = 2
REC_OP = 3
REC_BATCH = 4
REC_REMOVE = 5
REC_COMPACT = 6
_KNOWN_TYPES = frozenset(
    (REC_CREATE, REC_DICT, REC_OP, REC_BATCH, REC_REMOVE, REC_COMPACT)
)

# "always": fsync every record — an acked append is durable (the crash
# tests run under this).  "batch": fsync at flush()/checkpoint/close —
# a crash may lose the un-synced suffix but never corrupts the prefix.
# "never": leave durability to the OS (benchmark baseline).
SYNC_POLICIES = ("always", "batch", "never")

CRASH_POINTS = declare(
    "wal.append.start",
    "wal.append.torn",
    "wal.append.written",
    "wal.fsync",
    module=__name__,
)


def _frame(record_type: int, payload: bytes) -> bytes:
    crc = zlib.crc32(bytes((record_type,)) + payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, record_type, len(payload), crc) + payload


class WalWriter:
    """Appends framed records to one WAL file under a sync policy."""

    def __init__(
        self,
        path: str,
        sync: str = "batch",
        truncate_to: Optional[int] = None,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"unknown sync policy {sync!r}; expected one of "
                f"{SYNC_POLICIES}"
            )
        self.path = os.fspath(path)
        self.sync = sync
        if truncate_to is not None and os.path.exists(self.path):
            # Recovery found a torn/corrupt tail: cut the file back to
            # its last fully-valid record before resuming appends.
            with open(self.path, "r+b") as handle:
                handle.truncate(truncate_to)
        self._file = open(self.path, "ab")

    def append(self, record_type: int, payload_obj: Any) -> None:
        """Frame, checksum and append one record (the commit point)."""
        payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _frame(record_type, payload)
        fault_point("wal.append.start")
        if fires("wal.append.torn"):
            # Simulate a crash mid-write: half the frame reaches the
            # file, then the process dies.  Recovery must drop it.
            self._file.write(frame[: max(1, len(frame) // 2)])
            self._file.flush()
            raise InjectedCrash("wal.append.torn")
        self._file.write(frame)
        fault_point("wal.append.written")
        if self.sync == "always":
            self._file.flush()
            fault_point("wal.fsync")
            os.fsync(self._file.fileno())

    def flush(self) -> None:
        """Flush to the OS; fsync unless the policy is ``"never"``."""
        self._file.flush()
        if self.sync != "never":
            fault_point("wal.fsync")
            os.fsync(self._file.fileno())

    def tell(self) -> int:
        self._file.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            if self.sync != "never":
                os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _parse_frame(data: bytes, pos: int) -> Optional[Tuple[Any, int]]:
    """Decode one frame at ``pos``; None if it is not fully valid."""
    end = pos + _HEADER.size
    if end > len(data):
        return None
    magic, record_type, length, crc = _HEADER.unpack(data[pos:end])
    if magic != MAGIC or record_type not in _KNOWN_TYPES:
        return None
    payload = data[end : end + length]
    if len(payload) < length:
        return None
    if zlib.crc32(bytes((record_type,)) + payload) & 0xFFFFFFFF != crc:
        return None
    try:
        obj = pickle.loads(payload)
    except Exception:
        return None
    return (record_type, obj), end + length


def scan_wal(
    path: str,
) -> Tuple[List[Tuple[int, Any]], int, Optional[str]]:
    """Read a WAL and classify any damage after the valid prefix.

    Returns ``(records, valid, damage)`` where ``records`` is every
    record of the valid prefix, ``valid`` the prefix length in bytes,
    and ``damage`` one of:

    - ``None`` — the file parses end to end (or does not exist);
    - ``"torn"`` — invalid bytes at the tail with *no* valid record
      after them: the classic crash-mid-append, safe to truncate;
    - ``"corrupt"`` — a valid record exists *beyond* the first
      invalid region (mid-log bit rot / zero-fill): truncating would
      silently drop acknowledged operations, so recovery must treat
      the file as corrupt, not merely torn.

    The classifier rescans from each later ``MAGIC`` occurrence and
    demands a fully-valid frame (header, CRC, unpickle) before
    calling the damage mid-log — a stray two-byte magic inside torn
    garbage cannot trigger a false "corrupt" verdict.
    """
    records: List[Tuple[int, Any]] = []
    if not os.path.exists(path):
        return records, 0, None
    with open(path, "rb") as handle:
        data = handle.read()
    pos = 0
    while True:
        parsed = _parse_frame(data, pos)
        if parsed is None:
            break
        record, pos = parsed
        records.append(record)
    if pos == len(data):
        return records, pos, None
    # Invalid bytes follow the prefix: torn tail, or mid-log damage?
    search = data.find(MAGIC, pos + 1)
    while search != -1:
        if _parse_frame(data, search) is not None:
            return records, pos, "corrupt"
        search = data.find(MAGIC, search + 1)
    return records, pos, "torn"


def read_records(path: str) -> Tuple[List[Tuple[int, Any]], int]:
    """All valid records of a WAL file, plus the valid-prefix length.

    Stops at the first torn, corrupt, or unparseable record (short
    header, bad magic, short payload, CRC mismatch, unpicklable
    payload) and reports the byte offset of the end of the last good
    record — the writer truncates the file there before resuming.
    A missing file reads as an empty log.  Callers that must
    distinguish a safe torn tail from mid-log corruption use
    :func:`scan_wal` instead.
    """
    records, valid, _ = scan_wal(path)
    return records, valid


def iter_records(path: str, limit: Optional[int] = None):
    """Yield valid records one at a time without loading the payloads'
    decoded forms all at once — the bounded-memory read used by WAL
    file catch-up (:class:`repro.engine.replication.FollowerSession`),
    where the backlog may be far larger than a follower wants resident.
    Stops quietly at the first invalid record (the valid prefix), or
    after ``limit`` bytes of valid records when given.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        pos = 0
        while True:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return
            magic, record_type, length, crc = _HEADER.unpack(header)
            if magic != MAGIC or record_type not in _KNOWN_TYPES:
                return
            payload = handle.read(length)
            if len(payload) < length:
                return
            if (
                zlib.crc32(bytes((record_type,)) + payload) & 0xFFFFFFFF
                != crc
            ):
                return
            try:
                obj = pickle.loads(payload)
            except Exception:
                return
            pos += _HEADER.size + length
            yield record_type, obj
            if limit is not None and pos >= limit:
                return


def seal_info(path: str) -> dict:
    """The whole-file integrity stamp recorded when a WAL segment is
    sealed at rotation: matching size+CRC32 later proves the segment
    still holds exactly the records it was sealed with, without
    re-parsing frames."""
    crc = 0
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return {"size": size, "crc32": crc & 0xFFFFFFFF}


class WalJournal:
    """The relation-side durability hook, writing through a WalWriter.

    One journal serves a whole database: relations call
    ``record_op`` / ``record_batch`` / ``record_remove`` /
    ``record_compact`` (see the ``_journal`` attribute contract in
    :class:`repro.db.columnar.ColumnarRelation`), and the journal lazily
    prepends ``REC_DICT`` records whenever the shared dictionary grew
    since the last record — so replay always knows every code before
    the first record using it.  Code matrices are journaled as
    ``int64`` arrays.
    """

    def __init__(self, writer: WalWriter, dictionary) -> None:
        self.writer = writer
        self.dictionary = dictionary
        self._dict_len = len(dictionary)
        #: Called (with no args) after every appended record — the
        #: database hangs its size-triggered WAL rotation here, so the
        #: rotation decision sits *between* records, never inside one.
        self.on_record = None

    def _noted(self) -> None:
        if self.on_record is not None:
            self.on_record()

    def _sync_dictionary(self) -> None:
        grown = len(self.dictionary)
        if grown > self._dict_len:
            self.writer.append(
                REC_DICT, self.dictionary.values()[self._dict_len :]
            )
            self._dict_len = grown

    def record_create(self, name: str, arity: int, spec: dict) -> None:
        """A relation was registered (spec: backend/shard parameters
        plus its initial ``snapshot_state()``, so pre-populated
        registrations replay with exact stamps)."""
        self._sync_dictionary()
        self.writer.append(REC_CREATE, (name, arity, spec))
        self._noted()

    def record_op(self, name: str, coded, is_insert: bool) -> None:
        self._sync_dictionary()
        self.writer.append(REC_OP, (name, tuple(coded), bool(is_insert)))
        self._noted()

    def record_batch(self, name: str, codes) -> None:
        self._sync_dictionary()
        self.writer.append(REC_BATCH, (name, self._pack_rows(codes)))
        self._noted()

    def record_remove(self, name: str, codes) -> None:
        self._sync_dictionary()
        self.writer.append(REC_REMOVE, (name, self._pack_rows(codes)))
        self._noted()

    def record_compact(self, name: str) -> None:
        self.writer.append(REC_COMPACT, name)
        self._noted()

    @staticmethod
    def _pack_rows(rows) -> Any:
        return np.ascontiguousarray(rows, dtype=np.int64)
