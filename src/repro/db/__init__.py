"""Relational substrate: relations, databases, hash and array indexes.

The machine model in the paper is a RAM with unit-cost operations; the
natural Python analogue is tuple stores backed by hash maps.  A
:class:`Relation` is a set of equal-arity tuples with on-demand hash
indexes; a :class:`Database` maps relation names to relations and
accounts for the total input size ``m`` (number of tuples), the quantity
every runtime bound in the paper is stated in.

Three storage backends implement the common tuple-store interface
(:mod:`repro.db.interface`): the default ``"python"`` backend
(:class:`Relation`, hash sets of tuples), the opt-in ``"columnar"``
backend (:class:`ColumnarRelation`, dictionary-encoded NumPy columns —
see :mod:`repro.db.columnar`), and the partitioned ``"sharded"``
backend (:class:`ShardedColumnarRelation`, hash-partitioned code
matrices over one shared dictionary — see :mod:`repro.db.sharded`),
selected via ``Database(backend=...)``.

Durability lives one layer up: :func:`attach` opens (or recovers) a
:class:`DurableDatabase` whose mutations are mirrored into a framed,
CRC-checked write-ahead log (:mod:`repro.db.wal`, rotated into sealed,
checksummed segments) and periodically rolled into atomic incremental
snapshots (:mod:`repro.db.checkpoint`).  :mod:`repro.db.scrub` closes
the loop against on-disk corruption: ``DurableDatabase.verify()``
re-checks every artifact, ``DurableDatabase.repair()`` restores the
newest provably-consistent state, and ``attach(path, degraded=True)``
serves the intact remainder read-only when repair is impossible —
damage surfaces as :class:`CorruptSnapshotError` /
:class:`CorruptWalError`, never as silently wrong rows.
"""

from repro.db.columnar import ColumnarRelation, Dictionary
from repro.db.database import Database, DurableDatabase, attach
from repro.db.interface import (
    CorruptionError,
    CorruptSnapshotError,
    CorruptWalError,
    DegradedDatabaseError,
    FrameAlgebra,
    StaleStructureError,
    TruncatedHistoryError,
    TupleStore,
    preferred_shard_count,
    snapshot_stamps,
    stale_relations,
)
from repro.db.relation import Relation
from repro.db.scrub import ScrubIssue, ScrubReport
from repro.db.sharded import ShardedColumnarRelation

__all__ = [
    "ColumnarRelation",
    "CorruptSnapshotError",
    "CorruptWalError",
    "CorruptionError",
    "Database",
    "DegradedDatabaseError",
    "Dictionary",
    "DurableDatabase",
    "FrameAlgebra",
    "Relation",
    "ScrubIssue",
    "ScrubReport",
    "ShardedColumnarRelation",
    "StaleStructureError",
    "TruncatedHistoryError",
    "TupleStore",
    "attach",
    "preferred_shard_count",
    "snapshot_stamps",
    "stale_relations",
]
