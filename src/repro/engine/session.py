"""The :class:`Session`: the engine's front door.

A session owns exactly one :class:`~repro.db.database.Database`,
prepares queries against it, and applies updates to it, so prepared
queries stay live::

    from repro import connect

    session = connect({"R": [(1, 2)], "S": [(2, 3)]})
    prepared = session.prepare("q(x, y) :- R(x, z), S(z, y)")
    answers = prepared.run()
    len(answers); answers[0]; list(answers)
    session.add("R", (1, 9)); session.discard("S", (2, 3))
    len(answers)            # reflects the updates, never stale

**One database, one backend.**  Every prepared query executes on
``session.db`` — the session holds no other copy of the data — so the
execution backend is the *stored* backend, fixed when the session is
opened.  The front doors default to ``"columnar"`` (dictionary-encoded
NumPy columns over one dictionary); ``backend="sharded"`` selects the
hash-partitioned layout for spilling / out-of-core data.  ``connect(db)`` runs on ``db``'s own
backend; convert first with
:meth:`~repro.db.database.Database.to_backend` to serve it on another.
Because prepared queries guard every structure with the relations'
mutation stamps, mutating ``session.db`` relations directly (as
replication followers and :class:`~repro.semiring.faq.WeightedDatabase`
do) is safe: there is nothing to desynchronize.  Multi-threaded
embedders should still route updates through the session, whose
write lock keeps readers out of half-applied updates.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Mapping, Optional, Sequence, Union

from repro.db.database import Database, attach
from repro.db.interface import check_backend
from repro.engine.planner import plan_query
from repro.engine.prepared import AnswerSet, PreparedQuery
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.semiring.semirings import Semiring
from repro.util.locks import ReadWriteLock

QueryLike = Union[str, ConjunctiveQuery]

#: Prepared-plan manifest written next to a durable database by
#: :meth:`Session.checkpoint` and replayed by ``connect(path=...)``
#: so a restarted session re-prepares its plans *warm* — against the
#: recovered relations — instead of each caller re-deriving them.
SESSION_FILE = "session.json"


class Session:
    """Prepared-query serving over one database.

    ``db`` may be a :class:`Database`, a ``{name: rows}`` mapping
    (converted via :meth:`Database.from_dict`), or ``None`` for an
    empty database; ``backend`` selects the stored backend in the
    latter two cases (a :class:`Database` keeps its own).
    """

    def __init__(
        self,
        db: Union[Database, Mapping, None] = None,
        backend: str = "columnar",
        workers: Optional[int] = None,
        spill_dir: Optional[str] = None,
        max_resident_shards: Optional[int] = None,
    ) -> None:
        check_backend(backend)
        if db is None:
            db = Database(
                backend=backend,
                workers=workers,
                spill_dir=spill_dir,
                max_resident_shards=max_resident_shards,
            )
        elif isinstance(db, Mapping):
            db = Database.from_dict(
                db,
                backend=backend,
                workers=workers,
                spill_dir=spill_dir,
                max_resident_shards=max_resident_shards,
            )
        elif not isinstance(db, Database):
            raise TypeError(
                f"db must be a Database, a mapping, or None; got "
                f"{type(db).__name__}"
            )
        elif (
            workers is not None
            or spill_dir is not None
            or max_resident_shards is not None
        ):
            db.configure_shard_runtime(
                workers=workers,
                spill_dir=spill_dir,
                max_resident_shards=max_resident_shards,
            )
        self.db = db
        self.closed = False
        # Single-writer / many-reader contract for multi-threaded
        # embedders (the HTTP serving layer): mutations take the
        # exclusive side, AnswerSet reads take the shared side, so a
        # read never observes a half-applied update across relations.
        self._rw = ReadWriteLock()
        # Prepared-plan cache: (canonical query text, order, default
        # semiring) -> PreparedQuery.  Reusing the PreparedQuery also
        # reuses its lazily built (and incrementally maintained) answer
        # structures, so a repeated prepare() of the same query skips
        # re-classification *and* re-preprocessing.
        # Evicted wholesale whenever the relation schema changes.
        self._prepared: dict = {}
        self._schema_token: tuple = ()

    # ------------------------------------------------------------------
    # preparing and running queries
    # ------------------------------------------------------------------
    def prepare(
        self,
        query: QueryLike,
        order: Optional[Sequence[str]] = None,
        semiring: Optional[Semiring] = None,
    ) -> PreparedQuery:
        """Classify, plan, and return a live :class:`PreparedQuery`.

        ``query`` is datalog-style text or a parsed
        :class:`ConjunctiveQuery`; ``order`` fixes the paging order
        (default: the planner finds an admissible one); ``semiring``
        sets the default for ``AnswerSet.aggregate()``.  Relations the
        query mentions are created empty when absent, so serving can
        start before ingestion.

        Repeated ``prepare()`` of the same (query, order, semiring)
        returns the cached :class:`PreparedQuery` — no
        re-classification, and its maintained structures carry over.
        The cache is evicted whenever the relation schema changes (a
        relation created or dropped).
        """
        self._check_open()
        if isinstance(query, str):
            query = parse_query(query)
        for atom in query.atoms:
            self.db.ensure_relation(atom.relation, atom.arity)
        schema_token = tuple(
            sorted((rel.name, rel.arity) for rel in self.db)
        )
        if schema_token != self._schema_token:
            self._prepared.clear()
            self._schema_token = schema_token
        key = (
            str(query),
            tuple(order) if order is not None else None,
            semiring,
        )
        cached = self._prepared.get(key)
        if cached is not None:
            return cached
        plan = plan_query(
            query,
            size=self.db.size(),
            stored_backend=self.db.backend,
            order=order,
            stored_shard_count=self._stored_shard_count(),
            stats=_measure_statistics(self.db, query),
        )
        prepared = PreparedQuery(self, query, plan, semiring)
        self._prepared[key] = prepared
        return prepared

    def execute(self, query: QueryLike, **kwargs) -> AnswerSet:
        """``prepare(...).run()`` in one call (ad-hoc queries)."""
        return self.prepare(query, **kwargs).run()

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add(self, relation: str, row: Iterable) -> None:
        """Insert one tuple (the relation is created when absent)."""
        self._check_open()
        row = tuple(row)
        with self._rw.write():
            self.db.ensure_relation(relation, len(row)).add(row)

    def discard(self, relation: str, row: Iterable) -> None:
        """Delete one tuple (no-op when absent)."""
        self._check_open()
        row = tuple(row)
        with self._rw.write():
            if relation in self.db:
                self.db[relation].discard(row)

    def add_all(self, relation: str, rows: Sequence) -> None:
        """Bulk insert: one write-lock hold, one batched relation call.

        The batched relation path (``ColumnarRelation.add_all``) encodes
        once and routes whole code batches, so callers streaming many tuples (the network
        ingestion batcher in :mod:`repro.server`) pay per-batch, not
        per-row, engine cost.
        """
        self._check_open()
        rows = [tuple(r) for r in rows]
        if not rows:
            return
        with self._rw.write():
            self.db.ensure_relation(relation, len(rows[0])).add_all(rows)

    def discard_all(self, relation: str, rows: Sequence) -> None:
        """Bulk delete (absent rows are no-ops), one lock hold."""
        self._check_open()
        rows = [tuple(r) for r in rows]
        if not rows:
            return
        with self._rw.write():
            if relation in self.db:
                rel = self.db[relation]
                for row in rows:
                    rel.discard(row)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> str:
        """Checkpoint the durable database and persist prepared plans.

        Requires the session to own a
        :class:`~repro.db.database.DurableDatabase` (open one with
        ``connect(path=...)`` or :func:`repro.db.attach`).  Snapshots
        every relation, rotates the WAL, and writes ``session.json``
        — the prepared queries' text and paging order — next to the
        manifest, so the next ``connect(path=...)`` re-prepares them
        against the recovered data (the *warm restart*: plans and
        answer structures rebuild from ``np.load``-ed codes, not from
        re-ingesting rows).  Returns the snapshot directory path.
        """
        checkpoint_db = getattr(self.db, "checkpoint", None)
        if checkpoint_db is None:
            raise TypeError(
                "session database is not durable; open one with "
                "connect(path=...) or repro.db.attach(path)"
            )
        snapshot_path = checkpoint_db()
        self._save_prepared_specs()
        return snapshot_path

    def _prepared_specs(self) -> List[dict]:
        """JSON-serializable re-prepare specs for the cached plans.

        Semirings are live objects with no stable serial form, so
        entries prepared with an explicit default semiring are
        skipped — their queries still recover cold.
        """
        specs: List[dict] = []
        for text, order, semiring in self._prepared:
            if semiring is not None:
                continue
            specs.append(
                {
                    "query": text,
                    "order": list(order) if order is not None else None,
                }
            )
        return specs

    def _save_prepared_specs(self) -> None:
        root = self.db.path  # durable databases always have one
        payload = json.dumps(
            {"version": 1, "prepared": self._prepared_specs()}, indent=1
        ).encode("utf-8")
        tmp = os.path.join(root, SESSION_FILE + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, os.path.join(root, SESSION_FILE))

    def _restore_prepared_specs(self) -> None:
        path = os.path.join(getattr(self.db, "path", ""), SESSION_FILE)
        if not os.path.exists(path):
            return
        try:
            with open(path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
            specs = manifest.get("prepared", [])
        except (OSError, ValueError):  # corrupt manifest: stay cold
            return
        for spec in specs:
            try:
                self.prepare(spec["query"], order=spec.get("order"))
            except Exception:
                # A spec that no longer parses or plans (schema moved
                # on) must not block recovery of the data itself.
                continue

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session's resources deterministically.

        Drops the prepared-plan cache (and with it every maintained
        answer structure) and closes the database — for a durable
        session that flushes and closes the WAL; for a spilling
        database it returns shards to RAM and deletes the spill files
        — and marks the session closed: further
        ``prepare``/``add``/``discard`` calls raise.  The
        multi-tenant registry in :mod:`repro.server` relies on this to
        evict idle tenants without leaking open memmaps or WAL file
        handles until garbage collection.  Idempotent.

        Shard-executor thread pools are process-shared per worker
        count and are *not* shut down per session; call
        :func:`repro.db.executor.close_shared_pools` to quiesce them
        globally.
        """
        if self.closed:
            return
        self.closed = True
        with self._rw.write():
            self._prepared.clear()
            closer = getattr(self.db, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("session is closed")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Total tuples in the database (the paper's ``m``)."""
        return self.db.size()

    def relation(self, name: str):
        """The database's relation of that name."""
        return self.db[name]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stored_shard_count(self) -> Optional[int]:
        """The database's actual partitioning, for plan reporting."""
        if self.db.backend != "sharded":
            return None
        if self.db.shard_count is not None:
            return self.db.shard_count
        for rel in self.db:
            count = getattr(rel, "shard_count", None)
            if count is not None:
                return count
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session({self.db!r})"


def _measure_statistics(
    db: Database, query: ConjunctiveQuery
) -> List[str]:
    """Cheap measured statistics of the query's relations, one line each.

    Row counts always; per-column distinct counts where the backend
    computes them from the dictionary codes
    (``column_distinct_counts`` — cached until the next mutation);
    shard-size histograms on the sharded backend.  The lines feed
    ``Plan.stats``: ``explain()`` cites them verbatim, and the join
    layers consume the same counters directly
    (:func:`repro.joins.generic_join._choose_order` breaks variable
    -order ties on them), so what the plan reports is what executed.
    """
    stats: List[str] = []
    for name in sorted({atom.relation for atom in query.atoms}):
        if name not in db:
            continue
        rel = db[name]
        line = f"{name}: rows={len(rel)}"
        counter = getattr(rel, "column_distinct_counts", None)
        if counter is not None:
            line += f" distinct={tuple(counter())}"
        sizes = getattr(rel, "shard_sizes", None)
        if sizes is not None:
            line += f" shard_sizes={tuple(sizes())}"
        stats.append(line)
    return stats


def connect(
    db: Union[Database, Mapping, None] = None,
    backend: str = "columnar",
    path: Optional[str] = None,
    shard_count: Optional[int] = None,
    sync: str = "batch",
    wal_retain: Optional[int] = None,
    wal_segment_bytes: Optional[int] = None,
    chain_depth: Optional[int] = None,
    degraded: bool = False,
    replica_of=None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    timeout: Optional[float] = None,
    small_delta: Optional[int] = None,
    workers: Optional[int] = None,
    spill_dir: Optional[str] = None,
    max_resident_shards: Optional[int] = None,
):
    """Open a :class:`Session` (the engine's ``connect(...)`` idiom).

    ``backend`` is the storage — and therefore execution — backend of
    a database the call creates (``db`` a mapping or ``None``, or a
    fresh ``path``): ``"columnar"`` by default, ``"sharded"`` for
    hash-partitioned / spillable storage.  An existing :class:`Database` keeps its own.

    With ``path=...`` the session is *durable*: the directory is
    opened (or recovered) via :func:`repro.db.attach`, every update
    through the session lands in the write-ahead log, and
    :meth:`Session.checkpoint` snapshots data *and* prepared plans.
    Reconnecting to an existing directory is a **warm restart**:
    relations recover from the committed checkpoint plus the WAL
    suffix, and the plans persisted by the last ``checkpoint()`` are
    re-prepared automatically, so the first query after a crash pays
    recovery, not re-ingestion.  ``backend``/``shard_count`` shape a
    fresh directory only (the stored backend wins on recovery);
    ``sync`` picks the WAL fsync policy (``"always"``/``"batch"``/
    ``"never"``).  ``db`` and ``path`` are mutually exclusive.

    Durable robustness knobs (forwarded to :func:`repro.db.attach`,
    documented on :class:`~repro.db.database.DurableDatabase`):
    ``wal_retain`` (sealed WAL segments kept for follower catch-up
    and repair), ``wal_segment_bytes`` (size-triggered WAL rotation),
    ``chain_depth`` (incremental-checkpoint fold depth), and
    ``degraded`` (read-only salvage open).

    With ``replica_of=feed`` the call returns a
    :class:`~repro.engine.replication.FollowerSession` replicating
    from that :class:`~repro.engine.replication.LeaderFeed` (or any
    transport wrapper).  The follower's retry budget is configured
    here — ``retries`` (attempts per transport call), ``backoff``
    (first retry sleep, doubling), ``timeout`` (total seconds per
    call) — along with ``small_delta`` (per-op vs. bulk application
    threshold).  Combining ``replica_of`` with ``path=...`` uses the
    path as the *catch-up* source: the follower cold-bootstraps from
    the leader's checkpoint chain and rotated WAL segment files, then
    hands off to the live feed at a stamp-exact boundary.

    Sharded-storage knobs (per-open, never persisted): ``workers``
    sizes the shard executor — the per-shard storage maps (batch
    routing, compaction, coalesce, distinct counts) run over that many
    threads, collected in shard order so results stay bit-identical to
    serial (default: the ``REPRO_WORKERS`` environment variable, else
    the cpu count); ``spill_dir`` / ``max_resident_shards`` bound the
    resident *stored* shards with an LRU spill pool — cold shards'
    compacted code matrices live on disk as memory-maps and fault back
    in on touch (a query's working set stays O(m)).
    """
    if replica_of is not None:
        if db is not None:
            raise TypeError(
                "connect() takes either an in-memory db or replica_of, "
                "not both"
            )
        from repro.engine.replication import (
            DEFAULT_BACKOFF,
            DEFAULT_RETRIES,
            FollowerSession,
        )

        if isinstance(replica_of, str):
            # "http(s)://host:port/v1/replica/<db>" — replicate over
            # the wire through the HTTP transport adapter; any other
            # value must already be a transport (LeaderFeed-shaped).
            from repro.server.transport import transport_for_url

            replica_of = transport_for_url(replica_of)
        return FollowerSession(
            replica_of,
            retries=DEFAULT_RETRIES if retries is None else retries,
            backoff=DEFAULT_BACKOFF if backoff is None else backoff,
            timeout=timeout,
            small_delta=small_delta,
            catchup_path=path,
        )
    if path is not None:
        if db is not None:
            raise TypeError(
                "connect() takes either an in-memory db or a durable "
                "path, not both"
            )
        durable = attach(
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
        session = Session(durable)
        session._restore_prepared_specs()
        return session
    return Session(
        db,
        backend=backend,
        workers=workers,
        spill_dir=spill_dir,
        max_resident_shards=max_resident_shards,
    )
