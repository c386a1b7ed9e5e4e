"""The query service: routes, error envelope, SSE hub, replica feed.

:class:`QueryServer` turns :class:`~repro.engine.session.Session`
objects into a multi-tenant network service on top of the hand-rolled
HTTP layer (:mod:`repro.server.http`).  The API surface::

    GET    /healthz                      liveness + tenant stats
    GET    /v1/dbs                       tenant listing
    POST   /v1/db/{name}                 create a tenant database
    GET    /v1/db/{name}                 tenant info (relations, stamps)
    DELETE /v1/db/{name}                 drop a tenant
    POST   /v1/db/{name}/prepare         prepare a query -> handle
    POST   /v1/db/{name}/updates         NDJSON update stream
    GET    /v1/q/{handle}/page           paged answers (offset, limit)
    GET    /v1/q/{handle}/len            answer count
    GET    /v1/q/{handle}/aggregate      semiring aggregate
    GET    /v1/q/{handle}/explain        the serving plan
    GET    /v1/q/{handle}/watch          SSE stream of changes
    GET    /v1/replica/{db}/handshake    replication bootstrap (binary)
    POST   /v1/replica/{db}/pull         replication delta pull (binary)

**Threading model.**  The asyncio loop owns all bookkeeping (tenant
registry, hubs, batchers); every engine call — count, page,
aggregate, bulk updates, replica payload assembly — is dispatched to
the server's own dedicated thread pool via ``run_in_executor``, where
the session's read/write lock
(:class:`repro.util.locks.ReadWriteLock`) serializes it against
concurrent mutation.  The server pool is distinct from the shard
executor's pool (engine calls fan out into the latter, so sharing one
bounded pool could deadlock it); the loop never blocks on the engine,
so hundreds of keep-alive connections multiplex over a handful of
engine threads.

**Errors.**  Every failure renders as the JSON envelope
``{"error": {"code": ..., "message": ...}}`` with a stable code:
``parse_error`` (400) for bad queries, ``stale_structure`` /
``history_truncated`` (409), ``overflow`` (422: an answer count past
int64 inside the counted tree), ``corruption`` (500), ``degraded``
(503), ``no_such_db`` / ``no_such_handle`` (404), ``db_exists``
(409), plus the protocol-level codes from :mod:`repro.server.http`.

**Fault injection.**  The replica endpoints pass through the
``server.replica.drop`` fault point; arming it makes the server tear
down the connection mid-request — exactly the failure the follower's
transient-retry classification must absorb.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.db.executor import resolve_workers
from repro.db.interface import (
    CorruptionError,
    DegradedDatabaseError,
    StaleStructureError,
    TruncatedHistoryError,
)
from repro.engine.replication import LeaderFeed
from repro.query.parser import QueryParseError
from repro.semiring.semirings import (
    BOOLEAN,
    COUNTING,
    MAX_PLUS,
    MIN_PLUS,
    Semiring,
)
from repro.server.batcher import UpdateBatcher
from repro.server.http import (
    ChunkedStream,
    DEFAULT_MAX_BODY,
    HttpError,
    Request,
    read_request,
    send_body,
    send_json,
)
from repro.server.tenants import ServedQuery, Tenant, TenantRegistry
from repro.server.transport import (
    REPLICA_CONTENT_TYPE,
    dumps_payload,
    loads_payload,
)
from repro.util import faultpoints

__all__ = ["QueryServer", "ServerThread", "SEMIRINGS"]

#: Wire names for the engine's semirings (the aggregate endpoint's
#: ``?semiring=`` values and ``prepare``'s ``"semiring"`` field).
SEMIRINGS: Dict[str, Semiring] = {
    "counting": COUNTING,
    "boolean": BOOLEAN,
    "min-plus": MIN_PLUS,
    "max-plus": MAX_PLUS,
}

#: Armed by fault-injection tests: the replica endpoints sever the
#: connection without a response, simulating a network drop.
REPLICA_DROP = faultpoints.declare(
    "server.replica.drop", module="repro.server.app"
)[0]


class _Disconnect(Exception):
    """Abort the connection without writing a response."""


def jsonable(value: Any) -> Any:
    """Engine values (NumPy scalars, tuples, inf) as JSON-safe data."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return value


def error_for(exc: BaseException) -> HttpError:
    """Map an engine exception onto the stable error envelope."""
    if isinstance(exc, HttpError):
        return exc
    if isinstance(exc, QueryParseError):
        return HttpError(400, "parse_error", str(exc))
    if isinstance(exc, CorruptionError):
        return HttpError(500, "corruption", str(exc))
    if isinstance(exc, TruncatedHistoryError):
        return HttpError(409, "history_truncated", str(exc))
    if isinstance(exc, StaleStructureError):
        return HttpError(409, "stale_structure", str(exc))
    if isinstance(exc, DegradedDatabaseError):
        return HttpError(503, "degraded", str(exc))
    if isinstance(exc, OverflowError):
        # A count past int64 inside the counted tree: a property of the
        # data the request asked about, not a server fault.
        return HttpError(422, "overflow", str(exc))
    if isinstance(exc, (KeyError, TypeError, ValueError)):
        return HttpError(400, "bad_request", str(exc))
    return HttpError(
        500, "internal", f"{type(exc).__name__}: {exc}"
    )


class WatchHub:
    """Fan-out of one served query's changes to SSE subscribers.

    The batcher notifies the hub (in application order, awaited) after
    every applied batch; the hub recomputes the watched value on the
    engine pool, diffs the touched relations with ``delta_since`` from
    its stamp cursor, and — when the value actually changed — publishes
    one monotonically numbered event into every subscriber queue and
    the bounded replay history.  Per-connection cursors
    (``?cursor=`` / ``Last-Event-ID``) resume from history, and the
    subscriber loop's last-sent sequence makes delivery exactly-once
    per connection even across the replay/live seam.
    """

    HISTORY = 1024
    #: Max undelivered frames per subscriber; a consumer too slow to
    #: drain this backlog is dropped (end-of-stream marker) rather
    #: than accumulating frames without bound — cursors/replay let it
    #: reconnect and resume from its ``Last-Event-ID``.
    QUEUE_LIMIT = 256

    def __init__(self, served: ServedQuery) -> None:
        self.served = served
        self.relations: Set[str] = set(
            served.prepared.query.relation_symbols
        )
        self.seq = 0
        self.history: Deque[Tuple[int, bytes]] = deque(
            maxlen=self.HISTORY
        )
        self.queues: List[asyncio.Queue] = []
        self._stamps: Dict[str, int] = {}
        self._last_value: Any = None
        self._primed = False

    # ------------------------------------------------------------------
    # engine-side snapshot (runs on the pool)
    # ------------------------------------------------------------------
    def _snapshot(self) -> Tuple[Any, Dict[str, int], Dict[str, Any]]:
        prepared = self.served.prepared
        answers = self.served.answers
        if prepared.semiring is not None:
            value = answers.aggregate()
        else:
            value = answers.count()
        db = prepared.database
        stamps: Dict[str, int] = {}
        deltas: Dict[str, Any] = {}
        for rel in db:
            if rel.name not in self.relations:
                continue
            stamp = rel.mutation_stamp
            stamps[rel.name] = stamp
            seen = self._stamps.get(rel.name)
            if seen is None or seen == stamp:
                continue
            try:
                inserted, deleted = rel.delta_since(seen)
                deltas[rel.name] = {
                    "inserted": len(inserted),
                    "deleted": len(deleted),
                }
            except (StaleStructureError, NotImplementedError):
                # Backend keeps no usable history window; the stamp
                # jump itself still marks the relation as changed.
                deltas[rel.name] = {"stamp_from": seen, "stamp_to": stamp}
        return value, stamps, deltas

    # ------------------------------------------------------------------
    # loop-side publication
    # ------------------------------------------------------------------
    async def notify(self, run_blocking) -> None:
        value, stamps, deltas = await run_blocking(self._snapshot)
        changed = value != self._last_value
        self._stamps = stamps
        if self._primed and not changed:
            return
        self._primed = True
        self._last_value = value
        self.seq += 1
        data = json.dumps(
            {
                "seq": self.seq,
                "value": jsonable(value),
                "stamps": stamps,
                "delta": jsonable(deltas),
            }
        )
        frame = (
            f"id: {self.seq}\nevent: change\ndata: {data}\n\n"
        ).encode("utf-8")
        self.history.append((self.seq, frame))
        for queue in list(self.queues):
            try:
                queue.put_nowait((self.seq, frame))
            except asyncio.QueueFull:
                # Stalled consumer: stop feeding it.  Swap its oldest
                # undelivered event for the end-of-stream marker — it
                # drains what it can, sees the marker, disconnects,
                # and resumes from its cursor on reconnect.
                self.queues.remove(queue)
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:
                    pass
                queue.put_nowait((None, b""))

    async def prime(self, run_blocking) -> None:
        """Publish the initial snapshot (before the first subscriber)."""
        if not self._primed:
            await self.notify(run_blocking)

    def subscribe(
        self, cursor: int
    ) -> Tuple[List[Tuple[int, bytes]], asyncio.Queue]:
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.QUEUE_LIMIT)
        self.queues.append(queue)
        replay = [item for item in self.history if item[0] > cursor]
        return replay, queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self.queues.remove(queue)
        except ValueError:
            pass


class QueryServer:
    """The asyncio HTTP/1.1 multi-tenant query service.

    Each tenant's NDJSON updates pass through one
    :class:`~repro.server.batcher.UpdateBatcher`: ``queue_size`` bounds
    its queue (the backpressure window), and ``flush_rows`` caps the
    rows one ``add_all`` / ``discard_all`` call applies.  An update is
    applied as soon as the batcher is free, together with whatever
    queued behind it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_tenants: int = 32,
        data_root: Optional[str] = None,
        workers: Optional[int] = None,
        flush_rows: int = 256,
        queue_size: int = 1024,
        heartbeat: float = 15.0,
        max_body: int = DEFAULT_MAX_BODY,
    ) -> None:
        self.host = host
        self.port = port
        self.registry = TenantRegistry(
            max_tenants=max_tenants, data_root=data_root
        )
        self.flush_rows = flush_rows
        self.queue_size = queue_size
        self.heartbeat = heartbeat
        self.max_body = max_body
        # The engine pool: a dedicated thread pool for run_in_executor
        # dispatch — deliberately NOT the shared shard pool.  Engine
        # calls made from these threads fan out through
        # ``ParallelExecutor.map`` on the shard pool; if both outer
        # calls and inner shard tasks drew from one bounded pool, a
        # writer holding the session lock could wait on inner tasks
        # queued behind readers blocked on that same lock — a permanent
        # deadlock once the pool saturates.
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, resolve_workers(workers)),
            thread_name_prefix="repro-serve",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryServer":
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        for tenant in list(self.registry):
            if tenant.batcher is not None:
                await tenant.batcher.close()
        self.registry.close()
        self._pool.shutdown(wait=True, cancel_futures=True)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def run_blocking(self, fn, *args):
        """Dispatch one engine call to the shard-executor pool."""
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._pool, partial(fn, *args))

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.max_body
                    )
                except HttpError as exc:
                    await send_json(
                        writer,
                        exc.status,
                        _envelope(exc),
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return
                try:
                    finished = await self._dispatch(request, writer)
                except _Disconnect:
                    writer.transport.abort()
                    return
                except HttpError as exc:
                    await self._send_error(writer, request, exc)
                    finished = request.keep_alive
                except (
                    ConnectionResetError,
                    BrokenPipeError,
                    asyncio.CancelledError,
                ):
                    raise
                except Exception as exc:  # engine / handler failure
                    await self._send_error(
                        writer, request, error_for(exc)
                    )
                    finished = request.keep_alive
                if not finished:
                    return
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        request: Request,
        exc: HttpError,
    ) -> None:
        try:
            await request.body.drain()
        except HttpError:
            request.keep_alive = False
        await send_json(
            writer, exc.status, _envelope(exc), request.keep_alive
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one request; returns ``keep_alive``."""
        segments = [s for s in request.path.split("/") if s]
        method = request.method
        if segments == ["healthz"]:
            tenants, evicted = self.registry.stats()
            await self._reply(
                request,
                writer,
                {"ok": True, "tenants": tenants, "evicted": evicted},
            )
            return request.keep_alive
        if not segments or segments[0] != "v1":
            raise HttpError(404, "no_such_route", request.path)
        rest = segments[1:]
        if rest == ["dbs"] and method == "GET":
            await self._reply(
                request,
                writer,
                {"databases": sorted(t.name for t in self.registry)},
            )
        elif len(rest) >= 2 and rest[0] == "db":
            await self._dispatch_db(request, writer, rest[1:])
        elif len(rest) == 3 and rest[0] == "q":
            await self._dispatch_query(
                request, writer, rest[1], rest[2]
            )
        elif len(rest) == 3 and rest[0] == "replica":
            await self._dispatch_replica(
                request, writer, rest[1], rest[2]
            )
        else:
            raise HttpError(404, "no_such_route", request.path)
        return request.keep_alive

    async def _reply(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        payload: dict,
        status: int = 200,
    ) -> None:
        await request.body.drain()
        await send_json(writer, status, payload, request.keep_alive)

    # -------------------------- /v1/db/... ----------------------------
    async def _dispatch_db(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        rest: List[str],
    ) -> None:
        name = rest[0]
        if len(rest) == 1:
            if request.method == "POST":
                config = await request.json()
                tenant = self.registry.create(name, config)
                tenant.batcher = self._make_batcher(tenant)
                await self._reply(
                    request,
                    writer,
                    self._tenant_info(tenant),
                    status=201,
                )
            elif request.method == "GET":
                tenant = self.registry.get(name)
                await self._reply(
                    request, writer, self._tenant_info(tenant)
                )
            elif request.method == "DELETE":
                tenant = self.registry.get(name)
                if tenant.batcher is not None:
                    await tenant.batcher.close()
                self.registry.drop(name)
                await self._reply(request, writer, {"dropped": name})
            else:
                raise HttpError(
                    405, "method_not_allowed", request.method
                )
        elif len(rest) == 2 and rest[1] == "prepare":
            if request.method != "POST":
                raise HttpError(
                    405, "method_not_allowed", request.method
                )
            await self._handle_prepare(request, writer, name)
        elif len(rest) == 2 and rest[1] == "updates":
            if request.method != "POST":
                raise HttpError(
                    405, "method_not_allowed", request.method
                )
            await self._handle_updates(request, writer, name)
        else:
            raise HttpError(404, "no_such_route", request.path)

    def _tenant_info(self, tenant: Tenant) -> dict:
        db = tenant.session.db
        return {
            "name": tenant.name,
            "backend": db.backend,
            "relations": {
                rel.name: {
                    "arity": rel.arity,
                    "size": len(rel),
                    "stamp": rel.mutation_stamp,
                }
                for rel in db
            },
            "handles": sorted(tenant.handles),
        }

    def _make_batcher(self, tenant: Tenant) -> UpdateBatcher:
        async def on_applied(
            op: str, relation: str, rows: int
        ) -> None:
            for served in tenant.handles.values():
                hub = served.hub
                if hub is not None and relation in hub.relations:
                    await hub.notify(self.run_blocking)

        return UpdateBatcher(
            tenant.session,
            self.run_blocking,
            queue_size=self.queue_size,
            flush_rows=self.flush_rows,
            on_applied=on_applied,
        )

    async def _handle_prepare(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        name: str,
    ) -> None:
        tenant = self.registry.get(name)
        spec = await request.json()
        query = spec.get("query")
        if not isinstance(query, str) or not query:
            raise HttpError(
                400, "bad_request", 'prepare needs a "query" string'
            )
        if "backend" in spec:
            raise HttpError(
                400,
                "bad_request",
                'prepare takes no "backend": a query executes on its '
                "database's stored backend, chosen when the database "
                'is created (POST /v1/db/{name} {"backend": ...})',
            )
        semiring = None
        if spec.get("semiring") is not None:
            semiring = SEMIRINGS.get(spec["semiring"])
            if semiring is None:
                raise HttpError(
                    400,
                    "bad_semiring",
                    f"unknown semiring {spec['semiring']!r}; pick one "
                    f"of {sorted(SEMIRINGS)}",
                )
        order = spec.get("order")
        if order is not None and not (
            isinstance(order, list)
            and all(isinstance(v, str) for v in order)
        ):
            raise HttpError(
                400, "bad_request", '"order" must be a list of strings'
            )
        with self.registry.pinned(tenant):
            prepared = await self.run_blocking(
                partial(
                    tenant.session.prepare,
                    query,
                    order=order,
                    semiring=semiring,
                )
            )
        served = self.registry.register(tenant, prepared)
        await self._reply(request, writer, served.info(), status=201)

    async def _handle_updates(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        name: str,
    ) -> None:
        tenant = self.registry.get(name)
        if tenant.batcher is None:
            tenant.batcher = self._make_batcher(tenant)
        accepted = 0
        with self.registry.pinned(tenant):
            async for line in request.body.iter_lines():
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise HttpError(
                        400,
                        "bad_update",
                        f"update line {accepted + 1} is not JSON: {exc}",
                    ) from None
                try:
                    op = record.get("op", "add")
                    relation = record["relation"]
                    row = tuple(record["row"])
                except (TypeError, KeyError) as exc:
                    raise HttpError(
                        400,
                        "bad_update",
                        f"update line {accepted + 1} needs "
                        f'"relation" and "row": {exc}',
                    ) from None
                if op not in ("add", "discard"):
                    raise HttpError(
                        400,
                        "bad_update",
                        f'update op must be "add" or "discard", '
                        f"got {op!r}",
                    )
                await tenant.batcher.put(op, relation, row)
                accepted += 1
            applied = await tenant.batcher.barrier()
        stamps = {
            rel.name: rel.mutation_stamp
            for rel in tenant.session.db
        }
        await self._reply(
            request,
            writer,
            {
                "accepted": accepted,
                "applied_seq": applied,
                "stamps": stamps,
            },
        )

    # -------------------------- /v1/q/... -----------------------------
    async def _dispatch_query(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        handle: str,
        action: str,
    ) -> None:
        served = self.registry.resolve_handle(handle)
        if action == "watch":
            if request.method != "GET":
                raise HttpError(
                    405, "method_not_allowed", request.method
                )
            await self._handle_watch(request, writer, served)
            return
        if request.method != "GET":
            raise HttpError(405, "method_not_allowed", request.method)
        answers = served.answers
        with self.registry.pinned(served.tenant):
            if action == "page":
                offset = request.int_param("offset", 0)
                limit = request.int_param("limit", 100)
                # One read-lock hold (page and count re-enter it), so
                # rows and total describe the same database state;
                # count() stays exact past 2^63, where len() cannot.
                rows, total = await self.run_blocking(
                    self._read_locked_call,
                    served.tenant,
                    lambda: (answers.page(offset, limit), answers.count()),
                )
                payload = {
                    "handle": handle,
                    "offset": offset,
                    "limit": limit,
                    "total": total,
                    "rows": jsonable(rows),
                }
            elif action == "len":
                payload = {
                    "handle": handle,
                    "count": await self.run_blocking(answers.count),
                }
            elif action == "aggregate":
                semiring = served.prepared.semiring
                wire_name = request.query.get("semiring")
                if wire_name is not None:
                    semiring = SEMIRINGS.get(wire_name)
                    if semiring is None:
                        raise HttpError(
                            400,
                            "bad_semiring",
                            f"unknown semiring {wire_name!r}",
                        )
                elif semiring is None:
                    semiring = COUNTING
                value = await self.run_blocking(
                    answers.aggregate, semiring
                )
                payload = {
                    "handle": handle,
                    "semiring": semiring.name,
                    "value": jsonable(value),
                }
            elif action == "explain":
                payload = {
                    "handle": handle,
                    "explain": served.prepared.explain(),
                }
            elif action == "info":
                payload = served.info()
            else:
                raise HttpError(404, "no_such_route", request.path)
        await self._reply(request, writer, payload)

    async def _handle_watch(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        served: ServedQuery,
    ) -> None:
        if served.hub is None:
            served.hub = WatchHub(served)
        hub = served.hub
        await hub.prime(self.run_blocking)
        cursor = request.int_param(
            "cursor",
            int(request.headers.get("last-event-id", 0) or 0),
        )
        await request.body.drain()
        stream = ChunkedStream(writer)
        await stream.start()
        replay, queue = hub.subscribe(cursor)
        last_sent = cursor
        try:
            with self.registry.pinned(served.tenant):
                for seq, frame in replay:
                    if seq <= last_sent:
                        continue
                    await stream.send(frame)
                    last_sent = seq
                while True:
                    try:
                        seq, frame = await asyncio.wait_for(
                            queue.get(), timeout=self.heartbeat
                        )
                    except asyncio.TimeoutError:
                        await stream.send(b": heartbeat\n\n")
                        continue
                    if seq is None:
                        # Dropped by the hub for falling behind; end
                        # the stream so the client reconnects with its
                        # cursor and resumes from replay.
                        await stream.end()
                        break
                    if seq <= last_sent:
                        continue  # already covered by replay
                    await stream.send(frame)
                    last_sent = seq
        finally:
            hub.unsubscribe(queue)
            # The SSE response never ends cleanly from the server side
            # (Connection: close); the client hangs up when done.
            request.keep_alive = False

    # ------------------------ /v1/replica/... -------------------------
    async def _dispatch_replica(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        name: str,
        endpoint: str,
    ) -> None:
        if faultpoints.fires(REPLICA_DROP):
            raise _Disconnect()
        tenant = self.registry.get(name)
        if tenant.feed is None:
            tenant.feed = LeaderFeed(tenant.session)
        feed = tenant.feed
        with self.registry.pinned(tenant):
            if endpoint == "handshake" and request.method == "GET":
                await request.body.drain()
                payload = await self.run_blocking(
                    self._read_locked_call, tenant, feed.handshake
                )
            elif endpoint == "pull" and request.method == "POST":
                raw = await request.body.read_all()
                try:
                    spec = loads_payload(raw)
                    stamps = dict(spec["stamps"])
                    dict_len = int(spec["dict_len"])
                except (pickle.UnpicklingError, KeyError, TypeError, ValueError) as exc:
                    raise HttpError(
                        400, "bad_pull", f"undecodable pull request: {exc}"
                    ) from None
                payload = await self.run_blocking(
                    self._read_locked_call,
                    tenant,
                    feed.pull,
                    stamps,
                    dict_len,
                )
            else:
                raise HttpError(404, "no_such_route", request.path)
        body = dumps_payload(payload)
        await send_body(
            writer, 200, body, REPLICA_CONTENT_TYPE, request.keep_alive
        )

    @staticmethod
    def _read_locked_call(tenant: Tenant, fn, *args):
        # Multi-part reads (replica payload assembly: relation content
        # + stamps; a page: rows + total) take the shared side of the
        # session lock once, so the parts are consistent against
        # concurrent batched updates.
        with tenant.session._rw.read():
            return fn(*args)


def _envelope(exc: HttpError) -> dict:
    return {"error": {"code": exc.code, "message": exc.message}}


class ServerThread:
    """A :class:`QueryServer` on a background thread (sync callers).

    Tests, benchmarks, and examples use this to stand a server up
    without owning an event loop::

        with ServerThread(max_tenants=4) as server:
            client = ServerClient(server.host, server.port)
            ...
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = QueryServer(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServerThread":
        started = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # port in use, ...
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-server", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
