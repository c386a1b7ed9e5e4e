"""Backpressure-aware coalescing of streamed updates into bulk calls.

The ingestion endpoint reads NDJSON update records off the socket one
line at a time; applying each row individually would pay the full
delta-propagation cost per tuple.  :class:`UpdateBatcher` sits in
between: records land in a **bounded** :class:`asyncio.Queue` (when
the engine falls behind, the queue fills, the reader coroutine blocks
on ``put()``, the server stops reading the socket, and TCP pushes the
backpressure all the way to the uploading client), and a single
drainer task applies them as one
:meth:`~repro.engine.session.Session.add_all` /
:meth:`~repro.engine.session.Session.discard_all` call per batch,
executed on the engine thread pool.

Batching is a group commit: the drainer blocks for one record, then
takes whatever is already queued, and that is the batch.  A batch
holds one ``(op, relation)`` run — a switch starts the next batch —
and at most ``flush_rows`` rows, which bounds how long one call holds
the session's write lock.  A lone update is therefore applied at
once, while under load the queue keeps filling as each batch runs on
the pool, so the next batch takes the backlog (up to ``flush_rows``).
Order is preserved exactly: batches are applied in arrival order.

``enqueued_seq`` / ``applied_seq`` number every accepted record;
:meth:`barrier` waits until everything enqueued so far has been
applied, which is what gives the ingestion response its read-your-
writes meaning and the tests their synchronisation point.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Awaitable, Callable, List, Optional, Tuple

#: One queued update: (op, relation, row).
Record = Tuple[str, str, tuple]


class UpdateBatcher:
    """Coalesce a stream of single-row updates into bulk engine calls."""

    def __init__(
        self,
        session,
        run_blocking: Callable[..., Awaitable],
        queue_size: int = 1024,
        flush_rows: int = 256,
        on_applied: Optional[Callable[[str, str, int], None]] = None,
    ) -> None:
        self._session = session
        self._run_blocking = run_blocking
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.flush_rows = max(1, int(flush_rows))
        self._on_applied = on_applied
        self.enqueued_seq = 0
        self.applied_seq = 0
        self._applied_cond = asyncio.Condition()
        self._task: Optional[asyncio.Task] = None
        self._failure: Optional[BaseException] = None
        self._closed = False

    # ------------------------------------------------------------------
    # producer side (the ingestion handler)
    # ------------------------------------------------------------------
    async def put(self, op: str, relation: str, row: tuple) -> int:
        """Enqueue one update; blocks when the queue is full.

        Returns the record's sequence number.  Raises the drainer's
        failure if a previous batch blew up (the error surfaces on the
        *next* record, mirroring how group-commit durability reports).
        """
        if self._failure is not None:
            raise self._failure
        if self._closed:
            raise RuntimeError("update batcher is closed")
        self._ensure_task()
        await self._queue.put((op, relation, row))
        if self._failure is not None:
            # The drainer died while we were blocked on a full queue
            # (it drained the queue to wake us); the record we just
            # enqueued will never be applied.
            raise self._failure
        self.enqueued_seq += 1
        return self.enqueued_seq

    async def barrier(self) -> int:
        """Wait until every record enqueued so far is applied."""
        target = self.enqueued_seq
        async with self._applied_cond:
            while self.applied_seq < target:
                if self._failure is not None:
                    raise self._failure
                await self._applied_cond.wait()
        if self._failure is not None:
            raise self._failure
        return self.applied_seq

    async def close(self) -> None:
        """Flush remaining records and stop the drainer."""
        if self._closed:
            return
        self._closed = True
        if self._task is not None:
            try:
                await self.barrier()
            finally:
                self._task.cancel()
                try:
                    await self._task
                except (asyncio.CancelledError, Exception):
                    pass
                self._task = None

    # ------------------------------------------------------------------
    # consumer side (the drainer task)
    # ------------------------------------------------------------------
    def _ensure_task(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._drain(), name="update-batcher"
            )

    async def _drain(self) -> None:
        try:
            while True:
                batch = [await self._queue.get()]
                while (
                    len(batch) < self.flush_rows
                    and not self._queue.empty()
                ):
                    record = self._queue.get_nowait()
                    if record[:2] != batch[0][:2]:
                        # A new op/relation pair cannot coalesce with
                        # the current run: apply the run first to
                        # preserve order.
                        await self._apply(batch)
                        batch = []
                    batch.append(record)
                await self._apply(batch)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self._failure = exc
            # Nothing will consume the queue anymore: clear it so
            # producers blocked in put() wake up (their post-put
            # failure check raises) instead of waiting forever.
            while True:
                try:
                    self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            async with self._applied_cond:
                self._applied_cond.notify_all()

    async def _apply(self, batch: List[Record]) -> None:
        op, relation = batch[0][0], batch[0][1]
        rows = [record[2] for record in batch]
        if op == "add":
            await self._run_blocking(
                self._session.add_all, relation, rows
            )
        else:
            await self._run_blocking(
                self._session.discard_all, relation, rows
            )
        async with self._applied_cond:
            self.applied_seq += len(batch)
            self._applied_cond.notify_all()
        if self._on_applied is not None:
            # Awaited inline so watch-hub notifications observe
            # batches strictly in application order (the exactly-once,
            # in-order SSE contract hangs on this).
            outcome = self._on_applied(op, relation, len(batch))
            if inspect.isawaitable(outcome):
                await outcome
