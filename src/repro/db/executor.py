"""Shard execution layer: serial and thread-pooled per-shard map/reduce.

Every per-shard loop of the sharded *storage* layer
(:mod:`repro.db.sharded`) — batched ingestion, compaction,
``delta_since`` assembly, coalescing ``codes()``, distinct counts —
dispatches through a :class:`ShardExecutor` instead of a bare ``for``
loop.  Query algorithms never fan out over shards: they read the
coalesced code matrix.

Two implementations share the contract "``map(fn, items)`` returns
``[fn(item) for item in items]`` in input order":

* :class:`SerialExecutor` runs inline.  It is the default on a
  single-core host and whenever per-item work must stay serialized
  (e.g. WAL-journaled mutations, whose log records must not
  interleave).
* :class:`ParallelExecutor` runs items on a shared
  :class:`concurrent.futures.ThreadPoolExecutor`.  Threads (not
  processes) are the right pool here because the per-shard kernels are
  NumPy reductions and gathers that release the GIL; shard state is
  disjoint, so per-shard calls never contend on relation internals.

Because ``pool.map`` yields results in submission order, a parallel map
over shards is a *drop-in* replacement for the serial loop: shard
parts concatenate in shard-index order and results stay bit-identical
to serial execution.

Worker count resolution (:func:`resolve_workers`): an explicit value
wins, then the ``REPRO_WORKERS`` environment variable, then
``os.cpu_count()``.  ``connect(workers=...)`` threads an explicit value
through :class:`repro.db.database.Database` down to every sharded
relation.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar, Union

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment override for the default worker count (0/1 => serial).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_WORKERS`` > cpu count."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                workers = None
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


class ShardExecutor:
    """Maps a function over per-shard work items, preserving order.

    The base class doubles as the serial strategy; subclasses override
    :meth:`map`.  ``workers`` is informational.
    """

    workers: int = 1

    def map(
        self, fn: Callable[[_T], _R], items: Iterable[_T]
    ) -> List[_R]:
        return [fn(item) for item in items]

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def stdlib_pool(self) -> Optional[ThreadPoolExecutor]:
        """The underlying :mod:`concurrent.futures` pool, if any.

        Serial executors have none and return ``None``.  Callers that
        submit work which may itself re-enter :meth:`map` (e.g. an
        outer engine call fanning out over shards) must NOT run that
        work on this pool: outer calls waiting on inner shard tasks in
        the same bounded pool deadlock once it saturates.  The asyncio
        serving layer keeps its own dedicated pool for exactly that
        reason.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(ShardExecutor):
    """Inline execution; the reference every parallel run must match."""


#: Process-wide serial singleton (executors are stateless re: shards).
SERIAL = SerialExecutor()

# A worker thread that re-enters map() must run inline: waiting on
# the same bounded pool from inside the pool can deadlock once all
# workers block.
_REENTRANT = threading.local()


class ParallelExecutor(ShardExecutor):
    """Ordered map over a lazily created, reusable thread pool."""

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def map(
        self, fn: Callable[[_T], _R], items: Iterable[_T]
    ) -> List[_R]:
        work: Sequence[_T] = items if isinstance(items, Sequence) else list(items)
        if len(work) <= 1 or getattr(_REENTRANT, "active", False):
            return [fn(item) for item in work]

        def call(item: _T) -> _R:
            _REENTRANT.active = True
            try:
                return fn(item)
            finally:
                _REENTRANT.active = False

        # pool.map yields results in submission order, so shard index
        # order — and therefore every downstream merge — is preserved.
        return list(self._ensure_pool().map(call, work))

    def stdlib_pool(self) -> ThreadPoolExecutor:
        return self._ensure_pool()

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


# One shared pool per worker count: sessions and databases asking for
# the same parallelism reuse threads instead of multiplying pools.
_SHARED: dict = {}
_SHARED_LOCK = threading.Lock()


def executor_for(workers: Optional[int] = None) -> ShardExecutor:
    """Executor for a worker count; serial when it resolves to 1."""
    count = resolve_workers(workers)
    if count <= 1:
        return SERIAL
    with _SHARED_LOCK:
        executor = _SHARED.get(count)
        if executor is None:
            executor = ParallelExecutor(count)
            _SHARED[count] = executor
        return executor


def close_shared_pools() -> None:
    """Shut down every shared thread pool deterministically.

    Shared executors stay registered (they are keyed by worker count
    and self-heal — the next ``map`` lazily recreates the pool), so
    this is safe to call at any quiesce point: session teardown in a
    long-lived process, test teardown, interpreter exit.  Without it,
    idle pool threads linger until process exit.
    """
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
    for executor in executors:
        executor.close()


_DEFAULT: Optional[ShardExecutor] = None
_DEFAULT_LOCK = threading.Lock()


def get_default_executor() -> ShardExecutor:
    """Process default used when no executor was threaded through."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = executor_for(None)
        return _DEFAULT


def set_default_executor(
    executor: Union[ShardExecutor, int, None],
) -> ShardExecutor:
    """Override (int => pool of that size, None => re-resolve lazily)."""
    global _DEFAULT
    if isinstance(executor, int):
        executor = executor_for(executor)
    with _DEFAULT_LOCK:
        _DEFAULT = executor
    return get_default_executor()
