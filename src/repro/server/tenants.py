"""Multi-tenant session registry with LRU eviction of idle tenants.

A *tenant* is one named :class:`~repro.engine.session.Session` plus
everything the server built on it: prepared-query handles, the update
batcher, watch hubs, and (lazily) a replication feed.  Tenants are
fully isolated — each owns its database, dictionary, and (for durable
tenants) its on-disk directory under the server's ``data_root``.

The registry is single-threaded by construction: every method runs on
the server's event loop (blocking engine work is what gets dispatched
to the thread pool, never registry bookkeeping), so there is no lock.

Eviction: the registry holds at most ``max_tenants`` sessions.
Creating one past the cap evicts the least-recently-used *idle*
tenant — idle meaning no in-flight request and no live SSE subscriber
(tracked by a pin count) — and releases its resources through
:meth:`~repro.engine.session.Session.close`, which is exactly why
that method exists.  A durable tenant's directory survives eviction;
re-creating the tenant with ``durable=True`` recovers it.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.engine.session import Session, connect
from repro.server.http import HttpError

#: Tenant names are path- and URL-safe by construction.
NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789_.-"
)


def default_session_factory(
    name: str, config: dict, data_root: Optional[str]
) -> Session:
    """Build a tenant session from the creation request's JSON body.

    ``backend`` (default ``"columnar"``) / ``shard_count`` /
    ``workers`` pass straight to
    :func:`repro.engine.session.connect`.  A tenant
    asking ``durable: true`` gets a WAL-backed session whose directory
    is ``<data_root>/<name>`` — the *server* chooses the path, so no
    network peer can aim a tenant at an arbitrary filesystem location.
    """
    kwargs = {
        "backend": config.get("backend", "columnar"),
        "shard_count": config.get("shard_count"),
        "workers": config.get("workers"),
    }
    if config.get("durable"):
        if data_root is None:
            raise HttpError(
                400,
                "durability_disabled",
                "this server was started without a data_root; "
                "durable tenants are unavailable",
            )
        path = os.path.join(data_root, name)
        # Belt and braces under the registry's name validation: a
        # durable tenant's directory must stay strictly inside
        # data_root ('.' / '..' would alias or escape it).
        root = os.path.realpath(data_root)
        if not os.path.realpath(path).startswith(root + os.sep):
            raise HttpError(
                400,
                "bad_db_name",
                f"tenant directory for {name!r} would escape the "
                "server's data_root",
            )
        kwargs["path"] = path
        kwargs["sync"] = config.get("sync", "batch")
    return connect(**kwargs)


class ServedQuery:
    """One prepared query under one handle."""

    def __init__(self, handle: str, tenant: "Tenant", prepared) -> None:
        self.handle = handle
        self.tenant = tenant
        self.prepared = prepared
        self.answers = prepared.run()
        self.hub = None  # WatchHub, attached on first /watch

    def info(self) -> dict:
        plan = self.prepared.plan
        return {
            "handle": self.handle,
            "db": self.tenant.name,
            "query": str(self.prepared.query),
            "family": plan.family,
            "backend": plan.backend,
            "shard_count": plan.shard_count,
            "order": list(plan.order) if plan.order else None,
            "access_admissible": plan.access_admissible,
            "maintained": plan.maintained,
            "explain": self.prepared.explain(),
        }


class Tenant:
    """Registry entry: session + handles + serving machinery."""

    def __init__(self, name: str, session: Session) -> None:
        self.name = name
        self.session = session
        self.handles: Dict[str, ServedQuery] = {}
        self._handle_of: Dict[int, str] = {}  # id(prepared) -> handle
        self.batcher = None  # UpdateBatcher, attached by the app
        self.feed = None  # LeaderFeed, attached on first replica call
        self.pins = 0
        self.tick = 0

    @property
    def idle(self) -> bool:
        return self.pins == 0

    def handle_for(self, prepared, mint: Callable[[], str]) -> ServedQuery:
        """The stable handle of a prepared query (minting one once).

        ``Session.prepare`` deduplicates identical preparations, so
        re-preparing the same query must return the same handle — a
        client reconnecting after a crash finds its old handle still
        valid instead of accumulating aliases.
        """
        handle = self._handle_of.get(id(prepared))
        if handle is not None:
            return self.handles[handle]
        handle = mint()
        served = ServedQuery(handle, self, prepared)
        self.handles[handle] = served
        self._handle_of[id(prepared)] = handle
        return served


class TenantRegistry:
    """Name → :class:`Tenant`, bounded by LRU eviction of idle ones."""

    def __init__(
        self,
        max_tenants: int = 32,
        data_root: Optional[str] = None,
        session_factory=default_session_factory,
    ) -> None:
        self.max_tenants = max(1, int(max_tenants))
        self.data_root = data_root
        self._factory = session_factory
        self._tenants: Dict[str, Tenant] = {}
        self._handles: Dict[str, ServedQuery] = {}
        self._clock = 0
        self._minted = 0
        self.evicted = 0  # cumulative, for introspection/tests

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _bump(self, tenant: Tenant) -> Tenant:
        self._clock += 1
        tenant.tick = self._clock
        return tenant

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise HttpError(
                404, "no_such_db", f"no database named {name!r}"
            )
        return self._bump(tenant)

    def resolve_handle(self, handle: str) -> ServedQuery:
        served = self._handles.get(handle)
        if served is None:
            raise HttpError(
                404,
                "no_such_handle",
                f"no prepared query under handle {handle!r} (it may "
                "have been evicted with its database; prepare again)",
            )
        self._bump(served.tenant)
        return served

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(self, name: str, config: dict) -> Tenant:
        # At least one alphanumeric: rules out '.' and '..', which
        # would otherwise alias or escape data_root as durable paths.
        if (
            not name
            or not set(name) <= NAME_OK
            or not any(ch.isalnum() for ch in name)
        ):
            raise HttpError(
                400,
                "bad_db_name",
                "database names use [A-Za-z0-9_.-] only and need at "
                "least one alphanumeric character",
            )
        if name in self._tenants:
            raise HttpError(
                409, "db_exists", f"database {name!r} already exists"
            )
        while len(self._tenants) >= self.max_tenants:
            self._evict_one()
        session = self._factory(name, config, self.data_root)
        tenant = Tenant(name, session)
        self._tenants[name] = tenant
        return self._bump(tenant)

    def _evict_one(self) -> None:
        candidates = [t for t in self._tenants.values() if t.idle]
        if not candidates:
            raise HttpError(
                503,
                "tenants_exhausted",
                f"all {self.max_tenants} tenants are active; retry "
                "later or drop one",
            )
        victim = min(candidates, key=lambda t: t.tick)
        self.evicted += 1
        self._discard(victim)

    def drop(self, name: str) -> None:
        tenant = self.get(name)
        self._discard(tenant)

    def _discard(self, tenant: Tenant) -> None:
        del self._tenants[tenant.name]
        for handle in tenant.handles:
            self._handles.pop(handle, None)
        tenant.handles.clear()
        # Deterministic release: WAL flushed+closed, spill files
        # removed, maintained structures dropped (Session.close).
        tenant.session.close()

    def close(self) -> None:
        for tenant in list(self._tenants.values()):
            self._discard(tenant)

    # ------------------------------------------------------------------
    # handles
    # ------------------------------------------------------------------
    def register(self, tenant: Tenant, prepared) -> ServedQuery:
        def mint() -> str:
            self._minted += 1
            return f"{tenant.name}.q{self._minted}"

        served = tenant.handle_for(prepared, mint)
        self._handles[served.handle] = served
        return served

    # ------------------------------------------------------------------
    # pinning (requests in flight / SSE subscribers)
    # ------------------------------------------------------------------
    class _Pin:
        def __init__(self, tenant: Tenant) -> None:
            self._tenant = tenant

        def __enter__(self) -> Tenant:
            self._tenant.pins += 1
            return self._tenant

        def __exit__(self, *exc) -> None:
            self._tenant.pins -= 1

    def pinned(self, tenant: Tenant) -> "TenantRegistry._Pin":
        """Context manager marking ``tenant`` busy (eviction-exempt)."""
        return TenantRegistry._Pin(tenant)

    def stats(self) -> Tuple[int, int]:
        return len(self._tenants), self.evicted
