"""The HTTP query service, end-to-end over real sockets.

:mod:`repro.server` turns sessions into a multi-tenant network
service; everything pinned here runs against a live
:class:`~repro.server.app.ServerThread` on a loopback socket — no
mocked transports:

- tenant lifecycle: create/info/drop, isolation between tenants,
  LRU eviction of idle tenants (and durable tenants surviving
  eviction through their on-disk directory);
- the read surface: prepare → handle, paged reads, counts, and
  semiring aggregates agree with a brute-force oracle and with a
  local session over the same data;
- streamed NDJSON ingestion with read-your-writes (the response
  arrives only after every accepted update is applied);
- the SSE watch stream: a subscriber observes **every** change of a
  200-update stream exactly once, in order, with consecutive event
  ids — and cursors resume mid-stream;
- replication over the wire: ``connect(replica_of="http://...")``
  bootstraps a follower that converges stamp-exact, including under
  injected connection drops (the ``server.replica.drop`` fault
  point), while a missing database fails fast as a terminal error;
- the JSON error envelope: stable machine-readable codes for parse
  errors, missing tenants/handles, duplicate creation, bad updates.
"""

import asyncio
import itertools
import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.engine import connect
from repro.engine.replication import ReplicationError
from repro.server import ServerClient, ServerError, ServerThread
from repro.util import faultpoints


@contextmanager
def serving(**kwargs):
    with ServerThread(**kwargs) as server:
        client = ServerClient(server.host, server.port)
        try:
            yield server, client
        finally:
            client.close()


@pytest.fixture(autouse=True)
def _clean_faultpoints():
    yield
    faultpoints.reset()


def oracle_join(r_rows, s_rows):
    return sorted(
        {
            (x, y)
            for (x, z) in r_rows
            for (z2, y) in s_rows
            if z == z2
        }
    )


# ----------------------------------------------------------------------
# tenants
# ----------------------------------------------------------------------
def test_tenant_lifecycle_and_isolation():
    with serving(max_tenants=4) as (server, client):
        assert client.health()["ok"] is True
        client.create_db("alpha")
        client.create_db("beta")
        assert client.databases() == ["alpha", "beta"]

        # Same relation name, disjoint content per tenant.
        client.add("alpha", "E", [(1, 2)])
        client.add("beta", "E", [(10, 20), (30, 40)])
        qa = client.prepare("alpha", "q(x, y) :- E(x, y)")
        qb = client.prepare("beta", "q(x, y) :- E(x, y)")
        assert qa.page(0, 10) == [(1, 2)]
        assert qb.page(0, 10) == [(10, 20), (30, 40)]

        info = client.db_info("alpha")
        assert info["relations"]["E"]["size"] == 1
        assert info["backend"] == qa.info["backend"] == "columnar"
        assert info["handles"] == [qa.handle]

        client.drop_db("alpha")
        assert client.databases() == ["beta"]
        with pytest.raises(ServerError) as excinfo:
            qa.count()
        assert excinfo.value.code == "no_such_handle"


def test_duplicate_create_conflicts():
    with serving() as (server, client):
        client.create_db("dup")
        with pytest.raises(ServerError) as excinfo:
            client.create_db("dup")
        assert excinfo.value.status == 409
        assert excinfo.value.code == "db_exists"


def test_idle_tenants_evict_lru():
    with serving(max_tenants=2) as (server, client):
        client.create_db("a")
        client.create_db("b")
        client.db_info("a")  # a is now more recently used than b
        client.create_db("c")  # evicts b
        assert client.databases() == ["a", "c"]
        assert client.health()["evicted"] == 1
        with pytest.raises(ServerError) as excinfo:
            client.db_info("b")
        assert excinfo.value.code == "no_such_db"


def test_durable_tenant_survives_eviction(tmp_path):
    with serving(max_tenants=2, data_root=str(tmp_path)) as (
        server,
        client,
    ):
        client.create_db("keep", durable=True)
        client.add("keep", "R", [(1, 2), (3, 4)])
        client.create_db("x")
        client.create_db("y")  # evicts "keep" (LRU, idle)
        assert "keep" not in client.databases()
        # Re-creating the durable tenant recovers its directory —
        # eviction closed the session cleanly (WAL flushed).
        client.create_db("keep", durable=True)
        q = client.prepare("keep", "q(x, y) :- R(x, y)")
        assert q.page(0, 10) == [(1, 2), (3, 4)]


# ----------------------------------------------------------------------
# the read surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ("python", "columnar"))
def test_prepare_page_len_aggregate_match_oracle(backend):
    r_rows = [(i, i % 5) for i in range(40)]
    s_rows = [(j % 5, j) for j in range(40)]
    with serving() as (server, client):
        client.create_db("db", backend=backend)
        client.add("db", "R", r_rows)
        client.add("db", "S", s_rows)
        q = client.prepare("db", "q(x, y) :- R(x, z), S(z, y)")
        assert q.info["backend"] == backend
        assert q.info["family"]
        expected = oracle_join(r_rows, s_rows)
        assert q.count() == len(expected)
        got = []
        for offset in range(0, q.count(), 7):
            got.extend(q.page(offset, 7))
        assert got == expected
        assert q.aggregate("counting") == len(expected)
        assert q.aggregate("boolean") is True
        # "maintained" follows Plan.maintained: a counted tree on coded
        # storage, projected queries included.
        assert not q.info["maintained"]  # acyclic-materialize: no tree
        projected = client.prepare("db", "q(x) :- R(x, z), S(z, y)")
        assert projected.info["maintained"] == (backend == "columnar")
        assert projected.count() == len({x for x, _ in expected})


def test_page_rows_and_total_come_from_one_read(monkeypatch):
    rows = [(i, i) for i in range(30)]
    with serving() as (server, client):
        client.create_db("db")
        client.add("db", "E", rows)
        q = client.prepare("db", "q(x, y) :- E(x, y)")
        served = server.server.registry.resolve_handle(q.handle)
        session = served.tenant.session
        real_page = served.answers.page
        writers = []

        def page_then_write(offset, limit):
            page = real_page(offset, limit)
            # Between the route's page read and its total read, a
            # writer tries to land; it must wait for the response.
            writer = threading.Thread(
                target=session.add, args=("E", (99, 99)), daemon=True
            )
            writers.append(writer)
            writer.start()
            writer.join(timeout=0.3)
            return page

        monkeypatch.setattr(served.answers, "page", page_then_write)
        payload = client._json(
            "GET", f"/v1/q/{q.handle}/page?offset=0&limit=10"
        )
        assert [tuple(row) for row in payload["rows"]] == rows[:10]
        assert payload["total"] == len(rows)
        writers[0].join(timeout=30)
        assert not writers[0].is_alive()
        assert q.count() == len(rows) + 1


def test_prepare_is_idempotent_per_handle():
    with serving() as (server, client):
        client.create_db("db")
        first = client.prepare("db", "q(x) :- E(x, y)")
        again = client.prepare("db", "q(x) :- E(x, y)")
        assert first.handle == again.handle
        other = client.prepare("db", "q(y) :- E(x, y)")
        assert other.handle != first.handle


def test_min_plus_aggregate_over_the_wire():
    with serving() as (server, client):
        client.create_db("db")
        q = client.prepare(
            "db", "q(x, y) :- E(x, y)", semiring="min-plus"
        )
        assert q.aggregate() == float("inf")  # empty: the zero
        client.add("db", "E", [(1, 2), (3, 4)])
        assert q.aggregate() == 0  # each answer weighs the one (0)


def test_explain_round_trips():
    with serving() as (server, client):
        client.create_db("db")
        q = client.prepare("db", "q(x, y) :- R(x, z), S(z, y)")
        text = q.explain()
        assert "backend" in text or "family" in text or text


# ----------------------------------------------------------------------
# ingestion
# ----------------------------------------------------------------------
def test_update_stream_has_read_your_writes():
    with serving(flush_rows=16) as (server, client):
        client.create_db("db")
        q = client.prepare("db", "q(x) :- E(x, y)")
        summary = client.update_stream(
            "db",
            (
                {"relation": "E", "row": [i, i + 1]}
                for i in range(500)
            ),
        )
        assert summary["accepted"] == 500
        assert summary["applied_seq"] >= 500
        # The response means "applied": the very next read sees it.
        assert q.count() == 500


def test_update_stream_mixes_ops_in_order():
    with serving(flush_rows=4) as (server, client):
        client.create_db("db")
        q = client.prepare("db", "q(x, y) :- E(x, y)")
        records = [
            {"op": "add", "relation": "E", "row": [i, 0]}
            for i in range(10)
        ]
        records += [
            {"op": "discard", "relation": "E", "row": [i, 0]}
            for i in range(0, 10, 2)
        ]
        records += [{"op": "add", "relation": "E", "row": [99, 99]}]
        client.update_stream("db", records)
        assert q.page(0, 20) == [
            (1, 0),
            (3, 0),
            (5, 0),
            (7, 0),
            (9, 0),
            (99, 99),
        ]


# ----------------------------------------------------------------------
# SSE watch
# ----------------------------------------------------------------------
def test_watch_observes_every_change_exactly_once_in_order():
    updates = 200
    with serving(flush_rows=1) as (server, client):
        client.create_db("db")
        q = client.prepare("db", "q(x) :- E(x, y)")

        events = []
        ready = threading.Event()
        done = threading.Event()

        def subscribe():
            for event in q.watch(timeout=30):
                events.append(event)
                ready.set()
                if event.data["value"] >= updates:
                    break
            done.set()

        watcher = threading.Thread(target=subscribe, daemon=True)
        watcher.start()
        # The initial snapshot proves the subscription is live before
        # the update stream starts.
        assert ready.wait(10)
        client.add("db", "E", [(i, i + 1) for i in range(updates)])
        assert done.wait(60)

        values = [event.data["value"] for event in events]
        ids = [event.id for event in events]
        # Every change, exactly once, in order: the snapshot (0) then
        # each single-row batch's new count, consecutively numbered.
        assert values == list(range(updates + 1))
        assert ids == list(range(1, updates + 2))
        # Every change event names the relation that moved.
        assert all("E" in e.data["delta"] for e in events[1:])


def test_watch_deltas_carry_exact_counts_on_columnar():
    with serving(flush_rows=1) as (server, client):
        client.create_db("db", backend="columnar")
        q = client.prepare("db", "q(x) :- E(x, y)")
        events = []
        done = threading.Event()

        def subscribe():
            for event in q.watch(timeout=10):
                events.append(event)
                if event.data["value"] >= 3:
                    break
            done.set()

        watcher = threading.Thread(target=subscribe, daemon=True)
        watcher.start()
        while not events:
            time.sleep(0.01)
        client.add("db", "E", [(i, i) for i in range(3)])
        assert done.wait(30)
        # Columnar relations keep exact history: each single-row batch
        # reports precisely one net insertion via delta_since.
        assert [e.data["delta"]["E"]["inserted"] for e in events[1:]] == [
            1,
            1,
            1,
        ]


def test_watch_cursor_resumes_after_seen_events():
    with serving(flush_rows=1) as (server, client):
        client.create_db("db")
        q = client.prepare("db", "q(x) :- E(x, y)")
        # First touch creates the hub (and its replay history).
        for event in q.watch(timeout=10):
            assert event.data["value"] == 0
            break
        client.add("db", "E", [(i, 0) for i in range(5)])

        # A fresh subscriber replays the full history from cursor 0...
        seen = []
        for event in q.watch(timeout=10):
            seen.append(event)
            if len(seen) == 3:
                break
        cursor = seen[-1].id

        # ...and a cursor resumes strictly after what was seen.
        resumed = []
        for event in q.watch(cursor=cursor, timeout=10):
            resumed.append(event)
            if event.data["value"] >= 5:
                break
        ids = [e.id for e in seen] + [e.id for e in resumed]
        assert ids == [1, 2, 3, 4, 5, 6]  # no gap, no replay
        assert resumed[-1].data["value"] == 5


# ----------------------------------------------------------------------
# replication over the wire
# ----------------------------------------------------------------------
def leader_state(server, name):
    session = server.server.registry._tenants[name].session
    return (
        {rel.name: sorted(map(tuple, rel)) for rel in session.db},
        {rel.name: rel.mutation_stamp for rel in session.db},
    )


def follower_state(follower):
    return (
        {rel.name: sorted(map(tuple, rel)) for rel in follower.db},
        {rel.name: rel.mutation_stamp for rel in follower.db},
    )


@pytest.mark.parametrize("backend", ("python", "columnar"))
def test_http_follower_bootstraps_and_converges(backend):
    with serving() as (server, client):
        client.create_db("lead", backend=backend)
        client.add("lead", "R", [(i, i + 1) for i in range(25)])
        follower = connect(replica_of=client.replica_url("lead"))
        assert follower_state(follower) == leader_state(server, "lead")

        client.add("lead", "R", [(100, 101)])
        client.discard("lead", "R", [(0, 1)])
        client.add("lead", "S", [(7, 7)])
        follower.sync()
        content, stamps = follower_state(follower)
        lead_content, lead_stamps = leader_state(server, "lead")
        assert content == lead_content
        assert stamps == lead_stamps  # stamp-exact, not just equal
        follower.close()


def test_http_follower_converges_under_injected_drops():
    with serving() as (server, client):
        client.create_db("lead", backend="columnar")
        client.add("lead", "R", [(i, i) for i in range(10)])
        # Drop the first replica request (the handshake) on the floor:
        # bootstrap itself must retry through the transient failure.
        faultpoints.arm("server.replica.drop", at=1)
        follower = connect(
            replica_of=client.replica_url("lead"),
            retries=6,
            backoff=0.01,
        )
        assert follower_state(follower) == leader_state(server, "lead")

        # Now drop two consecutive pulls mid-replication.
        client.add("lead", "R", [(50, 50)])
        faultpoints.arm("server.replica.drop", at=1)
        follower.sync()
        client.add("lead", "R", [(60, 60)])
        faultpoints.arm("server.replica.drop", at=1)
        follower.sync()
        assert follower_state(follower) == leader_state(server, "lead")
        assert faultpoints.hits("server.replica.drop") == 3
        follower.close()


def test_http_follower_missing_db_is_terminal():
    with serving() as (server, client):
        with pytest.raises(ReplicationError) as excinfo:
            connect(
                replica_of=client.replica_url("ghost"),
                retries=3,
                backoff=0.01,
            )
        assert "ghost" in str(excinfo.value)


def test_replica_url_parsing_rejects_junk():
    from repro.server import transport_for_url

    with pytest.raises(ValueError):
        transport_for_url("https://h:1/v1/replica/db")
    with pytest.raises(ValueError):
        transport_for_url("http://h:1/v2/replica/db")
    with pytest.raises(ValueError):
        transport_for_url("http://h/v1/replica/db")  # no port


# ----------------------------------------------------------------------
# the error envelope
# ----------------------------------------------------------------------
def test_error_envelope_codes():
    with serving() as (server, client):
        with pytest.raises(ServerError) as excinfo:
            client.db_info("nope")
        assert (excinfo.value.status, excinfo.value.code) == (
            404,
            "no_such_db",
        )

        client.create_db("db")
        with pytest.raises(ServerError) as excinfo:
            client.prepare("db", "q(x :- broken")
        assert (excinfo.value.status, excinfo.value.code) == (
            400,
            "parse_error",
        )

        with pytest.raises(ServerError) as excinfo:
            client.prepare("db", "q(x) :- E(x, y)", semiring="modular")
        assert excinfo.value.code == "bad_semiring"

        # The backend is a property of the database, not of a prepare.
        with pytest.raises(ServerError) as excinfo:
            client._json(
                "POST",
                "/v1/db/db/prepare",
                {"query": "q(x) :- E(x, y)", "backend": "python"},
            )
        assert (excinfo.value.status, excinfo.value.code) == (
            400,
            "bad_request",
        )
        assert "POST /v1/db/{name}" in excinfo.value.message

        with pytest.raises(ServerError) as excinfo:
            client.create_db("bad$name")
        assert excinfo.value.code == "bad_db_name"

        with pytest.raises(ServerError) as excinfo:
            client.update_stream(
                "db", [{"relation": "E"}]  # no row
            )
        assert excinfo.value.code == "bad_update"

        with pytest.raises(ServerError) as excinfo:
            client.update_stream(
                "db",
                [{"op": "upsert", "relation": "E", "row": [1, 2]}],
            )
        assert excinfo.value.code == "bad_update"

        # The connection survives every one of those errors.
        assert client.health()["ok"] is True


def test_unknown_route_is_404():
    with serving() as (server, client):
        with pytest.raises(ServerError) as excinfo:
            client._json("GET", "/v1/nonsense")
        assert excinfo.value.code == "no_such_route"


# ----------------------------------------------------------------------
# hardening regressions
# ----------------------------------------------------------------------
def test_dot_only_db_names_rejected(tmp_path):
    # '.' and '..' pass the character-set check but would alias or
    # escape data_root as durable tenant directories.
    with serving(data_root=str(tmp_path)) as (server, client):
        for name in (".", ".."):
            with pytest.raises(ServerError) as excinfo:
                client.create_db(name, durable=True)
            assert excinfo.value.code == "bad_db_name"
        assert list(tmp_path.iterdir()) == []


def test_session_factory_pins_durable_paths_inside_data_root(tmp_path):
    # Belt and braces below the registry's name validation: a custom
    # registry must still not place a tenant outside data_root.
    from repro.server.http import HttpError
    from repro.server.tenants import default_session_factory

    with pytest.raises(HttpError) as excinfo:
        default_session_factory("..", {"durable": True}, str(tmp_path))
    assert excinfo.value.code == "bad_db_name"
    assert list(tmp_path.iterdir()) == []


def test_negative_content_length_rejected():
    # A negative length once reached reader.read(-N) — read-until-EOF
    # — hanging the keep-alive connection.
    with serving() as (server, client):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: -5\r\n"
                b"\r\n"
            )
            chunks = []
            while True:
                block = sock.recv(65536)
                if not block:
                    break
                chunks.append(block)
        data = b"".join(chunks)
        assert data.split(b"\r\n", 1)[0].endswith(b"400 Bad Request")
        assert b"bad_request" in data


def test_server_pool_is_not_the_shard_pool():
    # Regression: sharing one bounded pool between run_in_executor
    # dispatch and the shard fan-outs those calls make can deadlock
    # once every thread is an outer call waiting on an inner task.
    from repro.db.executor import executor_for

    with serving(workers=2) as (server, client):
        shard_pool = executor_for(2).stdlib_pool()
        assert server.server._pool is not shard_pool


def test_concurrent_reads_during_sharded_updates_do_not_deadlock():
    # The saturation scenario behind the dedicated server pool: a
    # sharded add_all holds the write lock and fans out per-shard work
    # while reader requests block on the same lock.  When the server
    # shared the 2-thread shard pool, the inner shard tasks queued
    # behind the blocked readers forever.
    from repro.server.client import RemoteQuery

    with serving(workers=2, flush_rows=8) as (server, client):
        client.create_db("db", backend="sharded", shard_count=4, workers=2)
        client.add("db", "E", [(i, i % 7) for i in range(64)])
        handle = client.prepare("db", "q(x, y) :- E(x, y)").handle
        errors = []
        done = threading.Event()

        def reads():
            reader = ServerClient(server.host, server.port)
            try:
                q = RemoteQuery(reader, {"handle": handle})
                while not done.is_set():
                    q.count()
                    q.page(0, 5)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
            finally:
                reader.close()

        readers = [
            threading.Thread(target=reads, daemon=True) for _ in range(4)
        ]
        for thread in readers:
            thread.start()
        try:
            for round_no in range(5):
                base = 200 + 64 * round_no
                client.add(
                    "db", "E", [(base + i, i) for i in range(64)]
                )
        finally:
            done.set()
        for thread in readers:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []


def test_batcher_failure_wakes_blocked_producers():
    # A producer blocked in put() on a full queue must observe the
    # drainer's failure instead of waiting forever on a dead consumer.
    from repro.server.batcher import UpdateBatcher

    async def scenario():
        boom = RuntimeError("engine blew up")

        async def run_blocking(fn, *args):
            raise boom

        session = SimpleNamespace(
            add_all=lambda *args: None,
            discard_all=lambda *args: None,
        )
        batcher = UpdateBatcher(
            session,
            run_blocking,
            queue_size=1,
            flush_rows=1,
        )

        async def producer():
            for i in range(10):
                await batcher.put("add", "E", (i,))

        with pytest.raises(RuntimeError, match="engine blew up"):
            await asyncio.wait_for(producer(), timeout=10)

    asyncio.run(scenario())


def test_watch_hub_drops_overflowing_subscriber():
    # A stalled SSE consumer's queue is bounded: on overflow the hub
    # stops feeding it and appends the end-of-stream marker instead of
    # accumulating frames without bound.
    from repro.server.app import WatchHub

    class CountingAnswers:
        def __init__(self):
            self.calls = 0

        def count(self):
            self.calls += 1
            return self.calls

    served = SimpleNamespace(
        prepared=SimpleNamespace(
            query=SimpleNamespace(relation_symbols=()),
            semiring=None,
            database=[],
        ),
        answers=CountingAnswers(),
    )

    async def scenario():
        async def run_blocking(fn, *args):
            return fn(*args)

        hub = WatchHub(served)
        hub.QUEUE_LIMIT = 2
        replay, queue = hub.subscribe(0)
        assert replay == []
        for _ in range(5):
            await hub.notify(run_blocking)
        assert queue not in hub.queues  # dropped, no longer fed
        items = []
        while not queue.empty():
            items.append(queue.get_nowait())
        assert len(items) <= hub.QUEUE_LIMIT
        assert items[-1][0] is None  # the end-of-stream marker

    asyncio.run(scenario())
