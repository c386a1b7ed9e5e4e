"""The network service: sessions served over HTTP, SSE, replication.

PR 9's serving layer (:mod:`repro.server`) turns sessions into a
multi-tenant query service — stdlib-only asyncio HTTP/1.1 with
hand-rolled request parsing.  This example stands a server up on a
loopback port and walks the whole surface:

- two isolated tenants sharing one process (and one engine pool);
  a tenant's storage backend is fixed at ``create_db`` (columnar
  unless the request says otherwise) and every query executes on it;
- ``prepare`` over the wire: the handle echoes the plan (family,
  the tenant's backend, maintained count) exactly as ``explain()``
  reports it;
- streamed NDJSON ingestion with read-your-writes: the upload's
  response arrives only after every update is applied;
- paged reads and semiring aggregates against the live handle;
- an SSE ``watch`` subscription observing each change exactly once;
- replication over HTTP: ``connect(replica_of="http://...")``
  bootstraps a local follower session from the served tenant and
  converges stamp-exact through delta pulls; queries prepared on the
  follower stay live across ``sync()``.

Run:  python examples/http_serving.py
"""

import threading

from repro import connect
from repro.server import ServerClient, ServerThread


def main() -> None:
    # Updates are applied as soon as they arrive, in batches of
    # whatever is queued; flush_rows=1 caps a batch at one row, so the
    # watcher below sees the count move one update at a time.
    with ServerThread(flush_rows=1) as server:
        client = ServerClient(server.host, server.port)
        print(f"serving on {server.url}")

        # Two tenants, fully isolated, one process.
        client.create_db("store")
        client.create_db("metrics", backend="columnar")
        client.add("metrics", "E", [(1, 1)])
        print(f"tenants: {client.databases()}")

        # Prepare returns a handle whose info mirrors explain().
        query = client.prepare(
            "store", "q(user, item) :- Clicks(user, item), Active(user)"
        )
        print(
            f"handle {query.handle}: family={query.info['family']}, "
            f"backend={query.info['backend']}"
        )

        # An SSE subscriber on a background thread sees every change.
        events = []
        ready = threading.Event()
        done = threading.Event()

        def watch() -> None:
            for event in query.watch(timeout=30):
                events.append(event.data["value"])
                ready.set()
                if event.data["value"] >= 4:
                    break
            done.set()

        # (A change event fires only when the answer count actually
        # moves — inserts that join nothing stay silent.)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        assert ready.wait(10)  # the initial snapshot arrived

        # Streamed NDJSON ingestion: response == applied.
        summary = client.update_stream(
            "store",
            [
                {"relation": "Clicks", "row": [u, i]}
                for u, i in [(1, 10), (1, 20), (2, 30), (3, 40)]
            ]
            + [
                {"relation": "Active", "row": [u]}
                for u in (1, 2, 3)
            ],
        )
        print(f"ingested: {summary['accepted']} updates applied")

        # Paged reads + aggregates on the live handle.
        print(f"answers: {query.page(0, 10)}")
        print(f"count:   {query.count()}")
        print(f"boolean: {query.aggregate('boolean')}")
        assert query.count() == 4

        assert done.wait(10)
        print(f"watched values: {events}")
        # The Clicks rows land first but join no Active user yet, so
        # the count stays 0 (no event); each Active row then unlocks
        # that user's clicks: 0 -> 2 -> 3 -> 4, each change exactly
        # once, in order.
        assert events == [0, 2, 3, 4]

        # Replication over the wire: a local follower session.
        follower = connect(replica_of=client.replica_url("store"))
        rows = sorted(map(tuple, follower.db["Clicks"]))
        print(f"follower Clicks: {rows}")
        assert len(rows) == 4
        replica_answers = follower.prepare(
            "q(user, item) :- Clicks(user, item), Active(user)"
        ).run()
        assert len(replica_answers) == 4

        client.add("store", "Clicks", [(3, 50)])
        follower.sync()
        assert len(follower.db["Clicks"]) == 5
        assert len(replica_answers) == query.count() == 5
        stamps_match = all(
            follower.db[name].mutation_stamp
            == server.server.registry._tenants["store"]
            .session.db[name]
            .mutation_stamp
            for name in ("Clicks", "Active")
        )
        print(f"follower converged stamp-exact: {stamps_match}")
        assert stamps_match

        follower.close()
        client.close()
    print("server stopped; all resources released")


if __name__ == "__main__":
    main()
