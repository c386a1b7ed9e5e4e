"""A13 — the serving layer under concurrent load.

PR 9's HTTP service, measured end-to-end over loopback sockets:

- **aggregate-read throughput** — hundreds of concurrent client
  sessions (keep-alive connections on their own threads) hammer the
  ``len`` endpoint of one prepared handle.  Reads hit the maintained
  counter through the shard-executor pool, so the asserted floor
  (>= 500 req/s full, >= 50 smoke) is engine-light and measures the
  serving stack itself: parsing, routing, executor dispatch, JSON
  framing.  p50/p95/p99 latencies land in the perf trajectory
  alongside the throughput.
- **NDJSON ingestion** — one streamed upload, coalesced by the
  batcher into bulk ``add_all`` calls; reported as rows/s.
- **paged reads** — the ingested handle read back page by page.

Timings append to ``benchmarks/BENCH_backends.json``.  Set
``BENCH_SMOKE=1`` for CI-sized load with the relaxed floor.
"""

import os
import threading
import time

import pytest

from repro.server import ServerClient, ServerThread

from benchmarks._harness import emit_perf_trajectory, fmt_seconds

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SESSIONS = 24 if SMOKE else 200
REQUESTS = 10 if SMOKE else 50
ROWS = 2_000 if SMOKE else 50_000
PAGE = 200
MIN_THROUGHPUT = 50.0 if SMOKE else 500.0


def percentile(latencies, p):
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    index = min(
        len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1)))
    )
    return ordered[index]


@pytest.fixture(scope="module")
def served():
    """One server + one ingested tenant shared by the module."""
    with ServerThread(flush_rows=2048) as server:
        client = ServerClient(server.host, server.port)
        client.create_db("bench", backend="columnar")
        begin = time.perf_counter()
        client.update_stream(
            "bench",
            (
                {"relation": "E", "row": [i % 977, i % 641]}
                for i in range(ROWS)
            ),
        )
        ingest_seconds = time.perf_counter() - begin
        query = client.prepare("bench", "q(x) :- E(x, y)")
        yield server, client, query, ingest_seconds
        client.close()


def read_load(server, handle_path, sessions, requests):
    """``sessions`` keep-alive clients, ``requests`` reads each."""
    latencies = []
    lock = threading.Lock()
    start_barrier = threading.Barrier(sessions + 1)
    failures = []

    def worker():
        client = ServerClient(server.host, server.port)
        mine = []
        try:
            start_barrier.wait()
            for _ in range(requests):
                begin = time.perf_counter()
                client._json("GET", handle_path)
                mine.append(time.perf_counter() - begin)
        except BaseException as exc:
            failures.append(exc)
        finally:
            client.close()
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(sessions)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    if failures:
        raise failures[0]
    return latencies, elapsed


def test_a13_ndjson_ingestion(served, experiment_report):
    server, client, query, ingest_seconds = served
    rows_per_s = ROWS / ingest_seconds
    expected = len({i % 977 for i in range(ROWS)})  # q(x) projects
    assert query.count() == expected
    experiment_report.row(
        f"NDJSON ingest, {ROWS} rows, batched add_all",
        "streamed, read-your-writes",
        f"{rows_per_s:,.0f} rows/s ({fmt_seconds(ingest_seconds)})",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": "serving-ingest-ndjson",
                "backend": "columnar",
                "m": ROWS,
                "seconds": ingest_seconds,
                "rows_per_s": rows_per_s,
            }
        ],
    )


def test_a13_aggregate_read_throughput(
    served, benchmark, experiment_report
):
    server, client, query, _ = served
    path = f"/v1/q/{query.handle}/len"

    def run():
        return read_load(server, path, SESSIONS, REQUESTS)

    latencies, elapsed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    total = len(latencies)
    assert total == SESSIONS * REQUESTS
    throughput = total / elapsed
    p50 = percentile(latencies, 50)
    p95 = percentile(latencies, 95)
    p99 = percentile(latencies, 99)
    experiment_report.row(
        f"aggregate reads, {SESSIONS} concurrent sessions",
        f">= {MIN_THROUGHPUT:,.0f} req/s",
        f"{throughput:,.0f} req/s, p50 {fmt_seconds(p50)}, "
        f"p95 {fmt_seconds(p95)}, p99 {fmt_seconds(p99)}",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": "serving-aggregate-read",
                "backend": "columnar",
                "m": total,
                "seconds": elapsed,
                "sessions": SESSIONS,
                "req_per_s": throughput,
                "p50_s": p50,
                "p95_s": p95,
                "p99_s": p99,
            }
        ],
    )
    assert throughput >= MIN_THROUGHPUT, (
        f"aggregate-read throughput {throughput:,.0f} req/s below "
        f"the {MIN_THROUGHPUT:,.0f} req/s floor"
    )


def test_a13_paged_reads(served, benchmark, experiment_report):
    server, client, query, _ = served
    total_rows = query.count()

    def run():
        fetched = 0
        for offset in range(0, total_rows, PAGE):
            fetched += len(query.page(offset, PAGE))
        return fetched

    begin = time.perf_counter()
    fetched = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = time.perf_counter() - begin
    assert fetched == total_rows
    experiment_report.row(
        f"paged reads, {PAGE}-row pages over {total_rows} answers",
        "lex order, stable under paging",
        f"{fetched / max(seconds, 1e-9):,.0f} rows/s "
        f"({fmt_seconds(seconds)})",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": "serving-paged-read",
                "backend": "columnar",
                "m": fetched,
                "seconds": seconds,
            }
        ],
    )
