"""A9 — the sharded columnar storage layout.

PR 5's partitioned storage, measured two ways against the
single-matrix columnar backend:

- **batched ingestion** — ``add_all`` of one large batch into a
  sharded database (encode once, one vectorized hash-routing pass,
  per-shard code-batch adoption).  Routing costs one extra pass, so
  sharded ingestion is asserted to stay within 0.8x of unsharded
  throughput.
- **aggregation** — counting and tropical aggregation of an acyclic
  join query.  A sharded relation is read through its coalesced code
  matrix, so this is the same fused FAQ pass plus the cost of the
  concatenation.  Asserted identical to the unsharded columnar and
  python backends, within 0.8x of unsharded columnar speed, and with
  **zero row decodes** (``decoded_row_count``).

Timings append to ``benchmarks/BENCH_backends.json`` for the perf
trajectory.  Set ``BENCH_SMOKE=1`` for tiny sizes with the speed
assertions skipped (parity and the zero-decode assertion always run;
CI wires this into the bench-smoke matrix).
"""

import os
import time

from repro.counting import count_answers
from repro.db import Database
from repro.db.columnar import decoded_row_count, reset_decoded_row_count
from repro.query import catalog
from repro.semiring.faq import aggregate_acyclic
from repro.semiring.semirings import MIN_PLUS
from repro.util.rng import make_rng

from benchmarks._harness import emit_perf_trajectory, fmt_seconds

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

STAR_M = 1_000 if SMOKE else 60_000  # per relation; total m = 2x
INGEST_ROWS = 2_000 if SMOKE else 400_000
SHARDS = 4
# Sharded must retain at least this fraction of unsharded throughput.
MIN_RELATIVE_THROUGHPUT = 0.8

STAR_QUERY = catalog.star_query_full(2, self_join_free=True)


def _star_rows(m, domain, seed):
    rng = make_rng(seed)
    return {
        name: [
            (rng.randrange(domain * 2), rng.randrange(domain))
            for _ in range(m)
        ]
        for name in ("R1", "R2")
    }


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def _emit(workload, m, seconds):
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": workload,
                "backend": backend,
                "m": m,
                "seconds": value,
            }
            for backend, value in seconds.items()
        ],
    )


def test_a9_batched_ingestion(benchmark, experiment_report):
    rng = make_rng(29)
    rows = [
        (rng.randrange(INGEST_ROWS), rng.randrange(1024))
        for _ in range(INGEST_ROWS)
    ]

    def ingest(backend):
        db = Database(
            backend=backend,
            shard_count=SHARDS if backend == "sharded" else None,
        )
        relation = db.ensure_relation("R", 2)
        relation.add_all(rows)
        return db

    def run():
        # Best-of-3 per backend: the ratio assertion should compare
        # steady-state ingestion, not allocator warm-up effects.
        seconds = {}
        databases = {}
        for backend in ("columnar", "sharded"):
            for _ in range(1 if SMOKE else 3):
                built, elapsed = _timed(
                    lambda backend=backend: ingest(backend)
                )
                databases[backend] = built
                seconds[backend] = min(
                    seconds.get(backend, elapsed), elapsed
                )
        return databases, seconds

    databases, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    sharded = databases["sharded"]["R"]
    assert sharded.rows() == databases["columnar"]["R"].rows()
    assert sum(sharded.shard_sizes()) == len(sharded)
    assert sum(size > 0 for size in sharded.shard_sizes()) > 1
    relative = seconds["columnar"] / seconds["sharded"]
    experiment_report.row(
        f"batched ingestion, {INGEST_ROWS} rows x {SHARDS} shards",
        f"identical content, >= {MIN_RELATIVE_THROUGHPUT}x throughput",
        f"{relative:.2f}x of unsharded (columnar "
        f"{fmt_seconds(seconds['columnar'])}, sharded "
        f"{fmt_seconds(seconds['sharded'])})",
    )
    _emit("shard_ingest", INGEST_ROWS, seconds)
    if not SMOKE:
        assert relative >= MIN_RELATIVE_THROUGHPUT


def test_a9_aggregation(benchmark, experiment_report):
    domain = max(STAR_M // 40, 3)
    rows = _star_rows(STAR_M, domain, seed=31)
    databases = {
        "python": Database.from_dict(rows, backend="python"),
        "columnar": Database.from_dict(rows, backend="columnar"),
        "sharded": Database.from_dict(
            rows, backend="sharded", shard_count=SHARDS
        ),
    }
    for relation in databases["sharded"]:
        assert sum(size > 0 for size in relation.shard_sizes()) > 1

    def run():
        # Best-of-3 per backend: the ratio assertion should compare
        # steady-state array programs, not first-touch cache effects.
        results, seconds = {}, {}
        for backend in ("columnar", "sharded"):
            db = databases[backend]
            for _ in range(1 if SMOKE else 3):
                result, elapsed = _timed(
                    lambda db=db: (
                        count_answers(STAR_QUERY, db),
                        aggregate_acyclic(STAR_QUERY, db, MIN_PLUS),
                    )
                )
                results[backend] = result
                seconds[backend] = min(
                    seconds.get(backend, elapsed), elapsed
                )
        return results, seconds

    reset_decoded_row_count()
    results, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert decoded_row_count() == 0
    oracle = (
        count_answers(STAR_QUERY, databases["python"]),
        aggregate_acyclic(STAR_QUERY, databases["python"], MIN_PLUS),
    )
    assert results["sharded"] == results["columnar"] == oracle
    relative = seconds["columnar"] / seconds["sharded"]
    experiment_report.row(
        f"count+min-plus q*_2, m={2 * STAR_M}, {SHARDS} shards",
        f"identical answers, zero decodes, >= {MIN_RELATIVE_THROUGHPUT}x",
        f"{relative:.2f}x of unsharded (columnar "
        f"{fmt_seconds(seconds['columnar'])}, sharded "
        f"{fmt_seconds(seconds['sharded'])})",
    )
    _emit("shard_aggregate", 2 * STAR_M, seconds)
    if not SMOKE:
        assert relative >= MIN_RELATIVE_THROUGHPUT
