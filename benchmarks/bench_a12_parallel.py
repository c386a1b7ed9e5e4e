"""A12 — spillable shard storage.

**Spilled aggregation** — counting + tropical aggregation of an
acyclic star query answered with ``max_resident_shards=1``: all but
one shard's stored code matrix lives on disk as an ``np.memmap``, and
answers must stay identical to the fully-resident database while the
residency budget holds.

Timings append to ``benchmarks/BENCH_backends.json`` for the perf
trajectory.  Set ``BENCH_SMOKE=1`` for tiny sizes (parity and the
residency assertion always run; CI wires this into the bench-smoke
matrix).
"""

import os
import tempfile
import time

from repro.counting import count_answers
from repro.db import Database
from repro.query import catalog
from repro.semiring.faq import aggregate_acyclic
from repro.semiring.semirings import MIN_PLUS
from repro.util.rng import make_rng

from benchmarks._harness import emit_perf_trajectory, fmt_seconds

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

STAR_M = 1_000 if SMOKE else 60_000  # per relation; total m = 2x
SHARDS = 4

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


def _best_of(run, repeats):
    result, best = _timed(run)
    for _ in range(repeats - 1):
        result, elapsed = _timed(run)
        best = min(best, elapsed)
    return result, best


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


def test_a12_spilled_aggregation(benchmark, experiment_report):
    domain = max(STAR_M // 40, 3)
    rows = _star_rows(STAR_M, domain, seed=43)
    resident = Database.from_dict(
        rows, backend="sharded", shard_count=SHARDS
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-spill-") as tmp:
        spilled = Database.from_dict(
            rows,
            backend="sharded",
            shard_count=SHARDS,
            spill_dir=tmp,
            max_resident_shards=1,
        )
        assert spilled.spill.spilled_shards() >= SHARDS

        def suite(db):
            return (
                count_answers(STAR_QUERY, db),
                aggregate_acyclic(STAR_QUERY, db, MIN_PLUS),
            )

        def run():
            results, seconds = {}, {}
            for mode, db in (("resident", resident), ("spilled", spilled)):
                results[mode], seconds[mode] = _best_of(
                    lambda db=db: suite(db), 1 if SMOKE else 3
                )
            return results, seconds

        results, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
        assert results["spilled"] == results["resident"]
        assert spilled.spill.resident_shards() <= 1  # budget held
        spilled_bytes = spilled.spill.spilled_bytes()
    relative = seconds["resident"] / seconds["spilled"]
    experiment_report.row(
        f"count+min-plus q*_2, m={2 * STAR_M}, {SHARDS} shards, "
        "1 resident",
        "identical answers with all but one shard memory-mapped",
        f"{relative:.2f}x of fully-resident ({spilled_bytes} bytes on "
        f"disk; resident {fmt_seconds(seconds['resident'])}, spilled "
        f"{fmt_seconds(seconds['spilled'])})",
    )
    _emit("spill_aggregate", 2 * STAR_M, seconds)
