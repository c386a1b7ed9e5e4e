"""A7 — aggregation/direct-access/enumeration storage-layout matrix.

A6 covers the join stack; this one covers the answer *computation*
pipelines, each over one code matrix per relation (columnar) and over
hash-partitioned shards read through their coalesced codes (sharded):

- **star counting** (q̂*_2, self-join free, ≥ 10^5 tuples): counting-
  semiring message passing over the join tree (Theorem 3.8's easy side);
- **4-chain counting** (full path query, near-functional relations):
  the same passing over a deeper tree;
- **lex direct access** (q̂*_2, trio-free order): Õ(m) preprocessing of
  the per-separator sorted blocks and prefix sums (Theorem 3.24);
- **enumeration** (4-chain): constant-delay preprocessing plus the
  delay over the answer stream (Theorem 3.17).

Asserted: results byte-identical across layouts.  No speed floor: both
layouts run the one columnar pipeline.  Timings are appended to
``benchmarks/BENCH_backends.json`` for the perf trajectory.

Set ``BENCH_SMOKE=1`` to run tiny sizes (CI uses this to keep the
harness from rotting without paying benchmark runtimes).
"""

import os
import time

from repro.counting import count_answers
from repro.direct_access import LexDirectAccess
from repro.enumeration import ConstantDelayEnumerator
from repro.query import catalog
from repro.workloads import functional_path_db, random_star_db

from benchmarks._harness import emit_perf_trajectory, fmt_seconds

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

STAR_M = 2_000 if SMOKE else 200_000
CHAIN_M = 2_000 if SMOKE else 100_000
LEX_M = 2_000 if SMOKE else 120_000
ENUM_M = 1_000 if SMOKE else 30_000
CHAIN_LENGTH = 4

BACKENDS = ("columnar", "sharded")
STAR_QUERY = catalog.star_query_full(2, self_join_free=True)
CHAIN_QUERY = catalog.path_query(CHAIN_LENGTH, boolean=False).as_join_query()
LEX_ORDER = ("z", "x1", "x2")


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def _matrix(databases, run):
    results, seconds = {}, {}
    for backend, db in databases.items():
        results[backend], seconds[backend] = _timed(lambda db=db: run(db))
    return results, seconds


def _report_and_emit(
    experiment_report, workload, label, results_equal, seconds, m
):
    experiment_report.row(
        label,
        "identical results on both layouts",
        f"columnar {fmt_seconds(seconds['columnar'])}, "
        f"sharded {fmt_seconds(seconds['sharded'])}",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": workload,
                "backend": backend,
                "m": m,
                "seconds": seconds[backend],
            }
            for backend in seconds
        ],
    )
    assert results_equal


def test_a7_star_counting_matrix(benchmark, experiment_report):
    databases = {
        backend: random_star_db(
            2, STAR_M, max(STAR_M // 40, 3), seed=7,
            self_join_free=True, backend=backend,
        )
        for backend in BACKENDS
    }
    (results, seconds) = benchmark.pedantic(
        lambda: _matrix(databases, lambda db: count_answers(STAR_QUERY, db)),
        rounds=1, iterations=1,
    )
    equal = (
        results["sharded"] == results["columnar"]
        and type(results["sharded"]) is type(results["columnar"])
    )
    _report_and_emit(
        experiment_report,
        "star2_count",
        f"count q̂*_2, m={2 * STAR_M}",
        equal,
        seconds,
        2 * STAR_M,
    )


def test_a7_chain_counting_matrix(benchmark, experiment_report):
    databases = {
        backend: functional_path_db(
            CHAIN_LENGTH, CHAIN_M, seed=3, backend=backend
        )
        for backend in BACKENDS
    }
    (results, seconds) = benchmark.pedantic(
        lambda: _matrix(
            databases, lambda db: count_answers(CHAIN_QUERY, db)
        ),
        rounds=1, iterations=1,
    )
    equal = (
        results["sharded"] == results["columnar"]
        and type(results["sharded"]) is type(results["columnar"])
    )
    _report_and_emit(
        experiment_report,
        "chain4_count",
        f"count 4-chain, m={CHAIN_LENGTH * CHAIN_M}",
        equal,
        seconds,
        CHAIN_LENGTH * CHAIN_M,
    )


def test_a7_lex_access_matrix(benchmark, experiment_report):
    databases = {
        backend: random_star_db(
            2, LEX_M, max(LEX_M // 30, 3), seed=11,
            self_join_free=True, backend=backend,
        )
        for backend in BACKENDS
    }
    (accessors, seconds) = benchmark.pedantic(
        lambda: _matrix(
            databases,
            lambda db: LexDirectAccess(STAR_QUERY, db, order=LEX_ORDER),
        ),
        rounds=1, iterations=1,
    )
    total = len(accessors["columnar"])
    probes = sorted(
        {0, 1, total // 3, total // 2, total - 1} if total else set()
    )
    equal = len(accessors["sharded"]) == total and all(
        accessors["sharded"].access(i) == accessors["columnar"].access(i)
        for i in probes
    )
    _report_and_emit(
        experiment_report,
        "lex_preprocess",
        f"lex DA preprocessing, m={2 * LEX_M}, |out|={total}",
        equal,
        seconds,
        2 * LEX_M,
    )


def test_a7_enumeration_matrix(benchmark, experiment_report):
    databases = {
        backend: functional_path_db(
            CHAIN_LENGTH, ENUM_M, seed=5, backend=backend
        )
        for backend in BACKENDS
    }

    def run():
        enumerators, seconds = _matrix(
            databases,
            lambda db: ConstantDelayEnumerator(CHAIN_QUERY, db),
        )
        answers = {b: set(e) for b, e in enumerators.items()}
        return enumerators, answers, seconds

    enumerators, answers, seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    equal = answers["sharded"] == answers["columnar"]
    _report_and_emit(
        experiment_report,
        "enum_preprocess",
        f"enumeration preprocessing, m={CHAIN_LENGTH * ENUM_M}, "
        f"|out|={len(answers['columnar'])}",
        equal,
        seconds,
        CHAIN_LENGTH * ENUM_M,
    )
