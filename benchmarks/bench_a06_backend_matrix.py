"""A6 — storage-layout matrix: columnar vs sharded (NumPy code matrices).

Runs the same workloads over both storage layouts — one code matrix per
relation, and the same rows hash-partitioned into shards and read
through their coalesced codes:

- **triangle join** (AGM-tight instance, binary left-deep plan): the
  classic Θ(m^{3/2})-output instance, dominated by bulk joins;
- **Yannakakis** (acyclic chain, ≥ 10^5 tuples): dominated by the
  semijoin full reducer and output-sized joins.

Asserted: results identical across layouts (sharding is a storage
layout, not a second engine).  No speed floor: both layouts run the one
columnar frame algebra.  Timings of every run are appended to
``benchmarks/BENCH_backends.json`` so later PRs can diff the perf
trajectory and catch regressions.
"""

import time

from repro.joins import left_deep_plan_join, yannakakis_full
from repro.query import catalog
from repro.workloads import agm_tight_triangle_db, functional_path_db

from benchmarks._harness import emit_perf_trajectory, fmt_seconds

LAYOUTS = ("columnar", "sharded")
TRIANGLE_M = 3000
CHAIN_LENGTH = 4
CHAIN_M = 100_000

TRIANGLE_QUERY = catalog.triangle_query(boolean=False)
CHAIN_QUERY = catalog.path_query(CHAIN_LENGTH, boolean=False).as_join_query()


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def _layout_matrix(benchmark, experiment_report, workload, label, m, databases, run_one):
    def run():
        results, seconds = {}, {}
        for backend, db in databases.items():
            results[backend], seconds[backend] = _timed(
                lambda db=db: run_one(db)
            )
        return results, seconds

    results, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    answers = {
        backend: sorted(frame.to_tuples())
        for backend, frame in results.items()
    }
    assert answers["columnar"] == answers["sharded"]  # identical output
    experiment_report.row(
        label,
        "same answers on both storage layouts",
        f"columnar {fmt_seconds(seconds['columnar'])}, "
        f"sharded {fmt_seconds(seconds['sharded'])}, "
        f"|out|={len(answers['columnar'])}",
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


def test_a6_triangle_backend_matrix(benchmark, experiment_report):
    _layout_matrix(
        benchmark,
        experiment_report,
        "triangle_agm_ldp",
        f"triangle join, AGM-tight m={TRIANGLE_M}",
        TRIANGLE_M,
        {
            backend: agm_tight_triangle_db(TRIANGLE_M, backend=backend)
            for backend in LAYOUTS
        },
        lambda db: left_deep_plan_join(TRIANGLE_QUERY, db),
    )


def test_a6_yannakakis_backend_matrix(benchmark, experiment_report):
    _layout_matrix(
        benchmark,
        experiment_report,
        "yannakakis_chain",
        f"Yannakakis, chain len={CHAIN_LENGTH}, m={CHAIN_M} per relation",
        CHAIN_M * CHAIN_LENGTH,
        {
            backend: functional_path_db(
                CHAIN_LENGTH, CHAIN_M, seed=3, backend=backend
            )
            for backend in LAYOUTS
        },
        lambda db: yannakakis_full(CHAIN_QUERY, db),
    )
