"""A14 — frontier-vectorized Generic Join and fused semiring kernels.

PR 10's hot-path rewrite, measured two ways:

- **frontier vs recursive Generic Join** — the triangle query over a
  sparse random instance and the 4-clique query over a planted-clique
  graph, answered at the code level (``generic_join_codes``, asserted
  zero decodes via ``decoded_row_count``) vs the depth-first stack
  search on the same rows stored in the python backend
  (``db.to_backend("python")``).  Sparse inputs are the adversarial
  case for the recursive path: many prefixes with small candidate
  sets, so the per-prefix Python overhead dominates.  Answers are
  asserted *identical* after decoding — to each other and to brute
  force — and the frontier path must clear a >= 5x floor at full
  size.
- **fused FAQ messages** — counting + tropical aggregation of a
  two-atom chain on columnar frames (the fused group-lookup) vs the
  scalar dict fold on the python backend: identical scalars, and the
  fused pass's peak scratch (``scratch_peak``) must stay at the
  *distinct-key* count, not the frame size.

Timings append to ``benchmarks/BENCH_backends.json`` for the perf
trajectory.  Set ``BENCH_SMOKE=1`` for tiny sizes with the speedup
floors relaxed (parity, zero-decode, and peak-scratch assertions
always run; CI wires this into the bench-smoke matrix).
"""

import os
import time

from repro.db import Database
from repro.db.columnar import (
    decoded_row_count,
    reset_decoded_row_count,
    reset_scratch_peak,
    scratch_peak,
)
from repro.joins.generic_join import generic_join, generic_join_codes
from repro.query.catalog import clique_query, triangle_query
from repro.query.parser import parse_query
from repro.semiring.faq import aggregate_acyclic
from repro.semiring.semirings import COUNTING, MIN_PLUS
from repro.util.rng import make_rng
from repro.workloads import random_triangle_db

from benchmarks._harness import emit_perf_trajectory, fmt_seconds

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

TRIANGLE_M = 2_000 if SMOKE else 30_000
CLIQUE_N = 1_500 if SMOKE else 30_000
CLIQUE_M = 5_000 if SMOKE else 90_000
PLANTED_K4 = 5 if SMOKE else 50
FAQ_ROWS = 2_000 if SMOKE else 200_000
FAQ_KEYS = 50 if SMOKE else 1_000
MIN_SPEEDUP = 5.0  # full-size floor for frontier vs recursive

CHAIN = parse_query("q(a, b, c) :- R(a, b), S(b, c)")


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


def _planted_clique_graph(n, m, planted, seed=11):
    """A sparse symmetric edge set with ``planted`` disjoint K4s.

    The random bulk keeps the average degree tiny (the recursive
    path's worst case: per-prefix Python work with nothing to
    amortize it over); the planted cliques keep the output nonempty
    so the parity check is not vacuous.
    """
    rng = make_rng(seed)
    edges = set()
    for p in range(planted):
        vertices = [n + 4 * p + i for i in range(4)]
        for a in vertices:
            for b in vertices:
                if a != b:
                    edges.add((a, b))
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
            edges.add((b, a))
    return Database.from_dict({"E": sorted(edges)}, backend="columnar")


def _frontier_vs_recursive(query, db, relation):
    """(decoded answer sets, seconds) for the frontier and python paths."""
    reset_decoded_row_count()
    coded, frontier_secs = _best_of(
        lambda: generic_join_codes(query, db), 1 if SMOKE else 3
    )
    assert coded is not None
    assert decoded_row_count() == 0  # codes stay codes end to end
    codes, _head = coded
    decoded = set(db[relation].dictionary.decode_rows(codes))
    reference = db.to_backend("python")
    recursive, recursive_secs = _best_of(
        lambda: generic_join(query, reference), 1 if SMOKE else 3
    )
    assert query.evaluate_brute_force(reference) == recursive
    return decoded, set(recursive), {
        "frontier": frontier_secs,
        "recursive": recursive_secs,
    }


def test_a14_triangle_frontier(benchmark, experiment_report):
    query = triangle_query(boolean=False)
    db = random_triangle_db(
        TRIANGLE_M, max(TRIANGLE_M // 60, 3), seed=7, backend="columnar"
    )
    decoded, recursive, seconds = benchmark.pedantic(
        lambda: _frontier_vs_recursive(query, db, "R1"),
        rounds=1,
        iterations=1,
    )
    assert decoded == recursive  # bit-identical answer sets
    speedup = seconds["recursive"] / seconds["frontier"]
    experiment_report.row(
        f"triangle materialize, m={TRIANGLE_M}, {len(decoded)} answers",
        "identical answers, zero decodes"
        + ("" if SMOKE else f", >= {MIN_SPEEDUP}x over recursive"),
        f"{speedup:.2f}x over recursive (recursive "
        f"{fmt_seconds(seconds['recursive'])}, frontier "
        f"{fmt_seconds(seconds['frontier'])})",
    )
    _emit("frontier_triangle", TRIANGLE_M, seconds)
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP


def test_a14_clique_frontier(benchmark, experiment_report):
    query = clique_query(4)
    db = _planted_clique_graph(CLIQUE_N, CLIQUE_M, PLANTED_K4)
    decoded, recursive, seconds = benchmark.pedantic(
        lambda: _frontier_vs_recursive(query, db, "E"),
        rounds=1,
        iterations=1,
    )
    assert decoded == recursive
    assert len(decoded) >= PLANTED_K4 * 24  # each K4 yields 4! answers
    speedup = seconds["recursive"] / seconds["frontier"]
    experiment_report.row(
        f"4-clique, {CLIQUE_M} edges, {len(decoded)} answers",
        "identical answers, zero decodes"
        + ("" if SMOKE else f", >= {MIN_SPEEDUP}x over recursive"),
        f"{speedup:.2f}x over recursive (recursive "
        f"{fmt_seconds(seconds['recursive'])}, frontier "
        f"{fmt_seconds(seconds['frontier'])})",
    )
    _emit("frontier_clique4", CLIQUE_M, seconds)
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP


def _chain_db():
    rows = {
        "R": [(i, i % FAQ_KEYS) for i in range(FAQ_ROWS)],
        "S": [(i % FAQ_KEYS, i) for i in range(FAQ_ROWS)],
    }
    return Database.from_dict(rows, backend="columnar")


def _faq_suite(db):
    return (
        aggregate_acyclic(CHAIN, db, COUNTING),
        aggregate_acyclic(CHAIN, db, MIN_PLUS),
    )


def test_a14_fused_faq(benchmark, experiment_report):
    db = _chain_db()
    dbs = {"fused": db, "python": db.to_backend("python")}

    def run():
        results, seconds = {}, {}
        reset_scratch_peak()
        for mode, mode_db in dbs.items():
            results[mode], seconds[mode] = _best_of(
                lambda: _faq_suite(mode_db), 1 if SMOKE else 3
            )
        return results, seconds, scratch_peak()

    results, seconds, peak = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results["fused"] == results["python"]
    # The fused kernel's scratch is bounded by the distinct join keys.
    assert peak <= FAQ_KEYS
    experiment_report.row(
        f"count+min-plus chain FAQ, m={2 * FAQ_ROWS}, {FAQ_KEYS} keys",
        f"identical scalars, fused scratch <= {FAQ_KEYS}",
        f"fused peak {peak} (fused {fmt_seconds(seconds['fused'])}, "
        f"python {fmt_seconds(seconds['python'])})",
    )
    _emit("faq_fused", 2 * FAQ_ROWS, seconds)
