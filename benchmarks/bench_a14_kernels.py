"""A14 — frontier-vectorized Generic Join and fused semiring kernels.

PR 10's hot-path rewrite, measured two ways:

- **frontier Generic Join** — the triangle query over a sparse random
  instance and the 4-clique query over a planted-clique graph,
  answered at the code level (``generic_join_codes``, asserted zero
  decodes via ``decoded_row_count``).  Sparse inputs are the
  adversarial case for a per-prefix search: many prefixes with small
  candidate sets.  Answers are asserted *identical* after decoding to
  brute force.
- **fused FAQ messages** — counting + tropical aggregation of a
  two-atom chain (the fused group-lookup): scalars identical to a
  count computed from the rows in plain Python, and the fused pass's
  peak scratch (``scratch_peak``) must stay at the *distinct-key*
  count, not the frame size.

Timings append to ``benchmarks/BENCH_backends.json`` for the perf
trajectory.  Set ``BENCH_SMOKE=1`` for tiny sizes (parity,
zero-decode, and peak-scratch assertions always run; CI wires this
into the bench-smoke matrix).
"""

import os
import time
from collections import Counter

from repro.db import Database
from repro.db.columnar import (
    decoded_row_count,
    reset_decoded_row_count,
    reset_scratch_peak,
    scratch_peak,
)
from repro.joins.generic_join import generic_join_codes
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

    The random bulk keeps the average degree tiny (many prefixes with
    nothing to amortize them over); the planted cliques keep the
    output nonempty so the parity check is not vacuous.
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


def _frontier(query, db):
    """(decoded answer set, seconds) of the frontier join."""
    reset_decoded_row_count()
    (codes, _head), seconds = _best_of(
        lambda: generic_join_codes(query, db), 1 if SMOKE else 3
    )
    assert decoded_row_count() == 0  # codes stay codes end to end
    return set(db.dictionary.decode_rows(codes)), {"frontier": seconds}


def test_a14_triangle_frontier(benchmark, experiment_report):
    query = triangle_query(boolean=False)
    db = random_triangle_db(
        TRIANGLE_M, max(TRIANGLE_M // 60, 3), seed=7, backend="columnar"
    )
    decoded, seconds = benchmark.pedantic(
        lambda: _frontier(query, db), rounds=1, iterations=1
    )
    assert decoded == query.evaluate_brute_force(db)
    experiment_report.row(
        f"triangle materialize, m={TRIANGLE_M}, {len(decoded)} answers",
        "brute-force answers, zero decodes",
        f"frontier {fmt_seconds(seconds['frontier'])}",
    )
    _emit("frontier_triangle", TRIANGLE_M, seconds)


def test_a14_clique_frontier(benchmark, experiment_report):
    query = clique_query(4)
    db = _planted_clique_graph(CLIQUE_N, CLIQUE_M, PLANTED_K4)
    decoded, seconds = benchmark.pedantic(
        lambda: _frontier(query, db), rounds=1, iterations=1
    )
    assert decoded == query.evaluate_brute_force(db)
    assert len(decoded) >= PLANTED_K4 * 24  # each K4 yields 4! answers
    experiment_report.row(
        f"4-clique, {CLIQUE_M} edges, {len(decoded)} answers",
        "brute-force answers, zero decodes",
        f"frontier {fmt_seconds(seconds['frontier'])}",
    )
    _emit("frontier_clique4", CLIQUE_M, seconds)


def _chain_rows():
    return {
        "R": [(i, i % FAQ_KEYS) for i in range(FAQ_ROWS)],
        "S": [(i % FAQ_KEYS, i) for i in range(FAQ_ROWS)],
    }


def _faq_suite(db):
    return (
        aggregate_acyclic(CHAIN, db, COUNTING),
        aggregate_acyclic(CHAIN, db, MIN_PLUS),
    )


def test_a14_fused_faq(benchmark, experiment_report):
    rows = _chain_rows()
    db = Database.from_dict(rows, backend="columnar")
    # q(a, b, c) :- R(a, b), S(b, c): per key b, |R_b| * |S_b| answers.
    left = Counter(b for _, b in rows["R"])
    right = Counter(b for b, _ in rows["S"])
    count = sum(n * right[b] for b, n in left.items())
    expected = (count, MIN_PLUS.one if count else MIN_PLUS.zero)

    def run():
        reset_scratch_peak()
        results, seconds = _best_of(lambda: _faq_suite(db), 1 if SMOKE else 3)
        return results, {"fused": seconds}, scratch_peak()

    results, seconds, peak = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results == expected
    # The fused kernel's scratch is bounded by the distinct join keys.
    assert peak <= FAQ_KEYS
    experiment_report.row(
        f"count+min-plus chain FAQ, m={2 * FAQ_ROWS}, {FAQ_KEYS} keys",
        f"identical scalars, fused scratch <= {FAQ_KEYS}",
        f"fused peak {peak} (fused {fmt_seconds(seconds['fused'])})",
    )
    _emit("faq_fused", 2 * FAQ_ROWS, seconds)
