"""E6 — Theorems 3.8/3.13: the counting dichotomy, measured.

Same body, two heads: q(x,y,z) :- R(x,y), S(y,z) keeps the join
variable (free-connex) vs q(x,z) projecting it out (not free-connex).
The free-connex counter must scale linearly even when the answer set
is quadratic; the non-free-connex side can only count by evaluating.
"""

import pytest

from repro.counting import count_answers, count_free_connex
from repro.db.database import Database
from repro.query import catalog

from benchmarks._harness import fit, fmt_fit, sweep

FC, NFC = catalog.free_connex_pair()


def bipartite_db(m):
    """R = A×{0..3}, S = {0..3}×B: answer count ~ (m/4)^2 via 4 hubs."""
    side = max(m // 4, 1)
    db = Database()
    db.ensure_relation("R", 2).add_all(
        (i, h) for i in range(side) for h in range(4)
    )
    db.ensure_relation("S", 2).add_all(
        (h, j) for h in range(4) for j in range(side)
    )
    return db


def test_e6_free_connex_counting_linear(benchmark, experiment_report):
    sizes = [2000, 4000, 8000, 16000]

    def run():
        return fit(
            sweep(
                sizes,
                bipartite_db,
                lambda db: count_free_connex(FC, db),
            )
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report.row(
        "count free-connex q(x,y,z) (quadratic output)",
        "Õ(m) (Theorem 3.13)",
        fmt_fit(result),
    )
    assert result.exponent < 1.6


def test_e6_non_free_connex_counting_superlinear(
    benchmark, experiment_report
):
    sizes = [400, 800, 1600]

    def run():
        return fit(
            sweep(
                sizes,
                bipartite_db,
                lambda db: count_answers(NFC, db),
            )
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report.row(
        "count non-free-connex q(x,z), same body",
        "no O(m^{2-ε}) (Theorem 3.12, SETH)",
        fmt_fit(result),
    )
    assert result.exponent > 1.5


def test_e6_crossover_same_database(benchmark, experiment_report):
    """On one database, the two heads differ by orders of magnitude."""
    import time

    db = bipartite_db(4000)

    def run():
        start = time.perf_counter()
        fc_count = count_free_connex(FC, db)
        fc_time = time.perf_counter() - start
        start = time.perf_counter()
        nfc_count = count_answers(NFC, db)
        nfc_time = time.perf_counter() - start
        return fc_count, fc_time, nfc_count, nfc_time

    fc_count, fc_time, nfc_count, nfc_time = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert fc_count >= nfc_count  # projection only merges answers
    experiment_report.row(
        "same DB, m=8000: free-connex vs projected head",
        "projection flips the dichotomy side",
        f"fc {fc_time * 1e3:.1f}ms vs non-fc {nfc_time * 1e3:.1f}ms",
    )
