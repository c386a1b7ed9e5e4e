"""E5 — Lemma 3.9 / Corollary 3.11: counting star queries is hard.

The lemma encodes k'-Dominating-Set into counting q*_k.  We execute
the encoding end to end and measure the counting cost's growth with
the star width k — the quantity Corollary 3.11 says must appear in the
exponent (time m^{k-ε} is impossible under SETH).
"""

import pytest

from repro.counting import count_answers
from repro.db.database import Database
from repro.query import catalog
from repro.reductions import DominatingSetToStarCounting
from repro.solvers import has_dominating_set
from repro.workloads.instances import dominating_set_instance

from benchmarks._harness import fit, fmt_fit, sweep


def worst_case_star_db(m, z_domain=4):
    """R = [m/z] × [z]: every x pairs with every z — answers ≈ (m/z)^k."""
    rows = [(i, j) for i in range(max(m // z_domain, 1)) for j in range(z_domain)]
    db = Database()
    db.ensure_relation("R", 2).add_all(rows)
    return db


@pytest.mark.parametrize("k", [2, 3])
def test_e5_star_counting_exponent(k, benchmark, experiment_report):
    query = catalog.star_query(k)
    sizes = [80, 160, 320] if k == 3 else [200, 400, 800, 1600]

    def run():
        return fit(
            sweep(
                sizes,
                worst_case_star_db,
                lambda db: count_answers(query, db),
            )
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report.row(
        f"count q*_{k} on all-pairs instances",
        f"no O(m^{k}-ε) algorithm (Cor 3.11, SETH)",
        fmt_fit(result),
    )
    # The brute counter indeed pays ~m^k on these instances.
    assert result.exponent > k - 0.9


def test_e5_dominating_set_pipeline(benchmark, experiment_report):
    reduction = DominatingSetToStarCounting(2, 2)

    def run():
        outcomes = []
        for seed, plant in ((1, True), (2, False)):
            graph = dominating_set_instance(12, 14, 2, seed=seed, plant=plant)
            got = reduction.has_dominating_set(graph)
            expected = has_dominating_set(graph, 2)
            outcomes.append(got == expected)
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(outcomes)
    experiment_report.row(
        "2-DS decided via counting q*_2",
        "count < n^{k'} iff dominating set exists",
        "verified on planted and unplanted instances",
    )
