"""A2 (ablation) — worst-case-optimal join vs binary join plans.

The motivation for worst-case-optimal joins (paper Section 2.1), in
two instances:

- the *bowtie*: R1 = A×{h}, R2 = {h}×C, R3 empty of matches — a binary
  plan that starts R1 ⋈ R2 materializes Θ(m²) tuples that all die,
  while the generic join never builds them;
- the AGM-tight triangle instance, where every evaluator must pay the
  Θ(m^{3/2}) output and the binary plan's largest intermediate is
  exactly output-sized (no separation — the separation needs skew).
"""

import pytest

from repro.db.database import Database
from repro.joins import generic_join, left_deep_plan_join
from repro.joins.hashjoin import plan_intermediate_sizes
from repro.query import catalog
from repro.workloads import agm_tight_triangle_db

from benchmarks._harness import fit, fmt_fit, fmt_seconds, sweep

QUERY = catalog.triangle_query(boolean=False)
FORCED_ORDER = (0, 1, 2)  # join R1 with R2 first — the bad plan


def bowtie_db(m):
    """Skewed instance: quadratic R1⋈R2, empty final output."""
    half = max(m // 2, 1)
    db = Database()
    db.ensure_relation("R1", 2).add_all((("a", i), "hub") for i in range(half))
    db.ensure_relation("R2", 2).add_all(("hub", ("c", j)) for j in range(half))
    # R3(z, x) pairs that never match the (c, a) combinations above.
    db.ensure_relation("R3", 2).add_all([(("dead", 0), ("dead", 1))])
    return db


def test_a2_bowtie_separation(benchmark, experiment_report):
    sizes = [400, 800, 1600]

    def run():
        wcoj = fit(
            sweep(
                [4000, 8000, 16000, 32000],
                bowtie_db,
                lambda db: generic_join(QUERY, db),
            )
        )
        binary = fit(
            sweep(
                sizes,
                bowtie_db,
                lambda db: left_deep_plan_join(QUERY, db, order=FORCED_ORDER),
            )
        )
        return wcoj, binary

    wcoj, binary = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report.row(
        "generic join on bowtie instances (empty output)",
        "never materializes the dead m²/4 pairs",
        fmt_fit(wcoj),
    )
    experiment_report.row(
        "binary plan R1⋈R2 first, same instances",
        "Θ(m²) doomed intermediate",
        fmt_fit(binary),
    )
    assert binary.exponent > wcoj.exponent + 0.5


def test_a2_bowtie_intermediate_accounting(benchmark, experiment_report):
    def run():
        rows = []
        for m in (400, 800, 1600):
            db = bowtie_db(m)
            sizes = plan_intermediate_sizes(QUERY, db, order=FORCED_ORDER)
            rows.append((m, max(sizes)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for m, peak in rows:
        assert peak == (m // 2) ** 2  # exactly the quadratic cross pairs
    experiment_report.row(
        "largest binary-plan intermediate on bowties",
        "exactly (m/2)² tuples, all dead",
        fmt_fit(fit(rows)),
    )


def test_a2_agm_tight_no_separation(benchmark, experiment_report):
    """On tight instances everyone pays the output; the binary plan's
    peak intermediate equals the output size m^{3/2}."""
    def run():
        wcoj = fit(
            sweep(
                [400, 800, 1600, 3200],
                agm_tight_triangle_db,
                lambda db: generic_join(QUERY, db),
            )
        )
        peak_rows = []
        for m in (400, 900, 1600):
            db = agm_tight_triangle_db(m)
            peak_rows.append((m, max(plan_intermediate_sizes(QUERY, db))))
        return wcoj, fit(peak_rows)

    wcoj, peaks = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report.row(
        "generic join on AGM-tight triangles",
        "Θ(m^{3/2}) = output size",
        fmt_fit(wcoj),
    )
    experiment_report.row(
        "binary-plan peak intermediate on AGM-tight",
        "m^{3/2} (output-sized: tight instances do not separate)",
        fmt_fit(peaks),
    )
    assert peaks.within(1.5, 0.1)
