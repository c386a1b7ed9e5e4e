"""A3 (ablation) — what the semijoin reduction buys Yannakakis.

The full reducer is the difference between output-sensitive and
blow-up-prone evaluation: without it, joining along the tree can
materialize tuples that die later.  We build skewed instances where
most of R1 survives no join and compare full evaluation with and
without the reducer passes, plus the meet-in-the-middle vs generic
evaluation of cycle queries (the combinatorial baseline of Sec 4.1.1).
"""

import pytest

from repro.db.database import Database
from repro.hypergraph.gyo import join_tree
from repro.joins import (
    cycle_boolean_generic,
    cycle_boolean_meet_in_middle,
    yannakakis_full,
)
from repro.joins.semijoin import atom_frames
from repro.query import catalog
from repro.workloads import random_database

from benchmarks._harness import fit, fmt_fit, fmt_seconds, sweep

PATH = catalog.path_query(3)


def dead_end_db(m):
    """Hub data whose R1⋈R2 blows up quadratically and then dies.

    R1 fans m tuples into 4 hubs, R2 fans the hubs out to m/4 targets
    (so R1 ⋈ R2 has ~m²/4 tuples), and R3 matches none of them.  The
    full reducer notices the death in O(m); joining without it pays
    the quadratic intermediate first.
    """
    db = Database()
    hubs = 4
    db.ensure_relation("R1", 2).add_all(
        (("a", i), i % hubs) for i in range(m)
    )
    db.ensure_relation("R2", 2).add_all(
        (h, ("b", j)) for h in range(hubs) for j in range(m // hubs)
    )
    db.ensure_relation("R3", 2).add_all([(("dead", 0), ("dead", 1))])
    return db


def join_without_reducer(db):
    """Bottom-up joins along the tree with no semijoin passes."""
    tree = join_tree(PATH.hypergraph())
    frames = dict(enumerate(atom_frames(PATH, db)))
    for node in tree.bottom_up():
        parent = tree.parent.get(node)
        if parent is not None:
            frames[parent] = frames[parent].join(frames[node])
    result = frames[tree.roots[0]].unit_like()
    for root in tree.roots:
        result = result.join(frames[root])
    return result


def test_a3_reducer_vs_no_reducer(benchmark, experiment_report):
    import time

    db = dead_end_db(2000)  # without the reducer: ~1M-tuple intermediate

    def run():
        start = time.perf_counter()
        with_reducer = yannakakis_full(PATH, db)
        reduced_time = time.perf_counter() - start
        start = time.perf_counter()
        without = join_without_reducer(db)
        raw_time = time.perf_counter() - start
        assert with_reducer.to_tuples(PATH.head) == without.to_tuples(
            PATH.head
        )
        return reduced_time, raw_time

    reduced_time, raw_time = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_report.row(
        "Yannakakis with vs without the full reducer (dead-end data)",
        "reducer keeps intermediates output-sized",
        f"with {fmt_seconds(reduced_time)}, without {fmt_seconds(raw_time)}",
    )
    assert reduced_time < raw_time


def test_a3_cycle_evaluators(benchmark, experiment_report):
    def run():
        fits = {}
        for name, algo in (
            ("meet-in-the-middle", cycle_boolean_meet_in_middle),
            ("generic join", cycle_boolean_generic),
        ):
            query = catalog.cycle_query(4, boolean=True)
            points = sweep(
                [1000, 2000, 4000],
                lambda m: random_database(query, m, max(m // 12, 4), seed=m),
                lambda db, a=algo: a(db, 4),
            )
            fits[name] = fit(points)
        return fits

    fits = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, result in fits.items():
        experiment_report.row(
            f"Boolean 4-cycle via {name}",
            "Õ(m²) combinatorial vs Õ(m²) AGM (random data easier)",
            fmt_fit(result),
        )
