"""E8 — Theorem 3.17: constant delay after linear preprocessing.

For the free-connex side we measure that (a) preprocessing scales
near-linearly and (b) the *maximum delay* between answers stays flat
as the database grows.  For the non-free-connex star query the honest
fallback's preprocessing grows like the full evaluation — the gap
Theorem 3.16 proves necessary.

The engine serves iteration from its counted layered tree: a
:class:`~repro.engine.Session` reads the answers as contiguous block
reads (``LexDirectAccess.access_range``), each expanded from runs of
store rows.  ``test_e8_session_block_delay_flat`` times those blocks
as a client sees them and fits the *max* seconds per answer of a block
against m (exponent ≈ 0), next to a strided slice — one search per answer, the
Õ(log m) direct-access cost.  ``BENCH_SMOKE=1`` runs a three-point
ladder at tiny sizes and skips the exponent assertions.
"""

import gc
import os
import time

from repro import connect
from repro.direct_access import LexDirectAccess
from repro.enumeration import ConstantDelayEnumerator, measure_delays
from repro.query import catalog
from repro.workloads.databases import functional_path_db

from benchmarks._harness import emit_perf_trajectory, fit, fmt_fit

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

FC = catalog.path_query(2)  # q(v1,v2,v3): free-connex join query
NFC = catalog.star_query_sjf(2)


def test_e8_free_connex_delay_flat(benchmark, experiment_report):
    sizes = [2000, 4000, 8000, 16000]

    def run():
        profiles = {}
        for m in sizes:
            db = functional_path_db(2, m, seed=m)
            profiles[m] = measure_delays(
                lambda db=db: ConstantDelayEnumerator(FC, db), limit=2000
            )
        return profiles

    profiles = benchmark.pedantic(run, rounds=1, iterations=1)
    pre_fit = fit(
        [(m, p.preprocessing_seconds) for m, p in profiles.items()]
    )
    experiment_report.row(
        "free-connex preprocessing",
        "Õ(m), exponent 1",
        fmt_fit(pre_fit),
    )
    assert pre_fit.exponent < 1.7
    delays = {m: p.mean_delay for m, p in profiles.items()}
    smallest, largest = delays[sizes[0]], delays[sizes[-1]]
    experiment_report.row(
        "free-connex mean delay, m 2k→16k",
        "constant (independent of m)",
        f"{smallest * 1e6:.1f}µs → {largest * 1e6:.1f}µs",
    )
    # 8× data must not mean 8× delay; allow generous interpreter noise.
    assert largest < smallest * 4 + 1e-4


def test_e8_non_free_connex_preprocessing_grows(
    benchmark, experiment_report
):
    sizes = [500, 1000, 2000]

    def hub_star_db(m):
        """Constant hub count: the q̄*_2 output is Θ(m²/hubs)."""
        from repro.db.database import Database
        from repro.db.relation import Relation

        hubs = 8
        db = Database()
        for name in ("R1", "R2"):
            rel = Relation(name, 2)
            for i in range(m):
                rel.add(((name, i), i % hubs))
            db.add_relation(rel)
        return db

    def run():
        points = []
        for m in sizes:
            db = hub_star_db(m)
            profile = measure_delays(
                lambda db=db: ConstantDelayEnumerator(
                    NFC, db, strict=False
                ),
                limit=1,
            )
            points.append((m, profile.preprocessing_seconds))
        return points

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    result = fit(points)
    experiment_report.row(
        "non-free-connex q̄*_2 fallback preprocessing",
        "no Õ(m) preprocessing (Thm 3.16, Hyp 1)",
        fmt_fit(result),
    )
    assert result.exponent > 1.5


def test_e8_enumeration_throughput(benchmark):
    db = functional_path_db(2, 20000, seed=1)
    enumerator = ConstantDelayEnumerator(FC, db)
    benchmark(lambda: sum(1 for _ in enumerator))


# Answers per size: the functional path has exactly m answers.
SESSION_LADDER = (
    [2_000, 4_000, 8_000] if SMOKE else [25_000, 50_000, 100_000, 200_000]
)
STRIDED_ROWS = 512 if SMOKE else 4_096


def test_e8_session_block_delay_flat(experiment_report, monkeypatch):
    read = LexDirectAccess.access_range
    blocks = []

    def timed(self, start, stop, step=1):
        began = time.perf_counter()
        rows = read(self, start, stop, step)
        blocks.append((time.perf_counter() - began, len(rows)))
        return rows

    monkeypatch.setattr(LexDirectAccess, "access_range", timed)
    block_delay, strided_row = [], []
    # As in timeit: the cyclic collector fires on allocation counts, so
    # it lands on the same block every pass, and a full pass walks the
    # whole heap — a pause that grows with m but is not the tree's.
    gc.disable()
    try:
        for m in SESSION_LADDER:
            db = functional_path_db(2, m, seed=m, backend="columnar")
            answers = connect(db).prepare(FC).run()
            n = len(answers)
            best = None
            for _ in range(3):  # per block, the least disturbed of 3 passes
                blocks.clear()
                assert sum(1 for _ in answers) == n
                # The iterator ends on one empty read past the last answer.
                delays = [seconds / rows for seconds, rows in blocks if rows]
                best = delays if best is None else list(map(min, best, delays))
            block_delay.append((m, max(best)))
            step = max(n // STRIDED_ROWS, 1)
            per_row = []
            for _ in range(3):
                blocks.clear()
                answers[::step]
                ((seconds, rows),) = blocks
                per_row.append(seconds / rows)
            strided_row.append((m, min(per_row)))
    finally:
        gc.enable()
    block_fit, strided_fit = fit(block_delay), fit(strided_row)
    experiment_report.row(
        "session iteration, max block delay per answer",
        "Õ(1) delay (exponent 0)",
        f"{fmt_fit(block_fit)}, "
        f"{block_delay[0][1] * 1e6:.2f}µs → {block_delay[-1][1] * 1e6:.2f}µs",
    )
    experiment_report.row(
        "strided access_range per row",
        "Õ(log m) per access",
        f"{fmt_fit(strided_fit)}, "
        f"{strided_row[0][1] * 1e6:.2f}µs → {strided_row[-1][1] * 1e6:.2f}µs",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": "e8_session_block_delay",
                "backend": "max_seconds_per_answer",
                "m": m,
                "seconds": seconds,
            }
            for m, seconds in block_delay
        ]
        + [
            {
                "workload": "e8_strided_access_range",
                "backend": "seconds_per_row",
                "m": m,
                "seconds": seconds,
            }
            for m, seconds in strided_row
        ],
    )
    if not SMOKE:
        # 8× the data: the block delay stays flat, a search per answer
        # grows like log m (plus cache misses), never like m.
        assert block_fit.exponent < 0.3, block_delay
        assert strided_fit.exponent < 0.6, strided_row
