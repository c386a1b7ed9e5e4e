"""A8 — dynamic maintenance on the columnar backend.

PR 3's update path: a stream of single-tuple ``add``/``discard``
updates interleaved with queries, answered three ways —

- **incremental** — the structures repair themselves from the
  relations' delta segments
  (:class:`repro.dynamic.AcyclicCountMaintainer` folding delta
  messages into the FAQ tables;
  :class:`repro.direct_access.lex.LexDirectAccess` with
  ``on_stale="refresh"`` splicing rows into its sorted blocks);
- **rebuild-per-query** — recompute the aggregate / rebuild the
  direct-access stores from scratch at every query point (what the
  pre-PR code forced, since derived structures could not outlive a
  mutation);
- **oracle** — an independent from-scratch evaluation whose answers
  every query point is asserted byte-identical against.

The cyclic row drives the same contract one level up: a triangle
query served through a :class:`repro.engine.Session`, whose answer
matrix is repaired by delta joins
(:func:`repro.joins.generic_join.generic_join_delta_codes`), against a
from-scratch ``generic_join`` + sort at every query point.

Asserted: answers identical throughout, and the incremental path
``>= 5x`` faster than rebuild-per-query on all three workloads (measured
headroom is far larger for counting).  Timings are appended to
``benchmarks/BENCH_backends.json`` for the perf trajectory.

Set ``BENCH_SMOKE=1`` to run tiny sizes and skip the speedup
assertions (CI uses this to keep the update path exercised on
3.10–3.12 without paying benchmark runtimes).
"""

import os
import random
import time

from repro.counting import count_answers
from repro.db.database import Database
from repro.direct_access import LexDirectAccess
from repro.dynamic import AcyclicCountMaintainer
from repro.engine import Session
from repro.joins import generic_join
from repro.query import catalog
from repro.query.parser import parse_query
from repro.workloads import random_star_db

from benchmarks._harness import emit_perf_trajectory, fmt_seconds

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

STAR_M = 1_000 if SMOKE else 60_000
UPDATES = 30 if SMOKE else 200
MIN_SPEEDUP = 5.0

# Triangle rows per relation; the domain keeps the edge density (and so
# the answers per inserted edge) of the end-to-end cyclic workload.
CYCLIC_M = 600 if SMOKE else 20_000
CYCLIC_DOMAIN = 95 if SMOKE else 550
CYCLIC_UPDATES = 30 if SMOKE else 60

STAR_QUERY = catalog.star_query_full(2, self_join_free=True)
LEX_ORDER = ("z", "x1", "x2")


def _star_database():
    return random_star_db(
        2, STAR_M, max(STAR_M // 40, 3), seed=21,
        self_join_free=True, backend="columnar",
    )


def _update_stream(steps, domain):
    rng = random.Random(97)
    for _ in range(steps):
        name = rng.choice(("R1", "R2"))
        row = (rng.randrange(domain * 2), rng.randrange(domain))
        yield name, row, rng.random() < 0.45


def _report_and_emit(
    experiment_report, workload, label, answers_equal, seconds, m
):
    speedup = seconds["rebuild"] / seconds["incremental"]
    experiment_report.row(
        label,
        "identical answers, incremental faster",
        f"{speedup:.1f}x (rebuild {fmt_seconds(seconds['rebuild'])}, "
        f"incremental {fmt_seconds(seconds['incremental'])})",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": workload,
                "backend": mode,
                "m": m,
                "seconds": seconds[mode],
            }
            for mode in seconds
        ],
    )
    assert answers_equal
    return speedup


def test_a8_dynamic_counting(benchmark, experiment_report):
    domain = max(STAR_M // 40, 3)

    def run():
        db = _star_database()
        maintainer = AcyclicCountMaintainer(STAR_QUERY, db)
        maintainer.count()  # build off the update clock
        updates = list(_update_stream(UPDATES, domain))

        incremental = []
        start = time.perf_counter()
        for name, row, delete in updates:
            (db[name].discard if delete else db[name].add)(row)
            incremental.append(maintainer.count())
        incremental_seconds = time.perf_counter() - start

        db = _star_database()
        rebuild = []
        start = time.perf_counter()
        for name, row, delete in updates:
            (db[name].discard if delete else db[name].add)(row)
            rebuild.append(count_answers(STAR_QUERY, db))
        rebuild_seconds = time.perf_counter() - start

        # Independent from-scratch oracle on a third copy.
        db = _star_database()
        oracle = []
        for name, row, delete in updates:
            (db[name].discard if delete else db[name].add)(row)
            oracle.append(count_answers(STAR_QUERY, db, method="free-connex"))
        return (
            incremental,
            rebuild,
            oracle,
            {
                "incremental": incremental_seconds,
                "rebuild": rebuild_seconds,
            },
            maintainer.rebuilds,
        )

    incremental, rebuild, oracle, seconds, rebuilds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    equal = incremental == oracle and rebuild == oracle
    speedup = _report_and_emit(
        experiment_report,
        "dynamic_count",
        f"count q̂*_2 under {UPDATES} updates, m={2 * STAR_M}",
        equal,
        seconds,
        2 * STAR_M,
    )
    experiment_report.row(
        "maintainer full rebuilds over the stream",
        "0 below the compaction threshold",
        str(rebuilds),
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP


def test_a8_dynamic_direct_access(benchmark, experiment_report):
    domain = max(STAR_M // 40, 3)
    probe_rng = random.Random(3)

    def run():
        db = _star_database()
        access = LexDirectAccess(
            STAR_QUERY, db, LEX_ORDER, on_stale="refresh"
        )
        len(access)  # build off the update clock
        updates = list(_update_stream(UPDATES, domain))
        probe_fractions = [
            probe_rng.random() for _ in range(len(updates))
        ]

        def probes(accessor, fraction):
            total = len(accessor)
            if not total:
                return (total, None)
            return (total, accessor.access(int(fraction * total)))

        incremental = []
        start = time.perf_counter()
        for (name, row, delete), fraction in zip(updates, probe_fractions):
            (db[name].discard if delete else db[name].add)(row)
            incremental.append(probes(access, fraction))
        incremental_seconds = time.perf_counter() - start

        db = _star_database()
        rebuild = []
        start = time.perf_counter()
        for (name, row, delete), fraction in zip(updates, probe_fractions):
            (db[name].discard if delete else db[name].add)(row)
            rebuild.append(
                probes(LexDirectAccess(STAR_QUERY, db, LEX_ORDER), fraction)
            )
        rebuild_seconds = time.perf_counter() - start
        return (
            incremental,
            rebuild,
            {
                "incremental": incremental_seconds,
                "rebuild": rebuild_seconds,
            },
            access.rebuilds,
        )

    incremental, rebuild, seconds, rebuilds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = _report_and_emit(
        experiment_report,
        "dynamic_lex",
        f"lex DA under {UPDATES} updates, m={2 * STAR_M}",
        incremental == rebuild,
        seconds,
        2 * STAR_M,
    )
    experiment_report.row(
        "direct-access full rebuilds over the stream",
        "0 below the compaction threshold",
        str(rebuilds),
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP


TRIANGLE = parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)")


def _triangle_rows():
    rng = random.Random(33)
    return {
        name: [
            (rng.randrange(CYCLIC_DOMAIN), rng.randrange(CYCLIC_DOMAIN))
            for _ in range(CYCLIC_M)
        ]
        for name in ("R", "S", "T")
    }


def test_a8_dynamic_cyclic(benchmark, experiment_report):
    data = _triangle_rows()
    rng = random.Random(5)
    updates = []
    for step in range(CYCLIC_UPDATES):
        name = rng.choice(("R", "S", "T"))
        if step % 3 == 2:
            updates.append((name, rng.choice(data[name]), True))
        else:
            row = (
                rng.randrange(CYCLIC_DOMAIN), rng.randrange(CYCLIC_DOMAIN)
            )
            updates.append((name, row, False))
    offsets = [rng.randrange(200) for _ in updates]

    def run():
        session = Session(Database.from_dict(data, backend="columnar"))
        answers = session.prepare(TRIANGLE).run()
        len(answers)  # the one full join, off the update clock
        incremental = []
        start = time.perf_counter()
        for (name, row, delete), offset in zip(updates, offsets):
            (session.discard if delete else session.add)(name, row)
            incremental.append((len(answers), answers.page(offset, 20)))
        incremental_seconds = time.perf_counter() - start

        # Rebuild per query point, which is also the from-scratch
        # oracle: an independent join + Python sort on its own copy.
        db = Database.from_dict(data, backend="columnar")
        rebuild = []
        start = time.perf_counter()
        for (name, row, delete), offset in zip(updates, offsets):
            (db[name].discard if delete else db[name].add)(row)
            ordered = sorted(generic_join(TRIANGLE, db))
            rebuild.append((len(ordered), ordered[offset : offset + 20]))
        rebuild_seconds = time.perf_counter() - start
        return (
            incremental,
            rebuild,
            {
                "incremental": incremental_seconds,
                "rebuild": rebuild_seconds,
            },
        )

    incremental, rebuild, seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = _report_and_emit(
        experiment_report,
        "dynamic_cyclic",
        f"triangle under {CYCLIC_UPDATES} updates, m={3 * CYCLIC_M}",
        incremental == rebuild,
        seconds,
        3 * CYCLIC_M,
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP
