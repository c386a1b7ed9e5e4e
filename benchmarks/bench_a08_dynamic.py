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

The projected free-connex row is the paper's central tractable class
under updates: ``q(x, y, z) :- R(x, y), S(y, z), T(z, w)`` served
through a ``Session`` — its counted tree patched over support-counted
projections, zero rebuilds — against a from-scratch
``LexDirectAccess`` at every query point.

The acyclic-materialize row covers the family with nothing to repair:
the projected 3-chain (acyclic, not free-connex — the hard side of
Theorems 3.12 / 3.16) served through a ``Session`` reads ``len`` and a
page from one sorted Yannakakis projection per database version.  Its
``open`` / ``per_update`` seconds are recorded, not compared: both
sides of a comparison would be the same algorithm.  The count-only row
is the same family's other side — a sparse projected 2-path read by
``len`` alone, which must cost one producer run and no sort or decode —
against ``count_answers(method="brute")``, the code-matrix count the
engine used before it shared one structure with pages.

Asserted: answers identical throughout, and the incremental path
``>= 5x`` faster than rebuild-per-query on the first four workloads
(measured headroom is far larger for counting).  Timings are appended
to ``benchmarks/BENCH_backends.json`` for the perf trajectory.

Set ``BENCH_SMOKE=1`` to run tiny sizes and skip the speedup
assertions (CI uses this to keep the update path exercised on
3.10–3.12 without paying benchmark runtimes).
"""

import importlib
import os
import random
import time

from repro.counting import count_answers
from repro.db.columnar import decoded_row_count, reset_decoded_row_count
from repro.db.database import Database
from repro.direct_access import LexDirectAccess
from repro.dynamic import AcyclicCountMaintainer
from repro.engine import Session
from repro.joins import generic_join, yannakakis_project
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


FC3 = parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, w)")
FC3_DOMAIN = STAR_M // 2  # two rows per value: T adds are often absorbed


def test_a8_dynamic_projected_free_connex(benchmark, experiment_report):
    rng = random.Random(57)
    data = {
        name: sorted(
            {
                (rng.randrange(FC3_DOMAIN), rng.randrange(FC3_DOMAIN))
                for _ in range(STAR_M)
            }
        )
        for name in ("R", "S", "T")
    }
    present = {name: sorted(rows) for name, rows in data.items()}
    updates = []
    for step in range(UPDATES):
        name = rng.choice(("R", "S", "T"))
        if step % 3 == 2:  # loaded rows: deletes reach zero support
            updates.append((name, present[name].pop(), True))
        else:
            row = (rng.randrange(FC3_DOMAIN), rng.randrange(FC3_DOMAIN))
            updates.append((name, row, False))
    offsets = [rng.randrange(200) for _ in updates]

    def run():
        session = Session(Database.from_dict(data, backend="columnar"))
        prepared = session.prepare(FC3)
        answers = prepared.run()
        start = time.perf_counter()
        opened = (len(answers), answers.page(0, 20))
        open_seconds = time.perf_counter() - start
        incremental = [opened]
        start = time.perf_counter()
        for (name, row, delete), offset in zip(updates, offsets):
            (session.discard if delete else session.add)(name, row)
            incremental.append((len(answers), answers.page(offset, 20)))
        incremental_seconds = time.perf_counter() - start

        # Rebuild per query point on its own copy: the reduced build.
        db = Database.from_dict(data, backend="columnar")
        order = prepared.plan.order
        rebuild = []
        start = time.perf_counter()
        for name, row, delete in [(None, None, None)] + updates:
            if name is not None:
                (db[name].discard if delete else db[name].add)(row)
            fresh = LexDirectAccess(FC3, db, order)
            offset = offsets[len(rebuild) - 1] if rebuild else 0
            stop = min(offset + 20, len(fresh))
            rebuild.append((len(fresh), fresh.access_range(offset, stop)))
        rebuild_seconds = (time.perf_counter() - start) * len(updates) / (
            1 + len(updates)
        )
        return (
            incremental,
            rebuild,
            open_seconds,
            {"incremental": incremental_seconds, "rebuild": rebuild_seconds},
            prepared._accessor.rebuilds,
        )

    incremental, rebuild, open_seconds, seconds, rebuilds = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    speedup = seconds["rebuild"] / seconds["incremental"]
    experiment_report.row(
        f"projected free-connex under {UPDATES} updates, m={3 * STAR_M}, "
        f"{incremental[0][0]} answers",
        "identical answers, 0 rebuilds, patching faster",
        f"{rebuilds} rebuilds, {speedup:.1f}x (open "
        f"{fmt_seconds(open_seconds)}, per update "
        f"{fmt_seconds(seconds['incremental'] / len(updates))}, rebuild "
        f"{fmt_seconds(seconds['rebuild'] / len(updates))})",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": "dynamic_projected_free_connex",
                "backend": phase,
                "m": 3 * STAR_M,
                "seconds": value,
            }
            for phase, value in (
                ("open", open_seconds),
                ("per_update", seconds["incremental"] / len(updates)),
                ("rebuild_per_update", seconds["rebuild"] / len(updates)),
            )
        ],
    )
    assert incremental == rebuild
    assert rebuilds == 0
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP


CHAIN = parse_query("q(x, w) :- R(x, y), S(y, z), T(z, w)")
# Dense enough that the output (≈ domain²) dwarfs the input.
CHAIN_M = 600 if SMOKE else 20_000
CHAIN_DOMAIN = 40 if SMOKE else 500
CHAIN_UPDATES = 10 if SMOKE else 6


def test_a8_dynamic_acyclic_materialize(
    benchmark, experiment_report, monkeypatch
):
    rng = random.Random(41)
    data = {
        name: sorted(
            {
                (rng.randrange(CHAIN_DOMAIN), rng.randrange(CHAIN_DOMAIN))
                for _ in range(CHAIN_M)
            }
        )
        for name in ("R", "S", "T")
    }
    # Every update changes its relation: one new version each.
    present = {name: set(rows) for name, rows in data.items()}
    updates = []
    for step in range(CHAIN_UPDATES):
        name = rng.choice(("R", "S", "T"))
        if step % 3 == 2:
            row = rng.choice(sorted(present[name]))
            present[name].discard(row)
        else:
            row = (CHAIN_DOMAIN + step, rng.randrange(CHAIN_DOMAIN))
            present[name].add(row)
        updates.append((name, row, step % 3 == 2))
    offsets = [rng.randrange(200) for _ in updates]

    # The engine's producer runs, counted where its one builder
    # (``OrderedAnswers``) sees the projection; the oracle below calls
    # the public function and is not counted.
    lex = importlib.import_module("repro.direct_access.lex")
    producer_runs = []

    def counted(*args, **kwargs):
        producer_runs.append(args[0])
        return yannakakis_project(*args, **kwargs)

    monkeypatch.setattr(lex, "yannakakis_project", counted)

    def run():
        session = Session(Database.from_dict(data, backend="columnar"))
        answers = session.prepare(CHAIN).run()
        start = time.perf_counter()
        opened = (len(answers), answers.page(0, 20))
        open_seconds = time.perf_counter() - start
        served = [opened]
        start = time.perf_counter()
        for (name, row, delete), offset in zip(updates, offsets):
            (session.discard if delete else session.add)(name, row)
            served.append((len(answers), answers.page(offset, 20)))
        update_seconds = (time.perf_counter() - start) / len(updates)

        # From scratch on its own copy: the projection's row set
        # through a Python sort (the engine orders codes, not rows).
        db = Database.from_dict(data, backend="columnar")
        oracle = []
        for name, row, delete in [(None, None, None)] + updates:
            if name is not None:
                (db[name].discard if delete else db[name].add)(row)
            oracle.append(sorted(yannakakis_project(CHAIN, db).rows))
        expected = [
            (len(rows), rows[offset : offset + 20])
            for rows, offset in zip(oracle, [0] + offsets)
        ]
        return served, expected, open_seconds, update_seconds

    served, expected, open_seconds, update_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    experiment_report.row(
        f"projected 3-chain under {CHAIN_UPDATES} updates, "
        f"m={3 * CHAIN_M}, {served[0][0]} answers",
        "identical answers, one projection per version",
        f"{len(producer_runs)} projections for {1 + len(updates)} versions "
        f"(open {fmt_seconds(open_seconds)}, "
        f"per update {fmt_seconds(update_seconds)})",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": "dynamic_acyclic_materialize",
                "backend": phase,
                "m": 3 * CHAIN_M,
                "seconds": seconds,
            }
            for phase, seconds in (
                ("open", open_seconds),
                ("per_update", update_seconds),
            )
        ],
    )
    assert served == expected
    assert len(producer_runs) == 1 + len(updates)


PATH = parse_query("q(x, z) :- R(x, y), S(y, z)")
# Sparse: about as many answers as the full join has rows.
PATH_M = 400 if SMOKE else 20_000
PATH_DOMAIN = 80 if SMOKE else 4_000
PATH_UPDATES = 5


def test_a8_dynamic_acyclic_count_only(benchmark, experiment_report):
    rng = random.Random(43)
    data = {
        name: sorted(
            {
                (rng.randrange(PATH_DOMAIN), rng.randrange(PATH_DOMAIN))
                for _ in range(PATH_M)
            }
        )
        for name in ("R", "S")
    }
    updates = [
        ("R", (PATH_DOMAIN + step, rng.randrange(PATH_DOMAIN)))
        for step in range(PATH_UPDATES)
    ]

    def run():
        session = Session(Database.from_dict(data, backend="columnar"))
        answers = session.prepare(PATH).run()
        reset_decoded_row_count()
        start = time.perf_counter()
        counts = [len(answers)]
        for name, row in updates:
            session.add(name, row)
            counts.append(len(answers))
        seconds = (time.perf_counter() - start) / len(counts)
        decoded = decoded_row_count()

        db = Database.from_dict(data, backend="columnar")
        start = time.perf_counter()
        reference = [count_answers(PATH, db, method="brute")]
        for name, row in updates:
            db[name].add(row)
            reference.append(count_answers(PATH, db, method="brute"))
        reference_seconds = (time.perf_counter() - start) / len(reference)
        return counts, reference, decoded, seconds, reference_seconds

    counts, reference, decoded, seconds, reference_seconds = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    experiment_report.row(
        f"projected 2-path, len only, {1 + PATH_UPDATES} versions, "
        f"m={2 * PATH_M}, {counts[0]} answers",
        "identical counts, no row decoded",
        f"{decoded} rows decoded; per version {fmt_seconds(seconds)} "
        f"(code-matrix count {fmt_seconds(reference_seconds)})",
    )
    emit_perf_trajectory(
        "backends",
        [
            {
                "workload": "dynamic_acyclic_count_only",
                "backend": side,
                "m": 2 * PATH_M,
                "seconds": value,
            }
            for side, value in (
                ("len", seconds),
                ("count_answers_brute", reference_seconds),
            )
        ],
    )
    assert counts == reference
    assert decoded == 0
    if not SMOKE:
        assert seconds <= 2 * reference_seconds
