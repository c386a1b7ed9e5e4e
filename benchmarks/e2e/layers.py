"""The per-layer breakdown of a traced run, measured from outside.

The scripted session already records one span per facade call.  This
module adds the layer below: on fresh copies of the workload's rows it
calls each module's *public* entry point (``parse_query``,
``classify``, ``plan_query``, ``Dictionary.encode_rows``,
``free_connex_reduce``, ``generic_join_codes``, ``count_answers``,
``aggregate_*``, ``ConstantDelayEnumerator``, ``LexDirectAccess`` …),
records a span per call whose parent is the facade step the call
explains, and reports the best of :data:`PROBE_ROUNDS` rounds.
Nothing in ``src/`` is instrumented; spans inside the program are
ROADMAP item 2.

Metrics named in ``BENCHMARK.json`` (``UNIVERSAL``) are measured on
every workload.  The free-connex layers (reduce, enumeration, lex) run
on ``spec.probe_query`` — the workload's own query except for the
triangle, where it is the 2-path over the same relations.  Layers only
one workload reaches (WAL, checkpoints, the shard executor, the HTTP
server, the maintainers) come back as *extras*: printed and written to
the trace file, not gated and not in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import random
import threading
import time
from statistics import median
from typing import Callable, Dict, List, Tuple

from harness import Recorder, percentile, tree_bytes
from workloads import PAGE_ROWS, Workload, connect_kwargs

PROBE_ROUNDS = 3
ACCESSES = 1000
ENUMERATED = 50_000
COMPARED_PAGES = 60

clock = time.perf_counter


class Probe:
    """Times layer calls into spans and keeps each name's samples."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.samples: Dict[str, List[float]] = {}

    def time(self, name: str, parent: str, fn: Callable, *args, **kwargs):
        begin = clock()
        result = fn(*args, **kwargs)
        end = clock()
        self.rec.span(name, begin, end, parent)
        self.samples.setdefault(name, []).append(end - begin)
        return result

    def best(self, name: str) -> float:
        return min(self.samples[name])


def _span_seconds(rec: Recorder, name: str, parent: str) -> List[float]:
    return [
        s["end"] - s["start"]
        for s in rec.spans
        if s["name"] == name and s["parent"] == parent and s["round"] != 0
    ]


def _database(spec: Workload):
    """An empty bare database configured like the workload's session."""
    from repro.db import Database

    return Database(**connect_kwargs(spec))


def _aggregate_fn(spec: Workload):
    from repro.semiring import faq

    if spec.shape == "fc3":
        return faq.aggregate_free_connex
    if spec.shape == "path2":
        return faq.aggregate_acyclic
    return faq.aggregate_generic


def probe_round(spec: Workload, data, steps, probe: Probe, extras_on: bool) -> dict:
    """One pass over the layers on a fresh copy of the rows."""
    from repro import connect, parse_query
    from repro.classify import classify
    from repro.counting import count_answers
    from repro.db import columnar
    from repro.direct_access import LexDirectAccess
    from repro.dynamic.acyclic_count import maintained_count
    from repro.engine import plan_query
    from repro.enumeration import ConstantDelayEnumerator
    from repro.joins.fc_reduce import free_connex_reduce
    from repro.joins.generic_join import generic_join, generic_join_codes
    from repro.semiring.faq import AggregateMaintainer
    from repro.semiring.semirings import MIN_PLUS

    rng = random.Random(11)
    facts: dict = {}

    # --- db: encode and bare add_all, no session -----------------------
    first = data[spec.relations[0]]
    probe.time("db.encode_rows", "ingest", columnar.Dictionary().encode_rows, first, 2)
    db = _database(spec)

    def load() -> None:
        for name, rows in data.items():
            db.ensure_relation(name, 2).add_all(rows)

    probe.time("db.add_all", "ingest", load)

    # --- query / classify / planner / session.prepare ------------------
    for _ in range(50):
        query = probe.time("query.parse", "prepare", parse_query, spec.query)
    probe_query = parse_query(spec.probe_query)
    probe.time("classify.classify", "prepare", classify, query)
    probe.time(
        "planner.plan", "prepare", plan_query, query,
        size=db.size(), stored_backend=db.backend,
    )
    session = connect(db)
    try:
        prepared = probe.time("session.prepare", "open", session.prepare, spec.query)
        for _ in range(20):
            probe.time("session.prepare_cached", "open", session.prepare, spec.query)
        exe = prepared.database  # the primary, or its columnar mirror
        if exe is not db:
            probe.time("db.to_backend", "prepare", db.to_backend, exe.backend)

        # --- the kernels, in the order the open step reaches them ------
        probe.time("counting.count_answers", "len", count_answers, query, exe)
        order = prepared.plan.order if spec.probe_query == spec.query else None
        accessor = probe.time(
            "lex.build", "page",
            lambda: _built(LexDirectAccess(probe_query, exe, order=order, on_stale="refresh")),
        )
        enumerator = probe.time(
            "enumeration.build", "first", ConstantDelayEnumerator,
            probe_query, exe, on_stale="refresh",
        )
        probe.time("fc_reduce.reduce", "len", free_connex_reduce, probe_query, exe)
        probe.time("generic_join.codes", "len", generic_join_codes, query, exe)
        probe.time("faq.aggregate", "aggregate", _aggregate_fn(spec), query, exe, MIN_PLUS)

        total = count_answers(probe_query, exe)
        offsets = [rng.randrange(max(1, total)) for _ in range(ACCESSES)]

        def access_all() -> None:
            access = accessor.access
            for i in offsets:
                access(i)

        probe.time("lex.access_block", "page", access_all)

        def enumerate_some() -> int:
            n = 0
            for _ in enumerator:
                n += 1
                if n == ENUMERATED:
                    break
            return n

        facts["enumerated"] = probe.time("enumeration.scan", "scan", enumerate_some)

        # --- engine.prepared: the facade page against bare accesses ----
        answers = prepared.run()
        count = len(answers)
        answers.page(0, PAGE_ROWS)  # builds the facade's own accessor
        if spec.shape == "triangle":
            ordered = sorted(generic_join(query, exe))
            bare = lambda o: ordered[o : o + PAGE_ROWS]  # noqa: E731
        else:
            own = LexDirectAccess(query, exe, order=prepared.plan.order, on_stale="refresh")
            bare = lambda o: [own.access(i) for i in range(o, o + PAGE_ROWS)]  # noqa: E731
        starts = [rng.randrange(max(1, count - PAGE_ROWS)) for _ in range(COMPARED_PAGES)]
        facade_s, bare_s = [], []
        for start in starts:
            begin = clock()
            answers.page(start, PAGE_ROWS)
            middle = clock()
            bare(start)
            end = clock()
            facade_s.append(middle - begin)
            bare_s.append(end - middle)
        facts["page_facade_s"] = median(facade_s)
        facts["page_bare_s"] = median(bare_s)

        # --- decoded rows / scratch over one read sequence -------------
        columnar.reset_decoded_row_count()
        columnar.reset_scratch_peak()
        len(answers)
        answers.page(PAGE_ROWS, PAGE_ROWS)
        answers.first(PAGE_ROWS)
        answers.aggregate(MIN_PLUS)
        facts["decoded_rows"] = columnar.decoded_row_count()
        facts["scratch_peak_rows"] = columnar.scratch_peak()

        # --- maintained structures under one row and one batch ---------
        maintainers = None
        # Below the planner's columnar cutoff (the smoke test's scale)
        # the session stays on python relations and maintains nothing.
        if extras_on and spec.shape == "path2" and exe.backend != "python":
            counter = probe.time("dynamic.count_build", "len", maintained_count, query, exe)
            counter.count()
            maintainer = probe.time(
                "faq.maintainer_build", "aggregate", AggregateMaintainer, query, exe, MIN_PLUS
            )
            maintainer.value()
            maintainers = (counter, maintainer)
        row_steps = [s for s in steps if s.op == "add"][:3]
        batch_step = next(s for s in steps if s.op == "add_all")
        # The first refresh after a build also sets up the incremental
        # path; later ones are what a steady update stream pays.
        for step in row_steps:
            session.add(step.relation, step.rows[0])
            probe.time("lex.refresh", "refresh.row", accessor.access, 0)
            if maintainers:
                probe.time("dynamic.count_refresh", "refresh.row", maintainers[0].count)
                probe.time("faq.maintainer_refresh_row", "refresh.row", maintainers[1].value)

        def distinct() -> None:
            for rel in exe:
                counts = getattr(rel, "column_distinct_counts", None)
                if counts is not None:
                    counts()

        # The update dropped the counts prepare() had cached: cold again.
        probe.time("db.distinct_counts", "prepare", distinct)
        session.add_all(batch_step.relation, list(batch_step.rows))
        probe.time("lex.refresh_batch", "refresh.batch", accessor.access, 0)
        if maintainers:
            probe.time("faq.maintainer_refresh_batch", "refresh.batch", maintainers[1].value)

        def compact() -> None:
            for rel in exe:
                compact_rel = getattr(rel, "compact", None)
                if compact_rel is not None:
                    compact_rel()

        probe.time("db.compact", "updates", compact)

        if extras_on and spec.shape == "triangle":
            probe.time(
                "generic_join.materialize", "page", lambda: sorted(generic_join(query, exe))
            )
        if extras_on and spec.name == "fc_sharded":
            facts.update(_executor_ratio(spec, data, query))
        if extras_on and spec.kind != "http":
            facts["contended_read_ops_per_s"] = _contended_reads(answers, count)
    finally:
        session.close()
    return facts


def _built(accessor):
    accessor.access(0)  # the stores finish building on the first access
    return accessor


def _executor_ratio(spec: Workload, data, query) -> dict:
    """Serial ÷ ``workers=nproc`` time of one sharded FAQ aggregate."""
    from repro.db import Database
    from repro.semiring.faq import aggregate_free_connex
    from repro.semiring.semirings import MIN_PLUS

    seconds = {}
    for label, workers in (("serial", 1), ("pool", os.cpu_count())):
        db = Database(backend="sharded", shard_count=4, workers=workers)
        for name, rows in data.items():
            db.ensure_relation(name, 2).add_all(rows)
        aggregate_free_connex(query, db, MIN_PLUS)
        runs = []
        for _ in range(2):
            begin = clock()
            aggregate_free_connex(query, db, MIN_PLUS)
            runs.append(clock() - begin)
        seconds[label] = min(runs)
    return {"executor_parallel_ratio": seconds["serial"] / seconds["pool"]}


def _contended_reads(answers, count: int, seconds: float = 0.3) -> float:
    """``nproc`` threads paging and counting one AnswerSet."""
    done: List[int] = []
    deadline = clock() + seconds

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        n = 0
        while clock() < deadline:
            len(answers)
            answers.page(rng.randrange(max(1, count - 20)), 20)
            n += 2
        done.append(n)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(os.cpu_count() or 1)]
    begin = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(done) / (clock() - begin)


def durable_extras(spec: Workload, data, tmp_root: str, probe: Probe) -> dict:
    """db.wal / db.checkpoint / attach alone, on a fresh directory."""
    import tempfile

    from repro.db import attach

    path = os.path.join(tempfile.mkdtemp(dir=tmp_root), "db")
    rows = sum(len(r) for r in data.values())
    db = attach(path, backend="columnar")

    def load() -> None:
        for name, batch in data.items():
            db.ensure_relation(name, 2).add_all(batch)

    probe.time("db.wal.add_all", "ingest", load)
    wal_bytes = tree_bytes(path)
    rel = db[spec.relations[0]]
    singles = [(spec.domain + i, i) for i in range(200)]

    def add_rows() -> None:
        for row in singles:
            rel.add(row)

    probe.time("db.wal.add_rows", "refresh.row", add_rows)
    probe.time("db.checkpoint.checkpoint", "updates", db.checkpoint)
    stored = tree_bytes(path)
    db.close()
    reopened = probe.time("db.attach", "restart", attach, path)
    reopened.close()
    return {
        "db.wal.add_all_rows_per_s": rows / probe.best("db.wal.add_all"),
        "db.wal.add_row_us": probe.best("db.wal.add_rows") / len(singles) * 1e6,
        "db.wal.bytes_per_row": wal_bytes / rows,
        "db.checkpoint.checkpoint_ms": probe.best("db.checkpoint.checkpoint") * 1e3,
        "db.checkpoint.bytes_per_row": stored / (rows + len(singles)),
        "db.attach_ms": probe.best("db.attach") * 1e3,
    }


def server_extras(spec: Workload, fixture, probe: Probe, twin: dict) -> dict:
    """Per-route cost on one connection, and what HTTP adds to a page."""
    from sessions import HttpSession

    session = HttpSession(spec, fixture.server.port, 0, fixture.body, name="probe")
    session.open()
    try:
        session.ingest(fixture.data)
        session.prepare()
        total = session.count()
        rng = random.Random(3)
        routes = {
            "server.healthz": session.client.health,
            "server.len": session.count,
            "server.aggregate": lambda: session.aggregate("min-plus"),
            "server.page": lambda: session.page(rng.randrange(total - PAGE_ROWS), PAGE_ROWS),
        }
        cpu_before, wall_before = fixture.server.cpu_seconds(), clock()
        out = {}
        for name, call in routes.items():
            for _ in range(300):
                probe.time(name, "requests", call)
            out[name + "_us"] = percentile(probe.samples[name], 50) * 1e6
        wall = clock() - wall_before
        out["server.cpu_share"] = (fixture.server.cpu_seconds() - cpu_before) / wall
        relation = spec.relations[0]
        for i in range(20):
            probe.time(
                "server.update_ack", "refresh.row",
                session.client.add, session.db, relation, [(spec.domain + i, i)],
            )
        out["server.update_ack_ms"] = percentile(probe.samples["server.update_ack"], 50) * 1e3
        out["server.page_overhead_us"] = out["server.page_us"] - twin["page_facade_s"] * 1e6
        return out
    finally:
        session.close()


UNIVERSAL = (
    "trace.session_s", "trace.spans", "trace.overhead_pct",
    "open.prepare_ms", "open.len_ms", "open.page_ms", "open.unattributed_pct",
    "page_p95_ms", "requests_per_s", "page.unattributed_pct",
    "refresh.update_ms", "refresh.len_ms", "refresh.page_ms", "refresh.aggregate_ms",
    "refresh.unattributed_pct",
    "query.parse_us", "classify.classify_ms", "planner.plan_ms",
    "session.prepare_ms", "session.prepare_cached_us",
    "prepared.page_overhead_us_per_row",
    "db.encode_rows_per_s", "db.add_all_rows_per_s", "db.distinct_counts_ms",
    "db.compact_ms", "db.decoded_rows", "db.scratch_peak_rows",
    "fc_reduce.reduce_ms", "generic_join.codes_ms", "counting.count_answers_ms",
    "faq.aggregate_ms",
    "enumeration.build_ms", "enumeration.delay_us",
    "lex.build_ms", "lex.access_us", "lex.refresh_ms",
)


def measure(
    spec: Workload, fixture, metrics: Dict[str, float], rec: Recorder, tmp_root: str
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(universal, extras)`` for the traced run that just finished."""
    probe = Probe(rec)
    span_count = len(rec.spans)
    facts: dict = {}
    for index in range(PROBE_ROUNDS):
        # The once-only extras of round 0 stay; the rest is the last round's.
        facts.update(probe_round(spec, fixture.data, fixture.steps, probe, extras_on=index == 0))
    rows = sum(len(r) for r in fixture.data.values())
    ms = lambda name: probe.best(name) * 1e3  # noqa: E731

    # The cost of tracing itself: what recording this run's spans took.
    begin = clock()
    scratch = Recorder(spec.name, True)
    for _ in range(10_000):
        scratch.span("x", 0.0, 0.0, None)
    per_span = (clock() - begin) / 10_000

    out: Dict[str, float] = {
        "trace.session_s": metrics["session_s"],
        "trace.spans": float(span_count),
        "trace.overhead_pct": 100.0 * span_count * per_span / metrics["session_s"],
        # Demoted from the gated set (README "Demotion rule"); same names.
        "page_p95_ms": metrics["page_p95_ms"],
        "requests_per_s": metrics["requests_per_s"],
        "query.parse_us": probe.best("query.parse") * 1e6,
        "classify.classify_ms": ms("classify.classify"),
        "planner.plan_ms": ms("planner.plan"),
        "session.prepare_ms": ms("session.prepare"),
        "session.prepare_cached_us": probe.best("session.prepare_cached") * 1e6,
        "db.encode_rows_per_s": len(fixture.data[spec.relations[0]]) / probe.best("db.encode_rows"),
        "db.add_all_rows_per_s": rows / probe.best("db.add_all"),
        "db.distinct_counts_ms": ms("db.distinct_counts"),
        "db.compact_ms": ms("db.compact"),
        "db.decoded_rows": float(facts["decoded_rows"]),
        "db.scratch_peak_rows": float(facts["scratch_peak_rows"]),
        "fc_reduce.reduce_ms": ms("fc_reduce.reduce"),
        "generic_join.codes_ms": ms("generic_join.codes"),
        "counting.count_answers_ms": ms("counting.count_answers"),
        "faq.aggregate_ms": ms("faq.aggregate"),
        "enumeration.build_ms": ms("enumeration.build"),
        "enumeration.delay_us": probe.best("enumeration.scan") / max(1, facts["enumerated"]) * 1e6,
        "lex.build_ms": ms("lex.build"),
        "lex.access_us": probe.best("lex.access_block") / ACCESSES * 1e6,
        "lex.refresh_ms": ms("lex.refresh"),
        "prepared.page_overhead_us_per_row": (facts["page_facade_s"] - facts["page_bare_s"])
        / PAGE_ROWS * 1e6,
    }
    # The facade's own steps, from the scripted session's spans.
    for step in ("prepare", "len", "page"):
        out[f"open.{step}_ms"] = min(_span_seconds(rec, step, "open")) * 1e3
    for step in ("update", "len", "page", "aggregate"):
        out[f"refresh.{step}_ms"] = percentile(_span_seconds(rec, step, "refresh.row"), 25) * 1e3

    extras: Dict[str, float] = {}
    for name, key, scale in (
        ("db.to_backend", "db.to_backend_ms", 1e3),
        ("dynamic.count_build", "dynamic.count_build_ms", 1e3),
        ("dynamic.count_refresh", "dynamic.count_refresh_us", 1e6),
        ("faq.maintainer_build", "faq.maintainer_build_ms", 1e3),
        ("faq.maintainer_refresh_row", "faq.maintainer_refresh_row_us", 1e6),
        ("faq.maintainer_refresh_batch", "faq.maintainer_refresh_batch_ms", 1e3),
        ("lex.refresh_batch", "lex.refresh_batch_ms", 1e3),
    ):
        if name in probe.samples:
            extras[key] = probe.best(name) * scale
    if "generic_join.materialize" in probe.samples:
        extras["generic_join.decode_sort_ms"] = (
            probe.best("generic_join.materialize") - probe.best("generic_join.codes")
        ) * 1e3
        extras["prepared.refresh_join_ratio"] = (
            metrics["refresh_row_ms"] / out["generic_join.codes_ms"]
        )
    if "executor_parallel_ratio" in facts:
        extras["db.executor.parallel_ratio"] = facts["executor_parallel_ratio"]
        from repro.db import sharded

        extras["db.coalesced_row_peak"] = float(sharded.coalesced_row_peak())
    if "contended_read_ops_per_s" in facts:
        extras["session.contended_read_ops_per_s"] = facts["contended_read_ops_per_s"]
    first_s = _span_seconds(rec, "first", "open")
    if first_s:
        extras["open.first_ms"] = min(first_s) * 1e3
    if spec.kind == "durable":
        extras.update(durable_extras(spec, fixture.data, tmp_root, probe))
    http_floor_ms = 0.0
    if spec.kind == "http":
        extras.update(server_extras(spec, fixture, probe, facts))
        http_floor_ms = extras["server.healthz_us"] / 1e3
        extras["server.ingest_overhead_ratio"] = (
            out["db.add_all_rows_per_s"] / metrics["ingest_rows_per_s"]
        )

    out.update(_unattributed(spec, metrics, out, extras, facts, http_floor_ms))
    return out, extras


def _unattributed(spec, metrics, out, extras, facts, http_floor_ms) -> Dict[str, float]:
    """Facade time the layer probes below it do not account for.

    Each stacked metric is compared with the sum of the separately
    measured calls the facade makes for it (README "Attribution").
    """
    access_ms = out["lex.access_us"] * PAGE_ROWS / 1e3
    if spec.shape == "triangle":
        join_ms = out["generic_join.codes_ms"]
        materialize_ms = join_ms + extras["generic_join.decode_sort_ms"]
        open_parts = [out["session.prepare_ms"], out["counting.count_answers_ms"], materialize_ms]
        refresh_parts = [out["counting.count_answers_ms"], materialize_ms, out["faq.aggregate_ms"]]
    else:
        maintained = "dynamic.count_build_ms" in extras
        count_ms = extras["dynamic.count_build_ms"] if maintained else out["counting.count_answers_ms"]
        open_parts = [out["session.prepare_ms"], count_ms, out["lex.build_ms"], access_ms]
        if maintained:
            refresh_parts = [
                extras["dynamic.count_refresh_us"] / 1e3,
                out["lex.refresh_ms"],
                access_ms,
                extras["faq.maintainer_refresh_row_us"] / 1e3,
            ]
        else:
            refresh_parts = [count_ms, out["lex.refresh_ms"], access_ms, out["faq.aggregate_ms"]]
        if spec.kind != "http":
            open_parts += [out["enumeration.build_ms"], out["enumeration.delay_us"] * PAGE_ROWS / 1e3]
    if spec.kind == "http":
        # Every step is one request: the HTTP floor is a named layer.
        open_parts.append(3 * http_floor_ms)
        refresh_parts.append(3 * http_floor_ms + extras["server.update_ack_ms"])

    # A page is compared with the same rows read straight from the
    # accessor (or the sorted list), interleaved in one loop; over HTTP
    # the page is the route's p50 and the HTTP floor is a named layer.
    bare_page_ms = facts["page_bare_s"] * 1e3
    page_ms = facts["page_facade_s"] * 1e3
    page_floor: List[float] = []
    if spec.kind == "http":
        page_ms = extras["server.page_us"] / 1e3
        page_floor = [http_floor_ms]

    def share(total_ms: float, parts: List[float]) -> float:
        return 100.0 * (total_ms - sum(parts)) / total_ms

    return {
        "open.unattributed_pct": share(metrics["open_ms"], open_parts),
        "page.unattributed_pct": share(page_ms, [bare_page_ms] + page_floor),
        "refresh.unattributed_pct": share(metrics["refresh_row_ms"], refresh_parts),
    }
