"""The repo's end-to-end benchmark: five scripted client sessions.

    python3 benchmarks/e2e/run.py                       every workload, untraced
    python3 benchmarks/e2e/run.py --trace               + the traced pass per workload
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --aa K [--seed N]     A/A self-check table

With ``--workload`` the session runs in this process (one fresh
process per workload, so ``peak_rss_mb`` is per workload) and the last
line of stdout is the contract object ``{"correct", "attempted",
"failed", "metrics"}`` holding the ``end_to_end`` metrics of
``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``).  Without it, each workload runs as a child of this
launcher, sequentially.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TMP = os.path.join(HERE, ".tmp")
RECORD_PREFIX = "record: "


def unit_of(name: str) -> str:
    """A metric's unit, from its name's suffix (BENCHMARK.json agrees)."""
    for suffix, unit in (
        ("_pct", "%"), ("_us_per_row", "us/row"), ("bytes_per_row", "B/row"),
        ("requests_per_s", "req/s"), ("ops_per_s", "ops/s"), ("_per_s", "rows/s"),
        ("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_mb", "MB"),
        ("_ratio", "ratio"), ("_share", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_stamp(args, spec, scrubbed=()) -> dict:
    """Where, when and on what this record was measured."""
    import numpy

    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "-C", ROOT, "status", "--porcelain"],
                    capture_output=True, text=True, timeout=10, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    import workloads as w

    return {
        "commit": commit,
        "dirty": dirty,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "sizes": {
            "rows_per_relation": spec.rows,
            "domain": spec.domain,
            "pages_per_block": spec.pages_per_block,
            "update_steps": spec.update_steps,
            "scan_rows": spec.scan_rows,
            "window_seconds": spec.window_seconds,
        },
        "rounds": {"warmup": w.WARMUP_ROUNDS, "timed": w.TIMED_ROUNDS},
        "blocks": w.TIMED_ROUNDS,
        "scrubbed_env": list(scrubbed),
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
class Fixture:
    """What set-up builds: rows, update script, ingest body, server."""

    def __init__(
        self, spec, seed: int, tmp_root: str, env: Dict[str, str], server_cpu: Optional[int]
    ) -> None:
        import sessions
        import workloads

        self.data = workloads.generate_rows(spec, seed)
        self.steps = workloads.update_script(spec, self.data, seed)
        self.body = None
        self.server = None
        self.encode_s = None
        if spec.kind == "http":
            begin = time.perf_counter()
            self.body = sessions.encode_ndjson(self.data)
            self.encode_s = time.perf_counter() - begin
            self.server = sessions.ServerProcess(env, server_cpu)
            sessions.HttpSession(spec, self.server.port, 0).client.health()
        self.root = tempfile.mkdtemp(dir=tmp_root)

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def small_scale_check(spec, seed: int, make_session, rec) -> None:
    """At 1/50 scale: the complete answer list against nested loops.

    Sorted list, three random pages and the streamed set, before and
    after the update script; every step's count on the way.
    """
    import random

    import workloads
    from oracle import Oracle, brute_force

    rng = random.Random(seed + 17)
    data = workloads.generate_rows(spec, seed + 1)
    steps = workloads.update_script(spec, data, seed + 1)
    oracle = Oracle(spec.shape, spec.relations, data)
    session = make_session()
    try:
        session.open()
        session.ingest(data)
        session.prepare()
        order = session.order()
        for phase in ("before updates", "after updates"):
            truth = brute_force(spec.shape, spec.relations, oracle.rows())
            truth.sort(key=lambda row: tuple(row[p] for p in order))
            rec.check(f"small oracle count {phase}", oracle.count() == len(truth))
            count = session.count()
            rec.check(f"small len {phase}", count == len(truth), f"{count} != {len(truth)}")
            rows = [tuple(r) for r in session.page(0, len(truth) + 10)]
            rec.check(f"small sorted answers {phase}", rows == truth)
            for _ in range(3):
                offset = rng.randrange(max(1, len(truth)))
                page = [tuple(r) for r in session.page(offset, 25)]
                rec.check(f"small page@{offset} {phase}", page == truth[offset : offset + 25])
            if hasattr(session, "first"):
                streamed = session.first(len(truth) + 10)
                ok = len(streamed) == len(truth) and set(streamed) == set(truth)
                rec.check(f"small streamed set {phase}", ok)
            counted = session.aggregate("counting")
            rec.check(f"small counting {phase}", counted == len(truth))
            if phase == "before updates":
                total = len(truth)
                for k, step in enumerate(steps):
                    session.apply(step)
                    total += oracle.apply(step.op, step.relation, step.rows)
                    got = session.count()
                    rec.check(f"small step {k} len", got == total, f"{got} != {total}")
    finally:
        session.close()


def run_workload(args) -> int:
    """Measure one workload here; print its record and the contract line."""
    # Defaults are what is measured: no REPRO_* reaches the engine here
    # or in the server child, which inherits this environment.
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import_begin = time.perf_counter()
    import repro  # noqa: F401  (import cost is reported, not hidden)
    import_s = time.perf_counter() - import_begin

    import harness
    import sessions
    import workloads
    from oracle import Oracle

    benchmark = load_benchmark()
    spec = workloads.scaled(workloads.BY_NAME[args.workload], args.scale, args.seconds)
    small = workloads.scaled(
        workloads.BY_NAME[args.workload], args.scale / 50, args.seconds
    )
    trace = bool(args.trace)
    rec = harness.Recorder(spec.name, trace)
    env = dict(os.environ)
    os.makedirs(TMP, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=TMP)
    fixture: Optional[Fixture] = None

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    # Load generator and server on a CPU each, like two machines: left
    # to the scheduler, the server's loop and pool threads sometimes
    # settle on different cores and every request then costs ~8 ms
    # instead of ~3.5 ms for the rest of the run (README "Pinning").
    server_cpu = None
    if spec.kind == "http" and hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[0]})
            server_cpu = cpus[-1]
    try:
        # Set-up, several times over; the last one is used.
        setup_samples: List[float] = []
        for _ in range(workloads.SETUP_REPEATS):
            if fixture is not None:
                fixture.stop()
            begin = time.perf_counter()
            fixture = Fixture(spec, args.seed, tmp_root, env, server_cpu)
            setup_samples.append(time.perf_counter() - begin)
        setup_s = median(setup_samples)

        def make_session(index: int):
            if spec.kind == "http":
                return sessions.HttpSession(spec, fixture.server.port, index, fixture.body)
            return sessions.InProcessSession(spec, fixture.root, index)

        def make_small_session():
            if spec.kind == "http":
                return sessions.HttpSession(small, fixture.server.port, 0, name="small")
            return sessions.InProcessSession(small, tempfile.mkdtemp(dir=tmp_root), 0)

        oracle = Oracle(spec.shape, spec.relations, fixture.data)
        clients = min(os.cpu_count() or 1, 2) if spec.kind == "http" else 1
        gc.collect()
        gc.freeze()  # harness inputs stay out of the engine's GC passes
        samples = harness.run_session(
            spec, make_session, fixture.data, fixture.steps, oracle, rec,
            args.seed, clients, fixture.root,
        )
        metrics = harness.end_to_end_metrics(samples)
        metrics["setup_s"] = setup_s
        if spec.kind == "http":
            metrics["peak_rss_mb"] = fixture.server.status_value("VmHWM") / 1024.0
        else:
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        extras = {"import_s": import_s}
        if fixture.encode_s:
            total_rows = spec.rows * len(spec.relations)
            extras["client.encode_rows_per_s"] = total_rows / fixture.encode_s

        layer_metrics: Dict[str, float] = {}
        if trace:
            import layers

            layer_metrics, layer_extras = layers.measure(
                spec, fixture, metrics, rec, tmp_root
            )
            extras.update(layer_extras)

        gc.unfreeze()
        small_begin = time.perf_counter()
        small_scale_check(small, args.seed, make_small_session, rec)
        extras["oracle_small_s"] = time.perf_counter() - small_begin
    finally:
        if fixture is not None:
            fixture.stop()
        shutil.rmtree(tmp_root, ignore_errors=True)

    record = {
        "workload": spec.name,
        "trace": int(trace),
        "stamp": run_stamp(args, spec, scrubbed),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "final_count": samples.final_count,
        "end_to_end": metrics,
        "samples": harness.raw_samples(samples),
        "per_layer": layer_metrics,
        "extras": extras,
    }
    for name, value in sorted({**metrics, **extras, **layer_metrics}.items()):
        print(f"{spec.name:<13} {name:<36} {value:>16.4f} {unit_of(name)}")
    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if trace:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{spec.name}.json"), "w") as handle:
            json.dump({**record, "spans": rec.spans}, handle)
    print(RECORD_PREFIX + json.dumps(record))

    wanted = benchmark["per_layer" if trace else "end_to_end"]
    source = layer_metrics if trace else metrics
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    correct = rec.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": {
                    m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the launcher: every workload as a child, sequentially
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, args, trace: int) -> dict:
    """One workload in a fresh process; its record (raises on failure)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    records = [
        line[len(RECORD_PREFIX):]
        for line in done.stdout.splitlines()
        if line.startswith(RECORD_PREFIX)
    ]
    if done.returncode != 0 or not records:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} exited with {done.returncode}")
    return json.loads(records[-1])


def run_all(args) -> int:
    import workloads

    names = [w.name for w in workloads.WORKLOADS]
    failed = 0
    for name in names:
        record = run_child(name, args.seed, args, 0)
        failed += record["failed"]
        rows = {**record["end_to_end"], **record["extras"]}
        if args.trace:
            traced = run_child(name, args.seed, args, 1)
            failed += traced["failed"]
            rows.update(traced["per_layer"])
            rows.update(traced["extras"])
            rows["trace.overhead_vs_untraced_pct"] = 100.0 * (
                traced["end_to_end"]["session_s"] / record["end_to_end"]["session_s"] - 1.0
            )
        for metric, value in sorted(rows.items()):
            print(f"{name:<13} {metric:<36} {value:>16.4f} {unit_of(metric)}")
        print(f"{name:<13} ops_attempted {record['attempted']} ops_failed {record['failed']}")
        print(RECORD_PREFIX + json.dumps(record))
    return 1 if failed else 0


def run_aa(args) -> int:
    """Two alternating sets of K passes; medians, difference, spread."""
    import workloads

    benchmark = load_benchmark()
    gated = benchmark["end_to_end"]
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    seeds = [args.seed * 100 + i for i in range(args.aa)]
    values: Dict[tuple, List[float]] = {}
    for i, seed in enumerate(seeds):
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            for name in names:
                record = run_child(name, seed, args, 0)
                for metric in gated:
                    values.setdefault((name, metric["name"], side), []).append(
                        record["end_to_end"][metric["name"]]
                    )
            print(f"pass {i + 1}/{args.aa} set {side} done", file=sys.stderr)

    def spread(series: List[float]) -> float:
        q1, _, q3 = quantiles(series, n=4)
        return (q3 - q1) / median(series)

    lines = [
        f"# A/A self-check, seeds {seeds[0]}..{seeds[-1]} ({args.aa} passes per set)",
        "",
        json.dumps(run_stamp(args, workloads.BY_NAME[names[0]])),
        "",
        "| workload | metric | unit | median A | median B | diff | spread A | spread B | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    worst = 0
    for name in names:
        for metric in gated:
            a = values[(name, metric["name"], "A")]
            b = values[(name, metric["name"], "B")]
            diff = abs(median(b) - median(a)) / median(a)
            spreads = (spread(a), spread(b)) if args.aa >= 2 else (0.0, 0.0)
            bound = metric["bound"]
            is_setup = metric["name"] == "setup_s"
            ok = diff <= bound / 2 and (is_setup or max(spreads) <= bound)
            worst += not ok
            lines.append(
                f"| {name} | {metric['name']} | {metric['unit']} | {median(a):.4f} | "
                f"{median(b):.4f} | {diff:.1%} | {spreads[0]:.1%} | {spreads[1]:.1%} | "
                f"{bound:.0%} | {'ok' if ok else 'EXCEEDS'} |"
            )
    text = "\n".join(lines) + "\n"
    print(text)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"aa-seed{args.seed}.md"), "w") as handle:
        handle.write(text)
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one of BENCHMARK.json's workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length the loop phases are sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data-size factor (the smoke test uses 0.02)")
    parser.add_argument("--aa", type=int, default=0, metavar="K")
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    import workloads

    if args.seconds is None:
        args.seconds = float(workloads.REFERENCE_SECONDS)
    if args.workload is not None and args.workload not in workloads.BY_NAME:
        parser.error(f"unknown workload {args.workload!r}")
    if args.aa:
        return run_aa(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
