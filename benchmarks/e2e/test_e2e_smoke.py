"""Smoke test of the benchmark harness itself.

Run with ``pytest benchmarks/e2e`` (outside the tier-1 ``testpaths``):
a ``--scale 0.02`` pass of all five workloads must emit every metric
``BENCHMARK.json`` names, with its unit and no failed operation, and
the oracle must notice a single tampered answer row.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import run  # noqa: E402
import sessions  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def contract_line(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--scale", "0.02", "--trace", str(trace),
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_within_the_contract():
    assert sorted(BENCHMARK) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["run_seconds"] == workloads.REFERENCE_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[group]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["unit"] == run.unit_of(metric["name"]), metric
            assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
def test_every_listed_metric_is_emitted(workload, trace):
    result = contract_line(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for metric in listed:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_oracle_notices_one_tampered_row(tmp_path):
    spec = workloads.scaled(workloads.BY_NAME["fc_columnar"], 0.0004, 2)

    class Tampering(sessions.InProcessSession):
        def page(self, offset, size):
            rows = super().page(offset, size)
            if rows:
                x, y, z = rows[0]
                rows[0] = (x, y, z + 1)
            return rows

    honest = harness.Recorder(spec.name, False)
    run.small_scale_check(
        spec, 3, lambda: sessions.InProcessSession(spec, str(tmp_path), 0), honest
    )
    assert honest.failed == 0 and honest.attempted > 20

    tampered = harness.Recorder(spec.name, False)
    run.small_scale_check(spec, 3, lambda: Tampering(spec, str(tmp_path), 1), tampered)
    assert tampered.failed > 0
