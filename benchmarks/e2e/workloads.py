"""The five frozen workloads: sizes, seeded rows, and the update script.

Why each workload exists is in ``BENCHMARK.json`` and the README.
Everything the program under test ever sees is generated here from
``--seed``; the engine's own ``repro.workloads`` generators are not
used, so a change there cannot move the benchmark's inputs.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

Row = Tuple[int, int]

#: The run length the frozen sizes were fitted to (``run_seconds`` in
#: ``BENCHMARK.json``).  ``--seconds`` scales the loop phases relative
#: to it; the rounds never drop below 1 warm-up + 5 timed.
REFERENCE_SECONDS = 12

WARMUP_ROUNDS = 1
TIMED_ROUNDS = 5  # also the page blocks and request windows: one per timed round
INGEST_CHUNK = 50_000
BATCH_ROWS = 64
PAGE_ROWS = 100
MIX_PAGE_ROWS = 20
SETUP_REPEATS = 3
RESTARTS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "inproc" | "durable" | "http"
    shape: str  # oracle shape: "path2" | "fc3" | "triangle"
    query: str
    #: Free-connex query the enumeration / direct-access / reduce
    #: layer probes run on: the workload's own query wherever it is
    #: one, the 2-path over the same relations for the triangle.
    probe_query: str
    relations: Tuple[str, ...]
    rows: int  # tuples per relation
    domain: int
    #: 1.0 keeps rows/domain (the join degree) under ``--scale``; 0.5
    #: keeps rows/domain² (the edge density the triangle count needs).
    domain_exponent: float
    connect: Tuple[Tuple[str, object], ...]
    pages_per_block: int
    update_steps: int
    scan_rows: int
    window_seconds: float
    checkpoint_every: int = 0


_FC = "q(x, y, z) :- R(x, y), S(y, z), T(z, w)"
_PATH = "q(x, y, z) :- R(x, y), S(y, z)"
_TRIANGLE = "q(x, y, z) :- R1(x, y), R2(y, z), R3(z, x)"

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="fc_columnar",
        kind="inproc",
        shape="fc3",
        query=_FC,
        probe_query=_FC,
        relations=("R", "S", "T"),
        rows=60_000,
        domain=30_000,
        domain_exponent=1.0,
        connect=(("backend", "columnar"),),
        pages_per_block=200,
        update_steps=20,
        scan_rows=100_000,
        window_seconds=0.2,
    ),
    Workload(
        name="fc_sharded",
        kind="inproc",
        shape="fc3",
        query=_FC,
        probe_query=_FC,
        relations=("R", "S", "T"),
        rows=60_000,
        domain=30_000,
        domain_exponent=1.0,
        connect=(("backend", "sharded"), ("shard_count", 4), ("workers", "nproc")),
        pages_per_block=200,
        update_steps=20,
        scan_rows=100_000,
        window_seconds=0.2,
    ),
    Workload(
        name="cyclic_join",
        kind="inproc",
        shape="triangle",
        query=_TRIANGLE,
        probe_query="q(x, y, z) :- R1(x, y), R2(y, z)",
        relations=("R1", "R2", "R3"),
        rows=20_000,
        domain=550,
        domain_exponent=0.5,
        connect=(("backend", "columnar"),),
        pages_per_block=200,
        update_steps=20,
        scan_rows=2_000_000,
        window_seconds=0.2,
    ),
    Workload(
        name="live_durable",
        kind="durable",
        shape="path2",
        query=_PATH,
        probe_query=_PATH,
        relations=("R", "S"),
        rows=80_000,
        domain=20_000,
        domain_exponent=1.0,
        connect=(("backend", "columnar"),),
        pages_per_block=200,
        update_steps=60,
        scan_rows=100_000,
        window_seconds=0.2,
        checkpoint_every=30,
    ),
    Workload(
        name="http_serving",
        kind="http",
        shape="path2",
        query=_PATH,
        probe_query=_PATH,
        relations=("R", "S"),
        rows=8_000,
        domain=2_000,
        domain_exponent=1.0,
        connect=(),
        pages_per_block=100,
        update_steps=32,
        scan_rows=5_000,
        window_seconds=0.3,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def connect_kwargs(spec: Workload) -> Dict[str, object]:
    """``spec.connect`` as keyword arguments, ``"nproc"`` resolved here."""
    return {
        key: (os.cpu_count() if value == "nproc" else value)
        for key, value in spec.connect
    }


def scaled(spec: Workload, scale: float, seconds: float) -> Workload:
    """``spec`` with data sizes × ``scale`` and loop counts × seconds.

    Block and round counts are never scaled; a shorter run measures
    fewer operations per block, never fewer blocks.
    """
    time_factor = seconds / REFERENCE_SECONDS
    rows = max(60, int(spec.rows * scale))
    update_steps = max(20, int(spec.update_steps * time_factor))
    # The domain must leave room for the loaded rows and every fresh
    # row the update script adds, or generation never terminates.
    room = math.isqrt(2 * (rows + update_steps * (BATCH_ROWS // 4 + 1) + BATCH_ROWS)) + 1
    domain = max(room, int(spec.domain * scale**spec.domain_exponent))
    return Workload(
        **{
            **spec.__dict__,
            "rows": rows,
            "domain": domain,
            "pages_per_block": max(20, int(spec.pages_per_block * time_factor)),
            "update_steps": update_steps,
            "scan_rows": max(1_000, int(spec.scan_rows * scale)),
            "window_seconds": spec.window_seconds * time_factor,
        }
    )


def generate_rows(spec: Workload, seed: int) -> Dict[str, List[Row]]:
    """``spec.rows`` distinct uniform pairs per relation."""
    rng = random.Random(seed)
    data: Dict[str, List[Row]] = {}
    for name in spec.relations:
        seen = set()
        while len(seen) < spec.rows:
            seen.add((rng.randrange(spec.domain), rng.randrange(spec.domain)))
        rows = sorted(seen)
        rng.shuffle(rows)
        data[name] = rows
    return data


@dataclass(frozen=True)
class UpdateStep:
    kind: str  # refresh class: "row" (add) | "discard" | "batch" (64-row add_all)
    op: str  # "add" | "discard" | "add_all"
    relation: str
    rows: Tuple[Row, ...]
    page_offset: int


def update_script(
    spec: Workload, data: Dict[str, List[Row]], seed: int
) -> List[UpdateStep]:
    """Step k is a 64-row batch when k % 4 == 3, else add / discard.

    Fresh rows are uniform pairs inside the domain that are neither
    loaded nor added earlier, so they join like loaded rows do.

    Each class keeps to fixed relations — adds to the last, discards to
    the first (loaded rows, in load order), batches round-robin — because
    what a refresh costs depends on which relations changed since the
    last one: on ``live_durable`` a discard's min-plus rebuild took
    ≈35 ms when only its own relation had changed and ≈50 ms otherwise,
    and the p50 of a random mix of the two flipped between them.
    """
    rng = random.Random(seed * 7919 + 1)
    present = {name: set(rows) for name, rows in data.items()}
    discarded = {name: 0 for name in spec.relations}

    def fresh(relation: str) -> Row:
        while True:
            row = (rng.randrange(spec.domain), rng.randrange(spec.domain))
            if row not in present[relation]:
                present[relation].add(row)
                return row

    steps: List[UpdateStep] = []
    singles = batches = 0
    for k in range(spec.update_steps):
        offset = rng.randrange(1000)
        if k % 4 == 3:
            relation = spec.relations[batches % len(spec.relations)]
            batches += 1
            rows = tuple(fresh(relation) for _ in range(BATCH_ROWS))
            steps.append(UpdateStep("batch", "add_all", relation, rows, offset))
            continue
        if singles % 2 == 0:
            relation = spec.relations[-1]
            step = UpdateStep("row", "add", relation, (fresh(relation),), offset)
        else:
            relation = spec.relations[0]
            row = data[relation][discarded[relation]]
            discarded[relation] += 1
            step = UpdateStep("discard", "discard", relation, (row,), offset)
        singles += 1
        steps.append(step)
    return steps
