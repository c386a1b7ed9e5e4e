"""Threaded, spillable shard storage (PR 8).

Two knobs on the sharded *storage layout* (queries themselves run the
one columnar engine over the shards' concatenated code matrix):

**Workers.**  ``connect(workers=N)`` (or the ``REPRO_WORKERS``
environment variable) puts a thread pool over the per-shard storage
work — batch routing, compaction, coalescing, distinct counts — and
collects results in shard-index order, so every answer is
bit-identical to serial execution.

**Spill.**  ``connect(spill_dir=..., max_resident_shards=K)`` bounds
how many shards' compacted code matrices stay in RAM.  Cold shards are
written once as versioned ``.npy`` files and re-opened as
``np.memmap`` — touching one faults it back in and evicts the
least-recently-used resident shard.  The pool bounds the *stored*
matrices; a query's working set is O(m), as on every backend.

Run:  python examples/parallel_aggregation.py
"""

import shutil
import tempfile

from repro import connect
from repro.semiring.semirings import COUNTING, MIN_PLUS


def main() -> None:
    spill_root = tempfile.mkdtemp(prefix="repro-spill-demo-")
    try:
        rows = {
            "R": [(i % 997, i % 131) for i in range(40_000)],
            "S": [(i % 131, i % 89) for i in range(30_000)],
        }
        serial = connect(rows, backend="sharded", workers=1)
        threaded = connect(
            rows,
            backend="sharded",
            workers=4,
            spill_dir=spill_root,
            max_resident_shards=2,
        )

        text = "q(x, y, z) :- R(x, y), S(y, z)"
        plan = threaded.prepare(text)
        print(plan.explain())
        print()

        # --- bit-identical answers, serial vs threaded
        expected = serial.prepare(text).run()
        answers = plan.run()
        assert len(answers) == len(expected)
        assert answers.aggregate(COUNTING) == expected.aggregate(COUNTING)
        assert answers.aggregate(MIN_PLUS) == expected.aggregate(MIN_PLUS)
        print(
            f"count={len(answers)}  "
            f"min-plus={answers.aggregate(MIN_PLUS)}  "
            "(identical under workers=1 and workers=4)"
        )

        # --- the spill pool is genuinely bounding residency
        pool = threaded.db.spill
        print(
            f"spill: {pool.resident_shards()} resident / "
            f"{pool.spilled_shards()} on disk "
            f"({pool.spilled_bytes()} bytes in {len(pool.spill_files())} "
            "memory-mapped files)"
        )

        # --- updates stay live: each tuple lands in its owning
        # shard's delta log, and answers reflect it immediately
        threaded.add("R", (5, 7))
        serial.add("R", (5, 7))
        threaded.discard("S", (0, 0))
        serial.discard("S", (0, 0))
        assert len(answers) == len(expected)
        print(f"after updates: count={len(answers)} (still in lockstep)")
    finally:
        shutil.rmtree(spill_root, ignore_errors=True)


if __name__ == "__main__":
    main()
