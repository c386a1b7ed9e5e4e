"""Batched ingestion into N hash shards, served by the one engine.

What the sharded backend is for: data arrives in large batches, each
batch is encoded once and hash-routed to its owning shards in one
vectorized pass, and every shard keeps its own delta log, compaction
and checkpoint files (and can spill to disk — see
``examples/parallel_aggregation.py``).  Sharding is a *storage
layout*: queries read the shards' concatenated code matrix and run
the same columnar algorithms as an unsharded database, so answers are
identical by construction and ``explain()`` reports the partitioning
as a storage fact.

Single-tuple updates route to the owning shard's delta segments, so
prepared queries stay live across the stream exactly as on the
unsharded backends.

See ``benchmarks/bench_a09_sharding.py`` for the measured ingestion
and query throughput against the unsharded columnar backend.

Run:  python examples/sharded_ingestion.py
"""

import random
import time

from repro import Session
from repro.db import Database
from repro.semiring.semirings import COUNTING, MIN_PLUS

SHARDS = 4
BATCHES = 5
BATCH_ROWS = 5_000
DOMAIN = 400


def main() -> None:
    rng = random.Random(42)
    db = Database(backend="sharded", shard_count=SHARDS)
    db.ensure_relation("Clicks", 2)
    db.ensure_relation("Purchases", 2)

    # --- batched ingestion: one encode + one routing pass per batch
    ingested, started = 0, time.perf_counter()
    for batch_number in range(BATCHES):
        batch = [
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN // 4))
            for _ in range(BATCH_ROWS)
        ]
        db["Clicks"].add_all(batch)
        db["Purchases"].add_all(
            [
                (rng.randrange(DOMAIN // 4), rng.randrange(DOMAIN))
                for _ in range(BATCH_ROWS // 2)
            ]
        )
        ingested += BATCH_ROWS + BATCH_ROWS // 2
        sizes = db["Clicks"].shard_sizes()
        print(
            f"batch {batch_number + 1}: Clicks shards {sizes} "
            f"(total {sum(sizes)})"
        )
    elapsed = time.perf_counter() - started
    print(f"ingested {ingested} rows at {ingested / elapsed:,.0f} rows/s")

    # --- serve through the engine; the plan reports the partitioning
    query = (
        "q(item, user, buyer) :- Clicks(user, item), "
        "Purchases(item, buyer)"
    )
    session = Session(db)
    prepared = session.prepare(query)
    print()
    explain = prepared.explain()
    print(explain)
    print()
    assert f"shards:   {SHARDS} (storage layout:" in explain

    # --- same answers as the unsharded columnar backend
    answers = prepared.run()
    unsharded = Session(db.to_backend("columnar")).prepare(query).run()
    total = answers.aggregate(COUNTING)
    cheapest = answers.aggregate(MIN_PLUS)
    print(f"answers: {total}, min-plus aggregate: {cheapest}")
    assert total == unsharded.aggregate(COUNTING) == len(unsharded)
    assert cheapest == unsharded.aggregate(MIN_PLUS)

    # --- single-tuple updates route to the owning shard
    before = total
    session.add("Clicks", (DOMAIN + 1, 0))
    session.add("Purchases", (0, DOMAIN + 2))
    after = answers.aggregate(COUNTING)
    print(f"after 2 routed updates: {before} -> {after} answers")
    assert after >= before


if __name__ == "__main__":
    main()
