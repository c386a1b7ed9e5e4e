"""Serving workload: paged reads interleaved with an update stream.

Simulates the production shape the engine targets: one prepared query
handles a stream of page requests (a UI scrolling through results
sorted by a lexicographic order) while single-tuple inserts and
deletes keep arriving.  The session serves the database converted to
the columnar backend (``connect()`` creates columnar databases by
default; an existing ``Database`` keeps its own backend), where one
counted layered join tree (:mod:`repro.direct_access.lex`) serves every
request: the count is its root total, a page is one block read of it,
and it self-repairs by splicing each delta row into its sorted block
and repairing the ancestor counts level by level.  A second prepared
query projects the items away (``q(user) :- Clicks(user, item),
Active(user)``): its tree stands on a support-counted projection — a
user stays an answer while some click supports them — and is patched
by the same stream, only when a support count crosses zero,

so no request ever sees a stale answer or pays a full rebuild-per-read
(the ``rebuild-per-query`` oracle this replaces is ~15-30x slower at
scale; see ``benchmarks/bench_a08_dynamic.py``).

See ``examples/quickstart.py`` for the engine tour and
``examples/ranked_paging.py`` for the low-level direct-access API.

Run:  python examples/engine_serving.py
"""

import random

from repro import Session, parse_query
from repro.workloads import random_database

PAGE_SIZE = 8
ROUNDS = 40
UPDATES_PER_ROUND = 5


def main() -> None:
    query = parse_query(
        "q(user, item) :- Clicks(user, item), Active(user)"
    )
    db = random_database(
        query, tuples_per_relation=1500, domain_size=120, seed=7
    )
    session = Session(db.to_backend("columnar"))
    prepared = session.prepare(query, order=("user", "item"))
    print(prepared.explain())
    print()

    answers = prepared.run()
    # Projection under updates: most clicks are absorbed by the support
    # count of a user who already has one.
    clickers_query = parse_query(
        "q(user) :- Clicks(user, item), Active(user)"
    )
    clickers = session.prepare(clickers_query).run()
    assert clickers.plan.maintained
    rng = random.Random(1234)
    served_pages = 0
    applied_updates = 0

    for round_number in range(ROUNDS):
        # A burst of updates: clicks come and go, users (de)activate.
        for _ in range(UPDATES_PER_ROUND):
            relation = rng.choice(["Clicks", "Clicks", "Active"])
            if relation == "Clicks":
                row = (rng.randrange(120), rng.randrange(120))
            else:
                row = (rng.randrange(120),)
            if rng.random() < 0.45:
                session.discard(relation, row)
            else:
                session.add(relation, row)
            applied_updates += 1

        # A page request against the live result.
        total = len(answers)
        if total:
            offset = rng.randrange(total)
            page = answers.page(offset, min(PAGE_SIZE, total - offset))
            served_pages += 1
            if round_number % 10 == 0:
                print(
                    f"round {round_number:>2}: m={session.size()} "
                    f"answers={total} page@{offset} -> {page[:2]}... "
                    f"active clickers={len(clickers)}"
                )

    # Spot-check the stream never drifted from the ground truth.
    oracle = sorted(query.evaluate_brute_force(session.db))
    assert len(answers) == len(oracle)
    assert answers[:] == oracle
    assert clickers[:] == sorted(
        clickers_query.evaluate_brute_force(session.db)
    )
    print()
    print(
        f"served {served_pages} pages across {applied_updates} updates "
        "with zero stale answers and zero rebuild-per-read"
    )


if __name__ == "__main__":
    main()
