"""Quickstart: the unified query engine.

One prepared query serves every evaluation task the paper's
dichotomies allow: the session classifies the query, plans the
cheapest admissible pipeline per capability (with the theorem
citations in ``explain()``), and keeps the answers live under
updates — no hand-wiring of counters, enumerators, or accessors.

The low-level single-algorithm API is still public; see
``examples/ranked_paging.py`` for direct use of
:class:`repro.LexDirectAccess` / :class:`repro.SumOrderDirectAccess`,
and ``examples/engine_serving.py`` for a serving workload (paged
reads interleaved with an update stream) on this facade.

Run:  python examples/quickstart.py
"""

from repro import Session, parse_query
from repro.semiring.semirings import COUNTING
from repro.workloads import random_database


def main() -> None:
    # A free-connex acyclic query: follows the paper's running theme
    # that the head shape decides tractability.
    query = parse_query("q(person, city) :- Lives(person, city), Hub(city)")
    db = random_database(query, tuples_per_relation=500, domain_size=80, seed=42)
    session = Session(db)
    print(f"database size m = {session.size()} tuples")
    print()

    # Prepare once: classify -> plan -> serving handle.  The plan
    # quotes the dichotomy theorems behind every pipeline choice.
    prepared = session.prepare(query, order=("city", "person"))
    print(prepared.explain())
    print()

    answers = prepared.run()

    # Counting (Theorem 3.13, linear time).
    total = len(answers)
    print("count:", total)

    # Enumeration within Theorem 3.17's bound: ordered block reads of
    # the same counted tree; stream the first few.
    print("first five answers:", answers.first(5))

    # Direct access (Theorem 3.24 / Corollary 3.22): jump straight to
    # the middle of the (city > person)-sorted result, or grab a page.
    print("median answer:", answers[total // 2])
    print("a page:", answers.page(offset=total // 2, size=3))

    # Semiring aggregation (Section 4.1.2).
    print("aggregate (counting semiring):", answers.aggregate(COUNTING))

    # Updates flow through the session; the prepared query never goes
    # stale (PR 3's delta maintenance underneath).
    hub_city = answers[0][1]  # answers are (person, city) head tuples
    session.discard("Hub", (hub_city,))
    print(f"after dropping hub {hub_city!r}: count = {len(answers)}")
    session.add("Hub", (hub_city,))
    print(f"after restoring it:         count = {len(answers)}")
    assert len(answers) == total


if __name__ == "__main__":
    main()
