"""The unified query engine: classify once, plan once, serve forever.

This package is the repo's primary public API.  The paper's central
message is that a conjunctive query's *structure* decides which
evaluation guarantees are attainable; the engine does that dispatch so
callers stop doing it by hand::

    from repro import connect

    session = connect({"Lives": [...], "Hub": [...]})
    prepared = session.prepare(
        "q(person, city) :- Lives(person, city), Hub(city)"
    )
    print(prepared.explain())       # pipelines + theorems + rationale
    answers = prepared.run()        # uniform lazy AnswerSet
    len(answers)                    # dichotomy-optimal counting
    answers[10:20]                  # paging via lex direct access
    next(iter(answers))             # ordered block reads, Õ(1) amortised
    answers.aggregate(MIN_PLUS)     # the count's image in the semiring
    session.add("Hub", ("paris",))  # prepared queries stay live

Layers:

- :mod:`repro.engine.planner` — :func:`plan_query` turns one
  :func:`repro.classify.classify` pass into a :class:`Plan`: a
  pipeline route per capability with the theorem citations and cost
  expressions quoted from the classifier's verdicts (the execution
  backend is the database's stored backend, not a planning choice).
- :mod:`repro.engine.prepared` — :class:`PreparedQuery` (lazy, cached
  answer structures; live under updates) and :class:`AnswerSet` (the
  uniform ``len`` / iterate / ``[i]`` / slice / aggregate handle).
- :mod:`repro.engine.session` — :class:`Session` / :func:`connect`:
  ownership of the one database every query executes on, and the
  update flow; with ``connect(path=...)`` the session is durable
  (WAL + checkpoints, see :mod:`repro.db.wal`) and
  ``Session.checkpoint()`` persists the prepared plans for a warm
  restart.
- :mod:`repro.engine.replication` — :class:`LeaderFeed` /
  :class:`FollowerSession`: read-only replica sessions that consume
  shipped ``delta_since`` batches with retry/backoff and fall back
  to snapshot reseed across history barriers.

The low-level pipelines remain public and are what the engine runs
underneath — see the "which API do I want" table in :mod:`repro`.
"""

from repro.engine.planner import Plan, PlanRoute, plan_query
from repro.engine.prepared import AnswerSet, PreparedQuery
from repro.engine.replication import (
    FollowerSession,
    LeaderFeed,
    ReplicationError,
    TransientReplicationError,
)
from repro.engine.session import Session, connect

__all__ = [
    "AnswerSet",
    "FollowerSession",
    "LeaderFeed",
    "Plan",
    "PlanRoute",
    "PreparedQuery",
    "ReplicationError",
    "Session",
    "TransientReplicationError",
    "connect",
    "plan_query",
]
