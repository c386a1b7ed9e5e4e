"""repro — reproduction of "Lower Bounds for Conjunctive Query Evaluation"
(Stefan Mengel, PODS 2025, arXiv:2506.17702).

The package implements, from scratch, every algorithm the survey states
an upper bound for and every fine-grained reduction it proves, plus the
dichotomy classifiers the theorems induce — and, on top of them, a
unified query engine that does the dichotomy dispatch for you.

Which API do I want?
====================

===================================  =======================================
I want to...                         use
===================================  =======================================
serve a query (count / pages /       :func:`connect` → :meth:`Session.
stream / aggregate) without          prepare` → :class:`AnswerSet` — the
picking algorithms                   engine classifies, plans, and stays
                                     live under updates
see *why* a pipeline was chosen      :meth:`PreparedQuery.explain` (the
(theorems, costs, backend)           plan) or :func:`classify` (the full
                                     dichotomy report)
call one algorithm directly          :func:`count_answers`,
(benchmarks, experiments)            :class:`ConstantDelayEnumerator`
                                     (the engine calls neither),
                                     :class:`LexDirectAccess` (what it
                                     serves a free-connex query from),
                                     :mod:`repro.joins`,
                                     :mod:`repro.semiring`
maintain one aggregate under         :class:`HierarchicalCountMaintainer`
updates, no serving facade           / :mod:`repro.dynamic`; with
                                     per-tuple weights :class:`repro.
                                     semiring.AggregateMaintainer` (the
                                     engine maintains only its counted
                                     tree — patched in place,
                                     projected free-connex
                                     queries included, over
                                     support-counted projections: an
                                     unweighted aggregate is the
                                     image ``n·1`` of its total)
build inputs                         :class:`Database`, :func:`parse_query`,
                                     :mod:`repro.workloads`
pick a storage backend               ``connect(backend=...)`` /
                                     ``Database(backend=...)`` — a
                                     session stores one copy of its
                                     data and executes on it:
                                     ``"columnar"`` (the default: one
                                     NumPy code matrix per relation,
                                     every relation over the
                                     database's one dictionary),
                                     ``"sharded"`` (hash-partitioned
                                     matrices; choose it for spill /
                                     out-of-core data); nothing
                                     switches backend by size —
                                     convert with
                                     ``Database.to_backend``
run shards in parallel               ``connect(workers=N)`` (or the
                                     ``REPRO_WORKERS`` environment
                                     variable) — the per-shard
                                     *storage* work of the sharded
                                     backend (batch routing,
                                     compaction, coalesce, distinct
                                     counts) maps over a thread pool
                                     (:mod:`repro.db.executor`) in
                                     shard order, bit-identical to
                                     serial; queries themselves run
                                     the one columnar path
keep stored shards out of RAM        ``connect(spill_dir=...,
                                     max_resident_shards=K)`` — an
                                     LRU :class:`repro.db.spill.
                                     SpillPool` bounds the resident
                                     *stored* shard matrices; cold
                                     shards live on disk as
                                     ``np.memmap`` files and fault
                                     back in on touch.  A query's
                                     working set is O(m), as on
                                     every backend
survive crashes / restart warm /     ``connect(path=...)`` — a durable
replicate to read followers          session (CRC-checked WAL +
                                     atomic incremental checkpoints,
                                     :mod:`repro.db.wal`);
                                     :meth:`Session.checkpoint`
                                     persists data *and* prepared
                                     plans; :mod:`repro.engine.
                                     replication` ships
                                     ``delta_since`` batches to
                                     :class:`FollowerSession` replicas
                                     (``connect(replica_of=feed)``;
                                     ``catchup_path`` cold-starts a
                                     follower from the leader's
                                     rotated WAL segment files)
serve sessions to many clients       :mod:`repro.server` — a stdlib
over the network                     asyncio HTTP/1.1 service:
                                     :class:`repro.server.QueryServer`
                                     (or :class:`repro.server.
                                     ServerThread` for sync embedders)
                                     exposes multi-tenant databases,
                                     ``prepare`` → handle, paged
                                     reads, streamed NDJSON ingestion
                                     with backpressure batching, and
                                     SSE ``watch`` streams of
                                     count / aggregate changes;
                                     :class:`repro.server.
                                     ServerClient` is the matching
                                     stdlib client
replicate across machines            ``connect(replica_of=
over the wire                        "http://host:port/v1/replica/
                                     db")`` — the URL resolves to an
                                     :class:`repro.server.
                                     HttpReplicaTransport` speaking
                                     the leader's replica endpoints;
                                     connection drops and 5xx retry
                                     with backoff, corrupt payloads
                                     fail fast as
                                     :class:`ReplicationError`
join cyclic queries at NumPy         :func:`repro.joins.generic_join.
speed / aggregate without            generic_join_codes` — the
decoding                             breadth-first *frontier* Generic
                                     Join over dictionary-code
                                     matrices (zero per-row decodes);
                                     :func:`generic_join` is the same
                                     with values decoded at the
                                     boundary.  A prepared cyclic
                                     query pays one such join per
                                     database version — count, pages,
                                     iteration and aggregates share
                                     its sorted code matrix — and
                                     none per small update: join
                                     queries are repaired by
                                     :func:`generic_join_delta_codes`
                                     over the changed tuples while
                                     ``delta_since`` history lasts
speed up semiring aggregation        nothing — the fused group-lookup
                                     kernel (``fused_group_lookup``)
                                     is the one FAQ path
operate the durable store            ``DurableDatabase.verify()`` —
(scrub / verify / repair /           re-check every checkpoint file
quarantine)                          and WAL segment against manifest
                                     checksums;
                                     ``DurableDatabase.repair(path)``
                                     — quarantine damage and restore
                                     the newest consistent state
                                     (:mod:`repro.db.scrub`);
                                     ``attach(path, degraded=True)``
                                     — read-only salvage; damage
                                     raises
                                     :class:`CorruptSnapshotError` /
                                     :class:`CorruptWalError`, never
                                     silent wrong answers
===================================  =======================================

Subpackages:

- :mod:`repro.engine` — Session / PreparedQuery / AnswerSet facade with
  classifier-driven planning (the primary public API);
- :mod:`repro.db` — relations and databases (columnar / sharded
  backends over one dictionary per database; durable WAL + checkpoint storage via
  :func:`repro.db.attach`);
- :mod:`repro.query` — conjunctive query syntax, parser, catalog;
- :mod:`repro.hypergraph` — acyclicity, join trees, free-connexness,
  disruptive trios, Brault-Baron witnesses, star size, AGM exponents;
- :mod:`repro.matmul` — Boolean matrix multiplication backends;
- :mod:`repro.joins` — Yannakakis, generic join (frontier-vectorized),
  AYZ triangle, LW joins;
- :mod:`repro.counting` — answer counting algorithms + interpolation;
- :mod:`repro.semiring` — aggregation over semirings (FAQ; fused
  group-lookup kernels);
- :mod:`repro.enumeration` — constant-delay enumeration;
- :mod:`repro.direct_access` — lexicographic / sum-order direct access
  (the lexicographic tree patches under updates, projection included),
  testing;
- :mod:`repro.dynamic` — maintained counts under updates (the
  ``dynamic`` dichotomy's q-hierarchical side; off it the engine
  patches, never in constant time);
- :mod:`repro.server` — the network service layer (asyncio HTTP/SSE
  server, stdlib client, HTTP replication transport);
- :mod:`repro.solvers` — reference solvers for the source problems;
- :mod:`repro.reductions` — the paper's fine-grained reductions;
- :mod:`repro.classify` — the dichotomy classifier;
- :mod:`repro.workloads` — seeded instance generators;
- :mod:`repro.util` — timing and scaling-exponent estimation.

Quickstart (the engine; ``examples/quickstart.py`` for the full tour)::

    from repro import connect
    session = connect({"R1": [(1, 2)], "R2": [(3, 2)]})
    answers = session.prepare("q(x1, x2) :- R1(x1, z), R2(x2, z)").run()
    print(len(answers), answers[:5])
"""

from repro.classify import QueryClassification, TaskVerdict, classify
from repro.counting import count_answers
from repro.db import (
    CorruptionError,
    CorruptSnapshotError,
    CorruptWalError,
    Database,
    DegradedDatabaseError,
    DurableDatabase,
    TruncatedHistoryError,
    attach,
)
from repro.dynamic import HierarchicalCountMaintainer
from repro.direct_access import (
    LexDirectAccess,
    SumOrderDirectAccess,
    TestingOracle,
)
from repro.engine import (
    AnswerSet,
    FollowerSession,
    LeaderFeed,
    Plan,
    PreparedQuery,
    ReplicationError,
    Session,
    connect,
)
from repro.enumeration import ConstantDelayEnumerator
from repro.hypergraph import (
    Hypergraph,
    is_acyclic,
    is_free_connex,
    join_tree,
    quantified_star_size,
)
from repro.query import Atom, ConjunctiveQuery, catalog, parse_query

__version__ = "1.1.0"

__all__ = [
    "AnswerSet",
    "Atom",
    "ConjunctiveQuery",
    "ConstantDelayEnumerator",
    "CorruptSnapshotError",
    "CorruptWalError",
    "CorruptionError",
    "Database",
    "DegradedDatabaseError",
    "DurableDatabase",
    "FollowerSession",
    "HierarchicalCountMaintainer",
    "Hypergraph",
    "LeaderFeed",
    "LexDirectAccess",
    "Plan",
    "PreparedQuery",
    "QueryClassification",
    "ReplicationError",
    "Session",
    "SumOrderDirectAccess",
    "TaskVerdict",
    "TestingOracle",
    "TruncatedHistoryError",
    "attach",
    "catalog",
    "classify",
    "connect",
    "count_answers",
    "is_acyclic",
    "is_free_connex",
    "join_tree",
    "parse_query",
    "quantified_star_size",
    "__version__",
]
