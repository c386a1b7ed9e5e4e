"""Incrementally maintained answer counts for acyclic join queries.

:class:`repro.dynamic.HierarchicalCountMaintainer` realizes [15]'s
constant-time-per-update counting, but only for *hierarchical* join
queries and only over its own private tuple sets.  This module covers
the complementary production case: an acyclic join query served from
the columnar backend, where the count is the counting-semiring FAQ
aggregate and updates arrive as mutations of the shared relations.

:class:`AcyclicCountMaintainer` is a thin counting-semiring instance
of :class:`repro.semiring.faq.AggregateMaintainer`: mutate the
database's relations (``add`` / ``discard``), then call
:meth:`count` — the maintainer folds each relation's net delta
(:meth:`repro.db.columnar.ColumnarRelation.delta_since`) into its
per-node messages as O(depth) group-merges per updated tuple, instead
of recomputing the whole message passing.  Deletions fold as negated
deltas (counting is a ring).  When a relation's delta history is gone
(compaction after many updates, or a bulk rewrite) it falls back to
one full rebuild, which is exactly the regime where incremental
repair would not have been cheaper.
"""

from __future__ import annotations

from typing import Optional

from repro.db.database import Database
from repro.hypergraph.jointree import JoinTree
from repro.query.cq import ConjunctiveQuery
from repro.semiring.faq import AggregateMaintainer
from repro.semiring.semirings import COUNTING


class AcyclicCountMaintainer:
    """Maintain |q(D)| for an acyclic join query on the columnar backend."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        tree: Optional[JoinTree] = None,
    ) -> None:
        self._aggregate = AggregateMaintainer(
            query, db, COUNTING, tree=tree
        )

    def count(self) -> int:
        """The current number of answers (resynchronizing first)."""
        return self._aggregate.value()

    def refresh(self) -> None:
        """Fold pending relation deltas in without reading the count."""
        self._aggregate.refresh()

    @property
    def rebuilds(self) -> int:
        """Full rebuilds performed (incremental-path misses)."""
        return self._aggregate.rebuilds


def maintained_count(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[JoinTree] = None,
) -> Optional[AcyclicCountMaintainer]:
    """An :class:`AcyclicCountMaintainer` when one is admissible, else None.

    Encapsulates the applicability check: incremental count
    maintenance requires an acyclic *join* query over a columnar
    database whose relations share one dictionary.  Projected, cyclic,
    or python-backed inputs return ``None`` and the caller counts by
    recomputation instead.  (The engine does not call this: a prepared
    free-connex query reads its count off the root of the counted
    layered tree it pages from, :mod:`repro.direct_access.lex`.)
    """
    if not query.is_join_query():
        return None
    try:
        return AcyclicCountMaintainer(query, db, tree=tree)
    except ValueError:
        # Cyclic hypergraph (no join tree) or non-columnar relations.
        return None
