"""Theorem 3.5: hyperclique finding embeds into Loomis–Whitney queries.

Given a (k-1)-uniform hypergraph H on n vertices, let R contain every
permutation of every edge.  Setting all of q^LW_k's relations to R,
the query is true iff H has a hyperclique of size k:

- a hyperclique {v1..vk} satisfies every atom (each (k-1)-subset is an
  edge, in the order the atom requests);
- conversely an answer must use k pairwise distinct values (tuples of
  R have distinct entries), whose every (k-1)-subset is an edge.

|R| ≤ (k-1)! · |E| ≤ (k-1)! · n^{k-1}, so an Õ(m^{1+1/(k-1)-ε})
algorithm for q^LW_k would decide hypercliques in Õ(n^{k-(k-1)ε}),
contradicting the Hyperclique Hypothesis.
"""

from __future__ import annotations

from itertools import permutations
from typing import FrozenSet, Iterable, Set, Tuple

from repro.db.database import Database
from repro.query.catalog import loomis_whitney_query
from repro.query.cq import ConjunctiveQuery
from repro.solvers.hyperclique import normalize_hypergraph


def permutation_relation(
    edges: Iterable[Iterable], h: int
) -> Set[Tuple]:
    """All orderings of all edges of an h-uniform hypergraph."""
    edge_set = normalize_hypergraph(edges, h)
    rows: Set[Tuple] = set()
    for edge in edge_set:
        for perm in permutations(sorted(edge, key=repr)):
            rows.add(perm)
    return rows


class HypercliqueToLoomisWhitney:
    """The Theorem 3.5 reduction for one fixed k."""

    def __init__(self, k: int) -> None:
        if k < 4:
            # The theorem is stated for k > 4 (below that, triangle
            # hardness applies instead); structurally the reduction
            # needs k >= 4 so that edges have size >= 3.
            raise ValueError("the hyperclique reduction needs k >= 4")
        self.k = k
        self.query: ConjunctiveQuery = loomis_whitney_query(k, boolean=True)

    def build_database(self, edges: Iterable[Iterable]) -> Database:
        """Every LW relation gets the permutation closure of the edges."""
        rows = permutation_relation(edges, self.k - 1)
        db = Database()
        for atom in self.query.atoms:
            db.ensure_relation(atom.relation, self.k - 1).add_all(rows)
        return db

    def decide_hyperclique(
        self, edges: Iterable[Iterable], evaluator=None
    ) -> bool:
        """Is there a hyperclique of size k, via the LW query?"""
        if evaluator is None:
            from repro.joins.generic_join import generic_join_boolean

            evaluator = generic_join_boolean
        return evaluator(self.query, self.build_database(edges))
