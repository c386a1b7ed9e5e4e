"""Lemma 3.9: k'-Dominating-Set embeds into counting star queries.

For the star query q*_k and a DS budget k' divisible by k (block size
b = k'/k), the proof builds, from a graph G = (V, E), the relation

    R := {(u⃗, v) : v ∈ V, u⃗ ∈ V^b, ∀i: u_i·v ∉ E and u_i ≠ v}

of arity b + 1, i.e. "v is *not* dominated by any vertex of the
block".  An answer of the (blocked) star query is a choice of k blocks
together with an existential witness v that none of the k'·chosen
vertices dominates — so the answers are exactly the non-dominating
choices, and

    G has a dominating set of size ≤ k'  ⟺  count < n^{k'}.

|R| ≤ n^{b+1}, so counting q*_k in O(m^{k-ε}) would put k'-DS in
O(n^{k'-ε'}), contradicting SETH via Theorem 3.10.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import networkx as nx

from repro.db.database import Database
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery


def blocked_star_query(k: int, block: int) -> ConjunctiveQuery:
    """q*_k with arity-(block+1) atoms: R(x_{i,1},...,x_{i,b}, z).

    ``block = 1`` recovers the plain star query q*_k (up to variable
    naming).  All atoms share the symbol R — the self-join form the
    lemma uses.
    """
    if k < 1 or block < 1:
        raise ValueError("k and block must be positive")
    head: List[str] = []
    atoms = []
    for i in range(1, k + 1):
        block_vars = [f"x{i}_{j}" for j in range(1, block + 1)]
        head.extend(block_vars)
        atoms.append(Atom("R", tuple(block_vars) + ("z",)))
    return ConjunctiveQuery(tuple(head), tuple(atoms), name=f"q_star{k}b{block}")


class DominatingSetToStarCounting:
    """The Lemma 3.9 reduction: decide k'-DS with a star-count oracle."""

    def __init__(self, k: int, k_prime: int) -> None:
        if k_prime % k != 0:
            raise ValueError("k' must be divisible by k")
        self.k = k
        self.k_prime = k_prime
        self.block = k_prime // k
        self.query = blocked_star_query(k, self.block)

    def build_database(self, graph: nx.Graph) -> Database:
        """The 'not dominated by this block' relation R."""
        from itertools import product

        vertices = sorted(graph.nodes(), key=repr)
        non_dominating: List[Tuple] = []
        closed_neighborhoods = {
            v: {v} | set(graph.neighbors(v)) for v in vertices
        }
        for v in vertices:
            forbidden = closed_neighborhoods[v]
            allowed = [u for u in vertices if u not in forbidden]
            for block_choice in product(allowed, repeat=self.block):
                non_dominating.append(block_choice + (v,))
        db = Database()
        db.ensure_relation("R", self.block + 1).add_all(non_dominating)
        return db

    def has_dominating_set(
        self, graph: nx.Graph, count_oracle=None
    ) -> bool:
        """G has a dominating set of size ≤ k', via answer counting.

        ``count_oracle(query, db) -> int`` defaults to the dispatching
        counter (which, the star query being non-free-connex, takes the
        superlinear brute path — exactly the paper's point).
        """
        if count_oracle is None:
            from repro.counting import count_answers

            count_oracle = count_answers
        db = self.build_database(graph)
        count = count_oracle(self.query, db)
        n = graph.number_of_nodes()
        total_choices = n**self.k_prime
        if count > total_choices:  # pragma: no cover - oracle bug guard
            raise ArithmeticError(
                "oracle counted more answers than possible choices"
            )
        return count < total_choices
