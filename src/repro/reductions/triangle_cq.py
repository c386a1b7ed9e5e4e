"""Proposition 3.3: triangle finding embeds into every cyclic
graphlike Boolean query.

Given a cyclic, self-join free Boolean conjunctive query whose atoms
all have arity ≤ 2, and a graph G = (V, E), the reduction constructs a
database D of size O(|E| + |V|) with ``D ⊨ q  iff  G has a triangle``:

- fix an induced cycle of the query (it exists by cyclicity; we take
  the Brault-Baron witness);
- three atoms on the cycle receive the (symmetrized) edge relation E,
  the remaining cycle atoms the equality relation on V — so the cycle
  contracts to a triangle;
- atoms touching the cycle in one variable pin the other variable to a
  dummy value d via V × {d}; atoms disjoint from the cycle get {(d,d)}.

Hence a linear-time evaluator for q would give a linear-time triangle
detector, contradicting the Triangle Hypothesis.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

import networkx as nx

from repro.db.database import Database
from repro.hypergraph.structure import find_hard_substructure
from repro.query.cq import ConjunctiveQuery

DUMMY = ("dummy", 0)


class TriangleToCyclicCQ:
    """The Proposition 3.3 reduction for one fixed target query."""

    def __init__(self, query: ConjunctiveQuery) -> None:
        if query.arity_bound() > 2:
            raise ValueError(
                "Proposition 3.3 applies to arity-2 (graphlike) queries"
            )
        if not query.is_self_join_free():
            raise ValueError("Proposition 3.3 requires self-join freeness")
        hypergraph = query.hypergraph()
        witness = find_hard_substructure(hypergraph)
        if witness is None:
            raise ValueError(
                f"query {query.name} is acyclic; nothing to embed into"
            )
        if witness.kind != "cycle":
            raise AssertionError(
                "arity-2 hypergraphs always yield cycle witnesses"
            )  # pragma: no cover - graphlike queries cannot reach this
        self.query = query
        self.cycle: Tuple[str, ...] = witness.cycle_order
        cycle_pairs = set()
        length = len(self.cycle)
        for i in range(length):
            cycle_pairs.add(
                frozenset((self.cycle[i], self.cycle[(i + 1) % length]))
            )
        # Pick three distinct cycle *edges* to carry E; equality
        # contracts the rest, so any three work — take the first three
        # in cycle order for determinism.
        self.edge_atoms: Set[int] = set()
        carriers = [
            frozenset((self.cycle[i], self.cycle[(i + 1) % length]))
            for i in range(3)
        ]
        carrier_set = set(carriers)
        self._atom_roles: Dict[int, str] = {}
        for index, atom in enumerate(query.atoms):
            scope = atom.scope
            on_cycle = scope & set(self.cycle)
            if len(scope) == 2 and scope in cycle_pairs:
                role = "edge" if scope in carrier_set else "equality"
            elif len(on_cycle) == len(scope):  # unary atom on the cycle
                role = "cycle-unary"
            elif on_cycle:
                role = "half-dummy"
            else:
                role = "dummy"
            self._atom_roles[index] = role

    # ------------------------------------------------------------------
    def build_database(self, graph: nx.Graph) -> Database:
        """The database D with D ⊨ q iff the graph has a triangle."""
        vertices = list(graph.nodes())
        edges: Set[Tuple] = set()
        for u, v in graph.edges():
            if u == v:
                continue
            edges.add((u, v))
            edges.add((v, u))
        equality = {(v, v) for v in vertices}
        db = Database()
        cycle_set = set(self.cycle)
        for index, atom in enumerate(self.query.atoms):
            role = self._atom_roles[index]
            rel = db.ensure_relation(atom.relation, atom.arity)
            if role == "edge":
                rel.add_all(edges)
            elif role == "equality":
                rel.add_all(equality)
            elif role == "cycle-unary":
                # All positions carry the same cycle variable (e.g. the
                # repeated-variable atom R(x, x)): the diagonal over V.
                rel.add_all(
                    tuple(v for _ in atom.variables) for v in vertices
                )
            elif role == "half-dummy":
                rows = []
                for v in vertices:
                    rows.append(
                        tuple(
                            v if var in cycle_set else DUMMY
                            for var in atom.variables
                        )
                    )
                rel.add_all(rows)
            else:  # dummy
                rel.add((DUMMY,) * atom.arity)
        return db

    def decide_triangle(self, graph: nx.Graph, evaluator=None) -> bool:
        """Decide triangle-freeness through the target query.

        ``evaluator(query, db) -> bool`` defaults to the generic
        worst-case-optimal Boolean evaluator.
        """
        if evaluator is None:
            from repro.joins.generic_join import generic_join_boolean

            evaluator = generic_join_boolean
        return evaluator(self.query, self.build_database(graph))


def database_size_blowup(
    query: ConjunctiveQuery, graph: nx.Graph
) -> Tuple[int, int]:
    """(graph size, database size): the reduction's linear accounting.

    Returns (|V| + |E|, size(D)); the proof needs size(D) = O(|V|+|E|)
    per atom, which the benchmark asserts.
    """
    reduction = TriangleToCyclicCQ(query)
    db = reduction.build_database(graph)
    return (
        graph.number_of_nodes() + graph.number_of_edges(),
        db.size(),
    )
