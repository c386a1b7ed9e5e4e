"""Clique embeddings (paper Section 4.2, Example 4.2/4.3, Figure 1).

A clique embedding ψ of K_ℓ into a query hypergraph H maps every
clique vertex x to a *connected* non-empty set ψ(x) of query variables
(property 1) such that every pair x ≠ y either overlaps
(ψ(x) ∩ ψ(y) ≠ ∅) or *touches* a common atom (some edge e intersects
both) (property 2).

From ψ and a (weighted) graph G one builds a database in which every
answer of the query corresponds to an ℓ-clique of G: a variable v
carries one G-vertex for every clique vertex x with v ∈ ψ(x); atom
relations enforce (a) consistency — variables sharing a clique vertex
agree on its G-vertex — and (b) adjacency for every pair of clique
vertices touching the atom.  The database has O(n^{d(e)}) tuples per
atom, where the *edge depth* d(e) counts the clique vertices touching
``e``; so an Õ(m^{ℓ/max_e d(e) - ε}) evaluation/aggregation algorithm
for the query would beat n^ℓ for the clique problem.  The ratio
ℓ / max-depth is (a lower bound on) the query's clique embedding power
of [41].

With the tropical semiring and edge weights, aggregating the query
solves Min-Weight-ℓ-Clique (Example 4.3): every K_ℓ edge is charged to
exactly one responsible atom, whose tuples carry the corresponding
G-edge weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.db.database import Database
from repro.query.catalog import cycle_query
from repro.query.cq import ConjunctiveQuery
from repro.semiring.faq import aggregate_generic
from repro.semiring.semirings import MIN_PLUS

EdgeWeights = Mapping[FrozenSet, float]


@dataclass(frozen=True)
class CliqueEmbedding:
    """ψ: vertices of K_ℓ → connected variable sets of a query."""

    query: ConjunctiveQuery
    psi: Tuple[FrozenSet[str], ...]  # psi[i] = ψ(x_{i+1})

    @property
    def clique_size(self) -> int:
        return len(self.psi)

    def validate(self) -> None:
        """Check properties (1) and (2) of Section 4.2."""
        hypergraph = self.query.hypergraph()
        for i, block in enumerate(self.psi):
            if not block:
                raise ValueError(f"ψ(x{i + 1}) is empty")
            stray = block - hypergraph.vertices
            if stray:
                raise ValueError(
                    f"ψ(x{i + 1}) mentions unknown variables {stray}"
                )
            induced = hypergraph.induced(block)
            if not induced.is_connected():
                raise ValueError(
                    f"ψ(x{i + 1}) = {sorted(block)} is not connected"
                )
        for i, j in combinations(range(len(self.psi)), 2):
            if self.psi[i] & self.psi[j]:
                continue
            touches = any(
                edge & self.psi[i] and edge & self.psi[j]
                for edge in hypergraph.edges
            )
            if not touches:
                raise ValueError(
                    f"pair (x{i + 1}, x{j + 1}) neither overlaps nor "
                    "touches a common atom (property 2 violated)"
                )

    # ------------------------------------------------------------------
    # accounting (the three quantities the paper lists)
    # ------------------------------------------------------------------
    def touching(self, edge: FrozenSet[str]) -> List[int]:
        """Indices of clique vertices whose ψ-set intersects the edge."""
        return [
            i for i, block in enumerate(self.psi) if block & edge
        ]

    def edge_depths(self) -> Dict[int, int]:
        """d(e) per atom index: clique vertices mapped into the atom."""
        return {
            index: len(self.touching(atom.scope))
            for index, atom in enumerate(self.query.atoms)
        }

    def max_edge_depth(self) -> int:
        return max(self.edge_depths().values())

    def power_lower_bound(self) -> float:
        """ℓ / max_e d(e): the exponent this embedding certifies.

        An Õ(m^{p - ε}) algorithm for the query, p = ℓ/max-depth,
        would solve the ℓ-clique problem in Õ(n^{ℓ - ε·max_depth}).
        """
        return self.clique_size / self.max_edge_depth()

    # ------------------------------------------------------------------
    # database construction
    # ------------------------------------------------------------------
    def build_database(
        self,
        graph: nx.Graph,
        weights: Optional[EdgeWeights] = None,
    ):
        """The clique-checking database (and per-atom tuple weights).

        Returns ``(db, weight_fn)`` where ``weight_fn(atom_index, row)``
        gives the tropical weight of a frame row (0 when ``weights`` is
        None).  Each K_ℓ edge is charged to the first atom touching
        both endpoints, so answer weights are exactly clique weights.
        """
        vertices = sorted(graph.nodes(), key=repr)
        responsible: Dict[int, List[Tuple[int, int]]] = {}
        for i, j in combinations(range(self.clique_size), 2):
            for index, atom in enumerate(self.query.atoms):
                if atom.scope & self.psi[i] and atom.scope & self.psi[j]:
                    responsible.setdefault(index, []).append((i, j))
                    break
            else:  # pragma: no cover - validate() prevents this
                raise AssertionError("unchecked clique pair")

        db = Database()
        weight_tables: Dict[int, Dict[Tuple, float]] = {}
        for index, atom in enumerate(self.query.atoms):
            scope_vars = list(dict.fromkeys(atom.variables))
            touch = self.touching(atom.scope)
            rows: List[Tuple] = []
            table: Dict[Tuple, float] = {}
            for choice in product(vertices, repeat=len(touch)):
                assignment = dict(zip(touch, choice))
                ok = True
                for a_pos in range(len(touch)):
                    for b_pos in range(a_pos + 1, len(touch)):
                        u = assignment[touch[a_pos]]
                        v = assignment[touch[b_pos]]
                        if u == v or not graph.has_edge(u, v):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                # The value of variable v is the tuple of coordinates
                # for the clique vertices v represents.
                row = tuple(
                    self._variable_value(var, assignment)
                    for var in atom.variables
                )
                rows.append(row)
                if weights is not None:
                    charged = 0.0
                    for (i, j) in responsible.get(index, ()):
                        charged += weights[
                            frozenset((assignment[i], assignment[j]))
                        ]
                    key = tuple(
                        self._variable_value(var, assignment)
                        for var in scope_vars
                    )
                    table[key] = charged
            db.ensure_relation(atom.relation, atom.arity).add_all(rows)
            weight_tables[index] = table

        def weight_fn(atom_index: int, frame_row: Tuple) -> float:
            if weights is None:
                return 0.0
            return weight_tables[atom_index].get(frame_row, 0.0)

        return db, weight_fn

    def _variable_value(
        self, variable: str, assignment: Dict[int, object]
    ) -> Tuple:
        """A variable's domain value: coordinates of the clique
        vertices it represents, in clique-vertex order."""
        carried = [
            i
            for i, block in enumerate(self.psi)
            if variable in block and i in assignment
        ]
        return tuple((i, assignment[i]) for i in carried)

    # ------------------------------------------------------------------
    # end-to-end solvers
    # ------------------------------------------------------------------
    def has_clique(self, graph: nx.Graph, evaluator=None) -> bool:
        """Is there an ℓ-clique, decided through the query?"""
        if evaluator is None:
            from repro.joins.generic_join import generic_join_boolean

            evaluator = generic_join_boolean
        db, _ = self.build_database(graph)
        return evaluator(self.query.as_boolean(), db)

    def min_weight_clique(
        self, graph: nx.Graph, weights: EdgeWeights
    ) -> float:
        """Min-Weight-ℓ-Clique by tropical aggregation (Example 4.3).

        Returns ``math.inf`` when no ℓ-clique exists.
        """
        db, weight_fn = self.build_database(graph, weights)
        query = self.query.as_join_query()
        return aggregate_generic(query, db, MIN_PLUS, weight_fn)


def example_5cycle_embedding() -> CliqueEmbedding:
    """Example 4.2: K5 into the 5-cycle query, each ψ(x_i) a 3-arc."""
    query = cycle_query(5)
    variables = [f"v{i}" for i in range(1, 6)]
    psi = []
    for i in range(5):
        block = frozenset(
            variables[(i + offset) % 5] for offset in range(3)
        )
        psi.append(block)
    embedding = CliqueEmbedding(query=query, psi=tuple(psi))
    embedding.validate()
    return embedding


def figure1_ascii() -> str:
    """Regenerate Figure 1 (the Example 4.2 embedding) as ASCII art."""
    embedding = example_5cycle_embedding()
    lines = [
        "Figure 1: embedding of K5 into the 5-cycle query q°5.",
        "Each node vi lists the K5 vertices mapped onto it.",
        "",
    ]
    members: Dict[str, List[str]] = {f"v{i}": [] for i in range(1, 6)}
    for index, block in enumerate(embedding.psi, start=1):
        for variable in sorted(block):
            members[variable].append(f"x{index}")
    layout = [
        "            v1 : {v1}",
        "           /          \\",
        "  v5 : {v5}            v2 : {v2}",
        "      |                   |",
        "  v4 : {v4} ---------- v3 : {v3}",
    ]
    formatted = {
        key: ",".join(value) for key, value in members.items()
    }
    for template in layout:
        lines.append(
            template.format(
                v1=formatted["v1"],
                v2=formatted["v2"],
                v3=formatted["v3"],
                v4=formatted["v4"],
                v5=formatted["v5"],
            )
        )
    return "\n".join(lines)
