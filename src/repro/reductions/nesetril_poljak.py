"""Theorem 4.1 (Nešetřil–Poljak): k-clique via triangle detection.

Split k = r1 + r2 + r3 with near-equal parts.  Build a tripartite
triangle instance whose side-j vertices are the r_j-cliques of G, with
two cliques adjacent iff they are disjoint and their union is again a
clique.  Triangles across the three sides are exactly the k-cliques of
G, so matrix-multiplication-based triangle detection gives the
Õ(n^{ω·k/3}) bound — the reason plain k-Clique is a poor source for
tight lower bounds and the weighted variants (Hypotheses 7/8) exist.

The tripartite instance is produced directly as a q△ database, so the
detection step is literally Theorem 3.2's algorithm.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.db.database import Database
from repro.joins.triangle import triangle_boolean_ayz


def split_k(k: int) -> Tuple[int, int, int]:
    """k as three near-equal positive parts (r1 ≤ r2 ≤ r3)."""
    if k < 3:
        raise ValueError("the reduction needs k >= 3")
    r1 = k // 3
    r2 = (k - r1) // 2
    r3 = k - r1 - r2
    return (r1, r2, r3)


def _cliques_of_size(graph: nx.Graph, size: int) -> List[frozenset]:
    """All cliques with exactly ``size`` vertices (sorted, exhaustive)."""
    adjacency = {v: set(graph.neighbors(v)) - {v} for v in graph.nodes()}
    nodes = sorted(graph.nodes(), key=repr)
    out: List[frozenset] = []

    def extend(clique: List, candidates: List) -> None:
        if len(clique) == size:
            out.append(frozenset(clique))
            return
        for index, v in enumerate(candidates):
            rest = [
                u for u in candidates[index + 1 :] if u in adjacency[v]
            ]
            if len(clique) + 1 + len(rest) >= size:
                extend(clique + [v], rest)

    extend([], nodes)
    return out


def _joinable(
    graph: nx.Graph, left: frozenset, right: frozenset
) -> bool:
    """Disjoint and union is a clique (cross edges all present)."""
    if left & right:
        return False
    return all(
        graph.has_edge(u, v) for u in left for v in right
    )


def build_triangle_database(graph: nx.Graph, k: int) -> Database:
    """The tripartite q△ database whose triangles are G's k-cliques."""
    r1, r2, r3 = split_k(k)
    sides = [
        [("s1", c) for c in _cliques_of_size(graph, r1)],
        [("s2", c) for c in _cliques_of_size(graph, r2)],
        [("s3", c) for c in _cliques_of_size(graph, r3)],
    ]

    def edges(left, right):
        for tag_l, clique_l in left:
            for tag_r, clique_r in right:
                if _joinable(graph, clique_l, clique_r):
                    yield ((tag_l, clique_l), (tag_r, clique_r))

    db = Database()
    db.ensure_relation("R1", 2).add_all(edges(sides[0], sides[1]))
    db.ensure_relation("R2", 2).add_all(edges(sides[1], sides[2]))
    db.ensure_relation("R3", 2).add_all(edges(sides[2], sides[0]))
    return db


def has_k_clique_np(
    graph: nx.Graph,
    k: int,
    backend: str = "numpy",
    omega: float = 3.0,
) -> bool:
    """Theorem 4.1's algorithm end to end.

    Builds the clique-graph triangle instance and runs the AYZ triangle
    algorithm of Theorem 3.2 on it.
    """
    db = build_triangle_database(graph, k)
    if any(db[name].is_empty() for name in ("R1", "R2", "R3")):
        return False
    return triangle_boolean_ayz(db, backend=backend, omega=omega)
