"""Triangle finding in plain graphs (the source problem of Hypothesis 2).

Graphs are :class:`networkx.Graph` instances (undirected, simple).
:func:`has_triangle_ayz` routes through the database-level AYZ
implementation of Theorem 3.2 by instantiating the triangle query with
every relation equal to the (symmetrized) edge set — the canonical
self-reduction the paper uses throughout Section 3.1.1.
"""

from __future__ import annotations

from typing import Optional, Tuple

import networkx as nx

from repro.db.database import Database
from repro.joins.triangle import triangle_boolean_ayz, triangle_boolean_naive


def graph_as_triangle_database(graph: nx.Graph) -> Database:
    """The q△ database with R1 = R2 = R3 = symmetrized edge set."""
    pairs = set()
    for u, v in graph.edges():
        if u == v:
            continue  # self-loops can never be part of a triangle here
        pairs.add((u, v))
        pairs.add((v, u))
    db = Database()
    for name in ("R1", "R2", "R3"):
        db.ensure_relation(name, 2).add_all(pairs)
    return db


def has_triangle_naive(graph: nx.Graph) -> bool:
    """Neighbor-intersection scan over edges; no matrix multiplication."""
    return triangle_boolean_naive(graph_as_triangle_database(graph))


def has_triangle_ayz(
    graph: nx.Graph, backend: str = "numpy", omega: float = 3.0
) -> bool:
    """Theorem 3.2's Õ(m^{2ω/(ω+1)}) algorithm on a plain graph."""
    return triangle_boolean_ayz(
        graph_as_triangle_database(graph), backend=backend, omega=omega
    )


def find_triangle_naive(
    graph: nx.Graph,
) -> Optional[Tuple[object, object, object]]:
    """A witness triangle (or None), by direct neighbor intersection."""
    adjacency = {v: set(graph.neighbors(v)) - {v} for v in graph.nodes()}
    for u, v in graph.edges():
        if u == v:
            continue
        common = adjacency[u] & adjacency[v]
        common.discard(u)
        common.discard(v)
        if common:
            return (u, v, min(common, key=repr))
    return None
