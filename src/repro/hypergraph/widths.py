"""Fractional edge covers, the AGM exponent, and independent sets.

The AGM bound (Atserias–Grohe–Marx, paper Section 2.1) says the result
of a join query is at most ``m^{ρ*}`` where ``ρ*`` is the optimal value
of the fractional edge cover LP:

    minimize   Σ_e x_e
    subject to Σ_{e ∋ v} x_e ≥ 1   for every vertex v,
               x_e ≥ 0.

``ρ*`` is also the exponent a worst-case-optimal join runs in.  For the
triangle query ρ* = 3/2 — the `m^{3/2}` of Section 3.1.1; for the
Loomis–Whitney query LW_k it is k/(k-1) — the `m^{1+1/(k-1)}` of
Example 3.4.

Also here: maximum independent sets (no edge contains two chosen
vertices) and minimum integral edge covers, equal for acyclic
hypergraphs ([39, Lemma 19], used by Theorem 3.26 and the star-size
computation).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.hypergraph.hypergraph import Hypergraph


def fractional_edge_cover(
    hypergraph: Hypergraph,
    subset: Optional[Iterable[str]] = None,
) -> Tuple[float, Dict[int, float]]:
    """Solve the fractional edge cover LP.

    Covers ``subset`` (default: all vertices that occur in some edge)
    using the hypergraph's edges.  Returns ``(value, weights)`` where
    ``weights`` maps edge indices to their LP weight.

    Raises :class:`ValueError` when some requested vertex lies in no
    edge (the LP is then infeasible).
    """
    to_cover = (
        frozenset(subset)
        if subset is not None
        else hypergraph.vertices - hypergraph.isolated_vertices
    )
    if not to_cover:
        return 0.0, {}
    edges = hypergraph.edges
    if not edges:
        raise ValueError("cannot cover vertices with no edges")
    for v in to_cover:
        if not any(v in e for e in edges):
            raise ValueError(f"vertex {v!r} occurs in no edge; LP infeasible")
    vertex_list = sorted(to_cover)
    # linprog solves min c·x s.t. A_ub x <= b_ub; coverage constraints
    # Σ_{e∋v} x_e >= 1 become -Σ x_e <= -1.
    a_ub = np.zeros((len(vertex_list), len(edges)))
    for i, v in enumerate(vertex_list):
        for j, e in enumerate(edges):
            if v in e:
                a_ub[i, j] = -1.0
    b_ub = -np.ones(len(vertex_list))
    c = np.ones(len(edges))
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"edge cover LP failed: {result.message}")
    weights = {
        j: float(w) for j, w in enumerate(result.x) if w > 1e-12
    }
    return float(result.fun), weights


def agm_exponent(hypergraph: Hypergraph) -> float:
    """The AGM exponent ρ*: output (and WCOJ runtime) is Õ(m^{ρ*})."""
    value, _ = fractional_edge_cover(hypergraph)
    return value


def agm_bound(hypergraph: Hypergraph, m: int) -> float:
    """The numeric AGM output-size bound ``m^{ρ*}``."""
    if m < 0:
        raise ValueError("database size must be non-negative")
    if m == 0:
        return 0.0
    return float(m) ** agm_exponent(hypergraph)


def max_independent_set(
    hypergraph: Hypergraph, candidates: Optional[Iterable[str]] = None
) -> FrozenSet[str]:
    """A maximum independent set among ``candidates`` (default: all).

    Independence is w.r.t. the primal graph: no edge may contain two
    chosen vertices.  Exact branch-and-bound over the candidate set —
    exponential, but query hypergraphs are small by assumption.
    """
    pool = sorted(
        frozenset(candidates) if candidates is not None else hypergraph.vertices
    )
    adjacency = hypergraph.primal_graph()
    best: Tuple[str, ...] = ()

    def extend(chosen: List[str], rest: List[str]) -> None:
        nonlocal best
        if len(chosen) + len(rest) <= len(best):
            return
        if not rest:
            if len(chosen) > len(best):
                best = tuple(chosen)
            return
        head, *tail = rest
        # Branch 1: take head, dropping its neighbors.
        compatible = [v for v in tail if v not in adjacency[head]]
        extend(chosen + [head], compatible)
        # Branch 2: skip head.
        extend(chosen, tail)

    extend([], pool)
    return frozenset(best)


def integral_edge_cover_number(
    hypergraph: Hypergraph, subset: Optional[Iterable[str]] = None
) -> int:
    """Minimum number of edges covering ``subset`` (default: all).

    Exact search by branching on an uncovered vertex.  For acyclic
    hypergraphs this equals the maximum independent set size
    ([39, Lemma 19]); a property test checks that equality.
    """
    to_cover = (
        frozenset(subset)
        if subset is not None
        else hypergraph.vertices - hypergraph.isolated_vertices
    )
    if not to_cover:
        return 0
    edges = sorted(hypergraph.distinct_edges, key=lambda e: (-len(e), sorted(e)))
    for v in to_cover:
        if not any(v in e for e in edges):
            raise ValueError(f"vertex {v!r} occurs in no edge; no cover exists")
    best = len(edges) + 1

    def search(uncovered: FrozenSet[str], used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if not uncovered:
            best = used
            return
        pivot = min(uncovered)
        for edge in edges:
            if pivot in edge:
                search(uncovered - edge, used + 1)

    search(to_cover, 0)
    return best
