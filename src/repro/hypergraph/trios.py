"""Disruptive trios (paper Section 3.4.1, after Lemma 3.23).

For a join query ``q`` and an order ``⪯`` on its variables, three
variables ``y1, y2, y3`` form a *disruptive trio* when:

- ``y1 ⪯ y3`` and ``y2 ⪯ y3`` (``y3`` comes last among the three),
- the pairs ``(y1, y3)`` and ``(y2, y3)`` each share an atom, and
- ``y1, y2`` share **no** atom.

A disruptive trio lets the hard query ``q̂*_2`` be embedded (the trio
plays x1, x2, z), so by Lemma 3.23 lexicographic direct access in the
order ``⪯`` needs superlinear preprocessing.  Theorem 3.24: a join
query admits linear-preprocessing/polylog-access lexicographic direct
access for ``⪯`` iff it is acyclic and has no disruptive trio for ``⪯``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.query.cq import ConjunctiveQuery


def _first_trio(
    adjacency: Dict[str, Set[str]], order: Sequence[str]
) -> Optional[Tuple[str, str, str]]:
    for k, y3 in enumerate(order):
        neighbors = [y for y in order[:k] if y in adjacency[y3]]
        for i, y1 in enumerate(neighbors):
            for y2 in neighbors[i + 1 :]:
                if y2 not in adjacency[y1]:
                    return (y1, y2, y3)
    return None


def find_disruptive_trio(
    query: ConjunctiveQuery, order: Sequence[str]
) -> Optional[Tuple[str, str, str]]:
    """The lexicographically first disruptive trio, or ``None``.

    ``order`` must list every variable of the query exactly once,
    earliest (most significant) first.  Returns ``(y1, y2, y3)`` with
    ``y3`` the late variable.
    """
    order = tuple(order)
    if set(order) != set(query.variables) or len(order) != len(
        set(order)
    ):
        raise ValueError(
            "order must be a permutation of the query's variables"
        )
    return _first_trio(query.hypergraph().primal_graph(), order)


def has_disruptive_trio(
    query: ConjunctiveQuery, order: Sequence[str]
) -> bool:
    """Does the query have a disruptive trio w.r.t. ``order``?"""
    return find_disruptive_trio(query, order) is not None


def trio_free_order(
    scopes: Iterable[FrozenSet[str]],
) -> Optional[Tuple[str, ...]]:
    """A variable order without a disruptive trio over ``scopes``, if any.

    Maximum-cardinality search on the primal graph: the next variable
    is the one with the most already-placed neighbours (ties by name).
    On a chordal graph every variable's earlier neighbours then form a
    clique (the order is a reversed perfect elimination order), which
    is exactly "no disruptive trio"; if the result has a trio the graph
    is not chordal and no order exists.  Exact, no search.

    The classifier feeds it the atoms' scopes.  A trio-free order may
    still split an atom's block, so the engine planner reads its order
    off a join forest instead (:mod:`repro.engine.planner`).
    """
    scopes = list(scopes)
    adjacency = Hypergraph(
        frozenset().union(*scopes), scopes
    ).primal_graph()
    order: list = []
    placed: Set[str] = set()
    remaining = sorted(adjacency)
    while remaining:
        chosen = max(remaining, key=lambda v: len(adjacency[v] & placed))
        remaining.remove(chosen)
        order.append(chosen)
        placed.add(chosen)
    return None if _first_trio(adjacency, order) else tuple(order)
