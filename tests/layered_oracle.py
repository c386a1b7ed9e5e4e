"""The exhaustive layered-tree search, kept as a test oracle.

Join trees of an acyclic hypergraph are the maximum-weight spanning
trees of its intersection graph (edge weight = separator size;
Bernstein–Goodman).  :func:`exhaustive_layered_tree` enumerates them
with networkx in decreasing weight, keeps the valid join trees, and
lays out every rooting with the library's own layering check
(:func:`repro.direct_access.layered._try_layout`).  Exponential in the
number of bags, so only the tests call it, on small families; the
library builds its tree in one pass along the order instead
(:func:`repro.direct_access.layered.find_layered_tree`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

import networkx as nx

from repro.direct_access.layered import LayeredTree, _try_layout
from repro.hypergraph.jointree import JoinTree

MAX_TREES_PER_COMPONENT = 2000


def candidate_join_trees(
    bags: Dict[int, FrozenSet[str]],
) -> List[JoinTree]:
    """All join trees/forests of an acyclic bag family (small inputs).

    Per connected component of the intersection graph, spanning trees
    are enumerated in decreasing weight; once a valid join tree is
    found, enumeration stops at the first strictly lighter tree (valid
    join trees all have maximum weight).  Components are then combined.
    """
    nodes = sorted(bags)
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for i in nodes:
        for j in nodes:
            if i < j and bags[i] & bags[j]:
                graph.add_edge(i, j, weight=len(bags[i] & bags[j]))

    component_options: List[List[Dict[int, int]]] = []
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component).copy()
        if sub.number_of_nodes() == 1:
            component_options.append([{}])
            continue
        options: List[Dict[int, int]] = []
        valid_weight: Optional[int] = None
        count = 0
        for tree in nx.SpanningTreeIterator(sub, weight="weight", minimum=False):
            count += 1
            if count > MAX_TREES_PER_COMPONENT:
                break
            weight = sum(d["weight"] for _, _, d in tree.edges(data=True))
            if valid_weight is not None and weight < valid_weight:
                break
            root = min(tree.nodes)
            parent: Dict[int, int] = {
                child: par for child, par in nx.bfs_predecessors(tree, root)
            }
            candidate = JoinTree(
                bags={n: bags[n] for n in tree.nodes}, parent=parent
            )
            try:
                candidate.validate()
            except ValueError:
                continue
            valid_weight = weight
            options.append(parent)
        if not options:
            return []
        component_options.append(options)

    results: List[JoinTree] = []

    def build(index: int, merged: Dict[int, int]) -> None:
        if index == len(component_options):
            results.append(JoinTree(bags=dict(bags), parent=dict(merged)))
            return
        for option in component_options[index]:
            merged.update(option)
            build(index + 1, merged)
            for key in option:
                del merged[key]

    build(0, {})
    return results


def rootings(tree: JoinTree) -> List[Dict[int, Optional[int]]]:
    """All rooted orientations of a join forest (one root per tree)."""
    adjacency: Dict[int, List[int]] = {n: [] for n in tree.bags}
    for child, par in tree.parent.items():
        adjacency[child].append(par)
        adjacency[par].append(child)
    seen: set = set()
    components: List[List[int]] = []
    for start in sorted(tree.bags):
        if start in seen:
            continue
        stack = [start]
        component: List[int] = []
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            component.append(node)
            stack.extend(adjacency[node])
        components.append(sorted(component))

    per_component: List[List[Dict[int, Optional[int]]]] = []
    for component in components:
        options: List[Dict[int, Optional[int]]] = []
        for root in component:
            parent: Dict[int, Optional[int]] = {root: None}
            stack = [root]
            visited = {root}
            while stack:
                node = stack.pop()
                for nbr in adjacency[node]:
                    if nbr not in visited:
                        visited.add(nbr)
                        parent[nbr] = node
                        stack.append(nbr)
            options.append(parent)
        per_component.append(options)

    results: List[Dict[int, Optional[int]]] = []

    def build(index: int, merged: Dict[int, Optional[int]]) -> None:
        if index == len(per_component):
            results.append(dict(merged))
            return
        for option in per_component[index]:
            merged.update(option)
            build(index + 1, merged)

    build(0, {})
    return results


def exhaustive_layered_tree(
    bags: Dict[int, FrozenSet[str]],
    variable_order: Sequence[str],
) -> Optional[LayeredTree]:
    """The first layout any (valid join tree, rooting) pair admits."""
    for tree in candidate_join_trees(bags):
        for rooting in rootings(tree):
            layered = _try_layout(dict(bags), rooting, list(variable_order))
            if layered is not None:
                return layered
    return None
