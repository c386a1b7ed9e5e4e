"""Free-connex acyclicity (Bagan–Durand–Grandjean, paper Section 3.2/3.3).

An acyclic conjunctive query with hypergraph ``H`` and free variables
``S`` is *free-connex* when ``H ∪ {S}`` — the hypergraph obtained by
adding ``S`` itself as an edge — is also acyclic.  Free-connexness is
the dividing line of three dichotomies in the paper:

- linear-time counting (Theorem 3.13),
- constant-delay enumeration after linear preprocessing (Theorem 3.17),
- direct access with linear preprocessing (Theorem 3.18 / Cor. 3.22).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Tuple

from repro.hypergraph.gyo import is_acyclic, join_tree
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree
from repro.query.cq import ConjunctiveQuery


def is_free_connex_hypergraph(
    hypergraph: Hypergraph, free: Iterable[str]
) -> bool:
    """Is the pair ``(H, S)`` free-connex acyclic?

    Requires ``H`` itself to be acyclic *and* ``H ∪ {S}`` to be acyclic.
    Boolean heads (``S`` empty) and full heads (``S`` = all vertices)
    are free-connex whenever ``H`` is acyclic.
    """
    free_set = frozenset(free)
    if not is_acyclic(hypergraph):
        return False
    return is_acyclic(hypergraph.with_extra_edge(free_set))


def is_free_connex(query: ConjunctiveQuery) -> bool:
    """Is the query free-connex acyclic?"""
    return is_free_connex_hypergraph(
        query.hypergraph(), query.free_variables
    )


def free_connex_join_tree(query: ConjunctiveQuery) -> Tuple[JoinTree, int]:
    """A join tree of ``H ∪ {S}`` rooted at the virtual ``S`` node.

    Returns ``(tree, s_node)`` where ``s_node`` is the id of the extra
    node whose bag is exactly the free variables.  The subtree structure
    under the S-node is what the free-connex counting and enumeration
    algorithms traverse: every atom's projection onto the free variables
    hangs below a bag that already covers it.

    Raises :class:`ValueError` when the query is not free-connex.
    """
    hypergraph = query.hypergraph()
    free_set = frozenset(query.free_variables)
    extended = hypergraph.with_extra_edge(free_set)
    if not is_acyclic(extended):
        raise ValueError(f"query {query.name} is not free-connex")
    if not free_set:
        # with_extra_edge drops the empty edge; fall back to a plain
        # join tree of the body with a synthetic empty root.
        tree = join_tree(hypergraph)
        s_node = len(hypergraph.edges)
        bags = dict(tree.bags)
        bags[s_node] = frozenset()
        parent = dict(tree.parent)
        for root in tree.roots:
            parent[root] = s_node
        return JoinTree(bags=bags, parent=parent), s_node
    tree = join_tree(extended)
    s_node = len(hypergraph.edges)  # the extra edge is appended last
    tree = tree.rooted_at(s_node)
    # The S component now hangs under s_node; attach any other
    # components (disconnected body parts, necessarily disjoint from S)
    # below it as well so traversals see a single tree.
    parent = dict(tree.parent)
    for root in tree.roots:
        if root != s_node:
            parent[root] = s_node
    return JoinTree(bags=dict(tree.bags), parent=parent), s_node


def head_path_violation(
    query: ConjunctiveQuery,
) -> Optional[Tuple[str, str, Tuple[str, ...]]]:
    """A certificate of non-free-connexness for acyclic queries.

    Searches for two free variables ``x, z`` that share no atom but are
    linked by a path of existential variables — the pattern that lets
    the q*_2 query (and hence the BMM/testing lower bounds of Theorems
    3.12/3.15/3.16) be embedded.  Returns ``(x, z, path)`` with ``path``
    the existential bridge, or ``None`` when no such pair exists.

    This is a *witness helper* for the reductions, not the free-connex
    decision procedure (that is :func:`is_free_connex`).
    """
    hypergraph = query.hypergraph()
    free_set = frozenset(query.free_variables)
    adjacency = hypergraph.primal_graph()
    free_list = sorted(free_set)
    for i, x in enumerate(free_list):
        for z in free_list[i + 1 :]:
            if any(x in e and z in e for e in hypergraph.edges):
                continue
            path = _existential_path(adjacency, free_set, x, z)
            if path is not None:
                return (x, z, tuple(path))
    return None


def _existential_path(adjacency, free_set, source, target):
    """Shortest path from source to target via existential vertices only."""
    from collections import deque

    queue = deque([(source, ())])
    seen = {source}
    while queue:
        node, path = queue.popleft()
        for nbr in sorted(adjacency[node]):
            if nbr == target:
                return list(path)
            if nbr in seen or nbr in free_set:
                continue
            seen.add(nbr)
            queue.append((nbr, path + (nbr,)))
    return None


def free_variable_bags(
    query: ConjunctiveQuery,
) -> "dict[int, FrozenSet[str]]":
    """The bag family of the reduced join query over the free variables.

    This is the database-free counterpart of
    :func:`repro.joins.fc_reduce.free_connex_reduce`: for a free-connex
    query it returns exactly the variable sets of the frames the
    reduction would produce (children of the virtual ``S`` node of
    :func:`free_connex_join_tree`, intersected with the head; subtrees
    carrying no free variable are skipped).  The engine planner
    (:mod:`repro.engine`) feeds this family to
    :func:`repro.direct_access.layered.find_layered_tree` (one pass
    along the order) to decide, *before touching any data*, whether a
    lexicographic order admits the Õ(log m)-access structure of
    Theorem 3.24 over one node per bag, and reads its own order off a
    join forest of the family when the head does not — the check agrees
    with what :class:`repro.direct_access.lex.LexDirectAccess` will
    find at build time because both derive the same bag family.

    Raises :class:`ValueError` for non-free-connex or Boolean queries.
    """
    if query.is_boolean():
        raise ValueError("Boolean queries have no free variables to bag")
    extended_tree, s_node = free_connex_join_tree(query)
    free = frozenset(query.free_variables)
    bags: "dict[int, FrozenSet[str]]" = {}
    for index, child in enumerate(extended_tree.children(s_node)):
        scope = extended_tree.bags[child] & free
        if scope:
            bags[index] = frozenset(scope)
    return bags
