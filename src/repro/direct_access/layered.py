"""Order-compatible ("layered") join trees for lexicographic direct access.

The direct-access algorithm of Theorem 3.24 needs a rooted,
child-ordered join tree whose depth-first preorder spells out the
requested variable order: each node's *own* variables (bag minus the
separator to its parent) must appear as one contiguous block, blocks
following the DFS preorder.  We call such a tree *layered* for the
order.

The nodes here are the given bags, one per atom of the reduced join
query, and each component of the bag family hangs directly under a
virtual root, so components never interleave.  A layered tree always
makes the order trio-free.  The converse is narrower than Theorem 3.24:
Carmeli et al. [27] build their layers from projections of atoms onto
prefixes of the order, so a trio-free order that splits one atom's
block (``x > u > v > w`` on ``R(x, u, w), S(x, v)``) or interleaves
components (``a > b > z > c`` on ``R(a, b), S(b, c), T(z)``) is
tractable by the theorem but has no layered tree over per-atom nodes.

:func:`find_layered_tree` builds the tree in one pass along the order,
as in the constructive proof of [27]: at each position not yet covered
it opens the bag that owns the variable there, under the deepest node
of the active DFS path that holds the bag's earlier variables.
:func:`_try_layout` then checks the rooting and lays it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

VIRTUAL_ROOT = -1


@dataclass
class LayeredTree:
    """A rooted, child-ordered join tree compatible with an order.

    The virtual root ``VIRTUAL_ROOT`` has an empty bag and the real
    roots as children, so forests are handled uniformly.  ``own`` maps
    each node to its own-variable block, in the requested order.
    """

    parent: Dict[int, Optional[int]]
    children: Dict[int, List[int]]
    own: Dict[int, Tuple[str, ...]]
    preorder: List[int]

    @property
    def root(self) -> int:
        return VIRTUAL_ROOT


def _try_layout(
    bags: Dict[int, FrozenSet[str]],
    parent: Dict[int, Optional[int]],
    variable_order: Sequence[str],
) -> Optional[LayeredTree]:
    """Lay a rooted forest out along ``variable_order``.

    Simulates a DFS: nodes open when their first own variable arrives
    (implicitly opening empty-block ancestors), blocks must run
    contiguously and in order, and a node's parent must still be on
    the active DFS path when the node opens.  Returns None on any
    violation.
    """
    position = {v: i for i, v in enumerate(variable_order)}
    own: Dict[int, List[str]] = {}
    owner: Dict[str, int] = {}
    for node, bag in bags.items():
        par = parent[node]
        sep = bag & bags[par] if par is not None else frozenset()
        block = sorted(bag - sep, key=position.get)
        own[node] = block
        for v in block:
            owner[v] = node

    full_parent: Dict[int, Optional[int]] = dict(parent)
    for node, par in list(full_parent.items()):
        if par is None:
            full_parent[node] = VIRTUAL_ROOT
    full_parent[VIRTUAL_ROOT] = None
    own[VIRTUAL_ROOT] = []

    opened = {VIRTUAL_ROOT}
    active: List[int] = [VIRTUAL_ROOT]
    preorder: List[int] = [VIRTUAL_ROOT]
    children: Dict[int, List[int]] = {n: [] for n in bags}
    children[VIRTUAL_ROOT] = []
    progress: Dict[int, int] = {n: 0 for n in bags}
    current: Optional[int] = None

    def open_node(node: int) -> None:
        opened.add(node)
        active.append(node)
        preorder.append(node)
        children[full_parent[node]].append(node)

    for v in variable_order:
        node = owner[v]
        if node == current:
            if own[node][progress[node]] != v:
                return None
            progress[node] += 1
            continue
        if node in opened:
            return None  # revisiting a block that was already left
        # Chain of unopened ancestors up to the nearest opened one.
        chain: List[int] = []
        walk: Optional[int] = node
        while walk is not None and walk not in opened:
            chain.append(walk)
            walk = full_parent[walk]
        anchor = walk  # first opened ancestor (at least VIRTUAL_ROOT)
        for ancestor in chain[1:]:
            if own[ancestor]:
                return None  # its block should have come first
        if anchor not in active:
            return None  # anchor's subtree was already exited
        while active[-1] != anchor:
            active.pop()
        for member in reversed(chain):
            open_node(member)
        current = node
        if own[node][0] != v:
            return None
        progress[node] = 1

    for node, block in own.items():
        if node != VIRTUAL_ROOT and progress.get(node, 0) != len(block):
            return None  # pragma: no cover - defensive
    # Attach leftover empty-block nodes (pure filters); their position
    # among siblings does not affect the answer order.
    remaining = [n for n in sorted(bags) if n not in opened]
    while remaining:
        stalled = True
        for node in list(remaining):
            if full_parent[node] in opened:
                opened.add(node)
                preorder.append(node)
                children[full_parent[node]].append(node)
                remaining.remove(node)
                stalled = False
        if stalled:  # pragma: no cover - defensive
            return None
    return LayeredTree(
        parent=full_parent,
        children=children,
        own={n: tuple(b) for n, b in own.items()},
        preorder=preorder,
    )


def find_layered_tree(
    bags: Dict[int, FrozenSet[str]],
    variable_order: Sequence[str],
) -> Optional[LayeredTree]:
    """A layered join tree for the order, or None when none exists.

    One pass along the order.  At position ``i`` the candidates are the
    unopened bags holding ``order[i]``; the one to open (largest block,
    then smallest id) must
      (a) hold exactly ``order[i:i+k]`` among its variables from ``i``
          on: its own block, contiguous;
      (b) hold every candidate's variables before ``i``, so that it
          tops the subtree of ``order[i]`` as running intersection
          requires;
      (c) have its variables before ``i`` (its separator) inside a node
          of the active DFS path, which becomes its parent: the deepest
          such node, which keeps the most nodes active.  An empty
          separator starts a new component under the virtual root.
    Bags never opened have empty blocks; each hangs under the first
    opened bag containing it (an empty bag under the virtual root).
    """
    order = list(variable_order)
    all_vars = set()
    for bag in bags.values():
        all_vars |= bag
    if set(order) != all_vars or len(order) != len(set(order)):
        raise ValueError(
            "variable order must be a permutation of the bag variables"
        )
    position = {v: i for i, v in enumerate(order)}
    parent: Dict[int, Optional[int]] = {}
    path: List[int] = []  # opened nodes on the active DFS path, top first
    i = 0
    while i < len(order):
        candidates = [
            n for n in sorted(bags) if order[i] in bags[n] and n not in parent
        ]
        earlier = {
            n: frozenset(v for v in bags[n] if position[v] < i)
            for n in candidates
        }
        chosen, block = None, 0
        for node in candidates:
            own = bags[node] - earlier[node]
            if (
                len(own) > block
                and own == set(order[i : i + len(own)])
                and all(earlier[d] <= bags[node] for d in candidates)
            ):
                chosen, block = node, len(own)
        if chosen is None:
            return None
        separator = earlier[chosen]
        if not separator:
            path.clear()
        while path and not separator <= bags[path[-1]]:
            path.pop()
        if separator and not path:
            return None
        parent[chosen] = path[-1] if path else None
        path.append(chosen)
        i += block
    opened = list(parent)
    for node in sorted(bags):
        if node in parent:
            continue
        hosts = [n for n in opened if bags[node] <= bags[n]]
        if bags[node] and not hosts:
            return None
        parent[node] = hosts[0] if bags[node] else None
    return _try_layout(bags, parent, order)
