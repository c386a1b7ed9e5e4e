"""Linear-time reduction of free-connex queries to acyclic join queries.

This implements the construction behind the upper bounds of Theorems
3.13 (counting), 3.17 (enumeration) and 3.18 (direct access): for a
free-connex acyclic query ``q`` with free variables ``S``, compute in
O(m) an acyclic *join* query ``q'`` over ``S`` with ``q'(D') = q(D)``
(see the discussion of [14, Section 4.1] in the paper).  All three
linear-preprocessing algorithms then run on ``q'``.

Construction (correctness argument in the docstring of
:func:`free_connex_reduce`):

1. fully semijoin-reduce the body over a join tree of ``H``;
2. build a join tree of ``H ∪ {S}`` rooted at the virtual ``S`` node;
3. for every child ``c`` of the root, output the reduced frame of
   ``c`` projected onto ``F_c = vars(c) ∩ S``.

Why this is correct: root the extended tree at the S-node.  For any
node ``e`` and any free variable ``v`` occurring in the subtree of
``e``, the tree path from that occurrence to the S-node passes through
``e``, so the running intersection property forces ``v ∈ vars(e)``.
Hence every free variable below a child ``c`` of the root is already
in ``F_c``.  After full reduction the database is globally consistent,
so every tuple of the frame at ``c`` extends to a join of the whole
subtree of ``c`` — therefore the S-tuples realizable by ``c``'s subtree
are exactly ``π_{F_c}`` of its reduced frame.  Distinct children share
no *existential* variables (their connecting path goes through the
S-node, whose bag is all-free), so subtree extensions glue, giving
``q(D) = ⋈_c π_{F_c}(frame_c)``.  Finally the hypergraph ``{F_c}``
inherits acyclicity (checked, not assumed — a failed check would be a
bug, and tests compare against brute force throughout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.db.database import Database
from repro.hypergraph.freeconnex import free_connex_join_tree
from repro.hypergraph.gyo import is_acyclic, join_tree
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree
from repro.joins.semijoin import atom_frames, full_reducer_pass
from repro.joins.vectorized import ColumnarFrame
from repro.query.cq import ConjunctiveQuery


@dataclass
class ReducedJoinQuery:
    """An acyclic join query over frames, equivalent to the original.

    ``head`` is the original query's head order; ``frames`` maps node id
    to a frame whose variables are a subset of ``head``; ``tree`` is a
    join tree over exactly those node ids.  ``is_empty`` short-circuits
    the downstream algorithms when some relation died during reduction.
    """

    head: Tuple[str, ...]
    frames: Dict[int, ColumnarFrame]
    tree: JoinTree
    is_empty: bool = False

    def answer_frame(self) -> ColumnarFrame:
        """Materialize the full answer set (test helper, output-sized)."""
        some = next(iter(self.frames.values()))
        if self.is_empty:
            return some.empty_like(self.head)
        result = some.unit_like()
        order: List[int] = []
        for node in self.tree.bottom_up():
            order.append(node)
        accumulated = dict(self.frames)
        for node in order:
            parent = self.tree.parent.get(node)
            if parent is not None:
                accumulated[parent] = accumulated[parent].join(
                    accumulated[node]
                )
        for root in self.tree.roots:
            result = result.join(accumulated[root])
        return result.reorder(self.head)


def free_connex_reduce(
    query: ConjunctiveQuery,
    db: Database,
) -> ReducedJoinQuery:
    """Reduce a free-connex query plus database to an equivalent
    acyclic join query over the free variables, in O(m).

    Raises :class:`ValueError` for non-free-connex queries (callers
    should dispatch on :func:`repro.hypergraph.is_free_connex` first).
    """
    head = tuple(query.head)
    if not head:
        raise ValueError(
            "Boolean queries have no free variables to reduce to; "
            "use yannakakis_boolean"
        )
    extended_tree, s_node = free_connex_join_tree(query)
    body_tree = join_tree(query.hypergraph())
    reduced = full_reducer_pass(
        dict(enumerate(atom_frames(query, db))), body_tree
    )
    if any(frame.is_empty() for frame in reduced.values()):
        placeholder = ColumnarFrame.empty(head, db.dictionary)
        return ReducedJoinQuery(
            head=head,
            frames={0: placeholder},
            tree=JoinTree(bags={0: frozenset(head)}),
            is_empty=True,
        )
    free = frozenset(head)
    frames: Dict[int, ColumnarFrame] = {}
    for index, child in enumerate(extended_tree.children(s_node)):
        scope = extended_tree.bags[child] & free
        ordered_scope = tuple(v for v in head if v in scope)
        if not ordered_scope:
            # The child's subtree carries no free variables; its
            # satisfiability was already verified by the reduction.
            continue
        frames[index] = reduced[child].project(ordered_scope)
    if not frames:  # pragma: no cover - impossible for safe queries
        raise AssertionError("no free variables found under the S node")
    hypergraph = Hypergraph(
        vertices=free,
        edges=[frozenset(f.variables) for f in frames.values()],
    )
    if not is_acyclic(hypergraph):  # pragma: no cover - would be a bug
        raise AssertionError(
            "free-connex reduction produced a cyclic join query; "
            "this contradicts the construction's correctness argument"
        )
    # Hypergraph edges were listed in ascending frame-key order, so the
    # GYO node ids coincide with the frame keys after re-indexing.
    keys = sorted(frames)
    tree_raw = join_tree(hypergraph)
    remap = {i: keys[i] for i in range(len(keys))}
    tree = JoinTree(
        bags={remap[i]: bag for i, bag in tree_raw.bags.items()},
        parent={
            remap[c]: remap[p] for c, p in tree_raw.parent.items()
        },
    )
    return ReducedJoinQuery(head=head, frames=frames, tree=tree)
