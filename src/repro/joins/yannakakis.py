"""The Yannakakis algorithm (Theorem 3.1 and its output variants).

Given an acyclic query and a join tree:

- :func:`yannakakis_boolean` — linear-time Boolean evaluation
  (Theorem 3.1): full reduction, then check no relation died.
- :func:`yannakakis_full` — full join results for acyclic join queries
  in O(m + output) after reduction (the generalization used by
  Theorem 3.8 / [19, Lemma 19]).
- :func:`yannakakis_project` — general acyclic CQ evaluation with
  projections: bottom-up joins, projecting each intermediate onto the
  free variables seen so far plus the separator to the parent.  For
  non-free-connex queries intermediates may exceed the output size —
  that is exactly the gap Theorems 3.12/3.16 prove unavoidable.

The engine facade (:mod:`repro.engine`) routes Boolean prepared
queries through :func:`yannakakis_boolean` and acyclic
materialize-then-serve plans through :func:`yannakakis_project`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.db.database import Database
from repro.hypergraph.gyo import join_tree
from repro.hypergraph.jointree import JoinTree
from repro.joins.semijoin import full_reducer_pass, atom_frames
from repro.joins.vectorized import ColumnarFrame
from repro.query.cq import ConjunctiveQuery


def _tree_for(query: ConjunctiveQuery, tree: Optional[JoinTree]) -> JoinTree:
    if tree is not None:
        return tree
    return join_tree(query.hypergraph())


def yannakakis_boolean(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[JoinTree] = None,
) -> bool:
    """Decide a Boolean acyclic query in linear time (Theorem 3.1).

    Works for any head (the head is ignored — satisfiability of the
    body is what is decided).  Raises on cyclic queries.
    """
    tree = _tree_for(query, tree)
    frames = dict(enumerate(atom_frames(query, db)))
    if any(frame.is_empty() for frame in frames.values()):
        return False
    reduced = full_reducer_pass(frames, tree)
    return all(not frame.is_empty() for frame in reduced.values())


def yannakakis_full(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[JoinTree] = None,
) -> ColumnarFrame:
    """Materialize an acyclic *join* query in O(m + output).

    After full reduction every partial join along the tree is supported
    by at least one output tuple, so intermediate results never exceed
    the final output — the classical output-sensitivity argument.
    """
    if not query.is_join_query():
        raise ValueError(
            "yannakakis_full requires a join query; use "
            "yannakakis_project for queries with projections"
        )
    tree = _tree_for(query, tree)
    frames = dict(enumerate(atom_frames(query, db)))
    reduced = full_reducer_pass(frames, tree)
    if any(frame.is_empty() for frame in reduced.values()):
        return ColumnarFrame.empty(tuple(query.head), db.dictionary)
    accumulated: Dict[int, ColumnarFrame] = dict(reduced)
    for node in tree.bottom_up():
        parent = tree.parent.get(node)
        if parent is not None:
            accumulated[parent] = accumulated[parent].join(accumulated[node])
    result = ColumnarFrame.unit(db.dictionary)
    for root in tree.roots:
        result = result.join(accumulated[root])
    return result.reorder(tuple(query.head))


def yannakakis_project(
    query: ConjunctiveQuery,
    db: Database,
    tree: Optional[JoinTree] = None,
) -> ColumnarFrame:
    """Evaluate an acyclic query with projections.

    Bottom-up DP over the join tree: at each node, join the children's
    partial results into the node's (reduced) relation and project onto
    the free variables plus the separator toward the parent.  Runtime is
    O(m · output) in the worst case; for free-connex queries the
    dedicated pipeline in :mod:`repro.counting`/:mod:`repro.enumeration`
    achieves linear preprocessing instead.
    """
    tree = _tree_for(query, tree)
    reduced = full_reducer_pass(
        dict(enumerate(atom_frames(query, db))), tree
    )
    head = tuple(query.head)
    if any(frame.is_empty() for frame in reduced.values()):
        return ColumnarFrame.empty(head, db.dictionary)
    free: Set[str] = set(query.free_variables)
    partial: Dict[int, ColumnarFrame] = {}
    for node in tree.bottom_up():
        frame = reduced[node]
        for child in tree.children(node):
            frame = frame.join(partial.pop(child))
        keep = [
            v
            for v in frame.variables
            if v in free or v in tree.separator(node)
        ]
        partial[node] = frame.project(keep)
    result = ColumnarFrame.unit(db.dictionary)
    for root in tree.roots:
        result = result.join(partial[root])
    return result.project(head).reorder(head)
