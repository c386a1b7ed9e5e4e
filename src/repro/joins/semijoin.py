"""Semijoins and the Yannakakis full reducer.

The full reducer performs one bottom-up and one top-down semijoin pass
over a join tree.  Afterwards the database is *globally consistent*:
every remaining tuple of every relation participates in at least one
full join result.  This O(m) preprocessing is the engine behind all the
linear-time upper bounds of Section 3.
"""

from __future__ import annotations

from typing import Dict, List

from repro.db.database import Database
from repro.hypergraph.jointree import JoinTree
from repro.joins.vectorized import ColumnarFrame
from repro.query.cq import ConjunctiveQuery


def semijoin(target: ColumnarFrame, source: ColumnarFrame) -> ColumnarFrame:
    """``target ⋉ source`` — see :meth:`ColumnarFrame.semijoin`."""
    return target.semijoin(source)


def atom_frames(query: ConjunctiveQuery, db: Database) -> List[ColumnarFrame]:
    """One frame per atom, with repeated-variable selections applied.

    Every frame reads its relation's codes over the database's one
    dictionary, so the frames of a query compare codes directly.
    """
    query.validate_database(db)
    return [
        ColumnarFrame.from_atom(db[atom.relation], atom.variables)
        for atom in query.atoms
    ]


def full_reducer_pass(
    frames: Dict[int, ColumnarFrame], tree: JoinTree
) -> Dict[int, ColumnarFrame]:
    """Run the two semijoin passes of the Yannakakis full reducer.

    ``frames`` maps join-tree node ids to frames; the tree's node ids
    must be the frame keys.  Returns a new dict of reduced frames
    (inputs are not mutated).  Nodes reduced to empty frames mean the
    query has no answers.
    """
    if set(frames) != set(tree.bags):
        raise ValueError("frames and join tree nodes disagree")
    reduced = dict(frames)
    # Bottom-up: each parent keeps only tuples extensible into every
    # child's subtree.
    for node in tree.bottom_up():
        parent = tree.parent.get(node)
        if parent is not None:
            reduced[parent] = reduced[parent].semijoin(reduced[node])
    # Top-down: each child keeps only tuples consistent with the parent,
    # which by induction is already globally consistent above.
    for node in tree.top_down():
        parent = tree.parent.get(node)
        if parent is not None:
            reduced[node] = reduced[node].semijoin(reduced[parent])
    return reduced


def is_globally_consistent(
    frames: Dict[int, ColumnarFrame], tree: JoinTree
) -> bool:
    """Check pairwise consistency along tree edges (test helper).

    After a correct full reduction, for every tree edge the two frames
    agree on their shared variables: each side's projection onto the
    separator is contained in the other's.
    """
    for child, parent in tree.edges():
        shared = tuple(
            v
            for v in frames[child].variables
            if v in frames[parent].variables
        )
        child_keys = frames[child].to_tuples(shared)
        parent_keys = frames[parent].to_tuples(shared)
        if child_keys != parent_keys:
            return False
    return True
