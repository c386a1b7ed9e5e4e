"""Semijoins and the Yannakakis full reducer.

The full reducer performs one bottom-up and one top-down semijoin pass
over a join tree.  Afterwards the database is *globally consistent*:
every remaining tuple of every relation participates in at least one
full join result.  This O(m) preprocessing is the engine behind all the
linear-time upper bounds of Section 3.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.db.columnar import ColumnarRelation, Dictionary
from repro.db.database import Database
from repro.db.interface import check_backend
from repro.db.relation import Relation
from repro.hypergraph.jointree import JoinTree
from repro.joins.frame import Frame
from repro.joins.vectorized import frame_for_atom
from repro.query.cq import ConjunctiveQuery


def semijoin(target: Frame, source: Frame) -> Frame:
    """``target ⋉ source`` — see :meth:`Frame.semijoin`."""
    return target.semijoin(source)


def atom_frames(
    query: ConjunctiveQuery,
    db: Database,
    backend: Optional[str] = None,
) -> List[Frame]:
    """One frame per atom, with repeated-variable selections applied.

    Each frame uses the backend of its stored relation (so a columnar
    database flows into the vectorized join stack automatically).  Pass
    ``backend=`` to force one backend: relations stored the other way
    are converted *once per relation symbol* (self-joins reuse the
    conversion) at the store level, so the repeated-variable selection
    and projection always run on the target backend — forcing
    ``"columnar"`` never builds a Python frame first, and forcing
    ``"python"`` decodes each relation exactly once.
    """
    query.validate_database(db)
    if backend is None:
        return [
            frame_for_atom(db[atom.relation], atom.variables)
            for atom in query.atoms
        ]
    check_backend(backend)
    shared_dictionary = Dictionary()
    converted: Dict[str, object] = {}

    def store_for(name: str):
        relation = db[name]
        wrong_way = (
            not isinstance(relation, ColumnarRelation)
            if backend == "columnar"
            else isinstance(relation, ColumnarRelation)
        )
        if not wrong_way:
            return relation
        if name not in converted:
            if backend == "columnar":
                converted[name] = ColumnarRelation(
                    relation.name,
                    relation.arity,
                    relation,
                    dictionary=shared_dictionary,
                )
            else:
                converted[name] = Relation(
                    relation.name, relation.arity, relation.rows()
                )
        return converted[name]

    return [
        frame_for_atom(store_for(atom.relation), atom.variables)
        for atom in query.atoms
    ]


def full_reducer_pass(
    frames: Dict[int, Frame], tree: JoinTree
) -> Dict[int, Frame]:
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
    frames: Dict[int, Frame], tree: JoinTree
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
