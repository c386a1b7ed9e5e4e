"""Binary hash joins and left-deep join plans.

These are the *baseline* evaluators the worst-case-optimal literature
compares against (paper Section 2.1): any plan that materializes binary
intermediate joins can be forced to Ω(m^2) intermediate size on inputs
where the final output is only O(m^{3/2}) (the triangle query on
AGM-tight instances) — which is the reason worst-case-optimal joins
exist.  The benchmark harness measures that blow-up directly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.db.database import Database
from repro.joins.semijoin import atom_frames
from repro.joins.vectorized import ColumnarFrame
from repro.query.cq import ConjunctiveQuery


def hash_join(left: ColumnarFrame, right: ColumnarFrame) -> ColumnarFrame:
    """Natural join of two frames (delegates to
    :meth:`ColumnarFrame.join`)."""
    return left.join(right)


def left_deep_plan_join(
    query: ConjunctiveQuery,
    db: Database,
    order: Optional[Sequence[int]] = None,
) -> ColumnarFrame:
    """Evaluate a join query by a left-deep sequence of binary joins.

    ``order`` lists atom indices; default is ascending by relation size
    (the textbook greedy heuristic).  Returns the full join over all
    body variables projected onto the head.  Intermediates are
    materialized — that is the point: this evaluator exhibits the
    non-worst-case-optimal behaviour.
    """
    frames = atom_frames(query, db)
    if order is None:
        order = sorted(range(len(frames)), key=lambda i: len(frames[i]))
    else:
        order = list(order)
        if sorted(order) != list(range(len(frames))):
            raise ValueError("order must be a permutation of atom indices")
    result = ColumnarFrame.unit(db.dictionary)
    for index in order:
        result = result.join(frames[index])
    head = tuple(query.head)
    return result.project(head).reorder(head)


def plan_intermediate_sizes(
    query: ConjunctiveQuery,
    db: Database,
    order: Optional[Sequence[int]] = None,
) -> List[int]:
    """Sizes of every intermediate a left-deep plan materializes.

    The instrumentation used by the benchmark that demonstrates the
    Ω(m^2) intermediate blow-up on AGM-tight triangle instances.
    """
    frames = atom_frames(query, db)
    if order is None:
        order = sorted(range(len(frames)), key=lambda i: len(frames[i]))
    sizes: List[int] = []
    result = ColumnarFrame.unit(db.dictionary)
    for index in order:
        result = result.join(frames[index])
        sizes.append(len(result))
    return sizes
