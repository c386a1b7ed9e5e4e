"""Brute-force reference answers for the tests.

Everything here reads rows through
:meth:`repro.query.cq.ConjunctiveQuery.evaluate_brute_force`, the
oracle the measured algorithms are compared against; nothing calls an
engine algorithm.
"""

from typing import Callable, List, Optional, Sequence, Tuple

from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query


def as_query(query) -> ConjunctiveQuery:
    return parse_query(query) if isinstance(query, str) else query


def ordered(query, db, order: Optional[Sequence[str]] = None) -> List[Tuple]:
    """Every answer, sorted lexicographically by ``order`` (default: the
    head), rows in head order."""
    query = as_query(query)
    head = tuple(query.head)
    positions = [head.index(v) for v in (order or head)]
    return sorted(
        query.evaluate_brute_force(db),
        key=lambda row: tuple(row[p] for p in positions),
    )


def page_order(prepared) -> List[Tuple]:
    """What a prepared query's pages must serve: the brute-force answers
    over its own database, in its plan's order."""
    return ordered(prepared.query, prepared.database, prepared.plan.order)


def fold(
    query,
    db,
    semiring,
    weights: Optional[Callable[[int, Tuple], object]] = None,
):
    """The semiring aggregate: ⊕ over the brute-force answers of ⊗ over
    the atoms of ``weights(i, frame_row)`` (the atom's variables, first
    occurrences, in atom order).  Without ``weights`` every answer
    counts ``one`` (any query); with them, ``query`` must be a join
    query."""
    query = as_query(query)
    head = tuple(query.head)
    atom_positions = [
        [head.index(v) for v in dict.fromkeys(atom.variables)]
        for atom in query.atoms
    ] if weights is not None else []
    total = semiring.zero
    for answer in query.evaluate_brute_force(db):
        value = semiring.one
        if weights is not None:
            for i, positions in enumerate(atom_positions):
                row = tuple(answer[p] for p in positions)
                value = semiring.times(value, weights(i, row))
        total = semiring.plus(total, value)
    return total
