"""The interpolation technique for self-joins (Dalmau–Jonsson, [35]).

Theorem 3.8 does not require self-join freeness "since self-joins can
be dealt with in the lower bound with an interpolation argument".  This
module makes that argument executable for the star family: an oracle
counting the *self-join* query

    q*_k(x1..xk) :- R(x1,z), ..., R(xk,z)

suffices to count the *self-join free* query

    q̄*_k(x1..xk) :- R1(x1,z), ..., Rk(xk,z)

exactly — so hardness of the self-join-free query transfers to the
self-join query.

Method.  Tag each input relation so they become pairwise disjoint
without disturbing the join variable: tuples of ``R_i`` become
``((i, x), z)``.  For ``T ⊆ [k]`` let ``B_T`` be the oracle's count on
``R := ⋃_{i∈T} tagged(R_i)``.  Every answer of q*_k on that union picks
a source relation per atom, so ``B_T = Σ_{g:[k]→T} A_g`` where ``A_g``
counts answers whose atom ``i`` uses ``R_{g(i)}``.  Möbius inversion
over the subset lattice gives the sum over *surjective* ``g`` — i.e.
permutations — and since relabelling the (interchangeable) atoms of
q*_k permutes answer coordinates bijectively, ``A_π = A_id`` for every
permutation π.  Hence

    A_id = (1/k!) Σ_{T⊆[k]} (-1)^{k-|T|} B_T,

and ``A_id`` is exactly the (tag-stripped) count of q̄*_k.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.db.database import Database
from repro.query.catalog import star_query
from repro.query.cq import ConjunctiveQuery

Pair = Tuple[object, object]
Oracle = Callable[[Set[Pair]], int]


def tag_relations(
    relations: Sequence[Set[Pair]],
) -> List[Set[Pair]]:
    """Make binary relations pairwise disjoint by tagging first columns.

    ``(x, z)`` in relation ``i`` becomes ``((i, x), z)``; the join
    column ``z`` is untouched, so star-query joins are preserved.
    """
    return [
        {((i, x), z) for (x, z) in rel} for i, rel in enumerate(relations)
    ]


def default_star_oracle(k: int) -> Oracle:
    """An oracle counting q*_k via the generic evaluator.

    Used in tests and demos; in a lower-bound argument this would be
    the hypothetical fast counting algorithm being contradicted.
    """
    query = star_query(k)

    def oracle(relation: Set[Pair]) -> int:
        db = Database()
        db.ensure_relation("R", 2).add_all(relation)
        return query.count_brute_force(db)

    return oracle


def count_with_colors(
    relations: Sequence[Set[Pair]], oracle: Oracle
) -> int:
    """Count q̄*_k(R_1..R_k) using only a q*_k counting oracle.

    ``relations`` are the k binary relations; ``oracle`` counts the
    self-join star query on a single binary relation.  Makes 2^k - 1
    oracle calls (the empty union contributes 0 answers for k ≥ 1).
    """
    k = len(relations)
    if k == 0:
        raise ValueError("need at least one relation")
    tagged = tag_relations(relations)
    total = 0
    for size in range(1, k + 1):
        sign = (-1) ** (k - size)
        for subset in combinations(range(k), size):
            union: Set[Pair] = set()
            for i in subset:
                union |= tagged[i]
            total += sign * oracle(union)
    quotient, remainder = divmod(total, factorial(k))
    if remainder:  # pragma: no cover - would indicate an oracle bug
        raise ArithmeticError(
            "interpolation sum not divisible by k!; oracle is inconsistent"
        )
    return quotient


def star_counts_by_interpolation(
    relations: Sequence[Set[Pair]],
    oracle: Oracle = None,
) -> int:
    """Count the self-join-free star query via interpolation.

    Convenience wrapper: supplies :func:`default_star_oracle` when none
    is given, so ``star_counts_by_interpolation(rels)`` can be compared
    directly against a brute-force count of q̄*_k in tests.
    """
    if oracle is None:
        oracle = default_star_oracle(len(relations))
    return count_with_colors(relations, oracle)
