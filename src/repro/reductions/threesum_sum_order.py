"""Lemma 3.25: 3SUM embeds into sum-ordered direct access.

Let q be a self-join free join query with two variables x, y that share
no atom.  From 3SUM lists A, B, C build a database of size O(n): the
variable x ranges over (tagged) values of A, y over values of B, every
other variable is pinned to a padding constant; the weight function is
w(a-tag) = a, w(b-tag) = b, w(pad) = 0.  Answer weights are then
exactly {a + b}, so one binary search per c ∈ C (O(log n) accesses,
via :meth:`SumOrderDirectAccess.has_weight`) decides 3SUM.  Direct
access with preprocessing Õ(m^{2-ε}) and access Õ(m^{1-ε}) would
therefore break the 3SUM Hypothesis.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query

PAD = ("pad", 0)


def default_split_query() -> ConjunctiveQuery:
    """The smallest query satisfying the lemma's hypothesis.

    ``q(x, y, u) :- R(x, u), S(y, u)``: x and y share no atom.  This is
    q̂*_2 up to renaming — the same query family that is hard for
    lexicographic orders (Lemma 3.23).
    """
    return parse_query("q(x, y, u) :- R(x, u), S(y, u)")


def find_split_variables(
    query: ConjunctiveQuery,
) -> Optional[Tuple[str, str]]:
    """Two variables sharing no atom, or None (the lemma's premise)."""
    from repro.direct_access.sum_order import uncovered_pair

    return uncovered_pair(query)


class ThreeSumToSumOrderAccess:
    """The Lemma 3.25 reduction for one fixed target query."""

    def __init__(self, query: Optional[ConjunctiveQuery] = None) -> None:
        self.query = query if query is not None else default_split_query()
        if not self.query.is_join_query():
            raise ValueError("the lemma concerns join queries")
        if not self.query.is_self_join_free():
            raise ValueError("the lemma requires self-join freeness")
        split = find_split_variables(self.query)
        if split is None:
            raise ValueError(
                "every pair of variables shares an atom; the lemma "
                "does not apply (and Theorem 3.26's upper bound does)"
            )
        self.x_var, self.y_var = split

    def build_instance(
        self, a_values: Sequence[int], b_values: Sequence[int]
    ) -> Tuple[Database, Dict[object, float]]:
        """Database + weight map encoding the 3SUM lists.

        Domain values are tagged so A-values, B-values and the padding
        constant never collide; weights carry the integer values.
        """
        a_domain = [("a", value) for value in a_values]
        b_domain = [("b", value) for value in b_values]
        weights: Dict[object, float] = {PAD: 0.0}
        for tag in a_domain:
            weights[tag] = float(tag[1])
        for tag in b_domain:
            weights[tag] = float(tag[1])

        db = Database()
        for atom in self.query.atoms:
            if self.x_var in atom.scope:
                rows = [
                    tuple(tag if v == self.x_var else PAD for v in atom.variables)
                    for tag in a_domain
                ]
            elif self.y_var in atom.scope:
                rows = [
                    tuple(tag if v == self.y_var else PAD for v in atom.variables)
                    for tag in b_domain
                ]
            else:
                rows = [(PAD,) * atom.arity]
            db.ensure_relation(atom.relation, atom.arity).add_all(rows)
        return db, weights

    def solve(
        self,
        a_values: Sequence[int],
        b_values: Sequence[int],
        c_values: Sequence[int],
        access_factory: Optional[Callable] = None,
    ) -> bool:
        """Decide 3SUM through sum-order direct access.

        ``access_factory(query, db, weights)`` must return an object
        with ``has_weight(target) -> bool``; defaults to
        :class:`~repro.direct_access.sum_order.SumOrderDirectAccess`
        with ``strict=False`` (the target query has no covering atom,
        so the honest implementation materializes — the lemma's point).
        """
        if access_factory is None:
            from repro.direct_access.sum_order import SumOrderDirectAccess

            def access_factory(query, db, weights):
                return SumOrderDirectAccess(
                    query, db, weights, strict=False
                )

        db, weights = self.build_instance(a_values, b_values)
        accessor = access_factory(self.query, db, weights)
        return any(
            accessor.has_weight(float(c)) for c in set(c_values)
        )
