"""Direct access under sum-of-weights orders (paper Section 3.4.2).

Each domain value gets a weight; an answer's weight is the sum of its
entries' weights, and the simulated array is sorted by answer weight.
Theorem 3.26: an acyclic self-join-free join query admits linear
preprocessing iff some atom contains *all* variables — then the
(reduced) covering relation *is* the answer set, and sorting it is the
whole preprocessing.  Otherwise two variables share no atom, Lemma 3.25
embeds 3SUM, and superlinear preprocessing is unavoidable — realized
here by the materializing fallback the benchmarks measure.

**One sort over codes.**  Both modes sort a head code matrix — the
reduced covering frame's, or the materialized Generic Join answers'
(:func:`repro.joins.generic_join.generic_join_codes`) — as an array
program sharing the value-rank machinery of
:func:`repro.direct_access.lex.value_rank_table`: per-row weights are
one table gather + columnwise sum over the code matrix, the sort is one
``np.lexsort`` over (value-ranked columns as tie-breaks, weight column
as primary key), and no row is decoded during preprocessing —
``access(i)`` decodes exactly the returned answer, matching the lex
stores' decode budget.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.db.database import Database
from repro.db.interface import Row
from repro.direct_access.lex import value_rank_table
from repro.hypergraph.gyo import is_acyclic, join_tree
from repro.joins.generic_join import generic_join_codes
from repro.joins.semijoin import atom_frames, full_reducer_pass
from repro.query.cq import ConjunctiveQuery

WeightMap = Mapping[object, float]


def covering_atom_index(query: ConjunctiveQuery) -> Optional[int]:
    """Index of an atom whose scope contains every variable, if any."""
    all_vars = query.variables
    for i, atom in enumerate(query.atoms):
        if atom.scope >= all_vars:
            return i
    return None


def uncovered_pair(query: ConjunctiveQuery) -> Optional[Tuple[str, str]]:
    """Two variables sharing no atom (Lemma 3.25's hardness pattern).

    For acyclic join queries, exists iff there is no covering atom
    (via minimum edge cover = maximum independent set on acyclic
    hypergraphs, [39, Lemma 19]).
    """
    variables = sorted(query.variables)
    for i, x in enumerate(variables):
        for y in variables[i + 1 :]:
            if not any(
                x in atom.scope and y in atom.scope for atom in query.atoms
            ):
                return (x, y)
    return None


class SumOrderDirectAccess:
    """Direct access by sum-of-weights order.

    ``weights`` maps domain values to numbers (missing values weigh 0).
    For join queries with a covering atom the preprocessing is
    Õ(m log m): reduce, then sort the covering relation over code
    columns with zero row decodes.  Otherwise (``strict=False``) the
    full result is materialized by Generic Join and sorted the same
    way.  Ties are broken by the tuple itself (value order) so the
    order is total and deterministic.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        weights: WeightMap,
        strict: bool = True,
    ) -> None:
        if not query.is_join_query():
            raise ValueError(
                "sum-order direct access is defined for join queries here "
                "(the paper's Section 3.4.2 restriction)"
            )
        self.query = query
        self.head = tuple(query.head)
        self.weights = dict(weights)
        self._dictionary = db.dictionary
        cover = covering_atom_index(query)
        if cover is not None and is_acyclic(query.hypergraph()):
            self.mode = "covering"
            tree = join_tree(query.hypergraph())
            frame = full_reducer_pass(
                dict(enumerate(atom_frames(query, db))), tree
            )[cover]
            codes = frame.codes()[:, list(frame.positions(self.head))]
        elif strict:
            pair = uncovered_pair(query)
            raise ValueError(
                f"query {query.name} has no covering atom (e.g. variables "
                f"{pair} share no atom); by Theorem 3.26 linear "
                "preprocessing is impossible — pass strict=False for the "
                "materializing fallback"
            )
        else:
            self.mode = "materialized"
            codes = generic_join_codes(query, db)[0]
        self._sort(codes)

    def _sort(self, codes: np.ndarray) -> None:
        """Sort head-ordered answer *codes* by (weight, value ranks).

        One weight-table gather per column realizes the answer weights
        (summed left to right, bit-identical to :meth:`answer_weight`'s
        ``sum`` over floats); the value-rank remap makes the lexsort's
        tie-break the value order of the decoded tuples.  Zero decodes
        — ``access`` decodes one answer.
        """
        dictionary = self._dictionary
        n, width = codes.shape
        row_weights = np.zeros(n, dtype=np.float64)
        if n and width:
            used = np.unique(codes)
            values = dictionary.values()
            weight_table = np.zeros(int(used[-1]) + 1, dtype=np.float64)
            get = self.weights.get
            for code in used.tolist():
                weight_table[code] = get(values[code], 0.0)
            for j in range(width):
                row_weights = row_weights + weight_table[codes[:, j]]
            # One rank table per column: the tie-break compares tuples
            # position-wise, so values are only ever compared within a
            # column — a single cross-column table
            # would impose (and require) a global order that mixed
            # column types need not have.
            ranks = np.empty_like(codes)
            for j in range(width):
                column = codes[:, j]
                ranks[:, j] = value_rank_table(dictionary, column)[column]
            order = np.lexsort(
                tuple(
                    [ranks[:, j] for j in range(width - 1, -1, -1)]
                    + [row_weights]
                )
            )
            codes, row_weights = codes[order], row_weights[order]
        self._sorted_codes = codes
        self._keys = row_weights

    # ------------------------------------------------------------------
    # the direct access interface
    # ------------------------------------------------------------------
    def answer_weight(self, row: Sequence[object]) -> float:
        """Sum of the entry weights of an answer tuple."""
        return sum(self.weights.get(value, 0.0) for value in row)

    def __len__(self) -> int:
        return len(self._sorted_codes)

    def access(self, index: int) -> Row:
        """The index-th lightest answer (IndexError past the end)."""
        if index < 0 or index >= len(self):
            raise IndexError(
                f"index {index} out of range for {len(self)} answers"
            )
        decode = self._dictionary.decode
        return tuple(decode(int(code)) for code in self._sorted_codes[index])

    def has_weight(self, target: float, tolerance: float = 0.0) -> bool:
        """Is there an answer of total weight ``target``?

        Binary search over the sorted weights — O(log n), the probe the
        3SUM reduction of Lemma 3.25 performs for every c ∈ C.
        """
        slot = bisect_left(self._keys, target - tolerance)
        return (
            slot < len(self._keys)
            and self._keys[slot] <= target + tolerance
        )
