"""Join algorithms: the paper's upper bounds.

- :mod:`repro.joins.vectorized` — the frame: a (variables, rows) table
  over dictionary-encoded NumPy code columns, with the small relational
  algebra the algorithms are written in;
- :mod:`repro.joins.hashjoin` — binary hash joins and left-deep plans;
- :mod:`repro.joins.semijoin` — semijoins and full reducers;
- :mod:`repro.joins.yannakakis` — Theorem 3.1 (Boolean acyclic in
  linear time) and full/projected evaluation of acyclic queries;
- :mod:`repro.joins.generic_join` — a worst-case-optimal join with
  runtime Õ(m^{ρ*}) matching the AGM bound (Section 2.1);
- :mod:`repro.joins.triangle` — the Alon–Yuster–Zwick degree-split +
  BMM triangle algorithm of Theorem 3.2;
- :mod:`repro.joins.loomis_whitney` — Example 3.4's Õ(m^{1+1/(k-1)})
  Loomis–Whitney evaluation.
"""

from repro.joins.cycles import (
    count_triangles,
    cycle_boolean_generic,
    cycle_boolean_meet_in_middle,
)
from repro.joins.generic_join import generic_join, generic_join_boolean
from repro.joins.hashjoin import hash_join, left_deep_plan_join
from repro.joins.loomis_whitney import (
    loomis_whitney_boolean,
    loomis_whitney_join,
)
from repro.joins.semijoin import atom_frames, full_reducer_pass, semijoin
from repro.joins.triangle import (
    triangle_boolean_ayz,
    triangle_boolean_naive,
    triangle_join_naive,
)
from repro.joins.vectorized import ColumnarFrame
from repro.joins.yannakakis import (
    yannakakis_boolean,
    yannakakis_full,
    yannakakis_project,
)

__all__ = [
    "ColumnarFrame",
    "atom_frames",
    "count_triangles",
    "cycle_boolean_generic",
    "cycle_boolean_meet_in_middle",
    "full_reducer_pass",
    "generic_join",
    "generic_join_boolean",
    "hash_join",
    "left_deep_plan_join",
    "loomis_whitney_boolean",
    "loomis_whitney_join",
    "semijoin",
    "triangle_boolean_ayz",
    "triangle_boolean_naive",
    "triangle_join_naive",
    "yannakakis_boolean",
    "yannakakis_full",
    "yannakakis_project",
]
