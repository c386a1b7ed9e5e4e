"""Cycle query evaluation and triangle counting.

The survey touches cycle joins twice: cycle queries q°k are the
canonical cyclic family (Prop 3.3 embeds triangles into all of them;
Section 4.1.1 cites lower bounds for "cycle joins" under the
Combinatorial k-Clique Hypothesis; Example 4.2 embeds K5 into q°5).
This module adds the standard evaluation algorithms:

- :func:`cycle_boolean_meet_in_middle` — decide q°k by joining two
  half-paths of length ⌈k/2⌉/⌊k/2⌋ and intersecting on the endpoint
  pair: Õ(m^{⌈k/2⌉}) worst case, the classical combinatorial bound;
- :func:`cycle_boolean_generic` — the worst-case-optimal route,
  Õ(m^{k/2}) by the AGM exponent of the k-cycle;
- :func:`count_triangles` — count answers of q̄△ exactly, either
  combinatorially or via the trace of A·B·C using integer matrix
  multiplication (the counting sibling of Theorem 3.2's technique,
  from the same Alon–Yuster–Zwick paper [6]).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.db.database import Database
from repro.joins.generic_join import generic_join
from repro.joins.triangle import triangle_relations
from repro.query.catalog import cycle_query


def _cycle_relations(db: Database, k: int) -> List[Set[Tuple]]:
    relations = []
    for i in range(1, k + 1):
        rel = db[f"R{i}"]
        if rel.arity != 2:
            raise ValueError(f"R{i} must be binary for the {k}-cycle query")
        relations.append(set(rel))
    return relations


def cycle_boolean_generic(db: Database, k: int) -> bool:
    """Decide q°k through the worst-case-optimal join (Õ(m^{k/2}))."""
    query = cycle_query(k)
    return bool(generic_join(query, db, limit=1))


def cycle_boolean_meet_in_middle(db: Database, k: int) -> bool:
    """Decide q°k by splitting the cycle into two paths.

    Join R1..R⌈k/2⌉ into a frame over (v1, v_mid) and R⌈k/2⌉+1..Rk
    into a frame over (v_mid, v1); the cycle exists iff the two agree
    on some endpoint pair.  This is the textbook combinatorial
    algorithm whose optimality for combinatorial algorithms [41] cites.
    """
    if k < 3:
        raise ValueError("cycles need k >= 3")
    relations = _cycle_relations(db, k)
    half = (k + 1) // 2

    def path_pairs(parts: List[Set[Tuple]]) -> Set[Tuple]:
        """Endpoint pairs (start, end) reachable along the chain."""
        current: Dict[object, Set[object]] = {}
        for a, b in parts[0]:
            current.setdefault(a, set()).add(b)
        for rel in parts[1:]:
            nxt_index: Dict[object, Set[object]] = {}
            for a, b in rel:
                nxt_index.setdefault(a, set()).add(b)
            merged: Dict[object, Set[object]] = {}
            for start, mids in current.items():
                targets: Set[object] = set()
                for mid in mids:
                    targets |= nxt_index.get(mid, set())
                if targets:
                    merged[start] = targets
            current = merged
            if not current:
                return set()
        return {
            (start, end) for start, ends in current.items() for end in ends
        }

    first = path_pairs(relations[:half])
    if not first:
        return False
    second = path_pairs(relations[half:])
    if not second:
        return False
    # first: v1 -> v_{half+1}; second: v_{half+1} -> v1 (wrapping).
    flipped = {(b, a) for (a, b) in second}
    return bool(first & flipped)


def count_triangles_combinatorial(db: Database) -> int:
    """Count q̄△ answers by the neighbor-intersection scan."""
    r1, r2, r3 = triangle_relations(db)
    by_y: Dict[object, Set[object]] = {}
    for y, z in r2:
        by_y.setdefault(y, set()).add(z)
    count = 0
    for x, y in r1:
        for z in by_y.get(y, ()):
            if (z, x) in r3:
                count += 1
    return count


def count_triangles_matrix(db: Database) -> int:
    """Count q̄△ answers as trace(A·B·C) over the integers.

    A, B, C are the adjacency matrices of R1, R2, R3 on the active
    domain; entry (x, x) of A·B·C counts the (y, z) completions, so
    the trace counts all answers.  This is the counting use of fast
    matrix multiplication from [6] that Section 2.3 alludes to.
    """
    r1, r2, r3 = triangle_relations(db)
    domain: Set[object] = set()
    for rel in (r1, r2, r3):
        for a, b in rel:
            domain.add(a)
            domain.add(b)
    if not domain:
        return 0
    index = {value: i for i, value in enumerate(sorted(domain, key=repr))}
    n = len(index)
    a = np.zeros((n, n), dtype=np.int64)
    b = np.zeros((n, n), dtype=np.int64)
    c = np.zeros((n, n), dtype=np.int64)
    for x, y in r1:
        a[index[x], index[y]] = 1
    for y, z in r2:
        b[index[y], index[z]] = 1
    for z, x in r3:
        c[index[z], index[x]] = 1
    product = a @ b @ c
    return int(np.trace(product))


def count_triangles(db: Database, method: str = "matrix") -> int:
    """Count triangle-query answers (``method``: matrix/combinatorial)."""
    if method == "matrix":
        return count_triangles_matrix(db)
    if method == "combinatorial":
        return count_triangles_combinatorial(db)
    raise ValueError(f"unknown triangle counting method {method!r}")
