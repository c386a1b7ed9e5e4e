"""A worst-case-optimal join (Generic Join / NPRR, paper Section 2.1).

Generic Join processes variables one at a time: having fixed a prefix
assignment, the candidate values for the next variable are obtained by
intersecting, over all atoms containing it, the values consistent with
the prefix — always iterating the smallest candidate set.  Ngo–Porat–
Ré–Rudra / Ngo's survey [65] show this runs in Õ(m^{ρ*}), matching the
AGM output bound, for *any* variable order.

This is the algorithm behind:

- the Õ(m^{3/2}) triangle join of Section 3.1.1 (ρ* = 3/2), and
- the Õ(m^{1+1/(k-1)}) Loomis–Whitney evaluation of Example 3.4
  (ρ* = k/(k-1)).

**Two execution strategies.**

On columnar databases (every atom relation a
:class:`~repro.db.columnar.ColumnarRelation` over one shared
dictionary) the join runs *breadth-first over frontier arrays*: instead
of recursing per prefix, level ``t`` extends **all** currently-alive
prefixes at once.  The *frontier* at level ``t`` is an ``(n_t, t)``
int64 code matrix whose columns are the first ``t`` variables of the
global order and whose rows are exactly the prefixes Generic Join's
recursion would visit — distinct by construction, in a canonical order
(parent frontier order × ascending candidate code).  One level step is
pure array work:

1. **Range lookup.**  Each atom constraining the new variable holds
   sorted prefix tables (:class:`_FrontierAtomIndex`): the distinct
   ``d``-prefixes of its lexsorted code matrix plus offsets into the
   ``(d+1)``-prefix children.  A single :func:`~repro.db.columnar.
   lookup_rows` binary search maps every frontier row to its prefix
   group; the group's candidate count is an offset difference.
2. **Smallest-set choice.**  Stacking the per-atom counts gives, per
   frontier row, the classic "iterate the smallest candidate set"
   choice as one ``argmin``; rows where any atom offers zero
   candidates die here (dangling prefixes cost O(1) each, never a
   decode).
3. **Run-length expansion.**  The chosen ranges are expanded with the
   ``repeat``/``cumsum`` arithmetic of :func:`~repro.db.columnar.
   match_pairs` — candidates are gathered straight out of the atoms'
   child-value arrays into their final positions.
4. **k-way intersection.**  Every other constraining atom filters the
   candidates by one binary search against its ``(group, value)``
   member keys — the pairwise-merge intersection, done for all
   prefixes at once.

No tuple is ever decoded (``decoded_row_count`` stays zero up to the
public value boundary), and no per-prefix Python runs: the interpreter
cost per level is O(#atoms), not O(#prefixes).  Sharded relations are
columnar relations (the prefix tables are built from their coalesced
``codes()``), so they run this same level step.

Python-backend databases (and mixed-dictionary inputs, where codes are
not comparable across atoms) run the depth-first strategy over
hash-map tries (:class:`_AtomIndex`), driven by an explicit stack so
deep variable orders can never hit Python's recursion limit.  It
shares no code with the frontier path, which makes
``db.to_backend("python")`` the independent oracle the parity tests
compare the frontier against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.db.columnar import (
    ColumnarRelation,
    Dictionary,
    atom_codes,
    lookup_rows,
    unique_rows,
)
from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery

Assignment = Dict[str, object]

# Capped-witness search: with ``limit`` set the breadth-first run first
# caps every frontier at max(limit, _WITNESS_CAP) rows — almost always
# enough to find the requested witnesses — and falls back to the
# uncapped run only when the truncated search came up short.
_WITNESS_CAP = 1024


class _AtomIndex:
    """Per-atom trie-like access path for one global variable order.

    For an atom with variables ordered consistently with the global
    order, stores hash indexes from each prefix of the atom's variables
    to the possible next values — the 'sorted trie' of Leapfrog-style
    implementations, realized with dictionaries.
    """

    def __init__(
        self,
        relation_rows: Iterable[Tuple[object, ...]],
        atom_variables: Sequence[str],
        global_order: Sequence[str],
    ) -> None:
        rank = {v: i for i, v in enumerate(global_order)}
        distinct: List[str] = []
        first_pos: Dict[str, int] = {}
        for pos, var in enumerate(atom_variables):
            if var not in first_pos:
                first_pos[var] = pos
                distinct.append(var)
        self.ordered_vars: List[str] = sorted(distinct, key=rank.get)
        positions = [first_pos[v] for v in self.ordered_vars]
        # levels[d] maps a length-d prefix key to the set of values the
        # (d+1)-th ordered variable can take.
        self.levels: List[Dict[Tuple, Set[object]]] = [
            {} for _ in self.ordered_vars
        ]
        for row in relation_rows:
            ok = all(
                row[pos] == row[first_pos[var]]
                for pos, var in enumerate(atom_variables)
            )
            if not ok:
                continue
            key: Tuple = ()
            for depth, pos in enumerate(positions):
                value = row[pos]
                self.levels[depth].setdefault(key, set()).add(value)
                key = key + (value,)

    def candidates(self, assignment: Assignment, var: str) -> Optional[Set[object]]:
        """Possible values of ``var`` given the assignment so far.

        Returns ``None`` when the atom does not constrain ``var`` yet
        (``var`` not in the atom), otherwise the candidate set (possibly
        empty).
        """
        if var not in self.ordered_vars:
            return None
        depth = self.ordered_vars.index(var)
        key = tuple(assignment[v] for v in self.ordered_vars[:depth])
        return self.levels[depth].get(key, set())


def _sorted_prefixes(
    codes: np.ndarray,
    first_pos: Dict[str, int],
    ordered_vars: Sequence[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Lexsort an atom's distinct-variable submatrix; tag prefix breaks.

    Returns ``(sub, first_diff)``: the rows of ``codes`` restricted to
    the first-occurrence columns of ``ordered_vars`` in lexicographic
    order, and per row the first column where it differs from its
    predecessor (``-1`` for row 0, ``k`` for a duplicate row).  Row
    ``i`` starts a new ``d``-prefix group iff ``first_diff[i] < d``.
    """
    k = len(ordered_vars)
    sub = codes[:, [first_pos[v] for v in ordered_vars]]
    order = np.lexsort(tuple(sub[:, j] for j in reversed(range(k))))
    sub = sub[order]
    if len(sub) > 1:
        neq = sub[1:] != sub[:-1]
        any_neq = neq.any(axis=1)
        first_diff = np.where(any_neq, neq.argmax(axis=1), k)
        first_diff = np.concatenate(([-1], first_diff))
    else:
        first_diff = np.asarray([-1])
    return sub, first_diff


class _FrontierAtomIndex:
    """Sorted prefix tables for one atom, consumed a whole level at a time.

    Built once per query from one lexsort of the atom's code matrix
    (restricted to its distinct variables, reordered by global rank).
    Per atom depth ``d`` (``0 <= d < k``) it stores, as flat arrays:

    ``tables[d]``
        the distinct ``d``-prefixes, one row each, in lex order — the
        lookup table a frontier binary-searches to find its group;
    ``starts[d]``
        ``(G_d + 1,)`` offsets: the children of ``tables[d][g]`` (its
        possible next values) are ``ext[d][starts[d][g] :
        starts[d][g+1]]``, ascending;
    ``ext[d]``
        the next-value code of every distinct ``(d+1)``-prefix, grouped
        by parent prefix;
    ``member_keys[d]``
        ``group * M_d + value`` for every child, globally ascending —
        one sorted array that answers "is ``value`` among group ``g``'s
        children?" with a single ``searchsorted`` (``M_d`` is one past
        the largest child code).  When the product would overflow 63
        bits the index keeps the 2-column ``(group, value)`` table and
        answers through :func:`~repro.db.columnar.lookup_rows` instead.

    Everything is dictionary codes; nothing is ever decoded.
    """

    def __init__(
        self,
        relation: ColumnarRelation,
        atom_variables: Sequence[str],
        global_order: Sequence[str],
    ) -> None:
        distinct, first_pos, codes = atom_codes(relation, atom_variables)
        rank = {v: i for i, v in enumerate(global_order)}
        self.ordered_vars: List[str] = sorted(distinct, key=rank.get)
        self.depth_of: Dict[str, int] = {
            v: d for d, v in enumerate(self.ordered_vars)
        }
        # Frontier columns holding the atom's first d ordered variables
        # (all bound before the atom constrains its depth-d variable,
        # because ordered_vars is sorted by global rank).
        self.frontier_cols: List[List[int]] = [
            [rank[v] for v in self.ordered_vars[:d]]
            for d in range(len(self.ordered_vars))
        ]
        k = len(self.ordered_vars)
        self.tables: List[np.ndarray] = []
        self.starts: List[np.ndarray] = []
        self.ext: List[np.ndarray] = []
        self.member_keys: List[Optional[np.ndarray]] = []
        self.member_mult: List[int] = []
        self.member_table: List[Optional[np.ndarray]] = []
        if k == 0:
            return
        if not len(codes):
            empty64 = np.empty(0, dtype=np.int64)
            for d in range(k):
                self.tables.append(np.empty((0, d), dtype=np.int64))
                self.starts.append(np.zeros(1, dtype=np.int64))
                self.ext.append(empty64)
                self.member_keys.append(empty64)
                self.member_mult.append(1)
                self.member_table.append(None)
            return
        sub, first_diff = _sorted_prefixes(codes, first_pos, self.ordered_vars)
        for d in range(k):
            parents = np.flatnonzero(first_diff < d)
            children = np.flatnonzero(first_diff < d + 1)
            self.tables.append(sub[parents][:, :d])
            group_start = np.flatnonzero(first_diff[children] < d)
            self.starts.append(
                np.concatenate(
                    [group_start, [len(children)]]
                ).astype(np.int64, copy=False)
            )
            ext = sub[children, d]
            self.ext.append(ext)
            counts = np.diff(self.starts[d])
            groups = np.repeat(
                np.arange(len(parents), dtype=np.int64), counts
            )
            mult = int(ext.max()) + 1 if len(ext) else 1
            if len(parents) <= (2**62) // max(mult, 1):
                self.member_keys.append(groups * mult + ext)
                self.member_mult.append(mult)
                self.member_table.append(None)
            else:  # pragma: no cover - needs ~2^62 group×code product
                self.member_keys.append(None)
                self.member_mult.append(mult)
                self.member_table.append(
                    np.stack([groups, ext], axis=1)
                )

    def lookup(
        self, frontier: np.ndarray, depth: int, cardinality: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per frontier row: its prefix group (or -1) and candidate count."""
        table = self.tables[depth]
        sub = frontier[:, self.frontier_cols[depth]]
        if not len(table):
            n = len(frontier)
            return (
                np.full(n, -1, dtype=np.int64),
                np.zeros(n, dtype=np.int64),
            )
        group = lookup_rows(sub, table, cardinality)
        safe = np.maximum(group, 0)
        starts = self.starts[depth]
        counts = np.where(group >= 0, starts[safe + 1] - starts[safe], 0)
        return group, counts

    def member(
        self, depth: int, groups: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Is ``values[i]`` among the children of group ``groups[i]``?"""
        keys = self.member_keys[depth]
        if keys is None:  # pragma: no cover - overflow fallback
            cand = np.stack([groups, values], axis=1)
            card = max(
                len(self.tables[depth]) + 1, self.member_mult[depth]
            )
            return lookup_rows(cand, self.member_table[depth], card) >= 0
        mult = self.member_mult[depth]
        valid = values < mult
        probe = groups * mult + np.minimum(values, mult - 1)
        pos = np.searchsorted(keys, probe)
        pos = np.minimum(pos, len(keys) - 1) if len(keys) else pos
        ok = np.zeros(len(values), dtype=bool)
        if len(keys):
            ok = keys[pos] == probe
        return ok & valid


def _extend_frontier(
    frontier: np.ndarray,
    constraining: List[Tuple[_FrontierAtomIndex, int]],
    cardinality: int,
) -> np.ndarray:
    """One breadth-first level step: extend every prefix at once.

    ``constraining`` pairs each atom containing the new variable with
    the variable's depth inside that atom.  Output rows are the alive
    extensions in canonical order (frontier order × ascending candidate
    code), as a fresh ``(n', t+1)`` matrix.
    """
    width = frontier.shape[1]
    if not len(frontier):
        return np.empty((0, width + 1), dtype=np.int64)
    # 1. range lookup: per atom, each prefix's group and candidate count.
    groups: List[np.ndarray] = []
    count_rows: List[np.ndarray] = []
    for index, depth in constraining:
        group, counts = index.lookup(frontier, depth, cardinality)
        groups.append(group)
        count_rows.append(counts)
    counts = np.stack(count_rows, axis=0)
    alive = (counts > 0).all(axis=0)
    if not alive.any():
        return np.empty((0, width + 1), dtype=np.int64)
    if not alive.all():
        frontier = frontier[alive]
        counts = counts[:, alive]
        groups = [g[alive] for g in groups]
    n = len(frontier)
    # 2. smallest candidate set per prefix (first minimal atom wins —
    # deterministic, and set semantics make any minimal choice correct).
    chooser = np.argmin(counts, axis=0)
    chosen = counts[chooser, np.arange(n)]
    offsets = np.cumsum(chosen) - chosen
    total = int(chosen.sum())
    # 3. run-length expansion of the chosen ranges into final positions.
    values = np.empty(total, dtype=np.int64)
    parent = np.repeat(np.arange(n, dtype=np.int64), chosen)
    for j, (index, depth) in enumerate(constraining):
        rows = np.flatnonzero(chooser == j)
        if not len(rows):
            continue
        cj = chosen[rows]
        tot = int(cj.sum())
        within = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(cj) - cj, cj
        )
        src = np.repeat(index.starts[depth][groups[j][rows]], cj) + within
        dst = np.repeat(offsets[rows], cj) + within
        values[dst] = index.ext[depth][src]
    # 4. k-way intersection: every non-chooser atom filters by one
    # binary search against its (group, value) member keys.
    keep = np.ones(total, dtype=bool)
    if len(constraining) > 1:
        chooser_of = chooser[parent]
        for j, (index, depth) in enumerate(constraining):
            rows = np.flatnonzero(chooser_of != j)
            if not len(rows):
                continue
            keep[rows] &= index.member(
                depth, groups[j][parent[rows]], values[rows]
            )
    if not keep.all():
        parent = parent[keep]
        values = values[keep]
    out = np.empty((len(values), width + 1), dtype=np.int64)
    out[:, :width] = frontier[parent]
    out[:, width] = values
    return out


def _shared_dictionary(
    query: ConjunctiveQuery, db: Database
) -> Optional[Dictionary]:
    """The single dictionary of the query's relations, or ``None``.

    ``None`` means the frontier strategy does not apply: a python
    -backend relation has no codes, and codes from different
    dictionaries are not comparable across atoms.
    """
    from repro.joins.vectorized import relation_family

    return relation_family(db[atom.relation] for atom in query.atoms)


def _frontier_run(
    query: ConjunctiveQuery,
    db: Database,
    global_order: Sequence[str],
    cardinality: int,
    cap: Optional[int],
    bound: Optional[Tuple[int, ColumnarRelation]] = None,
) -> Tuple[np.ndarray, bool]:
    """The breadth-first join over the full order; (matrix, truncated?).

    The returned matrix has one column per variable of
    ``global_order`` and one (distinct) row per answer of the join
    query over all variables.  ``cap`` bounds every frontier for the
    capped witness search; the flag reports whether it ever bit.
    ``bound = (i, relation)`` reads atom ``i`` from ``relation``
    instead of the database — the delta run of
    :func:`generic_join_delta_codes`.
    """
    relations = [db[a.relation] for a in query.atoms]
    if bound is not None:
        relations[bound[0]] = bound[1]
    indexes = [
        _FrontierAtomIndex(relation, a.variables, global_order)
        for relation, a in zip(relations, query.atoms)
    ]
    frontier = np.zeros((1, 0), dtype=np.int64)
    truncated = False
    for t, var in enumerate(global_order):
        constraining = [
            (index, index.depth_of[var])
            for index in indexes
            if var in index.depth_of
        ]
        frontier = _extend_frontier(frontier, constraining, cardinality)
        if cap is not None and len(frontier) > cap:
            frontier = frontier[:cap]
            truncated = True
        if not len(frontier):
            # A dead level kills every prefix: the join is empty.
            return (
                np.empty((0, len(global_order)), dtype=np.int64),
                False,
            )
    return frontier, truncated


def _project_head(
    matrix: np.ndarray,
    global_order: Sequence[str],
    head: Sequence[str],
    cardinality: int,
) -> np.ndarray:
    """Project full-order answer rows onto the head (set semantics)."""
    position = {v: i for i, v in enumerate(global_order)}
    sub = matrix[:, [position[v] for v in head]]
    if len(head) == len(global_order):
        return sub  # a permutation: rows stay distinct
    return unique_rows(sub, cardinality)


def _empty_atom_falsifies(query: ConjunctiveQuery, db: Database) -> bool:
    # Arity-0 atoms bind no variables, so neither strategy ever
    # consults them; an empty one nevertheless falsifies the query.
    return any(
        not atom.scope and db[atom.relation].is_empty()
        for atom in query.atoms
    )


def generic_join_codes(
    query: ConjunctiveQuery,
    db: Database,
    order: Optional[Sequence[str]] = None,
) -> Optional[Tuple[np.ndarray, Tuple[str, ...]]]:
    """Code-level Generic Join: the head's answer code matrix, no decodes.

    Returns ``(codes, head)`` — one distinct row per answer, columns in
    head order, values as dictionary codes — or ``None`` when the
    frontier strategy does not apply (python backend or mixed
    dictionaries).  This is the
    zero-decode entry point for counting and semiring aggregation over
    cyclic queries; :func:`generic_join` is the same computation with a
    decode at the value boundary.
    """
    query.validate_database(db)
    dictionary = _shared_dictionary(query, db)
    if dictionary is None:
        return None
    head = tuple(query.head)
    if _empty_atom_falsifies(query, db):
        return np.empty((0, len(head)), dtype=np.int64), head
    global_order = _choose_order(query, order, db)
    cardinality = len(dictionary)
    matrix, _ = _frontier_run(query, db, global_order, cardinality, None)
    return _project_head(matrix, global_order, head, cardinality), head


def generic_join_delta_codes(
    query: ConjunctiveQuery,
    db: Database,
    atom_index: int,
    delta: np.ndarray,
) -> np.ndarray:
    """The delta join: answers that use a ``delta`` tuple at one atom.

    ``delta`` holds coded tuples (full arity) of atom ``atom_index``'s
    relation; the result is the head code matrix of the answers of the
    join query ``query`` over ``db`` whose ``atom_index``-th atom maps
    to one of them — every other atom, including further atoms over
    the same relation, reads the database.  The atom's variables lead
    the order, so the first frontiers are no wider than ``delta`` and
    the run costs what the changed tuples join with, not Õ(m^{ρ*}).
    Summed over the atoms of a changed relation with ``delta`` its net
    inserts, these are exactly the answers the inserts created (an
    answer of a join query uses one tuple per atom).

    Requires what :func:`generic_join_codes` requires to return codes:
    columnar relations over one shared dictionary.
    """
    if not query.is_join_query():
        raise ValueError("generic_join_delta_codes requires a join query")
    dictionary = _shared_dictionary(query, db)
    if dictionary is None:
        raise ValueError("delta joins run on columnar databases only")
    head = tuple(query.head)
    if _empty_atom_falsifies(query, db):
        return np.empty((0, len(head)), dtype=np.int64)
    atom = query.atoms[atom_index]
    changed = ColumnarRelation(atom.relation, atom.arity, dictionary=dictionary)
    changed.add_coded_batch(delta)
    global_order = _choose_order(query, None, db, first=atom.variables)
    cardinality = len(dictionary)
    matrix, _ = _frontier_run(
        query, db, global_order, cardinality, None, (atom_index, changed)
    )
    return _project_head(matrix, global_order, head, cardinality)


def generic_join(
    query: ConjunctiveQuery,
    db: Database,
    order: Optional[Sequence[str]] = None,
    limit: Optional[int] = None,
) -> Set[Tuple]:
    """All answers to ``query`` by Generic Join; Õ(m^{ρ*}) for join queries.

    Projections are applied at the end (set semantics); for genuinely
    projected queries prefer the free-connex pipeline.  ``limit`` stops
    the search once that many *head* tuples were produced — with
    ``limit=1`` this is the Boolean early-exit used by
    :func:`generic_join_boolean`.

    Columnar inputs run the breadth-first frontier strategy (module
    docstring) and decode only the final head rows; everything else
    runs the depth-first search.  Both strategies visit the
    same prefix tree, so their answer sets are identical.
    """
    query.validate_database(db)
    if _empty_atom_falsifies(query, db):
        return set()
    global_order = _choose_order(query, order, db)
    dictionary = _shared_dictionary(query, db)
    if dictionary is None:
        return _generic_join_stack(query, db, global_order, limit)
    cardinality = len(dictionary)
    head = tuple(query.head)
    cap = None if limit is None else max(limit, _WITNESS_CAP)
    while True:
        matrix, truncated = _frontier_run(
            query, db, global_order, cardinality, cap
        )
        head_codes = _project_head(matrix, global_order, head, cardinality)
        if limit is None or not truncated or len(head_codes) >= limit:
            break
        cap = None  # capped witness search came up short: run in full
    answers = set(dictionary.decode_rows(head_codes))
    if limit is not None and len(answers) > limit:
        answers = set(list(answers)[:limit])
    return answers


def _generic_join_stack(
    query: ConjunctiveQuery,
    db: Database,
    global_order: Sequence[str],
    limit: Optional[int],
) -> Set[Tuple]:
    """The depth-first strategy, driven by an explicit stack.

    One stack frame per bound variable — an iterator over the smallest
    candidate set plus the other sets to intersect against — so a
    60-variable chain is 60 list entries, not 60 interpreter frames:
    deep variable orders can never trip Python's recursion limit.
    """
    indexes = [
        _AtomIndex(db[a.relation], a.variables, global_order)
        for a in query.atoms
    ]
    head = tuple(query.head)
    answers: Set[Tuple] = set()
    depth_target = len(global_order)
    if depth_target == 0:
        answers.add(())
        return answers
    assignment: Assignment = {}
    frames: List[Tuple[str, object, List[Set[object]]]] = []

    def push(depth: int) -> None:
        var = global_order[depth]
        candidate_sets = [
            c
            for idx in indexes
            if (c := idx.candidates(assignment, var)) is not None
        ]
        if not candidate_sets:  # pragma: no cover - defensive
            # Cannot happen: every query variable occurs in some atom,
            # and atom tries are keyed consistently with the global
            # order, so at least one atom constrains ``var`` here.
            raise RuntimeError(f"variable {var!r} is unconstrained")
        smallest = min(candidate_sets, key=len)
        others = [c for c in candidate_sets if c is not smallest]
        frames.append((var, iter(smallest), others))

    push(0)
    while frames:
        var, values, others = frames[-1]
        descended = False
        for value in values:
            if others and not all(value in c for c in others):
                continue
            assignment[var] = value
            if len(frames) == depth_target:
                answers.add(tuple(assignment[v] for v in head))
                if limit is not None and len(answers) >= limit:
                    return answers
                # Leaf level: keep draining this iterator in place.
                continue
            push(len(frames))
            descended = True
            break
        if not descended:
            frames.pop()
    return answers


def _choose_order(
    query: ConjunctiveQuery,
    order: Optional[Sequence[str]],
    db: Optional[Database] = None,
    first: Sequence[str] = (),
) -> List[str]:
    """The global variable order: ``order`` if given, else the heuristic.

    ``first`` seeds the heuristic with variables that must lead the
    order (the delta run puts the changed atom's variables there).
    """
    if order is not None:
        order = list(order)
        if set(order) != set(query.variables) or len(order) != len(
            set(order)
        ):
            raise ValueError(
                "variable order must be a permutation of query variables"
            )
        return order
    # Heuristic: repeatedly pick the variable appearing in the most
    # atoms among those adjacent to already-chosen variables (connected
    # orders avoid needless cross products).  Ties break toward the
    # variable with the fewest distinct values in any column holding it
    # (measured from the dictionary codes, cached per relation): a
    # low-cardinality variable keeps the breadth-first frontier narrow
    # on skewed inputs, where a purely structural tie-break can pick an
    # order whose frontier explodes.
    chosen: List[str] = list(dict.fromkeys(first))
    remaining = set(query.variables).difference(chosen)
    distinct_of: Dict[str, int] = {}
    if db is not None and len(remaining) > 1:  # else: no tie to break
        for atom in query.atoms:
            rel = db[atom.relation]
            counter = getattr(rel, "column_distinct_counts", None)
            if counter is None:
                continue
            counts = counter()
            for pos, var in enumerate(atom.variables):
                count = counts[pos]
                if var not in distinct_of or count < distinct_of[var]:
                    distinct_of[var] = count
    while remaining:
        def score(v: str) -> Tuple[int, int, int, str]:
            in_atoms = sum(1 for a in query.atoms if v in a.scope)
            connected = any(
                v in a.scope and any(c in a.scope for c in chosen)
                for a in query.atoms
            )
            return (
                1 if connected or not chosen else 0,
                in_atoms,
                -distinct_of.get(v, 0),
                v,
            )

        best = max(sorted(remaining), key=score)
        chosen.append(best)
        remaining.discard(best)
    return chosen


def generic_join_boolean(
    query: ConjunctiveQuery,
    db: Database,
    order: Optional[Sequence[str]] = None,
) -> bool:
    """Boolean evaluation with early exit on the first witness.

    On columnar inputs the frontier strategy runs its capped witness
    search — every level's frontier is truncated, which finds a
    witness after touching a bounded slice of the prefix tree.
    """
    return bool(generic_join(query.as_boolean(), db, order=order, limit=1))
