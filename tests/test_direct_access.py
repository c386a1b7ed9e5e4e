"""Lexicographic and sum-order direct access, and the testing oracle
(Theorems 3.24/3.26, Lemmas 3.20/3.21)."""

import itertools
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.direct_access import (
    LexDirectAccess,
    SumOrderDirectAccess,
    TestingOracle,
)
from repro.direct_access.layered import VIRTUAL_ROOT, find_layered_tree
from repro.direct_access.sum_order import covering_atom_index, uncovered_pair
from repro.engine import plan_query
from repro.engine.planner import _choose_order
from repro.hypergraph.freeconnex import is_free_connex
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree
from repro.hypergraph.trios import (
    _first_trio,
    has_disruptive_trio,
    trio_free_order,
)
from repro.query import catalog, parse_query
from repro.workloads import random_database

from tests.layered_oracle import exhaustive_layered_tree
from tests.strategies import acyclic_hypergraph_edges, queries_with_databases


def sorted_answers(query, db, order):
    answers = query.evaluate_brute_force(db)
    head = tuple(query.head)
    key_positions = [head.index(v) for v in order]
    return sorted(
        answers, key=lambda row: tuple(row[p] for p in key_positions)
    )


# ---------------------------------------------------------------------
# layered trees: disruptive trios, and the one pass vs the exhaustive search
# ---------------------------------------------------------------------

def bags_of(query):
    return {
        i: frozenset(atom.scope) for i, atom in enumerate(query.atoms)
    }


@pytest.mark.parametrize(
    "query",
    [
        catalog.path_query(2),
        catalog.path_query(3),
        catalog.star_query_full(3, self_join_free=True),
        catalog.semijoin_reducible_query(),
    ],
    ids=lambda q: q.name,
)
def test_layered_tree_exists_iff_no_disruptive_trio(query):
    """Every order of these catalog queries: a layered tree exists
    exactly when the order has no disruptive trio.  "Layered ⇒
    trio-free" holds for every query; the converse holds for these
    only, since a trio-free order may split an atom's block (next
    test)."""
    for order in itertools.permutations(sorted(query.variables)):
        layered = find_layered_tree(bags_of(query), order)
        trio = has_disruptive_trio(query, order)
        assert (layered is None) == trio, (order, trio)


def test_trio_free_order_can_split_an_atom_block():
    query = parse_query("q(x, u, v, w) :- R(x, u, w), S(x, v)")
    order = ("x", "u", "v", "w")
    assert not has_disruptive_trio(query, order)
    assert find_layered_tree(bags_of(query), order) is None


def test_layered_tree_order_validation():
    query = catalog.path_query(2)
    with pytest.raises(ValueError):
        find_layered_tree(bags_of(query), ("v1", "v2"))


@pytest.mark.parametrize(
    "edges",
    [
        # A bag opened under the deepest fitting node keeps D active for
        # {u, w} (a > p > u > v > w); the shallowest would close it.
        ["ap", "au", "av", "uw"],
        # Duplicate, contained and empty bags, and two components.
        ["xy", "yx", "y", "yz", "", "st", "t"],
        # A star whose hub is a bag of its own, one leaf extended.
        ["xa", "xb", "xc", "x", "ad"],
    ],
    ids=["deepest-parent", "duplicates-and-components", "star-with-hub"],
)
def test_one_pass_layered_tree_matches_exhaustive_search_on_every_order(edges):
    bags = dict(enumerate(frozenset(edge) for edge in edges))
    variables = sorted(frozenset().union(*bags.values()))
    for order in itertools.permutations(variables):
        layered = find_layered_tree(bags, order)
        oracle = exhaustive_layered_tree(bags, order)
        assert (layered is None) == (oracle is None), order


@st.composite
def acyclic_bag_families(draw):
    """Acyclic bag families with duplicate, contained and empty bags and
    several components (the second family shares no variable)."""
    edges = list(draw(acyclic_hypergraph_edges(max_vertices=6)))
    if draw(st.booleans()):
        second = draw(acyclic_hypergraph_edges(max_vertices=3))
        edges += [frozenset("w" + v[1:] for v in edge) for edge in second]
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    if draw(st.booleans()):
        edges.append(frozenset())
    return dict(enumerate(draw(st.permutations(edges))))


@settings(max_examples=100, deadline=None)
@given(acyclic_bag_families(), st.data())
def test_one_pass_layered_tree_matches_exhaustive_search(bags, data):
    """The one pass along the order gives the exhaustive search's
    verdict, on random orders, the maximum-cardinality trio-free order
    and the planner's own; each tree it returns is a valid join forest
    and each order it accepts is trio-free."""
    variables = sorted(frozenset().union(*bags.values()))
    adjacency = Hypergraph(frozenset(variables), bags.values()).primal_graph()
    shuffled = tuple(data.draw(st.permutations(variables)))
    planned = _choose_order(bags, shuffled, None)
    assert find_layered_tree(bags, planned) is not None
    for order in (shuffled, trio_free_order(bags.values()), planned):
        layered = find_layered_tree(bags, order)
        oracle = exhaustive_layered_tree(bags, order)
        assert (layered is None) == (oracle is None), order
        if layered is None:
            continue
        parent = {
            node: par
            for node, par in layered.parent.items()
            if par not in (None, VIRTUAL_ROOT)
        }
        JoinTree(bags=bags, parent=parent).validate()
        assert _first_trio(adjacency, order) is None


# ---------------------------------------------------------------------
# lexicographic direct access
# ---------------------------------------------------------------------

GOOD_CASES = [
    (catalog.path_query(2), ("v1", "v2", "v3")),
    (catalog.path_query(2), ("v2", "v1", "v3")),
    (catalog.path_query(2), ("v3", "v2", "v1")),
    (catalog.path_query(3), ("v1", "v2", "v3", "v4")),
    (catalog.star_query_full(2, self_join_free=True), ("z", "x1", "x2")),
    (catalog.star_query_full(3), ("z", "x1", "x2", "x3")),
    (catalog.semijoin_reducible_query(), ("y", "x", "z", "w")),
]


@pytest.mark.parametrize(
    "query, order", GOOD_CASES, ids=lambda x: str(x)
)
def test_lex_access_matches_sorted_brute_force(query, order):
    db = random_database(query, 50, 5, seed=91)
    accessor = LexDirectAccess(query, db, order=order)
    assert accessor.mode == "layered"
    expected = sorted_answers(query, db, order)
    assert accessor.materialize() == expected


def test_lex_access_projected_free_connex_query():
    query = parse_query("q(x, y) :- R(x, y, a), S(a, b)")
    db = random_database(query, 60, 5, seed=92)
    accessor = LexDirectAccess(query, db, order=("y", "x"))
    assert accessor.materialize() == sorted_answers(query, db, ("y", "x"))


def test_lex_access_out_of_range_errors():
    query = catalog.path_query(2)
    db = random_database(query, 20, 4, seed=93)
    accessor = LexDirectAccess(query, db)
    with pytest.raises(IndexError):
        accessor.access(len(accessor))
    with pytest.raises(IndexError):
        accessor.access(-1)


def test_lex_access_strict_rejects_trio_order():
    query = catalog.path_query(2)
    db = random_database(query, 20, 4, seed=94)
    with pytest.raises(ValueError):
        LexDirectAccess(query, db, order=("v1", "v3", "v2"))


def test_lex_access_fallback_matches():
    query = catalog.path_query(2)
    db = random_database(query, 40, 5, seed=95)
    accessor = LexDirectAccess(
        query, db, order=("v1", "v3", "v2"), strict=False
    )
    assert accessor.mode == "materialized"
    assert accessor.materialize() == sorted_answers(
        query, db, ("v1", "v3", "v2")
    )


@pytest.mark.parametrize("backend", ("columnar", "sharded"))
@pytest.mark.parametrize(
    "text, order",
    [
        # Acyclic, not free-connex: the Yannakakis projection produces.
        ("q(x, z) :- R(x, y), S(y, z)", ("z", "x")),
        # Cyclic: Generic Join does.
        ("q(x, y, z) :- R(x, y), S(y, z), T(z, x)", ("y", "z", "x")),
    ],
    ids=["acyclic", "cyclic"],
)
def test_lex_access_fallback_parity_across_backends(text, order, backend):
    query = parse_query(text)
    db = random_database(query, 40, 5, seed=97).to_backend(backend)
    accessor = LexDirectAccess(query, db, order=order, strict=False)
    assert accessor.mode == "materialized"
    expected = sorted_answers(query, db, order)
    assert len(expected) > 3
    assert accessor.materialize() == expected
    assert_range_parity(accessor)


def test_lex_access_empty_result():
    query = parse_query("q(x, y) :- R(x, y), S(y)")
    db = Database()
    db.add_relation(ColumnarRelation("R", 2, [(1, 2)]))
    db.add_relation(ColumnarRelation("S", 1))
    accessor = LexDirectAccess(query, db)
    assert len(accessor) == 0
    with pytest.raises(IndexError):
        accessor.access(0)


def test_lex_access_default_order_is_head():
    query = catalog.path_query(2)
    db = random_database(query, 30, 5, seed=96)
    accessor = LexDirectAccess(query, db)
    assert accessor.materialize() == sorted(
        query.evaluate_brute_force(db)
    )


def test_lex_access_order_validation():
    query = catalog.path_query(2)
    db = random_database(query, 5, 4, seed=97)
    with pytest.raises(ValueError):
        LexDirectAccess(query, db, order=("v1", "v2"))
    with pytest.raises(ValueError):
        LexDirectAccess(query.as_boolean(), db)


def test_lex_access_random_probes_match():
    query = catalog.star_query_full(3)
    db = random_database(query, 60, 4, seed=98)
    order = ("z", "x1", "x2", "x3")
    accessor = LexDirectAccess(query, db, order=order)
    expected = sorted_answers(query, db, order)
    assert len(accessor) == len(expected)
    for index in (0, len(expected) // 3, len(expected) - 1):
        assert accessor.access(index) == expected[index]


@given(queries_with_databases(max_atoms=3, max_tuples=10))
def test_lex_access_property(query_db):
    query, db = query_db
    assume(query.head)
    assume(is_free_connex(query))
    order = tuple(sorted(query.head))
    try:
        accessor = LexDirectAccess(query, db, order=order)
    except ValueError:
        assume(False)  # no layered tree for this order
        return
    assert accessor.materialize() == sorted_answers(query, db, order)


# ---------------------------------------------------------------------
# block reads: access_range(a, b, s) == [access(i) for i in range(a, b, s)]
# ---------------------------------------------------------------------

def assert_range_parity(accessor, ranges=()):
    n = accessor.count()
    reference = [accessor.access(i) for i in range(n)]
    fixed = [
        (0, n, 1),  # everything: crosses every node-block boundary
        (n - 1, -1, -1),
        (0, n, 3),
        (n - 1, -1, -2),
        (n // 2, n // 2, 1),  # empty
        (n, 0, 1),  # empty although both ends are off
        (5, 2, 1),
    ]
    for start, stop, step in fixed + list(ranges):
        indices = range(start, stop, step)
        if indices and not (
            0 <= indices[0] < n and 0 <= indices[-1] < n
        ):
            with pytest.raises(IndexError):
                accessor.access_range(start, stop, step)
        else:
            assert accessor.access_range(start, stop, step) == [
                reference[i] for i in indices
            ], (start, stop, step)
    for bad in ((0, n + 1, 1), (-1, n, 1), (n, n + 1, 1), (n, -1, -1)):
        with pytest.raises(IndexError):
            accessor.access_range(*bad)
    return reference


@given(queries_with_databases(max_atoms=3, max_tuples=10), st.data())
def test_access_range_matches_access(query_db, data):
    query, db = query_db
    assume(query.head)
    assume(is_free_connex(query))
    # The planner's order is admissible by construction, so strict
    # construction below doubles as a check of that claim.
    order = plan_query(query, size=0).tree_order
    expected = sorted_answers(query, db, order)
    bound = len(expected) + 2
    ranges = data.draw(
        st.lists(
            st.tuples(
                st.integers(-2, bound),
                st.integers(-2, bound),
                st.sampled_from([1, 2, 3, 7, -1, -2, -5]),
            ),
            max_size=4,
        )
    )
    for backend in ("columnar", "sharded"):
        stored = db.to_backend(backend)
        # "refresh" builds the patchable unreduced stores on coded
        # join queries, "error" the fully reduced ones.
        for on_stale in ("error", "refresh"):
            accessor = LexDirectAccess(
                query, stored, order=order, on_stale=on_stale
            )
            assert assert_range_parity(accessor, ranges) == expected


@pytest.mark.parametrize("backend", ["columnar", "sharded"])
def test_access_range_on_a_patched_store_with_zero_count_rows(backend):
    query = parse_query("q(a, b, c) :- R(a, b), S(b, c)")
    r_rows = [(a, a % 4) for a in range(12)]
    s_rows = [(b, c) for b in range(4) for c in range(3)]
    db = Database.from_dict({"R": r_rows, "S": s_rows}, backend=backend)
    accessor = LexDirectAccess(query, db, on_stale="refresh")
    full = assert_range_parity(accessor)
    assert full == sorted_answers(query, db, query.head)
    # Delete one side of the join key b=2: the R rows on it stay in the
    # store with subtree count 0 and no S block to descend into.
    for row in s_rows:
        if row[0] == 2:
            db["S"].discard(row)
    without = assert_range_parity(accessor)
    assert without == [row for row in full if row[1] != 2]
    # ... and a first row, a last row and a whole first block of them.
    for row in [(0, 0), (11, 3)] + [(4 * k, 0) for k in range(1, 3)]:
        db["R"].discard(row)
        db["S"].discard((row[1], 0))
    assert assert_range_parity(accessor) == sorted_answers(
        query, db, query.head
    )
    for row in s_rows:
        db["S"].add(row)
    db["R"].add((0, 0))
    assert assert_range_parity(accessor) == sorted_answers(
        query, db, query.head
    )
    assert accessor.rebuilds == 0


@st.composite
def _patch_batches(draw):
    """A query, its rows, and k mixed ops applied before one refresh:
    values -2..8 against rows built on 0..5, so fresh values rank
    before and after every build-time value and open new blocks at
    both ends; ``"empty"`` deletes every row on one first-column value
    (a whole block of the child keyed on it)."""
    text = draw(
        st.sampled_from(
            [
                "q(a, b, c) :- R(a, b), S(b, c)",
                "q(a, b) :- R(a, b), S(b, c), T(c, d)",
            ]
        )
    )
    query = parse_query(text)
    names = sorted(query.relation_symbols)
    built = st.tuples(st.integers(0, 5), st.integers(0, 5))
    rows = {name: draw(st.lists(built, max_size=12)) for name in names}
    wide = st.tuples(st.integers(-2, 8), st.integers(-2, 8))
    op = st.tuples(
        st.sampled_from(["add", "add", "discard", "empty"]),
        st.sampled_from(names),
        wide,
    )
    k = draw(st.sampled_from([1, 2, 64]))
    return query, rows, draw(st.lists(op, min_size=k, max_size=k))


@given(
    _patch_batches(),
    st.sampled_from(
        [{"backend": "columnar"}, {"backend": "sharded", "shard_count": 3}]
    ),
)
def test_one_refresh_after_a_batch_equals_a_fresh_build(batch, storage):
    query, rows, ops = batch
    db = Database(**storage)
    for name, present in rows.items():
        db.add_relation(db.new_relation(name, 2, present))
    accessor = LexDirectAccess(query, db, on_stale="refresh")
    accessor.count()
    touched = {name: set() for name in rows}
    for kind, name, row in ops:
        if kind == "add":
            gone, new = [], [row]
        elif kind == "discard":
            gone, new = [row], []
        else:
            gone, new = [r for r in db[name] if r[0] == row[0]], []
        for r in gone:
            db[name].discard(r)
        for r in new:
            db[name].add(r)
        touched[name].update(gone + new)
    fresh = LexDirectAccess(query, db)
    n = fresh.count()
    assert accessor.count() == n
    assert accessor.access_range(0, n) == fresh.access_range(0, n)
    assert fresh.access_range(0, n) == sorted_answers(query, db, query.head)
    if all(len(t) <= 64 for t in touched.values()):  # history kept
        assert accessor.rebuilds == 0


def test_access_range_wide_separator_past_64_bit_packing():
    # A 5-column separator over > 8192 codes cannot be packed into one
    # int64 key: block lookup falls back to joint ranks, which must be
    # as monotone over the lex-sorted representatives as packed keys.
    query = parse_query(
        "q(a, b, c, d, e, f, g) :- R(a, b, c, d, e, f), S(b, c, d, e, f, g)"
    )
    r_rows = [(i, i % 3, i % 5, i % 7, i % 2, i % 11) for i in range(9000)]
    s_rows = [
        (i % 3, i % 5, i % 7, i % 2, i % 11, 9000 + i % 4)
        for i in range(0, 9000, 7)
    ]
    db = Database.from_dict({"R": r_rows, "S": s_rows}, backend="columnar")
    accessor = LexDirectAccess(query, db, on_stale="refresh")
    n = accessor.count()
    assert n > 2000
    assert accessor.access_range(0, n, 37) == [
        accessor.access(i) for i in range(0, n, 37)
    ]


def test_access_range_materialized_mode():
    query = catalog.path_query(2)
    db = random_database(query, 40, 5, seed=95)
    accessor = LexDirectAccess(
        query, db, order=("v1", "v3", "v2"), strict=False
    )
    assert accessor.mode == "materialized"
    assert_range_parity(accessor)


# A contiguous range is expanded from runs of store rows, not searched:
# these pin it to the scalar descent of ``access`` on every tree shape
# the expansion treats apart.
_EXPANDED_SHAPES = [
    "q(a, b, c) :- R(a, b), S(b, c)",  # a chain
    "q(x, y, z) :- R(x, y), S(x, z)",  # a node with two children
    "q(x, y) :- R(x), S(y)",  # a virtual root over two components
    "q(x, y, z) :- R(x, y), S(y, z), T(z, w)",  # a projection
]


@given(
    st.sampled_from(_EXPANDED_SHAPES),
    st.sampled_from(
        [{"backend": "columnar"}, {"backend": "sharded", "shard_count": 3}]
    ),
    st.booleans(),
    st.data(),
)
def test_contiguous_ranges_equal_single_accesses(text, storage, patched, data):
    query = parse_query(text)
    value = st.integers(0, 4)
    rows = {
        atom.relation: data.draw(
            st.lists(st.tuples(*[value] * len(atom.variables)), max_size=12)
        )
        for atom in query.atoms
    }
    db = Database(**storage)
    for atom in query.atoms:
        db.add_relation(
            db.new_relation(atom.relation, len(atom.variables), rows[atom.relation])
        )
    accessor = LexDirectAccess(query, db, on_stale="refresh")
    accessor.count()
    if patched:
        # Deleting rows that others join with leaves zero-count rows in
        # the maintained stores; a few adds revive or open blocks.
        for atom in query.atoms:
            relation = db[atom.relation]
            present = sorted(relation)
            if present:
                for row in data.draw(st.sets(st.sampled_from(present))):
                    relation.discard(row)
            for row in data.draw(
                st.lists(st.tuples(*[value] * len(atom.variables)), max_size=2)
            ):
                relation.add(row)
    n = accessor.count()
    assert n == len(sorted_answers(query, db, query.head))
    assume(n)
    single = [accessor.access(i) for i in range(n)]
    assert single == sorted_answers(query, db, query.head)
    # Ranges start and stop anywhere, so inside rows of every node and
    # across the blocks below them.
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    for start in [0] + starts:
        stop = data.draw(st.integers(start + 1, n))
        assert accessor.access_range(start, stop) == single[start:stop], (
            start,
            stop,
        )
    assert accessor.rebuilds == 0


def test_a_block_read_does_not_expand_the_subtree_past_it():
    # One R row above 200 000 S rows: the R row's count is the whole
    # product, so expanding it before trimming would touch 200 000
    # answers for a 128-row block.
    query = parse_query("q(x, y) :- R(x), S(y)")
    db = Database.from_dict(
        {"R": [(0,)], "S": [(y,) for y in range(200_000)]},
        backend="columnar",
    )
    accessor = LexDirectAccess(query, db)
    block = 128
    start = accessor.count() // 2
    accessor.access_range(start, start + block)  # warm, lazy state built
    tracemalloc.start()
    try:
        rows = accessor.access_range(start, start + block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == [(0, y) for y in range(start, start + block)]
    output = block * len(query.head) * 8  # the block's code matrix
    assert peak < 16 * output, peak


# ---------------------------------------------------------------------
# sum-order direct access
# ---------------------------------------------------------------------

def test_covering_atom_detection():
    assert covering_atom_index(parse_query("q(x, y) :- R(x, y)")) == 0
    assert covering_atom_index(catalog.path_query(2)) is None
    assert uncovered_pair(catalog.path_query(2)) == ("v1", "v3")
    assert uncovered_pair(parse_query("q(x, y) :- R(x, y)")) is None


def test_sum_order_single_atom():
    query = parse_query("q(x, y) :- R(x, y)")
    db = random_database(query, 40, 10, seed=99)
    weights = {i: (7 * i) % 13 - 6 for i in range(10)}
    accessor = SumOrderDirectAccess(query, db, weights)
    assert accessor.mode == "covering"
    rows = [accessor.access(i) for i in range(len(accessor))]
    assert set(rows) == query.evaluate_brute_force(db)
    keys = [accessor.answer_weight(r) for r in rows]
    assert keys == sorted(keys)


def _sum_ordered(query, db, weights):
    """Brute-force answers sorted by (answer weight, tuple)."""
    return sorted(
        query.evaluate_brute_force(db),
        key=lambda row: (sum(weights.get(v, 0.0) for v in row), row),
    )


def test_sum_order_columnar_covering_parity():
    query = parse_query("q(x, y) :- R(x, y), S(x)")
    db = random_database(query, 60, 12, seed=102)
    weights = {i: (5 * i) % 11 - 5.0 for i in range(12)}
    expected = _sum_ordered(query, db, weights)
    accessor = SumOrderDirectAccess(query, db, weights)
    assert accessor.mode == "covering"
    assert [accessor.access(i) for i in range(len(accessor))] == expected
    probe = accessor.answer_weight(expected[0]) if expected else 0.0
    for target in (probe, probe + 0.5, -100.0):
        assert accessor.has_weight(target, 1e-9) == any(
            abs(accessor.answer_weight(row) - target) <= 1e-9
            for row in expected
        )


def test_sum_order_materialized_parity():
    # No covering atom: Generic Join materializes, the same code sort
    # orders the answers.
    query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
    db = random_database(query, 40, 8, seed=103)
    weights = {i: (3 * i) % 7 - 2.5 for i in range(8)}
    accessor = SumOrderDirectAccess(query, db, weights, strict=False)
    assert accessor.mode == "materialized"
    expected = _sum_ordered(query, db, weights)
    assert [accessor.access(i) for i in range(len(accessor))] == expected


def test_sum_order_columnar_mixed_type_columns():
    # Regression: ranks are per column, so mutually incomparable types
    # in *different* columns must not break the columnar path (the
    # scalar tie-break only ever compares values position-wise).
    query = parse_query("q(a, b) :- R(a, b)")
    db = Database.from_dict(
        {"R": [(1, "x"), (2, "y"), (1, "y")]}, backend="columnar"
    )
    weights = {1: 5.0, "x": 1.0}
    columnar = SumOrderDirectAccess(query, db, weights)
    assert [
        columnar.access(i) for i in range(len(columnar))
    ] == _sum_ordered(query, db, weights)


def test_sum_order_covering_atom_with_filter():
    query = parse_query("q(x, y) :- R(x, y), S(x)")
    db = Database.from_dict(
        {"R": [(1, 2), (3, 4)], "S": [(1,)]}
    )
    accessor = SumOrderDirectAccess(query, db, {1: 1.0, 2: 2.0})
    assert len(accessor) == 1
    assert accessor.access(0) == (1, 2)


def test_sum_order_strict_rejects_uncovered():
    query = catalog.path_query(2)
    db = random_database(query, 10, 4, seed=100)
    with pytest.raises(ValueError):
        SumOrderDirectAccess(query, db, {})


def test_sum_order_fallback():
    query = catalog.path_query(2)
    db = random_database(query, 30, 5, seed=101)
    weights = {i: float(i) for i in range(5)}
    accessor = SumOrderDirectAccess(query, db, weights, strict=False)
    assert accessor.mode == "materialized"
    rows = [accessor.access(i) for i in range(len(accessor))]
    assert set(rows) == query.evaluate_brute_force(db)
    keys = [accessor.answer_weight(r) for r in rows]
    assert keys == sorted(keys)


def test_sum_order_has_weight_probes():
    query = parse_query("q(x, y) :- R(x, y)")
    db = Database.from_dict({"R": [(0, 1), (2, 3)]})
    weights = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
    accessor = SumOrderDirectAccess(query, db, weights)
    assert accessor.has_weight(1.0)
    assert accessor.has_weight(5.0)
    assert not accessor.has_weight(2.0)
    assert not accessor.has_weight(99.0)


def test_sum_order_rejects_projected_query():
    query = parse_query("q(x) :- R(x, y)")
    db = Database.from_dict({"R": [(1, 2)]})
    with pytest.raises(ValueError):
        SumOrderDirectAccess(query, db, {})


def test_sum_order_index_errors():
    query = parse_query("q(x, y) :- R(x, y)")
    db = Database.from_dict({"R": [(1, 2)]})
    accessor = SumOrderDirectAccess(query, db, {})
    with pytest.raises(IndexError):
        accessor.access(1)


# ---------------------------------------------------------------------
# testing oracle (Lemma 3.20)
# ---------------------------------------------------------------------

def test_testing_oracle_direct_access_mode():
    query = catalog.path_query(2)
    db = random_database(query, 40, 5, seed=102)
    oracle = TestingOracle(query, db)
    assert oracle.mode == "direct-access"
    answers = query.evaluate_brute_force(db)
    for answer in sorted(answers)[:15]:
        assert oracle.test(answer)
    assert not oracle.test((99, 99, 99))
    assert oracle.accesses > 0


def test_testing_oracle_hash_fallback_for_star():
    query = catalog.star_query(2)
    db = random_database(query, 40, 5, seed=103)
    oracle = TestingOracle(query, db)
    assert oracle.mode == "hash"
    answers = query.evaluate_brute_force(db)
    for answer in sorted(answers)[:10]:
        assert oracle.test(answer)
    assert not oracle.test((99, 99))


def test_testing_oracle_forced_modes():
    query = catalog.path_query(2)
    db = random_database(query, 20, 4, seed=104)
    assert TestingOracle(query, db, mode="hash").mode == "hash"
    assert (
        TestingOracle(query, db, mode="direct-access").mode
        == "direct-access"
    )
    with pytest.raises(ValueError):
        TestingOracle(query, db, mode="psychic")
    star = catalog.star_query(2)
    sdb = random_database(star, 10, 4, seed=105)
    with pytest.raises(ValueError):
        TestingOracle(star, sdb, mode="direct-access")


def test_testing_oracle_width_check():
    query = catalog.path_query(2)
    db = random_database(query, 10, 4, seed=106)
    oracle = TestingOracle(query, db)
    with pytest.raises(ValueError):
        oracle.test((1, 2))


def test_testing_oracle_boolean_rejected():
    query = catalog.path_query(2, boolean=True)
    db = random_database(query, 5, 4, seed=107)
    with pytest.raises(ValueError):
        TestingOracle(query, db)


def test_lex_store_ranks_each_column_on_its_own():
    # Regression: one rank table over a node's own columns compared an
    # int column's values with a str column's (TypeError at build).
    query = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
    db = Database.from_dict(
        {
            "R": [(2, "a"), (1, "a"), (3, "b")],
            "S": [("a", 2.5), ("b", 0.5), ("b", 1.5)],
        }
    )
    for order in (("x", "y", "z"), ("y", "x", "z"), ("y", "z", "x")):
        for on_stale in ("error", "refresh"):
            accessor = LexDirectAccess(
                query, db, order=order, on_stale=on_stale
            )
            assert accessor.materialize() == sorted_answers(query, db, order)
