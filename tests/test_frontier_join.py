"""Parity and guarantee tests for the frontier Generic Join and the
fused semiring kernels.

Three strategies must agree on every input: the breadth-first frontier
join (columnar/sharded backends), the depth-first stack search (the
python backend — ``db.to_backend("python")`` is the independent
oracle), and the brute-force reference.  On top of parity, this file
pins the paths' guarantees: zero decodes up to the value boundary
(``decoded_row_count``), no full-frame aggregation intermediates in
the fused FAQ pipeline (``scratch_peak``), recursion-limit immunity of
the explicit-stack path, statistics-aware variable orders, and
columnar/sharded/python agreement of the FAQ message passing.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.db import columnar
from repro.db.columnar import (
    decoded_row_count,
    fused_group_lookup,
    reset_decoded_row_count,
    reset_scratch_peak,
    scratch_peak,
)
from repro.db.database import Database
from repro.joins.generic_join import (
    _choose_order,
    generic_join,
    generic_join_boolean,
    generic_join_codes,
)
from repro.query.catalog import (
    clique_query,
    loomis_whitney_query,
    path_query,
    triangle_query,
)
from repro.query.parser import parse_query
from repro.semiring.faq import aggregate_acyclic, aggregate_generic
from repro.semiring.semirings import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    Semiring,
)
from repro.workloads.databases import agm_tight_triangle_db

from tests.strategies import queries_with_databases

SHARD_COUNTS = (1, 3)
WORKER_COUNTS = (1, 3)


# ----------------------------------------------------------------------
# parity: frontier == depth-first == brute force, across backends
# ----------------------------------------------------------------------
@given(queries_with_databases())
@settings(max_examples=25)
def test_frontier_parity_random(query_db):
    query, db = query_db
    join_query = query.as_join_query()
    expected = join_query.evaluate_brute_force(db)
    columnar_db = db.to_backend("columnar")
    assert generic_join(join_query, columnar_db) == expected
    assert generic_join_boolean(query, columnar_db) == bool(expected)
    coded = generic_join_codes(join_query, columnar_db)
    assert coded is not None
    codes, head = coded
    assert head == tuple(join_query.head)
    decoded = set(columnar_db[query.atoms[0].relation].dictionary
                  .decode_rows(codes))
    assert decoded == expected


@given(queries_with_databases(max_atoms=3))
@settings(max_examples=10)
def test_frontier_parity_sharded(query_db):
    query, db = query_db
    join_query = query.as_join_query()
    expected = join_query.evaluate_brute_force(db)
    for shard_count in SHARD_COUNTS:
        for workers in WORKER_COUNTS:
            sharded = db.to_backend("sharded", shard_count=shard_count)
            sharded.configure_shard_runtime(workers=workers)
            assert generic_join(join_query, sharded) == expected


@given(queries_with_databases(max_atoms=3))
@settings(max_examples=10)
def test_frontier_matches_recursive(query_db):
    query, db = query_db
    join_query = query.as_join_query()
    frontier = generic_join(join_query, db.to_backend("columnar"))
    assert generic_join(join_query, db.to_backend("python")) == frontier
    assert join_query.evaluate_brute_force(db) == frontier


def test_frontier_chunked_matches_serial():
    # Big enough that the sharded run splits frontiers into chunks
    # through the executor; the merge must stay bit-identical.
    db = agm_tight_triangle_db(2000, backend="sharded")
    db.configure_shard_runtime(workers=3)
    query = triangle_query(boolean=False)
    chunked = generic_join(query, db)
    serial = generic_join(query, db.to_backend("columnar"))
    assert chunked == serial
    reference = db.to_backend("python")
    assert generic_join(query, reference) == chunked
    assert query.evaluate_brute_force(reference) == chunked


# ----------------------------------------------------------------------
# edge cases: empty relations, skew, dangling prefixes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["python", "columnar", "sharded"])
def test_empty_relation_kills_join(backend):
    query = triangle_query(boolean=False)
    db = Database.from_dict({"R1": [(1, 2)], "R3": [(3, 1)]})
    db.ensure_relation("R2", 2)  # present but empty
    db = db.to_backend(backend)
    assert generic_join(query, db) == set()
    assert not generic_join_boolean(triangle_query(), db)


@pytest.mark.parametrize("backend", ["columnar", "sharded"])
def test_heavy_skew_parity(backend):
    # One hub value with many neighbours next to a sparse remainder:
    # the frontier must expand unequal candidate ranges correctly.
    r1 = [(0, i) for i in range(50)] + [(i, i + 1) for i in range(1, 8)]
    r2 = [(i, 0) for i in range(50)] + [(i + 1, i) for i in range(1, 8)]
    r3 = [(0, 0)] + [(i, i) for i in range(1, 8)]
    db = Database.from_dict({"R1": r1, "R2": r2, "R3": r3})
    query = triangle_query(boolean=False)
    expected = query.evaluate_brute_force(db)
    assert expected  # the instance must actually contain triangles
    assert generic_join(query, db.to_backend(backend)) == expected


@pytest.mark.parametrize("backend", ["columnar", "sharded"])
def test_dangling_prefixes_die_per_level(backend):
    # Every R(a, b) prefix extends to some b, but only one b survives
    # S; dangling prefixes must die without producing answers.
    query = parse_query("q(a, b, c) :- R(a, b), S(b, c)")
    r = [(i, i % 10) for i in range(100)]
    s = [(7, 1), (7, 2)]
    db = Database.from_dict({"R": r, "S": s})
    expected = query.evaluate_brute_force(db)
    assert generic_join(query, db.to_backend(backend)) == expected


def test_limit_truncated_search_still_finds_witnesses():
    # The capped witness search truncates every level; asking for more
    # answers than the cap leaves must trigger the uncapped rerun.
    query = parse_query("q(a, b) :- R(a, b), S(a, b)")
    rows = [(i, j) for i in range(60) for j in range(60)]
    db = Database.from_dict({"R": rows, "S": rows}).to_backend("columnar")
    got = generic_join(query, db, limit=2000)
    assert len(got) == 2000
    assert got <= set(rows)


# ----------------------------------------------------------------------
# zero-decode and recursion-limit guarantees
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["columnar", "sharded"])
def test_codes_path_never_decodes(backend):
    db = agm_tight_triangle_db(300, backend=backend)
    query = triangle_query(boolean=False)
    reset_decoded_row_count()
    coded = generic_join_codes(query, db)
    assert coded is not None
    assert len(coded[0]) > 0
    assert decoded_row_count() == 0
    # Aggregation over the codes stays decode-free too.
    reset_decoded_row_count()
    count = aggregate_generic(query, db, COUNTING)
    assert count == len(coded[0])
    assert decoded_row_count() == 0


def test_codes_path_refuses_python_backend():
    db = agm_tight_triangle_db(50, backend="python")
    assert generic_join_codes(triangle_query(boolean=False), db) is None


def test_sixty_variable_chain_low_recursion_limit():
    # The depth-first path is an explicit stack: a 60-variable chain order
    # must survive a recursion limit far below the variable count.
    query = path_query(60)
    db = Database()
    for atom in query.atoms:
        rel = db.ensure_relation(atom.relation, 2)
        rel.add((1, 2))
        rel.add((2, 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(70)
    try:
        answers = generic_join(query, db)
    finally:
        sys.setrecursionlimit(limit)
    assert len(answers) == 2


def test_loomis_whitney_and_clique_parity():
    lw = loomis_whitney_query(3, boolean=False)
    clique = clique_query(3)
    for query in (lw, clique):
        rows = [
            (i % 5, j % 5) for i in range(5) for j in range(5) if i != j
        ]
        db = Database.from_dict(
            {name: list(rows) for name in query.relation_symbols}
        )
        expected = query.evaluate_brute_force(db)
        assert expected
        got = generic_join(query, db.to_backend("columnar"))
        assert got == expected
        assert generic_join(query, db.to_backend("python")) == expected


# ----------------------------------------------------------------------
# statistics-aware variable order
# ----------------------------------------------------------------------
def test_choose_order_breaks_ties_on_distinct_counts():
    query = triangle_query(boolean=False)
    # x and y appear in the same number of atoms; y's columns hold a
    # single distinct value, so with statistics y must come first.
    rows_xy = [(i, 0) for i in range(10)]
    rows_yz = [(0, i) for i in range(10)]
    rows_zx = [(i, j) for i in range(10) for j in range(10)]
    db = Database.from_dict(
        {"R1": rows_xy, "R2": rows_yz, "R3": rows_zx}
    ).to_backend("columnar")
    structural = _choose_order(query, None)
    measured = _choose_order(query, None, db)
    assert set(measured) == set(structural) == {"x", "y", "z"}
    assert measured[0] == "y"  # min distinct count wins the tie
    # Statistics must never change the *result*, only the order.
    assert generic_join(query, db) == query.evaluate_brute_force(
        db.to_backend("python")
    )


def test_explain_cites_measured_statistics():
    from repro.engine import Session

    session = Session(
        {"R": [(1, 2), (2, 3)], "S": [(2, 3)], "T": [(3, 1)]},
        backend="columnar",
    )
    text = session.prepare(
        "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"
    ).explain()
    assert "stats:    R: rows=2 distinct=(2, 2)" in text
    assert "wcoj:     breadth-first frontier arrays" in text


# ----------------------------------------------------------------------
# fused FAQ pipeline: parity and peak-memory
# ----------------------------------------------------------------------
def _chain_db(n=200, keys=3):
    return Database.from_dict(
        {
            "R": [(i, i % keys) for i in range(n)],
            "S": [(i % keys, i) for i in range(n)],
        }
    )


CHAIN = parse_query("q(a, b, c) :- R(a, b), S(b, c)")

OBJECT_COUNTING = Semiring(
    name="counting-object",
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    zero=0,
    one=1,
)


@pytest.mark.parametrize(
    "semiring", [COUNTING, MIN_PLUS, BOOLEAN, OBJECT_COUNTING]
)
def test_fused_matches_sharded_and_python(semiring):
    """The fused FAQ pass — over plain columnar storage and over
    sharded storage read through its coalesced codes — agrees with the
    scalar dict fold (python)."""
    db = _chain_db()
    fused = aggregate_acyclic(CHAIN, db.to_backend("columnar"), semiring)
    assert fused == aggregate_acyclic(CHAIN, db, semiring)
    for shard_count in SHARD_COUNTS:
        sharded = db.to_backend("sharded", shard_count=shard_count)
        merged = aggregate_acyclic(CHAIN, sharded, semiring)
        assert fused == merged
        # Same array program, so also the same carrier type (the
        # scalar fold keeps Python ints where min-plus arrays are float).
        assert type(fused) is type(merged)


def test_fused_allocates_no_full_size_intermediate():
    n, keys = 200, 3
    db = _chain_db(n=n, keys=keys)
    columnar_db = db.to_backend("columnar")
    reset_scratch_peak()
    fused_total = aggregate_acyclic(CHAIN, columnar_db, COUNTING)
    fused_peak = scratch_peak()
    single_shard = db.to_backend("sharded", shard_count=1)
    reset_scratch_peak()
    merged_total = aggregate_acyclic(CHAIN, single_shard, COUNTING)
    merged_peak = scratch_peak()
    assert fused_total == merged_total
    # The fused pass materializes only the reduced message (one entry
    # per distinct separator key), whichever layout stores the rows.
    assert fused_peak <= keys
    assert merged_peak <= keys


def test_fused_group_lookup_primitive_matches_chain():
    rng = np.random.default_rng(7)
    source_sub = rng.integers(0, 5, size=(40, 1)).astype(np.int64)
    source_values = rng.integers(1, 10, size=40).astype(np.int64)
    query_sub = rng.integers(0, 6, size=(25, 1)).astype(np.int64)
    target = rng.integers(1, 10, size=25).astype(np.int64)
    expected_target = target.copy()
    found = fused_group_lookup(
        source_sub,
        source_values,
        query_sub,
        cardinality=6,
        plus_ufunc=np.add,
        times_fn=np.multiply,
        target=target,
    )
    # Scalar reference: ⊕-sum per key, ⊗ into matching query rows.
    sums = {}
    for key, value in zip(source_sub[:, 0], source_values):
        sums[int(key)] = sums.get(int(key), 0) + int(value)
    for i, key in enumerate(query_sub[:, 0]):
        if int(key) in sums:
            assert found[i]
            expected_target[i] *= sums[int(key)]
        else:
            assert not found[i]
    np.testing.assert_array_equal(
        target[found], expected_target[found]
    )


def test_object_escape_hatch_ignores_kernels():
    # Object-dtype semirings declare no NumPy kernels: they vectorize
    # through frompyfunc lifts of their scalar ops, same answers.
    _, _, dtype = OBJECT_COUNTING.kernels()
    assert dtype == np.dtype(object)
    db = _chain_db().to_backend("columnar")
    assert aggregate_acyclic(
        CHAIN, db, OBJECT_COUNTING
    ) == aggregate_acyclic(CHAIN, db, COUNTING)


# ----------------------------------------------------------------------
# weighted aggregation over the codes path
# ----------------------------------------------------------------------
def test_weighted_aggregate_generic_codes_parity():
    from repro.semiring.faq import WeightedDatabase

    query = triangle_query(boolean=False)
    base = Database.from_dict(
        {
            "R1": [(1, 2), (2, 3)],
            "R2": [(2, 3), (3, 1)],
            "R3": [(3, 1), (1, 2)],
        }
    )
    expected_db = WeightedDatabase(base)
    expected_db.set_weight("R1", (1, 2), 5)
    weights = expected_db.atom_weight_fn(query, COUNTING)
    expected = aggregate_generic(query, base, COUNTING, weights)

    coded_base = base.to_backend("columnar")
    weighted = WeightedDatabase(coded_base)
    weighted.set_weight("R1", (1, 2), 5)
    coded_weights = weighted.atom_weight_fn(query, COUNTING)
    reset_decoded_row_count()
    got = aggregate_generic(query, coded_base, COUNTING, coded_weights)
    assert got == expected
    assert columnar.decoded_row_count() == 0
