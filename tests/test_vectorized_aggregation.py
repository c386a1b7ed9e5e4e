"""The vectorized answer pipelines against brute force: semiring
aggregation, counting, lexicographic direct access and constant-delay
enumeration — plus the zero-decode contract.

The vectorized message passing of :mod:`repro.semiring.faq`, the
direct-access stores of :mod:`repro.direct_access.lex` and the
enumeration preprocessing must agree with the brute-force oracle (a
fold over :meth:`~repro.query.cq.ConjunctiveQuery.evaluate_brute_force`
for aggregates, :mod:`tests.brute`) on every input, including empty
relations, arity-0/1 atoms, Boolean queries and weighted databases —
and must never decode a row on their preprocessing paths (asserted
through :func:`repro.db.columnar.decoded_row_count`).
"""

import math
import random

import pytest
from hypothesis import assume, given, settings

from repro.db import columnar
from repro.db.database import Database
from repro.direct_access import LexDirectAccess
from repro.counting import count_answers, count_free_connex
from repro.enumeration import ConstantDelayEnumerator
from repro.hypergraph.freeconnex import is_free_connex
from repro.hypergraph.gyo import is_acyclic
from repro.matmul.sparse import (
    SparseBooleanMatrix,
    _sparse_bmm_columnar,
    sparse_bmm,
    sparse_bmm_via_dense,
)
from repro.query import catalog, parse_query
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery
from repro.semiring import (
    BOOLEAN,
    COUNTING,
    MAX_PLUS,
    MIN_PLUS,
    WeightedDatabase,
    aggregate_acyclic,
)
from repro.workloads import random_database

from tests import brute
from tests.strategies import queries_with_databases

TROPICAL = [MIN_PLUS, MAX_PLUS]
SEMIRINGS = [COUNTING, BOOLEAN] + TROPICAL


@pytest.fixture
def decode_counter():
    """Resets the decode counter and yields the reader."""
    columnar.reset_decoded_row_count()
    yield columnar.decoded_row_count
    columnar.reset_decoded_row_count()


def _random_weights(query, db, seed, draw=None):
    """``{(relation, row): weight}`` for every row of the query's
    relations, drawn by ``draw(rng)`` (default an int in -5..9)."""
    rng = random.Random(seed)
    draw = draw or (lambda rng: rng.randint(-5, 9))
    return {
        (name, row): draw(rng)
        for name in sorted(query.relation_symbols)
        for row in sorted(db[name])
    }


def _installed(weights, db):
    weighted = WeightedDatabase(db)
    for (name, row), weight in weights.items():
        weighted.set_weight(name, row, weight)
    return weighted


def _reference_weight(query, weights, semiring):
    """The brute-force side of ``atom_weight_fn``: the stored weight of
    the relation row behind an atom's frame row."""

    def weight(atom_index, frame_row):
        atom = query.atoms[atom_index]
        distinct = list(dict.fromkeys(atom.variables))
        row = tuple(frame_row[distinct.index(v)] for v in atom.variables)
        return weights.get((atom.relation, row), semiring.one)

    return weight


# ---------------------------------------------------------------------
# semiring aggregation parity
# ---------------------------------------------------------------------

@settings(max_examples=40)
@given(queries_with_databases(max_atoms=3, max_tuples=15))
def test_unweighted_aggregation_parity(query_db):
    query, db = query_db
    join_query = query.as_join_query()
    assume(is_acyclic(join_query.hypergraph()))
    sharded = db.to_backend("sharded", shard_count=2)
    for semiring in SEMIRINGS:
        expected = brute.fold(join_query, db, semiring)
        got = aggregate_acyclic(join_query, db, semiring)
        assert got == expected
        assert aggregate_acyclic(join_query, sharded, semiring) == expected
        if semiring in (COUNTING, BOOLEAN):
            # byte-identical, not merely numerically equal
            assert type(got) is type(expected)


@settings(max_examples=25)
@given(queries_with_databases(max_atoms=3, max_tuples=12))
def test_weighted_aggregation_parity(query_db):
    query, db = query_db
    join_query = query.as_join_query()
    assume(is_acyclic(join_query.hypergraph()))
    weights = _random_weights(join_query, db, seed=5)
    weighted = _installed(weights, db)
    for semiring in [COUNTING] + TROPICAL:
        expected = brute.fold(
            join_query,
            db,
            semiring,
            _reference_weight(join_query, weights, semiring),
        )
        got = aggregate_acyclic(
            join_query,
            db,
            semiring,
            weighted.atom_weight_fn(join_query, semiring),
        )
        assert got == expected


@pytest.mark.parametrize(
    "query",
    [
        catalog.path_query(3),
        catalog.star_query_full(3, self_join_free=True),
        parse_query("q(x, x2, z) :- R(x, x), S(x, z), T(z, x2)"),
    ],
    ids=lambda q: q.name,
)
def test_weighted_tropical_parity_fixed_queries(query):
    db = random_database(query, 40, 5, seed=60)
    weights = _random_weights(query, db, seed=61)
    weighted = _installed(weights, db)
    for semiring in TROPICAL:
        expected = brute.fold(
            query, db, semiring, _reference_weight(query, weights, semiring)
        )
        got = aggregate_acyclic(
            query, db, semiring, weighted.atom_weight_fn(query, semiring)
        )
        assert got == expected


def test_aggregation_empty_relation_columnar():
    query = catalog.path_query(2)
    db = Database(backend="columnar")
    db.add_relation(db.new_relation("R1", 2, [(1, 2)]))
    db.add_relation(db.new_relation("R2", 2))
    assert aggregate_acyclic(query, db, COUNTING) == 0
    assert aggregate_acyclic(query, db, MIN_PLUS) == math.inf
    assert aggregate_acyclic(query, db, BOOLEAN) is False


def test_aggregation_arity_edge_cases_columnar():
    query = ConjunctiveQuery(
        ("x",), (Atom("R", ("x",)), Atom("T", ()))
    )
    for t_rows, expected in (([()], 3), ([], 0)):
        db = Database(backend="columnar")
        db.add_relation(db.new_relation("R", 1, [(1,), (2,), (3,)]))
        db.add_relation(db.new_relation("T", 0, t_rows))
        assert aggregate_acyclic(query, db, COUNTING) == expected
        assert brute.fold(query, db, COUNTING) == expected


@settings(max_examples=25)
@given(queries_with_databases(max_atoms=3, max_tuples=12))
def test_free_connex_counting_parity(query_db):
    """Projected and Boolean queries via count_free_connex/count_answers."""
    query, db = query_db
    assume(is_free_connex(query))
    expected = query.count_brute_force(db)
    assert count_free_connex(query, db) == expected
    assert count_answers(query, db.to_backend("sharded")) == expected


def test_sequence_carrier_semiring_escape_hatch():
    """Semirings with non-scalar carriers run the object-dtype path.

    A component-wise pair semiring (tuple elements) exercises the
    ``frompyfunc`` escape hatch end to end: unit columns, weight
    columns, segment reduces — identical to a brute-force fold.
    """
    from repro.semiring.semirings import Semiring

    pair = Semiring(
        name="pair",
        plus=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        times=lambda a, b: (a[0] * b[0], a[1] * b[1]),
        zero=(0, 0),
        one=(1, 1),
    )
    query = catalog.path_query(2)
    db = random_database(query, 25, 4, seed=33)
    assert aggregate_acyclic(query, db, pair) == brute.fold(query, db, pair)
    weights = _random_weights(
        query, db, seed=34, draw=lambda rng: (rng.randint(0, 3), rng.randint(0, 3))
    )
    expected = brute.fold(
        query, db, pair, _reference_weight(query, weights, pair)
    )
    got = aggregate_acyclic(
        query, db, pair, _installed(weights, db).atom_weight_fn(query, pair)
    )
    assert got == expected


def test_bigint_weights_escape_hatch():
    """Counting weights >= 2^63 fall back to exact object arithmetic."""
    query = parse_query("q(x, y) :- R(x, y)")
    db = Database.from_dict({"R": [(1, 2), (3, 4)]}, backend="columnar")
    huge = 2**70
    weighted = WeightedDatabase(db)
    weighted.set_weight("R", (1, 2), huge)
    got = aggregate_acyclic(
        query, db, COUNTING, weighted.atom_weight_fn(query, COUNTING)
    )
    assert got == huge + 1
    # A scalar weight function folds exactly too.
    scalar = aggregate_acyclic(
        query, db, COUNTING, lambda i, row: huge if row == (1, 2) else 1
    )
    assert scalar == huge + 1


# ---------------------------------------------------------------------
# weighted databases over columnar relations
# ---------------------------------------------------------------------

def test_weighted_database_columnar_keys_on_codes(decode_counter):
    db = Database.from_dict(
        {"R": [(1, 2), (3, 4)], "S": [(2, 9)]}, backend="columnar"
    )
    weighted = WeightedDatabase(db)
    weighted.set_weight("R", (1, 2), 5)
    assert weighted.weight("R", (1, 2), COUNTING) == 5
    assert weighted.weight("R", (9, 9), COUNTING) == 1  # default one
    with pytest.raises(KeyError):
        weighted.set_weight("R", (99, 99), 3)  # values never encoded
    with pytest.raises(KeyError):
        weighted.set_weight("R", (1, 9), 3)  # known values, absent row
    # Weight bookkeeping reads codes, never decodes relation rows.
    assert decode_counter() == 0
    assert weighted.coded_weights("R") and not weighted.coded_weights("S")


# ---------------------------------------------------------------------
# direct access parity (columnar store vs sort oracle, all i)
# ---------------------------------------------------------------------

GOOD_CASES = [
    (catalog.path_query(2), ("v1", "v2", "v3")),
    (catalog.path_query(3), ("v2", "v1", "v3", "v4")),
    (catalog.star_query_full(2, self_join_free=True), ("z", "x1", "x2")),
    (catalog.semijoin_reducible_query(), ("y", "x", "z", "w")),
]


def _sorted_answers(query, db, order):
    head = tuple(query.head)
    key_positions = [head.index(v) for v in order]
    return sorted(
        query.evaluate_brute_force(db),
        key=lambda row: tuple(row[p] for p in key_positions),
    )


@pytest.mark.parametrize("query, order", GOOD_CASES, ids=lambda x: str(x))
def test_columnar_lex_access_matches_oracle(query, order):
    db = random_database(query, 50, 5, seed=91, backend="columnar")
    accessor = LexDirectAccess(query, db, order=order)
    expected = _sorted_answers(query, db, order)
    assert len(accessor) == len(expected)
    assert accessor.materialize() == expected
    with pytest.raises(IndexError):
        accessor.access(len(accessor))


@settings(max_examples=30)
@given(queries_with_databases(max_atoms=3, max_tuples=10))
def test_columnar_lex_access_property(query_db):
    query, db = query_db
    assume(query.head)
    assume(is_free_connex(query))
    order = tuple(sorted(query.head))
    db_col = db.to_backend("columnar")
    try:
        accessor = LexDirectAccess(query, db_col, order=order)
    except ValueError:
        assume(False)  # no layered tree for this order
        return
    assert accessor.materialize() == _sorted_answers(query, db, order)


def test_columnar_lex_access_empty_result():
    query = parse_query("q(x, y) :- R(x, y), S(y)")
    db = Database(backend="columnar")
    db.add_relation(db.new_relation("R", 2, [(1, 2)]))
    db.add_relation(db.new_relation("S", 1))
    accessor = LexDirectAccess(query, db)
    assert len(accessor) == 0
    with pytest.raises(IndexError):
        accessor.access(0)


# ---------------------------------------------------------------------
# enumeration parity
# ---------------------------------------------------------------------

@settings(max_examples=30)
@given(queries_with_databases(max_atoms=3, max_tuples=12))
def test_columnar_enumeration_parity(query_db):
    query, db = query_db
    assume(query.head)
    assume(is_free_connex(query))
    db_col = db.to_backend("columnar")
    enumerator = ConstantDelayEnumerator(query, db_col)
    produced = list(enumerator)
    assert len(produced) == len(set(produced))
    assert set(produced) == query.evaluate_brute_force(db)
    # restartable: fresh iterator each time
    assert list(enumerator) == produced


def test_columnar_enumeration_streams_prefix():
    query = parse_query("q(x, y) :- R(x), S(y)")
    n = 200
    db = Database.from_dict(
        {"R": [(i,) for i in range(n)], "S": [(i,) for i in range(n)]},
        backend="columnar",
    )
    enumerator = ConstantDelayEnumerator(query, db)
    prefix = []
    for answer in enumerator:
        prefix.append(answer)
        if len(prefix) == 10:
            break
    assert len(prefix) == 10
    assert enumerator.count_via_enumeration() == n * n


# ---------------------------------------------------------------------
# the zero-decode contract
# ---------------------------------------------------------------------

def test_counting_pipeline_zero_decodes(decode_counter):
    query = parse_query("q(x, y) :- R(x, y, a), S(a, b), T(b)")
    db = random_database(query, 200, 8, seed=17, backend="columnar")
    count_free_connex(query, db)
    assert decode_counter() == 0
    join_query = catalog.path_query(3)
    jdb = random_database(join_query, 200, 8, seed=18, backend="columnar")
    aggregate_acyclic(join_query, jdb, COUNTING)
    aggregate_acyclic(join_query, jdb, MIN_PLUS)
    assert decode_counter() == 0


def test_weighted_aggregation_zero_decodes(decode_counter):
    query = catalog.path_query(2)
    db = random_database(query, 150, 6, seed=19, backend="columnar")
    weighted = WeightedDatabase(db)
    rng = random.Random(20)
    for name in query.relation_symbols:
        coded = list(map(tuple, db[name].codes().tolist()))
        dictionary = db[name].dictionary
        for row_codes in coded[::3]:
            row = tuple(dictionary.decode(c) for c in row_codes)
            weighted.set_weight(name, row, rng.randint(0, 9))
    columnar.reset_decoded_row_count()
    aggregate_acyclic(
        query, db, COUNTING, weighted.atom_weight_fn(query, COUNTING)
    )
    assert decode_counter() == 0


def test_lex_preprocessing_zero_decodes(decode_counter):
    query = catalog.star_query_full(2, self_join_free=True)
    db = random_database(query, 300, 12, seed=21, backend="columnar")
    accessor = LexDirectAccess(query, db, order=("z", "x1", "x2"))
    assert decode_counter() == 0
    if len(accessor):  # access decodes exactly the answers it returns
        accessor.access(0)
        assert decode_counter() == 0  # single-value decode, not rows


def test_enumeration_preprocessing_zero_decodes(decode_counter):
    query = parse_query("q(x, y) :- R(x, y, a), S(a, b)")
    db = random_database(query, 300, 8, seed=22, backend="columnar")
    ConstantDelayEnumerator(query, db)
    assert decode_counter() == 0


# ---------------------------------------------------------------------
# vectorized sparse BMM
# ---------------------------------------------------------------------

def _random_sparse(rng, rows, cols, nnz):
    return SparseBooleanMatrix(
        (
            (rng.randrange(rows), rng.randrange(cols))
            for _ in range(nnz)
        ),
        shape=(rows, cols),
    )


@pytest.mark.parametrize("nnz", [5, 40, 400])
def test_sparse_bmm_columnar_matches_scalar(nnz):
    rng = random.Random(nnz)
    a = _random_sparse(rng, 30, 25, nnz)
    b = _random_sparse(rng, 25, 35, nnz)
    expected = sparse_bmm_via_dense(a, b)
    assert sparse_bmm(a, b) == expected  # dispatching entry point
    assert _sparse_bmm_columnar(a, b) == expected  # forced NumPy path
    assert _sparse_bmm_columnar(
        a, SparseBooleanMatrix(shape=(25, 35))
    ).nnz == 0
