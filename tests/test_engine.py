"""One-facade parity and liveness for the unified query engine.

The acceptance contract of the Session / PreparedQuery / AnswerSet
facade: for every query family, the facade's answers (count, first-k
iteration, random direct access, semiring aggregation) are
byte-identical to the corresponding direct low-level calls on both
execution backends, and a prepared query served across an update
stream never raises :class:`StaleStructureError` while matching a
rebuild-per-query oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.counting.algorithms import count_answers
from repro.db.database import Database
from repro.direct_access.lex import LexDirectAccess
from repro.engine import Session, connect
from repro.enumeration.constant_delay import ConstantDelayEnumerator
from repro.query.parser import parse_query
from repro.semiring.faq import aggregate_acyclic
from repro.semiring.semirings import COUNTING, MIN_PLUS
from tests.strategies import queries_with_databases, random_database_for

BACKENDS = ("python", "columnar")

# One query per family the planner distinguishes.
FAMILY_QUERIES = {
    "join-chain": "q(a, b, c) :- R(a, b), S(b, c)",
    "projected-free-connex": "q(a) :- R(a, b), S(b, c)",
    "star": "q(a, b) :- R(a, b), T(a, c)",
    "boolean": "q() :- R(a, b), S(b, c)",
    "non-free-connex": "q(a, c) :- R(a, b), S(b, c)",
    "cyclic": "q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
}


def _database_for(text: str, backend: str, seed: int = 11) -> Database:
    query = parse_query(text)
    db = random_database_for(
        query, tuples_per_relation=60, domain_size=9, seed=seed
    )
    return db.to_backend(backend)


def _sorted_oracle(query, db, order):
    answers = sorted(query.evaluate_brute_force(db))
    positions = [query.head.index(v) for v in order]
    answers.sort(key=lambda row: tuple(row[p] for p in positions))
    return answers


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_facade_parity_with_low_level(family, backend):
    query = parse_query(FAMILY_QUERIES[family])
    db = _database_for(FAMILY_QUERIES[family], backend)
    session = Session(db)
    prepared = session.prepare(query)
    answers = prepared.run()
    assert prepared.database is db

    # count == the dichotomy-dispatched low-level counter.
    assert answers.count() == count_answers(query, db)
    assert len(answers) == answers.count()

    brute = query.evaluate_brute_force(db)
    if query.is_boolean():
        assert list(answers) == ([()] if brute else [])
        if brute:
            assert answers[0] == ()
        return
    assert set(answers) == brute

    # iteration == the low-level enumerator as a set, and follows the
    # tree's order: the paging order whenever that is admissible.
    if prepared.plan.family == "free-connex":
        low = ConstantDelayEnumerator(query, db, on_stale="refresh")
        assert set(low) == brute
        if prepared.plan.tree_order == prepared.plan.order:
            assert answers.first(7) == answers[:7]
            assert list(answers) == answers[:]

    # random direct access == the low-level accessor under the same
    # order (admissible plans), == the sorted materialization always.
    oracle = _sorted_oracle(query, db, prepared.plan.order)
    assert answers[:] == oracle
    rng = random.Random(3)
    indexes = (
        [rng.randrange(len(oracle)) for _ in range(10)] if oracle else []
    )
    if prepared.plan.access_admissible:
        accessor = LexDirectAccess(
            query, db, order=prepared.plan.order, on_stale="refresh"
        )
        for i in indexes:
            assert answers[i] == accessor.access(i)
    for i in indexes:
        assert answers[i] == oracle[i]

    # aggregation == the low-level semiring pipelines.
    assert answers.aggregate(COUNTING) == len(oracle)
    if query.is_join_query() and prepared.plan.classification.acyclic:
        assert answers.aggregate(MIN_PLUS) == aggregate_acyclic(
            query, db, MIN_PLUS
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "family", ["join-chain", "projected-free-connex", "non-free-connex"]
)
def test_prepared_query_survives_update_stream(family, backend):
    """50 updates through the session; never stale, matches a
    rebuild-per-query oracle at every step."""
    text = FAMILY_QUERIES[family]
    query = parse_query(text)
    db = _database_for(text, backend, seed=23)
    session = Session(db)
    prepared = session.prepare(query)
    answers = prepared.run()
    rng = random.Random(99)
    symbols = list(query.relation_symbols)
    for step in range(50):
        symbol = rng.choice(symbols)
        row = (rng.randrange(9), rng.randrange(9))
        if rng.random() < 0.45:
            session.discard(symbol, row)
        else:
            session.add(symbol, row)
        oracle = _sorted_oracle(query, session.db, prepared.plan.order)
        assert len(answers) == len(oracle), step
        assert answers[:] == oracle, step
        assert set(answers) == set(oracle), step
        assert answers.aggregate(COUNTING) == len(oracle), step


def test_maintained_count_stays_incremental_on_columnar():
    text = FAMILY_QUERIES["join-chain"]
    query = parse_query(text)
    db = _database_for(text, "columnar", seed=5)
    session = Session(db)
    prepared = session.prepare(query)
    assert prepared.plan.maintained
    answers = prepared.run()
    len(answers)  # build the counted tree
    rng = random.Random(17)
    for _ in range(30):
        session.add("R", (rng.randrange(9), rng.randrange(9)))
        session.discard("S", (rng.randrange(9), rng.randrange(9)))
        assert len(answers) == query.count_brute_force(session.db)
    assert prepared._accessor is not None
    assert prepared._accessor.rebuilds == 0


def test_session_owns_one_database_and_add_mutates_it_once():
    """One stored copy: the default front door is columnar, an explicit
    backend or an existing Database is kept, every prepared query
    executes on ``session.db``, and one ``add`` is one relation
    mutation (nothing is re-applied to a second copy)."""
    data = {"R": [(1, 2), (2, 3)], "S": [(2, 4), (3, 4)]}
    assert connect(data).db.backend == "columnar"
    assert connect().db.backend == "columnar"
    assert connect(data, backend="python").db.backend == "python"
    assert connect(Database.from_dict(data)).db.backend == "python"

    query = parse_query(FAMILY_QUERIES["join-chain"])
    for session in (connect(data), connect(data, backend="python")):
        prepared = session.prepare(query)
        answers = prepared.run()
        assert prepared.database is session.db
        assert prepared.plan.backend == session.db.backend
        relations = {rel.name: rel for rel in session.db}
        before = {n: rel.mutation_stamp for n, rel in relations.items()}
        session.add("R", (7, 2))
        assert {rel.name: rel for rel in session.db} == relations
        after = {n: rel.mutation_stamp for n, rel in relations.items()}
        assert after == {**before, "R": before["R"] + 1}
        session.discard("S", (3, 4))
        assert answers[:] == _sorted_oracle(
            query, session.db, prepared.plan.order
        )


def test_session_construction_and_conveniences():
    session = connect({"R": [(0, 1)]})
    assert session.size() == 1
    assert session.relation("R").arity == 2
    # prepare() creates relations the query mentions but the db lacks.
    answers = session.execute("q(a, b, c) :- R(a, b), S(b, c)")
    assert len(answers) == 0
    assert "S" in session.db
    session.add("S", (1, 5))
    assert answers[:] == [(0, 1, 5)]
    # Empty sessions and explicit Database instances work too.
    assert connect().size() == 0
    assert Session(Database()).size() == 0
    assert connect(None, backend="columnar").db.backend == "columnar"


def test_session_and_prepare_argument_errors():
    session = connect({"R": [(0, 1)]})
    with pytest.raises(ValueError, match="unknown backend"):
        connect(backend="fortran")
    with pytest.raises(TypeError, match="backend"):
        session.prepare("q(a, b) :- R(a, b)", backend="columnar")
    with pytest.raises(TypeError, match="Database"):
        Session(42)
    with pytest.raises(ValueError, match="permutation"):
        session.prepare("q(a, b) :- R(a, b)", order=("a",))
    with pytest.raises(ValueError, match="no answer order"):
        session.prepare("q() :- R(a, b)", order=("a",))
    answers = session.execute("q(a) :- R(a, b)")
    with pytest.raises(ValueError, match="no semiring"):
        answers.aggregate()
    with pytest.raises(ValueError, match="join query"):
        answers.aggregate(COUNTING, weights=lambda i, row: 1)
    with pytest.raises(IndexError):
        answers[len(answers)]
    assert answers[-1] == answers[len(answers) - 1]


def test_prepared_semiring_default_and_explain_passthrough():
    session = connect({"R": [(0, 1), (2, 3)]})
    prepared = session.prepare("q(a, b) :- R(a, b)", semiring=COUNTING)
    answers = prepared.run()
    assert answers.aggregate() == 2
    assert answers.explain() == prepared.explain()
    assert "plan for" in answers.explain()
    assert prepared.count() == 2


@settings(max_examples=25, deadline=None)
@given(queries_with_databases(max_atoms=3, max_tuples=12))
def test_facade_parity_random_queries(query_db):
    """Random CQs (any family): facade == brute force on both backends."""
    query, db = query_db
    oracle = query.evaluate_brute_force(db)
    for backend in BACKENDS:
        execution = db.to_backend(backend)
        session = Session(execution)
        answers = session.prepare(query).run()
        assert len(answers) == len(oracle)
        if query.is_boolean():
            assert list(answers) == ([()] if oracle else [])
        else:
            assert set(answers[:]) == oracle
            assert answers.aggregate(COUNTING) == len(oracle)


def test_engine_serving_example_runs(capsys):
    """The serving example (paged reads + update stream) end to end."""
    from tests.test_examples import run_example

    run_example("engine_serving")
    output = capsys.readouterr().out
    assert "zero stale answers" in output
    assert "root total of the counted layered tree" in output


def test_first_k_nonpositive_returns_empty():
    session = connect({"R": [(0, 1), (1, 2)]})
    answers = session.execute("q(a, b) :- R(a, b)")
    assert answers.first(0) == []
    assert answers.first(-3) == []
    assert answers.first(1) == answers.first(10)[:1]


def test_aggregate_cache_not_aliased_across_transient_semirings():
    """Regression: caches were keyed by id(semiring); a GC-recycled id
    served one semiring's cached value for another."""
    from repro.semiring.semirings import Semiring

    session = connect({"R": [(0, 1), (2, 3)]})
    answers = session.execute("q(a, b) :- R(a, b)")
    results = []
    for kind in ("sum", "max", "sum", "max", "sum"):
        if kind == "sum":
            semiring = Semiring(
                "sum", lambda a, b: a + b, lambda a, b: a * b, 0, 1
            )
            expected = 2
        else:
            semiring = Semiring(
                "max", max, lambda a, b: a * b, float("-inf"), 1
            )
            expected = 1
        results.append(answers.aggregate(semiring) == expected)
        del semiring
    assert all(results)


@pytest.mark.parametrize("backend", BACKENDS)
def test_weights_on_a_boolean_query_raise_like_any_projection(backend):
    """Regression: the Boolean shortcut returned the bare ``one`` without
    ever calling the weight function."""
    db = _database_for(FAMILY_QUERIES["boolean"], backend)
    answers = Session(db).execute(FAMILY_QUERIES["boolean"])
    assert answers.aggregate(MIN_PLUS) == 0
    with pytest.raises(ValueError, match="require a join query"):
        answers.aggregate(MIN_PLUS, weights=lambda node, row: 1)


def test_iterator_survives_an_update_between_blocks():
    """An iterator is a sequence of consistent block reads (128, 256,
    512, ... rows) holding no lock in between: an update landing there
    shifts the later blocks the way it shifts a client paging by
    offset, and never breaks the iteration."""
    query = parse_query(FAMILY_QUERIES["join-chain"])
    session = connect(
        {
            "R": [(a, a % 5) for a in range(1, 101)],
            "S": [(b, c) for b in range(5) for c in range(5)],
        }
    )
    answers = session.execute(query)
    before = answers[:]
    assert len(before) == 500
    stream = iter(answers)
    head = [next(stream) for _ in range(130)]  # two rows into block two
    assert head == before[:130]
    session.add("R", (0, 0))  # five new lex-first answers
    rest = list(stream)
    after = answers[:]
    assert after == [(0, 0, c) for c in range(5)] + before
    # Block two (128..383) was read before the update, block three
    # (from offset 384) after it.
    assert rest == before[130:384] + after[384:]
    assert set(rest) <= query.evaluate_brute_force(session.db)


def _unary(count):
    return [(i,) for i in range(count)]


@pytest.mark.parametrize("backend", ("python", "columnar", "sharded"))
def test_count_past_int64_is_exact_or_an_overflow_error(backend):
    """Regression: ``count()`` on a 7-way product of 512-row relations
    returned -9223372036854775808 on columnar storage, and the 7-leaf
    star raised ``ValueError`` from a wrapped prefix sum."""
    names = [f"R{i}" for i in range(7)]
    head = ", ".join(f"y{i}" for i in range(7))

    # The product over the root's children is taken in Python ints.
    body = ", ".join(f"R{i}(y{i})" for i in range(7))
    session = connect({name: _unary(512) for name in names}, backend=backend)
    answers = session.execute(f"q({head}) :- {body}")
    assert answers.count() == 512**7 == 2**63
    with pytest.raises(OverflowError):
        len(answers)  # Python's own: len() cannot carry it
    assert answers.page(1, 2) == [(0,) * 6 + (1,), (0,) * 6 + (2,)]
    assert answers.first(2) == answers.page(0, 2)
    assert answers[2**63 - 1] == (511,) * 7
    assert answers.aggregate(COUNTING) == 2**63

    # A seven-leaf star on one x whose root prefix sum reaches 2^63 with
    # the last row of R6 — as a join query, and with R6 projected (its
    # node is then a support-counted projection, patched the same way).
    for r6_body, r6_row in (("R6(x, y6)", (0,)), ("R6(x, y6, w)", (0, 0))):
        _star_reaches_int64(backend, r6_body, r6_row)


def _star_reaches_int64(backend, r6_body, r6_row):
    head = ", ".join(f"y{i}" for i in range(7))
    body = ", ".join([f"R{i}(x, y{i})" for i in range(6)] + [r6_body])
    data = {f"R{i}": [(0, y) for y in range(512)] for i in range(6)}
    data["R6"] = [r6_row[:1] + (y,) + r6_row[1:] for y in range(512)]
    last = data["R6"].pop()
    session = connect(data, backend=backend)
    answers = session.execute(f"q(x, {head}) :- {body}")
    assert answers.count() == 2**63 - 2**54
    session.add("R6", last)
    if backend == "python":  # bigints all the way
        assert answers.count() == 2**63
        assert answers.page(0, 1) == [(0,) * 8]
    else:
        for read in (
            answers.count,
            lambda: answers.page(0, 1),
            lambda: list(answers),
            lambda: answers[0],
        ):
            with pytest.raises(OverflowError, match="exceeds int64"):
                read()
        # A fresh structure fails the same way, at build.
        with pytest.raises(OverflowError, match="exceeds int64"):
            Session(session.db).execute(f"q(x, {head}) :- {body}").count()
    # The failed repair left nothing stale behind.
    session.discard("R6", last)
    assert answers.count() == 2**63 - 2**54
    assert answers.page(0, 1) == [(0,) * 8]
