"""Golden snapshots for ``PreparedQuery.explain()``.

One snapshot per pipeline family (boolean, count, enumeration + lex
direct access, inadmissible lex order — with a disruptive trio, and
trio-free but splitting an atom's block — acyclic materialize, the
cyclic family), asserting
the rendered plan — chosen pipelines, execution backend, and quoted
theorems — is stable.  The plan is a pure function
of (query, order, stored backend, input size), so any diff here is a
deliberate planner change: update the snapshot *and* the CHANGES entry
together.

The fixture database has m=6 tuples; the ``count`` case opens the
session without a backend to pin the front-door default (columnar).
"""

import pytest

from repro.engine import Session

DATA = {"R": [(1, 2), (2, 3)], "S": [(2, 3), (3, 1)], "T": [(3, 1), (1, 2)]}


def render(text, backend=None, order=None, data=DATA):
    kwargs = {} if backend is None else {"backend": backend}
    session = Session(
        {name: list(rows) for name, rows in data.items()}, **kwargs
    )
    return session.prepare(text, order=order).explain()


BOOLEAN = """\
plan for q() :- R(x, y), S(y, z)
  family:   boolean
  backend:  columnar (stored backend, m=6)
  structure: acyclic=True free-connex=True self-join-free=True rho*=2.000
  stats:    R: rows=2 distinct=(2, 2)
  stats:    S: rows=2 distinct=(2, 2)
  decide    via Yannakakis semijoin reduction -- Õ(m) (Yannakakis) [Theorem 3.1 / 3.7]
  count     via decide, then 0/1 -- Õ(m) (counting = deciding for Boolean queries) [Theorem 3.1]
  updates:  session.add/discard bump mutation stamps; what is served is rebuilt once per database version, before answering"""

COUNT = """\
plan for q(x) :- R(x, y), S(y, z)
  family:   free-connex
  backend:  columnar (stored backend, m=6)
  structure: acyclic=True free-connex=True self-join-free=True rho*=2.000
  order:    x
  stats:    R: rows=2 distinct=(2, 2)
  stats:    S: rows=2 distinct=(2, 2)
  count     via root total of the counted layered tree -- Õ(m) (free-connex counting) [Theorem 3.13]
  iterate   via ordered block reads of the counted layered tree (x) -- Õ(m) preprocessing + Õ(1) delay [Theorem 3.17 (via Theorem 3.24)]
              note: no per-answer search: a block expands runs of store rows, O(block + depth·log m), so O(1) amortised per answer
  access    via lex direct access on (x) -- Õ(m) preprocessing + Õ(log m) per access [Theorem 3.24 / Corollary 3.22]
  aggregate via count, then n·1 in the semiring (O(log n) ⊕) -- Õ(m) (free-connex counting) [Theorem 3.13 / Section 4.1.2]
              note: per-atom weights: undefined under projection -- use query.as_join_query()
  updates:  session.add/discard patch the counted layered tree: one sorted-block splice per delta row, ancestor counts repaired level by level; existential variables are eliminated into support-counted projections (dynamic: not q-hierarchical: ('projection', 'x', 'y') -- no constant-time maintenance [[15] (survey conclusion)])"""

ENUM_AND_LEX_DIRECT_ACCESS = """\
plan for q(a, b, c) :- R(a, b), S(b, c)
  family:   free-connex
  backend:  columnar (stored backend, m=6)
  structure: acyclic=True free-connex=True self-join-free=True rho*=2.000
  order:    a > b > c
  stats:    R: rows=2 distinct=(2, 2)
  stats:    S: rows=2 distinct=(2, 2)
  count     via root total of the counted layered tree -- Õ(m) (free-connex counting) [Theorem 3.13]
  iterate   via ordered block reads of the counted layered tree (a > b > c) -- Õ(m) preprocessing + Õ(1) delay [Theorem 3.17 (via Theorem 3.24)]
              note: no per-answer search: a block expands runs of store rows, O(block + depth·log m), so O(1) amortised per answer
  access    via lex direct access on (a > b > c) -- Õ(m) preprocessing + Õ(log m) per access [Theorem 3.24 / Corollary 3.22]
  aggregate via count, then n·1 in the semiring (O(log n) ⊕) -- Õ(m) (free-connex counting) [Theorem 3.13 / Section 4.1.2]
              note: per-atom weights: FAQ semiring message passing, Õ(m) [Section 4.1.2 / [59]]
  updates:  session.add/discard patch the counted layered tree: one sorted-block splice per delta row, ancestor counts repaired level by level"""

TRIO_ORDER_ON_CODED_STORAGE = """\
plan for q(a, b, c) :- R(a, b), S(b, c)
  family:   free-connex
  backend:  columnar (stored backend, m=6)
  structure: acyclic=True free-connex=True self-join-free=True rho*=2.000
  order:    a > c > b
  stats:    R: rows=2 distinct=(2, 2)
  stats:    S: rows=2 distinct=(2, 2)
  count     via root total of the counted layered tree -- Õ(m) (free-connex counting) [Theorem 3.13]
  iterate   via ordered block reads of the counted layered tree (a > b > c) -- Õ(m) preprocessing + Õ(1) delay [Theorem 3.17 (via Theorem 3.24)]
              note: no per-answer search: a block expands runs of store rows, O(block + depth·log m), so O(1) amortised per answer
  access    via one Yannakakis projection per database version, sorted on (a > c > b) -- O(output) preprocessing (sort), O(1) per access [Theorem 3.24 / Lemma 3.23]
              note: order (a > c > b) admits no layered join tree: disruptive trio (a, c, b); pages read the sorted answers, count and iteration keep the tree
  aggregate via count, then n·1 in the semiring (O(log n) ⊕) -- Õ(m) (free-connex counting) [Theorem 3.13 / Section 4.1.2]
              note: per-atom weights: FAQ semiring message passing, Õ(m) [Section 4.1.2 / [59]]
  updates:  session.add/discard patch the counted layered tree: one sorted-block splice per delta row, ancestor counts repaired level by level; sorted answers repaired by delta joins: one frontier run per changed atom over the changed tuples; rebuilt after a compaction barrier (dynamic: q-hierarchical [[15] (survey conclusion)])"""

ACYCLIC_MATERIALIZE_ON_CODED_STORAGE = """\
plan for q(x, z) :- R(x, y), S(y, z)
  family:   acyclic-materialize
  backend:  columnar (stored backend, m=6)
  structure: acyclic=True free-connex=False self-join-free=True rho*=2.000
  order:    x > z
  stats:    R: rows=2 distinct=(2, 2)
  stats:    S: rows=2 distinct=(2, 2)
  count     via one Yannakakis projection per database version, shared by count, pages, iteration and aggregates -- O(full-join size) (enumerate and count) [Theorem 3.12 / 3.13 / 4.6]
  iterate   via one Yannakakis projection per database version, shared by count, pages, iteration and aggregates -- materialize (full evaluation) [Theorem 3.16]
              note: no constant-delay guarantee: the query is not free-connex, so linear preprocessing with constant delay is ruled out on the hard side of the enumeration dichotomy
  access    via one Yannakakis projection per database version, shared by count, pages, iteration and aggregates -- O(output) preprocessing (sort), O(1) per access [Theorem 3.18 / Corollary 3.22]
              note: no constant-delay guarantee: superlinear preprocessing is unavoidable for non-free-connex queries
  aggregate via one Yannakakis projection per database version, shared by count, pages, iteration and aggregates -- O(full-join size) (enumerate and count) [Theorem 3.12 / 3.13 / 4.6 / Section 4.1.2]
              note: per-atom weights: undefined under projection -- use query.as_join_query()
  updates:  session.add/discard bump mutation stamps; what is served is rebuilt once per database version, before answering"""

CYCLIC_SHARED_JOIN = """\
plan for q(x, y, z) :- R(x, y), S(y, z), T(z, x)
  family:   cyclic-materialize
  backend:  columnar (stored backend, m=6)
  structure: acyclic=False free-connex=False self-join-free=True rho*=1.500
  order:    x > y > z
  stats:    R: rows=2 distinct=(2, 2)
  stats:    S: rows=2 distinct=(2, 2)
  stats:    T: rows=2 distinct=(2, 2)
  wcoj:     breadth-first frontier arrays (all prefixes per level extended at once; zero per-row decodes); variable-order ties broken by the measured distinct counts above
  count     via one worst-case-optimal join per database version, shared by count, pages, iteration and aggregates -- Õ(m^1.500) (worst-case-optimal join + count) [Theorem 3.13 (via Theorem 3.7)]
  iterate   via one worst-case-optimal join per database version, shared by count, pages, iteration and aggregates -- materialize (full evaluation) [Theorem 3.14 / 4.5]
              note: no constant-delay guarantee: the query is not free-connex, so linear preprocessing with constant delay is ruled out on the hard side of the enumeration dichotomy
  access    via one worst-case-optimal join per database version, shared by count, pages, iteration and aggregates -- O(output) preprocessing (sort), O(1) per access [Theorem 3.18 / Corollary 3.22]
              note: no constant-delay guarantee: superlinear preprocessing is unavoidable for non-free-connex queries
  aggregate via one worst-case-optimal join per database version, shared by count, pages, iteration and aggregates -- Õ(m^1.500) (worst-case-optimal join + count) [Theorem 3.13 (via Theorem 3.7) / Section 4.1.2]
              note: per-atom weights: worst-case-optimal join + fold, Õ(m^1.500)
  updates:  sorted answers repaired by delta joins: one frontier run per changed atom over the changed tuples; rebuilt after a compaction barrier (dynamic: not q-hierarchical: ('crossing', 'x', 'y') -- no constant-time maintenance [[15] (survey conclusion)])"""


@pytest.mark.parametrize(
    "text, backend, order, expected",
    [
        pytest.param('q() :- R(x, y), S(y, z)', 'columnar', None, BOOLEAN, id='boolean'),
        pytest.param('q(x) :- R(x, y), S(y, z)', None, None, COUNT, id='count'),
        pytest.param('q(a, b, c) :- R(a, b), S(b, c)', 'columnar', None, ENUM_AND_LEX_DIRECT_ACCESS, id='enum_and_lex_direct_access'),
        pytest.param('q(a, b, c) :- R(a, b), S(b, c)', 'columnar', ('a', 'c', 'b'), TRIO_ORDER_ON_CODED_STORAGE, id='trio_order_on_coded_storage'),
        pytest.param('q(x, z) :- R(x, y), S(y, z)', 'columnar', None, ACYCLIC_MATERIALIZE_ON_CODED_STORAGE, id='acyclic_materialize_on_coded_storage'),
        pytest.param('q(x, y, z) :- R(x, y), S(y, z), T(z, x)', 'columnar', None, CYCLIC_SHARED_JOIN, id='cyclic_shared_join'),
    ],
)
def test_explain_golden(text, backend, order, expected):
    assert render(text, backend=backend, order=order) == expected


TRIO_FREE_ORDER_SPLITTING_AN_ATOM = """\
plan for q(x, u, v, w) :- R(x, u, w), S(x, v)
  family:   free-connex
  backend:  columnar (stored backend, m=4)
  structure: acyclic=True free-connex=True self-join-free=True rho*=2.000
  order:    x > u > v > w
  stats:    R: rows=2 distinct=(1, 2, 2)
  stats:    S: rows=2 distinct=(1, 2)
  count     via root total of the counted layered tree -- Õ(m) (free-connex counting) [Theorem 3.13]
  iterate   via ordered block reads of the counted layered tree (x > v > u > w) -- Õ(m) preprocessing + Õ(1) delay [Theorem 3.17 (via Theorem 3.24)]
              note: no per-answer search: a block expands runs of store rows, O(block + depth·log m), so O(1) amortised per answer
  access    via one Yannakakis projection per database version, sorted on (x > u > v > w) -- O(output) preprocessing (sort), O(1) per access [Theorem 3.24]
              note: order (x > u > v > w) admits no layered join tree: no disruptive trio, but it splits an atom's block or interleaves components, which no per-atom tree lays out (the theorem's prefix-projection nodes are not built); pages read the sorted answers, count and iteration keep the tree
  aggregate via count, then n·1 in the semiring (O(log n) ⊕) -- Õ(m) (free-connex counting) [Theorem 3.13 / Section 4.1.2]
              note: per-atom weights: FAQ semiring message passing, Õ(m) [Section 4.1.2 / [59]]
  updates:  session.add/discard patch the counted layered tree: one sorted-block splice per delta row, ancestor counts repaired level by level; sorted answers repaired by delta joins: one frontier run per changed atom over the changed tuples; rebuilt after a compaction barrier (dynamic: q-hierarchical [[15] (survey conclusion)])"""


def test_explain_golden_trio_free_order_splitting_an_atom():
    # No disruptive trio, so Theorem 3.24 admits the order and no lower
    # bound is cited; the per-atom tree still cannot lay it out.
    text = "q(x, u, v, w) :- R(x, u, w), S(x, v)"
    data = {"R": [(1, 2, 3), (1, 4, 5)], "S": [(1, 6), (1, 7)]}
    assert render(
        text, "columnar", ("x", "u", "v", "w"), data
    ) == TRIO_FREE_ORDER_SPLITTING_AN_ATOM


def test_updates_line_says_what_is_repaired():
    # Sharded storage repairs like columnar; a projected query shares
    # the one producer run but is rebuilt per version, and says so.
    triangle = "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"
    sharded = render(triangle, backend="sharded")
    assert sharded.count("one worst-case-optimal join per database version") == 4
    assert "repaired by delta joins" in sharded
    assert "not q-hierarchical" in sharded
    projected = render("q(x, y) :- R(x, y), S(y, z), T(z, x)", backend="columnar")
    assert projected.count("one worst-case-optimal join per database version") == 4
    assert "repaired by delta joins" not in projected
    assert "rebuilt once per database version" in projected
    # The trio-order pages of a free-connex join query repair too — and
    # the quoted dynamic verdict is the query's own, not a constant.
    trio = render("q(a, b, c) :- R(a, b), S(b, c)", "sharded", ("a", "c", "b"))
    assert "patch the counted layered tree" in trio
    assert "repaired by delta joins" in trio
    assert "dynamic: q-hierarchical [" in trio
    # A projected free-connex query patches the same tree, over derived
    # relations.
    fc3 = "q(x, y, z) :- R(x, y), S(y, z), T(z, w)"
    patched = render(fc3, backend="columnar")
    assert "patch the counted layered tree" in patched
    assert "support-counted projections" in patched
    assert "not q-hierarchical" in patched
    assert "no constant-time maintenance" in patched
    assert "rebuilt once per database version" not in patched
