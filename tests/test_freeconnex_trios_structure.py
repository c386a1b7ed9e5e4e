"""Free-connexness, disruptive trios, Brault-Baron witnesses, star size.

These are the structural predicates every dichotomy dispatches on, so
the expectations here are transcribed directly from the paper's
examples.
"""

import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.engine import plan_query
from repro.hypergraph.freeconnex import (
    free_connex_join_tree,
    free_variable_bags,
    head_path_violation,
    is_free_connex,
    is_free_connex_hypergraph,
)
from repro.hypergraph.gyo import is_acyclic
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.starsize import quantified_star_size
from repro.hypergraph.structure import (
    find_hard_substructure,
    induced_is_cycle,
    induced_is_near_hyperclique,
)
from repro.hypergraph.trios import (
    find_disruptive_trio,
    has_disruptive_trio,
    trio_free_order,
)
from repro.query import catalog, parse_query
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery

from tests.strategies import acyclic_hypergraph_edges, conjunctive_queries


# ---------------------------------------------------------------------
# free-connex
# ---------------------------------------------------------------------

def test_star_queries_not_free_connex_for_k_ge_2():
    for k in (2, 3, 4):
        assert not is_free_connex(catalog.star_query(k))
        assert not is_free_connex(catalog.star_query_sjf(k))


def test_join_and_boolean_acyclic_queries_are_free_connex():
    assert is_free_connex(catalog.path_query(3))
    assert is_free_connex(catalog.path_query(3, boolean=True))
    assert is_free_connex(catalog.star_query_full(3))


def test_cyclic_queries_never_free_connex():
    assert not is_free_connex(catalog.triangle_query(boolean=False))
    assert not is_free_connex(catalog.cycle_query(4))


def test_path_interior_projection():
    fc, nfc = catalog.free_connex_pair()
    assert is_free_connex(fc)
    assert not is_free_connex(nfc)


def test_deeper_free_connex_example():
    q = parse_query("q(x, y) :- R(x, y, a), S(a, b), T(b)")
    assert is_free_connex(q)
    q2 = parse_query("q(x, w) :- R(x, y), S(y, w)")
    assert not is_free_connex(q2)


def test_head_endpoints_of_long_path_not_free_connex():
    q = catalog.path_query(3).with_head(("v1", "v4"))
    assert not is_free_connex(q)


def test_free_connex_hypergraph_requires_body_acyclicity():
    # Triangle body with full head: H ∪ {S} has the covering edge and
    # is acyclic, but H itself is not — so not free-connex *acyclic*.
    h = Hypergraph(
        "xyz", [frozenset("xy"), frozenset("yz"), frozenset("zx")]
    )
    assert not is_free_connex_hypergraph(h, "xyz")


def test_free_connex_join_tree_roots_at_s_node():
    q = catalog.star_query_full(3)
    tree, s_node = free_connex_join_tree(q)
    tree.validate()
    assert tree.bags[s_node] == q.free_variables
    assert tree.roots == [s_node]


def test_free_connex_join_tree_boolean_query():
    q = catalog.path_query(2, boolean=True)
    tree, s_node = free_connex_join_tree(q)
    tree.validate()
    assert tree.bags[s_node] == frozenset()


def test_free_connex_join_tree_rejects_non_fc():
    with pytest.raises(ValueError):
        free_connex_join_tree(catalog.star_query(2))


def test_head_path_violation_finds_bridge():
    _, nfc = catalog.free_connex_pair()
    witness = head_path_violation(nfc)
    assert witness is not None
    x, z, path = witness
    assert {x, z} == {"x", "z"}
    assert path == ("y",)


def test_head_path_violation_none_for_free_connex():
    fc, _ = catalog.free_connex_pair()
    assert head_path_violation(fc) is None


@given(conjunctive_queries(max_atoms=3, max_arity=3))
def test_free_connex_implies_acyclic(query):
    if is_free_connex(query):
        assert is_acyclic(query.hypergraph())


# ---------------------------------------------------------------------
# disruptive trios
# ---------------------------------------------------------------------

def test_star_full_trio_orders():
    q = catalog.star_query_full(2, self_join_free=True)
    assert find_disruptive_trio(q, ("x1", "x2", "z")) == ("x1", "x2", "z")
    assert find_disruptive_trio(q, ("x1", "z", "x2")) is None
    assert find_disruptive_trio(q, ("z", "x1", "x2")) is None


def test_trio_requires_valid_order():
    q = catalog.path_query(2)
    with pytest.raises(ValueError):
        find_disruptive_trio(q, ("v1", "v2"))
    with pytest.raises(ValueError):
        find_disruptive_trio(q, ("v1", "v1", "v2"))


def test_path_query_trio_pattern():
    q = catalog.path_query(2)
    assert not has_disruptive_trio(q, ("v1", "v2", "v3"))
    assert has_disruptive_trio(q, ("v1", "v3", "v2"))


def test_trio_free_order_exists_for_acyclic_join_queries():
    for query in (
        catalog.path_query(3),
        catalog.star_query_full(3),
        catalog.semijoin_reducible_query(),
    ):
        order = trio_free_order(a.scope for a in query.atoms)
        assert order is not None
        assert not has_disruptive_trio(query, order)


def test_clique_query_any_order_trio_free():
    # All variables pairwise share an atom: no trio can exist.
    q = catalog.clique_query(3)
    assert trio_free_order(a.scope for a in q.atoms) is not None


def assert_admissible_by_construction(query):
    plan = plan_query(query, size=0)
    assert plan.access_admissible
    assert plan.tree_order == plan.order
    # Trio-free on the reduced bags: the bag family read as a join query.
    bags = free_variable_bags(query)
    as_join = ConjunctiveQuery(
        plan.order,
        tuple(
            Atom(f"B{node}", tuple(sorted(bag)))
            for node, bag in bags.items()
        ),
    )
    assert not has_disruptive_trio(as_join, plan.order)


@pytest.mark.parametrize(
    "text",
    [
        # Six head variables, 6! permutations: too many to search.
        "q(b, a, e, g, d, c) :- R0(d, e), R2(d, a, b), R3(a), R4(d, c, g)",
        # The maximum-cardinality trio-free order (v0, v3, v4, v1, v2,
        # v5, v6) splits R2's block, so a planner that tried it and then
        # the head left an inadmissible tree order.
        "q(v0, v1, v2, v3, v4, v5, v6) :- R0(v4, v3, v0), R1(v5, v3), "
        "R2(v4, v1, v2), R3(v4, v2), R4(v6, v2), R5(v4, v1, v2)",
    ],
    ids=["six-head-variables", "trio-free-order-splits-a-block"],
)
def test_every_free_connex_head_gets_an_admissible_order_fixed_case(text):
    assert_admissible_by_construction(parse_query(text))


@given(acyclic_hypergraph_edges(), st.data())
def test_every_free_connex_head_gets_an_admissible_order(edges, data):
    atoms = tuple(
        Atom(f"R{i}", tuple(sorted(edge))) for i, edge in enumerate(edges)
    )
    variables = sorted(set().union(*edges))
    head = data.draw(
        st.lists(st.sampled_from(variables), min_size=1, unique=True)
    )
    query = ConjunctiveQuery(tuple(head), atoms)
    assume(is_free_connex(query))
    assert_admissible_by_construction(query)


def _star(leaves):
    head = ", ".join(f"y{i}" for i in range(leaves))
    body = ", ".join(f"R{i}(x, y{i})" for i in range(leaves))
    return f"q(x, {head}) :- {body}"


def _snowflake(arms):
    """A fact table over ``arms`` keys; each key's dimension carries two
    sub-dimensions.  The head lists the variables by name, which no
    layered tree follows, so the planner reads its own order."""
    keys = [f"k{i}" for i in range(arms)]
    atoms = [f"F({', '.join(keys)})"]
    for i in range(arms):
        atoms += [f"D{i}(k{i}, d{i})", f"S{i}(d{i}, s{i})", f"T{i}(d{i}, t{i})"]
    head = sorted(keys + [f"{c}{i}" for i in range(arms) for c in "dst"])
    return f"q({', '.join(head)}) :- {', '.join(atoms)}"


@pytest.mark.parametrize(
    "text",
    [_star(12), _snowflake(3), _snowflake(5)],
    ids=["star-12-leaves", "snowflake-10-atoms", "snowflake-16-atoms"],
)
def test_plan_query_takes_milliseconds_on_wide_queries(text):
    # The layered tree is built in one pass along the order, so planning
    # no longer grows with the number of join trees of the atoms.
    query = parse_query(text)
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        plan = plan_query(query, size=0)
        timings.append(time.perf_counter() - start)
    assert plan.access_admissible
    assert min(timings) < 0.010


# ---------------------------------------------------------------------
# Brault-Baron witnesses (Theorem 3.6)
# ---------------------------------------------------------------------

def test_triangle_witness_is_cycle():
    witness = find_hard_substructure(catalog.triangle_query().hypergraph())
    assert witness.kind == "cycle"
    assert set(witness.cycle_order) == {"x", "y", "z"}


def test_long_cycle_witness():
    witness = find_hard_substructure(catalog.cycle_query(5).hypergraph())
    assert witness.kind == "cycle"
    assert len(witness.vertices) == 5


def test_loomis_whitney_witness_is_hyperclique():
    for k in (4, 5):
        witness = find_hard_substructure(
            catalog.loomis_whitney_query(k).hypergraph()
        )
        assert witness.kind == "hyperclique"
        assert len(witness.vertices) == k
        assert witness.uniformity == k - 1


def test_acyclic_has_no_witness():
    assert find_hard_substructure(catalog.path_query(4).hypergraph()) is None


def test_witness_in_padded_cyclic_query():
    q = parse_query("q() :- R(a, x), S(x, y), T(y, z), U(z, x)")
    witness = find_hard_substructure(q.hypergraph())
    assert witness.kind == "cycle"
    assert witness.vertices == frozenset({"x", "y", "z"})


def test_induced_is_cycle_helpers():
    h = catalog.cycle_query(4).hypergraph()
    assert induced_is_cycle(h, frozenset({"v1", "v2", "v3", "v4"}))
    assert induced_is_cycle(h, frozenset({"v1", "v2", "v3"})) is None
    lw = catalog.loomis_whitney_query(4).hypergraph()
    assert induced_is_near_hyperclique(lw, lw.vertices)
    assert not induced_is_near_hyperclique(
        h, frozenset({"v1", "v2", "v3"})
    )


def test_uniformity_property_on_cycle_witness():
    witness = find_hard_substructure(catalog.triangle_query().hypergraph())
    with pytest.raises(ValueError):
        witness.uniformity


# ---------------------------------------------------------------------
# quantified star size (Theorem 4.6)
# ---------------------------------------------------------------------

def test_star_query_star_size_is_k():
    for k in (1, 2, 3, 4):
        assert quantified_star_size(catalog.star_query(k)) == k
        assert quantified_star_size(catalog.star_query_sjf(k)) == k


def test_boolean_star_size_zero():
    assert quantified_star_size(catalog.path_query(3, boolean=True)) == 0


def test_join_query_star_size_one():
    assert quantified_star_size(catalog.path_query(3)) == 1


def test_free_connex_star_size_at_most_one():
    fc, _ = catalog.free_connex_pair()
    assert quantified_star_size(fc) <= 1


def test_non_free_connex_path_projection_star_size():
    _, nfc = catalog.free_connex_pair()
    assert quantified_star_size(nfc) == 2


@given(conjunctive_queries(max_atoms=3, max_arity=3))
def test_star_size_bounded_by_free_variables(query):
    assert quantified_star_size(query) <= max(len(query.head), 0) or (
        quantified_star_size(query) <= 1
    )
