"""Shared hypothesis strategies and instance builders for the tests.

The property tests compare every fast algorithm against the
brute-force reference on randomly generated queries and databases, so
the strategies here are the backbone of the suite.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from hypothesis import strategies as st

from repro.db.database import Database
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery

VARIABLE_POOL = ["a", "b", "c", "d", "e", "f"]


@st.composite
def atoms(draw, max_arity: int = 3) -> Atom:
    arity = draw(st.integers(min_value=1, max_value=max_arity))
    variables = draw(
        st.lists(
            st.sampled_from(VARIABLE_POOL),
            min_size=arity,
            max_size=arity,
        )
    )
    name = draw(
        st.sampled_from(["R", "S", "T", "U", "V", "W"])
    )
    return Atom(name, tuple(variables))


@st.composite
def conjunctive_queries(
    draw,
    max_atoms: int = 4,
    max_arity: int = 3,
    self_join_free: bool = True,
) -> ConjunctiveQuery:
    """Random safe conjunctive queries over a small variable pool."""
    count = draw(st.integers(min_value=1, max_value=max_atoms))
    body: List[Atom] = []
    symbol_arity = {}
    for i in range(count):
        atom = draw(atoms(max_arity=max_arity))
        if self_join_free:
            atom = Atom(f"{atom.relation}{i}", atom.variables)
        elif symbol_arity.get(atom.relation, atom.arity) != atom.arity:
            # Self-joins require consistent arity per symbol; suffix
            # the arity to keep the draw instead of resampling.
            atom = Atom(f"{atom.relation}_{atom.arity}", atom.variables)
        symbol_arity.setdefault(atom.relation, atom.arity)
        body.append(atom)
    variables = sorted({v for atom in body for v in atom.scope})
    head_size = draw(st.integers(min_value=0, max_value=len(variables)))
    head = tuple(draw(st.permutations(variables))[:head_size])
    return ConjunctiveQuery(head, tuple(body), name="q_random")


@st.composite
def join_queries(draw, max_atoms: int = 4, max_arity: int = 3) -> ConjunctiveQuery:
    """Random self-join-free join queries (all variables free)."""
    query = draw(
        conjunctive_queries(max_atoms=max_atoms, max_arity=max_arity)
    )
    return query.as_join_query()


def random_database_for(
    query: ConjunctiveQuery,
    tuples_per_relation: int,
    domain_size: int,
    seed: int,
) -> Database:
    """A deterministic random database for a query (no hypothesis)."""
    rng = random.Random(seed)
    db = Database()
    for symbol in query.relation_symbols:
        arity = next(
            a.arity for a in query.atoms if a.relation == symbol
        )
        db.ensure_relation(symbol, arity).add_all(
            [
                tuple(rng.randrange(domain_size) for _ in range(arity))
                for _ in range(tuples_per_relation)
            ]
        )
    return db


@st.composite
def databases_for(draw, query: ConjunctiveQuery, max_tuples: int = 25):
    """A hypothesis-drawn database for a fixed query."""
    db = Database()
    domain = st.integers(min_value=0, max_value=5)
    for symbol in query.relation_symbols:
        arity = next(
            a.arity for a in query.atoms if a.relation == symbol
        )
        rows = draw(
            st.lists(
                st.tuples(*([domain] * arity)),
                min_size=0,
                max_size=max_tuples,
            )
        )
        db.ensure_relation(symbol, arity).add_all(rows)
    return db


@st.composite
def queries_with_databases(
    draw,
    max_atoms: int = 4,
    max_arity: int = 3,
    self_join_free: bool = True,
    max_tuples: int = 25,
) -> Tuple[ConjunctiveQuery, Database]:
    query = draw(
        conjunctive_queries(
            max_atoms=max_atoms,
            max_arity=max_arity,
            self_join_free=self_join_free,
        )
    )
    db = draw(databases_for(query, max_tuples=max_tuples))
    return query, db


@st.composite
def acyclic_hypergraph_edges(draw, max_vertices: int = 7):
    """Edges of a random acyclic hypergraph, built via a random
    join-tree shape (guaranteed acyclic by construction)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    edge_count = draw(st.integers(min_value=1, max_value=5))
    edges = []
    used: set = set()
    for index in range(edge_count):
        if not edges:
            size = draw(st.integers(min_value=1, max_value=min(3, n)))
            first = frozenset(draw(st.permutations(vertices))[:size])
            edges.append(first)
            used |= first
            continue
        # Attach to one parent edge: separator ⊆ parent plus vertices
        # never used before — a GYO ear, so acyclicity is preserved.
        parent = edges[draw(st.integers(0, len(edges) - 1))]
        shared_size = draw(st.integers(0, len(parent)))
        shared = list(draw(st.permutations(sorted(parent))))[:shared_size]
        fresh_pool = [v for v in vertices if v not in used]
        fresh_count = draw(st.integers(0, min(2, len(fresh_pool))))
        fresh = (
            list(draw(st.permutations(fresh_pool)))[:fresh_count]
            if fresh_pool
            else []
        )
        edge = frozenset(shared) | frozenset(fresh)
        if edge:
            edges.append(edge)
            used |= edge
    return edges
