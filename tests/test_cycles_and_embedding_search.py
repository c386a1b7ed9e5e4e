"""Cycle evaluation, triangle counting, and the embedding-power search."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.columnar import ColumnarRelation
from repro.joins.cycles import (
    count_triangles,
    count_triangles_combinatorial,
    count_triangles_matrix,
    cycle_boolean_generic,
    cycle_boolean_meet_in_middle,
)
from repro.query import catalog
from repro.reductions.clique_embedding import example_5cycle_embedding
from repro.reductions.embedding_search import (
    best_embedding,
    connected_variable_sets,
    embedding_power_lower_bound,
    iter_embeddings,
)
from repro.workloads import random_database, random_triangle_db


# ---------------------------------------------------------------------
# cycle evaluation
# ---------------------------------------------------------------------

@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_cycle_algorithms_agree(k):
    query = catalog.cycle_query(k, boolean=True)
    for seed in (1, 2, 3):
        db = random_database(query, 40, 6, seed=seed)
        expected = query.holds(db)
        assert cycle_boolean_generic(db, k) == expected, (k, seed)
        assert cycle_boolean_meet_in_middle(db, k) == expected, (k, seed)


def test_cycle_empty_relation():
    db = Database()
    for i in range(1, 5):
        db.add_relation(ColumnarRelation(f"R{i}", 2))
    assert not cycle_boolean_meet_in_middle(db, 4)
    assert not cycle_boolean_generic(db, 4)


def test_cycle_single_witness():
    db = Database.from_dict(
        {
            "R1": [(1, 2)],
            "R2": [(2, 3)],
            "R3": [(3, 4)],
            "R4": [(4, 1)],
        }
    )
    assert cycle_boolean_meet_in_middle(db, 4)


def test_cycle_validation():
    db = Database.from_dict({"R1": [(1, 2, 3)]})
    with pytest.raises(ValueError):
        cycle_boolean_meet_in_middle(db, 3)
    with pytest.raises(ValueError):
        cycle_boolean_meet_in_middle(Database(), 2)


# ---------------------------------------------------------------------
# triangle counting
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_triangle_counts_agree_with_brute(seed):
    db = random_triangle_db(40, 6, seed=seed)
    expected = catalog.triangle_query(boolean=False).count_brute_force(db)
    assert count_triangles_matrix(db) == expected
    assert count_triangles_combinatorial(db) == expected


def test_triangle_count_empty():
    db = Database()
    for name in ("R1", "R2", "R3"):
        db.add_relation(ColumnarRelation(name, 2))
    assert count_triangles(db) == 0


def test_triangle_count_method_dispatch():
    db = random_triangle_db(20, 5, seed=9)
    assert count_triangles(db, "matrix") == count_triangles(
        db, "combinatorial"
    )
    with pytest.raises(ValueError):
        count_triangles(db, "astrology")


def test_triangle_count_agm_tight():
    from repro.workloads import agm_tight_triangle_db

    db = agm_tight_triangle_db(64)  # side 8: 512 answers
    assert count_triangles(db) == 512


# ---------------------------------------------------------------------
# embedding search
# ---------------------------------------------------------------------

def test_connected_variable_sets_of_path():
    q = catalog.path_query(2)
    sets = connected_variable_sets(q, 2)
    assert frozenset({"v1", "v2"}) in sets
    assert frozenset({"v1", "v3"}) not in sets  # disconnected
    assert all(len(s) <= 2 for s in sets)


def test_triangle_embedding_power_is_three_halves():
    query = catalog.triangle_query(boolean=False)
    power, embedding = embedding_power_lower_bound(
        query, max_clique_size=4, max_block=2
    )
    assert power == pytest.approx(1.5)
    assert embedding.clique_size == 3


def test_loomis_whitney_embedding_power():
    query = catalog.loomis_whitney_query(4, boolean=False)
    embedding = best_embedding(query, 4, max_block=1)
    assert embedding is not None
    assert embedding.power_lower_bound() == pytest.approx(4 / 3)


def test_cycle5_search_beats_example42():
    """[41]: emb(C5) = 5/3 > 5/4, the value Example 4.2's embedding
    certifies; the automatic search finds the better one."""
    query = catalog.cycle_query(5)
    found = best_embedding(query, 5, max_block=3)
    assert found is not None
    example = example_5cycle_embedding()
    assert found.power_lower_bound() == pytest.approx(5 / 3)
    assert found.power_lower_bound() > example.power_lower_bound()


def test_cycle4_embedding_power():
    query = catalog.cycle_query(4)
    power, _ = embedding_power_lower_bound(
        query, max_clique_size=4, max_block=2
    )
    assert power == pytest.approx(1.5)  # emb(C4) = 3/2 per [41]


def test_embeddings_found_are_valid():
    query = catalog.cycle_query(4)
    count = 0
    for embedding in iter_embeddings(query, 3, max_block=2):
        embedding.validate()  # does not raise
        count += 1
        if count >= 25:
            break
    assert count > 0


def test_single_vertex_embedding_always_exists():
    query = catalog.path_query(2)
    embedding = best_embedding(query, 1, max_block=1)
    assert embedding is not None
    assert embedding.power_lower_bound() >= 1.0


def test_embedding_search_respects_block_cap():
    query = catalog.cycle_query(5)
    for embedding in iter_embeddings(query, 3, max_block=2):
        assert all(len(block) <= 2 for block in embedding.psi)
        break
