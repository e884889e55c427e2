"""Tests of the O(E) planted-partition sampler.

    PYTHONPATH=src python3 -m pytest bench/test_plant.py
"""

import numpy as np
import pytest

import plant
from trine import load_edge_list


def test_expected_triples_hit_the_target():
    expected = plant.expected_block_triples(plant.PAPER_COUNTS, plant.block_probabilities())
    assert float(expected.sum()) == pytest.approx(plant.PAPER_TRIPLES, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_block_counts_match_p_times_activity_sums(seed):
    """Per community block, the triple count lies within 4 sigma of p * sum(a_u) * sum(a_t) * sum(a_c)."""
    probs = plant.block_probabilities()
    expected = plant.expected_block_triples(plant.PAPER_COUNTS, probs)
    triples = plant.sample_triples(plant.PAPER_COUNTS, probs, seed)
    k = plant.COMMUNITIES
    blocks = [plant.communities(plant.PAPER_COUNTS[p])[triples[:, p]] for p in range(3)]
    observed = np.zeros((k, k, k))
    np.add.at(observed, tuple(blocks), 1)
    # Poisson counts: the standard deviation is the square root of the mean.
    z = (observed - expected) / np.sqrt(expected)
    assert np.abs(z).max() < 4.0, (observed, expected)


@pytest.mark.parametrize("seed", range(5))
def test_relation_block_edges_match_p_times_activity_sums(seed):
    """Per relation and block (x, y), the edge count lies within 4 sigma of the triples' mean.

    That mean is p_xy * sum(a_u) * sum(a_v) with p_xy = sum_z p_xyz * sum(a) over
    the third party's community z; merging repeated pairs removes about 0.1%.
    """
    probs = plant.block_probabilities()
    expected = plant.expected_block_triples(plant.PAPER_COUNTS, probs)
    edges = plant.edges_of(plant.PAPER_COUNTS, plant.sample_triples(plant.PAPER_COUNTS, probs, seed))
    k = plant.COMMUNITIES
    for (a, b), (src, dst) in zip(plant.RELATIONS, edges):
        third = 3 - a - b
        mean = expected.sum(axis=third)
        observed = np.zeros((k, k))
        np.add.at(observed, (plant.communities(plant.PAPER_COUNTS[a])[src],
                             plant.communities(plant.PAPER_COUNTS[b])[dst]), 1)
        z = (observed - mean) / np.sqrt(mean)
        assert np.abs(z).max() < 4.0, ((a, b), observed, mean)


def test_heavy_users_carry_their_share():
    """Users are drawn in proportion to activity: heavy users carry their activity share."""
    triples = plant.sample_triples(plant.PAPER_COUNTS, plant.block_probabilities(), 2)
    acts = plant.activities(0, plant.PAPER_COUNTS[0])
    heavy = acts > 1.0
    share = acts[heavy].sum() / acts.sum()
    observed = heavy[triples[:, 0]].mean()
    sigma = np.sqrt(share * (1 - share) / len(triples))
    assert abs(observed - share) < 4 * sigma


def _linked(edges, party: int, other: int) -> set[int]:
    """Nodes of ``party`` with an edge to ``other``."""
    for (a, b), (src, dst) in zip(plant.RELATIONS, edges):
        if (a, b) == (party, other):
            return set(src.tolist())
        if (a, b) == (other, party):
            return set(dst.tolist())


def test_every_linked_node_has_both_other_parties():
    edges = plant.edges_of(plant.PAPER_COUNTS,
                           plant.sample_triples(plant.PAPER_COUNTS, plant.block_probabilities(), 3))
    for p in range(3):
        q, r = (x for x in range(3) if x != p)
        assert _linked(edges, p, q) == _linked(edges, p, r)


def test_pairs_are_unique_and_in_range():
    edges = plant.edges_of(plant.PAPER_COUNTS,
                           plant.sample_triples(plant.PAPER_COUNTS, plant.block_probabilities(), 3))
    for r, (a, b) in enumerate(plant.RELATIONS):
        src, dst = edges[r]
        key = src * plant.PAPER_COUNTS[b] + dst
        assert len(np.unique(key)) == len(key)
        assert src.min() >= 0 and src.max() < plant.PAPER_COUNTS[a]
        assert dst.min() >= 0 and dst.max() < plant.PAPER_COUNTS[b]


def test_written_graph_loads_with_every_node(tmp_path):
    path = tmp_path / "paper.txt"
    counts = plant.paper_graph(7, path)
    g = load_edge_list(path)
    assert g.counts == plant.PAPER_COUNTS
    assert [len(w) for w in g.edge_wt] == counts


def test_same_seed_same_bytes(tmp_path):
    plant.paper_graph(11, tmp_path / "a.txt")
    plant.paper_graph(11, tmp_path / "b.txt")
    plant.paper_graph(12, tmp_path / "c.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.txt").read_bytes() != (tmp_path / "c.txt").read_bytes()
