import math

import numpy as np
import pytest

from trine.centrality import hits, walk_budget
from trine.errors import ConfigError
from trine.graph import Node, build_from_pairs

from conftest import random_tripartite


def dense_hits_oracle(g, max_iter=5000, tol=1e-14):
    """Independent dense-matrix mutual-reinforcement iteration."""
    n = g.num_nodes
    offsets = (0, g.counts[0], g.counts[0] + g.counts[1])
    A = np.zeros((n, n))
    for r, (a, b) in enumerate(((0, 1), (1, 2), (0, 2))):
        for i, j, w in zip(g.edge_src[r], g.edge_dst[r], g.edge_wt[r]):
            A[offsets[a] + i, offsets[b] + j] = w
            A[offsets[b] + j, offsets[a] + i] = w
    hub = np.full(n, 1.0 / math.sqrt(n))
    auth = hub.copy()
    for _ in range(max_iter):
        new_auth = A @ hub
        new_auth /= np.linalg.norm(new_auth)
        new_hub = A @ new_auth
        new_hub /= np.linalg.norm(new_hub)
        delta = max(np.linalg.norm(new_auth - auth), np.linalg.norm(new_hub - hub))
        auth, hub = new_auth, new_hub
        if delta < tol:
            break
    return hub, auth


class TestHits:
    def test_single_edge_symmetric(self):
        g = build_from_pairs((1, 1, 0), [(0, 0, 0, 1.0)])
        s = hits(g)
        assert s.of(Node(0, 0)) == pytest.approx(1 / math.sqrt(2))
        assert s.of(Node(1, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_complete_bipartite_2x2_all_equal(self):
        g = build_from_pairs((2, 2, 0), [(0, i, j, 1.0) for i in range(2) for j in range(2)])
        s = hits(g)
        scores = [s.of(Node(p, i)) for p in (0, 1) for i in range(2)]
        assert all(x == pytest.approx(0.5) for x in scores)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            g = random_tripartite(rng, counts=(8, 7, 5), density=0.35)
            if g.num_edges == 0:
                continue
            s = hits(g, max_iter=5000, tol=1e-14)
            _, auth = dense_hits_oracle(g)
            assert np.max(np.abs(s.authority - auth)) < 1e-8

    def test_edgeless_graph_degenerate(self):
        g = build_from_pairs((2, 2, 1), [])
        s = hits(g)
        assert np.all(s.authority == 0.0)
        assert np.all(s.hub == 0.0)

    def test_node_order_permutation_invariance(self):
        # same topology, edges listed in two different orders
        edges = [(0, 0, 1, 2.0), (0, 1, 0, 1.0), (1, 1, 0, 3.0), (2, 0, 0, 1.0)]
        g1 = build_from_pairs((2, 2, 1), edges)
        g2 = build_from_pairs((2, 2, 1), list(reversed(edges)))
        s1 = hits(g1, tol=1e-12)
        s2 = hits(g2, tol=1e-12)
        assert np.allclose(s1.authority, s2.authority, atol=1e-10)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(5)
        g = random_tripartite(rng, counts=(5, 4, 3), density=0.5)
        scaled = [(r, int(i), int(j), 7.5 * w)
                  for r in range(3)
                  for i, j, w in zip(g.edge_src[r], g.edge_dst[r], g.edge_wt[r])]
        g7 = build_from_pairs(g.counts, scaled)
        s = hits(g, tol=1e-12)
        s7 = hits(g7, tol=1e-12)
        assert np.allclose(s.authority, s7.authority, atol=1e-9)

    def test_l2_normalized(self):
        rng = np.random.default_rng(9)
        g = random_tripartite(rng)
        s = hits(g)
        assert np.linalg.norm(s.authority) == pytest.approx(1.0)
        assert np.linalg.norm(s.hub) == pytest.approx(1.0)
        assert np.all(s.authority >= 0)

    def test_bad_parameters(self):
        g = build_from_pairs((1, 1, 0), [(0, 0, 0, 1.0)])
        with pytest.raises(ConfigError):
            hits(g, max_iter=0)
        with pytest.raises(ConfigError):
            hits(g, tol=0.0)
        for tol in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="finite"):
                hits(g, tol=tol)


class TestWalkBudget:
    def test_lower_clamp(self):
        assert walk_budget(0.0, 1, 32, 10.0) == 1

    def test_upper_clamp(self):
        assert walk_budget(10.0, 1, 32, 10.0) == 32

    def test_ceil(self):
        assert walk_budget(0.37, 1, 32, 20.0) == 8  # ceil(7.4)

    def test_monotone_in_score(self):
        budgets = [walk_budget(s, 2, 9, 15.0) for s in np.linspace(0, 1, 101)]
        assert budgets == sorted(budgets)
        assert min(budgets) >= 2 and max(budgets) <= 9

    def test_bad_clamps(self):
        with pytest.raises(ConfigError):
            walk_budget(0.5, 5, 3, 1.0)
        with pytest.raises(ConfigError):
            walk_budget(0.5, 0, 3, 1.0)
        with pytest.raises(ConfigError):
            walk_budget(0.5, 1, 3, 0.0)
        for scale in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="finite"):
                walk_budget(0.5, 1, 3, scale)
