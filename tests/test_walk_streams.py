"""The bulk walk generator against the scalar walk, stream by stream.

``generate_corpus`` advances all walks together on the CSR arrays. Walk
``(m, party, index, w)`` moves at ``step`` to neighbor ``floor(x * deg /
2**64)``, ``x`` being the ``step``-th output of the SplitMix64 stream keyed
by ``_walk_keys(seed, m, party, index, w)``. These tests pin that it returns
exactly the walks ``metapath_walk`` makes when its ``integers`` calls serve
those picks, and that the production path follows the uniform walk law.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trine import walks
from trine.centrality import hits, walk_budget
from trine.graph import N_PARTIES, Metapath, Node, build_from_pairs
from trine.trainer import default_metapaths

# Extra metapaths: a two-type one, one that wraps into a repeated party (its
# walks stop at four nodes) and a long one.
EXTRA_PATHS = [Metapath((1, 0)), Metapath((0, 1, 2, 1)), Metapath((2, 0, 1, 0, 2)), Metapath((1, 2))]


class CounterStream:
    """``integers`` serving one walk's counter-stream picks: call ``k`` picks with step ``k``'s draw."""

    def __init__(self, seed, *fields):
        self.key = walks._walk_keys(seed, *(np.array([v]) for v in fields))
        self.step = 0

    def integers(self, deg):
        self.step += 1
        return int(walks._pick(walks._draw(self.key, self.step), np.array([deg]))[0])


def reference_walks(g, metapaths, scores, min_walks, max_walks, scale, length, seed):
    """(metapath, walk) pairs from one ``metapath_walk`` call per walk, in corpus order."""
    if scale is None:
        scale = float(g.num_nodes)
    out = []
    for party in range(N_PARTIES):
        for index in range(g.counts[party]):
            node = Node(party, index)
            budget = int(walk_budget(scores.of(node), min_walks, max_walks, scale))
            for m, path in enumerate(metapaths):
                if path.start != party:
                    continue
                for w in range(budget):
                    rng = CounterStream(seed, m, party, index, w)
                    out.append((m, walks.metapath_walk(g, node, path, length, rng)))
    return out


@st.composite
def walk_cases(draw):
    """A random tripartite graph with fixed corner cases appended, and walk settings.

    Appended: user ``a`` whose only neighbor is page ``a`` and page ``a``
    with no category (a degree-1 step, whose pick is 0 whatever the draw,
    then a dead end on the default metapaths), an isolated user and an isolated category (walks that end at
    their start).
    """
    counts = [draw(st.integers(0, 5)) for _ in range(N_PARTIES)]
    density = draw(st.floats(0.05, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = []
    for r, (a, b) in enumerate(((0, 1), (1, 2), (0, 2))):
        for i in range(counts[a]):
            for j in range(counts[b]):
                if rng.random() < density:
                    edges.append((r, i, j, float(rng.integers(1, 4))))
    edges.append((0, counts[0], counts[1], 1.0))
    g = build_from_pairs((counts[0] + 2, counts[1] + 1, counts[2] + 1), edges)
    metapaths = default_metapaths() + draw(st.lists(st.sampled_from(EXTRA_PATHS), max_size=2))
    min_walks = draw(st.integers(1, 3))
    max_walks = draw(st.integers(min_walks, 4))
    scale = draw(st.one_of(st.none(), st.floats(0.5, 40.0)))
    length = draw(st.integers(1, 12))
    # past 2**64 the seed folds in as more than one limb
    seed = draw(st.integers(0, 2**70))
    return g, metapaths, min_walks, max_walks, scale, length, seed


class TestBulkWalks:
    @settings(max_examples=80, deadline=None)
    @given(walk_cases())
    def test_equals_scalar_walk_on_each_stream(self, case):
        g, metapaths, min_walks, max_walks, scale, length, seed = case
        scores = hits(g)
        corpus = walks.generate_corpus(g, metapaths, scores, min_walks, max_walks, scale, length, seed)
        expected = reference_walks(g, metapaths, scores, min_walks, max_walks, scale, length, seed)
        assert corpus.metapath_ids.tolist() == [m for m, _ in expected]
        assert corpus.walks == tuple(tuple(walk) for _, walk in expected)
        past_end = np.arange(corpus.nodes.shape[1]) >= corpus.lengths[:, None]
        assert (corpus.nodes[past_end] == -1).all()

    @pytest.mark.parametrize("x", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("deg", [1, 2, 3, 2**32 - 1])
    def test_pick_is_high_word_of_product(self, x, deg):
        pick = walks._pick(np.array([x], dtype=np.uint64), np.array([deg]))
        assert pick.tolist() == [x * deg >> 64]

    def test_every_seed_limb_counts(self):
        seeds = [0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**128]
        keys = [int(walks._walk_keys(s, np.arange(1))[0]) for s in seeds]
        assert len(set(keys)) == len(seeds)

    def test_star_frequencies(self):
        """100,000 walks from the hub of a five-leaf star: each leaf at 0.2 +- 0.01."""
        g = build_from_pairs((1, 5, 0), [(0, 0, j, 1.0) for j in range(5)])
        n = 100_000
        for seed in (1, 2):
            corpus = walks.generate_corpus(g, [Metapath((0, 1))], hits(g), n, n, 1.0, 2, seed)
            assert len(corpus) == n and (corpus.lengths == 2).all()
            counts = np.bincount(corpus.nodes[:, 1], minlength=5)
            assert np.abs(counts / n - 0.2).max() < 0.01
