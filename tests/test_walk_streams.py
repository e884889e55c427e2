"""The bulk walk generator against the scalar walk, stream by stream.

``generate_corpus`` advances all walks together on the CSR arrays, taking
each walk's draws from its own ``default_rng([seed, _WALK_STREAM, m, party,
index, w])`` stream as numpy's bounded ``integers`` would. These tests pin
that it returns exactly the walks ``metapath_walk`` makes on those streams.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from trine import walks
from trine.centrality import hits, walk_budget
from trine.graph import N_PARTIES, Metapath, Node, build_from_pairs
from trine.trainer import default_metapaths

# Extra metapaths: a two-type one, one that wraps into a repeated party (its
# walks stop at four nodes) and a long one.
EXTRA_PATHS = [Metapath((1, 0)), Metapath((0, 1, 2, 1)), Metapath((2, 0, 1, 0, 2)), Metapath((1, 2))]


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
                    rng = np.random.default_rng([seed, walks._WALK_STREAM, m, party, index, w])
                    out.append((m, walks.metapath_walk(g, node, path, length, rng)))
    return out


@st.composite
def walk_cases(draw):
    """A random tripartite graph with fixed corner cases appended, and walk settings.

    Appended: user ``a`` whose only neighbor is page ``a`` and page ``a``
    with no category (a step without a draw, then a dead end on the default
    metapaths), an isolated user and an isolated category (walks that end at
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
    seed = draw(st.integers(0, 2**40))
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

    def test_lemire_draw_matches_integers(self):
        # Large bounds get rejected often; numpy then takes the next 32-bit draw.
        degs = np.concatenate([np.arange(2, 300), np.random.default_rng(5).integers(300, 2**32, 700)])
        rejections = 0
        for k, deg in enumerate(degs.tolist()):
            stream = [17, k]
            raw = np.random.default_rng(stream).bit_generator.random_raw(8)
            draws = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
            pick, rejected = walks._lemire(draws, np.full(len(draws), deg, dtype=np.uint64))
            first = int(np.argmin(rejected))
            assert not rejected[first]
            rejections += first
            assert int(pick[first]) == np.random.default_rng(stream).integers(deg)
        assert rejections > 50

    def test_lemire_rejects_crafted_draw(self):
        # x = 0, deg = 3: the low word 0 is below (2**32 - 3) % 3 = 1
        pick, rejected = walks._lemire(np.zeros(1, dtype=np.uint64), np.array([3], dtype=np.uint64))
        assert rejected.tolist() == [True] and pick.tolist() == [0]

    def test_rejected_draw_is_walked_again(self, monkeypatch):
        # user 0 has three pages, so its walks' first draw is bounded by 3
        g = build_from_pairs((2, 3, 0), [(0, 0, 0, 1.0), (0, 0, 1, 1.0), (0, 0, 2, 1.0), (0, 1, 0, 1.0)])
        paths = [Metapath((0, 1))]
        scores = hits(g)
        expected = reference_walks(g, paths, scores, 2, 2, 1.0, 5, 9)
        real_words, real_walk = walks._words, walks.metapath_walk

        def crafted_words(keys, n_words):
            words = real_words(keys, n_words)
            words[1, 0] = 0  # the first draw of user 0's second walk
            return words

        replayed = []

        def counted_walk(g, start, path, length, rng):
            replayed.append(start)
            return real_walk(g, start, path, length, rng)

        monkeypatch.setattr(walks, "_words", crafted_words)
        monkeypatch.setattr(walks, "metapath_walk", counted_walk)
        corpus = walks.generate_corpus(g, paths, scores, 2, 2, 1.0, 5, seed=9)
        assert replayed == [Node(0, 0)]
        assert corpus.walks == tuple(tuple(walk) for _, walk in expected)
