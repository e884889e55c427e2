import numpy as np
import pytest

from trine import walks
from trine.centrality import hits
from trine.graph import Metapath, Node, build_from_pairs
from trine.trainer import default_metapaths
from trine.walks import WalkCorpus, filter_by_type, generate_corpus, metapath_walk, write_walks

from conftest import random_tripartite


def star_graph(n_leaves):
    """One T1 hub connected to n_leaves T2 nodes."""
    return build_from_pairs((1, n_leaves, 0), [(0, 0, j, 1.0) for j in range(n_leaves)])


class TestMetapathWalk:
    def test_single_admissible_path(self, chain_graph):
        mp = Metapath((0, 1, 2))
        for trial in range(20):
            rng = np.random.default_rng(trial)
            walk = metapath_walk(chain_graph, Node(0, 0), mp, 3, rng)
            assert walk == [Node(0, 0), Node(1, 0), Node(2, 0)]

    def test_dead_end_truncates(self):
        g = build_from_pairs((1, 1, 1), [(0, 0, 0, 1.0)])  # no p-c edge
        walk = metapath_walk(g, Node(0, 0), Metapath((0, 1, 2)), 5, np.random.default_rng(0))
        assert walk == [Node(0, 0), Node(1, 0)]

    def test_isolated_start(self):
        g = build_from_pairs((2, 1, 0), [(0, 0, 0, 1.0)])
        walk = metapath_walk(g, Node(0, 1), Metapath((0, 1)), 4, np.random.default_rng(0))
        assert walk == [Node(0, 1)]

    def test_wrong_start_party(self, chain_graph):
        with pytest.raises(ValueError, match="does not match"):
            metapath_walk(chain_graph, Node(1, 0), Metapath((0, 1)), 3, np.random.default_rng(0))

    def test_missing_start_node(self, chain_graph):
        with pytest.raises(ValueError, match="not in graph"):
            metapath_walk(chain_graph, Node(0, 5), Metapath((0, 1)), 3, np.random.default_rng(0))

    def test_two_leaf_star_frequencies(self):
        g = star_graph(2)
        rng = np.random.default_rng(99)
        hits_p0 = 0
        n = 100_000
        for _ in range(n):
            walk = metapath_walk(g, Node(0, 0), Metapath((0, 1)), 2, rng)
            hits_p0 += walk[1].index == 0
        assert abs(hits_p0 / n - 0.5) < 0.01

    def test_uniform_law_generic(self):
        # every type-admissible neighbor drawn uniformly, 4*sqrt(0.25/N) bound
        rng = np.random.default_rng(3)
        g = random_tripartite(rng, counts=(4, 6, 3), density=0.8)
        start = Node(0, 0)
        nbrs = [n for n, _ in g.neighbors(start, 1)]
        n_trials = 20_000
        counts = {n: 0 for n in nbrs}
        walk_rng = np.random.default_rng(17)
        for _ in range(n_trials):
            walk = metapath_walk(g, start, Metapath((0, 1)), 2, walk_rng)
            counts[walk[1]] += 1
        bound = 4 * np.sqrt(0.25 / n_trials)
        for n in nbrs:
            assert abs(counts[n] / n_trials - 1 / len(nbrs)) < bound

    def test_consecutive_pairs_are_edges(self):
        rng = np.random.default_rng(31)
        g = random_tripartite(rng, counts=(6, 5, 4), density=0.4)
        scores = hits(g)
        corpus = generate_corpus(g, [Metapath((0, 1, 2, 1, 0)), Metapath((2, 1, 0, 1, 2))],
                                 scores, 1, 3, float(g.num_nodes), 9, seed=5)
        assert len(corpus) > 0
        for walk in corpus.walks:
            for a, b in zip(walk, walk[1:]):
                assert dict(g.neighbors(a, b.party)).get(b) is not None


class TestGenerateCorpus:
    def test_forced_single_budget(self):
        g = build_from_pairs((3, 2, 0), [(0, i, i % 2, 1.0) for i in range(3)])
        scores = hits(g)
        corpus = generate_corpus(g, [Metapath((0, 1))], scores, 1, 1, 1.0, 4, seed=0)
        assert len(corpus) == 3
        assert [w[0] for w in corpus.walks] == [Node(0, 0), Node(0, 1), Node(0, 2)]

    def test_empty_graph(self):
        g = build_from_pairs((0, 0, 0), [])
        corpus = generate_corpus(g, [Metapath((0, 1))], hits(g), 1, 2, 1.0, 4, seed=0)
        assert len(corpus) == 0

    def test_uncovered_party_warns(self, chain_graph, caplog):
        with caplog.at_level("WARNING"):
            generate_corpus(chain_graph, [Metapath((0, 1))], hits(chain_graph),
                            1, 1, 1.0, 3, seed=0)
        assert any("no metapath starts" in r.message for r in caplog.records)

    def test_default_metapaths_log_no_warning(self, caplog):
        # pages start no default metapath but every default metapath visits them
        g = random_tripartite(np.random.default_rng(5), counts=(4, 4, 4), density=0.6)
        with caplog.at_level("WARNING"):
            generate_corpus(g, default_metapaths(), hits(g), 1, 1, None, 5, seed=0)
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_no_metapaths_rejected(self, chain_graph):
        with pytest.raises(ValueError, match="at least one metapath"):
            generate_corpus(chain_graph, [], hits(chain_graph), 1, 1, 1.0, 3, seed=0)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(8)
        g = random_tripartite(rng, counts=(5, 5, 4), density=0.5)
        scores = hits(g)
        paths = [Metapath((0, 1, 2, 1, 0))]

        def serialize():
            corpus = generate_corpus(g, paths, scores, 1, 4, float(g.num_nodes), 8, seed=42)
            return "\n".join(" ".join(f"{n.party}:{n.index}" for n in w) for w in corpus.walks)

        assert serialize() == serialize()

    def test_budget_scales_with_centrality(self):
        # hub node must launch more walks than a leaf when the clamp allows
        g = star_graph(6)
        scores = hits(g)
        corpus = generate_corpus(g, [Metapath((0, 1)), Metapath((1, 0))], scores,
                                 1, 10, float(g.num_nodes), 2, seed=1)
        starts = [w[0] for w in corpus.walks]
        hub_walks = sum(1 for s in starts if s.party == 0)
        leaf_walks = sum(1 for s in starts if s == Node(1, 0))
        assert hub_walks > leaf_walks


class TestFilterByType:
    def test_mixed_walk_split(self):
        corpus_walks = [[Node(0, 1), Node(1, 1), Node(2, 1), Node(1, 2), Node(0, 2)]]
        typed = filter_by_type(WalkCorpus.from_walks(corpus_walks, [0], [Metapath((0, 1, 2, 1, 0))]))
        assert typed.sequences(0) == [[1, 2]]
        assert typed.sequences(1) == [[1, 2]]
        assert typed.sequences(2) == [[1]]

    def test_singleton_walk(self):
        typed = filter_by_type(WalkCorpus.from_walks([[Node(1, 3)]], [0], [Metapath((1, 0))]))
        assert typed.sequences(1) == [[3]]
        assert typed.sequences(0) == []
        assert typed.sequences(2) == []

    def test_full_length_walk_counts(self):
        # 100 five-step T1-T2-T3-T2-T1 walks: per-type lengths 2 / 2 / 1
        rng = np.random.default_rng(2)
        g = random_tripartite(rng, counts=(6, 6, 6), density=0.9)
        scores = hits(g)
        corpus = generate_corpus(g, [Metapath((0, 1, 2, 1, 0))], scores,
                                 17, 17, 1.0, 5, seed=3)
        full = [w for w in corpus.walks if len(w) == 5]
        assert len(full) >= 100
        typed = filter_by_type(corpus)
        n_full = len(full)
        assert sum(1 for s in typed.sequences(0) if len(s) == 2) >= n_full
        assert sum(1 for s in typed.sequences(1) if len(s) == 2) >= n_full
        assert sum(1 for s in typed.sequences(2) if len(s) == 1) >= n_full

    def test_occurrence_conservation(self):
        rng = np.random.default_rng(12)
        g = random_tripartite(rng, counts=(5, 4, 4), density=0.5)
        scores = hits(g)
        corpus = generate_corpus(g, [Metapath((0, 1, 2, 1, 0)), Metapath((2, 1, 0, 1, 2))],
                                 scores, 1, 3, float(g.num_nodes), 7, seed=4)
        typed = filter_by_type(corpus)
        raw_counts: dict[Node, int] = {}
        for walk in corpus.walks:
            for node in walk:
                raw_counts[node] = raw_counts.get(node, 0) + 1
        for p in range(3):
            filtered = typed.occurrence_counts(p, g.counts[p])
            for i in range(g.counts[p]):
                assert filtered[i] == raw_counts.get(Node(p, i), 0)

    def test_arrays_match_split_of_walk_view(self, tmp_path):
        rng = np.random.default_rng(40)
        g = random_tripartite(rng, counts=(7, 5, 4), density=0.35)
        paths = default_metapaths() + [Metapath((1, 0)), Metapath((0, 1, 2, 1))]
        corpus = generate_corpus(g, paths, hits(g), 1, 4, None, 9, seed=11)
        walks = corpus.walks
        assert {len(w) for w in walks} >= {1, 4, 9}
        typed = filter_by_type(corpus)
        for p in range(3):
            split = ([n.index for n in walk if n.party == p] for walk in walks)
            assert typed.sequences(p) == [seq for seq in split if seq]
            assert typed.nodes[p].dtype == np.int32 and typed.offsets[p].dtype == np.int64
        path = tmp_path / "walks.txt"
        write_walks(corpus, g, path)
        assert path.read_text() == "".join(" ".join(g.label_of(n) for n in w) + "\n" for w in walks)

    @pytest.mark.parametrize("block", [1, 3])
    def test_write_walks_in_blocks_matches_default(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(41)
        g = random_tripartite(rng, counts=(7, 5, 4), density=0.35)
        corpus = generate_corpus(g, default_metapaths(), hits(g), 1, 4, None, 9, seed=12)
        assert len(corpus.lengths) > 3 * block
        write_walks(corpus, g, tmp_path / "default.txt")
        monkeypatch.setattr(walks, "_WRITE_BLOCK", block)
        write_walks(corpus, g, tmp_path / "blocks.txt")
        assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "default.txt").read_bytes()

    def test_from_walks_checks_metapath_types(self):
        walks = [[Node(0, 1), Node(1, 0)], [Node(1, 2), Node(0, 0), Node(1, 1)]]
        corpus = WalkCorpus.from_walks(walks, [0, 1], [Metapath((0, 1)), Metapath((1, 0, 1))])
        assert corpus.walks == tuple(map(tuple, walks)) and corpus.lengths.tolist() == [2, 3]
        with pytest.raises(ValueError, match="does not follow"):
            WalkCorpus.from_walks(walks, [1, 1], [Metapath((0, 1)), Metapath((1, 0, 1))])
