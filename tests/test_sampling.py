import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trine.errors import SamplerError
from trine import sampling
from trine.graph import Node, build_from_pairs
from trine.sampling import NegativeSampler
from trine.walks import TypedCorpus, window_pairs


def brute_force_pairs(seq, window):
    out = []
    for i in range(len(seq)):
        for j in range(len(seq)):
            if i != j and abs(i - j) <= window:
                out.append((seq[i], seq[j]))
    return out


def typed_corpus(seqs_u=(), seqs_p=(), seqs_c=()):
    return TypedCorpus.from_sequences((seqs_u, seqs_p, seqs_c))


def scan_pairs(seqs, window, ranks=None):
    """(center, context) node pairs of the window routine over one party's sequences."""
    typed = typed_corpus(seqs_u=seqs)
    center, context = window_pairs(*typed.windows(0, window), ranks)
    nodes = typed.nodes[0]
    return list(zip(nodes[center].tolist(), nodes[context].tolist()))


sequences = st.lists(st.lists(st.integers(0, 9), max_size=12), max_size=5)


class TestContextPairs:
    def test_window_one(self):
        assert scan_pairs([[5, 7, 9]], 1) == [(5, 7), (7, 5), (7, 9), (9, 7)]

    def test_window_exceeds_length(self):
        assert scan_pairs([[1, 2]], 5) == [(1, 2), (2, 1)]

    def test_all_ordered_pairs_when_window_covers(self):
        for n in (2, 4, 7):
            seq = list(range(n))
            assert len(scan_pairs([seq], n)) == n * (n - 1)

    def test_singleton_and_empty(self):
        assert scan_pairs([[3]], 2) == []
        assert scan_pairs([[]], 2) == []
        assert scan_pairs([], 2) == []

    def test_bad_window(self):
        with pytest.raises(ValueError):
            typed_corpus(seqs_u=[[1, 2]]).windows(0, 0)

    @given(sequences, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, seqs, window):
        # scan order: sequence, then center position, then context position
        expected = [pair for seq in seqs for pair in brute_force_pairs(seq, window)]
        assert scan_pairs(seqs, window) == expected

    @given(sequences, st.integers(1, 6), st.lists(st.integers(0, 10**6), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_ranks_pick_scan_order(self, seqs, window, raw_ranks):
        expected = [pair for seq in seqs for pair in brute_force_pairs(seq, window)]
        ranks = np.array([r % len(expected) for r in raw_ranks] if expected else [],
                         dtype=np.int64)
        assert scan_pairs(seqs, window, ranks) == [expected[r] for r in ranks]

    @given(sequences, st.integers(1, 6), st.lists(st.integers(0, 10**6), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_windows_of_chosen_occurrences(self, seqs, window, raw_at):
        # each chosen occurrence's partners, in scan order, indexed by the choice
        typed = typed_corpus(seqs_u=seqs)
        n = len(typed.nodes[0])
        at = np.array([a % n for a in raw_at] if n else [], dtype=np.int64)
        lo, hi = typed.windows(0, window)
        pick, partner = window_pairs(lo[at], hi[at], at=at)
        expected = [(k, j) for k, a in enumerate(at.tolist())
                    for j in range(lo[a], hi[a]) if j != a]
        assert list(zip(pick.tolist(), partner.tolist())) == expected

    @given(st.lists(st.integers(0, 9), min_size=2, max_size=10),
           st.integers(1, 10), st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    def test_window_partners_consistent(self, seq, window, pos):
        pos = pos % len(seq)
        # the sequence sits between two others, so clipping must stay inside it
        typed = typed_corpus(seqs_u=[[0, 1], seq, [2]])
        lo, hi = typed.windows(0, window)
        k = 2 + pos
        nodes = typed.nodes[0].tolist()
        partners = nodes[lo[k]:k] + nodes[k + 1:hi[k]]
        expected = [seq[j] for j in range(len(seq))
                    if j != pos and abs(j - pos) <= window]
        assert partners == expected


class TestBuildSampler:
    def test_unigram_ratio_power_one(self):
        g = build_from_pairs((2, 1, 0), [(0, 0, 0, 1.0), (0, 1, 0, 1.0)])
        typed = typed_corpus(seqs_u=[[0] * 8 + [1]])
        sampler = NegativeSampler.build(typed, g, power=1.0, window=2)
        probs = sampler.table_probabilities(0)
        assert probs[0] / probs[1] == pytest.approx(8.0)

    def test_unigram_ratio_power_075(self):
        g = build_from_pairs((2, 1, 0), [(0, 0, 0, 1.0), (0, 1, 0, 1.0)])
        typed = typed_corpus(seqs_u=[[0] * 16, [1]])
        sampler = NegativeSampler.build(typed, g, power=0.75, window=2)
        probs = sampler.table_probabilities(0)
        assert probs[0] / probs[1] == pytest.approx(16 ** 0.75)  # = 8

    @pytest.mark.parametrize("power", [0.0, -1.0, float("nan"), float("inf")])
    def test_power_must_be_positive_and_finite(self, power):
        g = build_from_pairs((2, 1, 0), [(0, 0, 0, 1.0), (0, 1, 0, 1.0)])
        with pytest.raises(ValueError, match="power must be positive and finite"):
            NegativeSampler.build(typed_corpus(seqs_u=[[0, 1]]), g, power=power, window=2)

    def test_empty_corpus_uniform_fallback(self, caplog):
        g = build_from_pairs((3, 1, 0), [(0, i, 0, 1.0) for i in range(3)])
        with caplog.at_level("WARNING"):
            sampler = NegativeSampler.build(typed_corpus(), g, window=2)
        assert any("uniform" in r.message for r in caplog.records)
        assert np.allclose(sampler.table_probabilities(0), 1 / 3)

    def test_exclusion_buckets_from_windows(self):
        g = build_from_pairs((5, 1, 0), [(0, i, 0, 1.0) for i in range(5)])
        typed = typed_corpus(seqs_u=[[0, 1, 2, 3, 4]])
        sampler = NegativeSampler.build(typed, g, window=1)
        assert sampler.exclusion_bucket(Node(0, 0)) == {1}
        assert sampler.exclusion_bucket(Node(0, 2)) == {1, 3}
        sampler2 = NegativeSampler.build(typed, g, window=3)
        assert sampler2.exclusion_bucket(Node(0, 0)) == {1, 2, 3}

    @given(st.lists(st.lists(st.integers(0, 7), max_size=9), max_size=6), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_buckets_and_mass_match_per_node_definition(self, seqs, window):
        g = build_from_pairs((8, 1, 0), [(0, i, 0, 1.0) for i in range(8)])
        sampler = NegativeSampler.build(typed_corpus(seqs_u=seqs), g, window=window)
        probs = sampler.table_probabilities(0)
        for c in range(8):
            # every node within the window of an occurrence of c, c itself only
            # when a second occurrence of c is that close
            bucket = {seq[j] for seq in seqs for i in range(len(seq)) if seq[i] == c
                      for j in range(len(seq)) if j != i and abs(i - j) <= window}
            assert sampler.exclusion_bucket(Node(0, c)) == bucket
            # c is rejected once, whether or not it is in its own bucket
            mass = max(1.0 - sum(probs[z] for z in bucket | {c}), 0.0)
            assert abs(sampler.available_mass(Node(0, c)) - mass) <= 1e-12


class TestSampleNegatives:
    def _sampler(self, n_nodes, seqs):
        g = build_from_pairs((n_nodes, 1, 0), [(0, i, 0, 1.0) for i in range(n_nodes)])
        return NegativeSampler.build(typed_corpus(seqs_u=seqs), g, window=1)

    def test_zero_requested(self):
        sampler = self._sampler(3, [[0, 1, 2]])
        assert sampler.sample(Node(0, 0), 0, np.random.default_rng(0)) == []

    def test_forced_outcome(self):
        # two nodes, no co-occurrence: the only negative for 0 is 1
        sampler = self._sampler(2, [[0], [1]])
        draws = sampler.sample(Node(0, 0), 10, np.random.default_rng(1))
        assert draws == [1] * 10

    def test_degenerate_party_errors(self):
        # 0 and 1 co-occur, so 1 is excluded for 0 and nothing remains
        sampler = self._sampler(2, [[0, 1]])
        with pytest.raises(SamplerError, match="degenerate"):
            sampler.sample(Node(0, 0), 2, np.random.default_rng(2))

    def test_never_returns_center_or_excluded(self):
        sampler = self._sampler(6, [[0, 1], [2, 3, 4, 5], [1, 5]])
        rng = np.random.default_rng(3)
        for center in range(6):
            excl = sampler.exclusion_bucket(Node(0, center))
            for _ in range(200):
                for z in sampler.sample(Node(0, center), 3, rng):
                    assert z != center
                    assert z not in excl

    def test_empirical_frequencies_match_table(self):
        # five nodes with skewed counts, no exclusions
        seqs = [[0]] * 16 + [[1]] * 8 + [[2]] * 4 + [[3]] * 2 + [[4]]
        sampler = self._sampler(5, seqs)
        probs = sampler.table_probabilities(0)
        rng = np.random.default_rng(7)
        n = 100_000
        center = Node(0, 0)
        # center 0 is rejected; renormalize the table over the rest
        expected = probs.copy()
        expected[0] = 0.0
        expected /= expected.sum()
        counts = np.zeros(5)
        draws = sampler.sample(center, n, rng)
        for z in draws:
            counts[z] += 1
        assert np.max(np.abs(counts / n - expected)) < 0.01

    def test_rejection_stream_matches_one_draw_at_a_time(self):
        # the reference draws and tests one uniform at a time; the sampler must
        # return the same negatives and leave the generator in the same state
        seqs = [[0, 1], [2, 3, 4], [5], [5, 6, 7, 8], [9, 9], [1, 5]]
        seqs += [[k] for k in range(10)] * 3
        sampler = self._sampler(10, seqs)
        cum = np.cumsum(sampler.table_probabilities(0))
        for seed in range(20):
            for c in range(10):
                center = Node(0, c)
                if sampler.available_mass(center) < NegativeSampler._REJECTION_MIN_MASS:
                    continue
                excl = sampler.exclusion_bucket(center)
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = []
                while len(expected) < 6:
                    z = min(int(cum.searchsorted(ref_rng.random(), side="right")), len(cum) - 1)
                    if z != c and z not in excl:
                        expected.append(z)
                assert sampler.sample(center, 6, rng) == expected
                assert rng.random() == ref_rng.random()

    def test_determinism(self):
        sampler = self._sampler(8, [[0, 1, 2], [3, 4, 5, 6, 7]])
        a = sampler.sample(Node(0, 0), 20, np.random.default_rng(11))
        b = sampler.sample(Node(0, 0), 20, np.random.default_rng(11))
        assert a == b


class TestSampleMany:
    """The bulk draw against the single-centre sampler and the renormalized table."""

    def _sampler(self):
        # node 0 co-occurs with the five heavy nodes 1-5, so its admissible mass
        # is small (restricted table); nodes 6-9 exclude little (rejection)
        seqs = [[0, 1, 2, 3, 4, 5]] + [[k] for k in range(1, 6)] * 12 + [[6], [7, 8], [9]]
        g = build_from_pairs((10, 1, 0), [(0, i, 0, 1.0) for i in range(10)])
        sampler = NegativeSampler.build(typed_corpus(seqs_u=seqs), g, window=5)
        mass = [sampler.available_mass(Node(0, c)) for c in range(10)]
        restricted = [c for c in range(10) if 0 < mass[c] < NegativeSampler._REJECTION_MIN_MASS]
        rejection = [c for c in range(10) if mass[c] >= NegativeSampler._REJECTION_MIN_MASS]
        assert 0 in restricted and len(rejection) >= 4
        return sampler, restricted, rejection

    def test_one_centre_matches_sample_and_stream(self, monkeypatch):
        sampler, restricted, rejection = self._sampler()
        for c in restricted + rejection:
            for seed in range(10):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = sampler.sample(Node(0, c), 7, ref_rng)
                assert sampler.sample_many(0, np.array([c]), 7, rng)[0].tolist() == expected
                assert rng.random() == ref_rng.random()
        # a budget of one draw per negative: both run out after the same draws
        monkeypatch.setattr(sampling, "_MAX_ATTEMPTS_PER_SAMPLE", 1)
        spent = 0
        for c in rejection:
            for seed in range(10):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                try:
                    expected = sampler.sample(Node(0, c), 7, ref_rng)
                except SamplerError as exc:
                    spent += 1
                    with pytest.raises(SamplerError) as caught:
                        sampler.sample_many(0, np.array([c]), 7, rng)
                    assert str(caught.value) == str(exc)
                    assert "after 7 attempts" in str(exc)
                else:
                    assert sampler.sample_many(0, np.array([c]), 7, rng)[0].tolist() == expected
                assert rng.random() == ref_rng.random()
        assert spent > 0

    def test_zero_negatives_and_no_centres(self):
        sampler, _, _ = self._sampler()
        rng = np.random.default_rng(0)
        assert sampler.sample_many(0, np.array([0, 6]), 0, rng).shape == (2, 0)
        assert sampler.sample_many(0, np.array([], dtype=np.int64), 3, rng).shape == (0, 3)
        assert rng.random() == np.random.default_rng(0).random()

    def test_centre_without_negatives_raises(self):
        g = build_from_pairs((2, 1, 0), [(0, i, 0, 1.0) for i in range(2)])
        sampler = NegativeSampler.build(typed_corpus(seqs_u=[[0, 1]]), g, window=1)
        assert not sampler.has_negatives_many(0, np.array([0, 1])).any()
        with pytest.raises(SamplerError, match="degenerate"):
            sampler.sample_many(0, np.array([0]), 2, np.random.default_rng(0))

    def test_many_centres_follow_renormalized_tables(self):
        sampler, restricted, rejection = self._sampler()
        probs = sampler.table_probabilities(0)
        rng = np.random.default_rng(5)
        centers = np.array(restricted + rejection)
        # interleaved centres, so that restricted and rejection rows mix in each call
        batch = np.tile(centers, 40)
        flat = np.concatenate([sampler.sample_many(0, batch, 4, rng).ravel() for _ in range(100)])
        owners = np.repeat(np.tile(batch, 100), 4)
        assert len(flat) >= 100_000
        for c in centers:
            mine = flat[owners == c]
            excluded = sorted(sampler.exclusion_bucket(Node(0, c)) | {c})
            expected = probs.copy()
            expected[excluded] = 0.0
            expected /= expected.sum()
            freq = np.bincount(mine, minlength=10) / len(mine)
            assert not np.isin(mine, excluded).any()
            sigma = np.sqrt(expected * (1 - expected) / len(mine))
            assert np.all(np.abs(freq - expected) <= 4 * sigma + 1e-12), c
