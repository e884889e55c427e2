import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trine.errors import SamplerError
from trine import sampling
from trine.graph import Node, build_from_pairs
from trine.sampling import NegativeSampler
from trine.walks import window_pairs

from conftest import typed_from_sequences


def brute_force_pairs(seq, window):
    out = []
    for i in range(len(seq)):
        for j in range(len(seq)):
            if i != j and abs(i - j) <= window:
                out.append((seq[i], seq[j]))
    return out


def typed_corpus(seqs_u=(), seqs_p=(), seqs_c=(), offsets=None):
    return typed_from_sequences((seqs_u, seqs_p, seqs_c), offsets)


def scan_pairs(seqs, window, ranks=None):
    """(center, context) node pairs of the window routine over one party's sequences."""
    typed = typed_corpus(seqs_u=seqs)
    center, context = window_pairs(*typed.windows(window), ranks)
    nodes = typed.nodes
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
            typed_corpus(seqs_u=[[1, 2]]).windows(0)

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
        n = len(typed.nodes)
        at = np.array([a % n for a in raw_at] if n else [], dtype=np.int64)
        lo, hi = typed.windows(window)
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
        lo, hi = typed.windows(window)
        k = 2 + pos
        nodes = typed.nodes.tolist()
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

    @given(st.lists(st.lists(st.integers(0, 11), max_size=10), max_size=8), st.integers(1, 4),
           st.sampled_from([0.5, 0.75, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_gap_masses_are_summed_within_each_row(self, seqs, window, power):
        # each row's below and mass, recomputed from the gaps of that row alone
        g = build_from_pairs((12, 1, 0), [(0, i, 0, 1.0) for i in range(12)])
        sampler = NegativeSampler.build(typed_corpus(seqs_u=seqs), g, power, window)
        t = sampler._table  # party 0 holds global rows 0-11
        edge = np.concatenate([[0.0], t.cumulative[:12]])
        for c in range(12):
            row = sampler._row(Node(0, c)).astype(np.int64)
            gaps = edge[row] - edge[np.concatenate([[0], row[:-1] + 1])]
            below = np.cumsum(gaps)
            assert t.below[t.starts[c]:t.starts[c + 1]].tolist() == below.tolist()
            assert t.mass[c] == below[-1] + (edge[-1] - edge[row[-1] + 1])


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

    def test_determinism(self):
        sampler = self._sampler(8, [[0, 1, 2], [3, 4, 5, 6, 7]])
        a = sampler.sample(Node(0, 0), 20, np.random.default_rng(11))
        b = sampler.sample(Node(0, 0), 20, np.random.default_rng(11))
        assert a == b


def draw(sampler, centers, ns, rng):
    """``ns`` negatives for each of party 0's ``centers`` from one ``rng.random`` call, as a batch draws.

    Party 0 starts at global row 0, so its indices are its global rows.
    """
    centers = np.asarray(centers, dtype=np.int64)
    return sampler.invert(centers, rng.random((len(centers), ns)))


class TestSampleMany:
    """The bulk draw (see :func:`draw`) against the single-centre sampler and the renormalized table."""

    def _sampler(self):
        # node 0 co-occurs with the five heavy nodes 1-5, so its admissible mass
        # is small; nodes 6-9 exclude little
        seqs = [[0, 1, 2, 3, 4, 5]] + [[k] for k in range(1, 6)] * 12 + [[6], [7, 8], [9]]
        g = build_from_pairs((10, 1, 0), [(0, i, 0, 1.0) for i in range(10)])
        sampler = NegativeSampler.build(typed_corpus(seqs_u=seqs), g, window=5)
        mass = [sampler.available_mass(Node(0, c)) for c in range(10)]
        restricted = [c for c in range(10) if 0 < mass[c] < NegativeSampler._REJECTION_MIN_MASS]
        rejection = [c for c in range(10) if mass[c] >= NegativeSampler._REJECTION_MIN_MASS]
        assert 0 in restricted and len(rejection) >= 4
        return sampler, restricted, rejection

    def test_one_centre_matches_sample_and_stream(self):
        sampler, restricted, rejection = self._sampler()
        for c in restricted + rejection:
            for seed in range(10):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = sampler.sample(Node(0, c), 7, ref_rng)
                assert draw(sampler, np.array([c]), 7, rng)[0].tolist() == expected
                assert rng.random() == ref_rng.random()

    def test_zero_negatives_and_no_centres(self):
        sampler, _, _ = self._sampler()
        rng = np.random.default_rng(0)
        assert draw(sampler, np.array([0, 6]), 0, rng).shape == (2, 0)
        assert draw(sampler, np.array([], dtype=np.int64), 3, rng).shape == (0, 3)
        assert rng.random() == np.random.default_rng(0).random()

    def test_centre_without_negatives_raises(self):
        g = build_from_pairs((2, 1, 0), [(0, i, 0, 1.0) for i in range(2)])
        sampler = NegativeSampler.build(typed_corpus(seqs_u=[[0, 1]]), g, window=1)
        assert not sampler.has_negatives_at(np.array([0, 1])).any()
        with pytest.raises(SamplerError, match="degenerate"):
            sampler.sample(Node(0, 0), 2, np.random.default_rng(0))

    def test_many_centres_follow_renormalized_tables(self):
        sampler, restricted, rejection = self._sampler()
        probs = sampler.table_probabilities(0)
        rng = np.random.default_rng(5)
        centers = np.array(restricted + rejection)
        # interleaved centres, so that short and long exclusion rows mix in each call
        batch = np.tile(centers, 40)
        flat = np.concatenate([draw(sampler, batch, 4, rng).ravel() for _ in range(100)])
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


_TOP = 1.0 - 2.0 ** -53  # the largest double below 1


class _Fed:
    """A stand-in generator that hands out the given uniforms in turn, cycling, and counts them."""

    def __init__(self, *values):
        self.values, self.used = np.array(values, dtype=np.float64), 0

    def random(self, size=None):
        k = int(np.prod(size))
        out = self.values[(self.used + np.arange(k)) % len(self.values)]
        self.used += k
        return out.reshape(size)


class TestTopDraw:
    """A uniform at either end of [0, 1) where rounding left a table's sum just below 1.0."""

    def _draws(self, seqs, center, u=_TOP, n=5):
        g = build_from_pairs((n, 1, 0), [(0, i, 0, 1.0) for i in range(n)])
        sampler = NegativeSampler.build(typed_corpus(seqs_u=seqs), g, window=1)
        one = sampler.sample(Node(0, center), 3, _Fed(u))
        many = draw(sampler, np.array([center, center]), 3, _Fed(u))
        return sampler, one, many.tolist()

    def test_party_table_never_gives_a_trailing_zero_mass_node(self):
        # node 4 never occurs; the masses of nodes 0-3 sum to 1 - 2**-53
        sampler, one, many = self._draws([[0], [1], [2]] + [[3]] * 5, 0)
        probs = sampler.table_probabilities(0)
        assert probs[4] == 0.0 and np.cumsum(probs)[3] < 1.0
        assert sampler.available_mass(Node(0, 0)) >= NegativeSampler._REJECTION_MIN_MASS
        assert one == [3] * 3 and many == [[3] * 3] * 2

    def test_restricted_table_never_gives_an_excluded_last_node(self):
        # centre 0 co-occurs with the heavy nodes 3 and 4; its admissible
        # masses (nodes 1 and 2), renormalized, sum to 1 - 2**-53
        sampler, one, many = self._draws([[3, 0, 4], [1], [2]] + [[3]] * 10 + [[4]] * 11, 0)
        assert sampler.exclusion_bucket(Node(0, 0)) == {3, 4}
        assert sampler.available_mass(Node(0, 0)) < NegativeSampler._REJECTION_MIN_MASS
        probs = sampler.table_probabilities(0)
        probs[[0, 3, 4]] = 0.0
        assert np.cumsum(probs / probs.sum())[2] < 1.0
        assert one == [2] * 3 and many == [[2] * 3] * 2

    # centre 0 co-occurs with the heavy nodes 3 and 5; node 4 between them never occurs
    _ZERO_GAP = [[3, 0, 5], [1], [2]] + [[3]] * 10 + [[5]] * 11

    def test_zero_mass_gap_between_excluded_members_is_never_drawn(self):
        sampler, one, many = self._draws(self._ZERO_GAP, 0, n=6)
        assert sampler.exclusion_bucket(Node(0, 0)) == {3, 5}
        probs = sampler.table_probabilities(0)
        assert probs[4] == 0.0 and probs[[1, 2, 3, 5]].min() > 0.0
        assert one == [2] * 3 and many == [[2] * 3] * 2

    def test_zero_uniform_gives_the_first_admissible_node_with_mass(self):
        # the row's first gap (before centre 0) is empty, so u = 0 lands on node 1
        sampler, one, many = self._draws(self._ZERO_GAP, 0, u=0.0, n=6)
        assert one == [1] * 3 and many == [[1] * 3] * 2
        # node 0 never occurs, so centre 1's first admissible node with mass is node 2
        sampler, one, many = self._draws([[1], [2], [3]], 1, u=0.0)
        assert sampler.table_probabilities(0)[0] == 0.0
        assert one == [2] * 3 and many == [[2] * 3] * 2


def assert_gap_tops_match_search(sampler, g):
    """``gap_top[end]`` of every end in every party, against the search it stands for."""
    t = sampler._table
    for p in range(3):
        lo, hi = g.offsets[p], g.offsets[p + 1]
        cum = t.cumulative[lo:hi]
        for end in range(lo + 1, hi + 1):
            assert t.gap_top[end] == lo + cum.searchsorted(cum[end - 1 - lo], side="left")


@st.composite
def three_parties(draw):
    """Party sizes, one of them possibly 0, and each party's sequences."""
    counts = draw(st.sampled_from([(5, 7, 4), (0, 7, 4), (5, 0, 4), (5, 7, 0)]))
    seqs = tuple(draw(st.lists(st.lists(st.integers(0, n - 1), max_size=8), max_size=5)) if n else []
                 for n in counts)
    return counts, seqs


class TestFlatTable:
    """The three parties' tables side by side, in global rows."""

    def test_gap_tops_of_pinned_and_zero_mass_tables(self):
        # pages: TestTopDraw's table, whose masses of pages 0-3 sum to 1 - 2**-53,
        # and page 4 never occurs; items: its zero-mass gap, item 4 never occurs
        g = build_from_pairs((3, 5, 6), [(0, 0, 0, 1.0)])
        typed = typed_corpus(seqs_u=[[0, 1]], seqs_p=[[0], [1], [2]] + [[3]] * 5,
                             seqs_c=TestTopDraw._ZERO_GAP, offsets=g.offsets)
        sampler = NegativeSampler.build(typed, g, window=1)
        pages, items = sampler.table_probabilities(1), sampler.table_probabilities(2)
        assert pages[4] == 0.0 and np.cumsum(pages)[3] < 1.0
        assert items[4] == 0.0 and items[[0, 1, 2, 3, 5]].min() > 0.0
        assert sampler.table_probabilities(0)[2] == 0.0  # user 2 never occurs either
        assert_gap_tops_match_search(sampler, g)
        # a gap ending after page 4 or item 5 is capped at page 3 or item 5
        assert sampler._table.gap_top[3 + 5] == 3 + 3 and sampler._table.gap_top[8 + 6] == 8 + 5
        assert sampler._table.gap_top[8 + 5] == 8 + 3  # item 4 adds no mass to item 3's

    @given(parties=three_parties(), window=st.integers(1, 3), power=st.sampled_from([0.5, 0.75]))
    @settings(max_examples=150, deadline=None)
    def test_gap_tops_match_search(self, parties, window, power):
        counts, seqs = parties
        g = build_from_pairs(counts, [])
        sampler = NegativeSampler.build(typed_corpus(*seqs, offsets=g.offsets), g, power, window)
        assert_gap_tops_match_search(sampler, g)

    @given(parties=three_parties(), window=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_parties_draw_as_sample_does(self, parties, window, seed):
        # one inversion over centres of all parties in shuffled order
        counts, seqs = parties
        g = build_from_pairs(counts, [])
        sampler = NegativeSampler.build(typed_corpus(*seqs, offsets=g.offsets), g, window=window)
        nodes = [Node(p, c) for p in range(3) for c in range(g.counts[p])
                 if sampler.has_negatives(Node(p, c))]
        rng = np.random.default_rng(seed)
        nodes = [nodes[k] for k in rng.permutation(len(nodes))]
        rows = np.array([g.offsets[n.party] + n.index for n in nodes], dtype=np.int64)
        u = rng.random((len(rows), 4))
        got = sampler.invert(rows, u)
        for node, row_u, picks in zip(nodes, u, got):
            assert (picks - g.offsets[node.party]).tolist() == sampler.sample(node, 4, _Fed(*row_u))


class TestOneCentreInversion:
    """:meth:`NegativeSampler.invert`'s gap search against ``sample``'s explicit table, uniform by uniform."""

    @settings(max_examples=300, deadline=None)
    @given(seqs=st.lists(st.lists(st.integers(0, 11), max_size=10), max_size=8),
           window=st.integers(1, 4), power=st.sampled_from([0.5, 0.75, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_sample_under_the_same_uniforms(self, seqs, window, power, seed):
        g = build_from_pairs((12, 1, 0), [(0, i, 0, 1.0) for i in range(12)])
        sampler = NegativeSampler.build(typed_corpus(seqs_u=seqs), g, power, window)
        rng = np.random.default_rng(seed)
        for c in range(12):
            center = Node(0, c)
            if not sampler.has_negatives(center):
                continue
            probs = sampler.table_probabilities(0)
            probs[sorted(sampler.exclusion_bucket(center) | {c})] = 0.0
            table = sampling._pinned(np.cumsum(probs / probs.sum()))
            # 0, the largest double below 1 and plain uniforms: the same draw
            u = np.concatenate([[0.0, _TOP], rng.random(20)])
            ref, fed = _Fed(*u), _Fed(*u)
            expected = sampler.sample(center, len(u), ref)
            assert draw(sampler, np.array([c]), len(u), fed)[0].tolist() == expected
            assert fed.used == ref.used == len(u)
            # every table boundary: the two searches round differently, so a
            # uniform on the boundary of two nodes may go to either of them
            u = table[table < 1.0]
            if len(u):
                above = sampler.sample(center, len(u), _Fed(*u))
                under = sampler.sample(center, len(u), _Fed(*np.nextafter(u, 0.0)))
                got = draw(sampler, np.array([c]), len(u), _Fed(*u))[0].tolist()
                assert all(z in pair for z, pair in zip(got, zip(above, under)))
        # every centre with negatives in one call: rows of all lengths in one search
        centers = np.flatnonzero(sampler.has_negatives_at(np.arange(12)))
        ref_rng, real = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [sampler.sample(Node(0, c), 5, ref_rng) for c in centers.tolist()]
        assert draw(sampler, centers, 5, real).tolist() == expected
        assert real.random() == ref_rng.random()
