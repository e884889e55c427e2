"""Byte-identity guard over the integer outputs of walk corpus, sampler and loss draw.

The digest was recorded on the list-of-lists corpus with dict-of-set
exclusion buckets, before the corpus became flat arrays, and recorded again
when a centre's admissible mass stopped counting the centre twice (the loss
draw then gives negatives to centres it used to skip), and recorded once
more when the loss draw took its negatives from one ``sample_many`` call
per party, in the training batch's (centres, context rows, live entries)
form, instead of one scalar ``sample`` call per centre, and recorded again
when each walk's draws moved from its own numpy ``default_rng`` stream to a
counter-based SplitMix64 stream (the walks moved). Everything hashed
is an integer, so the digest does not depend on the BLAS build or on float
summation order. A change that alters the walks, the per-type split, the
window co-occurrence buckets or the random stream of the loss-evaluation
draw (its window pairs and their negatives) changes it.
"""

import hashlib

import numpy as np

from trine.centrality import hits
from trine.graph import N_PARTIES, Node
from trine.sampling import NegativeSampler
from trine.synth import planted_graph
from trine.trainer import TrainConfig, _loss_sample, default_metapaths
from trine.walks import filter_by_type, generate_corpus

EXPECTED_DIGEST = "184bfefe7a3dcd18a3ce774a799136829a8e548b16bae414a1b6bd6ece5b0c2e"


def _int_block(h, values) -> None:
    arr = np.asarray(values, dtype=np.int64)
    h.update(np.int64(len(arr)).tobytes())
    h.update(arr.tobytes())


def integer_digest(seed: int) -> tuple[str, list[int]]:
    """SHA-256 over typed sequences, exclusion buckets and the loss draw's arrays.

    Also returns each party's number of loss-evaluation pairs, so the test
    can check that the draw covers both the all-pairs and the picked branch.
    """
    g = planted_graph((60, 30, 20), 3, 0.3, 0.05, seed=seed)
    cfg = TrainConfig(dim=8, window=3, negatives=3, max_walks=6, walk_length=24, seed=seed)
    corpus = generate_corpus(g, default_metapaths(), hits(g), cfg.min_walks, cfg.max_walks,
                             float(g.num_nodes), cfg.walk_length, cfg.seed)
    typed = filter_by_type(corpus)
    sampler = NegativeSampler.build(typed, g, cfg.power, cfg.window)
    h = hashlib.sha256()
    for p in range(N_PARTIES):
        seqs = typed.sequences(p)
        _int_block(h, [len(s) for s in seqs])
        _int_block(h, [i for s in seqs for i in s])
        for i in range(g.counts[p]):
            _int_block(h, sorted(sampler.exclusion_bucket(Node(p, i))))
    sample = _loss_sample(typed, sampler, cfg)
    for centers, contexts, live in sample:
        for arr in (centers, contexts.ravel(), live.ravel()):
            _int_block(h, arr)
    return h.hexdigest(), [len(centers) for centers, _, _ in sample]


class TestIntegerDigest:
    def test_seed_one_matches_recorded_digest(self):
        digest, eval_pairs = integer_digest(1)
        # pages exceed the loss-draw cap (picked branch); users stay under it
        assert eval_pairs[1] == 5_000 and eval_pairs[0] < 5_000
        assert digest == EXPECTED_DIGEST
