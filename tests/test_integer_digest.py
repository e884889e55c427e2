"""Byte-identity guard over the integer outputs of walk corpus, sampler and loss draw.

The digest was recorded on the list-of-lists corpus with dict-of-set
exclusion buckets, before the corpus became flat arrays, and recorded again
when a centre's admissible mass stopped counting the centre twice (the loss
draw then gives negatives to centres it used to skip), and recorded once
more when the loss draw took its negatives from one bulk call per party
(then ``sample_many``, now :meth:`NegativeSampler.invert`), in the
training batch's (centres, context rows, live entries) form, instead of one
scalar ``sample`` call per centre, and recorded again when each walk's
draws moved from its own numpy ``default_rng`` stream to a counter-based
SplitMix64 stream (the walks moved), and recorded again when the bulk draw
stopped drawing in rejection rounds and inverted each centre's admissible
cumulative instead (the negatives moved; the buckets did not). It holds
for the buckets and the loss draw built from the corpus in global rows,
one window offset at a time. Everything hashed is an integer, so the
digest does not depend on the BLAS build or on float summation order. A
change that alters the walks, the per-type split, the window
co-occurrence buckets or the random stream of the loss-evaluation draw
(its window pairs and their negatives) changes it.

The batch digests cover training itself: every batch's edges, implicit
centres, context rows and live entries over two epochs, as ``train`` hands
them to the batch kernel. They were recorded while each party's implicit
pairs still had a pass of their own in every batch, and hold for the one
pass over all parties that replaced it.
"""

import hashlib

import numpy as np
import pytest

from trine import trainer
from trine.centrality import hits
from trine.graph import N_PARTIES, Node
from trine.sampling import NegativeSampler
from trine.synth import planted_graph
from trine.trainer import TrainConfig, _loss_sample, default_metapaths, train
from trine.walks import filter_by_type, generate_corpus

from conftest import party_sequences

EXPECTED_DIGEST = "7a18dc361301aa5e314a147bf9323234d03df313de1aa3a032936cdd111f7d1d"

# The training batches' draws (see batch_draw_digest), with every party's
# implicit term on, and with the pages' term off.
EXPECTED_BATCH_DIGEST = "38087c5993c24bea2b5888e978adc92c7ec3778efe0a488b23f152bc92fc2593"
EXPECTED_BATCH_DIGEST_NO_PAGES = "88fd987368e937c63381639bb241929ebd070dc9887a2d25ebfdd6c83d414e7c"


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
        seqs = party_sequences(typed, g.offsets, p)
        _int_block(h, [len(s) for s in seqs])
        _int_block(h, [i for s in seqs for i in s])
        for i in range(g.counts[p]):
            _int_block(h, sorted(sampler.exclusion_bucket(Node(p, i))))
    sample = _loss_sample(typed.nodes, *typed.windows(cfg.window), g.offsets, sampler, cfg)
    for p, (centers, contexts, live) in enumerate(sample):
        # hashed as indices within the party, as the digest was recorded
        for arr in (centers - g.offsets[p], contexts.ravel() - g.offsets[p], live.ravel()):
            _int_block(h, arr)
    return h.hexdigest(), [len(centers) for centers, _, _ in sample]


def batch_draw_digest(seed: int, alpha: tuple[float, float, float]) -> tuple[str, int]:
    """SHA-256 over every training batch's integer draws in a 2-epoch ``train``.

    Each batch hashes its edge rows ``src`` and ``dst``, its implicit
    ``centers`` and ``contexts`` and which entries are live
    (``pair_step != 0``), as ``train`` hands them to the batch kernel. Also
    returns the number of batches.
    """
    g = planted_graph((60, 30, 20), 3, 0.3, 0.05, seed=seed)
    cfg = TrainConfig(dim=8, window=3, negatives=3, max_walks=6, walk_length=24, epochs=2,
                      tol=1e-12, alpha=alpha, seed=seed)
    h = hashlib.sha256()
    batches = 0
    step = trainer._minibatch_step

    def recording_step(emb, ctx, src, dst, edge_step, centers, contexts, pair_step, *groupings_and_scratch):
        nonlocal batches
        batches += 1
        for arr in (src, dst, centers, contexts.ravel(), (pair_step != 0).ravel()):
            _int_block(h, arr)
        step(emb, ctx, src, dst, edge_step, centers, contexts, pair_step, *groupings_and_scratch)

    trainer._minibatch_step = recording_step
    try:
        train(g, default_metapaths(), cfg)
    finally:
        trainer._minibatch_step = step
    return h.hexdigest(), batches


class TestIntegerDigest:
    def test_seed_one_matches_recorded_digest(self):
        digest, eval_pairs = integer_digest(1)
        # pages exceed the loss-draw cap (picked branch); users stay under it
        assert eval_pairs[1] == 5_000 and eval_pairs[0] < 5_000
        assert digest == EXPECTED_DIGEST

    @pytest.mark.parametrize("alpha, expected", [
        ((1.0, 1.0, 1.0), EXPECTED_BATCH_DIGEST),
        ((1.0, 0.0, 1.0), EXPECTED_BATCH_DIGEST_NO_PAGES),
    ])
    def test_training_batches_match_recorded_digest(self, alpha, expected):
        digest, batches = batch_draw_digest(1, alpha)
        assert batches > 2
        assert digest == expected
