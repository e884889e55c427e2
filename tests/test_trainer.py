import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trine.errors import ConfigError, EmbeddingFileError, NonFiniteError
from trine.centrality import hits
from trine.graph import DEFAULT_SCHEMA, RELATIONS, Edge, Node, build_from_pairs
from trine.sampling import NegativeSampler
from trine.synth import planted_graph
from trine import trainer
from trine.trainer import (EmbeddingStore, TrainConfig, _BATCH_EDGES, _INIT_STREAM, _Scratch,
                           _minibatch_step, _non_finite, _sigmoid_vec, _store_of, _with_groupings,
                           compute_loss, default_metapaths,
                           explicit_update, implicit_update, init_embeddings,
                           load_embeddings, save_embeddings, sigmoid, train)
from trine.walks import filter_by_type, generate_corpus, window_pairs

from conftest import child_pids, party_corpus, random_tripartite, run_bounded, typed_from_sequences
from test_sampling import brute_force_pairs

# Minor page faults of `train` on the acceptance graph at test_trained_auc's
# settings, for n epochs (once unmeasured, since the first call touches fresh
# heap), then for n and for 2n epochs; tol is too small for an early stop.
_FAULTS_SCRIPT = """
import resource, sys
from trine.synth import planted_graph
from trine.trainer import TrainConfig, default_metapaths, train

g = planted_graph((300, 60, 30), 3, 0.3, 0.02, seed=1)

def faults(epochs):
    cfg = TrainConfig(dim=32, epochs=epochs, lr=0.05, max_walks=3, walk_length=16, tol=1e-12, seed=1)
    reported = []
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(g, default_metapaths(), cfg, on_epoch=lambda epoch, loss: reported.append(epoch))
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert reported == list(range(epochs + 1)), reported
    return after - before

n = int(sys.argv[1])
faults(n)
print(g.num_edges, faults(n), faults(2 * n))
"""

# A `train` call that kills its own process once epoch 1 is reported, while
# the batch-preparing child runs ahead; it first prints the child's pid.
_KILLED_CALLER_SCRIPT = """
import glob, os, signal
from trine.synth import planted_graph
from trine.trainer import TrainConfig, default_metapaths, train

def on_epoch(epoch, loss):
    if epoch == 1:
        for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
            print(open(path).read().strip(), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)

g = planted_graph((300, 60, 30), 3, 0.3, 0.02, seed=1)
train(g, default_metapaths(), TrainConfig(dim=8, epochs=50, max_walks=2, walk_length=8, tol=1e-12),
      on_epoch=on_epoch)
"""

# `train` to epoch 0 at the CLI defaults on the benchmark's paper graph
# (bench/plant.py, seed 1, read as `trine train` reads it): walks, sampler
# build, occurrence index and loss draw. Argv: the bench directory and a path
# for the edge list.
_PAPER_GRAPH_SETUP = """
import sys
sys.dont_write_bytecode = True  # leave the bench directory as it is
sys.path.append(sys.argv[1])
import plant
from trine.graph import load_edge_list
from trine.trainer import TrainConfig, default_metapaths, train

plant.paper_graph(1, sys.argv[2])
g = load_edge_list(sys.argv[2])
reported = []
train(g, default_metapaths(), TrainConfig(epochs=0), on_epoch=lambda epoch, loss: reported.append(epoch))
print(g.num_nodes, reported)
"""


def make_store(counts, dim, rng, scale=1.0):
    g = build_from_pairs(counts, [])
    emb = [rng.normal(0, scale, size=(counts[p], dim)) for p in range(3)]
    ctx = [rng.normal(0, scale, size=(counts[p], dim)) for p in range(3)]
    return EmbeddingStore(emb, ctx, g.labels)


def central_diff(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    return grad


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestSigmoid:
    def test_identities(self):
        assert sigmoid(0.0) == 0.5
        for x in [-50.0, -3.2, -0.1, 0.7, 4.0, 80.0]:
            assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-15

    def test_saturation_is_finite(self):
        assert sigmoid(1e6) == 1.0
        assert sigmoid(-1e6) == 0.0


class TestInitEmbeddings:
    def test_shape_and_range(self):
        g = build_from_pairs((3, 3, 3), [(0, 0, 0, 1.0)])
        cfg = TrainConfig(dim=4)
        store = init_embeddings(g, cfg, np.random.default_rng(0))
        for mats in (store.emb, store.ctx):
            for m in mats:
                assert m.shape == (3, 4)
                assert np.all(np.abs(m) <= 0.125)

    def test_deterministic(self):
        g = build_from_pairs((2, 2, 2), [(0, 0, 0, 1.0)])
        cfg = TrainConfig(dim=8)
        a = init_embeddings(g, cfg, np.random.default_rng(5))
        b = init_embeddings(g, cfg, np.random.default_rng(5))
        for p in range(3):
            assert np.array_equal(a.emb[p], b.emb[p])
            assert np.array_equal(a.ctx[p], b.ctx[p])

    def test_entry_mean_near_zero(self):
        # 1e6 uniform draws on [-h, h]: |mean| < 3 * (h/sqrt(3)) / sqrt(n)
        g = build_from_pairs((250_000, 1, 1), [(0, 0, 0, 1.0)])
        cfg = TrainConfig(dim=2)
        store = init_embeddings(g, cfg, np.random.default_rng(123))
        entries = store.emb[0].ravel()
        h = 0.5 / cfg.dim
        assert len(entries) == 500_000
        assert abs(entries.mean()) < 3 * (h / math.sqrt(3)) / math.sqrt(len(entries))


class TestExplicitUpdate:
    def test_zero_weight_no_change(self):
        store = make_store((2, 2, 1), 6, np.random.default_rng(1))
        before_u = store.emb[0][0].copy()
        before_v = store.emb[1][1].copy()
        cfg = TrainConfig(dim=6)
        # zero beta for the relation acts as zero-coefficient too
        explicit_update(store, Edge(Node(0, 0), Node(1, 1), 1.0),
                        TrainConfig(dim=6, beta=(0.0, 1.0, 1.0)))
        assert np.array_equal(store.emb[0][0], before_u)
        explicit_update(store, Edge(Node(0, 0), Node(1, 1), 0.0), cfg)
        assert np.array_equal(store.emb[0][0], before_u)
        assert np.array_equal(store.emb[1][1], before_v)

    def test_saturated_edge_barely_moves(self):
        store = make_store((1, 1, 1), 4, np.random.default_rng(2))
        store.emb[0][0] = np.array([40.0, 0, 0, 0])
        store.emb[1][0] = np.array([40.0, 0, 0, 0])
        before = store.emb[0][0].copy()
        explicit_update(store, Edge(Node(0, 0), Node(1, 0), 1.0), TrainConfig(dim=4, lr=1.0))
        assert np.max(np.abs(store.emb[0][0] - before)) < 1e-10

    @pytest.mark.parametrize("relation,parties", [(0, (0, 1)), (1, (1, 2)), (2, (0, 2))])
    def test_matches_finite_differences(self, relation, parties):
        rng = np.random.default_rng(42 + relation)
        a, b = parties
        for _ in range(10):
            store = make_store((2, 2, 2), 6, rng, scale=0.6)
            w = float(rng.uniform(0.5, 3.0))
            eta, gamma = 0.01, 1.0
            cfg = TrainConfig(dim=6, lr=eta, gamma=gamma)
            u0 = store.emb[a][0].copy()
            v0 = store.emb[b][0].copy()

            def obj_u(u, v0=v0, w=w):
                return w * math.log(sigmoid(float(u @ v0)))

            def obj_v(v, u0=u0, w=w):
                return w * math.log(sigmoid(float(u0 @ v)))

            explicit_update(store, Edge(Node(a, 0), Node(b, 0), w), cfg)
            step_u = (store.emb[a][0] - u0) / (eta * gamma * cfg.beta[relation])
            step_v = (store.emb[b][0] - v0) / (eta * gamma * cfg.beta[relation])
            assert rel_err(step_u, central_diff(obj_u, u0)) < 1e-5
            assert rel_err(step_v, central_diff(obj_v, v0)) < 1e-5

    def test_nonfinite_input_raises(self):
        store = make_store((1, 1, 1), 4, np.random.default_rng(3))
        store.emb[0][0][0] = np.inf
        with pytest.raises(NonFiniteError):
            explicit_update(store, Edge(Node(0, 0), Node(1, 0), 1.0), TrainConfig(dim=4))


class TestImplicitUpdate:
    def test_saturated_positive_no_change(self):
        store = make_store((4, 1, 1), 3, np.random.default_rng(4))
        store.emb[0][0] = np.array([50.0, 0.0, 0.0])
        store.ctx[0][1] = np.array([50.0, 0.0, 0.0])  # sigma(v . theta) ~= 1
        before_v = store.emb[0][0].copy()
        before_t = store.ctx[0][1].copy()
        implicit_update(store, Node(0, 0), Node(0, 1), [], 1.0, TrainConfig(dim=3, lr=1.0))
        assert np.max(np.abs(store.emb[0][0] - before_v)) < 1e-9
        assert np.max(np.abs(store.ctx[0][1] - before_t)) < 1e-9

    def test_saturated_negative_no_change(self):
        store = make_store((4, 1, 1), 3, np.random.default_rng(5))
        store.emb[0][0] = np.array([50.0, 0.0, 0.0])
        store.ctx[0][2] = np.array([-50.0, 0.0, 0.0])  # sigma ~= 0 for the negative
        store.ctx[0][1] = np.zeros(3)
        before = store.ctx[0][2].copy()
        implicit_update(store, Node(0, 0), Node(0, 1), [Node(0, 2)], 1.0,
                        TrainConfig(dim=3, lr=1.0))
        assert np.max(np.abs(store.ctx[0][2] - before)) < 1e-9

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            store = make_store((8, 1, 1), 6, rng, scale=0.7)
            alpha, eta = 1.3, 0.01
            cfg = TrainConfig(dim=6, lr=eta, alpha=(alpha, 1.0, 1.0))
            negs = [2, 3, 4]
            v0 = store.emb[0][0].copy()
            thetas0 = {z: store.ctx[0][z].copy() for z in [1] + negs}

            def obj_center(v):
                val = math.log(sigmoid(float(v @ thetas0[1])))
                for z in negs:
                    val += math.log(1 - sigmoid(float(v @ thetas0[z])))
                return val

            implicit_update(store, Node(0, 0), Node(0, 1), [Node(0, z) for z in negs],
                            alpha, cfg)
            step_v = (store.emb[0][0] - v0) / (eta * alpha)
            assert rel_err(step_v, central_diff(obj_center, v0)) < 1e-5
            # context-vector steps against per-theta objectives
            def obj_theta_pos(t, v0=v0):
                return math.log(sigmoid(float(v0 @ t)))

            step_t = (store.ctx[0][1] - thetas0[1]) / (eta * alpha)
            assert rel_err(step_t, central_diff(obj_theta_pos, thetas0[1])) < 1e-5
            for z in negs:
                def obj_theta_neg(t, v0=v0):
                    return math.log(1 - sigmoid(float(v0 @ t)))

                step_t = (store.ctx[0][z] - thetas0[z]) / (eta * alpha)
                assert rel_err(step_t, central_diff(obj_theta_neg, thetas0[z])) < 1e-5

    def test_duplicate_negative_accumulates(self):
        rng = np.random.default_rng(9)
        store = make_store((5, 1, 1), 4, rng, scale=0.5)
        alpha, eta = 1.0, 0.01
        cfg = TrainConfig(dim=4, lr=eta)
        v0 = store.emb[0][0].copy()
        theta0 = store.ctx[0][2].copy()
        ctx_pos0 = store.ctx[0][1].copy()

        def obj_center(v):
            return (math.log(sigmoid(float(v @ ctx_pos0)))
                    + 2 * math.log(1 - sigmoid(float(v @ theta0))))

        implicit_update(store, Node(0, 0), Node(0, 1), [Node(0, 2), Node(0, 2)], alpha, cfg)
        step_v = (store.emb[0][0] - v0) / (eta * alpha)
        assert rel_err(step_v, central_diff(obj_center, v0)) < 1e-5
        # theta_2 receives both occurrences' contributions
        def obj_theta(t, v0=v0):
            return 2 * math.log(1 - sigmoid(float(v0 @ t)))

        step_t = (store.ctx[0][2] - theta0) / (eta * alpha)
        assert rel_err(step_t, central_diff(obj_theta, theta0)) < 1e-5

    def test_party_mismatch_rejected(self):
        store = make_store((2, 2, 2), 4, np.random.default_rng(10))
        with pytest.raises(ValueError, match="one party"):
            implicit_update(store, Node(0, 0), Node(1, 0), [], 1.0, TrainConfig(dim=4))

    def test_context_among_negatives_rejected(self):
        store = make_store((3, 1, 1), 4, np.random.default_rng(11))
        with pytest.raises(ValueError, match="negatives"):
            implicit_update(store, Node(0, 0), Node(0, 1), [Node(0, 1)], 1.0,
                            TrainConfig(dim=4))

    def test_fuzzed_updates_stay_finite(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            store = make_store((4, 4, 4), 5, rng, scale=float(rng.uniform(0.1, 10)))
            cfg = TrainConfig(dim=5, lr=float(rng.uniform(1e-4, 1.0)))
            w = float(rng.uniform(0, 1e6))
            explicit_update(store, Edge(Node(0, 0), Node(1, 0), w), cfg)
            implicit_update(store, Node(0, 0), Node(0, 1), [Node(0, 2), Node(0, 3)],
                            float(rng.uniform(0, 2)), cfg)
            for mats in (store.emb, store.ctx):
                for m in mats:
                    assert np.all(np.isfinite(m))


def flat_store(counts, dim, rng, scale=0.5):
    """Flat (nodes, dim) matrices, a store of per-party views into them, and each party's first row."""
    g = build_from_pairs(counts, [])
    emb = rng.normal(0, scale, size=(sum(counts), dim))
    ctx = rng.normal(0, scale, size=(sum(counts), dim))
    return emb, ctx, _store_of(emb, ctx, g), np.concatenate([[0], np.cumsum(counts)])


def run_batch(emb, ctx, edges=(), pairs=(), negatives=2):
    """Apply one minibatch of ``edges`` (src row, dst row, step) and ``pairs``
    (centre row, context rows, step)."""
    width = 1 + negatives
    src = np.array([s for s, _, _ in edges], dtype=np.int64)
    dst = np.array([d for _, d, _ in edges], dtype=np.int64)
    edge_step = np.array([step for _, _, step in edges], dtype=float)
    centers = np.array([c for c, _, _ in pairs], dtype=np.int64)
    contexts = np.array([z for _, z, _ in pairs], dtype=np.int64).reshape(-1, width)
    pair_step = np.array([[s] * width for _, _, s in pairs], dtype=float).reshape(-1, width)
    # batches of len(edges) + len(pairs) edges allow at least len(pairs) pairs
    scratch = _Scratch.of(TrainConfig(dim=emb.shape[1], negatives=negatives), len(edges) + len(pairs), 1)
    _minibatch_step(emb, ctx, *_with_groupings(src, dst, edge_step, centers, contexts, pair_step), scratch)


def reference_scatter_add(mat, rows, vals):
    hit, inverse = np.unique(rows, return_inverse=True)
    dim = mat.shape[1]
    cells = (inverse[:, None] * dim + np.arange(dim)).ravel()
    mat[hit] += np.bincount(cells, weights=vals.ravel(), minlength=len(hit) * dim).reshape(-1, dim)
    return hit


def reference_minibatch_step(emb, ctx, src, dst, edge_step, centers, contexts, pair_step):
    """The batch kernel with a fresh array for every temporary: the reference for the one on buffers."""
    u, v = emb[src], emb[dst]
    g = (edge_step * (1.0 - _sigmoid_vec(np.einsum("ij,ij->i", u, v))))[:, None]
    e, c = emb[centers], ctx[contexts]
    indicator = np.zeros(contexts.shape[1])
    indicator[0] = 1.0
    coef = pair_step * (indicator - _sigmoid_vec((c @ e[:, :, None])[:, :, 0]))
    hit_emb = reference_scatter_add(emb, np.concatenate([src, dst, centers]),
                                    np.concatenate([g * v, g * u, (coef[:, None, :] @ c)[:, 0]]))
    hit_ctx = reference_scatter_add(ctx, contexts.ravel(),
                                    (coef[:, :, None] * e[:, None, :]).reshape(-1, e.shape[1]))
    if not (np.isfinite(emb[hit_emb]).all() and np.isfinite(ctx[hit_ctx]).all()):
        raise _non_finite()


def assert_stores_close(a, b, atol=1e-12):
    for p in range(3):
        assert np.allclose(a.emb[p], b.emb[p], rtol=0, atol=atol)
        assert np.allclose(a.ctx[p], b.ctx[p], rtol=0, atol=atol)


class TestMinibatchStep:
    """The minibatch kernel against the scalar updates it batches."""

    cfg = TrainConfig(dim=6, lr=0.07, gamma=1.3, beta=(0.5, 1.0, 2.0), alpha=(1.2, 0.8, 1.0))

    def test_one_edge_alone_matches_explicit_update(self):
        rng = np.random.default_rng(31)
        for r, (a, b) in enumerate([(0, 1), (1, 2), (0, 2)]):
            emb, ctx, store, first = flat_store((4, 3, 5), 6, rng)
            reference = store.copy()
            w = float(rng.uniform(0.5, 3.0))
            explicit_update(reference, Edge(Node(a, 2), Node(b, 1), w), self.cfg)
            step = self.cfg.lr * self.cfg.gamma * self.cfg.beta[r] * w
            run_batch(emb, ctx, edges=[(first[a] + 2, first[b] + 1, step)])
            assert_stores_close(store, reference)

    def test_one_pair_alone_matches_implicit_update(self):
        rng = np.random.default_rng(32)
        for p in range(3):
            emb, ctx, store, first = flat_store((6, 5, 7), 6, rng)
            reference = store.copy()
            # a repeated negative accumulates, as in the scalar update
            implicit_update(reference, Node(p, 0), Node(p, 1), [Node(p, 3), Node(p, 3)],
                            self.cfg.alpha[p], self.cfg)
            run_batch(emb, ctx, pairs=[(first[p], [first[p] + 1, first[p] + 3, first[p] + 3],
                                        self.cfg.lr * self.cfg.alpha[p])])
            assert_stores_close(store, reference)

    def test_distinct_rows_match_scalar_updates_in_order(self):
        rng = np.random.default_rng(33)
        emb, ctx, store, first = flat_store((8, 8, 8), 6, rng)
        reference = store.copy()
        edges, pairs = [], []
        for r, (a, b, i, j) in enumerate([(0, 1, 0, 0), (1, 2, 1, 1), (0, 2, 2, 2)]):
            explicit_update(reference, Edge(Node(a, i), Node(b, j), 1.5), self.cfg)
            step = self.cfg.lr * self.cfg.gamma * self.cfg.beta[r] * 1.5
            edges.append((first[a] + i, first[b] + j, step))
        for p in range(3):
            # centres and contexts touch no row used above or by another pair
            implicit_update(reference, Node(p, 4), Node(p, 5), [Node(p, 6), Node(p, 7)],
                            self.cfg.alpha[p], self.cfg)
            pairs.append((first[p] + 4, [first[p] + 5, first[p] + 6, first[p] + 7],
                          self.cfg.lr * self.cfg.alpha[p]))
        run_batch(emb, ctx, edges, pairs)
        assert_stores_close(store, reference)

    def test_row_hit_twice_gets_both_batch_start_gradients(self):
        rng = np.random.default_rng(34)
        emb, ctx, store, first = flat_store((3, 3, 3), 6, rng)
        start = store.copy()
        expected = store.copy()
        steps = []
        # user 0 is in both edges, and is also the centre of a pair
        for j, w in ((0, 1.0), (2, 2.5)):
            single = start.copy()
            explicit_update(single, Edge(Node(0, 0), Node(1, j), w), self.cfg)
            for p in range(3):
                expected.emb[p] += single.emb[p] - start.emb[p]
            step = self.cfg.lr * self.cfg.gamma * self.cfg.beta[0] * w
            steps.append((first[0], first[1] + j, step))
        single = start.copy()
        implicit_update(single, Node(0, 0), Node(0, 1), [Node(0, 2), Node(0, 2)],
                        self.cfg.alpha[0], self.cfg)
        for p in range(3):
            expected.emb[p] += single.emb[p] - start.emb[p]
            expected.ctx[p] += single.ctx[p] - start.ctx[p]
        run_batch(emb, ctx, steps, [(first[0], [first[0] + 1, first[0] + 2, first[0] + 2],
                                     self.cfg.lr * self.cfg.alpha[0])])
        assert_stores_close(store, expected)

    def test_zero_step_entries_change_nothing(self):
        rng = np.random.default_rng(35)
        emb, ctx, store, first = flat_store((4, 4, 4), 6, rng)
        before = store.copy()
        run_batch(emb, ctx, [(first[0], first[1], 0.0)], [(first[2], [first[2] + 1] * 3, 0.0)])
        assert_stores_close(store, before, atol=0)

    def test_non_finite_row_raises(self):
        rng = np.random.default_rng(36)
        emb, ctx, store, first = flat_store((2, 2, 2), 6, rng)
        emb[first[1]] = np.inf
        with pytest.raises(NonFiniteError):
            run_batch(emb, ctx, [(first[0], first[1], 0.1)])


class TestScratch:
    """The kernel on one set of buffers, batch after batch, against the allocating reference."""

    cfg = TrainConfig(dim=5, window=2, negatives=3)
    edges = 6  # at most 2 * 6 endpoints, each with at most 4 partners: 48 pairs

    def _batch(self, rng, n_edges, n_pairs, nodes, step=0.05):
        width = 1 + self.cfg.negatives
        pair_step = step * rng.random((n_pairs, width)) * (rng.random((n_pairs, width)) < 0.8)
        return (rng.integers(nodes, size=n_edges), rng.integers(nodes, size=n_edges),
                step * rng.random(n_edges), rng.integers(nodes, size=n_pairs),
                rng.integers(nodes, size=(n_pairs, width)), pair_step)

    def test_growing_and_shrinking_batches_match_the_reference(self):
        rng = np.random.default_rng(41)
        emb, ctx, _, _ = flat_store((9, 7, 5), self.cfg.dim, rng)
        ref_emb, ref_ctx = emb.copy(), ctx.copy()
        scratch = _Scratch.of(self.cfg, self.edges, 2 * self.cfg.window)
        most = 2 * self.edges * 2 * self.cfg.window
        # (edges, pairs): the largest batch, smaller ones over its stale data,
        # batches without implicit pairs (train's no_pairs), and growth again
        for n_edges, n_pairs in [(6, most), (1, 3), (4, 0), (6, 20), (2, most // 2), (6, 0),
                                 (3, 1), (6, most), (5, 7)]:
            batch = self._batch(rng, n_edges, n_pairs, len(emb))
            reference_minibatch_step(ref_emb, ref_ctx, *batch)
            _minibatch_step(emb, ctx, *_with_groupings(*batch), scratch)
            assert emb.tobytes() == ref_emb.tobytes()
            assert ctx.tobytes() == ref_ctx.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_batch_raises(self):
        rng = np.random.default_rng(42)
        emb, ctx, _, _ = flat_store((9, 7, 5), self.cfg.dim, rng, scale=1e3)
        scratch = _Scratch.of(self.cfg, self.edges, 2 * self.cfg.window)
        with pytest.raises(NonFiniteError):
            _minibatch_step(emb, ctx, *_with_groupings(*self._batch(rng, 6, 40, len(emb), step=1e305)),
                            scratch)


class TestPairHelpers:
    def test_pair_counts_match_enumeration(self):
        for n in range(1, 12):
            for window in (1, 2, 5, 11):
                seq = list(range(n))
                lo, hi = typed_from_sequences(([seq], [], [])).windows(window)
                assert (hi - lo - 1).sum() == len(brute_force_pairs(seq, window))

    def test_pair_by_rank_enumerates_all(self):
        seq = [10, 11, 12, 13, 14]
        window = 2
        typed = typed_from_sequences(([seq], [], []))
        lo, hi = typed.windows(window)
        expected = brute_force_pairs(seq, window)
        center, context = window_pairs(lo, hi, np.arange(len(expected)))
        nodes = typed.nodes
        assert list(zip(nodes[center].tolist(), nodes[context].tolist())) == expected
        with pytest.raises(IndexError):
            window_pairs(lo, hi, np.array([len(expected)]))


class ReferenceOccurrences(NamedTuple):
    """One party's corpus as the per-party pass drew from it, in indices within the party."""

    nodes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    order: np.ndarray
    start: np.ndarray

    @classmethod
    def of(cls, typed, offsets, party, window):
        part = party_corpus(typed, offsets, party)
        n = offsets[party + 1] - offsets[party]
        order = np.argsort(part.nodes, kind="stable").astype(np.int32)
        start = np.concatenate([[0], np.cumsum(np.bincount(part.nodes, minlength=n))])
        return cls(part.nodes, *part.windows(window), order, start)


def reference_with_negatives(offset, centers, partners, sampler, ns, rng):
    """Each pair's context row and live entries, the negatives from one ``rng.random`` call.

    ``centers``, ``partners`` and the negatives are indices within the party
    whose global rows start at ``offset``.
    """
    has = sampler.has_negatives_at(offset + centers)
    contexts = np.repeat(partners[:, None], 1 + ns, axis=1)
    contexts[has, 1:] = sampler.invert(offset + centers[has], rng.random((int(has.sum()), ns))) - offset
    return contexts, (np.arange(1 + ns) == 0) | has[:, None]


def reference_implicit_pairs(occ, offset, centers, step, sampler, ns, rng):
    """One party's implicit pairs of a batch, for its endpoints ``centers`` each at ``step``."""
    first = occ.start[centers]
    count = occ.start[centers + 1] - first
    seen = count > 0
    centers, step = centers[seen], step[seen]
    at = occ.order[first[seen] + rng.integers(count[seen])]
    pick, partners = window_pairs(occ.lo[at], occ.hi[at], at=at)
    centers = centers[pick]
    contexts, live = reference_with_negatives(offset, centers, occ.nodes[partners], sampler, ns, rng)
    return centers, contexts, step[pick][:, None] * live


def reference_batch_pairs(g, typed, sampler, window, end_party, end_index, end_lr, alpha, ns, rng):
    """A batch's implicit pairs in global rows, one per-party pass after another."""
    pairs = [(np.zeros(0, dtype=np.int64), np.zeros((0, 1 + ns), dtype=np.int64), np.zeros((0, 1 + ns)))]
    for p in range(3):
        if alpha[p] == 0.0:
            continue
        ends = end_party == p
        occ = ReferenceOccurrences.of(typed, g.offsets, p, window)
        centers, contexts, pair_step = reference_implicit_pairs(
            occ, g.offsets[p], end_index[ends], alpha[p] * end_lr[ends], sampler, ns, rng)
        pairs.append((centers + g.offsets[p], contexts + g.offsets[p], pair_step))
    return tuple(map(np.concatenate, zip(*pairs)))


@st.composite
def pair_batches(draw):
    """A graph whose page party has 3 nodes, a typed corpus over part of it, and a chunk of batches."""
    counts = (draw(st.integers(1, 9)), 3, draw(st.integers(1, 9)))
    seqs = tuple(draw(st.lists(st.lists(st.integers(0, n - 1), max_size=8), max_size=5))
                 for n in counts)
    parties = draw(st.sampled_from([(0, 1, 2), (0,), (1,), (2,)]))
    end_party = np.array(draw(st.lists(st.sampled_from(parties), max_size=16)), dtype=np.int64)
    end_index = np.array([draw(st.integers(0, counts[p] - 1)) for p in end_party.tolist()],
                         dtype=np.int64)
    # a chunk of 1-4 consecutive batches, any of them perhaps without endpoints
    cuts = sorted(draw(st.lists(st.integers(0, len(end_party)), max_size=3)))
    return dict(counts=counts, seqs=seqs, end_party=end_party, end_index=end_index,
                end_batch=np.searchsorted(cuts, np.arange(len(end_party)), side="right"),
                batches=len(cuts) + 1,
                window=draw(st.integers(1, 3)), ns=draw(st.sampled_from([0, 1, 3])),
                alpha=tuple(draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(3)),
                seed=draw(st.integers(0, 2**32 - 1)))


def assert_chunk_matches_reference(counts, seqs, end_party, end_index, window, ns, alpha, seed,
                                   end_batch=None, batches=1):
    """The chunk pass against the per-party passes of each batch in turn: the same pairs and rng state.

    Returns the reference's pairs, batch by batch.
    """
    if end_batch is None:
        end_batch = np.zeros(len(end_party), dtype=np.int64)
    g = build_from_pairs(counts, [(0, 0, 0, 1.0)])
    typed = typed_from_sequences(seqs, g.offsets)
    sampler = NegativeSampler.build(typed, g, window=window)
    lr = np.random.default_rng(seed).uniform(0.01, 0.1, size=len(end_party))
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [reference_batch_pairs(g, typed, sampler, window, end_party[end_batch == b],
                                      end_index[end_batch == b], lr[end_batch == b], alpha, ns, ref_rng)
                for b in range(batches)]
    occ = trainer._Occurrences.of(typed, g, window)
    got = trainer._implicit_pairs(occ, g.offsets[end_party] + end_index, end_party, end_batch, batches,
                                  lr, alpha, sampler, ns, rng)
    assert len(got) == batches
    for batch_got, batch_expected in zip(got, expected):
        for a, b in zip(batch_got, batch_expected):
            assert a.shape == b.shape and a.tolist() == b.tolist()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return expected


class TestImplicitPairs:
    """One implicit-pair pass per chunk of batches against the per-party passes of each batch."""

    @given(pair_batches())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_party_passes(self, case):
        assert_chunk_matches_reference(**case)

    def _case(self, **changes):
        case = dict(counts=(4, 3, 5), seqs=([[0, 1, 2], [1, 3]], [[0, 1, 2, 0]], [[0, 1], [2, 3, 4]]),
                    end_party=np.array([0, 1, 1, 2, 0, 2, 1, 0]),
                    end_index=np.array([1, 0, 2, 3, 3, 4, 1, 2]),
                    window=2, ns=3, alpha=(1.0, 1.0, 1.0), seed=7)
        case.update(changes)
        return case

    def test_every_party_with_negatives_and_without(self):
        (centers, contexts, step), = assert_chunk_matches_reference(**self._case())
        # pages 0-2 co-occur in one window: no page centre has negatives
        pages = (centers >= 4) & (centers < 7)
        assert pages.any() and (step[pages, 1:] == 0).all() and (step[~pages, 1:] > 0).any()

    def test_party_with_alpha_zero(self):
        (centers, _, _), = assert_chunk_matches_reference(**self._case(alpha=(1.0, 0.0, 0.5)))
        assert len(centers) and not ((centers >= 4) & (centers < 7)).any()

    def test_no_negatives(self):
        (_, contexts, _), = assert_chunk_matches_reference(**self._case(ns=0))
        assert contexts.shape[1] == 1

    def test_endpoints_absent_from_their_corpus(self):
        # users 0 and 3 never occur, and neither do the items
        case = self._case(seqs=([[1, 2]], [[0, 1, 2, 0]], []))
        (centers, _, _), = assert_chunk_matches_reference(**case)
        assert set(centers.tolist()) <= {1, 2, 4, 5, 6}

    def test_single_party_batch(self):
        for p in range(3):
            ends = np.array([0, 1, 2, 1])
            (centers, _, _), = assert_chunk_matches_reference(
                **self._case(end_party=np.full(4, p), end_index=ends))
            assert len(centers)

    def test_chunk_of_batches(self):
        # three batches of the named case's endpoints; the middle one holds
        # only a page endpoint, whose party is off
        batches = assert_chunk_matches_reference(**self._case(
            end_batch=np.array([0, 0, 0, 1, 1, 2, 2, 2]), end_party=np.array([0, 1, 1, 1, 1, 2, 1, 0]),
            alpha=(1.0, 0.0, 0.5), batches=3))
        assert [len(centers) > 0 for centers, _, _ in batches] == [True, False, True]


class TestComputeLoss:
    def _graph_one_edge(self):
        return build_from_pairs((1, 1, 0), [(0, 0, 0, 1.0)])

    def test_single_edge_at_zero_dot(self):
        g = self._graph_one_edge()
        store = EmbeddingStore([np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((0, 4))],
                               [np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((0, 4))],
                               g.labels)
        typed = typed_from_sequences(([], [], []))
        sampler = NegativeSampler.build(typed, g)
        report = compute_loss(store, g, typed, sampler, TrainConfig(dim=4))
        assert report.explicit[0] == pytest.approx(math.log(2.0))
        assert report.explicit[1] == 0.0 and report.explicit[2] == 0.0

    def test_empty_corpus_zero_implicit(self):
        g = self._graph_one_edge()
        cfg = TrainConfig(dim=4)
        store = init_embeddings(g, cfg, np.random.default_rng(0))
        typed = typed_from_sequences(([], [], []))
        report = compute_loss(store, g, typed, NegativeSampler.build(typed, g), cfg)
        assert report.implicit == (0.0, 0.0, 0.0)

    def test_total_is_weighted_sum(self):
        rng = np.random.default_rng(21)
        g = random_tripartite(rng, counts=(4, 3, 3), density=0.6)
        cfg = TrainConfig(dim=4, alpha=(0.5, 2.0, 1.5), beta=(1.0, 0.25, 3.0),
                          window=2, negatives=2, seed=6)
        store = init_embeddings(g, cfg, np.random.default_rng(1))
        typed = typed_from_sequences(([[0, 1, 2], [3]], [[0, 1]], [[0, 2, 1]]), g.offsets)
        sampler = NegativeSampler.build(typed, g, window=2)
        report = compute_loss(store, g, typed, sampler, cfg)
        expected = -(sum(a * o for a, o in zip(cfg.alpha, report.implicit))
                     + sum(b * o for b, o in zip(cfg.beta, report.explicit)))
        assert report.total == pytest.approx(expected)

    def test_fixed_draw_is_stable(self):
        rng = np.random.default_rng(2)
        g = random_tripartite(rng, counts=(5, 4, 3), density=0.5)
        cfg = TrainConfig(dim=4, seed=77, window=2, negatives=3)
        store = init_embeddings(g, cfg, np.random.default_rng(3))
        typed = typed_from_sequences(([[0, 1, 2, 3, 4]] * 3, [[0, 1, 2]] * 2, [[0, 1]]), g.offsets)
        sampler = NegativeSampler.build(typed, g, window=2)
        r1 = compute_loss(store, g, typed, sampler, cfg)
        r2 = compute_loss(store, g, typed, sampler, cfg)
        assert r1.implicit == r2.implicit
        assert r1.total == r2.total

    def test_draw_layout_and_scalar_loss(self):
        """The loss draw is (centres, context rows, live entries), as a training batch holds pairs.

        User 0 co-occurs with every other user and pages 0 and 1 with each
        other, so those centres have no admissible negatives; users 1-4 have.
        """
        counts = (5, 2, 0)
        g = build_from_pairs(counts, [(0, i, i % 2, 1.0) for i in range(5)])
        typed = typed_from_sequences(([[1, 0, 2], [3, 0, 4], [1, 2, 1]], [[0, 1]], []), g.offsets)
        cfg = TrainConfig(dim=4, window=1, negatives=3, seed=5)
        sampler = NegativeSampler.build(typed, g, cfg.power, cfg.window)
        store = make_store(counts, cfg.dim, np.random.default_rng(8))
        sample = trainer._loss_sample(typed.nodes, *typed.windows(cfg.window), g.offsets, sampler, cfg)
        expected = []
        for p, (centers, contexts, live) in enumerate(sample):
            assert contexts.shape == live.shape == (len(centers), 1 + cfg.negatives)
            empty = ~sampler.has_negatives_at(g.offsets[p] + centers)
            dead = np.zeros_like(live)
            dead[empty, 1:] = True
            assert np.array_equal(~live, dead)
            nll = 0.0
            for c, row, mask in zip(centers.tolist(), contexts.tolist(), live.tolist()):
                excluded = sampler.exclusion_bucket(Node(p, c)) | {c}
                assert all(z not in excluded for z, on in zip(row[1:], mask[1:]) if on)
                for k, (z, on) in enumerate(zip(row, mask)):
                    if on:
                        dot = float(store.emb[p][c] @ store.ctx[p][z])
                        nll -= math.log(sigmoid(dot if k == 0 else -dot))
            expected.append(nll)
        centers, _, live = sample[0]
        assert set(centers[~live[:, 1]].tolist()) == {0}
        assert live[centers != 0].all() and len(sample[1][0]) > 0 and not sample[1][2][:, 1:].any()
        implicit = compute_loss(store, g, typed, sampler, cfg).implicit
        assert implicit == pytest.approx(tuple(expected), rel=1e-12, abs=1e-12)

    def test_chunked_explicit_loss_is_bitwise_unchunked(self):
        # relation 0 has 90 x 60 = 5,400 edges, more than one chunk; relation 2 has none
        counts = (90, 60, 7)
        edges = [(0, i, j, 1.0 + (i * j) % 3) for i in range(90) for j in range(60)]
        edges += [(1, j, k, 0.5) for j in range(60) for k in range(7) if (j + k) % 2]
        g = build_from_pairs(counts, edges)
        assert len(g.edge_wt[0]) > trainer._LOSS_CHUNK
        store = make_store(counts, 16, np.random.default_rng(4))
        # chunked first, so that its scratch cannot reuse the unchunked formula's freed buffers
        chunked = trainer._explicit_loss(store, g)
        expected = []
        for r, (a, b) in enumerate(trainer.RELATIONS):
            if len(g.edge_wt[r]) == 0:
                expected.append(0.0)
                continue
            dots = np.einsum("ij,ij->i", store.emb[a][g.edge_src[r]], store.emb[b][g.edge_dst[r]])
            expected.append(float(-(g.edge_wt[r] * trainer._log_sigmoid(dots)).sum()))
        assert chunked == tuple(expected)


class TestTrain:
    def _planted(self):
        return planted_graph((15, 9, 6), 3, 0.5, 0.08, seed=2)

    def test_zero_epochs_returns_init(self):
        g = self._planted()
        cfg = TrainConfig(dim=6, epochs=0, seed=3, max_walks=2, walk_length=6)
        store = train(g, default_metapaths(), cfg)
        expected = init_embeddings(g, cfg, np.random.default_rng([cfg.seed, _INIT_STREAM]))
        for p in range(3):
            assert np.array_equal(store.emb[p], expected.emb[p])
            assert np.array_equal(store.ctx[p], expected.ctx[p])

    def test_bit_identical_across_runs(self):
        g = self._planted()
        cfg = TrainConfig(dim=6, epochs=3, seed=9, max_walks=2, walk_length=8)
        a = train(g, default_metapaths(), cfg)
        b = train(g, default_metapaths(), cfg)
        for p in range(3):
            assert np.array_equal(a.emb[p], b.emb[p])
            assert np.array_equal(a.ctx[p], b.ctx[p])

    def test_objective_improves(self):
        g = self._planted()
        cfg = TrainConfig(dim=8, epochs=10, seed=4, lr=0.02, max_walks=3,
                          walk_length=8, tol=1e-9)
        losses = []
        train(g, default_metapaths(), cfg, on_epoch=lambda e, r: losses.append(r.total))
        assert losses[-1] > losses[0]

    def test_empty_graph_rejected(self):
        g = build_from_pairs((0, 0, 0), [])
        with pytest.raises(ValueError, match="empty graph"):
            train(g, default_metapaths(), TrainConfig(dim=4))
        g = build_from_pairs((2, 2, 2), [])
        with pytest.raises(ValueError, match="no edges"):
            train(g, default_metapaths(), TrainConfig(dim=4))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_huge_lr_still_returns_finite(self):
        g = self._planted()
        cfg = TrainConfig(dim=4, epochs=3, seed=5, lr=500.0, max_walks=1, walk_length=6)
        store = train(g, default_metapaths(), cfg)
        for p in range(3):
            assert np.all(np.isfinite(store.emb[p]))
            assert np.all(np.isfinite(store.ctx[p]))

    @pytest.mark.parametrize("batch_edges", [1, 10_000])
    def test_batch_size_extremes_finite_and_repeatable(self, monkeypatch, batch_edges):
        # one edge per batch, and one batch holding every edge
        g = self._planted()
        assert g.num_edges < 10_000
        monkeypatch.setattr(trainer, "_BATCH_EDGES", batch_edges)
        cfg = TrainConfig(dim=6, epochs=3, seed=9, max_walks=2, walk_length=8, lr_decay=True)
        runs = [train(g, default_metapaths(), cfg) for _ in range(2)]
        initial = init_embeddings(g, cfg, np.random.default_rng([cfg.seed, _INIT_STREAM]))
        for p in range(3):
            assert np.all(np.isfinite(runs[0].emb[p])) and np.all(np.isfinite(runs[0].ctx[p]))
            assert np.array_equal(runs[0].emb[p], runs[1].emb[p])
            assert np.array_equal(runs[0].ctx[p], runs[1].ctx[p])
        assert not np.array_equal(runs[0].emb[0], initial.emb[0])

    def test_tiny_parties_with_many_edges_stay_bounded(self):
        # every edge ends at one of three tags or three categories, so a batch
        # adds dozens of batch-start gradients to each of their rows (a single
        # batch of all ~3.8k edges diverges on this graph)
        g = planted_graph((1000, 3, 3), 3, 0.9, 0.5, seed=1, activity_spread=1.0)
        assert g.num_edges > 3_000
        cfg = TrainConfig(dim=32, epochs=6, max_walks=3, walk_length=16, tol=1e-9, seed=1)
        losses = []
        store = train(g, default_metapaths(), cfg, on_epoch=lambda e, r: losses.append(r.total))
        assert len(losses) == cfg.epochs + 1
        assert all(b > a for a, b in zip(losses, losses[1:])), losses
        assert max(np.abs(m).max() for m in store.emb + store.ctx) < 10.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
    def test_batches_do_not_fault_in_fresh_memory(self):
        # Allocating the kernel's megabyte temporaries per batch cost about 575
        # minor faults a batch here: the allocator gave them back to the OS and
        # faulted them in again. A child process keeps the count free of what
        # earlier tests did to the allocator's thresholds.
        n = 2
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, str(n)], capture_output=True,
                             text=True, timeout=300, check=True, env=env)
        n_edges, once, twice = map(int, out.stdout.split())
        extra_batches = n * -(-n_edges // _BATCH_EDGES)
        assert (twice - once) / extra_batches < 57.5, (once, twice, extra_batches)

    @pytest.mark.parametrize("bad", [dict(alpha=(1.0, 1.0)), dict(beta=(1.0,) * 4)])
    def test_alpha_and_beta_need_three_weights(self, bad):
        with pytest.raises(ConfigError, match="need 3 alpha and 3 beta weights"):
            TrainConfig(**bad).validate()
        g = build_from_pairs((2, 2, 2), [(0, 0, 0, 1.0), (1, 0, 0, 1.0), (2, 0, 0, 1.0)])
        with pytest.raises(ConfigError):
            train(g, default_metapaths(), TrainConfig(dim=2, epochs=1, **bad))

    def test_config_validation(self):
        non_finite = (math.nan, math.inf, -math.inf)
        for bad in [dict(dim=0), dict(lr=0.0), dict(min_walks=5, max_walks=2),
                    dict(tol=0.0), dict(tol=1.5), dict(negatives=-1),
                    dict(alpha=(-1.0, 1.0, 1.0)), dict(epochs=-1), dict(window=0), dict(seed=-1),
                    *({f: v} for f in ("lr", "gamma", "power", "walk_scale") for v in non_finite),
                    *({f: (1.0, v, 1.0)} for f in ("alpha", "beta") for v in non_finite)]:
            with pytest.raises(ConfigError):
                TrainConfig(**bad).validate()


def reference_train(g, cfg):
    """``train``'s epoch loop, serial: each batch draws its pairs and then runs the kernel.

    The per-party passes of :func:`reference_batch_pairs` draw the pairs, and
    the allocating :func:`reference_minibatch_step` applies them. Returns
    the flat ``emb`` and ``ctx``.
    """
    corpus = generate_corpus(g, default_metapaths(), hits(g), cfg.min_walks, cfg.max_walks,
                             cfg.walk_scale, cfg.walk_length, cfg.seed)
    typed = filter_by_type(corpus)
    sampler = NegativeSampler.build(typed, g, cfg.power, cfg.window)
    emb, ctx = trainer._init_flat(g, cfg, np.random.default_rng([cfg.seed, _INIT_STREAM]))
    store = _store_of(emb, ctx, g)
    rng = np.random.default_rng([cfg.seed, trainer._TRAIN_STREAM])
    loss_sample = trainer._loss_sample(typed.nodes, *typed.windows(cfg.window), g.offsets, sampler, cfg)
    prev = trainer._loss_on_sample(store, g, loss_sample, cfg)
    edges = g.edge_rows
    ends = np.stack([edges.src, edges.dst], axis=1)
    party = np.array(RELATIONS)[edges.relation]
    coef = cfg.gamma * np.asarray(cfg.beta)[edges.relation] * edges.wt
    total_steps = max(1, cfg.epochs * len(coef))
    step = 0
    checkpoint = (emb.copy(), ctx.copy())
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(coef))
        try:
            for begin in range(0, len(order), trainer._BATCH_EDGES):
                batch = order[begin:begin + trainer._BATCH_EDGES]
                lr = np.full(len(batch), cfg.lr)
                if cfg.lr_decay:
                    lr *= np.maximum(0.01, 1.0 - (step + np.arange(len(batch))) / total_steps)
                step += len(batch)
                end_party = party[batch].ravel()
                pairs = reference_batch_pairs(g, typed, sampler, cfg.window, end_party,
                                              ends[batch].ravel() - g.offsets[end_party],
                                              np.repeat(lr, 2), cfg.alpha, cfg.negatives, rng)
                reference_minibatch_step(emb, ctx, edges.src[batch], edges.dst[batch],
                                         lr * coef[batch], *pairs)
        except NonFiniteError:
            return checkpoint
        loss = trainer._loss_on_sample(store, g, loss_sample, cfg)
        if not loss.finite:
            return checkpoint
        rel_change = abs(loss.total - prev.total) / max(abs(prev.total), 1e-12)
        np.copyto(checkpoint[0], emb)
        np.copyto(checkpoint[1], ctx)
        prev = loss
        if rel_change < cfg.tol:
            break
    return emb, ctx


class Failure(Exception):
    """An error of the batch preparation that pickles, so it crosses the process boundary."""


class TestPipelinedTrain:
    """``train`` with batches prepared in a child process against the serial loop, and its child."""

    def _planted(self):
        return planted_graph((15, 9, 6), 3, 0.5, 0.08, seed=2)

    def _assert_matches_serial(self, g, cfg):
        epochs = []
        store = train(g, default_metapaths(), cfg, on_epoch=lambda e, r: epochs.append(e))
        emb, ctx = reference_train(g, cfg)
        assert np.array_equal(np.concatenate(store.emb), emb)
        assert np.array_equal(np.concatenate(store.ctx), ctx)
        return epochs

    @pytest.mark.parametrize("changes", [
        dict(), dict(lr_decay=True), dict(alpha=(1.0, 0.0, 0.5)), dict(alpha=(0.0, 0.0, 0.0)),
    ])
    def test_matches_serial_loop(self, changes):
        cfg = TrainConfig(dim=6, epochs=3, seed=9, max_walks=2, walk_length=8, tol=1e-12, **changes)
        assert self._assert_matches_serial(self._planted(), cfg) == [0, 1, 2, 3]

    @pytest.mark.parametrize("batch_edges", [1, 5])
    def test_matches_serial_loop_at_other_batch_sizes(self, monkeypatch, batch_edges):
        g = self._planted()
        monkeypatch.setattr(trainer, "_BATCH_EDGES", batch_edges)
        if batch_edges > 1:  # the last chunk of an epoch holds fewer batches
            assert -(-g.num_edges // batch_edges) % trainer._CHUNK_BATCHES != 0
        cfg = TrainConfig(dim=6, epochs=2, seed=3, max_walks=2, walk_length=8, lr_decay=True, tol=1e-12)
        self._assert_matches_serial(g, cfg)

    def test_matches_serial_loop_stopping_early(self):
        cfg = TrainConfig(dim=6, epochs=20, seed=9, max_walks=2, walk_length=8, tol=0.02)
        epochs = self._assert_matches_serial(self._planted(), cfg)
        assert 1 < len(epochs) < 21

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_matches_serial_loop_diverging(self):
        cfg = TrainConfig(dim=4, epochs=3, seed=5, lr=500.0, max_walks=1, walk_length=6)
        self._assert_matches_serial(self._planted(), cfg)

    def test_matches_serial_loop_without_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        cfg = TrainConfig(dim=6, epochs=3, seed=9, max_walks=2, walk_length=8, tol=1e-12, lr_decay=True)
        seen, left = self._children(monkeypatch, lambda: self._assert_matches_serial(self._planted(), cfg))
        assert seen == left == set()

    def _children(self, monkeypatch, run):
        """The child processes of this one that the kernel ran beside during ``run``, and those left after it."""
        before = child_pids()
        seen = set()
        step = trainer._minibatch_step

        def watching_step(*args):
            seen.update(child_pids() - before)
            step(*args)

        monkeypatch.setattr(trainer, "_minibatch_step", watching_step)
        run()
        return seen, child_pids() - before

    def test_no_child_left_after_the_last_epoch(self, monkeypatch):
        cfg = TrainConfig(dim=6, epochs=2, seed=9, max_walks=2, walk_length=8, tol=1e-12)
        seen, left = self._children(monkeypatch, lambda: train(self._planted(), default_metapaths(), cfg))
        assert len(seen) == 1 and left == set()

    def test_no_child_left_after_an_early_stop(self, monkeypatch):
        cfg = TrainConfig(dim=6, epochs=20, seed=9, max_walks=2, walk_length=8, tol=0.5)
        epochs = []
        run = lambda: train(self._planted(), default_metapaths(), cfg, on_epoch=lambda e, r: epochs.append(e))
        seen, left = self._children(monkeypatch, run)
        assert len(seen) == 1 and left == set()
        assert epochs == [0, 1]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_no_child_left_after_divergence(self, monkeypatch):
        cfg = TrainConfig(dim=4, epochs=3, seed=5, lr=500.0, max_walks=1, walk_length=6)
        seen, left = self._children(monkeypatch, lambda: train(self._planted(), default_metapaths(), cfg))
        assert len(seen) == 1 and left == set()

    def _fail_in_preparation(self, monkeypatch, error):
        """Make the batches' window scan raise ``error(message)``, the message naming the raising process."""

        def failing_window_pairs(lo, hi, ranks=None, at=None):
            if at is not None:  # a batch's pairs, not the loss draw's
                raise error(f"window scan failed in process {os.getpid()}")
            return window_pairs(lo, hi, ranks, at)

        monkeypatch.setattr(trainer, "window_pairs", failing_window_pairs)
        return TrainConfig(dim=6, epochs=2, seed=9, max_walks=2, walk_length=8)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        cfg = self._fail_in_preparation(monkeypatch, Failure)
        caught = []

        def run():
            with pytest.raises(Failure, match=r"^window scan failed in process \d+$") as info:
                train(self._planted(), default_metapaths(), cfg)
            caught.append(info.value)

        _, left = self._children(monkeypatch, run)
        assert left == set()
        (failure,) = caught
        assert type(failure) is Failure
        assert int(str(failure).split()[-1]) != os.getpid()  # raised in the child

    def test_memory_error_in_the_child_arrives_as_one(self, monkeypatch):
        cfg = self._fail_in_preparation(monkeypatch, MemoryError)
        with pytest.raises(MemoryError, match="window scan failed in process"):
            train(self._planted(), default_metapaths(), cfg)

    def test_unpicklable_error_names_its_type_and_traceback(self, monkeypatch):
        class Unpicklable(Exception):  # a local class pickles by a name that cannot be looked up
            pass

        cfg = self._fail_in_preparation(monkeypatch, Unpicklable)
        with pytest.raises(RuntimeError, match="Unpicklable") as info:
            train(self._planted(), default_metapaths(), cfg)
        message = str(info.value)
        assert "Traceback (most recent call last)" in message
        assert "in failing_window_pairs" in message and "window scan failed in process" in message

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the child's exit would end the test process")
    def test_child_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(trainer, "window_pairs", lambda lo, hi, ranks=None, at=None:
                            os._exit(7) if at is not None else window_pairs(lo, hi, ranks, at))
        cfg = TrainConfig(dim=6, epochs=2, seed=9, max_walks=2, walk_length=8)
        with pytest.raises(RuntimeError, match="exited with code 7"):
            train(self._planted(), default_metapaths(), cfg)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the child's state under /proc")
    def test_child_ends_when_the_caller_is_killed(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        caller = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER_SCRIPT], stdout=subprocess.PIPE,
                                  text=True, env=env)
        with caller.stdout:
            (child,) = map(int, caller.stdout.readline().split())
        assert caller.wait(timeout=300) == -signal.SIGKILL

        def running():  # an exited child of a dead caller may stay a zombie until it is reaped
            try:
                with open(f"/proc/{child}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 30
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        left = running()
        if left:
            os.kill(child, signal.SIGKILL)
        assert not left

    def test_on_epoch_error_reaches_the_caller(self, monkeypatch):
        class Stop(Exception):
            pass

        def on_epoch(epoch, report):
            if epoch == 1:
                raise Stop

        cfg = TrainConfig(dim=6, epochs=3, seed=9, max_walks=2, walk_length=8, tol=1e-12)

        def run():
            with pytest.raises(Stop):
                train(self._planted(), default_metapaths(), cfg, on_epoch=on_epoch)

        seen, left = self._children(monkeypatch, run)
        assert len(seen) == 1 and left == set()

    def test_zero_epochs_copy_no_parameters(self):
        # A checkpoint (copies of emb and ctx) and the kernel's buffers are
        # only made for an epoch to run. Many nodes, a short corpus and a wide
        # dim make emb the largest array the set-up makes.
        n = 7_000
        edges = [(r, i, (i + r) % n, 1.0) for r in range(3) for i in range(n)]
        g = build_from_pairs((n, n, n), edges)
        cfg = TrainConfig(dim=64, epochs=0, max_walks=1, walk_length=4, window=1)
        tracemalloc.start()
        try:
            train(g, default_metapaths(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        emb_bytes = g.num_nodes * cfg.dim * 8
        assert peak < 3 * emb_bytes, (peak, emb_bytes)


class TestBoundedMemory:
    def test_setup_at_cli_defaults_on_the_paper_graph(self, tmp_path):
        # Building the exclusion rows from every window pair of a party at
        # once peaked at about 1.2 GB here; one window offset at a time, at
        # about 0.5 GB.
        bench = Path(__file__).resolve().parents[1] / "bench"
        (line,), peak_kb = run_bounded(_PAPER_GRAPH_SETUP, str(bench), str(tmp_path / "paper.txt"))
        assert line == "30000 [0]"
        assert peak_kb < 700 * 1024


class TestPersistence:
    def test_round_trip(self, tmp_path):
        g = build_from_pairs((3, 3, 3), [(0, 0, 0, 1.0)])
        cfg = TrainConfig(dim=4)
        store = init_embeddings(g, cfg, np.random.default_rng(8))
        emb_path = tmp_path / "emb.txt"
        ctx_path = tmp_path / "emb.txt.ctx"
        save_embeddings(store, emb_path, ctx_path)
        assert (emb_path.read_text().splitlines()[0]) == "9 4"
        loaded = load_embeddings(emb_path, DEFAULT_SCHEMA, ctx_path)
        for p in range(3):
            assert np.allclose(loaded.emb[p], store.emb[p], rtol=1e-8, atol=1e-12)
            assert np.allclose(loaded.ctx[p], store.ctx[p], rtol=1e-8, atol=1e-12)
        assert loaded.labels == store.labels

    def test_second_round_trip_is_exact(self, tmp_path):
        # serialization is a fixed point after one round trip
        g = build_from_pairs((2, 1, 1), [(0, 0, 0, 1.0)])
        store = init_embeddings(g, TrainConfig(dim=3), np.random.default_rng(1))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_embeddings(store, p1)
        save_embeddings(load_embeddings(p1, DEFAULT_SCHEMA), p2)
        assert p1.read_text() == p2.read_text()

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\nu0 0.5 0.5\np0 1 2\n")
        with pytest.raises(EmbeddingFileError, match="declares 3 rows"):
            load_embeddings(path, DEFAULT_SCHEMA)

    @pytest.mark.parametrize("text", ["3 0\nu0\nu1\np0\n", "2 -1\nu0\np0\n"])
    def test_header_needs_a_dimension_and_a_count(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(EmbeddingFileError, match="line 1: bad header"):
            load_embeddings(path, DEFAULT_SCHEMA)

    def test_label_listed_twice_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 2\nu0 1 1\nu0 2 2\np0 1 1\nc0 1 1\n")
        with pytest.raises(EmbeddingFileError, match="line 3: label 'u0' listed twice"):
            load_embeddings(path, DEFAULT_SCHEMA)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\nu0 0.5 0.5\np0 1\n")
        with pytest.raises(EmbeddingFileError, match="line 3"):
            load_embeddings(path, DEFAULT_SCHEMA)
        path.write_text("2 2\nu0 0.5 0.5\np0 1 oops\n")
        with pytest.raises(EmbeddingFileError, match="line 3"):
            load_embeddings(path, DEFAULT_SCHEMA)

    def test_context_file_of_another_dim(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nu0 1 2 3\np0 4 5 6\n")
        (tmp_path / "emb.txt.ctx").write_text("2 2\nu0 1 2\np0 3 4\n")
        with pytest.raises(EmbeddingFileError, match="context file has dim 2, the embedding file 3"):
            load_embeddings(path, DEFAULT_SCHEMA, tmp_path / "emb.txt.ctx")

    def test_reindex_to_graph(self, tmp_path):
        g = build_from_pairs((2, 1, 0), [(0, 0, 0, 1.0), (0, 1, 0, 2.0)])
        store = init_embeddings(g, TrainConfig(dim=3), np.random.default_rng(2))
        path = tmp_path / "emb.txt"
        save_embeddings(store, path)
        # a graph listing u1 before u0 must see permuted rows
        b = build_from_pairs((2, 1, 0), [(0, 0, 0, 1.0)])
        edges = tuple(zip(b.edge_src, b.edge_dst, b.edge_wt))
        shuffled = type(g)(g.schema, (["u1", "u0"], ["p0"], []), edges)
        loaded = load_embeddings(path, DEFAULT_SCHEMA)
        permuted = loaded.reindexed_to(shuffled)
        assert np.array_equal(permuted.emb[0][0], loaded.emb[0][1])
        assert np.array_equal(permuted.emb[0][1], loaded.emb[0][0])
        assert permuted.labels[0] == ["u1", "u0"]

    def test_reindex_missing_label(self, tmp_path):
        g = build_from_pairs((1, 1, 0), [(0, 0, 0, 1.0)])
        store = init_embeddings(g, TrainConfig(dim=2), np.random.default_rng(3))
        path = tmp_path / "emb.txt"
        save_embeddings(store, path)
        bigger = build_from_pairs((2, 1, 0), [(0, 1, 0, 1.0)])
        with pytest.raises(EmbeddingFileError, match="no embedding"):
            load_embeddings(path, DEFAULT_SCHEMA).reindexed_to(bigger)
