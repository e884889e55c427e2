import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trine.errors import EvalError
from trine.evaluation import (EvalReport, auc_pr, auc_roc, evaluate, evaluate_end_to_end,
                              f1_score, kfold_split, make_link_dataset, train_classifier)
from trine.graph import RELATIONS
from trine.synth import planted_graph
from trine.trainer import TrainConfig, default_metapaths, init_embeddings

from conftest import random_tripartite
from reference import build_from_pairs


def auc_pair_counting_oracle(scores, labels):
    """O(n^2) definition: P(random positive outranks random negative), ties half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auc_roc_tie_loop(scores, labels):
    """The per-group loop auc_roc used before it was vectorised: mid-ranks by scan."""
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_pr_tie_loop(scores, labels):
    """The per-group loop auc_pr used before it was vectorised: one step per threshold."""
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    area = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        tp += int((sorted_labels[i:j + 1] == 1).sum())
        fp += (j - i + 1) - int((sorted_labels[i:j + 1] == 1).sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return area


def solve_two_point_logistic(x1, x0, l2):
    """Regularized two-point logistic fit, reduced to a scalar root problem.

    Stationarity gives b = -w (x1 + x0) / 2 and
    l2 * w = (1 - sigmoid(w (x1 - x0) / 2)) * (x1 - x0) / 2.
    """
    delta = x1 - x0

    def f(w):
        s = 1.0 / (1.0 + math.exp(-w * delta / 2.0))
        return l2 * w - (1.0 - s) * delta / 2.0

    lo, hi = 0.0, 1.0
    while f(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    w = (lo + hi) / 2.0
    return w, -w * (x1 + x0) / 2.0


def rejection_negatives_loop(g, relation, n_neg, rng):
    """Reference non-edge draws: one (integers(na), integers(nb)) pair at a time,
    kept unless it is an edge or was drawn before, until there are n_neg."""
    a, b = RELATIONS[relation]
    seen = set(zip(g.edge_src[relation].tolist(), g.edge_dst[relation].tolist()))
    negatives = []
    while len(negatives) < n_neg:
        i = int(rng.integers(g.counts[a]))
        j = int(rng.integers(g.counts[b]))
        if (i, j) in seen:
            continue
        seen.add((i, j))
        negatives.append((i, j))
    return negatives


class TestMakeLinkDataset:
    def test_complete_relation_errors(self):
        g = build_from_pairs((2, 2, 0), [(0, i, j, 1.0) for i in range(2) for j in range(2)])
        with pytest.raises(EvalError, match="too dense"):
            make_link_dataset(g, 0, 1.0, np.random.default_rng(0))

    def test_negatives_disjoint_from_edges(self):
        rng = np.random.default_rng(1)
        g = random_tripartite(rng, counts=(6, 5, 4), density=0.3)
        ds = make_link_dataset(g, 0, 1.0, np.random.default_rng(2))
        n_pos = len(g.edge_wt[0])
        assert ds.n_positive == n_pos
        assert ds.n_negative == n_pos
        edge_set = {(int(i), int(j)) for i, j in zip(g.edge_src[0], g.edge_dst[0])}
        negs = ds.pairs[n_pos:]
        assert len(set(negs)) == len(negs)
        assert not (set(negs) & edge_set)

    def test_empty_relation_errors(self):
        g = build_from_pairs((2, 2, 2), [(0, 0, 0, 1.0)])
        with pytest.raises(EvalError, match="no edges"):
            make_link_dataset(g, 2, 1.0, np.random.default_rng(0))

    def test_ceil_of_ratio(self):
        g = build_from_pairs((3, 3, 0), [(0, 0, 0, 1.0), (0, 1, 1, 1.0), (0, 2, 2, 1.0)])
        ds = make_link_dataset(g, 0, 0.5, np.random.default_rng(3))
        assert ds.n_negative == 2  # ceil(1.5)

    @given(st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)),
           st.integers(0, 2), st.data(), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 1.7]))
    @settings(max_examples=200, deadline=None)
    def test_rejection_draws_match_per_pair_loop(self, counts, relation, data, seed, ratio):
        a, b = RELATIONS[relation]
        pairs = data.draw(st.lists(st.tuples(st.integers(0, counts[a] - 1), st.integers(0, counts[b] - 1)),
                                   min_size=1, max_size=max(1, counts[a] * counts[b] // 3)))
        n_pos = len(set(pairs))
        n_neg = math.ceil(ratio * n_pos)
        assume(counts[a] * counts[b] - n_pos > 2 * n_neg)  # the rejection branch
        g = build_from_pairs(counts, [(relation, i, j, 1.0) for i, j in pairs])
        ds = make_link_dataset(g, relation, ratio, np.random.default_rng(seed))
        expected = rejection_negatives_loop(g, relation, n_neg, np.random.default_rng(seed))
        assert ds.pairs[n_pos:] == expected
        assert all(type(i) is int and type(j) is int for i, j in ds.pairs)

    @pytest.mark.parametrize("n_edges,expect_enumeration", [(8, True), (3, False)])
    def test_negatives_uniform_over_non_edges(self, n_edges, expect_enumeration):
        # 4x4 relation; both the enumeration and the rejection branch
        pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)]
        edges = [(0, i, j, 1.0) for i, j in pairs[:n_edges]]
        g = build_from_pairs((4, 4, 0), edges)
        n_pos = len(g.edge_wt[0])
        n_free = 16 - n_pos
        n_neg = n_pos
        assert (n_free <= 2 * n_neg) == expect_enumeration
        trials = 8000
        freq: dict[tuple[int, int], int] = {}
        for t in range(trials):
            ds = make_link_dataset(g, 0, 1.0, np.random.default_rng(100 + t))
            for pair in ds.pairs[n_pos:]:
                freq[pair] = freq.get(pair, 0) + 1
        expected = n_neg / n_free
        for pair, count in freq.items():
            assert abs(count / trials - expected) < 0.02
        assert len(freq) == n_free  # every non-edge seen


class TestKFold:
    def test_even_split(self):
        labels = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        fold_of = kfold_split(labels, 5, np.random.default_rng(0))
        sizes = [int((fold_of == f).sum()) for f in range(5)]
        assert sizes == [2] * 5

    def test_partition_covers_everything(self):
        labels = (np.random.default_rng(1).random(37) < 0.4).astype(int)
        fold_of = kfold_split(labels, 4, np.random.default_rng(2))
        assert set(fold_of) == {0, 1, 2, 3}
        assert len(fold_of) == 37

    @pytest.mark.parametrize("n_pos,n_neg", [(25, 25), (45, 5)])
    def test_stratification(self, n_pos, n_neg):
        labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
        fold_of = kfold_split(labels, 5, np.random.default_rng(3))
        for f in range(5):
            in_fold = labels[fold_of == f]
            assert abs(in_fold.sum() - n_pos / 5) <= 1
            assert abs((in_fold == 0).sum() - n_neg / 5) <= 1

    def test_class_smaller_than_folds(self):
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(EvalError, match="class 1 has 3 samples, fewer than 5 folds"):
            kfold_split(labels, 5, np.random.default_rng(0))
        assert sorted(set(kfold_split(labels, 3, np.random.default_rng(0)))) == [0, 1, 2]

    def test_too_few_samples(self):
        with pytest.raises(EvalError):
            kfold_split(np.array([1, 0]), 3, np.random.default_rng(0))
        with pytest.raises(EvalError):
            kfold_split(np.array([1, 0, 1]), 1, np.random.default_rng(0))


class TestClassifier:
    def test_separable_data_perfect_accuracy(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train_classifier(X, y, l2=1e-6)
        pred = model.predict_proba(X) >= 0.5
        assert np.array_equal(pred, y.astype(bool))

    @pytest.mark.parametrize("X,y", [
        ([[-2.0], [-1.0], [1.0], [2.0]], [0, 0, 1, 1]),
        # a full Newton step from zero overshoots here: without step halving the
        # fit ends at max_iter with weights near 1e7 that misclassify
        ([[-0.15, -1.32], [0.31, 0.11], [0.72, 1.92], [-0.99, -0.48], [-0.6, -0.45],
          [0.4, 0.6], [-0.51, 1.33]], [0, 0, 0, 1, 0, 0, 1]),
    ])
    def test_near_separable_data_stays_finite(self, X, y, caplog):
        # with almost no penalty the optimum lies at large weights
        X, y = np.array(X), np.array(y, dtype=float)
        with caplog.at_level("WARNING", logger="trine.evaluation"), \
                np.errstate(over="raise", invalid="raise"):
            model = train_classifier(X, y, l2=1e-8)
            proba = model.predict_proba(X)
        assert np.isfinite(model.weights).all() and math.isfinite(model.intercept)
        assert np.array_equal(proba >= 0.5, y.astype(bool))
        assert not caplog.records

    def test_equal_features_balanced_labels(self):
        X = np.ones((10, 3))
        y = np.array([0.0, 1.0] * 5)
        model = train_classifier(X, y)
        probe = np.array([[1.0, 1.0, 1.0], [5.0, -2.0, 0.0]])
        assert np.allclose(model.predict_proba(probe), 0.5, atol=1e-9)

    def test_two_point_closed_form(self):
        x1, x0, l2 = 2.0, 0.5, 0.1
        w_star, b_star = solve_two_point_logistic(x1, x0, l2)
        X = np.array([[x1], [x0]])
        y = np.array([1.0, 0.0])
        model = train_classifier(X, y, l2=l2, tol=1e-12)
        assert abs(model.weights[0] - w_star) < 1e-9
        assert abs(model.intercept - b_star) < 1e-9

    def test_random_problem_reaches_tolerance(self):
        rng = np.random.default_rng(41)
        n, d, l2, tol = 200, 5, 1e-3, 1e-8
        X = rng.normal(size=(n, d))
        y = (X @ rng.normal(size=d) + rng.normal(size=n) > 0).astype(float)
        model = train_classifier(X, y, l2=l2, tol=tol)
        p = 1.0 / (1.0 + np.exp(-(X @ model.weights + model.intercept)))
        grad = np.append(X.T @ (p - y) / n + l2 * model.weights, np.mean(p - y))
        assert np.linalg.norm(grad) <= tol

    def test_single_class_rejected(self):
        with pytest.raises(EvalError, match="single class"):
            train_classifier(np.ones((3, 2)), np.ones(3))

    def test_overflowing_features_rejected(self):
        # Hadamard features of diverged embeddings: finite, but their squared
        # spectral norm overflows
        X = np.random.default_rng(0).uniform(0.5, 1.5, size=(20, 4)) * 1e160
        y = np.array([0.0, 1.0] * 10)
        with pytest.raises(EvalError, match="lower --lr"):
            train_classifier(X, y)
        X[0, 0] = np.inf
        with pytest.raises(EvalError, match="non-finite"):
            train_classifier(X, y)

    def test_max_iter_without_convergence_warns(self, caplog):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with caplog.at_level("WARNING", logger="trine.evaluation"):
            train_classifier(X, y, max_iter=3)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "max_iter=3" in warnings[0] and "gradient norm" in warnings[0]

    def test_converged_fit_does_not_warn(self, caplog):
        X = np.array([[2.0], [0.5]])
        with caplog.at_level("WARNING", logger="trine.evaluation"):
            train_classifier(X, np.array([1.0, 0.0]), l2=0.1)
        assert not caplog.records


class TestAucRoc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc_roc(scores, labels) == 1.0
        assert auc_pr(scores, labels) == 1.0

    def test_all_ties_give_half(self):
        scores = np.ones(6)
        labels = np.array([1, 0, 1, 0, 1, 0])
        assert auc_roc(scores, labels) == 0.5

    def test_reversed_ranking_gives_zero(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([1, 1, 0, 0])
        assert auc_roc(scores, labels) == 0.0

    def test_matches_pair_counting_oracle_exactly(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # small integer grid forces plenty of ties
            scores = rng.integers(0, 6, size=n).astype(float)
            assert auc_roc(scores, labels) == auc_pair_counting_oracle(scores, labels)

    def test_tie_groups_match_reference_loops(self):
        rng = np.random.default_rng(43)
        for trial in range(50):
            n = int(rng.integers(2, 80))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 8, size=n).astype(float) if trial % 2 else rng.random(n)
            # mid-ranks are exact half-integers and the area adds its steps in
            # the loop's order, so both agree exactly
            assert auc_roc(scores, labels) == auc_roc_tie_loop(scores, labels)
            assert auc_pr(scores, labels) == auc_pr_tie_loop(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        for transform in (lambda s: 3 * s + 2, np.exp, lambda s: s ** 3):
            assert auc_roc(transform(scores), labels) == pytest.approx(auc_roc(scores, labels))
            assert auc_pr(transform(scores), labels) == pytest.approx(auc_pr(scores, labels))

    def test_single_class_rejected(self):
        with pytest.raises(EvalError):
            auc_roc(np.array([0.1, 0.2]), np.array([1, 1]))
        with pytest.raises(EvalError):
            auc_pr(np.array([0.1, 0.2]), np.array([0, 0]))


class TestAucPr:
    def test_all_ties_equal_prevalence(self):
        scores = np.full(8, 0.4)
        labels = np.array([1, 1, 0, 0, 0, 0, 1, 0])
        assert auc_pr(scores, labels) == pytest.approx(3 / 8)

    def test_matches_sklearn_average_precision(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(29)
        for trial in range(20):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 8, size=n).astype(float) if trial % 2 else rng.random(n)
            expected = sklearn_metrics.average_precision_score(labels, scores)
            assert auc_pr(scores, labels) == pytest.approx(expected, abs=1e-12)


class TestF1:
    def test_threshold(self):
        scores = np.array([0.6, 0.5, 0.4, 0.2])
        labels = np.array([1, 1, 0, 1])
        # preds: 1 1 0 0 -> tp=2 fp=0 fn=1
        assert f1_score(scores, labels) == pytest.approx(2 * 2 / (2 * 2 + 0 + 1))

    def test_degenerate_zero(self):
        assert f1_score(np.array([0.1, 0.2]), np.array([0, 0])) == 0.0


class TestEvaluate:
    def test_random_embeddings_on_random_graph_near_half(self):
        # null-model check: no structure, no information in the features
        g = planted_graph((40, 25, 20), 1, 0.2, 0.2, seed=31, activity_spread=1.0)
        cfg = TrainConfig(dim=8)
        store = init_embeddings(g, cfg, np.random.default_rng(7))
        report = evaluate(store, g, relation=2, folds=5, seed=11)
        assert abs(report.mean_auc_roc - 0.5) < 0.05

    def test_random_embeddings_on_planted_graph_near_half(self):
        # guard against an additive edge operator: on the activity-skewed
        # planted graph the endpoint mean of these random vectors scores 0.557
        g = planted_graph((300, 60, 30), 3, 0.3, 0.02, seed=1)
        store = init_embeddings(g, TrainConfig(dim=32), np.random.default_rng(1))
        report = evaluate(store, g, relation=2, folds=5)
        assert abs(report.mean_auc_roc - 0.5) < 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_tripartite(rng, counts=(12, 8, 8), density=0.35)
        store = init_embeddings(g, TrainConfig(dim=6), np.random.default_rng(1))
        a = evaluate(store, g, relation=0, folds=3, seed=5)
        b = evaluate(store, g, relation=0, folds=3, seed=5)
        assert a.auc_roc == b.auc_roc
        assert a.auc_pr == b.auc_pr
        assert a.f1 == b.f1

    def test_report_means(self):
        report = EvalReport(relation=2, folds=2, n_positive=4, n_negative=4,
                            auc_roc=[0.6, 0.8], auc_pr=[0.5, 0.7], f1=[0.4, 0.6])
        assert report.mean_auc_roc == pytest.approx(0.7)
        assert report.mean_auc_pr == pytest.approx(0.6)
        assert report.mean_f1 == pytest.approx(0.5)
        assert "mean" in report.lines()[-1]
        assert any(line.startswith("mean_auc_roc = ") for line in report.key_values())


class TestEndToEnd:
    def test_holds_out_test_edges(self, monkeypatch):
        g = planted_graph((12, 8, 6), 2, 0.6, 0.1, seed=5)
        seen_graphs = []
        import trine.evaluation as evaluation

        real_train = evaluation.train

        def spy_train(graph, metapaths, cfg, **kwargs):
            seen_graphs.append(graph)
            return real_train(graph, metapaths, cfg, **kwargs)

        monkeypatch.setattr(evaluation, "train", spy_train)
        cfg = TrainConfig(dim=4, epochs=1, seed=2, max_walks=1, walk_length=4)
        report = evaluate_end_to_end(g, default_metapaths(), cfg, relation=2, folds=3)
        assert len(seen_graphs) == 3
        n_pos = len(g.edge_wt[2])
        held_out = [n_pos - len(gf.edge_wt[2]) for gf in seen_graphs]
        assert sum(held_out) == n_pos  # every positive held out exactly once
        assert all(h >= 1 for h in held_out)
        assert len(report.auc_roc) == 3

    @pytest.mark.parametrize("l2", [float("nan"), -1.0, float("inf")])
    def test_bad_l2_fails_before_any_fold_trains(self, monkeypatch, l2):
        import trine.evaluation as evaluation

        real_train = evaluation.train
        trained = []

        def spy_train(graph, metapaths, cfg, **kwargs):
            trained.append(graph)
            return real_train(graph, metapaths, cfg, **kwargs)

        monkeypatch.setattr(evaluation, "train", spy_train)
        g = planted_graph((12, 8, 6), 2, 0.6, 0.1, seed=5)
        cfg = TrainConfig(dim=4, epochs=1, seed=2, max_walks=1, walk_length=4)
        with pytest.raises(EvalError, match="l2 must be non-negative and finite"):
            evaluate_end_to_end(g, default_metapaths(), cfg, relation=2, folds=3, l2=l2)
        assert trained == []

    def test_class_smaller_than_folds_fails_before_any_fold_trains(self, monkeypatch):
        import trine.evaluation as evaluation

        trained = []
        monkeypatch.setattr(evaluation, "train", lambda graph, *args, **kwargs: trained.append(graph))
        # relation 2 (user-item) has 3 edges, so 5 folds cannot each hold a positive
        g = build_from_pairs((3, 1, 3), [(0, 0, 0, 1.0), (1, 0, 0, 1.0)]
                             + [(2, i, i, 1.0) for i in range(3)])
        cfg = TrainConfig(dim=4, epochs=1, seed=2, max_walks=1, walk_length=4)
        with pytest.raises(EvalError, match="has 3 samples, fewer than 5 folds"):
            evaluate_end_to_end(g, default_metapaths(), cfg, relation=2, folds=5)
        assert trained == []
        store = init_embeddings(g, cfg, np.random.default_rng(0))
        with pytest.raises(EvalError, match="has 3 samples, fewer than 5 folds"):
            evaluate(store, g, relation=2, folds=5)

    def test_deterministic(self):
        g = planted_graph((12, 8, 6), 2, 0.6, 0.1, seed=6)
        cfg = TrainConfig(dim=4, epochs=2, seed=9, max_walks=1, walk_length=4)
        a = evaluate_end_to_end(g, default_metapaths(), cfg, relation=2, folds=3)
        b = evaluate_end_to_end(g, default_metapaths(), cfg, relation=2, folds=3)
        assert a.auc_roc == b.auc_roc and a.auc_pr == b.auc_pr and a.f1 == b.f1
