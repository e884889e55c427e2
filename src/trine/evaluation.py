"""Link-prediction harness: datasets, logistic classifier, ranking metrics."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError
from .graph import RELATIONS, Metapath, TripartiteGraph
from .trainer import EmbeddingStore, TrainConfig, train

log = logging.getLogger(__name__)

_DATASET_STREAM = 505
_SPLIT_STREAM = 606

DEFAULT_FOLDS = 5
DEFAULT_NEG_RATIO = 1.0
DEFAULT_L2 = 1e-4


@dataclass
class LinkDataset:
    """Candidate links of one relation: observed edges plus sampled non-edges."""

    relation: int
    pairs: list[tuple[int, int]]
    labels: np.ndarray  # 1 for observed edges, 0 for sampled non-edges

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def n_negative(self) -> int:
        return len(self.pairs) - self.n_positive


def make_link_dataset(g: TripartiteGraph, relation: int, neg_ratio: float,
                      rng: np.random.Generator) -> LinkDataset:
    """All edges of the relation as positives, plus uniform non-edge negatives.

    Negatives are distinct cross-party pairs absent from the relation, sampled
    uniformly without duplicates; ceil(neg_ratio * positives) of them.
    """
    if neg_ratio <= 0:
        raise EvalError(f"neg_ratio must be positive, got {neg_ratio}")
    a, b = RELATIONS[relation]
    na, nb = g.counts[a], g.counts[b]
    src, dst = g.edge_src[relation], g.edge_dst[relation]
    positives = list(zip(src.tolist(), dst.tolist()))
    if not positives:
        raise EvalError("relation has no edges; nothing to evaluate")
    n_neg = int(np.ceil(neg_ratio * len(positives)))
    n_pairs = na * nb
    n_free = n_pairs - len(positives)
    if n_free < n_neg:
        raise EvalError(
            f"relation too dense: need {n_neg} non-edges but only {n_free} exist"
        )
    negatives: list[tuple[int, int]] = []
    if n_free <= 2 * n_neg:
        # Dense relation: enumerate the non-edges as row-major pair codes
        # and subsample exactly.
        free = np.setdiff1d(np.arange(n_pairs), src * nb + dst)
        i, j = np.divmod(free[rng.choice(len(free), size=n_neg, replace=False)], nb)
        negatives = list(zip(i.tolist(), j.tolist()))
    else:
        seen = set(positives)
        while len(negatives) < n_neg:
            i = int(rng.integers(na))
            j = int(rng.integers(nb))
            if (i, j) in seen:
                continue
            seen.add((i, j))
            negatives.append((i, j))
    pairs = positives + negatives
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    return LinkDataset(relation, pairs, labels)


def kfold_split(labels: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Label-stratified fold assignment; per-class fold sizes differ by <= 1."""
    n = len(labels)
    if folds < 2:
        raise EvalError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise EvalError(f"cannot split {n} samples into {folds} folds")
    fold_of = np.empty(n, dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % folds
    return fold_of


class LogisticModel:
    """L2-regularized logistic regression fit by full-batch gradient descent."""

    def __init__(self, weights: np.ndarray, intercept: float):
        self.weights = weights
        self.intercept = intercept

    def decision(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + np.tanh(0.5 * self.decision(X)))


def train_classifier(X: np.ndarray, y: np.ndarray, l2: float = DEFAULT_L2,
                     tol: float = 1e-8, max_iter: int = 10_000) -> LogisticModel:
    """Fit logistic regression by gradient descent to a gradient-norm tolerance.

    The step size is the inverse Lipschitz constant of the regularized loss,
    so the fit is deterministic and monotone. The intercept is not penalized.
    Raises :class:`EvalError` when the features are non-finite or so large
    that the step size underflows; logs a warning when ``max_iter`` is
    reached above ``tol``.
    """
    classes = np.unique(y)
    if len(classes) < 2:
        raise EvalError("classifier training set contains a single class")
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    norm = float(np.linalg.norm(Xb, 2)) if np.isfinite(Xb).all() else math.inf
    # Lipschitz bound of the mean logistic loss gradient plus the L2 term.
    lip = norm * norm / (4.0 * n) + l2
    if not math.isfinite(lip):
        raise EvalError(
            f"link features are non-finite or too large to fit (spectral norm {norm:.3g}); "
            "the embeddings diverged in training, retrain with a lower --lr"
        )
    step = 1.0 / lip
    w = np.zeros(d + 1)
    mask = np.ones(d + 1)
    mask[-1] = 0.0  # no penalty on the intercept
    gnorm = math.inf
    for _ in range(max_iter):
        p = 0.5 * (1.0 + np.tanh(0.5 * (Xb @ w)))
        grad = Xb.T @ (p - y) / n + l2 * mask * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            break
        w -= step * grad
    else:
        log.warning("classifier stopped at max_iter=%d with gradient norm %.3g above tol %.3g",
                    max_iter, gnorm, tol)
    return LogisticModel(w[:-1].copy(), float(w[-1]))


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with mid-rank tie correction."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("AUC-ROC undefined: both classes must be present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0  # 1-based mid-rank
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_pr(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve by step integration over thresholds."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0 or n_pos == len(labels):
        raise EvalError("AUC-PR undefined: both classes must be present")
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


def f1_score(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """F1 of the thresholded prediction (score >= threshold counts positive)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


@dataclass
class EvalReport:
    """Per-fold and mean link-prediction metrics."""

    relation: int
    folds: int
    n_positive: int
    n_negative: int
    auc_roc: list[float] = field(default_factory=list)
    auc_pr: list[float] = field(default_factory=list)
    f1: list[float] = field(default_factory=list)

    @property
    def mean_auc_roc(self) -> float:
        return float(np.mean(self.auc_roc))

    @property
    def mean_auc_pr(self) -> float:
        return float(np.mean(self.auc_pr))

    @property
    def mean_f1(self) -> float:
        return float(np.mean(self.f1))

    def lines(self) -> list[str]:
        out = ["fold  auc_roc   auc_pr    f1"]
        for f in range(self.folds):
            out.append(f"{f:>4}  {self.auc_roc[f]:.4f}    {self.auc_pr[f]:.4f}    {self.f1[f]:.4f}")
        out.append(f"mean  {self.mean_auc_roc:.4f}    {self.mean_auc_pr:.4f}    {self.mean_f1:.4f}")
        return out

    def key_values(self) -> list[str]:
        out = [
            f"relation = {self.relation}",
            f"folds = {self.folds}",
            f"n_positive = {self.n_positive}",
            f"n_negative = {self.n_negative}",
        ]
        for f in range(self.folds):
            out.append(f"fold{f}_auc_roc = {self.auc_roc[f]:.9g}")
            out.append(f"fold{f}_auc_pr = {self.auc_pr[f]:.9g}")
            out.append(f"fold{f}_f1 = {self.f1[f]:.9g}")
        out.append(f"mean_auc_roc = {self.mean_auc_roc:.9g}")
        out.append(f"mean_auc_pr = {self.mean_auc_pr:.9g}")
        out.append(f"mean_f1 = {self.mean_f1:.9g}")
        return out


def _features(store: EmbeddingStore, relation: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Hadamard product of the endpoint embeddings, one row per pair.

    A linear read-out sum_k w_k u_k v_k contains the trainer's link score
    u . v and has no additive per-node term. An additive operator such as
    the mean lets the classifier score s(u) + s(v), so under edge-level
    folds it memorizes which nodes are active even from random vectors.
    """
    a, b = RELATIONS[relation]
    idx = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return store.emb[a][idx[:, 0]] * store.emb[b][idx[:, 1]]


def _fold_metrics(report: EvalReport, scores: np.ndarray, labels: np.ndarray) -> None:
    report.auc_roc.append(auc_roc(scores, labels))
    report.auc_pr.append(auc_pr(scores, labels))
    report.f1.append(f1_score(scores, labels))


def evaluate(store: EmbeddingStore, g: TripartiteGraph, relation: int, folds: int = DEFAULT_FOLDS,
             neg_ratio: float = DEFAULT_NEG_RATIO, seed: int = 1, l2: float = DEFAULT_L2) -> EvalReport:
    """Cross-validated link prediction with a fixed, pre-trained embedding.

    Note that embeddings trained on the full graph have seen the test edges;
    use :func:`evaluate_end_to_end` for the leakage-safe protocol.
    """
    dataset = make_link_dataset(g, relation, neg_ratio, np.random.default_rng([seed, _DATASET_STREAM]))
    fold_of = kfold_split(dataset.labels, folds, np.random.default_rng([seed, _SPLIT_STREAM]))
    X = _features(store, relation, dataset.pairs)
    report = EvalReport(relation, folds, dataset.n_positive, dataset.n_negative)
    for f in range(folds):
        test = fold_of == f
        model = train_classifier(X[~test], dataset.labels[~test], l2=l2)
        _fold_metrics(report, model.predict_proba(X[test]), dataset.labels[test])
    return report


def evaluate_end_to_end(g: TripartiteGraph, metapaths: list[Metapath], cfg: TrainConfig,
                        relation: int, folds: int = DEFAULT_FOLDS, neg_ratio: float = DEFAULT_NEG_RATIO,
                        l2: float = DEFAULT_L2) -> EvalReport:
    """Leakage-safe protocol: per fold, retrain embeddings without test edges.

    The dataset and folds are fixed up front; for each fold the test-fold
    positive edges are removed from the graph before embedding training, so
    the classifier is scored on links the embeddings never saw.
    """
    dataset = make_link_dataset(g, relation, neg_ratio, np.random.default_rng([cfg.seed, _DATASET_STREAM]))
    fold_of = kfold_split(dataset.labels, folds, np.random.default_rng([cfg.seed, _SPLIT_STREAM]))
    report = EvalReport(relation, folds, dataset.n_positive, dataset.n_negative)
    pos_mask = dataset.labels == 1
    for f in range(folds):
        test = fold_of == f
        held_out = [dataset.pairs[i] for i in np.flatnonzero(test & pos_mask)]
        g_fold = g.without_edges(relation, held_out)
        store = train(g_fold, metapaths, cfg)
        X = _features(store, relation, dataset.pairs)
        model = train_classifier(X[~test], dataset.labels[~test], l2=l2)
        _fold_metrics(report, model.predict_proba(X[test]), dataset.labels[test])
        log.info("fold %d: auc_roc=%.4f auc_pr=%.4f f1=%.4f", f,
                 report.auc_roc[-1], report.auc_pr[-1], report.f1[-1])
    return report
