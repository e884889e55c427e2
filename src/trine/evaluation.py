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

# Newton step halving: a trial objective within this relative rounding margin
# of the current one counts as no rise, and halving stops below this step.
_RISE_RTOL = 64 * np.finfo(np.float64).eps
_MIN_STEP = 2.0 ** -40


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
    if not (0 < neg_ratio < math.inf):
        raise EvalError(f"neg_ratio must be positive and finite, got {neg_ratio}")
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
    if n_free <= 2 * n_neg:
        # Dense relation: enumerate the non-edges as row-major pair codes
        # and subsample exactly.
        free = np.setdiff1d(np.arange(n_pairs), src * nb + dst)
        i, j = np.divmod(free[rng.choice(len(free), size=n_neg, replace=False)], nb)
        negatives = list(zip(i.tolist(), j.tolist()))
    else:
        # Rejection in blocks of pairs. integers() over the bounds (na, nb, na, nb, ...)
        # returns what alternating scalar integers(na), integers(nb) calls would, and a
        # pair counts at its first draw unless it is an edge or already taken, so the
        # picks are those of drawing one pair at a time until n_neg are found.
        taken = src * nb + dst
        while len(taken) < len(positives) + n_neg:
            missing = len(positives) + n_neg - len(taken)
            k = missing * n_pairs // (n_pairs - len(taken)) + 1
            i, j = rng.integers(np.tile([na, nb], k)).reshape(k, 2).T
            codes = i * nb + j
            fresh = codes[np.sort(np.unique(codes, return_index=True)[1])]
            taken = np.concatenate([taken, fresh[~np.isin(fresh, taken)]])
        i, j = np.divmod(taken[len(positives):len(positives) + n_neg], nb)
        negatives = list(zip(i.tolist(), j.tolist()))
    pairs = positives + negatives
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    return LinkDataset(relation, pairs, labels)


def kfold_split(labels: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Label-stratified fold assignment; per-class fold sizes differ by <= 1.

    Every class must have at least ``folds`` members, so that every fold
    holds every class.
    """
    n = len(labels)
    if folds < 2:
        raise EvalError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise EvalError(f"cannot split {n} samples into {folds} folds")
    classes, sizes = np.unique(labels, return_counts=True)
    if (sizes < folds).any():
        k = int(np.argmin(sizes))
        raise EvalError(f"class {classes[k]:g} has {sizes[k]} samples, fewer than {folds} folds")
    fold_of = np.empty(n, dtype=np.int64)
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % folds
    return fold_of


class LogisticModel:
    """L2-regularized logistic regression fit by damped Newton (IRLS) steps."""

    def __init__(self, weights: np.ndarray, intercept: float):
        self.weights = weights
        self.intercept = intercept

    def decision(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + np.tanh(0.5 * self.decision(X)))


def _check_l2(l2: float) -> None:
    if not (0 <= l2 < math.inf):
        raise EvalError(f"l2 must be non-negative and finite, got {l2}")


def train_classifier(X: np.ndarray, y: np.ndarray, l2: float = DEFAULT_L2,
                     tol: float = 1e-8, max_iter: int = 100) -> LogisticModel:
    """Fit logistic regression by damped Newton (IRLS) steps to a gradient-norm tolerance.

    Minimizes the mean logistic loss plus ``l2 / 2 * |w|^2``; the intercept
    is not penalized. Each step solves the (d+1) x (d+1) Newton system and is
    halved until the objective does not rise, which keeps near-separable data
    from overshooting. Raises :class:`EvalError` when the features are
    non-finite or so large that their Gram matrix overflows; logs a warning
    when ``max_iter`` is reached above ``tol``.
    """
    _check_l2(l2)
    classes = np.unique(y)
    if len(classes) < 2:
        raise EvalError("classifier training set contains a single class")
    if not np.isfinite(X).all():
        raise EvalError("link features are non-finite; the embeddings diverged in training, "
                        "retrain with a lower --lr")
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    # The gradient and Hessian sum products bounded by the Gram diagonal, so a
    # finite Gram matrix keeps them finite.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = Xb.T @ Xb
    if not np.isfinite(gram).all():
        raise EvalError("link features are too large to fit (their Gram matrix overflows); "
                        "the embeddings diverged in training, retrain with a lower --lr")
    penalty = np.full(d + 1, l2)
    penalty[-1] = 0.0  # no penalty on the intercept
    # Per-row loss is softplus(sign * z): log(1 + e^-z) for positives, log(1 + e^z)
    # for negatives, without the cancellation of softplus(z) - y * z.
    sign = 1.0 - 2.0 * y

    def objective(w: np.ndarray, z: np.ndarray) -> float:
        return float(np.mean(np.logaddexp(0.0, sign * z))) + 0.5 * float(penalty @ (w * w))

    w = np.zeros(d + 1)
    z = np.zeros(n)
    f = objective(w, z)
    gnorm = math.inf
    for _ in range(max_iter):
        p = 0.5 * (1.0 + np.tanh(0.5 * z))
        grad = Xb.T @ (p - y) / n + penalty * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            break
        hess = (Xb.T * (p * (1.0 - p))) @ Xb / n
        hess[np.diag_indices_from(hess)] += penalty
        # lstsq, not solve: all-equal columns leave the system singular.
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        t = 1.0
        while True:
            w_new = w - t * step
            z_new = Xb @ w_new
            f_new = objective(w_new, z_new)
            if f_new <= f * (1.0 + _RISE_RTOL) or t < _MIN_STEP:
                break
            t *= 0.5
        w, z, f = w_new, z_new, f_new
    else:
        log.warning("classifier stopped at max_iter=%d with gradient norm %.3g above tol %.3g",
                    max_iter, gnorm, tol)
    return LogisticModel(w[:-1].copy(), float(w[-1]))


def _tie_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Index of the last element of each run of equal values in a sorted array."""
    return np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with mid-rank tie correction."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("AUC-ROC undefined: both classes must be present")
    order = np.argsort(scores, kind="stable")
    ends = _tie_ends(scores[order])
    starts = np.r_[0, ends[:-1] + 1]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)  # 1-based mid-ranks
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
    ends = _tie_ends(scores[order])  # one threshold per group of tied scores
    tp = np.cumsum(labels[order] == 1)[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    # cumsum adds the steps in threshold order, as a running total does;
    # np.sum would pair them up and move the last bits of the area.
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


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
    idx = np.array(pairs, dtype=np.int64).reshape(-1, 2) + store.offsets[[a, b]]
    return store.emb[idx[:, 0]] * store.emb[idx[:, 1]]


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
    the classifier is scored on links the embeddings never saw. ``l2`` is
    checked before any fold trains.
    """
    _check_l2(l2)
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
