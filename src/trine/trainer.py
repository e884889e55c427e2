"""Joint optimization of the six-term embedding objective.

The parameters have one layout: :class:`EmbeddingStore` holds the node
embeddings ``emb`` and the context vectors ``ctx`` as one float64 (nodes,
dim) array each, in the graph's global rows (node ``i`` of party ``p`` is
row ``offsets[p] + i``). Initialisation, the batch kernel, the loss, the
scalar reference updates and the embedding files all index it.

Three implicit skip-gram terms (one per party, trained with negative
sampling over same-type walk co-occurrences) plus three explicit terms
(weighted first-order reconstruction of each relation's observed edges)
are ascended jointly by minibatch SGD over the edges.

Each epoch permutes the edge list and walks it in batches of
``_BATCH_EDGES`` edges. A batch draws its randomness (an occurrence of each
endpoint, that occurrence's window partners, their negatives), takes every
explicit and implicit gradient at the batch-start state, and adds them,
summed per row. The per-term gradients are those of the scalar
:func:`explicit_update` and :func:`implicit_update`; only the interleaving
of updates differs from one-at-a-time SGD. The permutation spreads a batch
over many rows (in edge-list order a batch would repeat one user's row),
but a party with fewer nodes than a batch has endpoints still gets several
summed gradients per row in every batch. A skip-gram pair, in a batch or in
the fixed loss-evaluation draw, is a centre, a context row (the partner,
then its negatives) and a mask of live entries, as :func:`_context_rows`
makes them.

No draw reads the parameters, so after the epoch-0 report :func:`train`
forks one child process that prepares the batches, ``_CHUNK_BATCHES``
consecutive batches (a chunk) at a time (:func:`_chunks`), and sends each
chunk through a one-way pipe while the calling process runs the batch
kernel on the chunks before (:func:`_prepared`). The child owns the
training generator, the occurrence index and the sampler, which it shares
with the caller copy-on-write; it draws each epoch's permutation and makes
the per-edge steps, every batch's pairs and the two row groupings of each
batch's scatters (:func:`_with_groupings`). A chunk's pairs come from one
pass over global rows (:func:`_implicit_pairs`): the generator is called
batch by batch and party by party, in the order a batch at a time would call
it, and then one window scan and one :meth:`NegativeSampler.invert` serve
the whole chunk. So the outputs are those of the serial loop, bit for bit.
Everything that reads or writes ``emb`` and ``ctx`` runs in the calling
process: the kernel, its finite check and the rollback to the checkpoint,
the loss and ``on_epoch``. Where the ``fork`` start method is missing, the
same generator runs on the calling thread instead. A :func:`train` call
makes the batch kernel's large buffers once, sized for the largest batch its
settings and its corpus allow, and every batch reuses them.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import math
import multiprocessing
import pickle
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .centrality import hits
from .errors import ConfigError, EmbeddingFileError, EmptyGraphError, NonFiniteError
from .graph import N_PARTIES, RELATIONS, Edge, Metapath, Node, Schema, TripartiteGraph
from .sampling import DEFAULT_POWER, NegativeSampler
from .walks import TypedCorpus, filter_by_type, generate_corpus, window_pairs

log = logging.getLogger(__name__)

# Stream tags that partition the global seed's randomness by consumer.
_INIT_STREAM = 202
_TRAIN_STREAM = 303
_LOSS_STREAM = 404

# Cap on implicit context pairs evaluated per party when reporting the loss;
# the draw is derived from the seed alone, so it is fixed across epochs.
_LOSS_EVAL_MAX_PAIRS = 5_000

# Loss-draw rows (and explicit-loss edges) gathered at once, which bounds the
# loss's scratch memory.
_LOSS_CHUNK = 4_096

# Embedding-file lines whose values one numpy call parses.
_READ_CHUNK = 4_096

# Edges per minibatch. Larger batches take more stale gradients per row: at
# 1024 edges a 30-node party's rows get hundreds per batch and diverge, and a
# single batch of ~3.8k edges ending at 3-node parties diverges too.
_BATCH_EDGES = 64

# Batches in a chunk, the unit the child process prepares and sends. On a
# 2-vCPU host at the paper workload's settings (3 epochs), the caller waited
# 0.29-0.89 s in all for chunks of 1 batch, and 0.19-0.22 s for chunks of 6
# or of 24; a larger chunk only makes each message and the child's
# temporaries larger.
_CHUNK_BATCHES = 6

# Bytes the pipe from the preparing child holds (64 KB by default on Linux):
# 1 MB, the largest that Linux grants an unprivileged process by default, is
# about two chunks at the paper workload's settings. With 64 KB a chunk
# crossed in several writes, each of which had to wake the child, and there
# the caller waited 0.05-0.44 s an epoch for chunks; with 1 MB, 0.02-0.12 s.
_PIPE_BYTES = 1 << 20


def sigmoid(x: float) -> float:
    """Overflow-safe logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe for any finite input
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


@dataclass
class TrainConfig:
    """All hyperparameters of corpus generation and training.

    ``alpha`` weights the per-party implicit terms, ``beta`` the per-relation
    explicit terms. ``gamma`` globally scales the explicit gradient on top of
    the relation's beta weight. ``walk_scale=None`` leaves the walk-budget
    scale to ``generate_corpus``, which resolves it to the node count.
    """

    dim: int = 128
    alpha: tuple[float, float, float] = (1.0, 1.0, 1.0)
    beta: tuple[float, float, float] = (1.0, 1.0, 1.0)
    lr: float = 0.025
    gamma: float = 1.0
    negatives: int = 4
    window: int = 5
    walk_length: int = 32
    min_walks: int = 1
    max_walks: int = 32
    walk_scale: float | None = None
    power: float = DEFAULT_POWER
    epochs: int = 20
    tol: float = 1e-4
    seed: int = 1
    lr_decay: bool = False

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if len(self.alpha) != N_PARTIES or len(self.beta) != len(RELATIONS):
            raise ConfigError(f"need 3 alpha and 3 beta weights, got {len(self.alpha)} and {len(self.beta)}")
        reals = {"lr": self.lr, "gamma": self.gamma, "power": self.power, "walk_scale": self.walk_scale}
        reals.update((f"alpha{p + 1}", a) for p, a in enumerate(self.alpha))
        reals.update((f"beta{r + 1}", b) for r, b in enumerate(self.beta))
        for name, value in reals.items():
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if any(a < 0 for a in self.alpha) or any(b < 0 for b in self.beta):
            raise ConfigError("alpha and beta weights must be non-negative")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be non-negative, got {self.gamma}")
        if not (1 <= self.min_walks <= self.max_walks):
            raise ConfigError(
                f"need 1 <= min_walks <= max_walks, got {self.min_walks}, {self.max_walks}"
            )
        if not (0 < self.tol < 1):
            raise ConfigError(f"tol must lie in (0, 1), got {self.tol}")
        if self.negatives < 0:
            raise ConfigError(f"negatives must be >= 0, got {self.negatives}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.walk_length < 1:
            raise ConfigError(f"walk_length must be >= 1, got {self.walk_length}")
        if self.walk_scale is not None and self.walk_scale <= 0:
            raise ConfigError(f"walk_scale must be positive, got {self.walk_scale}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.power <= 0:
            raise ConfigError(f"power must be positive, got {self.power}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class EmbeddingStore:
    """Node-embedding and context-vector matrices of the three parties, in global rows.

    ``emb`` and ``ctx`` are float64 (nodes, dim) arrays. Node ``i`` of party
    ``p``, labelled ``labels[p][i]``, is row ``offsets[p] + i``: party ``p``
    holds rows ``offsets[p]:offsets[p + 1]``, the layout of the graph whose
    labels the store has.
    """

    emb: np.ndarray
    ctx: np.ndarray
    labels: tuple[list[str], ...]

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    @property
    def offsets(self) -> np.ndarray:
        """Each party's first row, and the row count last."""
        return np.concatenate([[0], np.cumsum([len(ls) for ls in self.labels])]).astype(np.int64)

    def copy(self) -> "EmbeddingStore":
        return EmbeddingStore(self.emb.copy(), self.ctx.copy(), self.labels)

    def reindexed_to(self, g: TripartiteGraph) -> "EmbeddingStore":
        """Rows gathered into the graph's layout, each node's by its party and label."""
        keys = [(p, lab) for p in range(N_PARTIES) for lab in self.labels[p]]
        own = dict(zip(keys, itertools.count()))
        try:
            rows = np.array([own[p, lab] for p in range(N_PARTIES) for lab in g.labels[p]], dtype=np.int64)
        except KeyError as exc:
            raise EmbeddingFileError(f"graph node {exc.args[0][1]!r} has no embedding") from None
        return EmbeddingStore(self.emb[rows], self.ctx[rows], g.labels)


@dataclass
class LossReport:
    """The six objective components and their signed combination.

    ``implicit`` holds per-party sampled skip-gram negative log-likelihoods
    over a fixed seeded evaluation draw; ``explicit`` holds per-relation
    weighted reconstruction terms (KL up to a dropped constant). ``total``
    is the joint objective with the convention that training increases it.
    """

    implicit: tuple[float, float, float]
    explicit: tuple[float, float, float]
    total: float
    eval_pairs: tuple[int, int, int] = (0, 0, 0)

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.total))


def init_embeddings(g: TripartiteGraph, cfg: TrainConfig, rng: np.random.Generator) -> EmbeddingStore:
    """Uniform initialization in [-0.5/d, 0.5/d]: ``emb`` is drawn first, then ``ctx``."""
    cfg.validate()
    half = 0.5 / cfg.dim
    emb = rng.uniform(-half, half, size=(g.num_nodes, cfg.dim))
    ctx = rng.uniform(-half, half, size=(g.num_nodes, cfg.dim))
    return EmbeddingStore(emb, ctx, g.labels)


def _non_finite() -> NonFiniteError:
    return NonFiniteError(
        "parameter update produced a non-finite value; lower the learning rate "
        "or the explicit weights"
    )


def _check_finite(*rows: np.ndarray) -> None:
    for row in rows:
        if not np.isfinite(row).all():
            raise _non_finite()


def explicit_update(store: EmbeddingStore, e: Edge, cfg: TrainConfig, lr: float | None = None) -> None:
    """One SGD step on the edge's weighted reconstruction term.

    Ascends ``w * log sigmoid(u . v)`` for the two endpoint node embeddings;
    the step is scaled by the relation's beta weight times ``cfg.gamma``.
    """
    coef = cfg.gamma * cfg.beta[e.relation] * e.weight
    if coef == 0.0:
        return
    eta = cfg.lr if lr is None else lr
    first = store.offsets.tolist()
    u = store.emb[first[e.src.party] + e.src.index]
    v = store.emb[first[e.dst.party] + e.dst.index]
    g = eta * coef * (1.0 - sigmoid(float(u @ v)))
    du = g * v
    v += g * u
    u += du
    _check_finite(u, v)


def implicit_update(store: EmbeddingStore, center: Node, context: Node,
                    negatives: list[Node], alpha: float, cfg: TrainConfig,
                    lr: float | None = None) -> None:
    """One SGD step on a sampled skip-gram term for same-party nodes.

    Ascends ``log sigmoid(v . theta_ctx) + sum_neg log(1 - sigmoid(v . theta_z))``
    scaled by ``alpha``, updating the center's node embedding and every
    involved context vector.
    """
    party = center.party
    if context.party != party or any(z.party != party for z in negatives):
        raise ValueError("implicit update requires center, context and negatives of one party")
    if any(z.index == context.index for z in negatives):
        raise ValueError("context node must not appear among the negatives")
    if alpha == 0.0:
        return
    eta = cfg.lr if lr is None else lr
    first = int(store.offsets[party])
    v = store.emb[first + center.index]
    zs = first + np.array([context.index] + [z.index for z in negatives], dtype=np.int64)
    indicator = np.zeros(len(zs))
    indicator[0] = 1.0
    ctx_mat = store.ctx
    z_rows = ctx_mat[zs]
    s = _sigmoid_vec(z_rows @ v)
    coef = eta * alpha * (indicator - s)
    dv = coef @ z_rows
    np.add.at(ctx_mat, zs, coef[:, None] * v)
    v += dv
    _check_finite(v, ctx_mat[zs])


class _Scratch(NamedTuple):
    """The batch kernel's large buffers, made once per :func:`train` call.

    A batch writes its largest temporaries into leading views of these, so
    that they are not handed back to the OS and faulted in again batch after
    batch. ``gathered`` holds the ``ctx`` row of each context entry,
    ``grads`` each entry's gradient and ``cells`` the flat cell indices of
    :func:`_scatter_add`.
    """

    gathered: np.ndarray
    grads: np.ndarray
    cells: np.ndarray

    @classmethod
    def of(cls, cfg: TrainConfig, edges: int, partners: int) -> "_Scratch":
        """Buffers for batches of at most ``edges`` edges under ``cfg``.

        The ``2 * edges`` endpoints each make at most ``partners`` pairs:
        ``2 * cfg.window``, or fewer where no sequence is that long. A pair
        has ``1 + cfg.negatives`` context entries of ``cfg.dim`` values.
        ``cells`` also covers the embedding scatter's rows: both endpoints
        of every edge, then every centre.
        """
        pairs = 2 * edges * partners
        entries = pairs * (1 + cfg.negatives)
        return cls(np.empty((entries, cfg.dim)), np.empty((entries, cfg.dim)),
                   np.empty(max(entries, 2 * edges + pairs) * cfg.dim, dtype=np.int64))


# A batch's scatter rows grouped, as np.unique(rows, return_inverse=True)
# gives them: the distinct rows ``hit``, and each row's place in ``hit``.
_Grouping = tuple[np.ndarray, np.ndarray]


def _with_groupings(src: np.ndarray, dst: np.ndarray, edge_step: np.ndarray, centers: np.ndarray,
                    contexts: np.ndarray, pair_step: np.ndarray) -> tuple:
    """A batch's :func:`_minibatch_step` arguments: its draws, then its two scatters' groupings.

    These group the ``emb`` rows (both endpoints of every edge, then every
    centre) and the ``ctx`` rows (every context entry).
    """
    return (src, dst, edge_step, centers, contexts, pair_step,
            np.unique(np.concatenate([src, dst, centers]), return_inverse=True),
            np.unique(contexts.ravel(), return_inverse=True))


def _scatter_add(mat: np.ndarray, hit: np.ndarray, inverse: np.ndarray, vals: np.ndarray,
                 cells: np.ndarray) -> None:
    """``mat[hit[inverse]] += vals`` with a repeated row getting the sum of its values.

    The flat cell indices are written into the leading ``len(inverse) * dim``
    entries of ``cells``. Raises :class:`NonFiniteError`, leaving ``mat`` as
    it was, if a row hit would become non-finite.
    """
    dim = mat.shape[1]
    cells = cells[:len(inverse) * dim]
    np.add((inverse * dim)[:, None], np.arange(dim), out=cells.reshape(-1, dim))
    new = mat[hit]
    new += np.bincount(cells, weights=vals.ravel(), minlength=len(hit) * dim).reshape(-1, dim)
    if not np.isfinite(new).all():
        raise _non_finite()
    mat[hit] = new


def _minibatch_step(emb: np.ndarray, ctx: np.ndarray, src: np.ndarray, dst: np.ndarray,
                    edge_step: np.ndarray, centers: np.ndarray, contexts: np.ndarray,
                    pair_step: np.ndarray, emb_rows: _Grouping, ctx_rows: _Grouping,
                    scratch: _Scratch) -> None:
    """One minibatch of explicit and implicit updates on flat (nodes, dim) matrices.

    Edge ``k`` joins rows ``src[k]`` and ``dst[k]`` of ``emb`` at step
    ``edge_step[k]`` (lr times the edge's explicit coefficient), as
    :func:`explicit_update` does. Implicit pair ``k`` joins centre row
    ``centers[k]`` of ``emb`` with the rows ``contexts[k]`` of ``ctx``, the
    window partner first and then the negatives, at steps ``pair_step[k]``
    (lr times alpha), as :func:`implicit_update` does; an entry at step 0
    changes nothing. ``emb_rows`` and ``ctx_rows`` group the rows of the two
    scatters, as :func:`_with_groupings` makes them. All gradients are taken
    at the batch-start state and summed per row. The largest temporaries
    (the context rows, their gradients and the scatter's cell indices) go to
    ``scratch``, which must be large enough for the batch. Raises
    :class:`NonFiniteError` if a touched row would become non-finite.
    """
    u, v = emb[src], emb[dst]
    g = (edge_step * (1.0 - _sigmoid_vec(np.einsum("ij,ij->i", u, v))))[:, None]
    e = emb[centers]
    shape = (*contexts.shape, emb.shape[1])
    # mode="clip" lets take write into out directly; "raise" would buffer it
    c = ctx.take(contexts, axis=0, mode="clip", out=scratch.gathered[:contexts.size].reshape(shape))
    indicator = np.zeros(contexts.shape[1])
    indicator[0] = 1.0
    coef = pair_step * (indicator - _sigmoid_vec((c @ e[:, :, None])[:, :, 0]))
    _scatter_add(emb, *emb_rows, np.concatenate([g * v, g * u, (coef[:, None, :] @ c)[:, 0]]),
                 scratch.cells)
    grads = np.multiply(coef[:, :, None], e[:, None, :], out=scratch.grads[:contexts.size].reshape(shape))
    _scatter_add(ctx, *ctx_rows, grads, scratch.cells)


class _Occurrences(NamedTuple):
    """Every party's corpus as the engine draws from it, in global rows.

    ``nodes`` is the :class:`TypedCorpus`'s own, ``lo`` and ``hi`` are its
    windows; ``order`` is all positions grouped by node (corpus order within
    a node), and global row ``r``'s group is ``order[start[r]:start[r + 1]]``.
    """

    nodes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    order: np.ndarray
    start: np.ndarray

    @classmethod
    def of(cls, typed: TypedCorpus, g: TripartiteGraph, window: int) -> "_Occurrences":
        order = np.argsort(typed.nodes, kind="stable").astype(np.int32)
        start = np.concatenate([[0], np.cumsum(np.bincount(typed.nodes, minlength=g.num_nodes))])
        return cls(typed.nodes, *typed.windows(window), order, start)


def _context_rows(partners: np.ndarray, has: np.ndarray, negatives: np.ndarray):
    """Each pair's context row (the partner, then its negatives) and its live entries.

    ``negatives`` holds one row per pair whose centre ``has`` admissible
    negatives. A pair without them has only its partner live: its negative
    columns repeat the partner.
    """
    contexts = np.repeat(partners[:, None], 1 + negatives.shape[1], axis=1)
    contexts[has, 1:] = negatives
    return contexts, (np.arange(contexts.shape[1]) == 0) | has[:, None]


def _implicit_pairs(occ: _Occurrences, ends: np.ndarray, end_party: np.ndarray, end_batch: np.ndarray,
                    batches: int, step: np.ndarray, alpha: tuple[float, float, float],
                    sampler: NegativeSampler, ns: int, rng: np.random.Generator):
    """The implicit pairs of a chunk of ``batches`` consecutive batches, batch by batch.

    The chunk's endpoints are at global rows ``ends`` of parties
    ``end_party``, and ``end_batch`` numbers each endpoint's batch, in
    order. Batch by batch and party by party, for each party with alpha >
    0: each of its endpoints that occurs in the corpus draws one occurrence
    uniformly (one ``rng.integers`` call), and then the uniforms of the
    negatives of its pairs are drawn (one ``rng.random`` call, ``ns`` per
    pair whose centre has admissible negatives). Each partner in a drawn
    occurrence's window makes a pair. One window scan and one
    :meth:`NegativeSampler.invert` then serve every batch and party.
    Returns, for each batch, its pairs' centres and context rows (see
    :func:`_context_rows`), in global rows, party by party and in endpoint
    order within a party, and the entries' steps: the endpoint's ``step``
    times its party's alpha, 0 on the entries that are not live. These are
    the pairs the batch gets as a chunk of its own.
    """
    first = occ.start[ends]
    count = occ.start[ends + 1] - first
    party_alpha = np.asarray(alpha)[end_party]
    # the endpoints of trained parties that occur in the corpus, by batch, then party
    mine = np.flatnonzero((count > 0) & (party_alpha != 0.0))
    group = end_batch[mine] * N_PARTIES + end_party[mine]
    order = np.argsort(group, kind="stable")
    mine, group = mine[order], group[order]
    first, count, has = first[mine], count[mine], sampler.has_negatives_at(ends[mine])
    at = np.empty(len(mine), dtype=np.int32)
    uniforms = [np.empty((0, ns))]
    a = 0
    for grp, k in enumerate(np.bincount(group, minlength=batches * N_PARTIES).tolist()):
        if alpha[grp % N_PARTIES] == 0.0:
            continue
        b = a + k
        at[a:b] = occ.order[first[a:b] + rng.integers(count[a:b])]
        span = occ.hi[at[a:b]] - occ.lo[at[a:b]] - 1
        uniforms.append(rng.random((int(span[has[a:b]].sum()), ns)))
        a = b
    uniforms = np.concatenate(uniforms)  # the pieces go before the inversion's temporaries come
    pick, partners = window_pairs(occ.lo[at], occ.hi[at], at=at)
    centers, has = ends[mine][pick], has[pick]
    contexts, live = _context_rows(occ.nodes[partners], has, sampler.invert(centers[has], uniforms))
    weight = party_alpha[mine] * step[mine]
    cuts = (group[pick] // N_PARTIES).searchsorted(np.arange(1, batches))
    return list(zip(np.split(centers, cuts), np.split(contexts, cuts),
                    np.split(weight[pick][:, None] * live, cuts)))


def _explicit_loss(store: EmbeddingStore, g: TripartiteGraph) -> tuple[float, float, float]:
    out = []
    for r, (a, b) in enumerate(RELATIONS):
        if len(g.edge_wt[r]) == 0:
            out.append(0.0)
            continue
        src, dst = g.edge_src[r] + g.offsets[a], g.edge_dst[r] + g.offsets[b]
        dots = np.empty(len(src))
        for lo in range(0, len(src), _LOSS_CHUNK):
            hi = lo + _LOSS_CHUNK
            dots[lo:hi] = np.einsum("ij,ij->i", store.emb[src[lo:hi]], store.emb[dst[lo:hi]])
        out.append(float(-(g.edge_wt[r] * _log_sigmoid(dots)).sum()))
    return tuple(out)


# Per party: the loss draw's centres, context rows and live entries, in the
# form of a training batch (see _context_rows), in global rows.
_LossSample = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _loss_sample(nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray, offsets: np.ndarray,
                 sampler: NegativeSampler, cfg: TrainConfig) -> _LossSample:
    """The seeded draw of window pairs and negatives that the implicit loss runs over.

    Reads a :class:`TypedCorpus`'s ``nodes`` and windows ``lo`` and ``hi``;
    each party draws from its own positions, with a generator of its own.
    """
    sample: _LossSample = []
    bounds = [int(np.count_nonzero(nodes < off)) for off in offsets]  # the parties lie end to end
    for p, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        rng = np.random.default_rng([cfg.seed, _LOSS_STREAM, p])
        # window_pairs reads windows in the party's own positions
        lo_p, hi_p = lo[a:b] - a, hi[a:b] - a
        total = int((hi_p - lo_p - 1).sum())
        capped = total > _LOSS_EVAL_MAX_PAIRS
        ranks = rng.integers(total, size=_LOSS_EVAL_MAX_PAIRS) if capped else None
        centers, partners = (nodes[a:b][pos] for pos in window_pairs(lo_p, hi_p, ranks))
        has = sampler.has_negatives_at(centers)
        negatives = sampler.invert(centers[has], rng.random((int(has.sum()), cfg.negatives)))
        sample.append((centers, *_context_rows(partners, has, negatives)))
    return sample


def _loss_on_sample(store: EmbeddingStore, g: TripartiteGraph, sample: _LossSample,
                    cfg: TrainConfig) -> LossReport:
    explicit = _explicit_loss(store, g)
    implicit = []
    for centers, contexts, live in sample:
        sign = np.where(np.arange(contexts.shape[1]) == 0, 1.0, -1.0)  # partner +, negatives -
        rows = max(1, _LOSS_CHUNK // contexts.shape[1])
        nll = 0.0
        for lo in range(0, len(centers), rows):
            hi = lo + rows
            dots = np.einsum("ijk,ik->ij", store.ctx[contexts[lo:hi]], store.emb[centers[lo:hi]])
            nll -= float(_log_sigmoid(sign * dots)[live[lo:hi]].sum())
        implicit.append(nll)
    total = -(sum(a * o for a, o in zip(cfg.alpha, implicit))
              + sum(b * o for b, o in zip(cfg.beta, explicit)))
    return LossReport(tuple(implicit), tuple(explicit), total,
                      tuple(len(centers) for centers, _, _ in sample))


def compute_loss(store: EmbeddingStore, g: TripartiteGraph, typed: TypedCorpus,
                 sampler: NegativeSampler, cfg: TrainConfig) -> LossReport:
    """Evaluate the six objective components on a fixed seeded draw.

    Explicit terms run over every stored edge. Implicit terms run over up to
    a capped number of window pairs per party, selected (with negatives) by
    an RNG derived from the seed alone, so repeated calls measure the same
    sample and epoch-to-epoch changes are attributable to the parameters.
    """
    sample = _loss_sample(typed.nodes, *typed.windows(cfg.window), g.offsets, sampler, cfg)
    return _loss_on_sample(store, g, sample, cfg)


def _chunks(g: TripartiteGraph, occ: _Occurrences, sampler: NegativeSampler, cfg: TrainConfig,
            rng: np.random.Generator) -> Iterator[list[tuple[np.ndarray, ...]]]:
    """The arguments of every batch's :func:`_minibatch_step` call but the parameters, a chunk at a time.

    Each epoch permutes the edges of all relations (one ``rng.permutation``
    call) and takes them ``_BATCH_EDGES`` at a time, and ``_CHUNK_BATCHES``
    consecutive batches make a chunk, the last chunk of an epoch perhaps
    fewer. A chunk's implicit pairs come from one :func:`_implicit_pairs`
    pass. With ``cfg.lr_decay`` the step decays linearly per edge, counted
    in permuted order. Yields each chunk as a list of its batches'
    arguments, as :func:`_with_groupings` gives them. Nothing here reads
    ``emb`` or ``ctx``.
    """
    edges = g.edge_rows
    # every edge of every relation: its endpoints' global rows and parties,
    # and its explicit coefficient
    ends = np.stack([edges.src, edges.dst], axis=1).astype(np.int32)
    party = np.array(RELATIONS, dtype=np.int8)[edges.relation]
    coef = cfg.gamma * np.asarray(cfg.beta)[edges.relation] * edges.wt
    total_steps = max(1, cfg.epochs * len(coef))
    size = _CHUNK_BATCHES * _BATCH_EDGES
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(coef))
        for begin in range(0, len(order), size):
            chunk = order[begin:begin + size]
            lr = np.full(len(chunk), cfg.lr)
            if cfg.lr_decay:
                lr *= np.maximum(0.01, 1.0 - (step + np.arange(len(chunk))) / total_steps)
            step += len(chunk)
            cuts = np.arange(_BATCH_EDGES, len(chunk), _BATCH_EDGES)
            # the chunk's endpoints, edge by edge, with their batch and their edge's lr
            end_batch = np.repeat(np.arange(len(chunk)) // _BATCH_EDGES, 2)
            pairs = _implicit_pairs(occ, ends[chunk].ravel(), party[chunk].ravel(), end_batch,
                                    len(cuts) + 1, np.repeat(lr, 2), cfg.alpha, sampler,
                                    cfg.negatives, rng)
            explicit = zip(*(np.split(x, cuts) for x in (edges.src[chunk], edges.dst[chunk],
                                                         lr * coef[chunk])))
            yield [_with_groupings(*e, *i) for e, i in zip(explicit, pairs)]


class _Failure(NamedTuple):
    """An exception raised in the preparing child: its pickle (None if it has none), type and traceback."""

    pickled: bytes | None
    kind: str
    trace: str

    @classmethod
    def of(cls, exc: BaseException) -> "_Failure":
        try:
            pickled = pickle.dumps(exc)
        except Exception:
            pickled = None
        return cls(pickled, type(exc).__qualname__, "".join(traceback.format_exception(exc)))

    def exception(self) -> BaseException:
        """The child's exception if it pickles both ways, else a RuntimeError that names it."""
        try:
            return pickle.loads(self.pickled)
        except Exception:
            return RuntimeError(f"preparing the batches raised {self.kind} in a child process:\n{self.trace}")


def _send_chunks(chunks: Iterator, receive, send) -> None:
    """The child's work: send every chunk, then stop; or send the exception that stopped it."""
    receive.close()  # the caller's end: the pipe breaks, and this child ends, if the caller dies
    try:
        for chunk in chunks:
            send.send(chunk)
    except BrokenPipeError:  # no caller is left to tell
        pass
    except BaseException as exc:
        # not raised again: the caller raises it, and the child would only print it twice
        send.send(_Failure.of(exc))


@contextlib.contextmanager
def _prepared(chunks: Iterator) -> Iterator[Iterator]:
    """``chunks``, made in a forked child process where the ``fork`` start method exists.

    The child owns ``chunks`` and what it reads, which it shares with this
    process copy-on-write, and sends each chunk through a one-way pipe, so
    that it runs ahead of the caller as far as the pipe holds. An exception
    raised there is raised here by the iterator. Leaving the block kills
    and reaps the child. Without ``fork``, ``chunks`` runs on this thread.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        yield chunks
        return
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    with contextlib.suppress(AttributeError, OSError):  # a Linux call, refused above the system's limit
        import fcntl
        fcntl.fcntl(receive.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    child = fork.Process(target=_send_chunks, args=(chunks, receive, send), name="trine-batches", daemon=True)
    child.start()
    send.close()
    del chunks  # the child's copy is the one that runs

    def received():
        while True:
            try:
                item = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"the batch-preparing child process exited with code {child.exitcode} "
                                   "before sending every chunk") from None
            if isinstance(item, _Failure):
                raise item.exception()
            yield item

    try:
        yield received()
    finally:
        child.kill()
        child.join()
        receive.close()


def train(g: TripartiteGraph, metapaths: list[Metapath], cfg: TrainConfig,
          on_epoch: Callable[[int, LossReport], None] | None = None) -> EmbeddingStore:
    """Full training loop: walks, then per-epoch minibatch joint updates.

    Each epoch permutes the edges of all relations and takes them
    ``_BATCH_EDGES`` at a time. Every edge of a batch gives one explicit
    term. Each endpoint whose party has alpha > 0 and that occurs in its
    party's corpus draws one occurrence, and every partner in that
    occurrence's window gives one implicit term with ``cfg.negatives`` drawn
    negatives (none when the endpoint has no admissible negatives). A batch's
    gradients are all taken at the batch-start state and summed per row.
    With ``cfg.lr_decay`` the step decays linearly per edge, counted in
    permuted order. Stops early when the relative change of the monitored
    objective drops below ``cfg.tol``. If an update diverges, the last finite
    epoch checkpoint is returned.

    ``on_epoch`` is invoked with (epoch, LossReport) after the initial loss
    evaluation (epoch 0) and after every training epoch, on the calling
    thread. After epoch 0 the batches are prepared in a child process that
    lives only within the call (see the module docstring). An exception
    raised there reaches the caller with its type and message, or, if it
    does not pickle, as a RuntimeError that names its type and holds its
    traceback.
    """
    cfg.validate()
    if g.num_nodes == 0:
        raise EmptyGraphError("cannot train on an empty graph")
    if g.num_edges == 0:
        raise EmptyGraphError("cannot train on a graph with no edges")

    scores = hits(g)
    corpus = generate_corpus(g, metapaths, scores, cfg.min_walks, cfg.max_walks,
                             cfg.walk_scale, cfg.walk_length, cfg.seed)
    typed = filter_by_type(corpus)
    del corpus  # training reads only the typed corpus
    sampler = NegativeSampler.build(typed, g, cfg.power, cfg.window)
    occurrences = _Occurrences.of(typed, g, cfg.window)
    # the most window partners of one occurrence
    partners = min(2 * cfg.window, int(np.diff(typed.bounds).max(initial=1)) - 1)
    del typed  # the occurrences keep its nodes; its sequence bounds go

    store = init_embeddings(g, cfg, np.random.default_rng([cfg.seed, _INIT_STREAM]))
    emb, ctx = store.emb, store.ctx

    loss_sample = _loss_sample(occurrences.nodes, occurrences.lo, occurrences.hi, g.offsets,
                               sampler, cfg)
    prev = _loss_on_sample(store, g, loss_sample, cfg)
    if on_epoch is not None:
        on_epoch(0, prev)

    if cfg.epochs == 0:
        return store

    per_epoch = -(-g.num_edges // (_CHUNK_BATCHES * _BATCH_EDGES))
    with _prepared(_chunks(g, occurrences, sampler, cfg,
                           np.random.default_rng([cfg.seed, _TRAIN_STREAM]))) as chunks:
        # a return or an exception kills the child, with the chunks it has made
        del occurrences, sampler  # only the preparation reads them
        scratch = _Scratch.of(cfg, min(_BATCH_EDGES, g.num_edges), partners)
        checkpoint = (emb.copy(), ctx.copy())
        for epoch in range(1, cfg.epochs + 1):
            try:
                for batches in itertools.islice(chunks, per_epoch):
                    for batch in batches:
                        _minibatch_step(emb, ctx, *batch, scratch)
            except NonFiniteError as exc:
                log.error("training diverged in epoch %d (%s); returning last finite checkpoint", epoch, exc)
                return EmbeddingStore(*checkpoint, g.labels)
            loss = _loss_on_sample(store, g, loss_sample, cfg)
            if on_epoch is not None:
                on_epoch(epoch, loss)
            if not loss.finite:
                log.error("objective became non-finite in epoch %d; returning last finite checkpoint", epoch)
                return EmbeddingStore(*checkpoint, g.labels)
            rel_change = abs(loss.total - prev.total) / max(abs(prev.total), 1e-12)
            np.copyto(checkpoint[0], emb)
            np.copyto(checkpoint[1], ctx)
            prev = loss
            if rel_change < cfg.tol:
                log.info("converged after epoch %d (relative change %.3g)", epoch, rel_change)
                break
    return store


# -- persistence -----------------------------------------------------------------


def save_embeddings(store: EmbeddingStore, path, context_path=None) -> None:
    """Write embeddings as text: header ``<count> <dim>``, then label + values.

    Values are written with 9 significant digits. When ``context_path`` is
    given the context-vector matrices are written there in the same format.
    """
    _write_matrix_file(store.emb, store.labels, path)
    if context_path is not None:
        _write_matrix_file(store.ctx, store.labels, context_path)


def _write_matrix_file(mat: np.ndarray, labels: tuple[list[str], ...], path) -> None:
    line = "%s" + " %.9g" * mat.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mat.shape[0]} {mat.shape[1]}\n")
        for lab, row in zip(itertools.chain.from_iterable(labels), mat):
            fh.write(line % (lab, *row.tolist()))


def load_embeddings(path, schema: Schema, context_path=None) -> EmbeddingStore:
    """Read an embedding file (and optionally its context-vector companion).

    Node party comes from the label's type character. The file may list the
    parties in any order: the rows are stored party by party, each party's in
    file order, so a save/load round trip preserves row order. Without a
    context file the context vectors are zero.
    """
    labels, emb = _read_matrix_file(path, schema)
    if context_path is not None:
        ctx_labels, ctx = _read_matrix_file(context_path, schema)
        if ctx_labels != labels:
            raise EmbeddingFileError("context file lists different nodes than the embedding file")
        if ctx.shape[1] != emb.shape[1]:
            raise EmbeddingFileError(f"context file has dim {ctx.shape[1]}, "
                                     f"the embedding file {emb.shape[1]}")
    else:
        ctx = np.zeros_like(emb)
    return EmbeddingStore(emb, ctx, labels)


def _read_matrix_file(path, schema: Schema):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFileError(f"bad header {header!r}, expected '<count> <dim>'", 1)
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFileError(f"bad header {header!r}", 1) from None
        if count < 0 or dim < 1:
            raise EmbeddingFileError(f"bad header {header!r}, expected count >= 0 and dim >= 1", 1)
        labels: tuple[list[str], ...] = ([], [], [])
        parties: dict[str, int] = {}  # each label's party, in file order
        blocks: list[np.ndarray] = []
        rows = ((line_no, line) for line_no, raw in enumerate(fh, start=2) if (line := raw.strip()))
        while chunk := list(itertools.islice(rows, _READ_CHUNK)):
            blocks.append(_read_rows(chunk, dim, schema, labels, parties))
        if len(parties) != count:
            raise EmbeddingFileError(f"header declares {count} rows but file has {len(parties)}")
    values = np.concatenate(blocks) if blocks else np.zeros((0, dim))
    party_of = np.fromiter(parties.values(), dtype=np.int64, count=len(parties))
    return labels, values[np.argsort(party_of, kind="stable")]


def _read_rows(chunk: list[tuple[int, str]], dim: int, schema: Schema,
               labels: tuple[list[str], ...], parties: dict[str, int]) -> np.ndarray:
    """Values of numbered non-empty lines ``label v1 .. v_dim``; adds their labels and parties.

    numpy parses the chunk's values in one call. Where that fails or finds
    another field count, the lines are parsed one by one as ``float()``
    parses them, which raises at the first faulty line.
    """
    try:
        # the label column is read by split() below
        table = np.loadtxt([line for _, line in chunk], dtype=np.float64, comments=None,
                           converters={0: lambda label: 0.0}, ndmin=2)
    except ValueError:
        table = None
    if table is not None and table.shape[1] == dim + 1:
        values = table[:, 1:]
    else:
        values = np.array([_line_values(line, line_no, dim, schema) for line_no, line in chunk],
                          dtype=np.float64).reshape(len(chunk), dim)
    for line_no, line in chunk:
        label = line.split(None, 1)[0]
        if label in parties:
            raise EmbeddingFileError(f"label {label!r} listed twice", line_no)
        party = schema.party_of_label(label)
        labels[party].append(label)
        parties[label] = party
    return values


def _line_values(line: str, line_no: int, dim: int, schema: Schema) -> list[float]:
    fields = line.split()
    if len(fields) != dim + 1:
        raise EmbeddingFileError(f"expected a label and {dim} values, got {len(fields)} fields", line_no)
    schema.party_of_label(fields[0])
    try:
        return [float(x) for x in fields[1:]]
    except ValueError:
        raise EmbeddingFileError("non-numeric embedding value", line_no) from None


def default_metapaths() -> list[Metapath]:
    """The default scheme pair: T1-T2-T3-T2-T1 and T3-T2-T1-T2-T3."""
    return [Metapath((0, 1, 2, 1, 0)), Metapath((2, 1, 0, 1, 2))]
