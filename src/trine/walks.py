"""Metapath-guided random-walk corpus generation and per-type filtering.

Walks draw from counter-based streams (Salmon et al., SC 2011) that end in
SplitMix64's output function (Steele, Lea & Flood, OOPSLA 2014).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .centrality import CentralityScores, walk_budget
from .graph import N_PARTIES, Metapath, Node, TripartiteGraph

log = logging.getLogger(__name__)

# Stream tag separating walk randomness from other seeded consumers.
_WALK_STREAM = 101

# SplitMix64's increment, 2**64 / golden ratio, and the mask of a 64-bit limb.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 2**64 - 1

# Walks whose labels write_walks makes and writes at a time.
_WRITE_BLOCK = 4096


@dataclass
class WalkCorpus:
    """Walks as arrays, plus provenance (which metapath produced each walk).

    Row ``k`` of ``nodes`` (int32, one row per walk) holds walk ``k``'s node
    indices in its first ``lengths[k]`` columns and -1 after them.
    ``metapath_ids[k]`` is the metapath that produced walk ``k``, and
    ``types[m, step]`` (int8) is metapath ``m``'s party at position ``step``,
    so walk ``k``'s node at ``step`` is
    ``Node(types[metapath_ids[k], step], nodes[k, step])``. ``offsets`` are
    the graph's row offsets: that node's global row is ``offsets[party] + index``.
    """

    nodes: np.ndarray
    lengths: np.ndarray
    metapath_ids: np.ndarray
    types: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def walks(self) -> tuple[tuple[Node, ...], ...]:
        """Each walk as a tuple of nodes, a read-only view built from the arrays on first access."""
        parties = self.types[self.metapath_ids].tolist()
        return tuple(tuple(map(Node, p[:n], i[:n]))
                     for p, i, n in zip(parties, self.nodes.tolist(), self.lengths.tolist()))

    def _parties_inside(self) -> tuple[np.ndarray, np.ndarray]:
        """Per cell of ``nodes``: its party and whether it lies inside its walk."""
        inside = np.arange(self.nodes.shape[1]) < self.lengths[:, None]
        return self.types[self.metapath_ids], inside


@dataclass
class TypedCorpus:
    """The walks' per-party homogeneous sequences, order preserved, in global rows and CSR form.

    ``nodes`` (int32) holds global rows (``g.offsets[p] + i`` for node ``i``
    of party ``p``, the layout of the trainer's ``emb`` and ``ctx``): party
    0's non-empty subsequences of the walks first, in walk order, then party
    1's, then party 2's. ``bounds`` (int64, one more entry than there are
    sequences) delimits them: sequence ``s`` is
    ``nodes[bounds[s]:bounds[s + 1]]``. A position in ``nodes`` is an
    occurrence. The sampler build, the trainer's occurrence index and the
    loss draw all read this one array.
    """

    nodes: np.ndarray
    bounds: np.ndarray

    def windows(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Each occurrence's context window ``[lo, hi)`` of positions, as int32 arrays.

        The window spans ``window`` positions either side of the occurrence,
        clipped to its own sequence; it includes the occurrence itself.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        lens = np.diff(self.bounds)
        # a window past the longest sequence is the same window, and keeps the sums in int32
        window = min(window, int(lens.max(initial=0)))
        lo = np.arange(len(self.nodes), dtype=np.int32)
        hi = lo + (window + 1)
        lo -= window
        np.maximum(lo, np.repeat(self.bounds[:-1].astype(np.int32), lens), out=lo)
        np.minimum(hi, np.repeat(self.bounds[1:].astype(np.int32), lens), out=hi)
        return lo, hi


def window_pairs(lo: np.ndarray, hi: np.ndarray, ranks: np.ndarray | None = None,
                 at: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions (center, context) of ordered window pairs.

    Pairs are ranked in (sequence, i, j) scan order: by the center's flat
    position, then by the context's. ``ranks`` selects pairs by rank; by
    default every pair is returned. By default window ``k`` is the window of
    flat position ``k``; ``at`` passes windows of chosen occurrences instead,
    ``at[k]`` being window ``k``'s own position, and ``center`` then indexes
    the windows.
    """
    span = hi - lo - 1
    ends = np.cumsum(span)
    if ranks is None:
        center = np.repeat(np.arange(len(span)), span)
        ranks = np.arange(len(center))
    else:
        center = np.searchsorted(ends, ranks, side="right")
    context = lo[center] + ranks - (ends[center] - span[center])
    context += context >= (center if at is None else at[center])
    return center, context


def metapath_walk(g: TripartiteGraph, start: Node, path: Metapath, length: int,
                  rng: np.random.Generator) -> list[Node]:
    """One truncated random walk following the metapath's type pattern.

    At each step the next node is drawn uniformly from the current node's
    neighbors of the type the metapath prescribes next; the walk stops
    early when no such neighbor exists.
    """
    if not g.has_node(start):
        raise ValueError(f"start node {start} not in graph")
    if start.party != path.start:
        raise ValueError(
            f"start node party {start.party} does not match metapath start type {path.start}"
        )
    if length < 1:
        raise ValueError(f"walk length must be >= 1, got {length}")
    walk = [start]
    cur = start
    for step in range(1, length):
        nxt_type = path.type_at(step)
        if nxt_type == cur.party:
            break
        idx, _ = g.neighbor_arrays(cur.party, cur.index, nxt_type)
        if len(idx) == 0:
            break
        cur = Node(nxt_type, int(idx[rng.integers(len(idx))]))
        walk.append(cur)
    return walk


def _type_table(metapaths: list[Metapath], width: int) -> np.ndarray:
    """``types[m, step]``: metapath ``m``'s party at walk position ``step``."""
    return np.array([[path.type_at(step) for step in range(width)] for path in metapaths],
                    dtype=np.int8).reshape(len(metapaths), width)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on a uint64 array (Steele, Lea & Flood, 2014)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _walk_keys(seed: int, *fields: np.ndarray) -> np.ndarray:
    """Each walk's stream key (uint64), hashed from the seed, ``_WALK_STREAM`` and ``fields``.

    A seed of any size counts as its number of 64-bit limbs, then the limbs,
    lowest first; ``fields`` are arrays of non-negative ints, one entry per walk.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    limbs = [seed >> shift & _MASK64 for shift in range(0, max(seed.bit_length(), 1), 64)]
    # a one-element array, not a numpy scalar: scalar uint64 overflow warns
    key = np.zeros(1, dtype=np.uint64)
    for v in (len(limbs), *limbs, _WALK_STREAM, *fields):
        key = _mix((key ^ np.asarray(v, dtype=np.uint64)) + _GOLDEN)
    return key


def _draw(keys: np.ndarray, step: int) -> np.ndarray:
    """The 64-bit draw of each stream at ``step``: SplitMix64's ``step``-th output from ``keys``."""
    return _mix(keys + step * _GOLDEN % 2**64)


def _pick(x: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """``floor(x * deg / 2**64)``, exactly, for uint64 draws ``x`` and degrees ``deg < 2**32``."""
    deg = deg.astype(np.uint64)
    return ((x >> 32) * deg + ((x & 0xFFFFFFFF) * deg >> 32)) >> 32


def generate_corpus(g: TripartiteGraph, metapaths: list[Metapath], scores: CentralityScores,
                    min_walks: int, max_walks: int, scale: float | None, length: int,
                    seed: int) -> WalkCorpus:
    """Launch centrality-budgeted walks from every node, per matching metapath.

    Walks are laid out by start party, start index, metapath and walk index.
    Each walk draws from its own counter-based stream: the walk with
    metapath ``m``, start ``(party, index)`` and walk index ``w`` has the key
    ``_walk_keys(seed, m, party, index, w)``, and at ``step`` it moves to
    neighbor ``floor(x * deg / 2**64)`` of the ``deg`` its metapath admits,
    ``x`` being SplitMix64's ``step``-th output from that key. So the corpus
    is reproducible and independent of generation order; all walks advance
    together, one step at a time. A walk stops at a dead end or where its
    metapath would repeat a party. ``scale=None`` resolves to the graph's
    node count, so budgets stay within min/max for typical score magnitudes
    (to 1 on a graph without nodes, which starts no walks).
    """
    if not metapaths:
        raise ValueError("need at least one metapath")
    if length < 1:
        raise ValueError(f"walk length must be >= 1, got {length}")
    if scale is None:
        scale = float(max(g.num_nodes, 1))
    starts_by_party: list[list[int]] = [[] for _ in range(N_PARTIES)]
    for m, path in enumerate(metapaths):
        starts_by_party[path.start].append(m)
    visited = {t for path in metapaths for t in path.types}
    uncovered = [p for p in range(N_PARTIES) if p not in visited and g.counts[p] > 0]
    if uncovered:
        names = ", ".join(g.schema.party_names[p] for p in uncovered)
        log.warning("no metapath starts at or visits party type(s) %s; "
                    "those nodes get no walk context", names)

    # Each walk's (metapath, start party, start index, walk index), in corpus order.
    fields = []
    for party in range(N_PARTIES):
        budget = walk_budget(scores.authority[g.offsets[party]:g.offsets[party + 1]], min_walks,
                             max_walks, scale)
        ms = np.array(starts_by_party[party], dtype=np.int64)
        per_node = budget * len(ms)
        index = np.repeat(np.arange(g.counts[party]), per_node)
        # j ranks a walk among its start node's: metapath ms[j // budget], walk index j % budget
        j = np.arange(len(index)) - np.repeat(np.cumsum(per_node) - per_node, per_node)
        b = budget[index]
        fields.append((ms[j // b], np.full(len(index), party), index, j % b))
    mid, party, index, w = (np.concatenate(f) for f in zip(*fields))

    # A walk ends where its metapath would repeat a party (across the pattern's wrap-around).
    types = _type_table(metapaths, length)
    ends = np.concatenate([types[:, 1:] == types[:, :-1],
                           np.ones((len(metapaths), 1), dtype=bool)], axis=1)
    limit = ends.argmax(axis=1) + 1
    width = int(limit.max())
    types = types[:, :width]
    base = np.zeros((len(metapaths), width), dtype=np.int64)
    base[:, 1:] = g.adj.base[types[:, :-1], types[:, 1:]]

    nodes = np.full((len(mid), width), -1, dtype=np.int32)
    nodes[:, 0] = index
    lengths = np.ones(len(mid), dtype=np.int32)
    keys = _walk_keys(seed, mid, party, index, w)
    rows = np.arange(len(mid))
    for step in range(1, width):
        rows = rows[limit[mid[rows]] > step]
        at = base[mid[rows], step] + nodes[rows, step - 1]
        first = g.adj.indptr[at]
        deg = g.adj.indptr[at + 1] - first
        rows, first, deg = rows[deg > 0], first[deg > 0], deg[deg > 0]
        if not len(rows):
            break
        nodes[rows, step] = g.adj.nbrs[first + _pick(_draw(keys[rows], step), deg).astype(np.int64)]
        lengths[rows] = step + 1
    return WalkCorpus(nodes, lengths, mid.astype(np.int32), types, g.offsets)


def filter_by_type(corpus: WalkCorpus) -> TypedCorpus:
    """Split every walk into per-party subsequences in global rows, dropping empty ones."""
    parties, inside = corpus._parties_inside()
    nodes = np.empty(np.count_nonzero(inside), dtype=np.int32)
    lengths, a = [], 0
    for p in range(N_PARTIES):
        mine = inside & (parties == p)
        per_walk = mine.sum(axis=1)
        lengths.append(per_walk[per_walk > 0])
        b = a + int(lengths[-1].sum())
        nodes[a:b] = corpus.nodes[mine]
        nodes[a:b] += int(corpus.offsets[p])
        a = b
    return TypedCorpus(nodes, np.cumsum(np.concatenate([[0], *lengths]), dtype=np.int64))


def write_walks(corpus: WalkCorpus, g: TripartiteGraph, path) -> None:
    """Write one walk per line as space-separated node labels.

    Labels are made ``_WRITE_BLOCK`` walks at a time, so a block's strings
    are the only ones held at once.
    """
    parties, inside = corpus._parties_inside()
    labels = np.array([lab for p in range(N_PARTIES) for lab in g.labels[p]], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(corpus.lengths), _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            cells = inside[block]
            tokens = labels[g.offsets[parties[block][cells]] + corpus.nodes[block][cells]].tolist()
            ends = np.cumsum(corpus.lengths[block]).tolist()
            fh.write("".join(" ".join(tokens[a:b]) + "\n" for a, b in zip([0] + ends[:-1], ends)))
