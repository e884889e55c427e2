"""Metapath-guided random-walk corpus generation and per-type filtering."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .centrality import CentralityScores, walk_budget
from .graph import N_PARTIES, Metapath, Node, StackedAdjacency, TripartiteGraph

log = logging.getLogger(__name__)

# Stream tag separating walk randomness from other seeded consumers.
_WALK_STREAM = 101

# Walks advanced together; bounds the random words and step scratch held at once.
_WALK_BLOCK = 8_192


@dataclass
class WalkCorpus:
    """Walks as arrays, plus provenance (which metapath produced each walk).

    Row ``k`` of ``nodes`` (int32, one row per walk) holds walk ``k``'s node
    indices in its first ``lengths[k]`` columns and -1 after them.
    ``metapath_ids[k]`` is the metapath that produced walk ``k``, and
    ``types[m, step]`` (int8) is metapath ``m``'s party at position ``step``,
    so walk ``k``'s node at ``step`` is
    ``Node(types[metapath_ids[k], step], nodes[k, step])``.
    """

    nodes: np.ndarray
    lengths: np.ndarray
    metapath_ids: np.ndarray
    types: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    @classmethod
    def from_walks(cls, walks: list[list[Node]], metapath_ids: list[int],
                   metapaths: list[Metapath]) -> "WalkCorpus":
        """Build from lists of nodes; ValueError unless each walk follows its metapath's types."""
        width = max((len(w) for w in walks), default=0)
        types = _type_table(metapaths, width)
        nodes = np.full((len(walks), width), -1, dtype=np.int32)
        for k, (walk, m) in enumerate(zip(walks, metapath_ids)):
            if [n.party for n in walk] != types[m, :len(walk)].tolist():
                raise ValueError(f"walk {k} does not follow the types of metapath {m}")
            nodes[k, :len(walk)] = [n.index for n in walk]
        return cls(nodes, np.array([len(w) for w in walks], dtype=np.int32),
                   np.array(metapath_ids, dtype=np.int32), types)

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
    """Per-party homogeneous sequences of node indices, order preserved, in CSR form.

    For each party, ``nodes[p]`` (int32) concatenates the party's non-empty
    subsequences of the walks, in walk order, and ``offsets[p]`` (int64, one
    more entry than there are sequences) delimits them: sequence ``s`` is
    ``nodes[p][offsets[p][s]:offsets[p][s + 1]]``. A position in ``nodes[p]``
    is an occurrence; every derived structure (window pairs, occurrence
    lookup, exclusion buckets) is indexed by these flat positions.
    """

    nodes: tuple[np.ndarray, np.ndarray, np.ndarray]
    offsets: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def from_sequences(cls, by_party) -> "TypedCorpus":
        """Build from three lists of per-party sequences (empty sequences are dropped)."""
        nodes, offsets = [], []
        for seqs in by_party:
            seqs = [s for s in seqs if len(s)]
            nodes.append(np.array([i for s in seqs for i in s], dtype=np.int32))
            offsets.append(np.cumsum([0] + [len(s) for s in seqs], dtype=np.int64))
        return cls(tuple(nodes), tuple(offsets))

    def sequences(self, party: int) -> list[list[int]]:
        nodes, offsets = self.nodes[party], self.offsets[party]
        return [nodes[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]

    def occurrence_counts(self, party: int, n: int) -> np.ndarray:
        return np.bincount(self.nodes[party], minlength=n)

    def windows(self, party: int, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Each occurrence's context window ``[lo, hi)`` of flat positions.

        The window spans ``window`` positions either side of the occurrence,
        clipped to its own sequence; it includes the occurrence itself.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        offsets = self.offsets[party]
        lens = np.diff(offsets)
        pos = np.arange(offsets[-1])
        lo = np.maximum(pos - window, np.repeat(offsets[:-1], lens))
        hi = np.minimum(pos + window + 1, np.repeat(offsets[1:], lens))
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


def _words(keys: list[list[int]], n_words: int) -> np.ndarray:
    """The first ``2 * n_words`` 32-bit draws of each key's ``default_rng`` stream (uint64).

    numpy serves a 64-bit word's low half first, then its high half.
    """
    raw = np.empty((len(keys), n_words), dtype=np.uint64)
    if n_words:
        for k, key in enumerate(keys):
            raw[k] = np.random.default_rng(key).bit_generator.random_raw(n_words)
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=2).reshape(len(keys), 2 * n_words)


def _lemire(x: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``Generator.integers(deg)`` from one 32-bit draw ``x`` (uint64 arrays, deg >= 2).

    Returns the pick ``(x * deg) >> 32`` and whether numpy rejects ``x``
    and draws again.
    """
    m = x * deg
    return m >> 32, (m & 0xFFFFFFFF) < (np.uint64(1 << 32) - deg) % deg


def _advance(adj: StackedAdjacency, base: np.ndarray, limit: np.ndarray, mid: np.ndarray,
             words: np.ndarray, nodes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Advance a block of walks together, one step at a time, from ``nodes[:, 0]``.

    Walk ``k`` follows metapath ``mid[k]`` up to ``limit[mid[k]]`` nodes, and
    at ``step`` it moves along the adjacency whose rows start at
    ``base[mid[k], step]``. ``words[k]`` holds its stream's 32-bit draws, of
    which each step takes what ``metapath_walk``'s ``integers`` call takes:
    none at a node with one neighbor, else one. Fills ``nodes`` and
    ``lengths`` in place and returns the walks with a draw that numpy would
    reject; they are left part-way, to be walked again.
    """
    cur = nodes[:, 0].astype(np.int64)
    used = np.zeros(len(nodes), dtype=np.int64)
    rows = np.arange(len(nodes))
    rejected = []
    for step in range(1, nodes.shape[1]):
        rows = rows[limit[mid[rows]] > step]
        at = base[mid[rows], step] + cur[rows]
        first = adj.indptr[at]
        deg = adj.indptr[at + 1] - first
        rows, first, deg = rows[deg > 0], first[deg > 0], deg[deg > 0].astype(np.uint64)
        if not len(rows):
            break
        pick = np.zeros(len(rows), dtype=np.uint64)
        many = np.flatnonzero(deg > 1)
        drawn = rows[many]
        pick[many], bad = _lemire(words[drawn, used[drawn]], deg[many])
        used[drawn] += 1
        if bad.any():
            rejected.append(drawn[bad])
            keep = np.ones(len(rows), dtype=bool)
            keep[many[bad]] = False
            rows, first, pick = rows[keep], first[keep], pick[keep]
        cur[rows] = adj.nbrs[first + pick.astype(np.int64)]
        nodes[rows, step] = cur[rows]
        lengths[rows] = step + 1
    return np.concatenate(rejected) if rejected else rows[:0]


def generate_corpus(g: TripartiteGraph, metapaths: list[Metapath], scores: CentralityScores,
                    min_walks: int, max_walks: int, scale: float | None, length: int,
                    seed: int) -> WalkCorpus:
    """Launch centrality-budgeted walks from every node, per matching metapath.

    Walks are laid out by start party, start index, metapath and walk index.
    Each (node, metapath, walk index) triple gets its own RNG stream derived
    from the global seed, so the corpus is reproducible and independent of
    generation order. Blocks of ``_WALK_BLOCK`` walks advance together, each
    walk taking the draws ``metapath_walk`` takes from its stream, so the
    walks are ``metapath_walk``'s; a walk with a draw that numpy rejects is
    walked again by ``metapath_walk``. ``scale=None`` resolves to the
    graph's node count, so budgets stay within min/max for typical score
    magnitudes.
    """
    if not metapaths:
        raise ValueError("need at least one metapath")
    if length < 1:
        raise ValueError(f"walk length must be >= 1, got {length}")
    if scale is None:
        scale = float(g.num_nodes)
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
    keys = []
    for party in range(N_PARTIES):
        budget = walk_budget(scores.authority[g.offsets[party]:g.offsets[party + 1]], min_walks,
                             max_walks, scale)
        ms = np.array(starts_by_party[party], dtype=np.int64)
        per_node = budget * len(ms)
        index = np.repeat(np.arange(g.counts[party]), per_node)
        # j ranks a walk among its start node's: metapath ms[j // budget], walk index j % budget
        j = np.arange(len(index)) - np.repeat(np.cumsum(per_node) - per_node, per_node)
        b = budget[index]
        keys.append((ms[j // b], np.full(len(index), party), index, j % b))
    mid, party, index, w = (np.concatenate(k) for k in zip(*keys))

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
    for lo in range(0, len(mid), _WALK_BLOCK):
        block = slice(lo, lo + _WALK_BLOCK)
        block_keys = [[seed, _WALK_STREAM, *k] for k in zip(
            mid[block].tolist(), party[block].tolist(), index[block].tolist(), w[block].tolist())]
        # a walk takes at most width - 1 draws
        words = _words(block_keys, width // 2)
        for k in _advance(g.adj, base, limit, mid[block], words, nodes[block], lengths[block]).tolist():
            _, _, m, p, i, _ = block_keys[k]
            walk = metapath_walk(g, Node(p, i), metapaths[m], length,
                                 np.random.default_rng(block_keys[k]))
            # the walk extends its part-way prefix, so the -1 padding past it stays
            nodes[lo + k, :len(walk)] = [n.index for n in walk]
            lengths[lo + k] = len(walk)
    return WalkCorpus(nodes, lengths, mid.astype(np.int32), types)


def filter_by_type(corpus: WalkCorpus) -> TypedCorpus:
    """Split every walk into per-party subsequences, dropping empty ones."""
    parties, inside = corpus._parties_inside()
    nodes, offsets = [], []
    for p in range(N_PARTIES):
        mine = inside & (parties == p)
        per_walk = mine.sum(axis=1)
        nodes.append(corpus.nodes[mine])
        offsets.append(np.concatenate([[0], np.cumsum(per_walk[per_walk > 0])]).astype(np.int64))
    return TypedCorpus(tuple(nodes), tuple(offsets))


def write_walks(corpus: WalkCorpus, g: TripartiteGraph, path) -> None:
    """Write one walk per line as space-separated node labels."""
    parties, inside = corpus._parties_inside()
    labels = np.array([lab for p in range(N_PARTIES) for lab in g.labels[p]], dtype=object)
    tokens = labels[g.offsets[parties[inside]] + corpus.nodes[inside]].tolist()
    ends = np.cumsum(corpus.lengths).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for lo, hi in zip([0] + ends[:-1], ends):
            fh.write(" ".join(tokens[lo:hi]))
            fh.write("\n")
