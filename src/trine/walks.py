"""Metapath-guided random-walk corpus generation and per-type filtering."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .centrality import CentralityScores, walk_budget
from .graph import N_PARTIES, Metapath, Node, TripartiteGraph

log = logging.getLogger(__name__)

# Stream tag separating walk randomness from other seeded consumers.
_WALK_STREAM = 101


@dataclass
class WalkCorpus:
    """Raw walks plus provenance (which metapath produced each walk)."""

    walks: list[list[Node]] = field(default_factory=list)
    metapath_ids: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.walks)


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


def generate_corpus(g: TripartiteGraph, metapaths: list[Metapath], scores: CentralityScores,
                    min_walks: int, max_walks: int, scale: float | None, length: int,
                    seed: int) -> WalkCorpus:
    """Launch centrality-budgeted walks from every node, per matching metapath.

    Each (node, metapath, walk index) triple gets its own RNG stream derived
    from the global seed, so the corpus is reproducible and independent of
    generation order. ``scale=None`` resolves to the graph's node count, so
    budgets stay within min/max for typical score magnitudes.
    """
    if not metapaths:
        raise ValueError("need at least one metapath")
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

    corpus = WalkCorpus()
    for party in range(N_PARTIES):
        for index in range(g.counts[party]):
            node = Node(party, index)
            budget = walk_budget(scores.of(node), min_walks, max_walks, scale)
            for m in starts_by_party[party]:
                path = metapaths[m]
                for w in range(budget):
                    rng = np.random.default_rng([seed, _WALK_STREAM, m, party, index, w])
                    corpus.walks.append(metapath_walk(g, node, path, length, rng))
                    corpus.metapath_ids.append(m)
    return corpus


def filter_by_type(corpus: WalkCorpus) -> TypedCorpus:
    """Split every walk into per-party subsequences, dropping empty ones."""
    nodes: tuple[list[int], ...] = ([], [], [])
    offsets: tuple[list[int], ...] = ([0], [0], [0])
    for walk in corpus.walks:
        for node in walk:
            nodes[node.party].append(node.index)
        for p in range(N_PARTIES):
            if len(nodes[p]) > offsets[p][-1]:
                offsets[p].append(len(nodes[p]))
    return TypedCorpus(tuple(np.array(n, dtype=np.int32) for n in nodes),
                       tuple(np.array(o, dtype=np.int64) for o in offsets))


def write_walks(corpus: WalkCorpus, g: TripartiteGraph, path) -> None:
    """Write one walk per line as space-separated node labels."""
    with open(path, "w", encoding="utf-8") as fh:
        for walk in corpus.walks:
            fh.write(" ".join(g.label_of(n) for n in walk))
            fh.write("\n")
