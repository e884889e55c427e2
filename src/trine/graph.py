"""Weighted tripartite graph: loading and neighbor queries.

Nodes belong to one of three parties (0, 1, 2). Edges only connect nodes
of different parties and are undirected. The three cross-party relations
are indexed 0: parties (0,1), 1: parties (1,2), 2: parties (0,2).

The graph owns the global node layout: node ``i`` of party ``p`` is global
row ``offsets[p] + i``, so party ``p`` holds rows ``offsets[p]:offsets[p + 1]``.
Embedding matrices, HITS scores and the global edge arrays all use it. The
graph also owns the one adjacency: the six cross-party CSR blocks stacked
in (a, b) order (01, 02, 10, 12, 20, 21). Block ``(a, b)`` starts at row
``base[a, b]``, and its row ``base[a, b] + i`` lists the ``b``-party
neighbors of node ``i`` of party ``a`` in index order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import EdgeListError, SchemaError

N_PARTIES = 3

# Relation index -> (party, party), with the lower party listed first.
RELATIONS: tuple[tuple[int, int], ...] = ((0, 1), (1, 2), (0, 2))

RELATION_OF_PAIR: dict[tuple[int, int], int] = {
    pair: r for r, (a, b) in enumerate(RELATIONS) for pair in ((a, b), (b, a))}

# Relation names as used on the command line ("13" = parties T1 and T3).
RELATION_NAMES: tuple[str, ...] = ("12", "23", "13")


class Node(NamedTuple):
    """A node identified by its party and a dense per-party index."""

    party: int
    index: int


class Edge(NamedTuple):
    """An undirected weighted edge between two parties."""

    src: Node
    dst: Node
    weight: float

    @property
    def relation(self) -> int:
        return RELATION_OF_PAIR[(self.src.party, self.dst.party)]


@dataclass(frozen=True)
class Schema:
    """Declares the three parties: label prefixes and human-readable names.

    Node labels in edge-list files are a single type character followed by
    an identifier, e.g. ``u17``. The type character determines the party.
    """

    type_chars: tuple[str, str, str] = ("u", "p", "c")
    party_names: tuple[str, str, str] = ("user", "page", "category")

    def __post_init__(self):
        if len(set(self.type_chars)) != N_PARTIES:
            raise SchemaError(f"type characters must be three distinct chars, got {self.type_chars!r}")
        for ch in self.type_chars:
            if len(ch) != 1:
                raise SchemaError(f"type character must be a single char, got {ch!r}")

    def party_of_label(self, label: str) -> int:
        if not label:
            raise SchemaError("empty node label")
        try:
            return self.type_chars.index(label[0])
        except ValueError:
            raise SchemaError(
                f"unknown type prefix {label[0]!r} in label {label!r}; expected one of {self.type_chars}"
            ) from None

    def metapath(self, pattern: str) -> "Metapath":
        """Parse a metapath given as a string of type characters, e.g. ``upcpu``."""
        try:
            types = tuple(self.type_chars.index(ch) for ch in pattern)
        except ValueError:
            raise SchemaError(
                f"metapath {pattern!r} contains characters outside {self.type_chars}"
            ) from None
        return Metapath(types)


DEFAULT_SCHEMA = Schema()


@dataclass(frozen=True)
class Metapath:
    """A cyclic sequence of party types guiding random-walk transitions.

    Walks longer than the scheme continue by repeating the pattern from
    index 1, so a palindromic scheme such as (0,1,2,1,0) cycles seamlessly.
    """

    types: tuple[int, ...]

    def __post_init__(self):
        if len(self.types) < 2:
            raise SchemaError("metapath needs at least two node types")
        for t in self.types:
            if t not in (0, 1, 2):
                raise SchemaError(f"metapath type {t} outside parties 0..2")
        for a, b in itertools.pairwise(self.types):
            if a == b:
                raise SchemaError("metapath repeats a node type in consecutive positions; no intra-party edges exist")

    def __len__(self) -> int:
        return len(self.types)

    @property
    def start(self) -> int:
        return self.types[0]

    def type_at(self, step: int) -> int:
        """Party expected at walk position ``step`` (0-based), cycling past the end."""
        if step == 0:
            return self.types[0]
        return self.types[1 + (step - 1) % (len(self.types) - 1)]

    def describe(self, schema: Schema = DEFAULT_SCHEMA) -> str:
        return "".join(schema.type_chars[t] for t in self.types)


class EdgeRows(NamedTuple):
    """Every edge in global rows, relation-major, each relation's edges in stored order."""

    relation: np.ndarray
    src: np.ndarray  # row of the endpoint in the relation's first party
    dst: np.ndarray
    wt: np.ndarray


class StackedAdjacency(NamedTuple):
    """The stacked blocks: row ``base[a, b] + i`` spans ``nbrs[indptr[row]:indptr[row + 1]]``, ``wts``."""

    base: np.ndarray
    indptr: np.ndarray
    nbrs: np.ndarray
    wts: np.ndarray


class TripartiteGraph:
    """Immutable weighted tripartite graph with symmetric adjacency.

    ``edges`` gives per relation ``(src, dst, wt)`` arrays in any order, where
    ``src`` indexes the relation's first party (ValueError if out of range);
    a repeated pair's weights are summed in input order. Every weight, and
    every such sum, must be finite and positive (:class:`EdgeListError` if
    not), so a built graph needs no later check. The graph stores
    them once, as ``edge_src`` / ``edge_dst`` / ``edge_wt`` sorted by (i, j)
    without repeats. From them it builds, once, the global layout
    ``offsets``, the same edges in global rows (``edge_rows``) and the
    stacked adjacency (``adj``). It is read-only once built.
    """

    def __init__(self, schema: Schema, labels: tuple[list[str], ...],
                 edges: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]):
        self.schema = schema
        self.labels = labels
        self.counts = tuple(len(ls) for ls in labels)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)]).astype(np.int64)
        self.edge_src: list[np.ndarray] = []
        self.edge_dst: list[np.ndarray] = []
        wts = []
        for r, (a, b) in enumerate(RELATIONS):
            src, dst = np.asarray(edges[r][0], dtype=np.int64), np.asarray(edges[r][1], dtype=np.int64)
            bad = np.flatnonzero((src < 0) | (src >= self.counts[a]) | (dst < 0) | (dst >= self.counts[b]))
            if len(bad):
                raise ValueError(f"edge ({r}, {src[bad[0]]}, {dst[bad[0]]}) outside party sizes {self.counts}")
            wt = np.asarray(edges[r][2], dtype=np.float64)
            bad = np.flatnonzero(~((wt > 0) & (wt < np.inf)))  # NaN fails wt > 0
            if len(bad):
                k = bad[0]
                kind = "non-positive" if wt[k] <= 0 else "non-finite"
                raise EdgeListError(f"edge {self._edge_label(r, src[k], dst[k])} has {kind} weight {wt[k]}")
            n_b = max(self.counts[b], 1)
            codes, inverse = np.unique(src * n_b + dst, return_inverse=True)
            # bincount sums each pair's weights in input order from 0.0 (int64 if empty)
            wt = np.bincount(inverse, weights=wt, minlength=len(codes)).astype(np.float64, copy=False)
            src, dst = np.divmod(codes, n_b)
            over = np.flatnonzero(wt == np.inf)
            if len(over):
                k = over[0]
                raise EdgeListError(f"the weights of edge {self._edge_label(r, src[k], dst[k])} "
                                    f"sum past float range")
            self.edge_src.append(src)
            self.edge_dst.append(dst)
            wts.append(wt)
        sizes = [len(w) for w in wts]
        wt = np.concatenate(wts)
        # each weight is stored once: the per-relation arrays are views of the global one
        self.edge_wt: list[np.ndarray] = np.split(wt, np.cumsum(sizes)[:-1])
        self.edge_rows = EdgeRows(
            np.repeat(np.arange(len(RELATIONS), dtype=np.int8), sizes),
            np.concatenate([self.edge_src[r] + self.offsets[a] for r, (a, _) in enumerate(RELATIONS)]),
            np.concatenate([self.edge_dst[r] + self.offsets[b] for r, (_, b) in enumerate(RELATIONS)]),
            wt)
        # blocks (a, b) in (0, 1), (0, 2), (1, 0), ... order, each row's neighbors sorted; the
        # forward blocks of the relations list dst as neighbors, the reverse blocks src
        blocks = list(itertools.permutations(range(N_PARTIES), 2))
        base = np.zeros((N_PARTIES, N_PARTIES), dtype=np.int64)
        base[tuple(zip(*blocks))] = np.cumsum([0] + [self.counts[a] for a, _ in blocks[:-1]])
        row = np.concatenate([base[a, b] + self.edge_src[r] for r, (a, b) in enumerate(RELATIONS)]
                             + [base[b, a] + self.edge_dst[r] for r, (a, b) in enumerate(RELATIONS)])
        nbrs = np.concatenate(self.edge_dst + self.edge_src)
        order = np.lexsort((nbrs, row))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=2 * self.num_nodes))])
        self.adj = StackedAdjacency(base, indptr.astype(np.int64), nbrs[order],
                                    np.concatenate([wt, wt])[order])

    def _edge_label(self, relation: int, i: int, j: int) -> str:
        a, b = RELATIONS[relation]
        return f"({self.labels[a][i]}, {self.labels[b][j]})"

    # -- queries ---------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return sum(self.counts)

    @property
    def num_edges(self) -> int:
        return sum(len(w) for w in self.edge_wt)

    def label_of(self, node: Node) -> str:
        return self.labels[node.party][node.index]

    @functools.cached_property
    def _index_of(self) -> dict[str, Node]:
        return {lab: Node(p, i) for p in range(N_PARTIES) for i, lab in enumerate(self.labels[p])}

    def node_of(self, label: str) -> Node:
        try:
            return self._index_of[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    def has_node(self, node: Node) -> bool:
        return 0 <= node.party < N_PARTIES and 0 <= node.index < self.counts[node.party]

    def neighbor_arrays(self, party: int, index: int, target: int) -> tuple[np.ndarray, np.ndarray]:
        """``target``-party neighbor indices and weights (may be empty); ValueError off the graph."""
        if not self.has_node(Node(party, index)):
            raise ValueError(f"node {Node(party, index)} not in graph (counts {self.counts})")
        if target == party:
            raise ValueError(f"invalid query: target party {target} equals the node's own party")
        row = self.adj.base[party, target] + index
        lo, hi = self.adj.indptr[row], self.adj.indptr[row + 1]
        return self.adj.nbrs[lo:hi], self.adj.wts[lo:hi]

    def neighbors(self, node: Node, target: int) -> list[tuple[Node, float]]:
        """The ``target``-party neighbors of ``node`` and edge weights, from :meth:`neighbor_arrays`."""
        idx, wt = self.neighbor_arrays(node.party, node.index, target)
        return [(Node(target, int(j)), float(w)) for j, w in zip(idx, wt)]

    # -- derived graphs ----------------------------------------------------------

    def without_edges(self, relation: int, pairs: Iterable[tuple[int, int]]) -> "TripartiteGraph":
        """Copy of the graph with the given (i, j) edges of one relation removed.

        The node universe (counts and labels) is preserved even if nodes
        become isolated, so embedding matrices keep their shape.
        """
        n_b = max(self.counts[RELATIONS[relation][1]], 1)
        removed = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        removed = removed[(removed[:, 1] >= 0) & (removed[:, 1] < n_b)]
        edges = [(self.edge_src[r], self.edge_dst[r], self.edge_wt[r]) for r in range(len(RELATIONS))]
        src, dst, wt = edges[relation]
        keep = ~np.isin(src * n_b + dst, removed[:, 0] * n_b + removed[:, 1])
        edges[relation] = (src[keep], dst[keep], wt[keep])
        return TripartiteGraph(self.schema, self.labels, tuple(edges))


class GraphBuilder:
    """Accumulates labeled edges, then produces a :class:`TripartiteGraph`.

    Duplicate edges have their weights summed. Node indices are assigned
    densely per party in order of first appearance.
    """

    def __init__(self, schema: Schema = DEFAULT_SCHEMA):
        self.schema = schema
        self._labels: tuple[list[str], ...] = ([], [], [])
        self._index: dict[str, Node] = {}
        self._edges: tuple[list[tuple[int, int, float]], ...] = ([], [], [])

    def _intern(self, label: str) -> Node:
        node = self._index.get(label)
        if node is None:
            party = self.schema.party_of_label(label)
            node = Node(party, len(self._labels[party]))
            self._labels[party].append(label)
            self._index[label] = node
        return node

    def add_node(self, label: str) -> None:
        """Declare a node that may have no edges (keeps isolated nodes loadable)."""
        self._intern(label)

    def add_edge(self, src_label: str, dst_label: str, weight: float = 1.0) -> None:
        """Raises :class:`EdgeListError` on a weight that is not finite and positive."""
        if weight <= 0:
            raise EdgeListError(f"edge ({src_label}, {dst_label}) has non-positive weight {weight}")
        if not math.isfinite(weight):
            raise EdgeListError(f"edge ({src_label}, {dst_label}) has non-finite weight {weight}")
        u = self._intern(src_label)
        v = self._intern(dst_label)
        if u.party == v.party:
            raise EdgeListError(
                f"intra-party edge ({src_label}, {dst_label}): both nodes are "
                f"{self.schema.party_names[u.party]} nodes"
            )
        r = RELATION_OF_PAIR[(u.party, v.party)]
        a, _ = RELATIONS[r]
        i, j = (u.index, v.index) if u.party == a else (v.index, u.index)
        self._edges[r].append((i, j, weight))

    def build(self) -> TripartiteGraph:
        return TripartiteGraph(self.schema, tuple(list(ls) for ls in self._labels),
                               tuple(tuple(zip(*rows)) or ((), (), ()) for rows in self._edges))


def load_edge_list(path, schema: Schema = DEFAULT_SCHEMA) -> TripartiteGraph:
    """Load a graph from a whitespace-separated edge-list file.

    Each non-comment line is ``<src-label> <dst-label> [weight]``; a missing
    weight defaults to 1.0. A line holding a single label declares a node
    without edges, so graphs with isolated nodes survive a file round trip.
    Lines starting with ``#`` and blank lines are skipped. Raises
    :class:`EdgeListError` with the line number on malformed input or a
    weight that is not finite and positive, and without one when a pair's
    repeated weights sum past float range; :class:`SchemaError` on unknown
    type prefixes.
    """
    builder = GraphBuilder(schema)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 1:
                try:
                    builder.add_node(parts[0])
                except SchemaError as exc:
                    raise SchemaError(f"line {line_no}: {exc}") from None
                continue
            if len(parts) not in (2, 3):
                raise EdgeListError(f"expected 'src dst [weight]', got {line!r}", line_no)
            weight = 1.0
            if len(parts) == 3:
                try:
                    weight = float(parts[2])
                except ValueError:
                    raise EdgeListError(f"bad weight {parts[2]!r}", line_no) from None
            try:
                builder.add_edge(parts[0], parts[1], weight)
            except EdgeListError as exc:
                raise EdgeListError(str(exc), line_no) from None
            except SchemaError as exc:
                raise SchemaError(f"line {line_no}: {exc}") from None
    return builder.build()


def index_labels(counts: tuple[int, int, int], schema: Schema = DEFAULT_SCHEMA) -> tuple[list[str], ...]:
    """Labels made of the type character and the per-party index, e.g. ``u0``."""
    return tuple([f"{schema.type_chars[p]}{i}" for i in range(counts[p])] for p in range(N_PARTIES))


def build_from_pairs(counts: tuple[int, int, int],
                     edges: Iterable[tuple[int, int, int, float]],
                     schema: Schema = DEFAULT_SCHEMA) -> TripartiteGraph:
    """Construct a graph from index-level edges ``(relation, i, j, weight)``.

    Labels come from :func:`index_labels`; mainly for tests and synthetic
    benchmarks.
    """
    columns = list(zip(*edges)) or [(), (), (), ()]
    rel, src, dst = (np.array(c, dtype=np.int64) for c in columns[:3])
    wt = np.array(columns[3], dtype=np.float64)
    if np.any((rel < 0) | (rel >= len(RELATIONS))):
        raise ValueError(f"relation index outside 0..{len(RELATIONS) - 1}: {sorted(set(rel.tolist()))}")
    return TripartiteGraph(schema, index_labels(counts, schema),
                           tuple((src[rel == r], dst[rel == r], wt[rel == r]) for r in range(len(RELATIONS))))
