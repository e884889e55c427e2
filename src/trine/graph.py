"""Weighted tripartite graph: its global layout, its adjacency and the edge-list loader.

Nodes belong to one of three parties (0, 1, 2). Edges only connect nodes
of different parties and are undirected. The three cross-party relations
are indexed 0: parties (0,1), 1: parties (1,2), 2: parties (0,2).

The graph owns the global node layout: node ``i`` of party ``p`` is global
row ``offsets[p] + i``, so party ``p`` holds rows ``offsets[p]:offsets[p + 1]``.
Embedding matrices, HITS scores and the global edge arrays all use it. The
graph also owns the one adjacency: the six cross-party CSR blocks stacked
in (a, b) order (01, 02, 10, 12, 20, 21). Block ``(a, b)`` starts at row
``base[a, b]``, and its row ``base[a, b] + i`` lists the ``b``-party
neighbors of node ``i`` of party ``a`` in index order. Only the walks read
it, so it is built on first use.

``load_edge_list`` parses a file in blocks of ``_LOAD_BLOCK`` lines, each
in bulk: ``str.split`` tokenises the block's lines, numpy masks over the
token counts give each line's kind and faults, and the labels are numbered
in order of first appearance by dict operations over the whole block.
"""

from __future__ import annotations

import functools
import itertools
import operator
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

# Edge-list lines that one bulk pass of load_edge_list parses. At the
# VisualizeUs node counts a whole-file pass raised the load's peak resident
# set from 51 to 71 MB; blocks of this size keep the per-line loop's peak.
_LOAD_BLOCK = 4_096


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
            # the edge-list loader reads '#' as a comment and whitespace as a field separator
            if ch == "#" or ch.isspace():
                raise SchemaError(f"type character cannot be '#' or whitespace, got {ch!r}")

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
    ``offsets`` and the same edges in global rows (``edge_rows``), and on
    first use the stacked adjacency (``adj``). It is read-only once built.
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
                raise EdgeListError(_bad_weight(self._edge_label(r, src[k], dst[k]), wt[k]))
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

    @functools.cached_property
    def adj(self) -> StackedAdjacency:
        """The stacked adjacency, built on first use; see the module docstring."""
        # blocks (a, b) in (0, 1), (0, 2), (1, 0), ... order, each row's neighbors sorted; the
        # forward blocks of the relations list dst as neighbors, the reverse blocks src
        blocks = list(itertools.permutations(range(N_PARTIES), 2))
        base = np.zeros((N_PARTIES, N_PARTIES), dtype=np.int64)
        base[tuple(zip(*blocks))] = np.cumsum([0] + [self.counts[a] for a, _ in blocks[:-1]])
        row = np.concatenate([base[a, b] + self.edge_src[r] for r, (a, b) in enumerate(RELATIONS)]
                             + [base[b, a] + self.edge_dst[r] for r, (a, b) in enumerate(RELATIONS)])
        nbrs = np.concatenate(self.edge_dst + self.edge_src)
        # a row lists each neighbor once, so the keys are distinct and any sort orders them alike
        order = np.argsort(row * max(self.counts) + nbrs)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=2 * self.num_nodes))])
        wt = self.edge_rows.wt
        return StackedAdjacency(base, indptr.astype(np.int64), nbrs[order], np.concatenate([wt, wt])[order])

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


def _bad_weight(edge: str, weight: float) -> str:
    """What is wrong with an ``edge`` whose weight is not finite and positive."""
    kind = "non-positive" if weight <= 0 else "non-finite"
    return f"edge {edge} has {kind} weight {weight}"


def _intra_party(schema: Schema, src_label: str, dst_label: str, party: int) -> str:
    return f"intra-party edge ({src_label}, {dst_label}): both nodes are {schema.party_names[party]} nodes"


def load_edge_list(path, schema: Schema = DEFAULT_SCHEMA) -> TripartiteGraph:
    """Load a graph from a whitespace-separated edge-list file.

    Each non-comment line is ``<src-label> <dst-label> [weight]``; a missing
    weight defaults to 1.0. A line holding a single label declares a node
    without edges, so graphs with isolated nodes survive a file round trip.
    Lines starting with ``#`` and blank lines are skipped. Nodes are numbered
    per party in order of first appearance, and a repeated pair's weights are
    summed in file order. Raises :class:`EdgeListError` with the line number
    on malformed input or a weight that is not finite and positive, and
    without one when a pair's repeated weights sum past float range;
    :class:`SchemaError` on unknown type prefixes. The first faulty line's
    error is raised, and of its faults the first of: too many fields, a
    weight ``float()`` rejects, a bad weight value, the first label's
    prefix, the second label's prefix, both labels in one party.
    """
    reader = _EdgeListReader(schema)
    with open(path, "r", encoding="utf-8") as fh:
        while lines := list(itertools.islice(fh, _LOAD_BLOCK)):
            reader.read(lines)
    return reader.graph()


class _EdgeListReader:
    """:func:`load_edge_list`'s state between blocks: the labels so far and the edges read."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._party_of_char = {ch: p for p, ch in enumerate(schema.type_chars)}
        self._ids: dict[str, int] = {}  # label -> number, in order of first appearance
        self._party = np.empty(0, dtype=np.int8)  # each number's party, -1 for an unknown prefix
        self._edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # per block: src, dst, wt
        self._lines = 0

    def read(self, lines: list[str]) -> None:
        """Take the next block of lines, or raise the error of its first faulty line."""
        n = len(lines)
        fields = list(map(str.split, lines))
        width = np.fromiter(map(len, fields), dtype=np.int64, count=n)
        tokens = np.array(list(itertools.chain.from_iterable(fields)), dtype=object)
        head = np.cumsum(width) - width  # each line's first token
        comment = np.zeros(n, dtype=bool)
        live = np.flatnonzero(width)
        comment[live] = np.fromiter(map(str.startswith, tokens[head[live]], itertools.repeat("#")),
                                    dtype=bool, count=len(live))
        kept = (width > 0) & ~comment
        edge = kept & ((width == 2) | (width == 3))
        labelled = kept & (width < 4)  # a node line or an edge line
        too_wide = kept & (width > 3)

        wt = np.ones(n)
        weighted = np.flatnonzero(kept & (width == 3))
        text = tokens[head[weighted] + 2].tolist()
        unparsed = n  # the line of the first weight float() rejects, if any
        rest = iter(text)
        try:
            wt[weighted] = list(map(float, rest))
        except ValueError:
            k = len(text) - len(list(rest)) - 1  # map stops at the rejected weight
            unparsed = int(weighted[k])
            wt[weighted[:k]] = list(map(float, text[:k]))
        bad_wt = edge & ~((wt > 0) & (wt < np.inf))  # NaN fails wt > 0

        # each labelled line's first label, and each edge line's second
        at = np.zeros(len(tokens), dtype=bool)
        at[head[labelled]] = True
        at[head[edge] + 1] = True
        slot = np.cumsum(at) - 1
        number = self._number(tokens[at].tolist())
        party = self._party[number]
        src_party, dst_party = np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int8)
        src_party[labelled] = party[slot[head[labelled]]]
        dst_party[edge] = party[slot[head[edge] + 1]]

        faulty = (too_wide | bad_wt | (labelled & (src_party < 0))
                  | (edge & ((dst_party < 0) | (src_party == dst_party))))
        faulty[unparsed:] = True
        if faulty.any():
            k = int(faulty.argmax())
            line_no = self._lines + k + 1
            if k == unparsed:
                raise EdgeListError(f"bad weight {fields[k][2]!r}", line_no)
            if too_wide[k]:
                raise EdgeListError(f"expected 'src dst [weight]', got {lines[k].strip()!r}", line_no)
            labels = fields[k][:2]
            if bad_wt[k]:
                raise EdgeListError(_bad_weight("({}, {})".format(*labels), float(wt[k])), line_no)
            for label in labels:
                try:
                    self.schema.party_of_label(label)
                except SchemaError as exc:
                    raise SchemaError(f"line {line_no}: {exc}") from None
            raise EdgeListError(_intra_party(self.schema, *labels, src_party[k]), line_no)
        self._edges.append((number[slot[head[edge]]], number[slot[head[edge] + 1]], wt[edge]))
        self._lines += n

    def _number(self, labels: list[str]) -> np.ndarray:
        """Each label's number, numbering the labels not seen before in order of first appearance."""
        new = list(itertools.filterfalse(self._ids.__contains__, dict.fromkeys(labels)))
        self._ids.update(zip(new, itertools.count(len(self._ids))))
        party = map(self._party_of_char.get, map(operator.itemgetter(0), new), itertools.repeat(-1))
        self._party = np.concatenate([self._party, np.fromiter(party, dtype=np.int8, count=len(new))])
        return np.fromiter(map(self._ids.__getitem__, labels), dtype=np.int64, count=len(labels))

    def graph(self) -> TripartiteGraph:
        """The graph of every block read."""
        party = self._party
        index = np.zeros(len(party), dtype=np.int64)  # each number's index within its party
        names = list(self._ids)
        labels = []
        for p in range(N_PARTIES):
            mine = party == p
            index[mine] = np.arange(np.count_nonzero(mine))
            labels.append(list(itertools.compress(names, mine.tolist())))
        src, dst, wt = (np.concatenate([np.empty(0, dtype=d)] + [e[c] for e in self._edges])
                        for c, d in enumerate((np.int64, np.int64, np.float64)))
        src_party, dst_party = party[src], party[dst]
        # each relation lists its lower party first
        forward = src_party < dst_party
        i, j = np.where(forward, index[src], index[dst]), np.where(forward, index[dst], index[src])
        low, high = np.minimum(src_party, dst_party), np.maximum(src_party, dst_party)
        return TripartiteGraph(self.schema, tuple(labels),
                               tuple((i[m], j[m], wt[m]) for a, b in RELATIONS
                                     for m in [(low == a) & (high == b)]))


def index_labels(counts: tuple[int, int, int], schema: Schema = DEFAULT_SCHEMA) -> tuple[list[str], ...]:
    """Labels made of the type character and the per-party index, e.g. ``u0``."""
    return tuple([f"{schema.type_chars[p]}{i}" for i in range(counts[p])] for p in range(N_PARTIES))

