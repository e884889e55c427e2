"""Scalar references and fixture builders that the tests hold the program to.

``graph_of_lines`` reads an edge list one line at a time, the reference of
``load_edge_list``'s bulk parse; ``metapath_walk`` draws one walk a step at a
time, the reference of the walk law. ``build_from_pairs`` makes a graph from
index-level edges, ``neighbors`` reads a node's neighbours from the graph's
stacked adjacency, and ``copy_store`` copies an embedding store.
"""

import math
from typing import Iterable

import numpy as np

from trine.errors import EdgeListError, SchemaError
from trine.graph import (DEFAULT_SCHEMA, N_PARTIES, RELATION_OF_PAIR, RELATIONS, Metapath, Node,
                         Schema, TripartiteGraph, _bad_weight, _intra_party, index_labels)
from trine.trainer import EmbeddingStore


def build_from_pairs(counts: tuple[int, int, int],
                     edges: Iterable[tuple[int, int, int, float]],
                     schema: Schema = DEFAULT_SCHEMA) -> TripartiteGraph:
    """A graph from index-level edges ``(relation, i, j, weight)``, labelled by ``index_labels``."""
    columns = list(zip(*edges)) or [(), (), (), ()]
    rel, src, dst = (np.array(c, dtype=np.int64) for c in columns[:3])
    wt = np.array(columns[3], dtype=np.float64)
    if np.any((rel < 0) | (rel >= len(RELATIONS))):
        raise ValueError(f"relation index outside 0..{len(RELATIONS) - 1}: {sorted(set(rel.tolist()))}")
    return TripartiteGraph(schema, index_labels(counts, schema),
                           tuple((src[rel == r], dst[rel == r], wt[rel == r]) for r in range(len(RELATIONS))))


def graph_of_lines(lines: Iterable[str], schema: Schema = DEFAULT_SCHEMA) -> TripartiteGraph:
    """``load_edge_list``'s parse of edge-list ``lines``, one line at a time.

    Labels are numbered per party in order of first appearance. A line's
    faults are raised in the bulk parse's order: too many fields, a weight
    ``float()`` rejects, a bad weight value, the first label's prefix, the
    second label's prefix, both labels in one party.
    """
    labels: tuple[list[str], ...] = ([], [], [])
    index: dict[str, Node] = {}
    edges: tuple[list[tuple[int, int, float]], ...] = ([], [], [])

    def intern(label: str) -> Node:
        node = index.get(label)
        if node is None:
            party = schema.party_of_label(label)
            node = index[label] = Node(party, len(labels[party]))
            labels[party].append(label)
        return node

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) > 3:
            raise EdgeListError(f"expected 'src dst [weight]', got {line!r}", line_no)
        weight = 1.0
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise EdgeListError(f"bad weight {parts[2]!r}", line_no) from None
            if not 0 < weight < math.inf:  # NaN fails 0 < weight
                raise EdgeListError(_bad_weight(f"({parts[0]}, {parts[1]})", weight), line_no)
        try:
            nodes = [intern(label) for label in parts[:2]]
        except SchemaError as exc:
            raise SchemaError(f"line {line_no}: {exc}") from None
        if len(nodes) == 1:  # a node line
            continue
        u, v = nodes
        if u.party == v.party:
            raise EdgeListError(_intra_party(schema, parts[0], parts[1], u.party), line_no)
        r = RELATION_OF_PAIR[(u.party, v.party)]
        i, j = (u.index, v.index) if u.party == RELATIONS[r][0] else (v.index, u.index)
        edges[r].append((i, j, weight))
    return TripartiteGraph(schema, labels, tuple(tuple(zip(*rows)) or ((), (), ()) for rows in edges))


def reference_load_edge_list(path, schema: Schema = DEFAULT_SCHEMA) -> TripartiteGraph:
    """``load_edge_list`` through :func:`graph_of_lines`: the reference of its bulk parse."""
    with open(path, "r", encoding="utf-8") as fh:
        return graph_of_lines(fh, schema)


def neighbors(g: TripartiteGraph, party: int, index: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``target``-party neighbours of node ``index`` of ``party``, and their weights, from ``g.adj``."""
    row = g.adj.base[party, target] + index
    lo, hi = g.adj.indptr[row], g.adj.indptr[row + 1]
    return g.adj.nbrs[lo:hi], g.adj.wts[lo:hi]


def metapath_walk(g: TripartiteGraph, start: Node, path: Metapath, length: int, rng) -> list[Node]:
    """One truncated random walk following the metapath's type pattern.

    At each step the next node is drawn uniformly, by ``rng.integers``, from
    the current node's neighbours of the type the metapath prescribes next;
    the walk stops early when no such neighbour exists.
    """
    if not (0 <= start.party < N_PARTIES and 0 <= start.index < g.counts[start.party]):
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
        idx, _ = neighbors(g, cur.party, cur.index, nxt_type)
        if len(idx) == 0:
            break
        cur = Node(nxt_type, int(idx[rng.integers(len(idx))]))
        walk.append(cur)
    return walk


def copy_store(store: EmbeddingStore) -> EmbeddingStore:
    """A store with copies of ``store``'s matrices and the same labels."""
    return EmbeddingStore(store.emb.copy(), store.ctx.copy(), store.labels)
