"""HITS hub/authority centrality used to budget random walks per node."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import Node, TripartiteGraph

log = logging.getLogger(__name__)

DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-8


@dataclass
class CentralityScores:
    """L2-normalized hub and authority scores over all nodes.

    Scores are stored as one global vector each, in the graph's global
    layout: ``offsets[p]`` is the first global index of party ``p``.
    The walk budget uses the authority score (on a symmetric adjacency the
    two coincide at the fixed point).
    """

    hub: np.ndarray
    authority: np.ndarray
    offsets: np.ndarray

    def of(self, node: Node) -> float:
        return float(self.authority[self.offsets[node.party] + node.index])


def hits(g: TripartiteGraph, max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL) -> CentralityScores:
    """Weighted mutual-reinforcement power iteration on the full adjacency.

    Starting from a uniform vector, alternately sets authority = A @ hub and
    hub = A @ authority (A symmetric, both L2-normalized each half-step)
    until the successive-iterate L2 change of both vectors drops below
    ``tol`` or ``max_iter`` is reached.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if not (0 < tol < math.inf):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    n = g.num_nodes
    _, src, dst, wt = g.edge_rows
    if n == 0 or len(wt) == 0:
        log.warning("HITS on a graph with no edges: all scores are zero")
        zeros = np.zeros(n)
        return CentralityScores(zeros, zeros.copy(), g.offsets)

    def matvec(x):
        y = np.zeros(n)
        np.add.at(y, dst, wt * x[src])
        np.add.at(y, src, wt * x[dst])
        return y

    hub = np.full(n, 1.0 / math.sqrt(n))
    auth = hub.copy()
    for _ in range(max_iter):
        new_auth = matvec(hub)
        norm = np.linalg.norm(new_auth)
        if norm == 0:
            break
        new_auth /= norm
        new_hub = matvec(new_auth)
        norm = np.linalg.norm(new_hub)
        if norm == 0:
            break
        new_hub /= norm
        delta = max(np.linalg.norm(new_auth - auth), np.linalg.norm(new_hub - hub))
        auth, hub = new_auth, new_hub
        if delta < tol:
            break
    return CentralityScores(hub, auth, g.offsets)


def walk_budget(score, min_walks: int, max_walks: int, scale: float):
    """Number of walks to start at a node: clamp(ceil(score * scale), min, max).

    ``score`` may also be an array of scores; the budgets are then an int64 array.
    """
    if not (1 <= min_walks <= max_walks):
        raise ConfigError(f"need 1 <= min_walks <= max_walks, got {min_walks}, {max_walks}")
    if not (0 < scale < math.inf):
        raise ConfigError(f"scale must be positive and finite, got {scale}")
    return np.clip(np.ceil(np.multiply(score, scale)), min_walks, max_walks).astype(np.int64)
