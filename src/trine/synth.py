"""Planted-community tripartite benchmark graphs.

The generator follows a degree-corrected planted-partition model: nodes are
assigned to communities round-robin, first-party nodes (users) split into a
heavy/casual activity tier, and a cross-party pair (u, v) is linked with
probability

    min(1, p * a_u * a_v),  p = p_in if the communities match else p_out.

Activities average to 1, so expected edge counts match the plain
planted-partition model with the same p_in/p_out. The two-tier user
population mirrors the heavy-tailed engagement of real tagging systems and
gives link-prediction features usable per-node signal; tag and item
activities stay flat.
"""

from __future__ import annotations

import numpy as np

from .graph import (DEFAULT_SCHEMA, N_PARTIES, RELATIONS, Schema, TripartiteGraph,
                    build_from_pairs)

_SYNTH_STREAM = 707

# Activity ratio between heavy and casual users, and the heavy share.
DEFAULT_ACTIVITY_SPREAD = 150.0
HEAVY_USER_FRACTION = 0.3


def _user_activities(n: int, spread: float) -> np.ndarray:
    """Two-tier activity levels with mean 1; heavy users interleaved."""
    if n == 0 or spread == 1.0:
        return np.ones(n)
    heavy = (np.arange(n) % 10) < HEAVY_USER_FRACTION * 10
    frac = heavy.mean()
    lo = 1.0 / (frac * spread + (1.0 - frac))
    return np.where(heavy, spread * lo, lo)


def planted_graph(counts: tuple[int, int, int], communities: int, p_in: float, p_out: float,
                  seed: int, activity_spread: float = DEFAULT_ACTIVITY_SPREAD,
                  schema: Schema = DEFAULT_SCHEMA) -> TripartiteGraph:
    """Generate the benchmark graph; all three relations are sampled."""
    if communities < 1:
        raise ValueError(f"need at least one community, got {communities}")
    if not (0 <= p_out <= p_in <= 1):
        raise ValueError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if activity_spread < 1:
        raise ValueError(f"activity_spread must be >= 1, got {activity_spread}")
    rng = np.random.default_rng([seed, _SYNTH_STREAM])
    comm = [np.arange(counts[p]) % communities for p in range(N_PARTIES)]
    acts = [_user_activities(counts[0], activity_spread), np.ones(counts[1]), np.ones(counts[2])]
    edges = []
    for r, (a, b) in enumerate(RELATIONS):
        match = comm[a][:, None] == comm[b][None, :]
        base = np.where(match, p_in, p_out)
        prob = np.minimum(1.0, base * acts[a][:, None] * acts[b][None, :])
        hit = rng.random(prob.shape) < prob
        for i, j in zip(*np.nonzero(hit)):
            edges.append((r, int(i), int(j), 1.0))
    return build_from_pairs(counts, edges, schema)


def random_graph(counts: tuple[int, int, int], density: float, seed: int,
                 schema: Schema = DEFAULT_SCHEMA) -> TripartiteGraph:
    """Structureless tripartite graph: every cross-party pair iid with `density`."""
    return planted_graph(counts, 1, density, density, seed, activity_spread=1.0, schema=schema)


def write_edge_list(g: TripartiteGraph, path) -> None:
    """Write the graph in the loader's edge-list format.

    Isolated nodes are emitted as single-label declaration lines so the
    node universe is preserved on reload.
    """
    degree: dict[tuple[int, int], int] = {}
    for r, (a, b) in enumerate(RELATIONS):
        for i, j in zip(g.edge_src[r], g.edge_dst[r]):
            degree[(a, int(i))] = degree.get((a, int(i)), 0) + 1
            degree[(b, int(j))] = degree.get((b, int(j)), 0) + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# tripartite edge list: {g.counts[0]} / {g.counts[1]} / {g.counts[2]} nodes\n")
        for p in range(N_PARTIES):
            for i in range(g.counts[p]):
                if (p, i) not in degree:
                    fh.write(g.labels[p][i] + "\n")
        for r in range(len(RELATIONS)):
            for e in g.edges(r):
                fh.write(f"{g.label_of(e.src)} {g.label_of(e.dst)} {e.weight:.9g}\n")
