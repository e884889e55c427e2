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

from .errors import ConfigError
from .graph import DEFAULT_SCHEMA, N_PARTIES, RELATIONS, Schema, TripartiteGraph, index_labels

_SYNTH_STREAM = 707

# Cells of one row block of a relation's link probabilities and uniforms.
_BLOCK_CELLS = 1 << 20

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
    if any(n < 0 for n in counts):
        raise ConfigError(f"party sizes must be non-negative, got {tuple(counts)}")
    if communities < 1:
        raise ConfigError(f"need at least one community, got {communities}")
    if not (0 <= p_out <= p_in <= 1):
        raise ConfigError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if not (1 <= activity_spread < np.inf):
        raise ConfigError(f"activity_spread must be finite and >= 1, got {activity_spread}")
    rng = np.random.default_rng([seed, _SYNTH_STREAM])
    comm = [np.arange(counts[p]) % communities for p in range(N_PARTIES)]
    acts = [_user_activities(counts[0], activity_spread), np.ones(counts[1]), np.ones(counts[2])]
    edges = []
    for a, b in RELATIONS:
        # Row blocks draw the uniforms in the same order as one n_a x n_b
        # call, so the block size does not change the graph.
        rows = max(1, _BLOCK_CELLS // max(counts[b], 1))
        codes = [np.zeros(0, dtype=np.int64)]
        for lo in range(0, counts[a], rows):
            match = comm[a][lo:lo + rows, None] == comm[b][None, :]
            base = np.where(match, p_in, p_out)
            prob = np.minimum(1.0, base * acts[a][lo:lo + rows, None] * acts[b][None, :])
            codes.append(lo * counts[b] + np.flatnonzero(rng.random(prob.shape) < prob))
        src, dst = np.divmod(np.concatenate(codes), max(counts[b], 1))
        edges.append((src, dst, np.ones(len(src))))
    return TripartiteGraph(schema, index_labels(counts, schema), tuple(edges))


def write_edge_list(g: TripartiteGraph, path) -> None:
    """Write the graph in the loader's edge-list format.

    Isolated nodes are emitted as single-label declaration lines so the
    node universe is preserved on reload.
    """
    linked = [np.zeros(n, dtype=bool) for n in g.counts]
    for r, (a, b) in enumerate(RELATIONS):
        linked[a][g.edge_src[r]] = True
        linked[b][g.edge_dst[r]] = True
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# tripartite edge list: {g.counts[0]} / {g.counts[1]} / {g.counts[2]} nodes\n")
        for p in range(N_PARTIES):
            fh.writelines(g.labels[p][i] + "\n" for i in np.flatnonzero(~linked[p]))
        for r, (a, b) in enumerate(RELATIONS):
            la, lb = g.labels[a], g.labels[b]
            fh.writelines(f"{la[i]} {lb[j]} {w:.9g}\n" for i, j, w in
                          zip(g.edge_src[r].tolist(), g.edge_dst[r].tolist(), g.edge_wt[r].tolist()))
