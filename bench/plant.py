"""O(E) planted-partition sampler for benchmark graphs at paper scale.

``trine synth`` draws every cross-party pair, so its memory grows with
n_a * n_b. This sampler draws tagging triples (user, tag, picture) instead,
as a tagging dataset records them, and links each triple's three pairs, so
every node with an edge has neighbours in both other parties. Its cost
grows with the number of triples.

Nodes are assigned to communities round-robin, with ``synth``'s activities
(two user tiers, flat tags and pictures). A block (x, y, z) of user, tag and
picture communities draws one Poisson count of triples with mean

    p * sum(a_u) * sum(a_t) * sum(a_c),  p = p_in if x == y == z else p_out,

and each triple's members in proportion to activity within their
community. Repeated pairs are merged.
"""

from __future__ import annotations

import numpy as np

from trine.synth import DEFAULT_ACTIVITY_SPREAD, _user_activities

# VisualizeUs node counts: users, tags, pictures (parties u, p, c).
PAPER_COUNTS = (3911, 21076, 5013)
COMMUNITIES = 3
# Expected triples; sets the edge count near the paper's 46,546 after merging.
PAPER_TRIPLES = 15_550
IN_OUT_RATIO = 15.0  # p_in / p_out, as in the acceptance graph (0.3 / 0.02)

RELATIONS = ((0, 1), (1, 2), (0, 2))
TYPE_CHARS = "upc"
_STREAM = 8_808


def activities(party: int, n: int) -> np.ndarray:
    """Per-node activity with mean 1: ``synth``'s two tiers for users, flat otherwise."""
    return _user_activities(n, DEFAULT_ACTIVITY_SPREAD) if party == 0 else np.ones(n)


def communities(n: int, k: int = COMMUNITIES) -> np.ndarray:
    return np.arange(n) % k


def _community_mass(counts, k) -> list[np.ndarray]:
    return [np.bincount(communities(counts[p], k), weights=activities(p, counts[p]), minlength=k)
            for p in range(3)]


def block_probabilities(counts=PAPER_COUNTS, triples=PAPER_TRIPLES, k=COMMUNITIES,
                        ratio=IN_OUT_RATIO) -> tuple[float, float]:
    """(p_in, p_out) such that the expected number of triples is ``triples``."""
    su, st, sc = _community_mass(counts, k)
    mass = np.einsum("x,y,z->xyz", su, st, sc)
    in_mass = float(sum(mass[x, x, x] for x in range(k)))
    p_in = triples / (in_mass + (float(mass.sum()) - in_mass) / ratio)
    return p_in, p_in / ratio


def expected_block_triples(counts, probs, k=COMMUNITIES) -> np.ndarray:
    """The k x k x k array of expected triples p * sum(a_u) * sum(a_t) * sum(a_c)."""
    su, st, sc = _community_mass(counts, k)
    p = np.full((k, k, k), probs[1])
    p[np.arange(k), np.arange(k), np.arange(k)] = probs[0]
    return p * np.einsum("x,y,z->xyz", su, st, sc)


def sample_triples(counts, probs, seed: int, k: int = COMMUNITIES) -> np.ndarray:
    """An (m, 3) array of (user, tag, picture) indices; rows grouped by block."""
    rng = np.random.default_rng([seed, _STREAM])
    expected = expected_block_triples(counts, probs, k)
    members, weights = [], []
    for p in range(3):
        comm, acts = communities(counts[p], k), activities(p, counts[p])
        members.append([np.flatnonzero(comm == x) for x in range(k)])
        weights.append([acts[m] / acts[m].sum() for m in members[p]])
    blocks = []
    for x, y, z in np.ndindex(k, k, k):
        m = int(rng.poisson(expected[x, y, z]))
        blocks.append(np.column_stack([
            members[p][c][rng.choice(len(members[p][c]), size=m, p=weights[p][c])]
            for p, c in enumerate((x, y, z))]))
    return np.concatenate(blocks)


def edges_of(counts, triples: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per relation, sorted unique (src, dst) index arrays of the triples' pairs."""
    out = []
    for a, b in RELATIONS:
        key = np.unique(triples[:, a] * counts[b] + triples[:, b])
        out.append((key // counts[b], key % counts[b]))
    return out


def write_edge_list(counts, edges, path) -> None:
    """Every node declared on its own line (party order), then ``src dst 1`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# planted tripartite graph: {counts[0]} / {counts[1]} / {counts[2]} nodes\n")
        for p, ch in enumerate(TYPE_CHARS):
            fh.write("".join(f"{ch}{i}\n" for i in range(counts[p])))
        for r, (a, b) in enumerate(RELATIONS):
            ca, cb = TYPE_CHARS[a], TYPE_CHARS[b]
            src, dst = edges[r]
            fh.write("".join(f"{ca}{i} {cb}{j} 1\n" for i, j in zip(src.tolist(), dst.tolist())))


def paper_graph(seed: int, path) -> list[int]:
    """Write the paper-scale graph for ``seed``; returns its edge count per relation."""
    edges = edges_of(PAPER_COUNTS, sample_triples(PAPER_COUNTS, block_probabilities(), seed))
    write_edge_list(PAPER_COUNTS, edges, path)
    return [len(src) for src, _ in edges]
