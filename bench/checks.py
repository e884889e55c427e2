"""Output checks computed apart from the program.

Each check recomputes its reference from the program's inputs or raw
outputs with the benchmark's own numpy code: pair counting for AUC, edge
sets for walks and leakage, window co-occurrence for exclusion buckets and
a sparse A.A^T product for HITS. None calls the routine it checks.
"""

from __future__ import annotations

import numpy as np

RELATIONS = ((0, 1), (1, 2), (0, 2))


def auc_by_pairs(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC-ROC over all positive-negative pairs: wins plus half the ties."""
    pos = np.sort(np.asarray(scores, dtype=np.float64)[labels == 1])
    neg = np.sort(np.asarray(scores, dtype=np.float64)[labels == 0])
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    wins = int(below.sum())
    ties = int((not_above - below).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _edge_keys(g, relation: int) -> np.ndarray:
    b = RELATIONS[relation][1]
    return np.sort(g.edge_src[relation] * g.counts[b] + g.edge_dst[relation])


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(sorted_keys, keys)
    pos = np.minimum(pos, max(len(sorted_keys) - 1, 0))
    return (sorted_keys[pos] == keys) if len(sorted_keys) else np.zeros(len(keys), dtype=bool)


def no_leakage(g_fold, relation: int, held_out: list[tuple[int, int]]) -> bool:
    """No held-out positive pair is an edge of the fold graph."""
    if not held_out:
        return True
    b = RELATIONS[relation][1]
    pairs = np.array(held_out, dtype=np.int64)
    return not _member(_edge_keys(g_fold, relation), pairs[:, 0] * g_fold.counts[b] + pairs[:, 1]).any()


def _expected_type(types: tuple[int, ...], step: int) -> int:
    # Position 0 is the first type; later positions cycle over types[1:].
    return types[0] if step == 0 else types[1 + (step - 1) % (len(types) - 1)]


def walks_follow_metapaths(corpus, metapaths, g_fold, walk_length: int) -> bool:
    """Every walk has its metapath's party at each position and steps over fold-graph edges."""
    src_p, src_i, dst_p, dst_i = [], [], [], []
    for walk, m in zip(corpus.walks, corpus.metapath_ids):
        types = metapaths[m].types
        if not 1 <= len(walk) <= walk_length:
            return False
        for step, node in enumerate(walk):
            if node.party != _expected_type(types, step):
                return False
        for u, v in zip(walk, walk[1:]):
            src_p.append(u.party)
            src_i.append(u.index)
            dst_p.append(v.party)
            dst_i.append(v.index)
    src_p, src_i = np.array(src_p, dtype=np.int64), np.array(src_i, dtype=np.int64)
    dst_p, dst_i = np.array(dst_p, dtype=np.int64), np.array(dst_i, dtype=np.int64)
    for r, (a, b) in enumerate(RELATIONS):
        fwd = (src_p == a) & (dst_p == b)
        rev = (src_p == b) & (dst_p == a)
        i = np.concatenate([src_i[fwd], dst_i[rev]])
        j = np.concatenate([dst_i[fwd], src_i[rev]])
        if not _member(_edge_keys(g_fold, r), i * g_fold.counts[b] + j).all():
            return False
    return True


def party_sequences(corpus, party: int) -> list[list[int]]:
    """The walks' subsequences of one party's node indices, empty ones dropped."""
    out = []
    for walk in corpus.walks:
        seq = [n.index for n in walk if n.party == party]
        if seq:
            out.append(seq)
    return out


def window_buckets(seqs: list[list[int]], window: int, centers: np.ndarray) -> dict[int, set[int]]:
    """For each center, every same-party node within ``window`` positions of one of its occurrences."""
    wanted = set(int(c) for c in centers)
    flat = np.array([i for s in seqs for i in s], dtype=np.int64)
    seq_id = np.repeat(np.arange(len(seqs)), [len(s) for s in seqs])
    is_center = np.zeros(int(flat.max()) + 1 if len(flat) else 1, dtype=bool)
    is_center[[c for c in wanted if c < len(is_center)]] = True
    buckets: dict[int, set[int]] = {c: set() for c in wanted}
    for d in range(1, window + 1):
        same = seq_id[d:] == seq_id[:-d]
        left, right = flat[:-d][same], flat[d:][same]
        for c, x in ((left, right), (right, left)):
            keep = is_center[c]
            for center, partner in zip(c[keep].tolist(), x[keep].tolist()):
                buckets[center].add(partner)
    return buckets


def hits_fixed_point(g, authority: np.ndarray, tol: float = 1e-6) -> float:
    """Distance between the authority vector and its normalized image under A.A^T.

    A is the symmetric weighted adjacency over all nodes, parties laid out
    consecutively; the product is taken with ``np.bincount``.
    """
    offsets = (0, g.counts[0], g.counts[0] + g.counts[1])
    n = sum(g.counts)
    src = np.concatenate([g.edge_src[r] + offsets[a] for r, (a, _) in enumerate(RELATIONS)])
    dst = np.concatenate([g.edge_dst[r] + offsets[b] for r, (_, b) in enumerate(RELATIONS)])
    wt = np.concatenate(list(g.edge_wt))

    def adj(x):
        return (np.bincount(dst, weights=wt * x[src], minlength=n)
                + np.bincount(src, weights=wt * x[dst], minlength=n))

    image = adj(adj(authority))
    norm = np.linalg.norm(image)
    return float("inf") if norm == 0 else float(np.linalg.norm(image / norm - authority))


def embedding_file_complete(path, labels: set[str], dim: int) -> bool:
    """Header ``<count> <dim>``, one finite row of ``dim`` values per graph node, no others."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if header != [str(len(labels)), str(dim)]:
            return False
        seen = set()
        values = []
        for line in fh:
            fields = line.split()
            if len(fields) != dim + 1 or fields[0] in seen:
                return False
            seen.add(fields[0])
            values.append(fields[1:])
    return seen == labels and bool(np.isfinite(np.array(values, dtype=np.float64)).all())
