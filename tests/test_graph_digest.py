"""Byte-identity guard over the graph layer's outputs.

The digest was recorded on the dict-backed edge store, before a graph kept
its edges in arrays only. It covers the acceptance graph's edge arrays, the
edge-list file written for it and the graph loaded back from that file, the
link-prediction pairs of the rejection branch (relation 13) and of the
enumeration branch (a small dense graph), and the edge arrays left by
``without_edges`` on fold 0's held-out positives. Every weight is an exact
sum of ones, so nothing hashed depends on the BLAS build or on float
summation order.
"""

import hashlib

import numpy as np

from trine.evaluation import _DATASET_STREAM, _SPLIT_STREAM, kfold_split, make_link_dataset
from trine.graph import RELATIONS, load_edge_list
from trine.synth import planted_graph, random_graph, write_edge_list

EXPECTED_DIGEST = "de2732a3c82d6c27c62b92dd68930e91b9835f56c54c8e984a86a80dc0f12a22"


def _block(h, arr: np.ndarray) -> None:
    h.update(np.int64(len(arr)).tobytes())
    h.update(np.ascontiguousarray(arr).tobytes())


def _edges(h, g) -> None:
    for r in range(len(RELATIONS)):
        _block(h, np.asarray(g.edge_src[r], dtype=np.int64))
        _block(h, np.asarray(g.edge_dst[r], dtype=np.int64))
        _block(h, np.asarray(g.edge_wt[r], dtype=np.float64))


def _pairs(h, dataset) -> None:
    _block(h, np.array(dataset.pairs, dtype=np.int64).reshape(-1))
    _block(h, np.asarray(dataset.labels, dtype=np.float64))


def graph_digest(tmp_path, seed: int = 1) -> tuple[str, bool, bool]:
    """SHA-256 over the graph layer's outputs, plus which dataset branches ran.

    The booleans say whether relation 13 of the acceptance graph took the
    rejection branch and the dense graph's relation 12 the enumeration one.
    """
    h = hashlib.sha256()
    g = planted_graph((300, 60, 30), 3, 0.3, 0.02, seed=seed)
    _edges(h, g)
    path = tmp_path / "accept.txt"
    write_edge_list(g, path)
    h.update(path.read_bytes())
    _edges(h, load_edge_list(path))

    sparse = make_link_dataset(g, 2, 1.0, np.random.default_rng([seed, _DATASET_STREAM]))
    _pairs(h, sparse)
    dense_graph = random_graph((40, 6, 5), 0.4, seed=seed)
    dense = make_link_dataset(dense_graph, 0, 1.0, np.random.default_rng([seed, _DATASET_STREAM]))
    _pairs(h, dense)

    fold_of = kfold_split(sparse.labels, 5, np.random.default_rng([seed, _SPLIT_STREAM]))
    held_out = [sparse.pairs[i] for i in np.flatnonzero((fold_of == 0) & (sparse.labels == 1))]
    _edges(h, g.without_edges(2, held_out))

    def enumerated(graph, relation, dataset) -> bool:
        a, b = RELATIONS[relation]
        n_free = graph.counts[a] * graph.counts[b] - dataset.n_positive
        return n_free <= 2 * dataset.n_negative

    return h.hexdigest(), not enumerated(g, 2, sparse), enumerated(dense_graph, 0, dense)


class TestGraphDigest:
    def test_seed_one_matches_recorded_digest(self, tmp_path):
        digest, sparse_rejects, dense_enumerates = graph_digest(tmp_path)
        assert sparse_rejects and dense_enumerates
        assert digest == EXPECTED_DIGEST
