"""Tiny and degenerate graphs: ``train`` and the subcommands succeed or fail cleanly.

Either training returns finite embeddings (the CLI exits 0), or it raises a
``TrineError`` subclass (the CLI exits 1, or 2 for a usage error); no other
exception escapes. ``trine hits``, ``walks`` and ``evaluate`` (on a file a
``trine train`` run wrote) hold to the same exit codes. The graphs hold
fewer edges than one training batch.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trine.cli import main as cli_main
from trine.errors import TrineError
from trine.graph import RELATION_NAMES, RELATIONS, Metapath, build_from_pairs
from trine.synth import write_edge_list
from trine.trainer import TrainConfig, _BATCH_EDGES, default_metapaths, train

# metapath sets by name: the defaults, and two that leave a party unvisited
METAPATHS = {"default": default_metapaths(), "upu": [Metapath((0, 1, 0))],
             "cpc": [Metapath((2, 1, 2))]}


@st.composite
def tiny_graphs(draw):
    """Party sizes 0-4 and up to 12 weighted edges; parties may have no edges."""
    counts = tuple(draw(st.integers(0, 4)) for _ in range(3))
    possible = [(r, i, j) for r, (a, b) in enumerate(RELATIONS)
                for i in range(counts[a]) for j in range(counts[b])]
    chosen = draw(st.lists(st.sampled_from(possible), max_size=12, unique=True)) if possible else []
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=len(chosen),
                            max_size=len(chosen)))
    return counts, [(r, i, j, w) for (r, i, j), w in zip(chosen, weights)]


settings_ = dict(max_examples=60, deadline=None)
SINGLE_EDGE = ((1, 1, 0), [(0, 0, 0, 1.0)])
EDGELESS_PARTY = ((2, 3, 2), [(0, 0, 1, 1.0), (0, 1, 2, 1.0), (0, 1, 0, 3.0)])
THREE_PARTIES = ((3, 3, 3), [(0, 0, 0, 1.0), (1, 0, 1, 1.0), (2, 1, 2, 1.0), (2, 2, 0, 0.5)])


class TestTrainOnTinyGraphs:
    @given(tiny_graphs(), st.sampled_from(sorted(METAPATHS)), st.sampled_from([0, 2]),
           st.integers(-1, 2))
    @example(SINGLE_EDGE, "default", 2, -1)
    @example(EDGELESS_PARTY, "default", 2, -1)
    @example(THREE_PARTIES, "upu", 2, -1)
    @example(THREE_PARTIES, "default", 0, -1)
    @example(THREE_PARTIES, "default", 2, 1)
    @settings(**settings_)
    def test_finite_or_trine_error(self, graph, metapaths, negatives, zero_alpha):
        counts, edges = graph
        g = build_from_pairs(counts, edges)
        assert g.num_edges < _BATCH_EDGES
        alpha = tuple(0.0 if p == zero_alpha else 1.0 for p in range(3))
        cfg = TrainConfig(dim=3, epochs=2, max_walks=2, walk_length=5, window=2,
                          negatives=negatives, alpha=alpha, seed=4, tol=1e-9)
        try:
            store = train(g, METAPATHS[metapaths], cfg)
        except TrineError:
            return
        for p in range(3):
            assert store.emb[p].shape == (counts[p], 3)
            assert np.all(np.isfinite(store.emb[p])) and np.all(np.isfinite(store.ctx[p]))


def _metapath_flags(name: str) -> list[str]:
    return [f for m in METAPATHS[name] for f in ("--metapath", "".join("upc"[t] for t in m.types))]


class TestOtherSubcommandsOnTinyGraphs:
    @given(tiny_graphs(), st.sampled_from(sorted(METAPATHS)))
    @example(SINGLE_EDGE, "default")
    @example(EDGELESS_PARTY, "upu")
    @example(((0, 0, 0), []), "default")
    @settings(**settings_)
    def test_hits_and_walks_exit_codes_are_clean(self, graph, metapaths):
        counts, edges = graph
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.txt"
            write_edge_list(build_from_pairs(counts, edges), path)
            common = ["--edges", str(path), "--seed", "4", "--quiet"]
            assert cli_main(["hits", "--out", str(Path(tmp) / "hits.txt")] + common) in (0, 1, 2)
            assert cli_main(["walks", "--out", str(Path(tmp) / "walks.txt"), "--max-walks", "2",
                             "--walk-length", "5"] + common + _metapath_flags(metapaths)) in (0, 1, 2)

    @given(tiny_graphs(), st.sampled_from(RELATION_NAMES), st.sampled_from(sorted(METAPATHS)))
    @example(SINGLE_EDGE, "12", "default")
    @example(EDGELESS_PARTY, "12", "default")
    @example(THREE_PARTIES, "13", "cpc")
    @settings(**settings_)
    def test_evaluate_exit_code_is_clean(self, graph, relation, metapaths):
        counts, edges = graph
        with tempfile.TemporaryDirectory() as tmp:
            path, emb = Path(tmp) / "edges.txt", Path(tmp) / "emb.txt"
            write_edge_list(build_from_pairs(counts, edges), path)
            common = ["--edges", str(path), "--seed", "4", "--quiet"]
            code = cli_main(["train", "--out", str(emb), "--dim", "3", "--epochs", "2",
                             "--max-walks", "2", "--walk-length", "5", "--window", "2"]
                            + common + _metapath_flags(metapaths))
            assert code in (0, 1, 2)
            if code == 0:
                assert cli_main(["evaluate", "--embeddings", str(emb), "--relation", relation,
                                 "--folds", "2"] + common) in (0, 1, 2)


class TestE2eOnTinyGraphs:
    @given(tiny_graphs(), st.sampled_from(RELATION_NAMES), st.sampled_from(sorted(METAPATHS)),
           st.sampled_from([0, 2]), st.integers(-1, 2))
    @example(SINGLE_EDGE, "12", "default", 2, -1)
    @example(EDGELESS_PARTY, "12", "default", 2, -1)
    @example(THREE_PARTIES, "13", "cpc", 2, -1)
    @example(THREE_PARTIES, "13", "default", 0, -1)
    @example(THREE_PARTIES, "13", "default", 2, 0)
    @settings(**settings_)
    def test_exit_code_is_clean(self, graph, relation, metapaths, negatives, zero_alpha):
        counts, edges = graph
        flags = ["--relation", relation, "--folds", "2", "--dim", "3", "--epochs", "2",
                 "--max-walks", "2", "--walk-length", "5", "--window", "2",
                 "--negatives", str(negatives), "--seed", "4", "--quiet"] + _metapath_flags(metapaths)
        if zero_alpha >= 0:
            flags += [f"--alpha{zero_alpha + 1}", "0"]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.txt"
            write_edge_list(build_from_pairs(counts, edges), path)
            code = cli_main(["e2e", "--edges", str(path), "--report", str(Path(tmp) / "r.txt")]
                            + flags)
            assert code in (0, 1, 2)
            if code == 0:
                report = dict(line.split(" = ") for line in
                              (Path(tmp) / "r.txt").read_text().splitlines())
                assert 0.0 <= float(report["mean_auc_roc"]) <= 1.0
