"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The VisualizeUs check
needs a local copy of the dataset (see README) and is skipped without it.
"""

import math
import os
import time

import numpy as np
import pytest

from trine.cli import main as cli_main
from trine.centrality import hits
from trine.evaluation import auc_roc, evaluate_end_to_end
from trine.graph import Edge, Metapath, Node, build_from_pairs, load_edge_list
from trine.synth import planted_graph
from trine.trainer import (TrainConfig, default_metapaths, explicit_update,
                           implicit_update, sigmoid, train)
from trine.walks import metapath_walk

from conftest import random_tripartite
from test_centrality import dense_hits_oracle
from test_evaluation import auc_pair_counting_oracle
from test_trainer import central_diff, make_store, rel_err


def _read_report(path):
    return dict(line.split(" = ") for line in path.read_text().splitlines())


class TestGradientOracle:
    def test_updates_match_finite_differences(self):
        """100 random instances at d in {2, 8}; relative error < 1e-4; < 5 s."""
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        checked = 0
        for dim in (2, 8):
            for _ in range(25):
                # explicit step against w * log sigmoid(u . v)
                store = make_store((2, 2, 2), dim, rng, scale=0.8)
                w = float(rng.uniform(0.1, 3.0))
                cfg = TrainConfig(dim=dim, lr=0.01)
                u0 = store.emb[0][0].copy()
                v0 = store.emb[1][0].copy()
                explicit_update(store, Edge(Node(0, 0), Node(1, 0), w), cfg)
                step_u = (store.emb[0][0] - u0) / cfg.lr
                step_v = (store.emb[1][0] - v0) / cfg.lr
                fd_u = central_diff(lambda u: w * math.log(sigmoid(float(u @ v0))), u0)
                fd_v = central_diff(lambda v: w * math.log(sigmoid(float(u0 @ v))), v0)
                assert rel_err(step_u, fd_u) < 1e-4
                assert rel_err(step_v, fd_v) < 1e-4
                checked += 1

                # implicit step against log sigmoid + sum log(1 - sigmoid)
                store = make_store((6, 1, 1), dim, rng, scale=0.8)
                negs = [2, 3, 4]
                v0 = store.emb[0][0].copy()
                thetas = {z: store.ctx[0][z].copy() for z in [1] + negs}

                def objective(v):
                    val = math.log(sigmoid(float(v @ thetas[1])))
                    for z in negs:
                        val += math.log(1.0 - sigmoid(float(v @ thetas[z])))
                    return val

                implicit_update(store, Node(0, 0), Node(0, 1),
                                [Node(0, z) for z in negs], 1.0, TrainConfig(dim=dim, lr=0.01))
                step = (store.emb[0][0] - v0) / 0.01
                assert rel_err(step, central_diff(objective, v0)) < 1e-4
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 100
        assert elapsed < 5.0
        print(f"\nACCEPTANCE PASS: gradient oracle (100 instances, {elapsed:.2f}s)")


class TestWalkLaw:
    def test_star_frequencies(self):
        """Five-neighbor star, 100,000 steps: each leaf at 0.2 +- 0.01; < 5 s."""
        start = time.perf_counter()
        g = build_from_pairs((1, 5, 0), [(0, 0, j, 1.0) for j in range(5)])
        rng = np.random.default_rng(7)
        counts = np.zeros(5)
        n = 100_000
        mp = Metapath((0, 1))
        for _ in range(n):
            walk = metapath_walk(g, Node(0, 0), mp, 2, rng)
            counts[walk[1].index] += 1
        elapsed = time.perf_counter() - start
        worst = float(np.max(np.abs(counts / n - 0.2)))
        assert worst < 0.01
        assert elapsed < 5.0
        print(f"\nACCEPTANCE PASS: walk law (max deviation {worst:.4f}, {elapsed:.2f}s)")


class TestHitsOracle:
    def test_twenty_random_graphs(self):
        """Sparse-path scores match a dense power-iteration oracle within 1e-8."""
        rng = np.random.default_rng(99)
        worst = 0.0
        done = 0
        while done < 20:
            g = random_tripartite(rng, counts=(12, 10, 8), density=0.3)
            if g.num_edges == 0:
                continue
            scores = hits(g, max_iter=5000, tol=1e-14)
            hub, auth = dense_hits_oracle(g)
            worst = max(worst,
                        float(np.max(np.abs(scores.authority - auth))),
                        float(np.max(np.abs(scores.hub - hub))))
            assert np.max(np.abs(scores.authority - auth)) < 1e-8
            done += 1
        print(f"\nACCEPTANCE PASS: HITS oracle (20 graphs, worst deviation {worst:.2e})")


class TestAucOracle:
    def test_fifty_random_score_sets(self):
        """Mid-rank AUC equals the O(n^2) pair-counting oracle exactly."""
        rng = np.random.default_rng(41)
        for trial in range(50):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = (rng.integers(0, 5, size=n).astype(float) if trial % 2
                      else np.round(rng.random(n), 2))
            assert auc_roc(scores, labels) == auc_pair_counting_oracle(scores, labels)
        print("\nACCEPTANCE PASS: AUC oracle (50 sets, exact match)")


@pytest.fixture(scope="module")
def planted_edges(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "planted.txt"
    code = cli_main(["synth", "--users", "300", "--tags", "60", "--items", "30",
                     "--communities", "3", "--p-in", "0.3", "--p-out", "0.02",
                     "--seed", "1", "--out", str(path), "--quiet"])
    assert code == 0
    return path


_E2E_FLAGS = ["--relation", "13", "--folds", "5", "--dim", "32",
              "--epochs", "12", "--lr", "0.05", "--max-walks", "3",
              "--walk-length", "16", "--tol", "1e-7", "--seed", "1"]


class TestSyntheticEndToEnd:
    def test_trained_auc(self, planted_edges, tmp_path):
        """Leakage-safe e2e on the planted benchmark: mean AUC-ROC >= 0.85, < 2 min."""
        report_path = tmp_path / "report.txt"
        start = time.perf_counter()
        code = cli_main(["e2e", "--edges", str(planted_edges),
                         "--report", str(report_path), "--quiet"] + _E2E_FLAGS)
        elapsed = time.perf_counter() - start
        assert code == 0
        mean_auc = float(_read_report(report_path)["mean_auc_roc"])
        assert mean_auc >= 0.85, f"mean held-out AUC-ROC {mean_auc:.4f} < 0.85"
        assert elapsed < 120.0, f"e2e took {elapsed:.0f}s, budget is 120s"
        print(f"\nACCEPTANCE PASS: synthetic e2e (mean AUC-ROC {mean_auc:.4f}, {elapsed:.0f}s)")

    def test_random_embedding_control(self, planted_edges, tmp_path):
        """Same protocol with untrained random embeddings: mean AUC-ROC in 0.5 +- 0.05.

        Checks that the harness measures what the embeddings learned: random
        vectors carry no link information, so the classifier must score at
        chance even on the planted graph, whose heavy users supply most
        positives. An edge feature with an additive per-node term would let
        the classifier memorize those users' random vectors and lift this.
        """
        report_path = tmp_path / "control.txt"
        flags = [f if f != "12" else "0" for f in _E2E_FLAGS]  # epochs 12 -> 0
        code = cli_main(["e2e", "--edges", str(planted_edges),
                         "--report", str(report_path), "--quiet"] + flags)
        assert code == 0
        mean_auc = float(_read_report(report_path)["mean_auc_roc"])
        assert abs(mean_auc - 0.5) <= 0.05, (
            f"random-embedding control at {mean_auc:.4f}: the classifier memorizes "
            "per-node popularity through random feature vectors under edge-level folds"
        )
        print(f"\nACCEPTANCE PASS: random-embedding control (mean AUC-ROC {mean_auc:.4f})")

    def test_control_classifier_converges(self, planted_edges, caplog):
        """The control's classifier fits reach their gradient tolerance on every fold."""
        g = load_edge_list(planted_edges)
        cfg = TrainConfig(dim=32, epochs=0, lr=0.05, max_walks=3, walk_length=16, tol=1e-7, seed=1)
        with caplog.at_level("WARNING", logger="trine.evaluation"):
            evaluate_end_to_end(g, default_metapaths(), cfg, relation=2, folds=5)
        assert not [r for r in caplog.records if "max_iter" in r.getMessage()]
        print("\nACCEPTANCE PASS: the control's classifier converges on every fold")


class TestDeterminism:
    def test_every_subcommand_byte_identical(self, tmp_path):
        """Each subcommand run twice with one seed writes identical bytes."""
        edges = tmp_path / "graph.txt"
        assert cli_main(["synth", "--users", "24", "--tags", "10", "--items", "8",
                         "--communities", "2", "--p-in", "0.5", "--p-out", "0.05",
                         "--seed", "3", "--out", str(edges), "--quiet"]) == 0

        def run_twice(name, args, outputs):
            blobs = []
            for tag in ("x", "y"):
                paths = {key: tmp_path / f"{name}-{tag}-{key}" for key in outputs}
                argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in args]
                assert cli_main(argv) == 0, name
                blobs.append(tuple(paths[k].read_bytes() for k in outputs))
            assert blobs[0] == blobs[1], f"{name} output differs between runs"

        e = str(edges)
        run_twice("synth", ["synth", "--users", "24", "--tags", "10", "--items", "8",
                            "--seed", "3", "--out", "{out}", "--quiet"], ["out"])
        run_twice("hits", ["hits", "--edges", e, "--out", "{out}", "--quiet"], ["out"])
        run_twice("walks", ["walks", "--edges", e, "--seed", "5", "--max-walks", "2",
                            "--walk-length", "6", "--out", "{out}", "--quiet"], ["out"])
        run_twice("train", ["train", "--edges", e, "--seed", "5", "--dim", "6",
                            "--epochs", "2", "--max-walks", "2", "--walk-length", "6",
                            "--out", "{out}", "--quiet"], ["out"])
        emb = tmp_path / "train-x-out"
        run_twice("evaluate", ["evaluate", "--edges", e, "--embeddings", str(emb),
                               "--relation", "13", "--folds", "3", "--seed", "5",
                               "--report", "{out}", "--quiet"], ["out"])
        run_twice("e2e", ["e2e", "--edges", e, "--relation", "13", "--folds", "3",
                          "--dim", "4", "--epochs", "1", "--max-walks", "1",
                          "--walk-length", "4", "--seed", "5",
                          "--report", "{out}", "--quiet"], ["out"])
        print("\nACCEPTANCE PASS: determinism (all six subcommands byte-identical)")


class TestLossMonotonicity:
    def test_thirty_node_fixture(self):
        """>= 90% of epoch transitions improve the objective over 50 epochs."""
        g = planted_graph((15, 9, 6), 3, 0.5, 0.1, seed=1)
        assert g.num_nodes == 30
        losses: list[float] = []
        cfg = TrainConfig(dim=16, epochs=50, lr=0.01, seed=3, tol=1e-9)
        train(g, default_metapaths(), cfg, on_epoch=lambda e, r: losses.append(r.total))
        assert len(losses) == 51
        ups = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert ups >= 45, f"objective improved in only {ups}/50 transitions"
        assert losses[-1] > losses[0]
        print(f"\nACCEPTANCE PASS: loss monotonicity ({ups}/50 improving transitions)")


VISUALIZEUS_ENV = "TRINE_VISUALIZEUS_EDGES"


@pytest.mark.skipif(VISUALIZEUS_ENV not in os.environ,
                    reason=f"set {VISUALIZEUS_ENV} to the converted VisualizeUs edge list")
class TestVisualizeUsSoftCheck:
    """Directional real-data check; needs an external download, so not in CI."""

    def test_ingest_and_link_prediction(self):
        g = load_edge_list(os.environ[VISUALIZEUS_ENV])
        assert g.counts == (3911, 21076, 5013)
        assert g.num_edges == 46546
        cfg = TrainConfig(dim=128, epochs=3, seed=1, max_walks=2, walk_length=16,
                          lr=0.05, tol=1e-7)
        from trine.evaluation import evaluate_end_to_end

        report = evaluate_end_to_end(g, default_metapaths(), cfg, relation=2, folds=5)
        assert report.mean_auc_roc >= 0.60
        print(f"\nACCEPTANCE PASS: VisualizeUs soft check (mean AUC-ROC {report.mean_auc_roc:.4f})")
