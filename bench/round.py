"""One round of a workload in a fresh process; writes its measurements as JSON.

    python3 bench/round.py e2e --workload accept --seed 1 --graph G --work D --out R.json [--trace]
    python3 bench/round.py probe --workload cli --seed 1 --graph G --work D --embeddings E --report P --out R.json

``e2e`` runs the leakage-safe protocol of ``evaluate_end_to_end`` on the
5-fold split, timed from the edge-list load to the last report: fold 0 is
trained and scored, and on accept the other folds run ``train`` to its
epoch-0 report, which is the set-up of each fold. Then, untimed, it calls
the set-up layers of ``train`` on the fold-0 graph and checks their outputs
and the folds', and on accept it runs the random-embedding controls. With
``--trace`` it times those calls too, plus calls made only for timing.
``probe`` does the same, always traced, on the graph ``trine train`` ran
on, after the CLI workload's two subcommands, and checks the CLI's outputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from trine import (DEFAULT_SCHEMA, RELATION_NAMES, RELATIONS, NegativeSampler, Node, TrainConfig,
                   auc_pr, auc_roc, compute_loss, default_metapaths, evaluate_end_to_end, f1_score,
                   filter_by_type, generate_corpus, hits, kfold_split, load_edge_list,
                   load_embeddings, make_link_dataset, save_embeddings, train, train_classifier)
from trine import evaluation

import checks
from workloads import (CLI_FOLDS, CONTROL_SEEDS, FOLDS, L2, NEG_RATIO, PROBE_STREAM, RELATION,
                       WORKLOADS)

# Sampler calls timed for sampling.sample_us, and the first of them whose draws are checked.
CHECKED_DRAWS = 1_000
TIMED_DRAWS = 20_000


class Spans:
    """Per-name call count and total seconds of timed calls; inert unless enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def __call__(self, name: str):
        return _Span(self, name)

    def add(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.total[name] = self.total.get(name, 0.0) + seconds
            self.calls[name] = self.calls.get(name, 0) + 1

    def means(self) -> dict[str, float]:
        return {k: self.total[k] / self.calls[k] for k in self.total}


class _Span:
    def __init__(self, spans: Spans, name: str):
        self.spans, self.name = spans, name

    def __enter__(self):
        if self.spans.enabled:
            self.start = perf_counter()

    def __exit__(self, *exc):
        if self.spans.enabled:
            self.spans.add(self.name, perf_counter() - self.start)


def _split(g, relation: int, seed: int, folds: int, sp: Spans):
    """The link dataset and fold of each pair, drawn as ``evaluate_end_to_end`` draws them."""
    with sp("evaluation.dataset_s"):
        ds = make_link_dataset(g, relation, NEG_RATIO,
                               np.random.default_rng([seed, evaluation._DATASET_STREAM]))
    fold_of = kfold_split(ds.labels, folds, np.random.default_rng([seed, evaluation._SPLIT_STREAM]))
    return ds, fold_of


def _held_out(ds, test) -> list[tuple[int, int]]:
    return [ds.pairs[i] for i in np.flatnonzero(test & (ds.labels == 1))]


def _fold_scores(store, relation, ds, test, sp: Spans):
    """Scores of the test fold, from the program's link features, and its AUC-ROC and AUC-PR."""
    X = evaluation._features(store, relation, ds.pairs)
    with sp("evaluation.fit_s"):
        model = train_classifier(X[~test], ds.labels[~test], l2=L2)
    scores = model.predict_proba(X[test])
    with sp("evaluation.metrics_s"):
        roc = auc_roc(scores, ds.labels[test])
        pr = auc_pr(scores, ds.labels[test])
        f1_score(scores, ds.labels[test])
    return scores, roc, pr


def layer_probe(g, store, cfg: TrainConfig, seed: int, sp: Spans, work: Path):
    """Run the set-up layers of ``train`` on ``g`` as public calls; check and count their outputs.

    Returns (checks, layer counts, seconds spent on trace-only calls).
    Timings go to ``sp``; the loss, save/load and per-centre counts run only
    when ``sp`` is enabled.
    """
    metapaths = default_metapaths()
    scale = cfg.walk_scale if cfg.walk_scale is not None else float(g.num_nodes)
    with sp("centrality.hits_s"):
        scores = hits(g)
    with sp("walks.generate_s"):
        corpus = generate_corpus(g, metapaths, scores, cfg.min_walks, cfg.max_walks,
                                 scale, cfg.walk_length, cfg.seed)
    with sp("walks.filter_s"):
        typed = filter_by_type(corpus)
    with sp("sampling.build_s"):
        sampler = NegativeSampler.build(typed, g, cfg.power, cfg.window)
    result = {
        "hits_fixed_point": checks.hits_fixed_point(g, scores.authority) < 1e-6,
        "walks_follow_metapaths": checks.walks_follow_metapaths(corpus, metapaths, g, cfg.walk_length),
    }
    counts = {"walks.cut_short": sum(len(w) < cfg.walk_length for w in corpus.walks)}

    # Centres as training draws them: both endpoints of a uniformly drawn edge,
    # if the endpoint occurs in its party's corpus and has admissible negatives.
    seqs = [checks.party_sequences(corpus, p) for p in range(3)]
    occurs = [np.zeros(g.counts[p], dtype=bool) for p in range(3)]
    for p in range(3):
        for s in seqs[p]:
            occurs[p][s] = True
    rng = np.random.default_rng([seed, PROBE_STREAM])
    ends = [(a, g.edge_src[r]) for r, (a, _) in enumerate(RELATIONS)] + \
           [(b, g.edge_dst[r]) for r, (_, b) in enumerate(RELATIONS)]
    parties = np.concatenate([np.full(len(idx), p) for p, idx in ends])
    indices = np.concatenate([idx for _, idx in ends])
    centers = []
    while len(centers) < TIMED_DRAWS:
        for k in rng.integers(len(indices), size=TIMED_DRAWS):
            node = Node(int(parties[k]), int(indices[k]))
            if occurs[node.party][node.index] and sampler.has_negatives(node):
                centers.append(node)
    centers = centers[:TIMED_DRAWS]
    draws = []
    start = perf_counter()
    for node in centers:
        draws.append(sampler.sample(node, cfg.negatives, rng))
    elapsed = perf_counter() - start
    sp.add("sampling.sample_us", elapsed / len(centers) * 1e6)
    ok = True
    for p in range(3):
        mine = [(c.index, d) for c, d in zip(centers[:CHECKED_DRAWS], draws) if c.party == p]
        buckets = checks.window_buckets(seqs[p], cfg.window, np.array([c for c, _ in mine]))
        ok &= all(z != c and z not in buckets[c] for c, d in mine for z in d)
    result["negatives_admissible"] = bool(ok)

    t_trace = perf_counter()
    if sp.enabled:
        nodes = [Node(p, i) for p in range(3) for i in np.flatnonzero(occurs[p]).tolist()]
        masses = [sampler.available_mass(n) for n in nodes]
        counts["sampling.restricted_centers"] = sum(
            m < NegativeSampler._REJECTION_MIN_MASS for m in masses)
        counts["sampling.empty_centers"] = sum(not sampler.has_negatives(n) for n in nodes)
        counts["sampling.bucket_entries"] = sum(len(sampler.exclusion_bucket(Node(p, i)))
                                                for p in range(3) for i in range(g.counts[p]))
        with sp("trainer.loss_s"):
            compute_loss(store, g, typed, sampler, cfg)
        path = work / "probe-emb.txt"
        with sp("trainer.save_s"):
            save_embeddings(store, path, str(path) + ".ctx")
        with sp("trainer.load_s"):
            load_embeddings(path, DEFAULT_SCHEMA, str(path) + ".ctx")
    return result, counts, perf_counter() - t_trace


def e2e_round(args) -> dict:
    w = WORKLOADS[args.workload]
    cfg = TrainConfig(seed=args.seed, **w.train)
    metapaths = default_metapaths()
    relation = RELATION_NAMES.index(RELATION)
    sp = Spans(args.trace)

    t_start = perf_counter()
    with sp("graph.load_s"):
        g = load_edge_list(args.graph)
    ds, fold_of = _split(g, relation, args.seed, FOLDS, sp)
    setup = perf_counter() - t_start
    folds = []
    for f in range(w.setup_folds):
        t_fold = perf_counter()
        test = fold_of == f
        held_out = _held_out(ds, test)
        with sp("graph.without_edges_s"):
            g_fold = g.without_edges(relation, held_out)
        reports = []
        t_call = perf_counter()
        store = train(g_fold, metapaths, cfg if f == 0 else replace(cfg, epochs=0),
                      on_epoch=lambda e, r: reports.append((perf_counter(), r.total)))
        setup += reports[0][0] - t_fold
        # Only fold 0's embeddings are scored; the others are dropped as the program drops them.
        folds.append(dict(test=test, held_out=held_out, g_fold=g_fold, reports=reports, t_call=t_call,
                          store=store if f == 0 else None))
        del store
    fold0 = folds[0]
    scores, roc, pr = _fold_scores(fold0["store"], relation, ds, fold0["test"], sp)
    wall = perf_counter() - t_start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Operations: fold 0 trained, the set-up of each other fold run, and on accept the controls.
    ops = [{"auc_recount": abs(checks.auc_by_pairs(scores, ds.labels[fold0["test"]]) - roc) <= 1e-12,
            "objective_rises": fold0["reports"][-1][1] > fold0["reports"][0][1]}]
    ops += [{} for _ in folds[1:]]
    for op, fold in zip(ops, folds):
        op["no_leakage"] = checks.no_leakage(fold["g_fold"], relation, fold["held_out"])
    probe_checks, counts, trace_s = layer_probe(fold0["g_fold"], fold0["store"], cfg, args.seed,
                                                sp, Path(args.work))
    ops[0].update(probe_checks)
    controls = {}
    if w.name == "accept":
        ops[0]["auc_roc_at_least_0.85"] = roc >= 0.85
        # The random-embedding control: the program's e2e over every fold, untrained.
        for seed in CONTROL_SEEDS:
            controls[seed] = evaluate_end_to_end(g, metapaths, replace(cfg, seed=seed, epochs=0),
                                                 relation, FOLDS, NEG_RATIO, L2).mean_auc_roc
            ops.append({f"control_seed{seed}_near_half": abs(controls[seed] - 0.5) <= 0.05})
    failed_checks = [name for op in ops for name, ok in op.items() if not ok]

    out = {
        "wall_s": wall,
        "setup_s": setup,
        "train_edges": fold0["g_fold"].num_edges * (len(fold0["reports"]) - 1),
        "sgd_s": fold0["reports"][-1][0] - fold0["reports"][0][0],
        "peak_rss_mb": peak_kb / 1024.0,
        "auc_roc": roc,
        "auc_pr": pr,
        "attempted": len(ops),
        "failed": sum(not all(op.values()) for op in ops),
        "failed_checks": failed_checks,
        "controls": controls,
    }
    if args.trace:
        layers = sp.means()
        layers.update(counts)
        layers["trainer.setup_s"] = statistics.mean(f["reports"][0][0] - f["t_call"] for f in folds)
        layers["trainer.epoch_s"] = statistics.median(
            b[0] - a[0] for a, b in zip(fold0["reports"], fold0["reports"][1:]))
        out["layers"] = layers
        out["trace_s"] = trace_s
    return out


def cli_probe(args) -> dict:
    """Layer timings and output checks for the CLI workload, after its two subcommands ran.

    Re-scores fold 0 of ``trine evaluate``'s split from the embedding file to
    recount its AUC-ROC, and runs the set-up layers of ``train`` on the graph
    the CLI trained on.
    """
    w = WORKLOADS[args.workload]
    cfg = TrainConfig(seed=args.seed, **w.train)
    relation = RELATION_NAMES.index(RELATION)
    sp = Spans(True)
    report = dict(line.split(" = ") for line in Path(args.report).read_text().splitlines())

    with sp("graph.load_s"):
        g = load_edge_list(args.graph)
    ds, fold_of = _split(g, relation, args.seed, CLI_FOLDS, sp)
    test = fold_of == 0
    held_out = _held_out(ds, test)
    with sp("graph.without_edges_s"):
        g_fold = g.without_edges(relation, held_out)
    with sp("trainer.load_s"):
        store = load_embeddings(args.embeddings, g.schema, args.embeddings + ".ctx")
    store = store.reindexed_to(g)
    scores, _, _ = _fold_scores(store, relation, ds, test, sp)
    result = {
        # The report keeps 9 significant digits.
        "auc_recount": abs(checks.auc_by_pairs(scores, ds.labels[test])
                           - float(report["fold0_auc_roc"])) <= 1e-8,
        "no_leakage": checks.no_leakage(g_fold, relation, held_out),
    }
    probe_checks, counts, _ = layer_probe(g, store, cfg, args.seed, sp, Path(args.work))
    result.update(probe_checks)
    layers = sp.means()
    layers.update(counts)
    return {"checks": result, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("e2e", "probe"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--graph", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--embeddings")
    parser.add_argument("--report")
    args = parser.parse_args(argv)
    result = e2e_round(args) if args.mode == "e2e" else cli_probe(args)
    # numpy scalars become plain numbers.
    Path(args.out).write_text(json.dumps(result, default=lambda x: x.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
