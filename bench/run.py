"""Benchmark of trine: three batch workloads, each round in fresh processes.

    python3 bench/run.py --workload accept|paper|cli --seed N --seconds S --trace 0|1

A run makes its inputs from ``--seed``, then runs whole rounds of the
workload until another round would end after ``--seconds`` (always at least
one). It prints each metric with its unit on standard error and, as the last
line of standard output, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones). Medians are taken over the rounds. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# plant.py takes the user activities of trine.synth.
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import plant  # noqa: E402
from workloads import (ACCEPT_SYNTH, CLI_FOLDS, CONTROL_SEEDS, FOLDS, KNOWN_FAILURES,  # noqa: E402
                       NEG_RATIO, RELATION, WORKLOADS, cli_flags)
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

# Every process of a run is killed at this age, so the run ends within 180 s.
DEADLINE_S = 170.0
# BLAS threads of the child processes; both CPUs of the reference host would
# let the classifier's matrix products compete with other processes.
BLAS_THREADS = "1"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "train_edges_per_s": "edges/s",
             "peak_rss_mb": "MB", "auc_roc": "1", "auc_pr": "1"}
EPOCH_LINE = re.compile(r"epoch (\d+): objective (\S+)")


class Proc:
    """A finished child process: exit code, spawn and end times, stderr lines, peak RSS."""

    def __init__(self, argv, env, deadline):
        self.lines: list[tuple[float, str]] = []
        self.start = perf_counter()
        p = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sys.stderr, stderr=subprocess.PIPE,
                             text=True)
        reader = threading.Thread(target=self._read, args=(p.stderr,))
        reader.start()
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(p.pid, os.WNOHANG)
                if pid:
                    break
                if perf_counter() > deadline:
                    p.kill()
                time.sleep(0.02)
        finally:
            if not pid:
                p.kill()
                _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            reader.join()
            p.stderr.close()
        self.code = p.returncode
        self.end = self.eof
        self.rss_mb = usage.ru_maxrss / 1024.0

    def _read(self, stream):
        for line in stream:
            self.lines.append((perf_counter(), line.rstrip("\n")))
            sys.stderr.write(line)
        self.eof = perf_counter()

    def epochs(self) -> list[tuple[float, int, float]]:
        """(time, epoch, objective) of each ``epoch N: objective X`` log line."""
        out = []
        for t, line in self.lines:
            m = EPOCH_LINE.search(line)
            if m:
                out.append((t, int(m.group(1)), float(m.group(2))))
        return out

    def time_of(self, text: str) -> float:
        return next(t for t, line in self.lines if text in line)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "trine.cli", *map(str, args)]


def make_inputs(w, seed: int, work: Path, env, deadline) -> tuple[Path, list[int]]:
    """The workload's edge list and its edge count per relation (12, 23, 13)."""
    if w.graph == "accept":
        path = work / "accept.txt"
        made = Proc(cli("synth", *ACCEPT_SYNTH, "--out", path, "--quiet"), env, deadline)
        if made.code != 0:
            raise RuntimeError("trine synth failed")
        return path, []
    path = work / "paper.txt"
    return path, plant.paper_graph(seed, path)


def cli_pair(w, seed, graph, work, env, deadline, train: dict) -> tuple[Proc, Proc, Path, Path]:
    emb, report = work / "emb.txt", work / "report.txt"
    tr = Proc(cli("train", "--edges", graph, "--out", emb, "--seed", seed, *cli_flags(train)),
              env, deadline)
    ev = Proc(cli("evaluate", "--edges", graph, "--embeddings", emb, "--relation", RELATION,
                  "--folds", CLI_FOLDS, "--seed", seed, "--report", report, "--quiet"), env, deadline)
    return tr, ev, emb, report


def e2e_round(w, seed, graph, work, env, deadline, trace: bool) -> dict:
    out = work / "round.json"
    argv = [sys.executable, str(BENCH / "round.py"), "e2e", "--workload", w.name, "--seed", str(seed),
            "--graph", str(graph), "--work", str(work), "--out", str(out)] + (["--trace"] if trace else [])
    proc = Proc(argv, env, deadline)
    if proc.code != 0:
        n_ops = w.setup_folds + (len(CONTROL_SEEDS) if w.name == "accept" else 0)
        return {"attempted": n_ops, "failed": n_ops, "failed_checks": [], "crashed": True}
    r = json.loads(out.read_text())
    r["train_edges_per_s"] = r["train_edges"] / r["sgd_s"]
    for seed, value in r["controls"].items():
        print(f"random-embedding control, seed {seed}: mean auc_roc = {value:.4f} "
              f"over {FOLDS} folds", file=sys.stderr)
    if trace:
        # The CLI layer on this workload's graph and settings, one epoch.
        t = perf_counter()
        tr, ev, _, _ = cli_pair(w, seed, graph, work, env, deadline, dict(w.train, epochs=1))
        r["layers"]["cli.train_s"] = tr.end - tr.start
        r["layers"]["cli.evaluate_s"] = ev.end - ev.start
        r["attempted"] += 2
        r["failed"] += (tr.code != 0) + (ev.code != 0)
        r["trace_s"] += perf_counter() - t
    return r


def cli_round(w, seed, graph, edges, work, env, deadline, trace: bool) -> dict:
    tr, ev, emb, report_path = cli_pair(w, seed, graph, work, env, deadline, w.train)
    epochs = tr.epochs()
    report = {}
    if ev.code == 0:
        report = dict(line.split(" = ") for line in report_path.read_text().splitlines())
    n_pos = edges[2]
    folds = [float(report.get(f"fold{f}_auc_roc", "nan")) for f in range(CLI_FOLDS)]
    train_ok = {
        "objective_rises": len(epochs) > 1 and epochs[-1][2] > epochs[0][2],
        "embedding_file_complete": tr.code == 0 and embedding_file_ok(emb, dim=w.train["dim"]),
    }
    eval_ok = {
        "report_n_positive": report.get("n_positive") == str(n_pos),
        "report_n_negative": report.get("n_negative") == str(math.ceil(NEG_RATIO * n_pos)),
        "report_mean_of_folds": abs(statistics.mean(folds) - float(report.get("mean_auc_roc", "nan"))) <= 1e-8,
    }
    r = {"attempted": 2, "failed": 0, "failed_checks": []}
    if tr.code == 0 and ev.code == 0 and len(epochs) > 1:
        r.update(
            wall_s=ev.end - tr.start,
            setup_s=epochs[0][0] - tr.start,
            train_edges_per_s=sum(edges) * epochs[-1][1] / (epochs[-1][0] - epochs[0][0]),
            peak_rss_mb=max(tr.rss_mb, ev.rss_mb),
            auc_roc=float(report["mean_auc_roc"]),
            auc_pr=float(report["mean_auc_pr"]),
        )
    else:
        r["crashed"] = True
    if trace and not r.get("crashed"):
        t = perf_counter()
        out = work / "probe.json"
        probe = Proc([sys.executable, str(BENCH / "round.py"), "probe", "--workload", w.name,
                      "--seed", str(seed), "--graph", str(graph), "--work", str(work), "--out", str(out),
                      "--embeddings", str(emb), "--report", str(report_path)], env, deadline)
        r["layers"] = {}
        if probe.code == 0:
            p = json.loads(out.read_text())
            for name in ("hits_fixed_point", "walks_follow_metapaths", "negatives_admissible"):
                train_ok[name] = p["checks"][name]
            for name in ("auc_recount", "no_leakage"):
                eval_ok[name] = p["checks"][name]
            r["layers"].update(p["layers"])
        r["layers"].update({
            "cli.train_s": tr.end - tr.start,
            "cli.evaluate_s": ev.end - ev.start,
            "trainer.setup_s": epochs[0][0] - tr.time_of("loaded graph"),
            "trainer.epoch_s": statistics.median(b[0] - a[0] for a, b in zip(epochs, epochs[1:])),
        })
        r["trace_s"] = perf_counter() - t
        r["attempted"] += 1
        r["failed"] += probe.code != 0
    for code, ok in ((tr.code, train_ok), (ev.code, eval_ok)):
        bad = [name for name, passed in ok.items() if not passed]
        r["failed_checks"] += bad
        r["failed"] += code != 0 or bool(bad)
    return r


def embedding_file_ok(path: Path, dim: int) -> bool:
    labels = {f"{ch}{i}" for p, ch in enumerate(plant.TYPE_CHARS) for i in range(plant.PAPER_COUNTS[p])}
    return checks.embedding_file_complete(path, labels, dim)


PER_LAYER_UNITS = {
    "graph.load_s": "s", "graph.without_edges_s": "s", "centrality.hits_s": "s",
    "walks.generate_s": "s", "walks.filter_s": "s", "walks.cut_short": "count",
    "sampling.build_s": "s", "sampling.bucket_entries": "count", "sampling.sample_us": "us",
    "sampling.restricted_centers": "count", "sampling.empty_centers": "count",
    "trainer.setup_s": "s", "trainer.epoch_s": "s", "trainer.loss_s": "s",
    "trainer.save_s": "s", "trainer.load_s": "s", "evaluation.dataset_s": "s",
    "evaluation.fit_s": "s", "evaluation.metrics_s": "s", "cli.train_s": "s",
    "cli.evaluate_s": "s", "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind through the finally blocks that kill and reap children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    deadline = perf_counter() + DEADLINE_S
    env = child_env()
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        graph, edges = make_inputs(w, args.seed, work, env, deadline)
        rounds = []
        t0 = perf_counter()
        while True:
            t_round = perf_counter()
            if w.name == "cli":
                rounds.append(cli_round(w, args.seed, graph, edges, work, env, deadline, trace))
            else:
                rounds.append(e2e_round(w, args.seed, graph, work, env, deadline, trace))
            now = perf_counter()
            if now - t0 + (now - t_round) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [r for r in rounds if not r.get("crashed")]
    failed_checks = sorted({c for r in rounds for c in r["failed_checks"]})
    if failed_checks:
        print("failed checks: " + ", ".join(failed_checks), file=sys.stderr)
    if not measured:
        print("error: no round completed", file=sys.stderr)
        return 1
    if trace:
        units = PER_LAYER_UNITS
        values = {k: statistics.median(r["layers"][k] for r in measured if k in r["layers"])
                  for k in units if k != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(r["trace_s"] for r in measured)
    else:
        units = E2E_UNITS
        values = {k: statistics.median(r[k] for r in measured) for k in units}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"{w.name} {k} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {"correct": not set(failed_checks) - KNOWN_FAILURES,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds), "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{w.name}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(result, seed=args.seed, trace=args.trace, rounds=len(rounds),
                                 failed_checks=failed_checks,
                                 controls=[r.get("controls") for r in measured])) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
