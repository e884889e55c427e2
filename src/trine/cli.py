"""Command-line interface wiring ingestion, training, walks, and evaluation.

Configuration precedence is flag > config file > built-in default. Config
files are line-oriented ``key = value`` text with ``#`` comments; keys match
the long flag names with underscores.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, fields

from . import centrality, evaluation, synth
from .centrality import hits
from .errors import ConfigError, TrineError
from .evaluation import evaluate, evaluate_end_to_end
from .graph import DEFAULT_SCHEMA, RELATION_NAMES, Schema, TripartiteGraph, load_edge_list
from .trainer import TrainConfig, default_metapaths, load_embeddings, save_embeddings, train
from .walks import generate_corpus, write_walks

log = logging.getLogger("trine")


_TRAIN = TrainConfig()


@dataclass
class RunConfig:
    """Every tunable of every subcommand, with its default.

    A default that another module owns (``TrainConfig``, HITS, the link
    evaluation) is read from there, so each is written once.
    """

    edges: str | None = None
    out: str | None = None
    embeddings: str | None = None
    report: str | None = None
    metapath: tuple[str, ...] = tuple(m.describe() for m in default_metapaths())
    type_chars: str = "".join(DEFAULT_SCHEMA.type_chars)
    dim: int = _TRAIN.dim
    alpha1: float = _TRAIN.alpha[0]
    alpha2: float = _TRAIN.alpha[1]
    alpha3: float = _TRAIN.alpha[2]
    beta1: float = _TRAIN.beta[0]
    beta2: float = _TRAIN.beta[1]
    beta3: float = _TRAIN.beta[2]
    lr: float = _TRAIN.lr
    gamma: float = _TRAIN.gamma
    negatives: int = _TRAIN.negatives
    window: int = _TRAIN.window
    walk_length: int = _TRAIN.walk_length
    min_walks: int = _TRAIN.min_walks
    max_walks: int = _TRAIN.max_walks
    walk_scale: float | None = _TRAIN.walk_scale
    power: float = _TRAIN.power
    epochs: int = _TRAIN.epochs
    tol: float = _TRAIN.tol
    seed: int = _TRAIN.seed
    lr_decay: bool = _TRAIN.lr_decay
    relation: str = "13"
    folds: int = evaluation.DEFAULT_FOLDS
    neg_ratio: float = evaluation.DEFAULT_NEG_RATIO
    l2: float = evaluation.DEFAULT_L2
    max_iter: int = centrality.DEFAULT_MAX_ITER
    hits_tol: float = centrality.DEFAULT_TOL
    users: int = 300
    tags: int = 60
    items: int = 30
    communities: int = 3
    p_in: float = 0.3
    p_out: float = 0.02
    activity_spread: float = synth.DEFAULT_ACTIVITY_SPREAD


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_optional_float(text: str):
    t = text.strip().lower()
    return None if t in ("auto", "none") else float(t)


def _parse_metapaths(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


_PARSERS = {
    str: lambda t: t.strip(),
    int: lambda t: int(t.strip()),
    float: lambda t: float(t.strip()),
    bool: _parse_bool,
}


def _field_parser(name: str):
    if name == "metapath":
        return _parse_metapaths
    if name == "walk_scale":
        return _parse_optional_float
    for f in fields(RunConfig):
        if f.name == name:
            if f.type in ("str | None",):
                return _PARSERS[str]
            for py_type, fn in _PARSERS.items():
                if f.type == py_type.__name__:
                    return fn
    return None


def read_config_file(path) -> dict:
    """Parse a ``key = value`` config file, rejecting unknown keys."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            parser = _field_parser(key)
            if parser is None:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
    return values


def dump_config(cfg: RunConfig) -> str:
    """Render the effective configuration so it re-parses to an equal RunConfig.

    Fields holding None are omitted (absent key = default None on reparse).
    """
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "metapath":
            text = ",".join(value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = f"{value:.9g}"
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file (flags override it)")
    p.add_argument("--save-config", dest="save_config", help="write the effective config here")
    p.add_argument("--seed", type=int, help="global RNG seed")
    p.add_argument("--quiet", action="store_true", help="only warnings and errors")


def _add_graph_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", help="edge-list file")
    p.add_argument("--type-chars", dest="type_chars", help="three label prefixes, e.g. upc")


def _add_walk_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metapath", action="append", help="metapath as type chars (repeatable)")
    p.add_argument("--walk-length", dest="walk_length", type=int)
    p.add_argument("--min-walks", dest="min_walks", type=int)
    p.add_argument("--max-walks", dest="max_walks", type=int)
    p.add_argument("--walk-scale", dest="walk_scale", type=float)


def _add_train_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--window", type=int, help="skip-gram window size")
    p.add_argument("--negatives", type=int, help="negative samples per pair")
    p.add_argument("--power", type=float, help="negative-table exponent")
    p.add_argument("--lr", type=float, help="SGD learning rate")
    p.add_argument("--lr-decay", dest="lr_decay", action="store_const", const=True)
    p.add_argument("--gamma", type=float, help="explicit-gradient scale")
    p.add_argument("--epochs", type=int)
    p.add_argument("--tol", type=float, help="relative loss-change stop")
    for i in (1, 2, 3):
        p.add_argument(f"--alpha{i}", type=float, help=f"implicit weight, party {i}")
        p.add_argument(f"--beta{i}", type=float, help=f"explicit weight, relation {i}")


def _add_eval_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--relation", choices=RELATION_NAMES, help="target relation (party pair)")
    p.add_argument("--folds", type=int)
    p.add_argument("--neg-ratio", dest="neg_ratio", type=float)
    p.add_argument("--l2", type=float, help="classifier L2 penalty")
    p.add_argument("--report", help="write key = value metrics here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trine",
                                     description="Tripartite network embedding and link prediction")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="learn embeddings and write them to a file")
    _add_graph_opts(p)
    _add_walk_opts(p)
    _add_train_opts(p)
    p.add_argument("--out", help="embedding output file (context vectors go to <out>.ctx)")
    _add_common(p)

    p = sub.add_parser("walks", help="write the metapath-guided walk corpus")
    _add_graph_opts(p)
    _add_walk_opts(p)
    p.add_argument("--out", help="walks output file")
    _add_common(p)

    p = sub.add_parser("hits", help="print HITS centrality, highest first")
    _add_graph_opts(p)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--hits-tol", dest="hits_tol", type=float)
    p.add_argument("--out", help="write scores here instead of stdout")
    _add_common(p)

    p = sub.add_parser("evaluate", help="cross-validated link prediction from an embedding file")
    _add_graph_opts(p)
    p.add_argument("--embeddings", help="embedding file from `train`")
    _add_eval_opts(p)
    _add_common(p)

    p = sub.add_parser("e2e", help="leakage-safe train + evaluate per fold")
    _add_graph_opts(p)
    _add_walk_opts(p)
    _add_train_opts(p)
    _add_eval_opts(p)
    _add_common(p)

    p = sub.add_parser("synth", help="generate a planted-community benchmark graph")
    p.add_argument("--users", type=int)
    p.add_argument("--tags", type=int)
    p.add_argument("--items", type=int)
    p.add_argument("--communities", type=int)
    p.add_argument("--p-in", dest="p_in", type=float)
    p.add_argument("--p-out", dest="p_out", type=float)
    p.add_argument("--activity-spread", dest="activity_spread", type=float)
    p.add_argument("--type-chars", dest="type_chars")
    p.add_argument("--out", help="edge-list output file")
    _add_common(p)

    return parser


def parse_config(argv: list[str]) -> tuple[str, RunConfig, dict]:
    """Parse argv into (subcommand, effective RunConfig, meta options)."""
    ns = build_parser().parse_args(argv)
    file_values = read_config_file(ns.config) if getattr(ns, "config", None) else {}
    known = {f.name for f in fields(RunConfig)}
    merged = dict(file_values)
    for key, value in vars(ns).items():
        if key in known and value is not None:
            merged[key] = tuple(value) if key == "metapath" else value
    cfg = RunConfig(**merged)
    meta = {
        "save_config": getattr(ns, "save_config", None),
        "quiet": bool(getattr(ns, "quiet", False)),
        "config": getattr(ns, "config", None),
    }
    return ns.subcommand, cfg, meta


def _schema(cfg: RunConfig) -> Schema:
    chars = cfg.type_chars
    if len(chars) != 3:
        raise ConfigError(f"--type-chars needs exactly three characters, got {chars!r}")
    return Schema(type_chars=tuple(chars))


def _train_config(cfg: RunConfig) -> TrainConfig:
    shared = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig) if f.name not in ("alpha", "beta")}
    tc = TrainConfig(alpha=(cfg.alpha1, cfg.alpha2, cfg.alpha3), beta=(cfg.beta1, cfg.beta2, cfg.beta3),
                     **shared)
    tc.validate()
    return tc


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def _load_graph(cfg: RunConfig) -> TripartiteGraph:
    _require(cfg, "edges")
    g = load_edge_list(cfg.edges, _schema(cfg))
    log.info("loaded graph: %s nodes %s, %d edges", "/".join(str(c) for c in g.counts),
             g.schema.party_names, g.num_edges)
    return g


def _metapaths(cfg: RunConfig, schema: Schema):
    if not cfg.metapath:
        raise ConfigError("need at least one --metapath")
    return [schema.metapath(m) for m in cfg.metapath]


def run(subcommand: str, cfg: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    log.info("effective configuration:")
    for line in dump_config(cfg).splitlines():
        log.info("  %s", line)

    if subcommand == "synth":
        _require(cfg, "out")
        g = synth.planted_graph((cfg.users, cfg.tags, cfg.items), cfg.communities,
                                cfg.p_in, cfg.p_out, cfg.seed, cfg.activity_spread,
                                _schema(cfg))
        synth.write_edge_list(g, cfg.out)
        log.info("wrote %s: %s nodes, %d edges", cfg.out,
                 "/".join(str(c) for c in g.counts), g.num_edges)
        return 0

    if subcommand == "hits":
        g = _load_graph(cfg)
        scores = hits(g, cfg.max_iter, cfg.hits_tol)
        ordered = sorted(g.nodes(), key=lambda n: (-scores.of(n), n.party, n.index))
        lines = [f"{g.label_of(n)} {scores.of(n):.9g}" for n in ordered]
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            print("\n".join(lines))
        return 0

    if subcommand == "walks":
        _require(cfg, "out")
        g = _load_graph(cfg)
        schema = _schema(cfg)
        tc = _train_config(cfg)
        scores = hits(g)
        corpus = generate_corpus(g, _metapaths(cfg, schema), scores, tc.min_walks,
                                 tc.max_walks, tc.walk_scale, tc.walk_length, tc.seed)
        write_walks(corpus, g, cfg.out)
        log.info("wrote %d walks to %s", len(corpus), cfg.out)
        return 0

    if subcommand == "train":
        _require(cfg, "out")
        g = _load_graph(cfg)
        schema = _schema(cfg)
        tc = _train_config(cfg)
        store = train(g, _metapaths(cfg, schema), tc,
                      on_epoch=lambda e, r: log.info("epoch %d: objective %.6g", e, r.total))
        save_embeddings(store, cfg.out, cfg.out + ".ctx")
        log.info("wrote embeddings to %s (+ context vectors to %s.ctx)", cfg.out, cfg.out)
        return 0

    if subcommand == "evaluate":
        _require(cfg, "embeddings")
        g = _load_graph(cfg)
        store = load_embeddings(cfg.embeddings, _schema(cfg)).reindexed_to(g)
        relation = RELATION_NAMES.index(cfg.relation)
        report = evaluate(store, g, relation, cfg.folds, cfg.neg_ratio, cfg.seed, cfg.l2)
        _emit_report(report, cfg)
        return 0

    if subcommand == "e2e":
        g = _load_graph(cfg)
        schema = _schema(cfg)
        tc = _train_config(cfg)
        relation = RELATION_NAMES.index(cfg.relation)
        report = evaluate_end_to_end(g, _metapaths(cfg, schema), tc, relation,
                                     cfg.folds, cfg.neg_ratio, cfg.l2)
        _emit_report(report, cfg)
        return 0

    raise ConfigError(f"unknown subcommand {subcommand!r}")


def _emit_report(report, cfg: RunConfig) -> None:
    print("\n".join(report.lines()))
    if cfg.report:
        with open(cfg.report, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.key_values()) + "\n")
        log.info("wrote report to %s", cfg.report)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        subcommand, cfg, meta = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(
        level=logging.WARNING if meta["quiet"] else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if meta["save_config"]:
        with open(meta["save_config"], "w", encoding="utf-8") as fh:
            fh.write(dump_config(cfg))
    try:
        return run(subcommand, cfg)
    except TrineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
