"""Command-line interface wiring ingestion, training, walks, and evaluation.

Configuration precedence is flag > config file > built-in default. Config
files are line-oriented ``key = value`` text with ``#`` comments; keys match
the long flag names with underscores.

Each option is declared once, as a ``RunConfig`` field: its default, help
text and subcommands. The field's annotation selects one ``_Kind``, which
parses the option's flag and its config-file value alike and writes it back
for ``--save-config``.
"""

from __future__ import annotations

import argparse
import logging
import sys
import typing
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

from . import centrality, evaluation, synth
from .centrality import hits
from .errors import ConfigError, TrineError
from .evaluation import evaluate, evaluate_end_to_end
from .graph import DEFAULT_SCHEMA, RELATION_NAMES, Schema, TripartiteGraph, load_edge_list
from .trainer import TrainConfig, default_metapaths, load_embeddings, save_embeddings, train
from .walks import generate_corpus, write_walks

log = logging.getLogger("trine")


_TRAIN = TrainConfig()

_SUBCOMMANDS = {
    "train": "learn embeddings and write them to a file",
    "walks": "write the metapath-guided walk corpus",
    "hits": "print HITS centrality, highest first",
    "evaluate": "cross-validated link prediction from an embedding file",
    "e2e": "leakage-safe train + evaluate per fold",
    "synth": "generate a planted-community benchmark graph",
}
_EVERY = tuple(_SUBCOMMANDS)
_ON_GRAPH = ("train", "walks", "hits", "evaluate", "e2e")
_WALKING = ("train", "walks", "e2e")
_TRAINING = ("train", "e2e")
_SCORING = ("evaluate", "e2e")


def _option(default, subcommands: tuple[str, ...], help: str, **flag):
    """A RunConfig field that is the flag ``--<name>`` (dashes for underscores) of ``subcommands``.

    ``flag`` holds further ``add_argument`` settings; ``choices`` is checked
    on config-file values too.
    """
    return field(default=default, metadata={"subcommands": subcommands, "help": help, **flag})


@dataclass
class RunConfig:
    """Every tunable of every subcommand, with its default.

    A default that another module owns (``TrainConfig``, HITS, the link
    evaluation) is read from there, so each is written once.
    """

    edges: str | None = _option(None, _ON_GRAPH, "edge-list file")
    out: str | None = _option(None, ("train", "walks", "hits", "synth"),
                              "output file: embeddings (train; context vectors go to <out>.ctx), "
                              "walks, HITS scores (default stdout) or the synth edge list")
    embeddings: str | None = _option(None, ("evaluate",), "embedding file from `train`")
    report: str | None = _option(None, _SCORING, "write key = value metrics here")
    metapath: tuple[str, ...] = _option(tuple(m.describe() for m in default_metapaths()), _WALKING,
                                        "metapath as type chars (repeatable, or comma-separated)")
    type_chars: str = _option("".join(DEFAULT_SCHEMA.type_chars), _EVERY,
                              "three label prefixes, e.g. upc")
    dim: int = _option(_TRAIN.dim, _TRAINING, "embedding dimension")
    alpha1: float = _option(_TRAIN.alpha[0], _TRAINING, "implicit weight, party 1")
    alpha2: float = _option(_TRAIN.alpha[1], _TRAINING, "implicit weight, party 2")
    alpha3: float = _option(_TRAIN.alpha[2], _TRAINING, "implicit weight, party 3")
    beta1: float = _option(_TRAIN.beta[0], _TRAINING, "explicit weight, relation 1")
    beta2: float = _option(_TRAIN.beta[1], _TRAINING, "explicit weight, relation 2")
    beta3: float = _option(_TRAIN.beta[2], _TRAINING, "explicit weight, relation 3")
    lr: float = _option(_TRAIN.lr, _TRAINING, "SGD learning rate")
    gamma: float = _option(_TRAIN.gamma, _TRAINING, "explicit-gradient scale")
    negatives: int = _option(_TRAIN.negatives, _TRAINING, "negative samples per pair")
    window: int = _option(_TRAIN.window, _TRAINING, "skip-gram window size")
    walk_length: int = _option(_TRAIN.walk_length, _WALKING, "walk length")
    min_walks: int = _option(_TRAIN.min_walks, _WALKING, "fewest walks per start node")
    max_walks: int = _option(_TRAIN.max_walks, _WALKING, "most walks per start node")
    walk_scale: float | None = _option(_TRAIN.walk_scale, _WALKING,
                                       "walk-budget scale, or auto for the node count")
    power: float = _option(_TRAIN.power, _TRAINING, "negative-table exponent")
    epochs: int = _option(_TRAIN.epochs, _TRAINING, "training epochs")
    tol: float = _option(_TRAIN.tol, _TRAINING, "relative loss-change stop")
    seed: int = _option(_TRAIN.seed, _EVERY, "global RNG seed")
    lr_decay: bool = _option(_TRAIN.lr_decay, _TRAINING, "decay the learning rate linearly")
    relation: str = _option("13", _SCORING, "target relation (party pair)", choices=RELATION_NAMES)
    folds: int = _option(evaluation.DEFAULT_FOLDS, _SCORING, "cross-validation folds")
    neg_ratio: float = _option(evaluation.DEFAULT_NEG_RATIO, _SCORING,
                               "negatives per positive link")
    l2: float = _option(evaluation.DEFAULT_L2, _SCORING, "classifier L2 penalty")
    max_iter: int = _option(centrality.DEFAULT_MAX_ITER, ("hits",), "most HITS iterations")
    hits_tol: float = _option(centrality.DEFAULT_TOL, ("hits",), "HITS convergence tolerance")
    users: int = _option(300, ("synth",), "user count")
    tags: int = _option(60, ("synth",), "tag count")
    items: int = _option(30, ("synth",), "item count")
    communities: int = _option(3, ("synth",), "planted communities")
    p_in: float = _option(0.3, ("synth",), "link probability inside a community")
    p_out: float = _option(0.02, ("synth",), "link probability across communities")
    activity_spread: float = _option(synth.DEFAULT_ACTIVITY_SPREAD, ("synth",),
                                     "heavy-to-casual user activity ratio")


def _boolean(text: str) -> bool:
    t = text.lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def float_or_auto(text: str) -> float | None:
    return None if text.strip().lower() in ("auto", "none") else float(text)


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


class _Concat(argparse.Action):
    """A repeatable flag whose value is the concatenation of every use's tuple."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, getattr(namespace, self.dest, ()) + values)


class _Kind(NamedTuple):
    parse: Callable[[str], object]   # flag or config-file text -> value
    format: Callable[[object], str]  # value -> text that ``parse`` maps back to it
    flag: dict                       # how argparse takes the flag


def _kind(parse, format=str, **flag) -> _Kind:
    return _Kind(parse, format, flag or {"type": parse})


_KINDS = {
    str: _kind(str),
    str | None: _kind(str),
    int: _kind(int),
    float: _kind(float, repr),
    float | None: _kind(float_or_auto, repr),
    # a switch: the flag turns it on, a config file says true or false
    bool: _kind(_boolean, lambda v: "true" if v else "false", action="store_const", const=True),
    tuple[str, ...]: _kind(_comma_list, ",".join, type=_comma_list, action=_Concat),
}
_FIELDS = {f.name: f for f in fields(RunConfig)}
_KIND = {name: _KINDS[hint] for name, hint in typing.get_type_hints(RunConfig).items()}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


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
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                value = _KIND[key].parse(text.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
            choices = _FIELDS[key].metadata.get("choices")
            if choices is not None and value not in choices:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {value!r} is not one of "
                                  + ", ".join(choices))
            values[key] = value
    return values


def _texts(cfg: RunConfig) -> dict[str, str]:
    """Each field's config-file text, by key; fields holding None are omitted."""
    return {name: _KIND[name].format(getattr(cfg, name)) for name in sorted(_KIND)
            if getattr(cfg, name) is not None}


def dump_config(cfg: RunConfig) -> str:
    """Render the effective configuration so it re-parses to an equal RunConfig.

    Fields holding None are omitted (absent key = default None on reparse).
    """
    return "".join(f"{name} = {text}\n" for name, text in _texts(cfg).items())


def save_config(cfg: RunConfig, path) -> None:
    """Write ``dump_config(cfg)`` to ``path``.

    ConfigError, and no file, if a value's text would not read back as
    itself: ``read_config_file`` ends a value at ``#`` or a line break and
    strips blanks around it.
    """
    for name, text in _texts(cfg).items():
        if any(c in text for c in "#\n\r") or text != text.strip():
            raise ConfigError(f"cannot save {name} = {text!r}: a config-file value cannot hold "
                              "'#' or a line break, or start or end with blanks")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trine",
                                     description="Tripartite network embedding and link prediction")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, about in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=about)
        for name, f in _FIELDS.items():
            opts = dict(f.metadata)
            if command in opts.pop("subcommands"):
                # SUPPRESS leaves a flag not given out of the namespace, so
                # a flag can set any value, None included, over the file's
                p.add_argument(_flag(name), default=argparse.SUPPRESS, **opts, **_KIND[name].flag)
        p.add_argument("--config", help="key = value config file (flags override it)")
        p.add_argument("--save-config", help="write the effective config here")
        p.add_argument("--quiet", action="store_true", help="only warnings and errors")
    return parser


def parse_config(argv: list[str]) -> tuple[str, RunConfig, dict]:
    """Parse argv into (subcommand, effective RunConfig, meta options)."""
    ns = build_parser().parse_args(argv)
    values = read_config_file(ns.config) if ns.config else {}
    values.update((key, value) for key, value in vars(ns).items() if key in _FIELDS)
    cfg = RunConfig(**values)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    return ns.subcommand, cfg, {"save_config": ns.save_config, "quiet": ns.quiet}


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
            raise ConfigError(f"missing required option {_flag(name)}")


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
    try:
        if meta["save_config"]:
            save_config(cfg, meta["save_config"])
        return run(subcommand, cfg)
    except TrineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
