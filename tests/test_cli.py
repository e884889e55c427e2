import argparse
import inspect
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trine import centrality, evaluation
from trine.cli import (RunConfig, _train_config, build_parser, dump_config, main, parse_config,
                       read_config_file)
from trine.graph import load_edge_list
from trine.trainer import TrainConfig

from conftest import assert_blocks_list_the_edges, run_bounded


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def six_node_edges(tmp_path):
    path = tmp_path / "six.txt"
    path.write_text(
        "u0 p0 1.0\nu0 p1 1.0\nu1 p0 2.0\np0 c0 1.0\np1 c1 1.0\nu0 c0 1.0\nu1 c1 1.0\n"
    )
    return path


@pytest.fixture
def synth_edges(tmp_path):
    path = tmp_path / "synth.txt"
    code = run_cli("synth", "--users", "30", "--tags", "12", "--items", "9",
                   "--communities", "3", "--p-in", "0.5", "--p-out", "0.05",
                   "--seed", "5", "--out", str(path), "--quiet")
    assert code == 0
    return path


# Every subcommand's flags as they stood before the options were declared in
# RunConfig: each flag's dest is its name with underscores, --relation alone
# has choices, and --lr-decay and --quiet take no value.
_META = ["--config", "--save-config", "--seed", "--quiet"]
_GRAPH = ["--edges", "--type-chars"]
_WALK = ["--metapath", "--walk-length", "--min-walks", "--max-walks", "--walk-scale"]
_TRAIN = ["--dim", "--window", "--negatives", "--power", "--lr", "--lr-decay", "--gamma",
          "--epochs", "--tol", "--alpha1", "--beta1", "--alpha2", "--beta2", "--alpha3", "--beta3"]
_EVAL = ["--relation", "--folds", "--neg-ratio", "--l2", "--report"]
SUBCOMMAND_FLAGS = {
    "train": _GRAPH + _WALK + _TRAIN + ["--out"] + _META,
    "walks": _GRAPH + _WALK + ["--out"] + _META,
    "hits": _GRAPH + ["--max-iter", "--hits-tol", "--out"] + _META,
    "evaluate": _GRAPH + ["--embeddings"] + _EVAL + _META,
    "e2e": _GRAPH + _WALK + _TRAIN + _EVAL + _META,
    "synth": ["--users", "--tags", "--items", "--communities", "--p-in", "--p-out",
              "--activity-spread", "--type-chars", "--out"] + _META,
}
FLAG_CHOICES = {"--relation": ("12", "23", "13")}
SWITCHES = {"--lr-decay", "--quiet"}


def subparsers() -> dict:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# (subcommand, bad option, exit status): 2 for a ConfigError, 1 for an EvalError
BAD_OPTIONS = [
    ("train", ["--walk-scale", "nan"], 2),
    ("train", ["--walk-scale", "inf"], 2),
    ("train", ["--power", "nan"], 2),
    ("train", ["--lr", "nan"], 2),
    ("train", ["--lr", "inf"], 2),
    ("train", ["--gamma", "nan"], 2),
    ("train", ["--alpha1", "nan"], 2),
    ("evaluate", ["--l2", "nan"], 1),
    ("evaluate", ["--neg-ratio", "nan"], 1),
    ("evaluate", ["--neg-ratio", "inf"], 1),
    ("synth", ["--p-in", "2"], 2),
    ("synth", ["--communities", "0"], 2),
    ("synth", ["--activity-spread", "0.5"], 2),
    ("synth", ["--users", "-3"], 2),
    ("walks", ["--walk-length", "0"], 2),
    # the loader reads '#' as a comment and whitespace as a field separator
    ("walks", ["--type-chars", "#pc"], 2),
    ("train", ["--type-chars", "u\tc"], 2),
    ("synth", ["--type-chars", "up "], 2),
    *((command, ["--seed", "-1"], 2) for command in ("synth", "walks", "train", "evaluate", "e2e")),
]


class TestParseConfig:
    def test_defaults(self):
        sub, cfg, meta = parse_config(["train"])
        assert sub == "train"
        assert cfg.dim == 128
        assert cfg.metapath == ("upcpu", "cpupc")
        assert cfg.edges is None

    def test_flag_overrides_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dim = 64\nwindow = 3\n")
        _, cfg, _ = parse_config(["train", "--config", str(conf), "--dim", "128"])
        assert cfg.dim == 128   # flag wins
        assert cfg.window == 3  # file wins over default

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dimension = 64\n")
        with pytest.raises(Exception, match="unknown config key"):
            parse_config(["train", "--config", str(conf)])

    def test_bad_value_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dim = lots\n")
        with pytest.raises(Exception, match="bad value"):
            parse_config(["train", "--config", str(conf)])

    def test_comments_and_blanks(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment\n\nseed = 9  # trailing comment\n")
        assert read_config_file(conf) == {"seed": 9}

    def test_config_round_trip(self, tmp_path):
        cfg = RunConfig(dim=48, metapath=("upu", "cpc"), walk_scale=None,
                        lr=0.0125, lr_decay=True, edges="graph.txt", seed=33)
        conf = tmp_path / "dump.conf"
        conf.write_text(dump_config(cfg))
        reparsed = RunConfig(**read_config_file(conf))
        assert reparsed == cfg

    def test_default_metapaths_follow_type_chars(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("type_chars = xyz\n")
        for argv in (["walks", "--type-chars", "xyz"], ["e2e", "--config", str(conf)]):
            _, cfg, _ = parse_config(argv)
            assert cfg.metapath == ("xyzyx", "zyxyz")
        _, cfg, _ = parse_config(["train", "--type-chars", "xyz", "--metapath", "upcpu"])
        assert cfg.metapath == ("upcpu",)

    def test_metapath_repeatable_flag(self):
        _, cfg, _ = parse_config(["walks", "--metapath", "upu", "--metapath", "cpc"])
        assert cfg.metapath == ("upu", "cpc")

    def test_walk_scale_flag_auto_overrides_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("walk_scale = 2\n")
        _, cfg, _ = parse_config(["train", "--config", str(conf)])
        assert cfg.walk_scale == 2.0
        _, cfg, _ = parse_config(["train", "--config", str(conf), "--walk-scale", "auto"])
        assert cfg.walk_scale is None

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dump_round_trips_every_float(self, tmp_path_factory, data):
        floats = [f.name for f in fields(RunConfig) if isinstance(getattr(RunConfig(), f.name), float)
                  or f.name == "walk_scale"]
        values = data.draw(st.fixed_dictionaries(
            {name: st.floats(allow_nan=False, allow_infinity=False) for name in floats}))
        cfg = RunConfig(**values)
        conf = tmp_path_factory.mktemp("dump") / "dump.conf"
        conf.write_text(dump_config(cfg))
        assert RunConfig(**read_config_file(conf)) == cfg


class TestOptionTable:
    def test_every_subcommand_keeps_its_flags(self):
        subs = subparsers()
        assert list(subs) == list(SUBCOMMAND_FLAGS)
        for name, parser in subs.items():
            actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
            assert sorted(a.option_strings[0] for a in actions) == sorted(SUBCOMMAND_FLAGS[name]), name
            for a in actions:
                flag = a.option_strings[0]
                assert a.option_strings == [flag]
                assert a.dest == flag[2:].replace("-", "_")
                assert (tuple(a.choices) if a.choices else None) == FLAG_CHOICES.get(flag), flag
                assert (a.nargs == 0) == (flag in SWITCHES), flag

    def test_every_field_parses_equal_from_flag_and_file(self, tmp_path):
        samples = {int: "7", float: "0.375", str: "abc"}
        conf = tmp_path / "one.conf"
        subs = subparsers()
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            taking = [name for name, p in subs.items() if flag in p._option_string_actions]
            assert taking, f"{f.name} is reachable from no subcommand"
            default = getattr(RunConfig(), f.name)
            if f.name == "lr_decay":
                flag_args, text = [flag], "true"
            elif f.name == "metapath":
                flag_args, text = [flag, "upu", flag, "cpc"], "upu,cpc"
            else:
                kind = float if f.name == "walk_scale" else type(default) if default is not None else str
                text = FLAG_CHOICES[flag][0] if flag in FLAG_CHOICES else samples[kind]
                flag_args = [flag, text]
            conf.write_text(f"{f.name} = {text}\n")
            for sub in taking:
                _, from_flag, _ = parse_config([sub, *flag_args])
                _, from_file, _ = parse_config([sub, "--config", str(conf)])
                assert from_flag == from_file != RunConfig(), (sub, f.name)

    @pytest.mark.parametrize("subcommand", list(SUBCOMMAND_FLAGS))
    def test_help_lists_every_flag(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(subcommand, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in SUBCOMMAND_FLAGS[subcommand]:  # in the usage line, with or without a metavar
            assert f"[{flag} " in out or f"[{flag}]" in out, flag


class TestDefaults:
    def test_train_defaults_are_train_configs(self):
        assert _train_config(RunConfig()) == TrainConfig()

    def test_hits_and_evaluate_defaults_match_their_functions(self):
        cfg = RunConfig()
        hits_defaults = inspect.signature(centrality.hits).parameters
        assert cfg.max_iter == hits_defaults["max_iter"].default
        assert cfg.hits_tol == hits_defaults["tol"].default
        for fn in (evaluation.evaluate, evaluation.evaluate_end_to_end):
            params = inspect.signature(fn).parameters
            assert (cfg.folds, cfg.neg_ratio, cfg.l2) == tuple(
                params[name].default for name in ("folds", "neg_ratio", "l2"))


class TestSubcommands:
    def test_train_without_edges_is_usage_error(self, capsys):
        assert run_cli("train", "--out", "x.txt", "--quiet") == 2
        assert "missing required option --edges" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--no-such-flag")
        assert exc.value.code == 2

    def test_train_writes_embeddings(self, six_node_edges, tmp_path):
        out = tmp_path / "emb.txt"
        code = run_cli("train", "--edges", str(six_node_edges), "--out", str(out),
                       "--dim", "5", "--epochs", "2", "--walk-length", "4",
                       "--max-walks", "1", "--seed", "3", "--quiet")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "6 5"
        assert len(lines) == 7
        assert all(len(line.split()) == 6 for line in lines[1:])
        assert (tmp_path / "emb.txt.ctx").exists()

    def test_train_determinism_byte_identical(self, six_node_edges, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            run_cli("train", "--edges", str(six_node_edges), "--out", str(out),
                    "--dim", "4", "--epochs", "2", "--walk-length", "4",
                    "--max-walks", "2", "--seed", "11", "--quiet")
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_walks_output(self, six_node_edges, tmp_path):
        out = tmp_path / "walks.txt"
        code = run_cli("walks", "--edges", str(six_node_edges), "--out", str(out),
                       "--walk-length", "5", "--max-walks", "2", "--seed", "2", "--quiet")
        assert code == 0
        g = load_edge_list(six_node_edges)
        for line in out.read_text().splitlines():
            labels = line.split()
            assert set(labels) <= {lab for party in g.labels for lab in party}
        run2 = tmp_path / "walks2.txt"
        run_cli("walks", "--edges", str(six_node_edges), "--out", str(run2),
                "--walk-length", "5", "--max-walks", "2", "--seed", "2", "--quiet")
        assert out.read_bytes() == run2.read_bytes()

    def test_walks_on_an_edge_list_without_nodes(self, write_edges, tmp_path, capsys):
        # the default walk scale (the node count, 0 here) writes no walks; an explicit 0 is an error
        edges, out = write_edges(), tmp_path / "walks.txt"
        assert run_cli("walks", "--edges", str(edges), "--out", str(out), "--quiet") == 0
        assert out.read_text() == ""
        code = run_cli("walks", "--edges", str(edges), "--out", str(out), "--walk-scale", "0", "--quiet")
        assert code == 2 and "walk_scale must be positive" in capsys.readouterr().err

    def test_hits_on_an_edge_list_without_nodes(self, write_edges, tmp_path, capsys):
        edges, out = write_edges(), tmp_path / "hits.txt"
        capsys.readouterr()
        assert run_cli("hits", "--edges", str(edges), "--quiet") == 0
        assert capsys.readouterr().out == ""
        assert run_cli("hits", "--edges", str(edges), "--out", str(out), "--quiet") == 0
        assert out.read_text() == ""

    def test_hits_ties_in_party_then_index_order(self, write_edges, capsys):
        # u0 and p0 tie, and so do the isolated u1, c1 and c0; c1 is category 0
        edges = write_edges("u0 p0", "c1", "u1", "c0")
        capsys.readouterr()
        assert run_cli("hits", "--edges", str(edges), "--quiet") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["u0", "p0", "u1", "c1", "c0"]
        assert [line.split()[1] for line in lines] == ["0.707106781"] * 2 + ["0"] * 3

    def test_hits_output_sorted(self, six_node_edges, tmp_path, capsys):
        code = run_cli("hits", "--edges", str(six_node_edges), "--quiet")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        scores = [float(line.split()[1]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_synth_and_ingest(self, synth_edges):
        g = load_edge_list(synth_edges)
        assert g.counts == (30, 12, 9)
        assert g.num_edges > 0
        assert_blocks_list_the_edges(g)

    def test_synth_determinism(self, tmp_path):
        paths = []
        for name in ("s1.txt", "s2.txt"):
            p = tmp_path / name
            run_cli("synth", "--users", "20", "--tags", "8", "--items", "6",
                    "--seed", "4", "--out", str(p), "--quiet")
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_evaluate_from_file(self, synth_edges, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        assert run_cli("train", "--edges", str(synth_edges), "--out", str(emb),
                       "--dim", "6", "--epochs", "2", "--walk-length", "6",
                       "--max-walks", "1", "--seed", "8", "--quiet") == 0
        report = tmp_path / "report.txt"
        code = run_cli("evaluate", "--edges", str(synth_edges), "--embeddings", str(emb),
                       "--relation", "13", "--folds", "3", "--seed", "2",
                       "--report", str(report), "--quiet")
        assert code == 0
        out = capsys.readouterr().out
        assert "mean" in out
        keys = dict(line.split(" = ") for line in report.read_text().splitlines())
        assert keys["folds"] == "3"
        assert 0.0 <= float(keys["mean_auc_roc"]) <= 1.0

    def test_evaluate_diverged_embeddings_is_clean_error(self, synth_edges, tmp_path, capsys):
        # embeddings near 1e81, as a diverged training leaves them: the link
        # features overflow the classifier's step size
        g = load_edge_list(synth_edges)
        emb = tmp_path / "emb.txt"
        rows = [f"{lab} " + " ".join(["1e81"] * 3) for labels in g.labels for lab in labels]
        emb.write_text(f"{len(rows)} 3\n" + "\n".join(rows) + "\n")
        code = run_cli("evaluate", "--edges", str(synth_edges), "--embeddings", str(emb),
                       "--relation", "13", "--folds", "2", "--quiet")
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "lower --lr" in err

    @pytest.mark.parametrize("dim", [0, -1])
    def test_evaluate_rejects_a_header_without_dimensions(self, synth_edges, tmp_path, capsys,
                                                          dim):
        # every node listed by its label alone, under a header of `dim` values per row
        g = load_edge_list(synth_edges)
        rows = [lab for labels in g.labels for lab in labels]
        emb = tmp_path / "emb.txt"
        emb.write_text(f"{len(rows)} {dim}\n" + "\n".join(rows) + "\n")
        code = run_cli("evaluate", "--edges", str(synth_edges), "--embeddings", str(emb),
                       "--relation", "13", "--folds", "2", "--quiet")
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "line 1: bad header" in err, err

    def test_e2e_deterministic_report(self, synth_edges, tmp_path):
        reports = []
        for name in ("r1.txt", "r2.txt"):
            rp = tmp_path / name
            code = run_cli("e2e", "--edges", str(synth_edges), "--relation", "13",
                           "--folds", "3", "--dim", "4", "--epochs", "1",
                           "--walk-length", "4", "--max-walks", "1",
                           "--seed", "7", "--report", str(rp), "--quiet")
            assert code == 0
            reports.append(rp.read_bytes())
        assert reports[0] == reports[1]

    def test_save_config_reparses_equal(self, tmp_path):
        conf = tmp_path / "eff.conf"
        assert run_cli("synth", "--users", "5", "--tags", "4", "--items", "3",
                       "--out", str(tmp_path / "g.txt"), "--seed", "2",
                       "--save-config", str(conf), "--quiet") == 0
        _, cfg_again, _ = parse_config(["synth", "--config", str(conf)])
        assert cfg_again.users == 5 and cfg_again.tags == 4 and cfg_again.items == 3
        assert cfg_again.seed == 2

    @pytest.mark.parametrize("out", ["run#2.txt", " lead.txt", "trail.txt "])
    def test_save_config_refuses_value_that_reads_back_different(self, out, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run_cli("synth", "--users", "5", "--tags", "4", "--items", "3", "--out", out,
                       "--save-config", "eff.conf", "--quiet") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "out = " in err, err
        assert list(tmp_path.iterdir()) == []

    def test_save_config_into_missing_directory_is_one_error_line(self, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli("synth", "--users", "5", "--tags", "4", "--items", "3",
                       "--out", str(tmp_path / "g.txt"),
                       "--save-config", str(tmp_path / "no" / "eff.conf"), "--quiet") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert list(tmp_path.iterdir()) == []

    def test_missing_edge_file_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("hits", "--edges", str(tmp_path / "nope.txt"), "--quiet")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_type_chars(self, six_node_edges, capsys):
        code = run_cli("hits", "--edges", str(six_node_edges), "--type-chars", "up", "--quiet")
        assert code == 2

    def test_default_metapaths_in_other_type_chars(self, six_node_edges, tmp_path):
        # the same graph under type characters x, y, z walks as under u, p, c
        xyz = tmp_path / "xyz.txt"
        xyz.write_text(six_node_edges.read_text().translate(str.maketrans("upc", "xyz")))
        flags = ["--walk-length", "5", "--max-walks", "2", "--seed", "2", "--quiet"]
        assert run_cli("walks", "--edges", str(six_node_edges), "--out", str(tmp_path / "upc.walks"),
                       *flags) == 0
        assert run_cli("walks", "--edges", str(xyz), "--type-chars", "xyz",
                       "--out", str(tmp_path / "xyz.walks"), "--save-config", str(tmp_path / "eff.conf"),
                       *flags) == 0
        walked = (tmp_path / "upc.walks").read_text()
        assert walked and (tmp_path / "xyz.walks").read_text() == walked.translate(str.maketrans("upc", "xyz"))
        assert "metapath = xyzyx,zyxyz\n" in (tmp_path / "eff.conf").read_text()
        assert run_cli("walks", "--edges", str(xyz), "--type-chars", "xyz", "--metapath", "upcpu",
                       "--out", str(tmp_path / "bad.walks"), "--quiet") == 1


class TestBadOptionValues:
    @pytest.fixture
    def embeddings(self, synth_edges, tmp_path):
        emb = tmp_path / "emb.txt"
        assert run_cli("train", "--edges", str(synth_edges), "--out", str(emb), "--dim", "4",
                       "--epochs", "1", "--walk-length", "4", "--max-walks", "1", "--quiet") == 0
        return emb

    @pytest.mark.parametrize("subcommand,option,code", BAD_OPTIONS,
                             ids=[" ".join([c, *o]) for c, o, _ in BAD_OPTIONS])
    def test_one_error_line_and_no_output(self, subcommand, option, code, synth_edges,
                                          tmp_path, capsys, request):
        out = tmp_path / "out.txt"
        inputs = {"train": ["--edges", str(synth_edges), "--out", str(out)],
                  "walks": ["--edges", str(synth_edges), "--out", str(out)],
                  "e2e": ["--edges", str(synth_edges), "--report", str(out)],
                  "synth": ["--out", str(out)]}
        if subcommand == "evaluate":
            inputs["evaluate"] = ["--edges", str(synth_edges), "--embeddings",
                                  str(request.getfixturevalue("embeddings"))]
        capsys.readouterr()
        assert run_cli(subcommand, *inputs[subcommand], *option, "--quiet") == code
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["relation = 31", "relation = 1 3", "dim = lots",
                                      "lr_decay = maybe"])
    @pytest.mark.parametrize("subcommand", ["evaluate", "e2e"])
    def test_bad_config_file_value(self, subcommand, line, synth_edges, tmp_path, capsys,
                                   request):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        report = tmp_path / "report.txt"
        inputs = ["--edges", str(synth_edges)]
        if subcommand == "evaluate":
            inputs += ["--embeddings", str(request.getfixturevalue("embeddings"))]
        capsys.readouterr()
        code = run_cli(subcommand, *inputs, "--config", str(conf), "--report", str(report), "--quiet")
        assert code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
        assert "Traceback" not in err
        assert not report.exists()


class TestBadWeights:
    @pytest.mark.parametrize("lines", [["u0 p0 1.0", "u1 p0 nan"], ["u0 p0 1.0", "u1 c0 inf"],
                                       ["u0 p0 1e308", "p0 u0 1e308"]],
                             ids=["nan", "inf", "summed overflow"])
    @pytest.mark.parametrize("subcommand", ["train", "hits"])
    def test_one_error_line_and_no_traceback(self, subcommand, lines, tmp_path, capsys):
        edges = tmp_path / "bad.txt"
        edges.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.txt"
        capsys.readouterr()
        assert run_cli(subcommand, "--edges", str(edges), "--out", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "weight" in err, err
        assert "Traceback" not in err
        assert not out.exists()


# The CLI, run by run_bounded: prints its exit status, then its standard error's lines.
_CLI_IN_CHILD = """
import contextlib, io, sys
from trine.cli import main

err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(code)
for line in err.getvalue().splitlines():
    print(line)
"""


class TestOptionSizes:
    """Options that ask for far more than a 4-edge graph needs, each run in a child under a 2 GiB limit."""

    @pytest.mark.parametrize("option,code", [
        (["--window", "1000000"], 0),  # no sequence is that long, so the window is clipped to it
        (["--dim", "100000000"], 1),  # the parameters alone need 3 GiB
        (["--negatives", "100000000"], 1),  # the kernel's buffers
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_runs_or_fails_with_one_error_line(self, option, code, tmp_path):
        edges = tmp_path / "four.txt"
        edges.write_text("u0 p0 1.0\nu1 p0 1.0\np0 c0 1.0\nu0 c0 1.0\n")
        out = tmp_path / "emb.txt"
        (status, *err), _ = run_bounded(_CLI_IN_CHILD, "train", "--edges", str(edges), "--out", str(out),
                                        "--epochs", "1", "--quiet", *option)
        assert int(status) == code, err
        if code == 0:
            assert err == [] and out.exists()
        else:
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert not out.exists()


# The CLI, run by run_bounded with its standard output dropped: prints its exit status.
_CLI_QUIET_IN_CHILD = """
import contextlib, io, sys
from trine.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code)
"""


class TestPaperScale:
    """`trine synth` at the VisualizeUs node counts, then a small `trine e2e` on its graph, each in a child."""

    # Each command's own peak resident set (VmHWM): about 83 MB for synth and
    # 78 MB for e2e when this test was written.
    PEAK_KB = 160 * 1024

    def test_synth_then_e2e_in_bounded_memory(self, tmp_path):
        edges, report = tmp_path / "paper.txt", tmp_path / "report.txt"
        (code,), peak_kb = run_bounded(_CLI_QUIET_IN_CHILD, "synth", "--users", "3911", "--tags", "21076",
                                       "--items", "5013", "--p-in", "0.0005", "--p-out", "0.0001",
                                       "--out", str(edges), "--quiet")
        assert code == "0" and peak_kb < self.PEAK_KB, peak_kb
        g = load_edge_list(edges)
        assert g.counts == (3911, 21076, 5013) and g.num_edges == 48_501
        del g
        (code,), peak_kb = run_bounded(_CLI_QUIET_IN_CHILD, "e2e", "--edges", str(edges), "--folds", "2",
                                       "--epochs", "1", "--dim", "8", "--max-walks", "1", "--walk-length", "8",
                                       "--lr", "0.2", "--report", str(report), "--quiet")
        assert code == "0" and peak_kb < self.PEAK_KB, peak_kb
        values = dict(line.split(" = ") for line in report.read_text().splitlines())
        assert values["folds"] == "2" and int(values["n_positive"]) > 0
        assert 0.0 <= float(values["mean_auc_roc"]) <= 1.0
