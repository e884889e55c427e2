import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trine import graph
from trine.cli import main as run_cli
from trine.errors import EdgeListError, SchemaError, TrineError
from trine.graph import RELATIONS, Metapath, Schema, TripartiteGraph, load_edge_list

from conftest import assert_blocks_list_the_edges, random_tripartite, run_bounded
from reference import build_from_pairs, neighbors, reference_load_edge_list
from test_degenerate import tiny_graphs


class TestLoader:
    def test_empty_file(self, write_edges):
        g = load_edge_list(write_edges())
        assert g.counts == (0, 0, 0)
        assert g.num_edges == 0

    def test_basic_load(self, write_edges):
        path = write_edges("# a comment", "u1 p1 2.0", "u1 c4", "", "p1 c4 0.5")
        g = load_edge_list(path)
        assert g.counts == (1, 1, 1)
        assert g.num_edges == 3
        assert [w.sum() for w in g.edge_wt] == [2.0, 0.5, 1.0]

    def test_duplicate_edges_sum_weights(self, write_edges):
        path = write_edges("u1 p1 1.0", "u1 p1 2.0")
        g = load_edge_list(path)
        # oracle: re-sum the raw file by unordered pair
        raw = {}
        for line in path.read_text().splitlines():
            a, b, w = line.split()
            raw[frozenset((a, b))] = raw.get(frozenset((a, b)), 0.0) + float(w)
        assert g.num_edges == len(raw) == 1
        assert g.edge_wt[0].sum() == raw[frozenset(("u1", "p1"))] == 3.0

    def test_reversed_duplicate_merges(self, write_edges):
        g = load_edge_list(write_edges("u1 p1 1.0", "p1 u1 2.5"))
        assert g.num_edges == 1
        assert g.edge_wt[0].sum() == 3.5

    def test_malformed_line_reports_number(self, write_edges):
        path = write_edges("u1 p1", "u2 p2 not-a-number")
        with pytest.raises(EdgeListError, match="line 2"):
            load_edge_list(path)
        path = write_edges("u1 p1 1.0 extra junk")
        with pytest.raises(EdgeListError, match="line 1"):
            load_edge_list(path)

    def test_intra_party_edge_rejected(self, write_edges):
        with pytest.raises(EdgeListError, match="line 2.*intra-party"):
            load_edge_list(write_edges("u1 p1", "u1 u2"))

    def test_unknown_prefix_rejected(self, write_edges):
        with pytest.raises(SchemaError, match="line 1.*unknown type prefix"):
            load_edge_list(write_edges("x1 p1"))

    def test_custom_schema(self, write_edges):
        schema = Schema(type_chars=("a", "b", "d"), party_names=("author", "book", "domain"))
        g = load_edge_list(write_edges("a1 b1", "b1 d1"), schema)
        assert g.counts == (1, 1, 1)

    def test_missing_weight_defaults_to_one(self, write_edges):
        g = load_edge_list(write_edges("u1 p1"))
        assert g.edge_wt[0].sum() == 1.0

    def test_edge_count_equals_distinct_pairs(self, write_edges):
        rng = np.random.default_rng(4)
        lines = []
        pairs = set()
        for _ in range(60):
            i, j = rng.integers(4), rng.integers(5)
            lines.append(f"u{i} c{j} {rng.integers(1, 4)}")
            pairs.add((f"u{i}", f"c{j}"))
        g = load_edge_list(write_edges(*lines))
        assert g.num_edges == len(pairs)


class TestNeighbors:
    """Neighbour sets read from the stacked adjacency."""

    def test_one_step_neighbors(self, schema_graph):
        g = schema_graph
        u1 = g.labels[0].index("u1")
        got = {g.labels[1][j] for j in neighbors(g, 0, u1, 1)[0]}
        assert got == {"p1", "p3"}

    def test_two_step_union(self, schema_graph):
        g = schema_graph
        u1 = g.labels[0].index("u1")
        two_step = set()
        for p in neighbors(g, 0, u1, 1)[0]:
            for target in (0, 2):
                for j in neighbors(g, 1, p, target)[0]:
                    if (target, j) != (0, u1):
                        two_step.add(g.labels[target][j])
        assert two_step == {"u2", "u3", "c1", "c3"}

    def test_isolated_node_has_no_neighbors(self):
        g = build_from_pairs((2, 1, 0), [(0, 0, 0, 1.0)])
        assert len(neighbors(g, 0, 1, 1)[0]) == 0

    def test_complete_bipartite(self):
        edges = [(0, i, j, 1.0) for i in range(2) for j in range(3)]
        g = build_from_pairs((2, 3, 0), edges)
        for i in range(2):
            assert neighbors(g, 0, i, 1)[0].tolist() == [0, 1, 2]

    def test_symmetry_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_tripartite(rng)
            for a, b in RELATIONS:
                for i in range(g.counts[a]):
                    for j, w in zip(*neighbors(g, a, i, b)):
                        back, back_wt = neighbors(g, b, j, a)
                        assert back_wt[back == i].tolist() == [w]


# (weight, what the error calls it)
BAD_WEIGHTS = [(0.0, "non-positive"), (-1.0, "non-positive"), (-math.inf, "non-positive"),
               (math.nan, "non-finite"), (math.inf, "non-finite")]


class TestWeights:
    """The constructor checks every weight and every summed weight; nothing checks later."""

    def test_well_formed(self, schema_graph):
        assert_blocks_list_the_edges(schema_graph)

    @pytest.mark.parametrize("weight,kind", BAD_WEIGHTS, ids=[str(w) for w, _ in BAD_WEIGHTS])
    def test_build_from_pairs_rejects_bad_weight(self, weight, kind):
        with pytest.raises(EdgeListError, match=rf"edge \(u1, c0\) has {kind} weight {weight}"):
            build_from_pairs((2, 1, 1), [(0, 0, 0, 1.0), (2, 1, 0, weight)])

    @pytest.mark.parametrize("weight,kind", BAD_WEIGHTS, ids=[str(w) for w, _ in BAD_WEIGHTS])
    def test_loader_rejects_bad_weight_on_its_line(self, write_edges, weight, kind):
        path = write_edges("u0 p0 1.0", f"c0 u1 {weight}")
        with pytest.raises(EdgeListError, match=rf"line 2: edge \(c0, u1\) has {kind} weight"):
            load_edge_list(path)

    def test_summed_weight_past_float_range_rejected(self, write_edges):
        # each weight is finite, but a pair's repeats sum to inf
        with pytest.raises(EdgeListError, match=r"weights of edge \(u0, p1\) sum past float range"):
            build_from_pairs((1, 2, 0), [(0, 0, 0, 1.0), (0, 0, 1, 1e308), (0, 0, 1, 1e308)])
        with pytest.raises(EdgeListError, match=r"^the weights of edge \(u0, p0\) sum past float range"):
            load_edge_list(write_edges("u0 p0 1e308", "p0 u0 1e308"))


class TestMetapath:
    def test_parse_and_describe(self):
        schema = Schema()
        mp = schema.metapath("upcpu")
        assert mp.types == (0, 1, 2, 1, 0)
        assert mp.describe(schema) == "upcpu"

    def test_rejects_consecutive_same_type(self):
        with pytest.raises(SchemaError):
            Metapath((0, 0, 1))
        with pytest.raises(SchemaError):
            Schema().metapath("uupc")

    @pytest.mark.parametrize("chars", [("#", "p", "c"), ("u", " ", "c"), ("u", "p", "\t"), ("u", "p", "\n")])
    def test_schema_rejects_what_the_loader_cannot_read(self, chars):
        # the loader reads a '#' line as a comment, and splits fields at whitespace
        with pytest.raises(SchemaError, match="cannot be '#' or whitespace"):
            Schema(type_chars=chars)

    def test_rejects_short_and_unknown(self):
        with pytest.raises(SchemaError):
            Metapath((0,))
        with pytest.raises(SchemaError):
            Schema().metapath("uxp")

    def test_palindrome_cycling(self):
        mp = Metapath((0, 1, 2, 1, 0))
        # pattern: u p c p u p c p u ...
        expected = [0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1]
        assert [mp.type_at(t) for t in range(12)] == expected

    def test_open_path_restarts_from_index_one(self):
        mp = Metapath((0, 1, 2))
        # pattern: u p c then p c p c ...
        assert [mp.type_at(t) for t in range(7)] == [0, 1, 2, 1, 2, 1, 2]


class TestDerivedGraphs:
    def test_without_edges_preserves_nodes(self, schema_graph):
        g = schema_graph
        pairs = [(g.edge_src[0][0], g.edge_dst[0][0])]
        g2 = g.without_edges(0, [(int(pairs[0][0]), int(pairs[0][1]))])
        assert g2.counts == g.counts
        assert g2.num_edges == g.num_edges - 1
        assert g2.labels == g.labels
        assert_blocks_list_the_edges(g2)

    def test_empty_relation_tolerated(self):
        g = build_from_pairs((2, 2, 2), [(0, 0, 0, 1.0), (1, 0, 0, 1.0)])
        assert len(g.edge_wt[2]) == 0
        assert len(neighbors(g, 0, 0, 2)[0]) == 0
        assert_blocks_list_the_edges(g)


class TestBuilder:
    """The checks made where a graph is built: from a file, from index-level edges, from arrays."""

    def test_zero_weight_rejected(self, write_edges):
        with pytest.raises(EdgeListError, match="non-positive weight"):
            load_edge_list(write_edges("u1 p1 0.0"))

    def test_build_from_pairs_bounds_checked(self):
        with pytest.raises(ValueError, match="outside party sizes"):
            build_from_pairs((1, 1, 1), [(0, 0, 5, 1.0)])
        with pytest.raises(ValueError, match="relation index"):
            build_from_pairs((1, 1, 1), [(3, 0, 0, 1.0)])

    def test_constructor_rejects_indices_outside_party_sizes(self):
        # (0, 1) in a 1 x 1 relation would otherwise alias the pair code of (1, 0)
        edges = ((np.array([0]), np.array([1]), np.array([1.0])), ((), (), ()), ((), (), ()))
        with pytest.raises(ValueError, match=r"edge \(0, 0, 1\) outside party sizes"):
            TripartiteGraph(Schema(), (["u0"], ["p0"], []), edges)


# (relation, i, j, reversed orientation, weight); weights such as 0.1 + 0.2
# are not associative in floating point, so summation order shows.
_edge_draws = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.booleans(),
              st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.5])),
    max_size=40,
)


def _summed_oracle(index_edges):
    """Per relation: sorted (i, j) -> weight, weights added in input order."""
    oracle = ({}, {}, {})
    for r, i, j, w in index_edges:
        oracle[r][(i, j)] = oracle[r].get((i, j), 0.0) + w
    return tuple(sorted(d.items()) for d in oracle)


def _assert_matches(g, oracle):
    for r in range(len(RELATIONS)):
        assert g.edge_src[r].dtype == g.edge_dst[r].dtype == np.int64
        assert g.edge_src[r].tolist() == [i for (i, _), _ in oracle[r]]
        assert g.edge_dst[r].tolist() == [j for (_, j), _ in oracle[r]]
        assert g.edge_wt[r].tolist() == [w for _, w in oracle[r]]


class TestCanonicalEdges:
    @given(_edge_draws)
    @settings(max_examples=200, deadline=None)
    def test_builder_sums_in_input_order(self, tmp_path_factory, draws):
        lines, labelled = [], []
        for r, i, j, flip, w in draws:
            a, c = RELATIONS[r]
            u, v = f"{'upc'[a]}{i}", f"{'upc'[c]}{j}"
            lines.append(" ".join((v, u) if flip else (u, v)) + f" {w!r}\n")
            labelled.append((r, u, v, w))
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_text("".join(lines))
        g = load_edge_list(path)
        index = {label: i for party in g.labels for i, label in enumerate(party)}
        index_edges = [(r, index[u], index[v], w) for r, u, v, w in labelled]
        _assert_matches(g, _summed_oracle(index_edges))
        assert_blocks_list_the_edges(g)

    @given(_edge_draws)
    @settings(max_examples=200, deadline=None)
    def test_build_from_pairs_sums_in_input_order(self, draws):
        index_edges = [(r, i, j, w) for r, i, j, _, w in draws]
        g = build_from_pairs((4, 4, 4), index_edges)
        _assert_matches(g, _summed_oracle(index_edges))

    @given(_edge_draws, st.integers(0, 2), st.data())
    @settings(max_examples=200, deadline=None)
    def test_without_edges_removes_exactly_the_pairs(self, draws, relation, data):
        g = build_from_pairs((4, 4, 4), [(r, i, j, w) for r, i, j, _, w in draws])
        present = list(zip(g.edge_src[relation].tolist(), g.edge_dst[relation].tolist()))
        removed = data.draw(st.lists(st.sampled_from(present), unique=True) if present else st.just([]))
        removed += data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
        g2 = g.without_edges(relation, removed)
        assert g2.counts == g.counts and g2.labels == g.labels
        gone = set(removed)
        for r in range(len(RELATIONS)):
            keep = np.array([r != relation or (i, j) not in gone
                             for i, j in zip(g.edge_src[r].tolist(), g.edge_dst[r].tolist())], dtype=bool)
            assert np.array_equal(g2.edge_src[r], g.edge_src[r][keep])
            assert np.array_equal(g2.edge_dst[r], g.edge_dst[r][keep])
            assert g2.edge_wt[r].tobytes() == g.edge_wt[r][keep].tobytes()
        assert_blocks_list_the_edges(g2)


class TestGlobalLayout:
    """The graph's offsets, global edge rows and stacked adjacency against its edge arrays."""

    @given(tiny_graphs())
    @example(((0, 0, 0), []))
    @example(((2, 0, 3), [(2, 1, 2, 0.5), (2, 0, 2, 1.0), (2, 1, 0, 3.0)]))
    @settings(max_examples=200, deadline=None)
    def test_stacked_blocks_list_the_edges(self, graph):
        counts, edges = graph
        g = build_from_pairs(counts, edges)
        assert g.offsets.tolist() == [0, counts[0], counts[0] + counts[1], sum(counts)]
        assert_blocks_list_the_edges(g)

    @given(tiny_graphs())
    @settings(max_examples=200, deadline=None)
    def test_edge_rows_give_back_the_edge_arrays(self, graph):
        g = build_from_pairs(*graph)
        rows = g.edge_rows
        for r, (a, b) in enumerate(RELATIONS):
            mine = rows.relation == r
            assert np.array_equal(rows.src[mine] - g.offsets[a], g.edge_src[r])
            assert np.array_equal(rows.dst[mine] - g.offsets[b], g.edge_dst[r])
            assert rows.wt[mine].tobytes() == g.edge_wt[r].tobytes()
        assert np.all(np.diff(rows.relation) >= 0)  # relation-major


def _outcome(load, path):
    """What ``load`` makes of a file: the labels and edge arrays, or the error's type and message."""
    try:
        g = load(path)
    except TrineError as exc:
        return type(exc), str(exc)
    return g.labels, [(g.edge_src[r].tobytes(), g.edge_dst[r].tobytes(), g.edge_wt[r].tobytes())
                      for r in range(len(RELATIONS))]


_blanks = st.sampled_from([" ", "\t", "  ", " \t "])
_indent = st.sampled_from(["", "", " ", "\t"])


def _labels(parties="upc", most=3):
    return st.builds("{}{}".format, st.sampled_from(parties), st.integers(0, most))


@st.composite
def _edge_list_lines(draw, clean):
    """One line without its ending: a comment, a blank, a node, an edge and, unless ``clean``, a fault."""
    kinds = ["comment", "blank", "node", "edge", "weighted"] + ([] if clean else ["wide"])
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "  \t"]))
    lead, sep, trail = draw(_indent), draw(_blanks), draw(st.sampled_from(["", " ", "\t"]))
    if kind == "comment":
        return lead + "#" + draw(st.sampled_from(["", " a comment", "#", " u0 p0 1"]))
    labels = _labels("upc" if clean else "upcx")
    if kind == "node":
        return lead + draw(labels) + trail
    if clean:
        # two labels of different parties, in either order
        a, b = draw(st.permutations("upc"))[:2]
        fields = [f"{a}{draw(st.integers(0, 3))}", f"{b}{draw(st.integers(0, 3))}"]
    else:
        fields = [draw(labels), draw(labels)]
    weights = ["2", "2.50", "1e-3", "+1", "1", "0.5", "1e308"]
    if not clean:
        weights += ["0", "-1", "-0", "inf", "-inf", "nan", "1e999", "abc", "1_0", "#"]
    if kind in ("weighted", "wide"):
        fields.append(draw(st.sampled_from(weights)))
    if kind == "wide":
        fields += draw(st.lists(st.sampled_from(["1", "x", "#"]), min_size=1, max_size=2))
    return lead + sep.join(fields) + trail


@st.composite
def _edge_list_files(draw):
    """The text of an edge-list file, each line ending in \\n, \\r\\n or \\r, the last line maybe in none."""
    lines = draw(st.lists(_edge_list_lines(clean=draw(st.booleans())), max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestBlockLoader:
    """The bulk parse against the per-line reference: labels, edges and the first fault's error."""

    @given(_edge_list_files(), st.sampled_from([1, 2, 3, 5, graph._LOAD_BLOCK]))
    @example("u0 p0 1\nu1 c0\n", 1)
    @example("u0 p0 1\nx0 p0\n", 1)  # a fault on the first line of the second block
    @example("# only\n\n\t\n", 2)  # blocks without a label
    @settings(max_examples=300, deadline=None)
    def test_matches_the_line_by_line_reference(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(graph, "_LOAD_BLOCK", block):
            assert _outcome(load_edge_list, path) == _outcome(reference_load_edge_list, path)

    @pytest.mark.parametrize("fault", ["u1 p0 1 2", "u1 p0 abc", "u1 p0 -1", "u1 p0 nan", "x1 p0",
                                       "u1 x0 2", "u1 u2", "x9"])
    def test_fault_on_the_first_line_of_the_second_block(self, tmp_path, fault):
        n = graph._LOAD_BLOCK
        lines = ["# header"] + [f"u{i % 7} {'pc'[i % 2]}{i % 11} {1 + i % 3}" for i in range(n - 1)]
        path = tmp_path / "edges.txt"
        path.write_text("\n".join(lines + [fault, "u0 p0", "x0 x0 x0 x0"]) + "\n")
        expected = _outcome(reference_load_edge_list, path)
        assert expected[1].startswith(f"line {n + 1}: ")
        assert _outcome(load_edge_list, path) == expected

    def test_longer_than_one_block(self, tmp_path):
        n = 2 * graph._LOAD_BLOCK + 100
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{'upc'[i % 3]}{i % 97} {'pcu'[i % 3]}{i % 89}\r\n" for i in range(n))
                        + "u500\n")
        expected = _outcome(reference_load_edge_list, path)
        assert _outcome(load_edge_list, path) == expected
        assert "u500" in expected[0][0]

    def test_adjacency_built_on_first_use(self, write_edges):
        g = load_edge_list(write_edges("u0 p1 2", "p1 c0", "u1 c0 0.5", "c1"))
        assert "adj" not in vars(g)
        assert_blocks_list_the_edges(g)
        assert "adj" in vars(g)


# Loads the edge list argv[2] with the bulk loader, or with the per-line
# reference if argv[1] is "reference"; both import the same modules.
_LOAD_IN_CHILD = """
import sys
from reference import reference_load_edge_list
from trine.graph import load_edge_list

load = reference_load_edge_list if sys.argv[1] == "reference" else load_edge_list
print(load(sys.argv[2]).num_edges)
"""


class TestLoaderMemory:
    # The loader's peak resident set (VmHWM) at the VisualizeUs node counts
    # was 44.5 MB, the reference's 47 MB, and a whole-file bulk parse's 61 MB.
    MARGIN_KB = 4 * 1024

    def test_peak_at_paper_counts_within_the_reference_loop(self, tmp_path):
        edges = tmp_path / "paper.txt"
        assert run_cli(["synth", "--users", "3911", "--tags", "21076", "--items", "5013", "--p-in", "0.0005",
                        "--p-out", "0.0001", "--out", str(edges), "--quiet"]) == 0
        (n_ref,), reference_kb = run_bounded(_LOAD_IN_CHILD, "reference", str(edges))
        (n,), peak_kb = run_bounded(_LOAD_IN_CHILD, "bulk", str(edges))
        assert n == n_ref == "48501"
        assert peak_kb < reference_kb + self.MARGIN_KB, (peak_kb, reference_kb)
