import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trine.errors import EdgeListError, SchemaError
from trine.graph import (RELATIONS, GraphBuilder, Metapath, Node, Schema, TripartiteGraph,
                         build_from_pairs, load_edge_list)

from conftest import assert_blocks_list_the_edges, random_tripartite
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
    def test_one_step_neighbors(self, schema_graph):
        g = schema_graph
        u1 = g.node_of("u1")
        got = {g.label_of(n) for n, _ in g.neighbors(u1, 1)}
        assert got == {"p1", "p3"}

    def test_two_step_union(self, schema_graph):
        g = schema_graph
        u1 = g.node_of("u1")
        two_step = set()
        for p_node, _ in g.neighbors(u1, 1):
            for target in (0, 2):
                for n, _ in g.neighbors(p_node, target):
                    if n != u1:
                        two_step.add(g.label_of(n))
        assert two_step == {"u2", "u3", "c1", "c3"}

    def test_isolated_node_has_no_neighbors(self):
        g = build_from_pairs((2, 1, 0), [(0, 0, 0, 1.0)])
        assert g.neighbors(Node(0, 1), 1) == []

    def test_complete_bipartite(self):
        edges = [(0, i, j, 1.0) for i in range(2) for j in range(3)]
        g = build_from_pairs((2, 3, 0), edges)
        for i in range(2):
            nbrs = g.neighbors(Node(0, i), 1)
            assert {n.index for n, _ in nbrs} == {0, 1, 2}

    def test_same_party_query_rejected(self, schema_graph):
        with pytest.raises(ValueError, match="invalid query"):
            schema_graph.neighbors(schema_graph.node_of("u1"), 0)

    def test_unknown_node_rejected(self, schema_graph):
        with pytest.raises(ValueError, match="not in graph"):
            schema_graph.neighbors(Node(0, 99), 1)

    def test_symmetry_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_tripartite(rng)
            for a, b in RELATIONS:
                for i in range(g.counts[a]):
                    for n, w in g.neighbors(Node(a, i), b):
                        back = dict(g.neighbors(n, a))
                        assert back[Node(a, i)] == w


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

    def test_node_of_on_derived_graph(self, schema_graph):
        g2 = schema_graph.without_edges(0, [(0, 0)])
        for p in range(3):
            for i, label in enumerate(g2.labels[p]):
                assert g2.node_of(label) == Node(p, i)
        with pytest.raises(KeyError, match="unknown node label 'u9'"):
            g2.node_of("u9")

    def test_empty_relation_tolerated(self):
        g = build_from_pairs((2, 2, 2), [(0, 0, 0, 1.0), (1, 0, 0, 1.0)])
        assert len(g.edge_wt[2]) == 0
        assert g.neighbors(Node(0, 0), 2) == []
        assert_blocks_list_the_edges(g)


class TestBuilder:
    def test_zero_weight_rejected(self):
        b = GraphBuilder()
        with pytest.raises(EdgeListError, match="non-positive weight"):
            b.add_edge("u1", "p1", 0.0)

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
    def test_builder_sums_in_input_order(self, draws):
        b = GraphBuilder()
        labelled = []
        for r, i, j, flip, w in draws:
            a, c = RELATIONS[r]
            u, v = f"{'upc'[a]}{i}", f"{'upc'[c]}{j}"
            b.add_edge(*((v, u) if flip else (u, v)), w)
            labelled.append((r, u, v, w))
        g = b.build()
        index_edges = [(r, g.node_of(u).index, g.node_of(v).index, w) for r, u, v, w in labelled]
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
