import numpy as np

from trine import synth
from trine.graph import RELATIONS
from trine.synth import planted_graph

from conftest import run_bounded

# a dense n_a x n_b regression would take gigabytes
_PAPER_COUNTS_BUILD = """
from trine.synth import planted_graph
g = planted_graph((3911, 21076, 5013), 3, 2e-4, 2e-5, seed=1)
print(g.num_edges)
"""


class TestPlantedGraph:
    def test_row_blocks_do_not_change_the_edges(self, monkeypatch):
        whole = planted_graph((300, 60, 30), 3, 0.3, 0.02, seed=1)
        monkeypatch.setattr(synth, "_BLOCK_CELLS", 1)  # one row per block
        rowwise = planted_graph((300, 60, 30), 3, 0.3, 0.02, seed=1)
        for r in range(len(RELATIONS)):
            assert np.array_equal(rowwise.edge_src[r], whole.edge_src[r])
            assert np.array_equal(rowwise.edge_dst[r], whole.edge_dst[r])
            assert np.array_equal(rowwise.edge_wt[r], whole.edge_wt[r])

    def test_paper_node_counts_in_bounded_memory(self):
        (n_edges,), peak_kb = run_bounded(_PAPER_COUNTS_BUILD)
        assert int(n_edges) > 0
        assert peak_kb < 600 * 1024
