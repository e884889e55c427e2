import os
import resource
import subprocess
import sys

import numpy as np

from trine import synth
from trine.graph import RELATIONS
from trine.synth import planted_graph

_PAPER_COUNTS_BUILD = """
import resource
from trine.synth import planted_graph
g = planted_graph((3911, 21076, 5013), 3, 2e-4, 2e-5, seed=1)
print(g.num_edges, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _limit_address_space():
    # a dense n_a x n_b regression fails fast instead of taking gigabytes
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


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
        # the child imports trine from wherever this process does
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", _PAPER_COUNTS_BUILD], capture_output=True,
                             text=True, timeout=300, check=True, preexec_fn=_limit_address_space,
                             env=env)
        n_edges, peak_kb = map(int, out.stdout.split())
        assert n_edges > 0
        assert peak_kb < 600 * 1024
