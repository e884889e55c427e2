import itertools
import os
import resource
import subprocess
import sys
import threading

import numpy as np
import pytest

from trine.graph import N_PARTIES, RELATION_OF_PAIR, RELATIONS, GraphBuilder, build_from_pairs
from trine.walks import TypedCorpus, WalkCorpus, _type_table


# Appended to a bounded child's script: its own peak resident set, in kB.
_PRINT_PEAK = """
print([int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM:")][0])
"""


def run_bounded(script: str, *args: str, limit: int = 2 << 30) -> tuple[list[str], int]:
    """Run a Python ``script`` with ``args`` in a child under an address-space limit of ``limit`` bytes.

    A dense regression fails fast there instead of taking gigabytes, and the
    child imports trine from wherever this process does. Returns the lines
    the script printed and the child's own peak resident set in kB. That is
    its VmHWM, which exec resets; a child's ``ru_maxrss`` would also count
    the peak of the process that spawned it.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the child's peak from /proc/self/status")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script + _PRINT_PEAK, *args], capture_output=True,
                         text=True, timeout=300, check=True, preexec_fn=limit_address_space, env=env)
    *lines, peak_kb = out.stdout.splitlines()
    return lines, int(peak_kb)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves running a thread it started."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"the test left threads running: {left}")


@pytest.fixture
def write_edges(tmp_path):
    """Write an edge-list file from lines and return its path."""

    def _write(*lines, name="edges.txt"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    return _write


@pytest.fixture
def schema_graph():
    """Nine-node fixture consistent with the documented neighbor sets.

    One-step page neighbors of u1 are {p1, p3}; the union of two-step
    neighbors of u1 over schema-valid continuations is {u2, u3, c1, c3}.
    """
    b = GraphBuilder()
    for src, dst in [("u1", "p1"), ("u1", "p3"), ("u2", "p1"), ("u3", "p3"),
                     ("p1", "c1"), ("p3", "c3"), ("u2", "p2"), ("p2", "c2")]:
        b.add_edge(src, dst)
    return b.build()


@pytest.fixture
def chain_graph():
    """u0 - p0 - c0 chain."""
    return build_from_pairs((1, 1, 1), [(0, 0, 0, 1.0), (1, 0, 0, 1.0)])


def random_tripartite(rng, counts=(8, 6, 5), density=0.3, max_weight=4):
    """Random weighted tripartite graph for property tests."""
    edges = []
    for r, (a, b) in enumerate(((0, 1), (1, 2), (0, 2))):
        for i in range(counts[a]):
            for j in range(counts[b]):
                if rng.random() < density:
                    edges.append((r, i, j, float(rng.integers(1, max_weight + 1))))
    return build_from_pairs(counts, edges)


def assert_blocks_list_the_edges(g):
    """Each stacked block row lists its node's partners and weights from the edge arrays.

    Both blocks of a relation are checked against the same edge arrays, so this
    also shows the adjacency is symmetric.
    """
    for a, b in itertools.permutations(range(3), 2):
        r = RELATION_OF_PAIR[(a, b)]
        src, dst = g.edge_src[r], g.edge_dst[r]
        mine, theirs = (src, dst) if RELATIONS[r][0] == a else (dst, src)
        for i in range(g.counts[a]):
            # stored edges are sorted by (i, j), so either side's partners come in index order
            at = mine == i
            idx, wt = g.neighbor_arrays(a, i, b)
            assert idx.tolist() == theirs[at].tolist()
            assert np.all(np.diff(idx) > 0)
            assert wt.tobytes() == g.edge_wt[r][at].tobytes()
            row = g.adj.base[a, b] + i
            lo, hi = g.adj.indptr[row], g.adj.indptr[row + 1]
            assert g.adj.nbrs[lo:hi].tolist() == idx.tolist()
    assert g.adj.indptr[-1] == len(g.adj.nbrs) == len(g.adj.wts) == 2 * g.num_edges


def walk_corpus(walks, metapath_ids, metapaths, offsets) -> WalkCorpus:
    """A walk corpus from lists of nodes, on a graph with row ``offsets``.

    Raises ValueError unless each walk follows its metapath's types.
    """
    width = max((len(w) for w in walks), default=0)
    types = _type_table(metapaths, width)
    nodes = np.full((len(walks), width), -1, dtype=np.int32)
    for k, (walk, m) in enumerate(zip(walks, metapath_ids)):
        if [n.party for n in walk] != types[m, :len(walk)].tolist():
            raise ValueError(f"walk {k} does not follow the types of metapath {m}")
        nodes[k, :len(walk)] = [n.index for n in walk]
    return WalkCorpus(nodes, np.array([len(w) for w in walks], dtype=np.int32),
                      np.array(metapath_ids, dtype=np.int32), types, np.asarray(offsets, dtype=np.int64))


def typed_from_sequences(by_party, offsets=None) -> TypedCorpus:
    """The typed corpus of three lists of per-party sequences, empty sequences dropped.

    Node ``i`` of party ``p`` is global row ``offsets[p] + i``; without
    ``offsets`` the sequences hold global rows already.
    """
    offsets = [0] * N_PARTIES if offsets is None else offsets
    seqs = [[offsets[p] + i for i in s] for p, party in enumerate(by_party) for s in party if len(s)]
    return TypedCorpus(np.array([i for s in seqs for i in s], dtype=np.int32),
                       np.cumsum([0] + [len(s) for s in seqs], dtype=np.int64))


def party_corpus(typed, offsets, party) -> TypedCorpus:
    """One party's part of ``typed`` on its own: indices within the party, positions from 0."""
    a, b = (int(np.count_nonzero(typed.nodes < off)) for off in offsets[party:party + 2])
    first, last = typed.bounds.searchsorted([a, b])
    return TypedCorpus(typed.nodes[a:b] - int(offsets[party]), typed.bounds[first:last + 1] - a)


def party_sequences(typed, offsets, party) -> list[list[int]]:
    """One party's sequences of ``typed``, as lists of indices within the party."""
    part = party_corpus(typed, offsets, party)
    return [part.nodes[a:b].tolist() for a, b in zip(part.bounds[:-1], part.bounds[1:])]
