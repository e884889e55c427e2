"""Power-law negative sampling with window co-occurrence exclusion buckets.

Every negative is drawn by inversion of the centre's admissible cumulative
distribution (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. 2):
one uniform per negative, none rejected.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .errors import SamplerError
from .graph import N_PARTIES, Node, TripartiteGraph
from .walks import TypedCorpus

log = logging.getLogger(__name__)

DEFAULT_POWER = 0.75

# Admissible mass at or below which a centre has no negatives.
_EMPTY_MASS = 1e-12


class _Table(NamedTuple):
    """All parties' proposal tables and exclusion rows, by global row; see :class:`NegativeSampler`."""

    probs: np.ndarray
    cumulative: np.ndarray
    starts: np.ndarray
    members: np.ndarray
    below: np.ndarray
    self_in_bucket: np.ndarray
    mass: np.ndarray
    gap_top: np.ndarray


class NegativeSampler:
    """Per-party unigram tables plus per-node co-occurrence exclusion buckets.

    The proposal distribution over a party is corpus occurrence counts raised
    to ``power``; a node's bucket is every same-party node that co-occurred
    with it inside the window anywhere in the typed corpus. A centre's
    negatives follow the table restricted to the nodes outside its bucket,
    other than the centre itself, and renormalized.

    Every array is indexed by global row, ``g.offsets[p] + i`` for node ``i``
    of party ``p``, the layout of the trainer's ``emb`` and ``ctx``, and
    ``cumulative`` holds the three parties' cumulative tables side by side,
    each pinned to 1.0 from its last node with mass on. Buckets are stored in
    CSR form: row ``c`` is ``members[starts[c]:starts[c + 1]]`` (int32 global
    rows, sorted), the bucket of ``c`` together with ``c`` itself. Whether
    ``c`` belongs to its own bucket (it co-occurs with itself in a window) is
    kept apart in ``self_in_bucket``. The members cut their party into gaps
    of admissible nodes; ``below[k]`` is the admissible mass of the row below
    member ``k`` (the sum of the gaps before it), summed within the row, and
    ``mass[c]`` adds the gap after the row's last member. Each gap's mass is
    a difference of the party's cumulative table, so a gap of nodes that
    never occur has mass exactly 0. A gap ends at a member or at its party's
    end, and ``gap_top[e]`` is the last node with mass of a gap that ends at
    row ``e``: the first row of the party's run of cumulative values equal to
    that of row ``e - 1``.

    :meth:`build` finds the buckets as sorted pair codes ``c * n + member``
    over the ``n`` global rows. They are uint32 while ``n * (n + 1) < 2**32``
    (up to 65,535 nodes), which halves the build's sort and merge traffic,
    and int64 past it; the buckets are the same either way.
    """

    # No draw branches on this. bench/round.py reads it to count the centres
    # whose admissible mass is below it (its sampling.restricted_centers
    # layer count), and fails without it.
    _REJECTION_MIN_MASS = 0.25

    def __init__(self, offsets: np.ndarray, table: _Table):
        self._offsets = offsets
        self._table = table

    @classmethod
    def build(cls, typed: TypedCorpus, g: TripartiteGraph, power: float = DEFAULT_POWER,
              window: int = 5) -> "NegativeSampler":
        if not (0 < power < np.inf):
            raise ValueError(f"power must be positive and finite, got {power}")
        counts = np.bincount(typed.nodes, minlength=g.num_nodes).astype(np.float64)
        probs, cum = np.empty(g.num_nodes), np.empty(g.num_nodes)
        gap_top = np.zeros(g.num_nodes + 1, dtype=np.int64)
        for p in range(N_PARTIES):
            n, off = g.counts[p], int(g.offsets[p])
            rows = slice(off, off + n)
            if n > 0 and counts[rows].sum() == 0:
                log.warning(
                    "party %s has an empty corpus; negative sampling falls back to uniform",
                    g.schema.party_names[p],
                )
                weights = np.full(n, 1.0 / n)
            else:
                weights = counts[rows] ** power
                weights /= weights.sum()  # an empty party divides nothing
            table = np.cumsum(weights)
            probs[rows] = np.diff(table, prepend=0.0)
            cum[rows] = _pinned(table)
            gap_top[off + 1:off + n + 1] = off + table.searchsorted(table, side="left")
        starts, members, own = _exclusion_rows(typed.nodes, typed.windows(window)[1], g.num_nodes)
        below, mass = _gap_masses(cum, members, starts, g.offsets)
        return cls(g.offsets, _Table(probs, cum, starts, members, below, own, mass, gap_top))

    def table_probabilities(self, party: int) -> np.ndarray:
        """The proposal distribution for one party (sums to 1)."""
        return self._table.probs[self._offsets[party]:self._offsets[party + 1]].copy()

    def _row(self, node: Node) -> np.ndarray:
        """The node's bucket plus the node itself, sorted, as indices within its party."""
        t, off = self._table, self._offsets[node.party]
        return t.members[t.starts[off + node.index]:t.starts[off + node.index + 1]] - off

    def exclusion_bucket(self, node: Node) -> frozenset[int]:
        bucket = frozenset(self._row(node).tolist())
        if self._table.self_in_bucket[self._offsets[node.party] + node.index]:
            return bucket
        return bucket - {node.index}

    def available_mass(self, center: Node) -> float:
        """Probability mass of nodes admissible as negatives for this center."""
        return float(self._table.mass[self._offsets[center.party] + center.index])

    def has_negatives(self, center: Node) -> bool:
        """Whether any admissible node carries probability mass for this center.

        On small parties a node's bucket can cover everything that occurs in
        the corpus; callers use this to skip negative sampling instead of
        tripping the degenerate-party error.
        """
        return self.available_mass(center) > _EMPTY_MASS

    def has_negatives_at(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`has_negatives` of the centres at global ``rows``, as a boolean array."""
        return self._table.mass[rows] > _EMPTY_MASS

    def sample(self, center: Node, ns: int, rng: np.random.Generator) -> list[int]:
        """Draw ``ns`` negatives (with replacement) for ``center``.

        Builds the centre's explicit table (the party table with the
        exclusion row zeroed, renormalized and pinned) and inverts ``ns``
        uniforms on it. Raises :class:`SamplerError` when no admissible mass
        remains. No program path calls this: it is the one-centre reference
        of :meth:`invert`, sharing none of its search, and a public probe.
        """
        if ns == 0:
            return []
        if not self.has_negatives(center):
            raise SamplerError(f"no negatives available for {center}: its exclusion bucket covers "
                               "every node with probability mass (degenerate party)")
        probs = self.table_probabilities(center.party)
        probs[self._row(center)] = 0.0
        probs /= probs.sum()
        return _pinned(np.cumsum(probs)).searchsorted(rng.random(ns), side="right").tolist()

    def invert(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The negative (a global row) of each uniform ``u[k, i]`` for the centre at global ``rows[k]``.

        The program draws every negative here, in training and in the loss
        draw; every centre must have admissible negatives, and the centres
        may belong to any parties, in any order. A uniform ``u`` is inverted
        on the centre's admissible cumulative at ``v = u * mass``. One joint
        search over each draw's own exclusion row finds the last member ``j``
        whose ``below`` is at most ``v``, so ``v`` falls in the gap after it.
        The pick is the node of the party's cumulative table at
        ``v - below[j]`` past member ``j``, capped at the ``gap_top`` of the
        gap's end. That table search runs over the draws sorted by party and
        value, one ``searchsorted`` per party: the same pick for each draw as
        a search in draw order, found faster.
        """
        t = self._table
        ns = u.shape[1]
        if u.size == 0:
            return np.empty(u.shape, dtype=np.int64)
        # per draw arrays are updated in place, so that few of them are held at once
        v = (u * t.mass[rows][:, None]).ravel()
        # cur ends at the last member of each draw's row whose `below` is <= v
        # (one before the row if none is); each step tries to advance every
        # draw by the same power of two within its row
        cur = np.repeat(t.starts[rows] - 1, ns)
        last = np.repeat(t.starts[rows + 1] - 1, ns)
        step = 1 << (int((last - cur).max()).bit_length() - 1)
        nxt, below = np.empty_like(cur), np.empty_like(v)
        while step:
            np.add(cur, step, out=nxt)
            ok = t.below.take(nxt, mode="clip", out=below) <= v
            ok &= nxt <= last
            np.copyto(cur, nxt, where=ok)
            step >>= 1
        del nxt, below, ok
        # v lies in the gap after member cur (or the party's start) and
        # before member cur + 1 (or the party's end)
        cum = t.cumulative
        inner = np.flatnonzero(cur >= np.repeat(t.starts[rows], ns))
        at = cur.take(inner)
        gap = v.take(inner)
        gap -= t.below.take(at)
        gap += cum.take(t.members.take(at))
        v[inner] = gap
        del inner, at, gap
        party = self._offsets.searchsorted(rows, side="right") - 1
        end = np.repeat(self._offsets[party + 1], ns)
        more = np.flatnonzero(cur < last)
        end[more] = t.members.take(cur.take(more) + 1)
        del cur, last, more
        # the pick: v's node in its party's table, searched party by party
        # over the draws sorted by (party, v); v is in [0, 1] up to rounding,
        # so 2 * party + v sorts them so
        party = np.repeat(party, ns)
        keys = 2.0 * party
        keys += v
        order = np.argsort(keys)
        keys = v.take(order, out=keys)
        del v
        picks = np.empty(len(keys), dtype=np.int64)
        a = 0
        for p, k in enumerate(np.bincount(party, minlength=N_PARTIES).tolist()):
            lo, hi = self._offsets[p], self._offsets[p + 1]
            picks[order[a:a + k]] = cum[lo:hi].searchsorted(keys[a:a + k], side="right") + lo
            a += k
        del party, keys, order
        return np.minimum(picks, t.gap_top.take(end), out=picks).reshape(u.shape)


def _exclusion_rows(nodes: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every party's exclusion rows: ``starts``, ``members`` and ``self_in_bucket``.

    ``nodes`` and ``hi`` are a :class:`TypedCorpus`'s nodes and window ends,
    and ``n`` is the node count. Row ``c`` is kept as the sorted codes
    ``c * n + member``, once each, starting from ``c``'s own code, in the
    narrowest dtype of :func:`_code_dtype`. One window offset ``d`` at a
    time, up to the farthest that any window reaches, position ``k`` pairs
    with ``k + d`` when ``hi[k] > k + d``: both orders of each pair's code
    are sorted, de-duplicated and merged into the codes kept so far, so no
    more than one offset's pairs are held at once.
    """
    dtype = _code_dtype(n)
    own = np.zeros(n, dtype=bool)
    codes = np.arange(n, dtype=dtype) * dtype(n + 1)
    room = hi - np.arange(1, len(hi) + 1, dtype=np.int32)  # positions after k in k's window
    for d in range(1, int(room.max(initial=0)) + 1):
        at = np.flatnonzero(room >= d)  # k + d lies in k's window, and so in the corpus
        a, b = nodes[at].astype(dtype), nodes[at + d].astype(dtype)
        own[a[a == b]] = True
        fresh = np.concatenate([a * dtype(n) + b, b * dtype(n) + a])
        del at, a, b
        fresh.sort()
        codes = np.concatenate([codes, _distinct(fresh)])
        del fresh
        codes.sort(kind="stable")  # two sorted runs: one merge
        codes = _distinct(codes)
    starts = codes.searchsorted(np.arange(n + 1, dtype=dtype) * dtype(n))
    np.remainder(codes, dtype(max(n, 1)), out=codes)
    return starts, codes.astype(np.int32), own


def _code_dtype(n: int) -> type:
    """uint32 where every code ``c * n + member`` of ``n`` nodes, and ``n * n``, fit in it; else int64."""
    return np.uint32 if n * (n + 1) < 2**32 else np.int64


def _distinct(x: np.ndarray) -> np.ndarray:
    """A sorted array without its repeats: a neighbour-difference mask, not numpy's hashing ``unique``."""
    first = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return x[first]


def _gap_masses(cum: np.ndarray, members: np.ndarray, starts: np.ndarray,
                offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's ``below`` and each row's admissible mass; see :class:`NegativeSampler`.

    Party ``p`` holds rows ``offsets[p]:offsets[p + 1]``. The gap before
    member ``m_k`` is ``cum[m_k - 1] - cum[m_(k-1)]``, with ``cum[m_k - 1]``
    read as 0 at the party's first row and ``cum[m_(k-1)]`` as 0 before a
    row's first member, and the gap after a row's last member ``m`` is
    ``cum[last] - cum[m]``, ``last`` being the party's last row. Gaps are
    summed in row order, one row position at a time over every row that
    long, so no rounding error carries from one row into the next.
    """
    counts = np.diff(offsets)
    edge = np.concatenate([[0.0], cum[:-1]])  # edge[z]: the mass of z's party before z
    edge[offsets[:-1][counts > 0]] = 0.0
    heads = starts[:-1]
    below = edge.take(members)
    for a, b in zip(starts[offsets[:-1]], starts[offsets[1:]]):  # one party's members at a time
        if a < b:
            below[a + 1:b] -= cum.take(members[a:b - 1])
    below[heads] = edge.take(members.take(heads))
    lengths = np.diff(starts)
    order = np.argsort(lengths, kind="stable")
    lengths, heads = lengths[order], heads[order]
    for k in range(1, lengths[-1] if len(lengths) else 0):
        at = heads[lengths.searchsorted(k, side="right"):] + k
        below[at] += below[at - 1]
    last = starts[1:] - 1
    tail = np.repeat(cum[offsets[1:][counts > 0] - 1], counts[counts > 0])
    mass = below.take(last) + (tail - cum.take(members.take(last)))
    return below, mass


def _pinned(cum: np.ndarray) -> np.ndarray:
    """Set a cumulative table to exactly 1.0 from its last node with mass on, in place.

    That node is the first whose entry reaches the table's final sum, which
    rounding can leave just below 1.0. So a uniform draw in [0, 1) always
    lands on a node with mass, never on the zero-mass (or excluded) nodes
    after it.
    """
    if len(cum):
        cum[cum.searchsorted(cum[-1]):] = 1.0
    return cum
