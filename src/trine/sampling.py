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
from .walks import TypedCorpus, window_pairs

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
        probs, cum = np.empty(g.num_nodes), np.empty(g.num_nodes)
        own = np.zeros(g.num_nodes, dtype=bool)
        starts = np.zeros(g.num_nodes + 1, dtype=np.int64)
        gap_top = np.zeros(g.num_nodes + 1, dtype=np.int64)
        members = np.empty(0, dtype=np.int32)
        for p in range(N_PARTIES):
            n, off = g.counts[p], int(g.offsets[p])
            rows = slice(off, off + n)
            counts = typed.occurrence_counts(p, n).astype(np.float64)
            if n > 0 and counts.sum() == 0:
                log.warning(
                    "party %s has an empty corpus; negative sampling falls back to uniform",
                    g.schema.party_names[p],
                )
                weights = np.full(n, 1.0 / n)
            elif n > 0:
                weights = counts ** power
                weights /= weights.sum()
            else:
                weights = np.zeros(0)
            table = np.cumsum(weights)
            probs[rows] = np.diff(table, prepend=0.0)
            cum[rows] = _pinned(table)
            gap_top[off + 1:off + n + 1] = off + table.searchsorted(table, side="left")

            nodes = typed.nodes[p].astype(np.int64)
            center, context = (nodes[pos] for pos in window_pairs(*typed.windows(p, window)))
            own[off + center[center == context]] = True
            # row c holds c's bucket plus c itself: the sorted codes c * n + member, once each
            codes = np.concatenate([center * n + context, np.arange(n) * (n + 1)])
            del nodes, center, context
            codes.sort()
            first = np.ones(len(codes), dtype=bool)
            np.not_equal(codes[1:], codes[:-1], out=first[1:])
            codes = codes[first]
            del first
            starts[off:off + n + 1] = codes.searchsorted(np.arange(n + 1) * n) + starts[off]
            codes %= max(n, 1)
            codes += off
            # grown in place: a concatenation would hold every party's members twice
            grown = len(members)
            members.resize(grown + len(codes), refcheck=False)
            members[grown:] = codes
            del codes
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

    def has_negatives_many(self, party: int, centers: np.ndarray) -> np.ndarray:
        """:meth:`has_negatives` of each of the party's ``centers``, as a boolean array."""
        return self.has_negatives_at(self._offsets[party] + centers)

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
            raise _no_negatives(center)
        probs = self.table_probabilities(center.party)
        probs[self._row(center)] = 0.0
        probs /= probs.sum()
        return _pinned(np.cumsum(probs)).searchsorted(rng.random(ns), side="right").tolist()

    def sample_many(self, party: int, centers: np.ndarray, ns: int,
                    rng: np.random.Generator) -> np.ndarray:
        """Draw ``ns`` negatives for each of the party's ``centers``: row ``k`` serves ``centers[k]``.

        Each centre takes ``ns`` uniforms from one ``rng.random`` call, in
        centre order, and :meth:`invert` turns them into negatives; with no
        centres or ``ns == 0`` the generator is not called. A single centre
        follows :meth:`sample`'s law and consumes the generator as it does.
        Raises :class:`SamplerError` for a centre without admissible
        negatives.
        """
        centers = np.asarray(centers, dtype=np.int64)
        if ns == 0 or len(centers) == 0:
            return np.empty((len(centers), ns), dtype=np.int64)
        has = self.has_negatives_many(party, centers)
        if not has.all():
            raise _no_negatives(Node(party, int(centers[np.argmin(has)])))
        off = self._offsets[party]
        return self.invert(off + centers, rng.random((len(centers), ns))) - off

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
        v = (u * t.mass[rows][:, None]).ravel()
        # cur ends at the last member of each draw's row whose `below` is <= v
        # (one before the row if none is); each step tries to advance every
        # draw by the same power of two within its row
        cur = np.repeat(t.starts[rows] - 1, ns)
        last = np.repeat(t.starts[rows + 1] - 1, ns)
        step = 1 << (int((last - cur).max()).bit_length() - 1)
        while step:
            nxt = cur + step
            ok = t.below.take(nxt, mode="clip") <= v
            ok &= nxt <= last
            cur = np.where(ok, nxt, cur)
            step >>= 1
        # v lies in the gap after member cur (or the party's start) and
        # before member cur + 1 (or the party's end)
        cum = t.cumulative
        inner = cur >= np.repeat(t.starts[rows], ns)
        v[inner] = cum.take(t.members.take(cur[inner])) + (v[inner] - t.below.take(cur[inner]))
        party = np.repeat(self._offsets.searchsorted(rows, side="right") - 1, ns)
        end = np.where(cur < last, t.members.take(cur + 1, mode="clip"), self._offsets[party + 1])
        # the pick: v's node in its party's table, searched party by party
        # over the draws sorted by (party, v); v is in [0, 1] up to rounding,
        # so 2 * party + v sorts them so
        order = np.argsort(2.0 * party + v)
        keys = v.take(order)
        found = np.empty(len(v), dtype=np.int64)
        a = 0
        for p, k in enumerate(np.bincount(party, minlength=N_PARTIES).tolist()):
            lo, hi = self._offsets[p], self._offsets[p + 1]
            found[a:a + k] = cum[lo:hi].searchsorted(keys[a:a + k], side="right") + lo
            a += k
        picks = np.empty(len(v), dtype=np.int64)
        picks[order] = found
        return np.minimum(picks, t.gap_top.take(end)).reshape(u.shape)


def _no_negatives(center: Node) -> SamplerError:
    return SamplerError(
        f"no negatives available for {center}: its exclusion bucket covers "
        "every node with probability mass (degenerate party)"
    )


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
