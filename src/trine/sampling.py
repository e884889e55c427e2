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


class _PartyTable(NamedTuple):
    """One party's proposal table and exclusion rows; see :class:`NegativeSampler`."""

    probs: np.ndarray
    cumulative: np.ndarray
    starts: np.ndarray
    members: np.ndarray
    below: np.ndarray
    self_in_bucket: np.ndarray
    mass: np.ndarray


class NegativeSampler:
    """Per-party unigram tables plus per-node co-occurrence exclusion buckets.

    The proposal distribution over a party is corpus occurrence counts raised
    to ``power``; a node's bucket is every same-party node that co-occurred
    with it inside the window anywhere in the typed corpus. A centre's
    negatives follow the table restricted to the nodes outside its bucket,
    other than the centre itself, and renormalized.

    Buckets are stored per party in CSR form: row ``c`` is
    ``members[starts[c]:starts[c + 1]]`` (int32, sorted), the bucket of ``c``
    together with ``c`` itself. Whether ``c`` belongs to its own bucket (it
    co-occurs with itself in a window) is kept apart in ``self_in_bucket``.
    The members cut the party into gaps of admissible nodes; ``below[k]`` is
    the admissible mass of the row below member ``k`` (the sum of the gaps
    before it), summed within the row, and ``mass[c]`` adds the gap after
    the row's last member. Each gap's mass is a difference of the party's
    cumulative table (pinned to 1.0 from its last node with mass on), so a
    gap of nodes that never occur has mass exactly 0.
    """

    # No draw branches on this. bench/round.py reads it to count the centres
    # whose admissible mass is below it (its sampling.restricted_centers
    # layer count), and fails without it.
    _REJECTION_MIN_MASS = 0.25

    def __init__(self, tables: list[_PartyTable]):
        self._tables = tables

    @classmethod
    def build(cls, typed: TypedCorpus, g: TripartiteGraph, power: float = DEFAULT_POWER,
              window: int = 5) -> "NegativeSampler":
        if not (0 < power < np.inf):
            raise ValueError(f"power must be positive and finite, got {power}")
        tables = []
        for p in range(N_PARTIES):
            n = g.counts[p]
            counts = typed.occurrence_counts(p, n).astype(np.float64)
            if n > 0 and counts.sum() == 0:
                log.warning(
                    "party %s has an empty corpus; negative sampling falls back to uniform",
                    g.schema.party_names[p],
                )
                probs = np.full(n, 1.0 / n)
            elif n > 0:
                probs = counts ** power
                probs /= probs.sum()
            else:
                probs = np.zeros(0)
            cum = np.cumsum(probs)
            probs = np.diff(cum, prepend=0.0)
            _pinned(cum)

            nodes = typed.nodes[p].astype(np.int64)
            center, context = (nodes[pos] for pos in window_pairs(*typed.windows(p, window)))
            own = np.zeros(n, dtype=bool)
            own[center[center == context]] = True
            # row c holds c's bucket plus c itself: the sorted codes c * n + member, once each
            codes = np.concatenate([center * n + context, np.arange(n) * (n + 1)])
            del nodes, center, context
            codes.sort()
            first = np.ones(len(codes), dtype=bool)
            np.not_equal(codes[1:], codes[:-1], out=first[1:])
            codes = codes[first]
            del first
            starts = codes.searchsorted(np.arange(n + 1) * n)
            codes %= max(n, 1)
            members = codes.astype(np.int32)
            del codes
            below, mass = _gap_masses(cum, members, starts)
            tables.append(_PartyTable(probs, cum, starts, members, below, own, mass))
        return cls(tables)

    def table_probabilities(self, party: int) -> np.ndarray:
        """The proposal distribution for one party (sums to 1)."""
        return self._tables[party].probs.copy()

    def _row(self, node: Node) -> np.ndarray:
        """The node's bucket plus the node itself, sorted."""
        t = self._tables[node.party]
        return t.members[t.starts[node.index]:t.starts[node.index + 1]]

    def exclusion_bucket(self, node: Node) -> frozenset[int]:
        bucket = frozenset(self._row(node).tolist())
        if self._tables[node.party].self_in_bucket[node.index]:
            return bucket
        return bucket - {node.index}

    def available_mass(self, center: Node) -> float:
        """Probability mass of nodes admissible as negatives for this center."""
        return float(self._tables[center.party].mass[center.index])

    def has_negatives(self, center: Node) -> bool:
        """Whether any admissible node carries probability mass for this center.

        On small parties a node's bucket can cover everything that occurs in
        the corpus; callers use this to skip negative sampling instead of
        tripping the degenerate-party error.
        """
        return self.available_mass(center) > _EMPTY_MASS

    def has_negatives_many(self, party: int, centers: np.ndarray) -> np.ndarray:
        """:meth:`has_negatives` of each of the party's ``centers``, as a boolean array."""
        return self._tables[party].mass[centers] > _EMPTY_MASS

    def sample(self, center: Node, ns: int, rng: np.random.Generator) -> list[int]:
        """Draw ``ns`` negatives (with replacement) for ``center``.

        Builds the centre's explicit table (the party table with the
        exclusion row zeroed, renormalized and pinned) and inverts ``ns``
        uniforms on it. Raises :class:`SamplerError` when no admissible mass
        remains. No program path calls this: it is the one-centre reference
        of :meth:`sample_many`, sharing none of its search, and a public
        probe.
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

        The program draws every negative here, in training and in the loss
        draw. Each centre takes ``ns`` uniforms, in centre order, and every
        draw is kept: a uniform ``u`` is inverted on the centre's admissible
        cumulative at ``v = u * mass``. One joint search over each draw's own
        exclusion row finds the first member ``j`` whose ``below`` exceeds
        ``v``, so ``v`` falls in the gap before it. The pick is the node of
        the party's cumulative table at ``v - below[j - 1]`` past member
        ``j - 1``, capped at the gap's last node with mass. A single centre
        follows :meth:`sample`'s law and consumes the generator as it does.
        Raises :class:`SamplerError` for a centre without admissible
        negatives.
        """
        centers = np.asarray(centers, dtype=np.int64)
        if ns == 0 or len(centers) == 0:
            return np.empty((len(centers), ns), dtype=np.int64)
        t = self._tables[party]
        mass = t.mass[centers]
        if (mass <= _EMPTY_MASS).any():
            raise _no_negatives(Node(party, int(centers[np.argmax(mass <= _EMPTY_MASS)])))
        v = (rng.random((len(centers), ns)) * mass[:, None]).ravel()
        lo = np.repeat(t.starts[centers], ns)
        size = np.repeat(t.starts[centers + 1], ns) - lo
        # pos counts the members of each draw's row whose `below` is <= v; each
        # step tries to advance every draw by the same power of two
        pos = np.zeros(len(v), dtype=np.int64)
        step = 1 << (int(size.max()).bit_length() - 1)
        while step:
            nxt = pos + step
            pos = np.where((nxt <= size) & (t.below.take(lo + np.minimum(nxt, size) - 1) <= v),
                           nxt, pos)
            step >>= 1
        # v lies in the gap after member j - 1 (or the party's start) and
        # before member j (or the party's end)
        cum = t.cumulative
        j = lo + pos
        inner = pos > 0
        v[inner] = cum.take(t.members.take(j[inner] - 1)) + (v[inner] - t.below.take(j[inner] - 1))
        end = np.where(pos < size, t.members.take(j, mode="clip"), len(cum))
        top = cum.searchsorted(cum.take(end - 1), side="left")  # the gap's last node with mass
        return np.minimum(cum.searchsorted(v, side="right"), top).reshape(len(centers), ns)


def _no_negatives(center: Node) -> SamplerError:
    return SamplerError(
        f"no negatives available for {center}: its exclusion bucket covers "
        "every node with probability mass (degenerate party)"
    )


def _gap_masses(cum: np.ndarray, members: np.ndarray,
                starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's ``below`` and each row's admissible mass; see :class:`NegativeSampler`.

    The gap before member ``m_k`` is ``cum[m_k - 1] - cum[m_(k-1)]`` (with
    ``cum[-1]`` read as 0 before a row's first member), and the gap after
    a row's last member ``m`` is ``cum[-1] - cum[m]``. Gaps are summed in
    row order, one row position at a time over every row that long, so no
    rounding error carries from one row into the next.
    """
    edge = np.concatenate([[0.0], cum])  # edge[z]: the mass of the nodes before z
    after_prev = np.empty(len(members), dtype=np.int64)
    after_prev[1:] = members[:-1] + 1
    after_prev[starts[:-1]] = 0
    below = edge.take(members) - edge.take(after_prev)
    del after_prev
    lengths = np.diff(starts)
    order = np.argsort(lengths, kind="stable")
    lengths, heads = lengths[order], starts[:-1][order]
    for k in range(1, lengths[-1] if len(lengths) else 0):
        at = heads[lengths.searchsorted(k, side="right"):] + k
        below[at] += below[at - 1]
    last = starts[1:] - 1
    mass = below.take(last) + (edge[-1] - cum.take(members.take(last)))
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
