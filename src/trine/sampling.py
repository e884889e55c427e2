"""Skip-gram training pairs and power-law negative sampling with exclusion buckets."""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .errors import SamplerError
from .graph import N_PARTIES, Node, TripartiteGraph
from .walks import TypedCorpus, window_pairs

log = logging.getLogger(__name__)

DEFAULT_POWER = 0.75

# Attempt budget per requested sample before declaring the party degenerate.
_MAX_ATTEMPTS_PER_SAMPLE = 100


class _PartyTable(NamedTuple):
    """One party's proposal table and exclusion rows; see :class:`NegativeSampler`."""

    probs: np.ndarray
    cumulative: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    self_in_bucket: np.ndarray
    mass: np.ndarray


class NegativeSampler:
    """Per-party unigram tables plus per-node co-occurrence exclusion buckets.

    The proposal distribution over a party is corpus occurrence counts raised
    to ``power``; a node's bucket is every same-party node that co-occurred
    with it inside the window anywhere in the typed corpus. Draws reject the
    center itself and its bucket.

    Buckets are stored per party as one sorted CSR: row ``c`` is
    ``cols[starts[c]:starts[c + 1]]``, the bucket of ``c`` together with
    ``c`` itself, so that a draw is rejected by one membership test. Whether
    ``c`` belongs to its own bucket (it co-occurs with itself in a window) is
    kept apart in ``self_in_bucket``. Each node's admissible mass is computed
    once, at build time. The tables' last cumulative entry is pinned to 1.0,
    so a uniform draw in [0, 1) always lands on a node.
    """

    # Below this admissible probability mass, rejection is replaced by exact
    # sampling from the renormalized restricted table (same distribution).
    _REJECTION_MIN_MASS = 0.25

    def __init__(self, tables: list[_PartyTable], power: float, window: int):
        self._tables = tables
        self._restricted_cache: dict[Node, np.ndarray] = {}
        self.power = power
        self.window = window

    @classmethod
    def build(cls, typed: TypedCorpus, g: TripartiteGraph, power: float = DEFAULT_POWER,
              window: int = 5) -> "NegativeSampler":
        if power <= 0:
            raise ValueError(f"power must be positive, got {power}")
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

            nodes = typed.nodes[p].astype(np.int64)
            center, context = (nodes[pos] for pos in window_pairs(*typed.windows(p, window)))
            own = np.zeros(n, dtype=bool)
            own[center[center == context]] = True
            # row c holds c's bucket plus c itself, as sorted codes c * n + member
            codes = np.unique(np.concatenate([center * n + context, np.arange(n) * (n + 1)]))
            rows, cols = np.divmod(codes, max(n, 1))
            starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
            excluded = np.bincount(rows, weights=probs[cols], minlength=n)
            tables.append(_PartyTable(probs, _pinned(cum), starts, cols, own,
                                      np.maximum(1.0 - excluded, 0.0)))
        return cls(tables, power, window)

    def table_probabilities(self, party: int) -> np.ndarray:
        """The proposal distribution for one party (sums to 1)."""
        return self._tables[party].probs.copy()

    def _row(self, node: Node) -> np.ndarray:
        """The node's bucket plus the node itself, sorted."""
        t = self._tables[node.party]
        return t.cols[t.starts[node.index]:t.starts[node.index + 1]]

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
        return self.available_mass(center) > 1e-12

    def _restricted_cumulative(self, center: Node) -> np.ndarray:
        cum = self._restricted_cache.get(center)
        if cum is None:
            probs = self._tables[center.party].probs.copy()
            probs[self._row(center)] = 0.0
            probs /= probs.sum()
            cum = _pinned(np.cumsum(probs))
            self._restricted_cache[center] = cum
        return cum

    def sample(self, center: Node, ns: int, rng: np.random.Generator) -> list[int]:
        """Draw ``ns`` negatives (with replacement) for ``center``.

        Rejection against the party table is used while the admissible mass is
        large; for heavily excluded centers the draw switches to the exact
        renormalized restricted table (the same conditional distribution).
        Raises :class:`SamplerError` when no admissible mass remains.

        Rejection draws in rounds of as many uniforms as negatives are still
        missing. A round cannot overshoot, so the generator yields the same
        values, in the same order, as drawing and testing one at a time.
        """
        if ns == 0:
            return []
        mass = self.available_mass(center)
        if mass <= 1e-12:
            raise SamplerError(
                f"no negatives available for {center}: its exclusion bucket covers "
                "every node with probability mass (degenerate party)"
            )
        if mass < self._REJECTION_MIN_MASS:
            return self._restricted_cumulative(center).searchsorted(
                rng.random(ns), side="right").tolist()
        cum = self._tables[center.party].cumulative
        row = self._row(center)
        out: list[int] = []
        attempts = 0
        budget = _MAX_ATTEMPTS_PER_SAMPLE * ns
        while len(out) < ns:
            if attempts >= budget:
                raise SamplerError(
                    f"could not draw {ns} negatives for {center} after {attempts} attempts; "
                    "the party is degenerate (all probability mass excluded)"
                )
            k = min(ns - len(out), budget - attempts)
            attempts += k
            zs = cum.searchsorted(rng.random(k), side="right")
            out += zs[row.take(row.searchsorted(zs), mode="clip") != zs].tolist()
        return out


def _pinned(cum: np.ndarray) -> np.ndarray:
    """Set a cumulative table's last entry to exactly 1.0, in place."""
    if len(cum):
        cum[-1] = 1.0
    return cum
