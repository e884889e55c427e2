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

# Admissible mass at or below which a centre has no negatives.
_EMPTY_MASS = 1e-12


class _PartyTable(NamedTuple):
    """One party's proposal table and exclusion rows; see :class:`NegativeSampler`."""

    probs: np.ndarray
    cumulative: np.ndarray
    starts: np.ndarray
    codes: np.ndarray
    self_in_bucket: np.ndarray
    mass: np.ndarray


class NegativeSampler:
    """Per-party unigram tables plus per-node co-occurrence exclusion buckets.

    The proposal distribution over a party is corpus occurrence counts raised
    to ``power``; a node's bucket is every same-party node that co-occurred
    with it inside the window anywhere in the typed corpus. Draws reject the
    center itself and its bucket.

    Buckets are stored per party as one sorted array of codes ``c * n + z``
    (``n`` the party size) in CSR form: row ``c`` is
    ``codes[starts[c]:starts[c + 1]]``, the bucket of ``c`` together with
    ``c`` itself, so that a draw ``z`` is rejected by one membership test of
    its code, and the draws of many centres by one search. Whether
    ``c`` belongs to its own bucket (it co-occurs with itself in a window) is
    kept apart in ``self_in_bucket``. Each node's admissible mass is computed
    once, at build time. The tables' last cumulative entry is pinned to 1.0,
    so a uniform draw in [0, 1) always lands on a node.
    """

    # Below this admissible probability mass, rejection is replaced by exact
    # sampling from the renormalized restricted table (same distribution).
    _REJECTION_MIN_MASS = 0.25

    def __init__(self, tables: list[_PartyTable]):
        self._tables = tables
        self._restricted: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(tables)

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

            nodes = typed.nodes[p].astype(np.int64)
            center, context = (nodes[pos] for pos in window_pairs(*typed.windows(p, window)))
            own = np.zeros(n, dtype=bool)
            own[center[center == context]] = True
            # row c holds c's bucket plus c itself, as sorted codes c * n + member
            codes = np.unique(np.concatenate([center * n + context, np.arange(n) * (n + 1)]))
            rows, cols = np.divmod(codes, max(n, 1))
            starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
            excluded = np.bincount(rows, weights=probs[cols], minlength=n)
            tables.append(_PartyTable(probs, _pinned(cum), starts, codes, own,
                                      np.maximum(1.0 - excluded, 0.0)))
        return cls(tables)

    def table_probabilities(self, party: int) -> np.ndarray:
        """The proposal distribution for one party (sums to 1)."""
        return self._tables[party].probs.copy()

    def _codes(self, node: Node) -> np.ndarray:
        """The codes of the node's exclusion row, sorted."""
        t = self._tables[node.party]
        return t.codes[t.starts[node.index]:t.starts[node.index + 1]]

    def _row(self, node: Node) -> np.ndarray:
        """The node's bucket plus the node itself, sorted."""
        return self._codes(node) - node.index * len(self._tables[node.party].probs)

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

    def _restricted_tables(self, party: int) -> tuple[np.ndarray, np.ndarray]:
        """The party's restricted cumulative tables, and each node's row among them.

        Built on first use, for every centre whose admissible mass is
        positive but below ``_REJECTION_MIN_MASS``: row ``slot[c]`` is the
        party table with ``c``'s exclusion row zeroed, renormalized and
        pinned. Other nodes have slot -1.
        """
        if self._restricted[party] is None:
            t = self._tables[party]
            centers = np.flatnonzero((t.mass > _EMPTY_MASS) & (t.mass < self._REJECTION_MIN_MASS))
            tables = np.empty((len(centers), len(t.probs)))
            for k, c in enumerate(centers.tolist()):
                probs = t.probs.copy()
                probs[self._row(Node(party, c))] = 0.0
                probs /= probs.sum()
                tables[k] = _pinned(np.cumsum(probs))
            slot = np.full(len(t.probs), -1)
            slot[centers] = np.arange(len(centers))
            self._restricted[party] = (tables, slot)
        return self._restricted[party]

    def sample(self, center: Node, ns: int, rng: np.random.Generator) -> list[int]:
        """Draw ``ns`` negatives (with replacement) for ``center``.

        Rejection against the party table is used while the admissible mass is
        large; for heavily excluded centers the draw switches to the exact
        renormalized restricted table (the same conditional distribution).
        Raises :class:`SamplerError` when no admissible mass remains.

        Rejection draws in rounds of as many uniforms as negatives are still
        missing. A round cannot overshoot, so the generator yields the same
        values, in the same order, as drawing and testing one at a time.
        No program path calls this: it is the one-centre reference of
        :meth:`sample_many`'s law, and a public probe.
        """
        if ns == 0:
            return []
        mass = self.available_mass(center)
        if mass <= _EMPTY_MASS:
            raise _no_negatives(center)
        if mass < self._REJECTION_MIN_MASS:
            tables, slot = self._restricted_tables(center.party)
            return tables[slot[center.index]].searchsorted(rng.random(ns), side="right").tolist()
        cum = self._tables[center.party].cumulative
        row = self._codes(center)
        offset = center.index * len(cum)
        out: list[int] = []
        attempts = 0
        budget = _MAX_ATTEMPTS_PER_SAMPLE * ns
        while len(out) < ns:
            if attempts >= budget:
                raise _out_of_attempts(center, ns, attempts)
            k = min(ns - len(out), budget - attempts)
            attempts += k
            zs = cum.searchsorted(rng.random(k), side="right")
            code = zs + offset
            out += zs[row.take(row.searchsorted(code), mode="clip") != code].tolist()
        return out

    def sample_many(self, party: int, centers: np.ndarray, ns: int,
                    rng: np.random.Generator) -> np.ndarray:
        """Draw ``ns`` negatives for each of the party's ``centers``: row ``k`` serves ``centers[k]``.

        The program draws every negative here, in training and in the loss
        draw. Every row follows the law of :meth:`sample`, and a single centre
        consumes the generator as :meth:`sample` does, up to the same error.
        Centres on the restricted table draw first, ``ns`` uniforms each in
        centre order. The others draw in rejection rounds: a round draws, for
        each centre in order, as many uniforms as the centre still misses,
        tests all their codes against the exclusion rows with one search, and
        keeps the admissible draws in order; rejected draws are redrawn in the
        next round. Raises :class:`SamplerError` for a centre without
        admissible negatives, or for a centre that has made
        ``_MAX_ATTEMPTS_PER_SAMPLE * ns`` draws without filling its row.
        """
        centers = np.asarray(centers, dtype=np.int64)
        out = np.empty((len(centers), ns), dtype=np.int64)
        if ns == 0 or len(centers) == 0:
            return out
        t = self._tables[party]
        mass = t.mass[centers]
        if (mass <= _EMPTY_MASS).any():
            raise _no_negatives(Node(party, int(centers[np.argmax(mass <= _EMPTY_MASS)])))
        restricted = mass < self._REJECTION_MIN_MASS

        if restricted.any():
            tables, slot = self._restricted_tables(party)
            rows = np.flatnonzero(restricted)
            u = rng.random((len(rows), ns))
            for k, c in enumerate(centers[rows].tolist()):
                out[rows[k]] = tables[slot[c]].searchsorted(u[k], side="right")

        rows = np.flatnonzero(~restricted)
        codes = centers[rows] * len(t.probs)  # each centre's code offset
        drawn = np.empty((len(rows), ns), dtype=np.int64)
        filled = np.zeros(len(rows), dtype=np.int64)
        attempts = np.zeros(len(rows), dtype=np.int64)
        budget = _MAX_ATTEMPTS_PER_SAMPLE * ns
        active = np.arange(len(rows))
        while len(active):
            need = np.minimum(ns - filled[active], budget - attempts[active])
            attempts[active] += need
            owner = np.repeat(active, need)
            zs = t.cumulative.searchsorted(rng.random(len(owner)), side="right")
            code = codes[owner] + zs
            kept = t.codes.take(t.codes.searchsorted(code), mode="clip") != code
            owner, zs = owner[kept], zs[kept]
            # owner is sorted: a kept draw's rank among its centre's kept draws
            drawn[owner, filled[owner] + np.arange(len(owner)) - owner.searchsorted(owner)] = zs
            filled += np.bincount(owner, minlength=len(rows))
            active = active[filled[active] < ns]
            spent = active[attempts[active] >= budget]
            if len(spent):
                raise _out_of_attempts(Node(party, int(centers[rows[spent[0]]])), ns, budget)
        out[rows] = drawn
        return out


def _no_negatives(center: Node) -> SamplerError:
    return SamplerError(
        f"no negatives available for {center}: its exclusion bucket covers "
        "every node with probability mass (degenerate party)"
    )


def _out_of_attempts(center: Node, ns: int, attempts: int) -> SamplerError:
    return SamplerError(
        f"could not draw {ns} negatives for {center} after {attempts} attempts; "
        "the party is degenerate (all probability mass excluded)"
    )


def _pinned(cum: np.ndarray) -> np.ndarray:
    """Set a cumulative table's last entry to exactly 1.0, in place."""
    if len(cum):
        cum[-1] = 1.0
    return cum
