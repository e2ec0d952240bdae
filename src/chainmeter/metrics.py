"""Centralization measures over block-producer distributions.

A producer distribution assigns each producer (miner, pool, validator) the
amount it produced: block counts, transaction counts, or hash-power shares.
The central quantity is the centralization level: the smallest number of top
producers that together cover at least a ``1 - epsilon`` fraction of total
production. At a fixed epsilon, a smaller number means a more centralized
system. A consensus protocol implies a natural epsilon through its fault
threshold, which yields the central-trust level.

A distribution sorts its weights once, with numpy, the first time a level,
trust level or curve asks for them, and keeps the cumulative shares for every
later call. Equal weights are equal floats and the total is positive, so
these shares are bit for bit those of a sort that breaks ties by producer id.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from chainmeter.errors import InputError

# Cumulative shares are compared against 1 - epsilon with this slack so that
# targets like 0.9 are not missed by one representation ULP.
COVERAGE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ProducerDistribution:
    """Multiset of ``(producer_id, weight)`` pairs with positive total weight.

    Weights may be block counts, transaction counts, or hash-power shares;
    the math is identical and no unit conversion is applied. Producer ids
    must be unique, weights finite and non-negative.
    """

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        try:
            entries = tuple((str(pid), float(w)) for pid, w in self.entries)
        except (TypeError, ValueError):
            # Off the one-pass fast path: find the entry to name.
            for index, (pid, w) in enumerate(self.entries):
                try:
                    float(w)
                except (TypeError, ValueError):
                    raise InputError(f"weight of {str(pid)!r} must be a number, got {w!r}", index) from None
            raise
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise InputError("distribution has no producers")
        seen = set()
        for index, (pid, w) in enumerate(entries):
            if pid in seen:
                raise InputError(f"duplicate producer_id {pid!r}", index)
            seen.add(pid)
            if not math.isfinite(w) or w < 0:
                raise InputError(f"weight of {pid!r} must be finite and >= 0, got {w!r}", index)
        if sum(w for _, w in entries) <= 0:
            raise InputError("total weight must be positive")

    def __getstate__(self):
        # The cached shares are rebuilt on demand, so a pickle holds only the entries.
        return {"entries": self.entries}

    @functools.cached_property
    def _cumulative_shares(self) -> np.ndarray:
        """Fraction of the total weight the ``k`` heaviest producers hold, for
        k = 1..n; read-only. The last entry is exactly 1.0."""
        weights = np.fromiter((w for _, w in self.entries), float, len(self.entries))
        cum = np.cumsum(np.sort(weights)[::-1])
        shares = cum / cum[-1]
        shares.flags.writeable = False
        return shares

    def total_weight(self) -> float:
        return float(sum(w for _, w in self.entries))

    def sorted_entries(self) -> list[tuple[str, float]]:
        """Entries by weight descending; equal weights by producer_id ascending."""
        return sorted(self.entries, key=lambda e: (-e[1], e[0]))


class ConsensusKind(Enum):
    NAKAMOTO = "nakamoto"
    PBFT = "pbft"
    SINGLE = "single"


# Epsilon implied by each protocol's fault threshold. Nakamoto consensus needs
# a >50% honest majority, so trust concentrates in whoever reaches 51%:
# epsilon = 0.49. PBFT tolerates f faulty of 3f+1 nodes, i.e. a 2/3 honest
# quorum: epsilon = 1/3 (commonly quoted rounded as 0.33; the exact fraction
# is required so that e.g. 2 of 3 uniform producers meet the quorum).
TRUST_EPSILON: dict[ConsensusKind, float] = {
    ConsensusKind.NAKAMOTO: 0.49,
    ConsensusKind.PBFT: 1.0 / 3.0,
}


@dataclass(frozen=True)
class CentralizationLevel:
    """Smallest count ``n`` of top producers covering at least ``1 - epsilon``.

    ``covered_share`` is the exact cumulative fraction held by those ``n``
    producers. It is None when the level is asserted as a protocol constant
    rather than computed from a concrete distribution.
    """

    n: int
    epsilon: float
    covered_share: float | None = None


def centralization_level(dist: ProducerDistribution, epsilon: float) -> CentralizationLevel:
    """Smallest ``n`` such that the ``n`` heaviest producers cover >= 1 - epsilon.

    Coverage uses >= (not strict >) so that epsilon = 0 stays meaningful for
    finite distributions: a lone producer covers exactly 1.0 and scores n = 1.
    """
    if not 0.0 <= epsilon < 1.0:
        raise InputError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    shares = dist._cumulative_shares
    target = (1.0 - epsilon) - COVERAGE_TOLERANCE
    n = int(np.searchsorted(shares, target, side="left")) + 1
    n = min(n, len(shares))
    return CentralizationLevel(n=n, epsilon=float(epsilon), covered_share=float(shares[n - 1]))


def central_trust(dist: ProducerDistribution, kind: ConsensusKind) -> CentralizationLevel:
    """Trust level implied by a protocol's fault threshold.

    Nakamoto maps to the 0.49 level, PBFT to the 1/3 level, and a single
    dictated producer is 1 by definition regardless of the distribution.
    """
    if kind is ConsensusKind.SINGLE:
        top_weight = max(w for _, w in dist.entries)
        return CentralizationLevel(n=1, epsilon=0.0, covered_share=top_weight / dist.total_weight())
    return centralization_level(dist, TRUST_EPSILON[kind])


def cumulative_share_curve(dist: ProducerDistribution) -> list[tuple[int, float]]:
    """``(rank, cumulative fraction)`` for producers ordered heaviest first.

    The final fraction is exactly 1.0. Increments are non-increasing along
    the ranking, so the curve is concave in rank.
    """
    shares = dist._cumulative_shares
    return list(zip(range(1, len(shares) + 1), shares.tolist()))


def merge_producers(dist: ProducerDistribution, ids: Iterable[str], merged_id: str) -> ProducerDistribution:
    """Combine several producers into one (e.g. pool consolidation).

    Merging never increases any centralization level.
    """
    ids = set(ids)
    missing = ids - {pid for pid, _ in dist.entries}
    if missing:
        raise InputError(f"unknown producer ids: {sorted(missing)}")
    kept = [(pid, w) for pid, w in dist.entries if pid not in ids]
    merged_weight = sum(w for pid, w in dist.entries if pid in ids)
    if any(pid == merged_id for pid, _ in kept):
        raise InputError(f"merged id {merged_id!r} collides with an existing producer")
    return ProducerDistribution(tuple(kept) + ((merged_id, merged_weight),))
