"""Centralization measures over block-producer distributions.

A producer distribution assigns each producer (miner, pool, validator) the
amount it produced: block counts, transaction counts, or hash-power shares.
The central quantity is the centralization level: the smallest number of top
producers that together cover at least a ``1 - epsilon`` fraction of total
production. At a fixed epsilon, a smaller number means a more centralized
system. A consensus protocol implies a natural epsilon through its fault
threshold, which yields the central-trust level.

A distribution sorts its weights once, with numpy, the first time a level,
trust level or curve asks for them, and keeps the cumulative shares (the
curve) for every later call. Equal weights are equal floats and the total is
positive, so the shares are bit for bit those of a sort breaking ties by id.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from chainmeter.errors import InputError, exact_rows, real

# Cumulative shares are compared against 1 - epsilon with this slack so that
# targets like 0.9 are not missed by one representation ULP.
COVERAGE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ProducerDistribution:
    """Multiset of ``(producer_id, weight)`` pairs with positive finite total.

    Weights may be block counts, transaction counts, or hash-power shares;
    the math is identical and no unit conversion is applied. Producer ids
    must be unique, weights finite and non-negative.
    """

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        entries = self.entries
        # Rows of exactly (str, float) are kept as given; any others are read
        # with errors.real, an int past the float range as infinite.
        if not exact_rows(entries, (str, float)):
            entries = tuple((str(pid), real(w, f"weight of {str(pid)!r}", index)) for index, (pid, w) in enumerate(entries))
            object.__setattr__(self, "entries", entries)
        if not entries:
            raise InputError("distribution has no producers")
        # Duplicates, finiteness and sign are checked in bulk; the entries are
        # walked only to name the first bad one.
        by_id = dict(entries)
        total = sum(by_id.values())
        if len(by_id) < len(entries) or not (math.isfinite(total) and min(by_id.values()) >= 0):
            seen = set()
            for index, (pid, w) in enumerate(entries):
                if pid in seen:
                    raise InputError(f"duplicate producer_id {pid!r}", index)
                seen.add(pid)
                if not math.isfinite(w) or w < 0:
                    raise InputError(f"weight of {pid!r} must be finite and >= 0, got {w!r}", index)
        if total <= 0:
            raise InputError("total weight must be positive")
        if total == math.inf:  # each weight is finite, but their sum overflows
            raise InputError("total weight must be finite, got inf")

    def __getstate__(self):
        # The cached shares are rebuilt on demand, so a pickle holds only the entries.
        return {"entries": self.entries}

    @functools.cached_property
    def _cumulative_shares(self) -> np.ndarray:
        """Fraction of the total weight the ``k`` heaviest producers hold, for
        k = 1..n; read-only. The last entry is exactly 1.0."""
        weights = np.fromiter(map(operator.itemgetter(1), self.entries), float, len(self.entries))
        cum = np.cumsum(np.sort(weights)[::-1])
        shares = cum / cum[-1]
        shares.flags.writeable = False
        return shares

    def total_weight(self) -> float:
        return float(sum(w for _, w in self.entries))


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
    producers.
    """

    n: int
    epsilon: float
    covered_share: float


def centralization_level(dist: ProducerDistribution, epsilon: float) -> CentralizationLevel:
    """Smallest ``n`` such that the ``n`` heaviest producers cover >= 1 - epsilon.

    Coverage uses >= (not strict >) so that epsilon = 0 stays meaningful for
    finite distributions: a lone producer covers exactly 1.0 and scores n = 1.
    """
    eps = real(epsilon, "epsilon")
    if not 0.0 <= eps < 1.0:
        raise InputError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    shares = dist._cumulative_shares
    target = (1.0 - eps) - COVERAGE_TOLERANCE
    n = int(np.searchsorted(shares, target, side="left")) + 1
    n = min(n, len(shares))
    return CentralizationLevel(n=n, epsilon=eps, covered_share=float(shares[n - 1]))


def central_trust(dist: ProducerDistribution, kind: ConsensusKind) -> CentralizationLevel:
    """Trust level implied by a protocol's fault threshold.

    Nakamoto maps to the 0.49 level, PBFT to the 1/3 level, and a single
    dictated producer is 1 by definition regardless of the distribution.
    """
    if kind is ConsensusKind.SINGLE:
        return CentralizationLevel(n=1, epsilon=0.0, covered_share=float(dist._cumulative_shares[0]))
    return centralization_level(dist, TRUST_EPSILON[kind])


def cumulative_share_curve(dist: ProducerDistribution) -> list[float]:
    """Cumulative fraction held by the heaviest producers: index ``k - 1``
    holds the top ``k``'s share, so the ranks are ``range(1, n + 1)``.

    The final fraction is exactly 1.0. Increments are non-increasing along
    the ranking, so the curve is concave in rank.
    """
    return dist._cumulative_shares.tolist()

