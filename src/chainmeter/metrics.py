"""Centralization measures over block-producer distributions.

A producer distribution assigns each producer (miner, pool, validator) the
amount it produced: block counts, transaction counts, or hash-power shares.
The central quantity is the centralization level: the smallest number of top
producers that together cover at least a ``1 - epsilon`` fraction of total
production. At a fixed epsilon, a smaller number means a more centralized
system. A consensus protocol implies a natural epsilon through its fault
threshold, which yields the central-trust level.

A distribution holds two columns, ids and weights, and builds no tuple per
producer unless its ``entries`` are read. It sorts its weights once, with
numpy, the first time a level, trust level or curve asks for them, and keeps
them and the cumulative shares (the curve) for every later call. Equal
weights are equal floats and the total is positive, so the shares are bit for
bit those of a sort breaking ties by id. A level is decided exactly: the float
curve brackets it, and only a near-tie, which the floats cannot decide, sums
the sorted weights again as integers.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from chainmeter.errors import InputError, exact, real


@dataclass(frozen=True)
class ProducerDistribution:
    """Producers and the weights they produced, as two columns: ``ids[i]``
    produced ``weights[i]``. The total must be positive and finite.

    Weights may be block counts, transaction counts, or hash-power shares;
    the math is identical and no unit conversion is applied. Producer ids
    must be unique, weights finite and non-negative. ``entries`` gives the
    ``(producer_id, weight)`` rows, built when read.
    """

    ids: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        # Columns of exactly str and float are kept as given; any others are
        # read with str and errors.real, an int past the float range as infinite.
        ids = self.ids if exact(self.ids, str) else tuple(map(str, self.ids))
        weights = self.weights if exact(self.weights, float) else list(self.weights)
        if len(ids) != len(weights):
            raise InputError(f"distribution has {len(ids)} producer ids but {len(weights)} weights")
        if weights is not self.weights:
            weights = tuple(map(real, weights, map("weight of {!r}".format, ids), range(len(ids))))
        vars(self).update(ids=ids, weights=weights)
        if not ids:
            raise InputError("distribution has no producers")
        # Duplicates, finiteness and sign are checked in bulk; the columns are
        # walked only to name the first bad entry.
        total = sum(weights)
        if len(set(ids)) < len(ids) or not (math.isfinite(total) and min(weights) >= 0):
            seen = set()
            for index, (pid, w) in enumerate(zip(ids, weights)):
                if pid in seen:
                    raise InputError(f"duplicate producer_id {pid!r}", index)
                seen.add(pid)
                if not math.isfinite(w) or w < 0:
                    raise InputError(f"weight of {pid!r} must be finite and >= 0, got {w!r}", index)
        if total <= 0:
            raise InputError("total weight must be positive")
        if total == math.inf:  # each weight is finite, but their sum overflows
            raise InputError("total weight must be finite, got inf")

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        """The ``(producer_id, weight)`` rows, zipped from the columns when read."""
        return tuple(zip(self.ids, self.weights))

    def __getstate__(self):
        # The cached arrays are rebuilt on demand, so a pickle holds only the columns.
        return {"ids": self.ids, "weights": self.weights}

    @functools.cached_property
    def _descending_weights(self) -> np.ndarray:
        """The weights, heaviest first; read-only."""
        weights = np.sort(np.array(self.weights, float))[::-1]
        weights.flags.writeable = False
        return weights

    @functools.cached_property
    def _cumulative_shares(self) -> np.ndarray:
        """Fraction of the total weight the ``k`` heaviest producers hold, for
        k = 1..n; read-only. The last entry is exactly 1.0."""
        cum = np.cumsum(self._descending_weights)
        shares = cum / cum[-1]
        shares.flags.writeable = False
        return shares


class ConsensusKind(Enum):
    NAKAMOTO = "nakamoto"
    PBFT = "pbft"
    SINGLE = "single"


# Epsilon implied by each protocol's fault threshold. Nakamoto consensus needs
# a >50% honest majority, so trust concentrates in whoever reaches 51%:
# epsilon = 0.49. PBFT tolerates f faulty of 3f+1 nodes, i.e. a 2/3 honest
# quorum: epsilon = 1/3 (commonly quoted rounded as 0.33; the exact fraction
# is required so that 2 of 3 equal producers meet the quorum, which the float
# 1/3, read as the decimal 0.3333333333333333, would not).
TRUST_EPSILON: dict[ConsensusKind, numbers.Rational | float] = {
    ConsensusKind.NAKAMOTO: 0.49,
    ConsensusKind.PBFT: Fraction(1, 3),
}


@dataclass(frozen=True)
class CentralizationLevel:
    """Smallest count ``n`` of top producers covering at least ``1 - epsilon``.

    ``covered_share`` is the cumulative fraction held by those ``n``
    producers, as a float.
    """

    n: int
    epsilon: float
    covered_share: float


def centralization_level(dist: ProducerDistribution, epsilon: float) -> CentralizationLevel:
    """Smallest ``n`` such that the ``n`` heaviest producers cover >= 1 - epsilon.

    Coverage uses >= (not strict >) so that epsilon = 0 stays meaningful for
    finite distributions: a lone producer covers exactly 1.0 and scores n = 1.

    The comparison is exact. Each weight is the binary fraction its float
    holds. A ``numbers.Rational`` epsilon is taken as it is, and any other as
    the decimal it prints as, ``Fraction(repr(epsilon))``, so 0.1 means 1/10.
    With ``epsilon = num/den``, ``n`` is the least count whose top-``n`` sum
    ``S`` meets ``den*S >= (den - num)*total``.
    """
    eps = real(epsilon, "epsilon")
    # NaN and the infinities print as no decimal.
    exact_eps = (Fraction(epsilon) if isinstance(epsilon, numbers.Rational)
                 else Fraction(repr(eps)) if math.isfinite(eps) else None)
    if exact_eps is None or not 0 <= exact_eps < 1:
        raise InputError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    target = 1 - exact_eps
    shares = dist._cumulative_shares
    # A float share is within len(shares) * 2**-52 of the exact one (a rounding
    # per cumulative addition, one for the division), and the goal within
    # 2**-53 of the target: under a quarter of the slack together. So ranks
    # outside the slack are decided by their floats, the answer lies in
    # [lo, hi], and only a bracket of more than one rank needs exact sums.
    slack, goal = len(shares) * 2.0**-49, float(target)
    lo, hi = np.searchsorted(shares, (goal - slack, goal + slack), side="left").tolist()
    hi = min(hi, len(shares) - 1)
    if lo < hi:
        # The weights as integers over their largest binary denominator; a
        # top group covers when its sum reaches target * total, rounded up.
        ratios = list(map(float.as_integer_ratio, dist._descending_weights.tolist()))
        scale = max(q for _, q in ratios)
        weights = [p * (scale // q) for p, q in ratios]
        prefix = list(itertools.accumulate(weights[:hi + 1]))
        lo = bisect.bisect_left(prefix, -(-target.numerator * sum(weights) // target.denominator), lo, hi)
    return CentralizationLevel(n=lo + 1, epsilon=eps, covered_share=float(shares[lo]))


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

