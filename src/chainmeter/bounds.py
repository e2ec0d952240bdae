"""Closed-form latency and throughput for block-interval blockchains.

Confirmation latency is ``C * p``. The protocol-rate throughput is
``b / (s * p)`` transactions per second. Because a block must reach peers
before the next one is useful, the interval has a floor ``l + b/w``; pushing
``p`` down to that floor gives the propagation-limited throughput, which
increases monotonically in the block size and approaches the hard ceiling
``w / s`` from below.

Formulas take raw bytes and bytes per second, as configs hold them; only
the ``bound`` command's ``--block-size-mib`` and ``--bandwidth-mbps`` flags
convert (see :mod:`chainmeter.cli`). Throughputs are average rates
and are never floored. All functions are pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from chainmeter.errors import InputError, integer, plain, positive, real


@dataclass(frozen=True)
class ChainParams:
    """Protocol constants: block size (a positive integer number of bytes),
    mean transaction size, block interval, and the confirmation count used for
    latency (a positive integer, 6 unless given). The two counts are stored
    as ints, so a numpy integer gives the result of the equal int."""

    block_size_bytes: int
    tx_size_bytes: float
    block_interval_s: float
    confirmations: int = 6

    def __post_init__(self):
        for name, count in (("block_size_bytes", True), ("tx_size_bytes", False),
                            ("block_interval_s", False), ("confirmations", True)):
            value = getattr(self, name)
            object.__setattr__(self, name, positive(integer(value, name) if count else value, name))
        if self.block_size_bytes < self.tx_size_bytes:
            raise InputError(
                "a block must hold at least one transaction: "
                f"block_size_bytes {self.block_size_bytes!r} < tx_size_bytes {self.tx_size_bytes!r}"
            )


@dataclass(frozen=True)
class NetworkParams:
    """Access bandwidth (bytes/s) and one-way latency (s) of a node."""

    bandwidth_bytes_per_s: float
    latency_s: float

    def __post_init__(self):
        object.__setattr__(self, "bandwidth_bytes_per_s", positive(self.bandwidth_bytes_per_s, "bandwidth_bytes_per_s"))
        # Also false for NaN.
        if not 0 <= real(self.latency_s, "latency_s") < math.inf:
            raise InputError(f"latency_s must be finite and >= 0, got {self.latency_s!r}")
        object.__setattr__(self, "latency_s", plain(self.latency_s, "latency_s"))


def tx_latency(chain: ChainParams) -> float:
    """Seconds until a transaction is confirmed: confirmations times interval."""
    return chain.confirmations * chain.block_interval_s


def block_capacity(chain: ChainParams) -> float:
    """Transactions per block, ``b / s``. Not rounded; callers may floor."""
    return chain.block_size_bytes / chain.tx_size_bytes


def max_throughput(chain: ChainParams) -> float:
    """Protocol-rate throughput ``b / (s * p)`` in transactions per second."""
    return chain.block_size_bytes / (chain.tx_size_bytes * chain.block_interval_s)


def propagation_delay(hops: int, chain: ChainParams, net: NetworkParams) -> float:
    """Seconds for a block to travel ``hops`` links: each costs ``l + b/w``."""
    positive(integer(hops, "hops"), "hops")
    return hops * (net.latency_s + chain.block_size_bytes / net.bandwidth_bytes_per_s)


def propagation_limited_throughput(chain: ChainParams, net: NetworkParams) -> float:
    """Throughput with the interval pushed down to its floor ``l + b/w``, the
    delay of one hop: the one-size ``throughput_sweep``."""
    return throughput_sweep(chain, net, (chain.block_size_bytes,))[0]


def throughput_upper_bound(net: NetworkParams, tx_size_bytes: float) -> float:
    """Hard ceiling ``w / s``: no block size can push throughput past it."""
    return net.bandwidth_bytes_per_s / float(positive(tx_size_bytes, "tx_size_bytes"))


def throughput_sweep(chain: ChainParams, net: NetworkParams, block_sizes: Sequence[int]) -> list[float]:
    """Propagation-limited throughput at each block size, in input order:
    ``b / (s * (l + b/w))``, the one formula for it, in one numpy pass of
    Python's own float operations, so each rate has the scalar formula's
    bits. Only when some size is bad do the sizes go through ``ChainParams``
    one by one, to reject the first with its message."""
    if not block_sizes:
        raise InputError("block_sizes must not be empty")
    try:
        # errors.integer's rule: operator.index, refusing booleans. Then
        # ChainParams' block-size rule, which is monotone in the size, so the
        # smallest and the largest size decide it for every size.
        if bool in set(map(type, block_sizes)):
            raise TypeError
        sizes = list(map(operator.index, block_sizes))
        for b in (min(sizes), max(sizes)):
            replace(chain, block_size_bytes=b)
    except (TypeError, InputError):
        for b in block_sizes:
            replace(chain, block_size_bytes=b)
    s, latency, w = chain.tx_size_bytes, net.latency_s, net.bandwidth_bytes_per_s
    if latency == 0.0:
        # The floor degenerates to b/w and the rate is exactly the ceiling.
        return [w / s] * len(sizes)
    b = np.array(sizes, dtype=float)
    return (b / (s * (latency + b / w))).tolist()
