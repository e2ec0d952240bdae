"""Closed-form latency and throughput for block-interval blockchains.

Confirmation latency is ``C * p``. The protocol-rate throughput is
``b / (s * p)`` transactions per second. Because a block must reach peers
before the next one is useful, the interval has a floor ``l + b/w``; pushing
``p`` down to that floor gives the propagation-limited throughput, which
increases monotonically in the block size and approaches the hard ceiling
``w / s`` from below.

Formulas take raw bytes and bytes per second; unit conversion is the
loader's job (see :mod:`chainmeter.ingest`). Throughputs are average rates
and are never floored. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from chainmeter.errors import InputError, integer


@dataclass(frozen=True)
class ChainParams:
    """Protocol constants: block size (a positive integer number of bytes),
    mean transaction size, block interval, and the confirmation count used for
    latency (a positive integer, 6 unless given)."""

    block_size_bytes: int
    tx_size_bytes: float
    block_interval_s: float
    confirmations: int = 6

    def __post_init__(self):
        if not 0 < integer(self.block_size_bytes, "block_size_bytes"):
            raise InputError(f"block_size_bytes must be positive, got {self.block_size_bytes!r}")
        # Each test is also false for NaN.
        if not 0 < self.tx_size_bytes < math.inf:
            raise InputError(f"tx_size_bytes must be positive and finite, got {self.tx_size_bytes!r}")
        if not 0 < self.block_interval_s < math.inf:
            raise InputError(f"block_interval_s must be positive and finite, got {self.block_interval_s!r}")
        if not 0 < integer(self.confirmations, "confirmations"):
            raise InputError(f"confirmations must be positive and finite, got {self.confirmations!r}")
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
        if not 0 < self.bandwidth_bytes_per_s < math.inf:
            raise InputError(f"bandwidth_bytes_per_s must be positive and finite, got {self.bandwidth_bytes_per_s!r}")
        if not 0 <= self.latency_s < math.inf:
            raise InputError(f"latency_s must be finite and >= 0, got {self.latency_s!r}")


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
    if hops < 1:
        raise InputError(f"hops must be >= 1, got {hops!r}")
    return hops * (net.latency_s + chain.block_size_bytes / net.bandwidth_bytes_per_s)


def propagation_limited_throughput(chain: ChainParams, net: NetworkParams) -> float:
    """Throughput with the interval pushed down to its floor ``l + b/w``, the
    delay of one hop."""
    if net.latency_s == 0.0:
        # The floor degenerates to b/w and the rate is exactly the ceiling.
        return net.bandwidth_bytes_per_s / chain.tx_size_bytes
    return chain.block_size_bytes / (chain.tx_size_bytes * propagation_delay(1, chain, net))


def throughput_upper_bound(net: NetworkParams, tx_size_bytes: float) -> float:
    """Hard ceiling ``w / s``: no block size can push throughput past it."""
    if tx_size_bytes <= 0:
        raise InputError(f"tx_size_bytes must be positive, got {tx_size_bytes!r}")
    return net.bandwidth_bytes_per_s / tx_size_bytes


def throughput_sweep(
    chain: ChainParams, net: NetworkParams, block_sizes: Sequence[int]
) -> list[tuple[int, float]]:
    """Propagation-limited throughput at each block size, in input order."""
    if not block_sizes:
        raise InputError("block_sizes must not be empty")
    return [(b, propagation_limited_throughput(replace(chain, block_size_bytes=b), net)) for b in block_sizes]

