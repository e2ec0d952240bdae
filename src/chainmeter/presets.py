"""Named parameter sets and reference producer distributions.

``bitcoin``: 1 MiB blocks every 600 s, 513.86-byte mean transaction (the
long-run on-chain average), 6 confirmations; network side 5.7 Mbps (the
measured 90th-percentile miner access bandwidth, decimal megabits) with 0.1 s
one-way latency. Note that 5.7e6/8 / 513.86 puts the bandwidth ceiling at
~1386 tx/s; rounded-down figures near 1.1K tx/s circulate for the same
inputs, but this toolkit always reports the formula value.

``ethereum``: 15 s interval, 6 confirmations, 3.4 Mbps / 0.1 s network.
Ethereum meters blocks by gas rather than bytes, so the byte sizes here are
nominal values chosen to reproduce the well-known ~15 tx/s protocol rate.

The two miner distributions are synthetic block counts with the skew measured
in 2018: Bitcoin's top 4 pools holding 53% and top 16 holding 90% of mining
power, Ethereum's top 3 holding 61% and top 11 holding 90%. Integer weights
keep the tier shares exact.
"""

from __future__ import annotations

from chainmeter.bounds import ChainParams, NetworkParams
from chainmeter.errors import InputError
from chainmeter.metrics import ProducerDistribution

PRESETS: dict[str, tuple[ChainParams, NetworkParams]] = {
    "bitcoin": (
        ChainParams(block_size_bytes=1_048_576, tx_size_bytes=513.86, block_interval_s=600.0, confirmations=6),
        NetworkParams(bandwidth_bytes_per_s=712_500.0, latency_s=0.1),
    ),
    "ethereum": (
        ChainParams(block_size_bytes=112_500, tx_size_bytes=500.0, block_interval_s=15.0, confirmations=6),
        NetworkParams(bandwidth_bytes_per_s=425_000.0, latency_s=0.1),
    ),
}


def preset(name: str) -> tuple[ChainParams, NetworkParams]:
    """Chain and network parameters for a named preset."""
    try:
        return PRESETS[name]
    except KeyError:
        raise InputError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None


def _tiered(tiers: list[tuple[str, int, int]]) -> ProducerDistribution:
    ids, weights = [], []
    for prefix, count, weight in tiers:
        width = len(str(count))
        ids += (f"{prefix}-{i + 1:0{width}d}" for i in range(count))
        weights += [weight] * count
    return ProducerDistribution(tuple(ids), tuple(weights))


def bitcoin_miner_distribution() -> ProducerDistribution:
    """216 producers: 4 pools with 53% of blocks between them, 12 more pools
    bringing the top 16 to exactly 90%, and 200 small miners with the rest."""
    return _tiered([("pool", 4, 159_000), ("mid", 12, 37_000), ("node", 200, 600)])


def ethereum_miner_distribution() -> ProducerDistribution:
    """111 producers: 3 pools with 61% of blocks, 8 more bringing the top 11
    to exactly 90%, and 100 small miners with the rest."""
    return _tiered([("pool", 3, 488_000), ("mid", 8, 87_000), ("node", 100, 2_400)])
