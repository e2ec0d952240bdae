"""Independent oracles and generators shared across test modules.

The oracles deliberately avoid the library's code paths: plain Python sums
and scans only, so agreement with the library is evidence, not tautology.
The simulator oracle shares only config validation, the peer-graph builder
and the random draws with the library; it propagates blocks hop by hop, and
builds its block records itself. The JSON export oracle is the library's
former ``json.dump(indent=2)`` path; it sees a ``SimResult`` as the records
it used to hold (``as_records``). The shares oracle is the metrics module's
former sort of ``(-weight, id)`` pairs.
"""

import dataclasses
from enum import Enum
from heapq import heappop, heappush
from itertools import combinations
import json
import random

import numpy as np

from chainmeter import PaymentGraph, ProducerDistribution, block_capacity
from chainmeter.errors import FormatError
from chainmeter.simnet import (
    GENESIS_MINER,
    BlockRecord,
    SimConfig,
    SimResult,
    random_regular_graph,
)

COVERAGE_TOL = 1e-9

# How long after the last mining event in-flight blocks may still settle,
# in units of the single-hop delay. Bounded by network diameter in practice.
DRAIN_HOPS = 10


def oracle_level(weights, epsilon):
    """Brute-force centralization level: sort descending, re-sum each prefix."""
    ordered = sorted(weights, reverse=True)
    total = sum(ordered)
    for n in range(1, len(ordered) + 1):
        covered = sum(ordered[:n])  # re-summed from scratch on purpose
        if covered / total >= (1.0 - epsilon) - COVERAGE_TOL:
            return n
    return len(ordered)


def oracle_descending_shares(dist: ProducerDistribution) -> np.ndarray:
    """The library's former ``_descending_shares``, kept verbatim: weights in
    ``sorted_entries`` order (ties by id), summed and normalized."""
    weights = np.array([w for _, w in dist.sorted_entries()], dtype=float)
    cum = np.cumsum(weights)
    return cum / cum[-1]


def random_distribution(rng: random.Random, max_producers: int = 20):
    """Random (id, weight) pairs; at least one strictly positive weight."""
    n = rng.randint(1, max_producers)
    while True:
        weights = [rng.choice([0.0, rng.uniform(0.01, 100.0), float(rng.randint(1, 1000))]) for _ in range(n)]
        if sum(weights) > 0:
            return [(f"p{i:03d}", w) for i, w in enumerate(weights)]


def all_payment_graphs(max_clients: int):
    """Every non-empty payment graph on 2..max_clients labelled clients."""
    for n in range(2, max_clients + 1):
        clients = [f"c{i}" for i in range(n)]
        pairs = list(combinations(clients, 2))
        for mask in range(1, 2 ** len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield PaymentGraph(
                clients=frozenset(clients),
                payments=tuple((a, b, 1) for a, b in chosen),
            )


@dataclasses.dataclass(frozen=True)
class RecordResult:
    """A simulation result packaged as ``SimResult`` was before it held its
    blocks as columns: each public attribute a field, ``blocks`` first."""

    blocks: tuple[BlockRecord, ...]
    canonical_chain: tuple[int, ...]
    per_miner_canonical: ProducerDistribution
    stale_rate: float
    observed_tps: float
    mean_confirmation_latency_s: float


def as_records(report):
    """``report`` with a ``SimResult``, or each one in a list, repackaged as
    a ``RecordResult`` read through its public attributes."""
    if isinstance(report, SimResult):
        return RecordResult(*(getattr(report, f.name) for f in dataclasses.fields(RecordResult)))
    if isinstance(report, list):
        return [as_records(item) for item in report]
    return report


def oracle_simulation(config: SimConfig) -> RecordResult:
    """The per-hop event-heap engine that ``run_simulation`` replaced, kept
    verbatim as its reference: every receipt is one heap event, a node
    forwards each block to every peer that has not seen it, and in-flight
    blocks drain for ``DRAIN_HOPS`` hop-delays after the last mining event."""
    chain, net = config.chain, config.net
    n = len(config.miners)
    interval = chain.block_interval_s
    hop = net.latency_s + chain.block_size_bytes / net.bandwidth_bytes_per_s
    rng = np.random.default_rng(config.seed)

    adj = random_regular_graph(n, config.topology_degree if n > 1 else 0, rng)

    # Pre-drawing the whole event stream keeps generator consumption
    # independent of chain/net parameters: the same seed replays the same
    # winners and (scaled) spacings at any interval or block size.
    blocks_to_mine = config.duration_blocks
    mine_times = np.cumsum(rng.standard_exponential(blocks_to_mine) * interval)
    winner_draws = rng.random(blocks_to_mine)
    share_cum = np.cumsum(np.array([s for _, s in config.miners], dtype=float))
    winners = np.minimum(np.searchsorted(share_cum, winner_draws, side="right"), n - 1)

    parent = [-1]
    height = [0]
    mined_at = [0.0]
    miner_of = [-1]
    tip = [0] * n
    tip_height = [0] * n
    seen: list[set[int]] = [{0} for _ in range(n)]

    heap: list[tuple[float, int, int, int]] = []
    seq = 0

    def receive(at: float, node: int, block: int) -> None:
        nonlocal seq
        if block in seen[node]:
            return
        seen[node].add(block)
        if height[block] > tip_height[node]:
            tip[node] = block
            tip_height[node] = height[block]
        for peer in adj[node]:
            if block not in seen[peer]:
                seq += 1
                heappush(heap, (at + hop, seq, peer, block))

    for i in range(blocks_to_mine):
        now = float(mine_times[i])
        while heap and heap[0][0] <= now:
            at, _, node, block = heappop(heap)
            receive(at, node, block)
        miner = int(winners[i])
        block_id = i + 1
        parent.append(tip[miner])
        height.append(tip_height[miner] + 1)
        mined_at.append(now)
        miner_of.append(miner)
        seen[miner].add(block_id)
        tip[miner] = block_id
        tip_height[miner] = height[block_id]
        for peer in adj[miner]:
            seq += 1
            heappush(heap, (now + hop, seq, peer, block_id))

    end_time = float(mine_times[-1]) + DRAIN_HOPS * hop
    while heap and heap[0][0] <= end_time:
        at, _, node, block = heappop(heap)
        receive(at, node, block)

    # Longest chain; ties by earliest creation (= arrival at the end-of-run
    # observer), then lowest id.
    best = 0
    for b in range(1, blocks_to_mine + 1):
        if (height[b], -mined_at[b], -b) > (height[best], -mined_at[best], -best):
            best = b
    canonical = []
    cursor = best
    while cursor != -1:
        canonical.append(cursor)
        cursor = parent[cursor]
    canonical.reverse()

    n_canonical = len(canonical) - 1
    miner_ids = [m for m, _ in config.miners]
    counts = {m: 0 for m in miner_ids}
    for b in canonical[1:]:
        counts[miner_ids[miner_of[b]]] += 1

    records = [
        BlockRecord(
            block_id=b,
            miner_id=GENESIS_MINER if b == 0 else miner_ids[miner_of[b]],
            parent_id=None if b == 0 else parent[b],
            height=height[b],
            mined_at_s=mined_at[b],
            size_bytes=chain.block_size_bytes,
        )
        for b in range(blocks_to_mine + 1)
    ]

    return RecordResult(
        blocks=tuple(records),
        canonical_chain=tuple(canonical),
        per_miner_canonical=ProducerDistribution(
            tuple((m, float(counts[m])) for m in miner_ids)
        ),
        stale_rate=1.0 - n_canonical / blocks_to_mine,
        observed_tps=block_capacity(chain) * (n_canonical / blocks_to_mine) / interval,
        mean_confirmation_latency_s=chain.confirmations * (mined_at[best] / n_canonical),
    )


def oracle_to_jsonable(obj):
    """The library's original ``to_jsonable``, kept verbatim."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: oracle_to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [oracle_to_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(oracle_to_jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): oracle_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise FormatError(f"cannot serialize {type(obj).__name__} to JSON")


def oracle_export_json(report, path) -> None:
    """The library's original JSON export, kept verbatim: the whole payload
    is built first, then written by ``json.dump(..., indent=2)``."""
    if isinstance(report, SimConfig):
        payload = {
            "miners": [
                {"miner_id": m, "hash_power_share": s} for m, s in report.miners
            ],
            "chain": oracle_to_jsonable(report.chain),
            "net": oracle_to_jsonable(report.net),
            "topology_degree": report.topology_degree,
            "duration_blocks": report.duration_blocks,
            "seed": report.seed,
        }
    else:
        payload = oracle_to_jsonable(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
