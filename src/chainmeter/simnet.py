"""Deterministic discrete-event simulation of proof-of-work mining over a
gossip network.

Mining is one global Poisson clock: block-creation events arrive with a mean
spacing equal to the configured block interval, and each event's winner is
drawn proportionally to hash power (statistically the same as per-miner
exponential clocks, but simpler to reproduce bit for bit). The winner extends
the highest block it has heard of. Every node relays every block over a
random degree-regular peer graph at ``latency + block_size/bandwidth`` seconds
per hop, so a block reaches a node exactly its hop distance after it is mined
(Decker & Wattenhofer, IEEE P2P 2013); each winner reads its inbox of blocks
in flight by that rule, keeping the first-arrived highest block, with ties in
float arrival time going to the lower block id. Difficulty never retargets,
blocks count as full (transactions are not simulated individually), and
bandwidth contention is ignored: a hop always costs the same.

Everything random (peer graph, event spacing, winner choice) comes from one
seeded generator consumed in a fixed order, so identical configs produce
identical results, event for event. Each run is single-threaded; separate
runs are independent and may execute concurrently, and a finished
:class:`SimResult` is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from chainmeter.bounds import ChainParams, NetworkParams, block_capacity, throughput_upper_bound
from chainmeter.errors import InputError, TopologyError, ValidationError
from chainmeter.metrics import ProducerDistribution

SHARE_SUM_TOLERANCE = 1e-9

GENESIS_MINER = "genesis"


@dataclass(frozen=True)
class SimConfig:
    """Full simulator input. ``miners`` pairs ids with hash-power shares that
    must sum to 1; ``topology_degree`` is ignored for single-miner runs."""

    miners: tuple[tuple[str, float], ...]
    chain: ChainParams
    net: NetworkParams
    duration_blocks: int
    topology_degree: int = 8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "miners", tuple((str(m), float(s)) for m, s in self.miners)
        )


@dataclass(frozen=True)
class BlockRecord:
    """One mined block. The genesis block has height 0 and no parent; every
    other block points at a parent one level below it and is mined strictly
    after it. Hashes are out of scope: ids are plain integers in mining order."""

    block_id: int
    miner_id: str
    parent_id: int | None
    height: int
    mined_at_s: float
    size_bytes: int


@dataclass(frozen=True)
class SimResult:
    """Outcome of one run.

    ``canonical_chain`` is the longest chain at the end of the run, ties
    broken by earliest arrival at the end-of-run observer (which hears every
    block the moment it is mined), then by lowest block id. ``observed_tps``
    is block capacity times canonical blocks over the nominal schedule length
    ``duration_blocks * block_interval``, so a competition-free run reproduces
    capacity/interval exactly; blocks still in flight when the last one is
    mined count like any other. ``mean_confirmation_latency_s`` is the
    confirmation count times the mean canonical inter-block time.
    """

    blocks: tuple[BlockRecord, ...]
    canonical_chain: tuple[int, ...]
    per_miner_canonical: ProducerDistribution
    stale_rate: float
    observed_tps: float
    mean_confirmation_latency_s: float


@dataclass(frozen=True)
class BoundCheck:
    observed_tps: float
    cap_tps: float
    violated: bool


def validate_config(config: SimConfig) -> list[str]:
    """All constraint violations in ``config`` (empty when valid)."""
    problems = []
    n = len(config.miners)
    if n == 0:
        problems.append("miners: at least one miner is required")
    ids = [m for m, _ in config.miners]
    if len(set(ids)) != len(ids):
        problems.append("miners: miner ids must be unique")
    shares = [s for _, s in config.miners]
    if any(not math.isfinite(s) or s < 0 for s in shares):
        problems.append("miners: hash power shares must be finite and >= 0")
    elif n > 1 and abs(sum(shares) - 1.0) > SHARE_SUM_TOLERANCE:
        problems.append(f"miners: hash power shares must sum to 1, got {sum(shares)!r}")
    if n > 1:
        low = 1 if n == 2 else 2  # a connected 1-regular graph has 2 nodes
        if not low <= config.topology_degree < n:
            problems.append(
                f"topology_degree: must lie in [{low}, {n - 1}] for {n} miners, got {config.topology_degree}"
            )
        elif (n * config.topology_degree) % 2 == 1:
            problems.append(
                f"topology_degree: no {config.topology_degree}-regular graph exists over {n} nodes"
            )
    if config.duration_blocks < 1:
        problems.append(f"duration_blocks: must be >= 1, got {config.duration_blocks}")
    if not 0 <= config.seed < 2**64:
        problems.append(f"seed: must be an unsigned 64-bit integer, got {config.seed}")
    return problems


def propagation_delay(hops: int, chain: ChainParams, net: NetworkParams) -> float:
    """Seconds for a block to travel ``hops`` links: each costs ``l + b/w``."""
    if hops < 1:
        raise InputError(f"hops must be >= 1, got {hops!r}")
    return hops * (net.latency_s + chain.block_size_bytes / net.bandwidth_bytes_per_s)


def _hop_distances(peers: np.ndarray, source: int) -> np.ndarray:
    """Breadth-first hop count from ``source`` over the adjacency rows
    ``peers``, in the smallest unsigned type holding n; unreached nodes read n."""
    n = len(peers)
    dist = np.full(n, n, dtype=np.min_scalar_type(n))
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    depth = 0
    while frontier.any():
        dist[frontier] = depth
        depth += 1
        reached = np.zeros(n, dtype=bool)
        reached[peers[frontier]] = True
        frontier = reached & (dist == n)
    return dist


def _any_valid_pair(stubs: list[int], adj: list[set[int]]) -> bool:
    values = set(stubs)
    for u in values:
        for v in values:
            if u < v and v not in adj[u]:
                return True
    return False


def random_regular_graph(n: int, degree: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Connected degree-regular peer graph via random stub matching.

    Pairs stubs uniformly, rejecting self-loops and duplicate edges; a stuck
    or disconnected matching triggers a fresh attempt (up to 100, all driven
    by ``rng``, so the result is a pure function of the generator state).
    """
    if n == 1 or degree == 0:
        return ((),) if n == 1 else tuple(() for _ in range(n))
    for _attempt in range(100):
        adj: list[set[int]] = [set() for _ in range(n)]
        stubs = [node for node in range(n) for _ in range(degree)]
        stuck = False
        while stubs and not stuck:
            rejections = 0
            while True:
                i = int(rng.integers(len(stubs)))
                j = int(rng.integers(len(stubs)))
                u, v = stubs[i], stubs[j]
                if i != j and u != v and v not in adj[u]:
                    break
                rejections += 1
                if rejections > 50 + 10 * len(stubs):
                    if not _any_valid_pair(stubs, adj):
                        stuck = True
                        break
                    rejections = 0
            if stuck:
                break
            adj[u].add(v)
            adj[v].add(u)
            for index in sorted((i, j), reverse=True):
                stubs[index] = stubs[-1]
                stubs.pop()
        if not stuck:
            graph = tuple(tuple(sorted(peers)) for peers in adj)
            if _hop_distances(np.array(graph), 0).max() < n:
                return graph
    raise TopologyError(
        f"no connected {degree}-regular graph over {n} nodes after 100 seeded attempts"
    )


def run_simulation(config: SimConfig) -> SimResult:
    """Run the full mining + gossip simulation described by ``config``."""
    problems = validate_config(config)
    if problems:
        raise ValidationError("; ".join(problems))

    chain, net = config.chain, config.net
    n = len(config.miners)
    interval = chain.block_interval_s
    hop = propagation_delay(1, chain, net)
    rng = np.random.default_rng(config.seed)

    adj = random_regular_graph(n, config.topology_degree if n > 1 else 0, rng)
    peers = np.array(adj, dtype=np.intp).reshape(n, -1)

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
    mined_at = [0.0] + mine_times.tolist()
    miner_of = [-1] + winners.tolist()
    tip = [0] * n
    tip_height = [0] * n
    # inbox[m] holds (arrival at m, block id) for blocks in flight to m; ids
    # below offered[m] are in it already or can never beat m's tip.
    offered = [1] * n
    inbox: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    distances: dict[int, memoryview] = {}

    for block_id in range(1, blocks_to_mine + 1):
        now = mined_at[block_id]
        miner = miner_of[block_id]
        dist = distances.get(miner)
        if dist is None:
            dist = distances[miner] = memoryview(_hop_distances(peers, miner))
        box = inbox[miner]
        for b in range(offered[miner], block_id):
            if height[b] > tip_height[miner]:
                # One ``+ hop`` per link, as each relay adds it, so the
                # arrival time is the same float a hop-by-hop flood gives.
                at = mined_at[b]
                for _ in range(dist[miner_of[b]]):
                    at += hop
                heappush(box, (at, b))
        offered[miner] = block_id + 1
        while box and box[0][0] <= now:
            b = heappop(box)[1]
            if height[b] > tip_height[miner]:
                tip[miner] = b
                tip_height[miner] = height[b]
        parent.append(tip[miner])
        height.append(tip_height[miner] + 1)
        tip[miner] = block_id
        tip_height[miner] = height[block_id]

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

    return SimResult(
        blocks=tuple(records),
        canonical_chain=tuple(canonical),
        per_miner_canonical=ProducerDistribution(
            tuple((m, float(counts[m])) for m in miner_ids)
        ),
        stale_rate=1.0 - n_canonical / blocks_to_mine,
        observed_tps=block_capacity(chain) * (n_canonical / blocks_to_mine) / interval,
        mean_confirmation_latency_s=chain.confirmations * (mined_at[best] / n_canonical),
    )


def produced_distribution(result: SimResult, canonical_only: bool) -> ProducerDistribution:
    """Blocks per miner, over the canonical chain or over everything mined.

    Genesis is excluded. Miners that mined nothing keep a zero entry so the
    distribution lines up with the configured miner set.
    """
    if canonical_only:
        return result.per_miner_canonical
    counts = {pid: 0.0 for pid, _ in result.per_miner_canonical.entries}
    for record in result.blocks:
        if record.height == 0:
            continue
        counts[record.miner_id] = counts.get(record.miner_id, 0.0) + 1.0
    return ProducerDistribution(tuple(counts.items()))


def bound_violation_check(result: SimResult, net: NetworkParams, chain: ChainParams) -> BoundCheck:
    """Compare a run's observed throughput against the ``w/s`` ceiling."""
    cap = throughput_upper_bound(net, chain.tx_size_bytes)
    return BoundCheck(
        observed_tps=result.observed_tps,
        cap_tps=cap,
        violated=result.observed_tps > cap,
    )
