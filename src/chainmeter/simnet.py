"""Deterministic discrete-event simulation of proof-of-work mining over a
gossip network.

Mining is one global Poisson clock: block-creation events arrive with a mean
spacing equal to the configured block interval, and each event's winner is
drawn proportionally to hash power (statistically the same as per-miner
exponential clocks, but simpler to reproduce bit for bit). Every node relays
every block over a random degree-regular peer graph at
``latency + block_size/bandwidth`` seconds per hop, so a block reaches a node
exactly its hop distance after it is mined (Decker & Wattenhofer, IEEE P2P
2013). The winner extends the highest block that has reached it, the first
to arrive on a tie in height and the lower block id on a tie in float
arrival time. A block mined at least ``ecc`` hops before an event has
reached the winner, ``ecc`` being the most hops between two miners that win
a block (no other node mines one), so each event's settled prefix of block
ids is one sorted search of the mining times plus ``ecc`` hops. Only the
blocks past it, still in flight, are looked up in a window of per-hop sums
that moves with them. Difficulty never retargets, blocks count as
full (transactions are not simulated individually), and bandwidth
contention is ignored.

Everything random (peer graph, event spacing, winner choice) comes from one
seeded generator consumed in a fixed order, so identical configs produce
identical results, event for event. The peer graph's stubs are drawn in
chunks that consume the generator exactly as one call per stub would; a lone
rejected pair does not shrink the next chunk, a streak of them does. One
breadth-first search gives every winner its hop distances up front.
Each run is single-threaded; separate runs are independent and may execute
concurrently, and a finished :class:`SimResult` is immutable.

A result holds its blocks as one :class:`BlockTable`, the engine's columns
(parent, height, mining time and miner index per block id), built once by
``run_simulation``; the JSON export encodes it as rows a chunk at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from chainmeter.bounds import ChainParams, NetworkParams, block_capacity, propagation_delay, throughput_upper_bound
from chainmeter.errors import InputError, TopologyError, ValidationError, integer, real
from chainmeter.metrics import ProducerDistribution

SHARE_SUM_TOLERANCE = 1e-9

GENESIS_MINER = "genesis"


@dataclass(frozen=True)
class SimConfig:
    """Full simulator input. ``miners`` pairs ids with hash-power shares that
    must sum to 1; a lone miner holds all the hash power, so its positive
    share becomes 1.0, and ``topology_degree`` is ignored for it.

    A config checks itself when it is built, ``dataclasses.replace`` included:
    it raises one ``ValidationError`` that lists every violated field.
    ``duration_blocks``, ``topology_degree`` and ``seed`` must be integers
    (numpy integers too, stored as ints, but not ``6.0``).
    """

    miners: tuple[tuple[str, float], ...]
    chain: ChainParams
    net: NetworkParams
    duration_blocks: int
    topology_degree: int = 8
    seed: int = 0

    def __post_init__(self):
        problems = []
        n = len(self.miners)
        if n == 0:
            problems.append("miners: at least one miner is required")
        ids = [str(m) for m, _ in self.miners]
        if len(set(ids)) != len(ids):
            problems.append("miners: miner ids must be unique")
        shares = []
        for i, (_, s) in enumerate(self.miners):
            try:
                shares.append(real(s, "hash_power_share"))
            except InputError as exc:
                problems.append(f"miners[{i}]: {exc}")
        if len(shares) == n:  # each share that is not a number is listed
            if any(not math.isfinite(s) or s < 0 for s in shares):
                problems.append("miners: hash power shares must be finite and >= 0")
            elif n > 1 and abs(sum(shares) - 1.0) > SHARE_SUM_TOLERANCE:
                problems.append(f"miners: hash power shares must sum to 1, got {sum(shares)!r}")
            else:
                object.__setattr__(self, "miners", tuple(zip(ids, [1.0] if n == 1 and shares[0] > 0 else shares)))
        for name, kind in (("chain", ChainParams), ("net", NetworkParams)):
            if not isinstance(getattr(self, name), kind):
                problems.append(f"{name}: must be a {kind.__name__}, got {getattr(self, name)!r}")
        ints = {}
        for name in ("topology_degree", "duration_blocks", "seed"):
            try:
                ints[name] = integer(getattr(self, name), name)
                object.__setattr__(self, name, ints[name])
            except InputError as exc:
                problems.append(str(exc))
        if n > 1 and "topology_degree" in ints:
            degree = ints["topology_degree"]
            low = 1 if n == 2 else 2  # a connected 1-regular graph has 2 nodes
            if not low <= degree < n:
                problems.append(f"topology_degree: must lie in [{low}, {n - 1}] for {n} miners, got {degree}")
            elif (n * degree) % 2 == 1:
                problems.append(f"topology_degree: no {degree}-regular graph exists over {n} nodes")
        if ints.get("duration_blocks", 1) < 1:
            problems.append(f"duration_blocks: must be >= 1, got {self.duration_blocks}")
        if not 0 <= ints.get("seed", 0) < 2**64:
            problems.append(f"seed: must be an unsigned 64-bit integer, got {self.seed}")
        if problems:
            raise ValidationError("; ".join(problems))


@dataclass(frozen=True)
class BlockTable:
    """Every block mined, genesis first, as columns indexed by block id.

    ``parent_ids`` holds None for genesis, which has height 0; every other
    block points at a parent one level below it and is mined strictly after
    it. ``miner_index`` indexes ``miner_ids`` (the config's order), -1 for
    genesis. Every block is ``size_bytes`` long. Hashes are out of scope:
    ids are plain integers in mining order. The length counts genesis.
    """

    parent_ids: tuple[int | None, ...]
    heights: tuple[int, ...]
    mined_at_s: tuple[float, ...]
    miner_index: tuple[int, ...]
    size_bytes: int
    miner_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.heights)

    def columns(self, start: int, stop: int) -> dict[str, Sequence]:
        """Blocks ``start`` up to ``stop`` (clipped to the table) as the rows
        they export as: one column per field, in field order."""
        stop = min(stop, len(self))
        names = (*self.miner_ids, GENESIS_MINER)
        return {
            "block_id": range(start, stop),
            "miner_id": list(map(names.__getitem__, self.miner_index[start:stop])),
            "parent_id": self.parent_ids[start:stop],
            "height": self.heights[start:stop],
            "mined_at_s": self.mined_at_s[start:stop],
            "size_bytes": (self.size_bytes,) * (stop - start),
        }


@dataclass(frozen=True)
class SimResult:
    """Outcome of one run.

    ``blocks`` holds every block mined, genesis first, as one column table.
    ``canonical_chain`` is the longest chain at the end of the run, ties
    broken by earliest arrival at the end-of-run observer (which hears every
    block the moment it is mined), then by lowest block id. ``observed_tps``
    is block capacity times canonical blocks over the nominal schedule length
    ``duration_blocks * block_interval``, so a competition-free run reproduces
    capacity/interval exactly; blocks still in flight when the last one is
    mined count like any other. ``mean_confirmation_latency_s`` is the
    confirmation count times the mean canonical inter-block time.
    """

    blocks: BlockTable
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


def _hop_distances(peers: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Breadth-first hop counts over the adjacency rows ``peers``, row k from
    ``sources[k]``, in the smallest unsigned type holding n; unreached nodes
    read n. One search serves every source: a node carries a bit per source,
    packed eight to a byte, and each level ORs its peers' bits."""
    n = len(peers)
    count = len(sources)
    dist = np.full((count, n), n, dtype=np.min_scalar_type(n))
    newly = np.zeros((n, count), dtype=bool)
    newly[sources, np.arange(count)] = True
    frontier = np.packbits(newly, axis=1)
    seen = frontier.copy()
    depth = 0
    while newly.any():
        dist.T[newly] = depth
        depth += 1
        frontier = np.bitwise_or.reduce(frontier[peers], axis=1) & ~seen
        seen |= frontier
        newly = np.unpackbits(frontier, axis=1, count=count).view(bool)
    return dist


def _hop_sums(times: np.ndarray, hops: int, hop: float) -> Iterator[np.ndarray]:
    """``times`` plus one ``hop``, then plus two, and so on up to ``hops``:
    one IEEE addition per hop, as each relay adds it, so row e holds the
    float a hop-by-hop flood gives a block e hops from its miner."""
    for _ in range(hops):
        times = times + hop
        yield times


# Hop sums the simulator's window of blocks in flight holds at least.
_WINDOW_SUMS = 1 << 16


def _any_valid_pair(stubs: list[int], adj: list[set[int]]) -> bool:
    values = set(stubs)
    for u in values:
        for v in values:
            if u < v and v not in adj[u]:
                return True
    return False


# Stub pairs drawn per generator call, at most.
_PAIRS_PER_DRAW = 256


def random_regular_graph(n: int, degree: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Connected degree-regular peer graph via random stub matching.

    Pairs stubs uniformly, rejecting self-loops and duplicate edges; a stuck
    or disconnected matching triggers a fresh attempt (up to 100, all driven
    by ``rng``, so the result is a pure function of the generator state).

    Stub indices are drawn two per pair, ``rng.integers(len(stubs))`` each,
    in chunks: one call with an array of bounds draws what the scalar calls
    would if every pair were accepted (bounds ``L, L, L-2, L-2, ...``) or
    rejected (``L, L, ...``); at the first pair that ends otherwise, or
    stalls the matching, ``rng`` is rewound to replay only the draws used,
    so it ends where one call per stub leaves it. A lone rejection keeps
    acceptance assumed, the next chunk one pair longer than the pairs
    accepted since the last switch; each end of a streak of rejections
    switches the assumption and starts a one-pair chunk. A chunk that ends
    as assumed doubles the next, up to ``_PAIRS_PER_DRAW``.
    """
    if n == 1 or degree == 0:
        return ((),) if n == 1 else tuple(() for _ in range(n))
    for _attempt in range(100):
        adj: list[set[int]] = [set() for _ in range(n)]
        stubs = [node for node in range(n) for _ in range(degree)]
        rejections = run = 0
        stuck = False
        accepting, chunk = True, _PAIRS_PER_DRAW
        while stubs and not stuck:
            size = len(stubs)
            pairs = min(chunk, size // 2) if accepting else chunk
            bounds = np.repeat(np.arange(size, size - 2 * pairs, -2) if accepting else np.full(pairs, size), 2)
            state = rng.bit_generator.state
            draws = rng.integers(bounds).reshape(pairs, 2).tolist()
            chunk = min(2 * chunk, _PAIRS_PER_DRAW)
            for k, (i, j) in enumerate(draws):
                u, v = stubs[i], stubs[j]
                accepted = i != j and u != v and v not in adj[u]
                if accepted:
                    rejections = 0
                    run += 1
                    adj[u].add(v)
                    adj[v].add(u)
                    if i < j:
                        i, j = j, i
                    stubs[i] = stubs[-1]
                    stubs.pop()
                    stubs[j] = stubs[-1]
                    stubs.pop()
                else:
                    rejections += 1
                    if rejections > 50 + 10 * len(stubs):
                        stuck = not _any_valid_pair(stubs, adj)
                        rejections = 0
                if accepted != accepting or stuck:
                    if k < pairs - 1:
                        rng.bit_generator.state = state
                        rng.integers(bounds[: 2 * k + 2])
                    if rejections != 1:  # not a lone rejection: a streak starts or ends
                        accepting, run = accepted, 0
                    chunk = min(_PAIRS_PER_DRAW, run + 1)
                    break
        if not stuck:
            graph = tuple(tuple(sorted(peers)) for peers in adj)
            if _hop_distances(np.array(graph), np.array([0])).max() < n:
                return graph
    raise TopologyError(
        f"no connected {degree}-regular graph over {n} nodes after 100 seeded attempts"
    )


def run_simulation(config: SimConfig) -> SimResult:
    """Run the full mining + gossip simulation described by ``config``."""
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

    parent, height = [-1], [0]
    mined_at = [0.0] + mine_times.tolist()
    miner_of = [-1] + winners.tolist()
    # Hop distances from each miner that wins a block, one row per winner,
    # and ecc, the most hops between two winners (at least 1): only winners
    # mine blocks, so no block comes from farther away.
    winning = np.flatnonzero(np.bincount(winners, minlength=n))
    rows = _hop_distances(peers, winning)
    distances: list[memoryview | None] = [None] * n
    for miner, row in zip(winning.tolist(), rows):
        distances[miner] = memoryview(row)
    ecc = max(int(rows[:, winning].max()), 1)

    # sent[k - 1]: the first id that has reached no other node by block k's
    # event (at most k), and settled[k - 1]: the last id of block k's settled
    # prefix. Each block up to it was mined at least ecc hops before k, so it
    # has reached k's winner: float addition is monotone and mining times
    # never decrease with id, so every row of hop sums is sorted and the
    # prefix exact. Genesis has always arrived.
    mined = np.concatenate(([0.0], mine_times))
    for e, reach in enumerate(_hop_sums(mined, ecc, hop), 1):
        if e == 1:
            sent = np.minimum(np.searchsorted(reach, mine_times, side="right"), np.arange(1, blocks_to_mine + 1))
    settled = np.clip(np.searchsorted(reach, mine_times, side="right") - 1, 0, np.arange(blocks_to_mine))

    # first[h] is the lowest block id at height h, more[h] the others in
    # ascending order, top the greatest height, and own[m] the id of miner
    # m's latest block, which m always has. at_hops[e][b - lo] is block b's
    # arrival e hops from its miner: row 0, the mining times, runs to the
    # last block, and the others to ``hi``.
    first, top = [0], 0
    more: dict[int, list[int]] = {}
    own = [0] * n
    lo, hi, at_hops = 0, 0, []
    for block_id, last, end in zip(range(1, blocks_to_mine + 1), memoryview(settled), memoryview(sent)):
        now = mined_at[block_id]
        miner = miner_of[block_id]
        dist = distances[miner]
        # The tip is the arrived block with the largest (height, -arrival
        # at the miner, -id). Every id up to ``last`` has arrived, and so
        # has the miner's latest block; the others after ``last`` count once
        # they arrive.
        tip_height = top if last >= first[top] else bisect_right(first, last) - 1
        if end > hi:
            # No block before first[tip_height] is looked up again, and none
            # from ``end`` on: build the hop sums between, with room ahead.
            lo = first[tip_height]
            hi = min(end + max(end - lo, _WINDOW_SUMS // ecc), blocks_to_mine + 1)
            at_hops = [memoryview(mined)[lo:], *map(memoryview, _hop_sums(mined[lo:hi], ecc, hop))]
        tips = [first[tip_height]]
        if tip_height in more:
            tips += [b for b in more[tip_height] if b <= last]
        b = own[miner]
        if b > last and height[b] >= tip_height:
            if height[b] > tip_height:
                tip_height, tips = height[b], [b]
            else:
                tips.append(b)
        # A block at this height or above has an id of first[tip_height] or
        # more, and none from ``end`` on has reached another node. The
        # miner's older blocks cannot win.
        start = first[tip_height]
        if start <= last:
            start = last + 1
        for b in range(start, end):
            if height[b] >= tip_height and (hops := dist[miner_of[b]]) and at_hops[hops][b - lo] <= now:
                if height[b] > tip_height:
                    tip_height, tips = height[b], [b]
                else:
                    tips.append(b)
        tip = tips[0] if len(tips) == 1 else min([(at_hops[dist[miner_of[b]]][b - lo], b) for b in tips])[1]
        block_height = tip_height + 1
        parent.append(tip)
        height.append(block_height)
        own[miner] = block_id
        if block_height > top:
            top = block_height
            first.append(block_id)
        else:
            more.setdefault(block_height, []).append(block_id)
    del at_hops, mined, reach, settled, sent  # freed before the result build, which sets the peak memory

    # Longest chain; ties by earliest creation (= arrival at the end-of-run
    # observer), then lowest id. Mining times never decrease with id, so
    # that is the lowest id at the greatest height.
    best = first[-1]
    canonical = []
    cursor = best
    while cursor != -1:
        canonical.append(cursor)
        cursor = parent[cursor]
    canonical.reverse()

    n_canonical = len(canonical) - 1
    miner_ids = tuple(m for m, _ in config.miners)
    parent[0] = None

    return SimResult(
        blocks=BlockTable(
            parent_ids=tuple(parent),
            heights=tuple(height),
            mined_at_s=tuple(mined_at),
            miner_index=tuple(miner_of),
            size_bytes=chain.block_size_bytes,
            miner_ids=miner_ids,
        ),
        canonical_chain=tuple(canonical),
        per_miner_canonical=_blocks_per_miner(miner_ids, winners[np.array(canonical[1:]) - 1]),
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
    return _blocks_per_miner(result.blocks.miner_ids, result.blocks.miner_index[1:])


def _blocks_per_miner(miner_ids: Sequence[str], miner_index: Sequence[int]) -> ProducerDistribution:
    """Blocks per miner, from one index into ``miner_ids`` per block; a miner
    with no block keeps a zero entry."""
    counts = np.bincount(np.asarray(miner_index, dtype=np.intp), minlength=len(miner_ids))
    return ProducerDistribution(tuple(zip(miner_ids, counts.astype(float).tolist())))


def bound_violation_check(result: SimResult, net: NetworkParams, chain: ChainParams) -> BoundCheck:
    """Compare a run's observed throughput against the ``w/s`` ceiling."""
    cap = throughput_upper_bound(net, chain.tx_size_bytes)
    return BoundCheck(
        observed_tps=result.observed_tps,
        cap_tps=cap,
        violated=result.observed_tps > cap,
    )
