"""Deterministic discrete-event simulation of proof-of-work mining over a
gossip network.

Mining is one global Poisson clock: block-creation events arrive with a mean
spacing equal to the configured block interval, and each event's winner is
drawn proportionally to hash power (statistically the same as per-miner
exponential clocks, but simpler to reproduce bit for bit). Every node relays
every block over a random degree-regular peer graph at
``latency + block_size/bandwidth`` seconds per hop, so a block reaches a node
exactly its hop distance after it is mined (Decker & Wattenhofer, IEEE P2P
2013), its miner at 0 hops: one arrival rule for every block. The winner
extends the highest block that has reached it, the first to arrive on a tie
in height and the lower block id on a tie in float arrival time. A block
mined at least ``ecc`` hops before an event has reached the winner, ``ecc``
being the most hops between two miners that win a block (no other node mines
one), so each event's settled prefix of block ids is one sorted search of
the mining times plus ``ecc`` hops. Only the blocks past it, still in
flight, are looked up in a window of per-hop sums that moves with them. A
block whose settled prefix holds every earlier block is full: after a new
lone top, the one block at a new greatest height, each full block in a row
has it alone for its tip and becomes the next, so the run takes one step.
Difficulty never retargets, blocks count as full (transactions are not
simulated individually), and bandwidth contention is ignored.

Everything random (peer graph, event spacing, winner choice) comes from one
seeded generator consumed in a fixed order, so identical configs produce
identical results, event for event. The peer graph's stub indices are
computed in the matching loop from raw PCG64 words read ahead in blocks,
each the value one ``integers`` call per stub would draw, and the generator
is left where those calls leave it. A breadth-first search from node 0, a
flag per node, tells if a matching is connected; one search of the final
graph, a bit per winner packed 64 to a word, gives the hops between winners
up front. Both read a node's row, of peers or of words, as one item, and the
second pulls each node's words from its peers, which is exact because peer
rows are symmetric.
Each run is single-threaded; separate runs are independent and may execute
concurrently, and a finished :class:`SimResult` is immutable.

After the peer graph a run has three phases, each owning its working data:
the event draws, the parent choice (hops between winners, settled prefixes
and the tip loop) and the result build. A result holds its blocks as one
:class:`BlockTable`, the engine's columns (parent, height, mining time and
miner index per block id). The row a block exports as is ``ingest``'s.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from chainmeter.bounds import ChainParams, NetworkParams, block_capacity, propagation_delay, throughput_upper_bound
from chainmeter.errors import InputError, TopologyError, ValidationError, integer
from chainmeter.metrics import ProducerDistribution

# The most float64 draws numpy makes in one array; past it a run fails with "array is too big".
MAX_DURATION_BLOCKS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
# The most block_interval_s * duration_blocks may be. numpy's exponential
# draws stay under 45 (its tail is 7.7 - log1p(-u) with u < 1 - 2**-53), so
# with room to spare for rounding no mining time overflows below it.
MAX_MINING_SPAN_S = sys.float_info.max / 64


@dataclass(frozen=True)
class SimConfig:
    """Full simulator input. ``miners`` is the ``ProducerDistribution`` of
    hash-power weights in any unit, which checks them; a miner wins a block
    with its weight over the total. ``topology_degree`` is ignored for a
    lone miner.

    A config checks itself when it is built, ``dataclasses.replace`` included:
    it raises one ``ValidationError`` that lists every violated field.
    ``duration_blocks``, ``topology_degree`` and ``seed`` must be integers
    (numpy integers too, stored as ints, but not ``6.0``). The chain's block
    interval times ``duration_blocks`` must not exceed ``MAX_MINING_SPAN_S``,
    so that every mining time is finite.
    """

    miners: ProducerDistribution
    chain: ChainParams
    net: NetworkParams
    duration_blocks: int
    topology_degree: int = 8
    seed: int = 0

    def __post_init__(self):
        problems = []
        for name, kind in (("miners", ProducerDistribution), ("chain", ChainParams), ("net", NetworkParams)):
            if not isinstance(getattr(self, name), kind):
                problems.append(f"{name}: must be a {kind.__name__}, got {getattr(self, name)!r}")
        n = len(self.miners.ids) if isinstance(self.miners, ProducerDistribution) else 0
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
        elif ints.get("duration_blocks", 1) > MAX_DURATION_BLOCKS:
            problems.append(f"duration_blocks: must be <= {MAX_DURATION_BLOCKS}, got {self.duration_blocks}")
        elif "duration_blocks" in ints and isinstance(self.chain, ChainParams):
            if (limit := MAX_MINING_SPAN_S / ints["duration_blocks"]) < self.chain.block_interval_s:
                problems.append(f"chain: block_interval_s must be <= {limit!r} over {self.duration_blocks} blocks, "
                                f"so mining times stay finite, got {self.chain.block_interval_s!r}")
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

    A table checks itself when it is built, ``dataclasses.replace``
    included: its four columns are equally long, it starts with genesis, and
    every cell has its exact type (``int``, ``float``, ``str``; a ``bool``
    or numpy number is none of them), mining times finite and miner indices
    in [-1, len(miner_ids)). A fault raises ``InputError`` naming the column.
    """

    parent_ids: tuple[int | None, ...]
    heights: tuple[int, ...]
    mined_at_s: tuple[float, ...]
    miner_index: tuple[int, ...]
    size_bytes: int
    miner_ids: tuple[str, ...]

    def __post_init__(self):
        lengths = tuple(map(len, (self.parent_ids, self.heights, self.mined_at_s, self.miner_index)))
        if len(set(lengths)) != 1:
            raise InputError("parent_ids, heights, mined_at_s and miner_index differ in length: %d, %d, %d, %d" % lengths)
        if not lengths[0] or self.parent_ids[0] is not None:
            raise InputError(f"parent_ids must start with genesis's None, got {tuple(self.parent_ids[:1])!r}")
        for name, cells, kind in (("parent_ids", self.parent_ids[1:], int), ("heights", self.heights, int),
                                  ("mined_at_s", self.mined_at_s, float), ("miner_index", self.miner_index, int),
                                  ("miner_ids", self.miner_ids, str), ("size_bytes", (self.size_bytes,), int)):
            # countOf matches a type by identity, so a bool is no int.
            if operator.countOf(map(type, cells), kind) != len(cells):
                bad = next(cell for cell in cells if type(cell) is not kind)
                raise InputError(f"{name} must hold {kind.__name__} values only, got {bad!r}")
        # A finite sum has finite terms; one that overflows need not.
        if not math.isfinite(sum(self.mined_at_s)) and not all(map(math.isfinite, self.mined_at_s)):
            bad = next(t for t in self.mined_at_s if not math.isfinite(t))
            raise InputError(f"mined_at_s must be finite, got {bad!r}")
        n, indices = len(self.miner_ids), set(self.miner_index)
        if not -1 <= min(indices) <= max(indices) < n:
            bad = next(i for i in self.miner_index if not -1 <= i < n)
            raise InputError(f"miner_index must lie in [-1, {n}), got {bad}")

    def __len__(self) -> int:
        return len(self.heights)


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
    """Breadth-first hop counts between ``sources`` over the adjacency rows
    ``peers``, [j, k] from ``sources[j]`` to ``sources[k]`` in the smallest
    unsigned type holding n (n if unreached). A node carries a bit per
    source, 64 to a word in any byte order (only OR, AND and NOT touch one),
    and each level ORs its peers' words. A node's words are one ``void``
    item, so a level gathers every node's peers in one fancy index over the
    transposed ``(degree, n)`` table and ORs over its leading axis: a pull
    step, each node reading its own row, which is exact because peer rows
    are symmetric."""
    n, count = len(peers), len(sources)
    words = -(-count // 64)
    dist = np.full((count, count), n, dtype=np.min_scalar_type(n))
    frontier = np.zeros((n, words), dtype=np.uint64)
    frontier[sources] = np.packbits(np.eye(count, 64 * words, dtype=bool), axis=1, bitorder="little").view(np.uint64)
    seen = frontier.copy()
    item, columns = np.dtype((np.void, 8 * words)), peers.T.copy()
    depth = 0
    while frontier.any():
        dist[np.unpackbits(frontier[sources].view(np.uint8), axis=1, count=count, bitorder="little").view(bool)] = depth
        depth += 1
        reached = np.bitwise_or.reduce(frontier.view(item)[:, 0][columns].view(np.uint64), axis=0)
        frontier = reached.reshape(n, words) & ~seen
        seen |= frontier
    return dist


def _connected(peers: np.ndarray) -> bool:
    """Whether a breadth-first search from node 0 over the adjacency rows
    ``peers`` reaches every node: each level reads the frontier's rows, each
    one ``void`` item, marks their peers and keeps those not yet seen, until
    none are new. Without edges only a lone node is connected."""
    n, degree = peers.shape
    if not degree:
        return n == 1
    rows = peers.view(np.dtype((np.void, peers.itemsize * degree)))[:, 0]
    seen = np.zeros(n, dtype=bool)
    frontier = seen.copy()
    seen[0] = frontier[0] = True
    while frontier.any():
        reached = np.zeros_like(seen)
        reached[rows[frontier].view(peers.dtype)] = True
        frontier = reached > seen
        seen |= frontier
    return bool(seen.all())


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


# Values a graph build reads ahead of its need, beyond the stubs left.
_READ_AHEAD = 1024

_LOW = 0xFFFFFFFF


class _Halves:
    """The 32-bit values a PCG64 generator hands out one at a time, read
    ahead into ``values`` in blocks of raw words: the half it holds
    buffered, if any, then each word's low half and its high half, the
    order of ``next_uint32``. Positions index ``values``; ``end(pos)``
    leaves the generator where drawing every value before ``pos`` would."""

    def __init__(self, bits: np.random.PCG64):
        self.bits = bits
        self.saved = bits.state
        self.values = [self.saved["uinteger"]] if self.saved["has_uint32"] else []
        self.dropped = -len(self.values)  # halves of raw words before values[0]

    def ahead(self, pos: int, count: int) -> int:
        """Drop the values before ``pos`` and read words until ``count``
        lie ahead, in place in ``values``; returns the new position of
        ``values[pos]``, 0."""
        self.values[:pos] = []
        self.dropped += pos
        if len(self.values) < count:
            words = self.bits.random_raw((count - len(self.values) + _READ_AHEAD) // 2 + 1)
            self.values += words.astype("<u8", copy=False).view("<u4").tolist()
        return 0

    def bounded(self, pos: int, size: int) -> tuple[int, int]:
        """The index in [0, size) that ``Generator.integers(size)`` draws
        from the values at ``pos`` on, for 0 < size < 2**32, and the next
        position: the top half of value * size, redrawn while its low half
        is under (2**32 - size) % size (Lemire, ACM TOMACS 2019)."""
        while True:
            if pos == len(self.values):
                pos = self.ahead(pos, 1)
            m = self.values[pos] * size
            pos += 1
            if m & _LOW >= size or m & _LOW >= (2**32 - size) % size:
                return m >> 32, pos

    def end(self, pos: int) -> None:
        used = self.dropped + pos
        self.bits.state = self.saved
        last = int(self.bits.random_raw(-(-used // 2))[-1])
        state = self.bits.state
        state["has_uint32"], state["uinteger"] = used % 2, last >> 32
        self.bits.state = state


def random_regular_graph(n: int, degree: int, rng: np.random.Generator) -> np.ndarray:
    """Connected degree-regular peer graph via random stub matching, as an
    ``(n, degree)`` ``np.intp`` array whose row v lists v's peers in
    ascending order.

    Pairs stubs uniformly, rejecting self-loops and duplicate edges; a stuck
    or disconnected matching triggers a fresh attempt (up to 100, all driven
    by ``rng``, so the result is a pure function of the generator state).

    Each stub index is the value ``rng.integers(len(stubs))`` would draw,
    computed from raw words of ``rng``'s bit generator, which must be a
    ``PCG64`` (``TypeError`` otherwise); on return or error ``rng`` is left
    where one such call per stub leaves it. A lone node's graph is the
    empty ``(1, 0)`` array, whatever the degree; over more nodes, a degree
    below 1 raises ``TopologyError`` before any draw.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise TypeError(f"the peer graph is drawn from a PCG64 bit generator, got {type(bits).__name__}")
    if n == 1:
        return np.empty((1, 0), dtype=np.intp)
    if degree < 1:
        raise TopologyError(f"no connected {degree}-regular graph over {n} nodes: the degree must be >= 1")
    stream = _Halves(bits)
    values, pos = stream.values, 0
    try:
        for _attempt in range(100):
            adj: list[set[int]] = [set() for _ in range(n)]
            # The live stubs are stubs[:size]; a pair takes the last two's places.
            stubs, size = sorted([*range(n)] * degree), n * degree
            # At least size + 2 values lie ahead of each pair: an accepted
            # one takes two and leaves two stubs fewer.
            pos = stream.ahead(pos, size + 2)
            rejections = 0
            while size:
                m, k = values[pos] * size, values[pos + 1] * size
                if m & _LOW < size or k & _LOW < size:
                    i, pos = stream.bounded(pos, size)
                    j, pos = stream.bounded(pos, size)
                    pos = stream.ahead(pos, size + 2)
                else:
                    i, j = m >> 32, k >> 32
                    pos += 2
                u, v = stubs[i], stubs[j]
                if i != j and u != v and v not in adj[u]:
                    rejections = 0
                    adj[u].add(v)
                    adj[v].add(u)
                    if i < j:
                        i, j = j, i
                    stubs[i] = stubs[size - 1]
                    stubs[j] = stubs[size - 2]
                    size -= 2
                else:
                    rejections += 1
                    if rejections > 50 + 10 * size:
                        if not _any_valid_pair(stubs[:size], adj):
                            break  # stuck: match afresh
                        rejections = 0
                    if len(values) - pos < size + 2:
                        pos = stream.ahead(pos, size + 2)
            else:  # every stub matched
                graph = np.sort(np.fromiter(itertools.chain.from_iterable(adj), np.intp, n * degree).reshape(n, degree), axis=1)
                if _connected(graph):
                    return graph
    finally:
        stream.end(pos)
    raise TopologyError(
        f"no connected {degree}-regular graph over {n} nodes after 100 seeded attempts"
    )


def run_simulation(config: SimConfig) -> SimResult:
    """Run the full mining + gossip simulation described by ``config``."""
    rng = np.random.default_rng(config.seed)
    peers = random_regular_graph(len(config.miners.ids), config.topology_degree, rng)
    mined, winners = _draw_events(config, rng)
    parent, height, best, mined_at = _choose_parents(peers, mined, winners, propagation_delay(1, config.chain, config.net))
    return _result(config, mined_at, winners, parent, height, best)


def _draw_events(config: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Mining times, genesis's 0.0 first, and winners (indices into
    ``config.miners.ids``), drawn up front so the same seed replays the same
    winners and (scaled) spacings at any chain or net. The cumulative
    weights over their total end at exactly 1.0 and repeat at a zero
    weight, so each draw in [0, 1) goes to a miner with a positive weight."""
    mine_times = np.cumsum(rng.standard_exponential(config.duration_blocks) * config.chain.block_interval_s)
    winner_draws = rng.random(config.duration_blocks)
    cum = np.cumsum(np.array(config.miners.weights, dtype=float))
    winners = np.searchsorted(cum / cum[-1], winner_draws, side="right")
    return np.concatenate(([0.0], mine_times)), winners


def _choose_parents(peers: np.ndarray, mined: np.ndarray, winners: np.ndarray,
                    hop: float) -> tuple[list[int | None], list[int], int, list[float]]:
    """Every block's parent (None for genesis) and height, the second of a
    run's three phases: the tip at its winner when it is mined. One arrival
    rule covers every block: it reaches a node one ``hop`` per hop after it
    is mined (``_hop_sums``), so its own miner, 0 hops away, when mined.
    Then the lowest id at the greatest height and the mining times."""
    blocks_to_mine = len(winners)
    mined_at = mined.tolist()
    # Only winners mine, so the engine knows a miner by its position among
    # them: by_winner[b] is block b's, distances[j][k] the hops from winner j
    # to k, and ecc, at least 1, the most, the farthest any block comes from.
    winning = np.flatnonzero(np.bincount(winners))
    by_winner = [-1] + np.searchsorted(winning, winners).tolist()
    hops_between = _hop_distances(peers, winning)
    distances = list(map(memoryview, hops_between))
    ecc = max(int(hops_between.max()), 1)

    # settled[k - 1]: the last id of block k's settled prefix. Each block up
    # to it was mined at least ecc hops before k, so it has reached k's
    # winner: float addition is monotone and mining times never decrease
    # with id, so every row of hop sums is sorted and the prefix exact.
    # Genesis has always arrived.
    for reach in _hop_sums(mined, ecc, hop):  # kept: the last row, ecc hops on
        pass
    settled = np.clip(np.searchsorted(reach, mined[1:], side="right") - 1, 0, np.arange(blocks_to_mine))
    # A block is full when every earlier block has reached its winner; the
    # ids of those that are not, then one past the last block.
    partial = [*(np.flatnonzero(settled != np.arange(blocks_to_mine)) + 1).tolist(), blocks_to_mine + 1]

    # first[h] is the lowest block id at height h, more[h] the others in
    # ascending order and top the greatest height. at_hops[e][b - lo] is
    # block b's arrival e hops from its miner: row 0, the mining times, runs
    # to the last block, and the others to ``hi``.
    parent, height = [None], [0]
    first, top = [0], 0
    more: dict[int, list[int]] = {}
    lo, hi, at_hops = 0, 0, []
    events = zip(range(1, blocks_to_mine + 1), memoryview(settled))
    for block_id, last in events:
        now = mined_at[block_id]
        dist = distances[by_winner[block_id]]
        # The tip is the arrived block with the largest (height, -arrival
        # at the miner, -id). Every id up to ``last`` has arrived; the others
        # count once they arrive.
        tip_height = top if last >= first[top] else bisect_right(first, last) - 1
        if block_id > hi:
            # No block before first[tip_height] is looked up again, and none
            # from ``block_id`` on: build the hop sums between, with room ahead.
            lo = first[tip_height]
            hi = min(block_id + max(block_id - lo, _WINDOW_SUMS // ecc), blocks_to_mine + 1)
            at_hops = [memoryview(mined)[lo:], *map(memoryview, _hop_sums(mined[lo:hi], ecc, hop))]
        tips = [first[tip_height]]
        if tip_height in more:
            tips += [b for b in more[tip_height] if b <= last]
        # A block mined less than a hop ago has reached no other node, so its
        # hop sums exceed ``now``; the miner's own are 0 hops away, arrived
        # when mined, and its older ones sit below its latest.
        for b in range(last + 1, block_id):
            if height[b] >= tip_height and at_hops[dist[by_winner[b]]][b - lo] <= now:
                if height[b] > tip_height:
                    tip_height, tips = height[b], [b]
                else:
                    tips.append(b)
        tip = tips[0] if len(tips) == 1 else min([(at_hops[dist[by_winner[b]]][b - lo], b) for b in tips])[1]
        block_height = tip_height + 1
        parent.append(tip)
        height.append(block_height)
        if block_height > top:
            # A lone top: each full block after it has received every
            # earlier block, so the top alone is its tip, and it becomes the
            # next lone top. The run of them extends the chain in one step.
            end = partial[bisect_right(partial, block_id)]
            run = end - block_id - 1
            parent += range(block_id, end - 1)
            height += range(block_height + 1, block_height + run + 1)
            first += range(block_id, end)
            top = block_height + run
            next(itertools.islice(events, run, run), None)
        else:
            more.setdefault(block_height, []).append(block_id)
    return parent, height, first[-1], mined_at


def _result(config: SimConfig, mined_at: list[float], winners: np.ndarray, parent: list[int | None],
            height: list[int], best: int) -> SimResult:
    """The canonical chain, the block table and the rates of a run. The
    canonical tip ``best`` is the lowest id at the greatest height: ties by
    earliest creation (= arrival at the end-of-run observer), then lowest
    id, and mining times never decrease with id."""
    chain, blocks_to_mine = config.chain, config.duration_blocks
    canonical, cursor = [], best
    while cursor is not None:
        canonical.append(cursor)
        cursor = parent[cursor]
    canonical.reverse()

    n_canonical = len(canonical) - 1
    miner_ids = config.miners.ids

    return SimResult(
        blocks=BlockTable(
            parent_ids=tuple(parent),
            heights=tuple(height),
            mined_at_s=tuple(mined_at),
            miner_index=(-1, *winners.tolist()),
            size_bytes=chain.block_size_bytes,
            miner_ids=miner_ids,
        ),
        canonical_chain=tuple(canonical),
        per_miner_canonical=_blocks_per_miner(miner_ids, winners[np.array(canonical[1:]) - 1]),
        stale_rate=1.0 - n_canonical / blocks_to_mine,
        observed_tps=block_capacity(chain) * (n_canonical / blocks_to_mine) / chain.block_interval_s,
        mean_confirmation_latency_s=chain.confirmations * (mined_at[best] / n_canonical),
    )


def produced_distribution(result: SimResult) -> ProducerDistribution:
    """Blocks per miner over every block mined, stale ones included (the
    canonical chain's are ``result.per_miner_canonical``). Genesis is
    excluded; a miner that mined nothing keeps a zero entry, so the
    distribution lines up with the configured miner set."""
    return _blocks_per_miner(result.blocks.miner_ids, result.blocks.miner_index[1:])


def _blocks_per_miner(miner_ids: Sequence[str], miner_index: Sequence[int]) -> ProducerDistribution:
    """Blocks per miner, from one index into ``miner_ids`` per block; a miner
    with no block keeps a zero entry."""
    counts = np.bincount(np.asarray(miner_index, dtype=np.intp), minlength=len(miner_ids))
    return ProducerDistribution(tuple(miner_ids), tuple(counts.astype(float).tolist()))


def bound_violation_check(result: SimResult, net: NetworkParams, chain: ChainParams) -> BoundCheck:
    """Compare a run's observed throughput against the ``w/s`` ceiling."""
    cap = throughput_upper_bound(net, chain.tx_size_bytes)
    return BoundCheck(
        observed_tps=result.observed_tps,
        cap_tps=cap,
        violated=result.observed_tps > cap,
    )
