"""Independent oracles, generators and tools shared across test modules.

The oracles deliberately avoid the library's code paths: plain Python sums
and scans only, so agreement with the library is evidence, not tautology.
The simulator oracle shares only config validation and the random draws
(``simnet._draw_events``) with the library; it builds its peer graph with
the library's former matcher (one generator call per stub), propagates
blocks hop by hop, and builds its block records itself.
``oracle_inbox_engine`` is the library's former event loop, which kept a
heap of blocks in flight per winner; it shares the peer graph and the draws
with the library, takes its hop distances from ``oracle_hop_distances``, a
plain queue-driven breadth-first search, and checks only the tip choice.
The JSON export oracle is the library's former ``json.dump(indent=2)`` path;
it sees a ``SimResult`` as the records it used to hold (``as_records``). The
CSV export oracle is the former ``csv.writer`` path, every row written by the
writer. The shares oracle is the metrics module's former sort of
``(-weight, id)`` pairs. The sweep oracle is the bounds module's former
per-size formula, which the one numpy pass replaced. The CSV loader oracles are the former row-by-row
loaders, with the entry-by-entry checks the distribution and payment graph
types ran before they checked their values in bulk. The channel pair oracle
is the payment graph's former set of endpoint sets, which the pair count
replaced.

Both engine oracles stay while the engine is rewritten, and each guards one
kind of rewrite. ``oracle_inbox_engine`` checks the tip choice alone: it
guards rewrites of the tip loop, such as splitting the run into timed phases
and giving withheld blocks a release time (ROADMAP items 1 and 10).
``oracle_simulation`` guards the whole run, from the draws to the result.

Test tools that no command uses moved here from the library: ``merged``
combines producers into one and validates nothing, since the tests control
their inputs; ``run`` captures a CLI command's stdout as a
``CommandOutcome``; ``distribution`` and ``payment_graph`` transpose rows
into the columns the types take.
"""

from bisect import bisect_left
from collections import deque
import contextlib
import csv
import dataclasses
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
import io
import itertools
from itertools import combinations
import json
import math
import numbers
import random

import numpy as np

from chainmeter import PaymentGraph, ProducerDistribution, block_capacity, propagation_delay, simnet
from chainmeter.cli import main
from chainmeter.errors import FormatError, InputError, ParseError, TopologyError
from chainmeter.ingest import GENESIS_MINER
from chainmeter.simnet import (
    BlockTable,
    SimConfig,
    SimResult,
    random_regular_graph,
)

# How long after the last mining event in-flight blocks may still settle,
# in units of the single-hop delay. Bounded by network diameter in practice.
DRAIN_HOPS = 10


def oracle_levels(weights, epsilons) -> list[int]:
    """Centralization levels in ``Fraction``s: the prefix sums of the weights,
    heaviest first, each compared with ``1 - epsilon`` of the total, a
    float epsilon read as the decimal it prints as. No float is compared."""
    prefix = list(itertools.accumulate(map(Fraction, sorted(weights, reverse=True))))
    levels = []
    for epsilon in epsilons:
        exact = Fraction(epsilon) if isinstance(epsilon, numbers.Rational) else Fraction(repr(float(epsilon)))
        levels.append(bisect_left(prefix, (1 - exact) * prefix[-1]) + 1)
    return levels


def oracle_level(weights, epsilon) -> int:
    """The centralization level ``oracle_levels`` gives for one epsilon."""
    return oracle_levels(weights, [epsilon])[0]


def oracle_descending_shares(dist: ProducerDistribution) -> np.ndarray:
    """The library's former ``_descending_shares``: weights sorted by
    ``(-weight, id)``, summed and normalized."""
    weights = np.array([w for _, w in sorted(dist.entries, key=lambda e: (-e[1], e[0]))], dtype=float)
    cum = np.cumsum(weights)
    return cum / cum[-1]


def oracle_throughput_sweep(chain, net, block_sizes) -> list[tuple[int, float]]:
    """The former ``throughput_sweep`` rows, its formula verbatim: Python
    arithmetic on each size as given, one ``(size, rate)`` row per size."""
    s, latency, w = chain.tx_size_bytes, net.latency_s, net.bandwidth_bytes_per_s
    if latency == 0.0:
        # The floor degenerates to b/w and the rate is exactly the ceiling.
        return [(b, w / s) for b in block_sizes]
    return [(b, b / (s * (latency + b / w))) for b in block_sizes]


def random_distribution(rng: random.Random, max_producers: int = 20):
    """Random (id, weight) pairs; at least one strictly positive weight."""
    n = rng.randint(1, max_producers)
    while True:
        weights = [rng.choice([0.0, rng.uniform(0.01, 100.0), float(rng.randint(1, 1000))]) for _ in range(n)]
        if sum(weights) > 0:
            return [(f"p{i:03d}", w) for i, w in enumerate(weights)]


def distribution(rows) -> ProducerDistribution:
    """The distribution of ``(producer_id, weight)`` rows, as its two columns."""
    return ProducerDistribution(*(tuple(zip(*rows)) or ((), ())))


def payment_graph(rows) -> PaymentGraph:
    """The payment graph of ``(from, to, count)`` rows, as its three columns."""
    return PaymentGraph(*(tuple(zip(*rows)) or ((), (), ())))


def merged(dist: ProducerDistribution, ids, merged_id: str) -> ProducerDistribution:
    """``dist`` with the producers in ``ids`` combined into one, ``merged_id``."""
    kept = tuple((pid, w) for pid, w in dist.entries if pid not in ids)
    return distribution(kept + ((merged_id, sum(w for pid, w in dist.entries if pid in ids)),))


@dataclasses.dataclass(frozen=True)
class CommandOutcome:
    """Exit code plus everything the command printed to stdout."""

    exit_code: int
    stdout_report: str


def run(argv: list[str]) -> CommandOutcome:
    """Run a command and capture its stdout (stderr passes through)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return CommandOutcome(exit_code=code, stdout_report=buffer.getvalue())


def all_payment_graphs(max_clients: int):
    """A graph for every non-empty set of pairs among the labels c0..c{n-1},
    for n = 2..max_clients. A graph's clients are the labels its payments
    use, so a graph that leaves a label out repeats one of a smaller n."""
    for n in range(2, max_clients + 1):
        pairs = list(combinations([f"c{i}" for i in range(n)], 2))
        for mask in range(1, 2 ** len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield payment_graph(tuple((a, b, 1) for a, b in chosen))


def oracle_channel_pairs(graph: PaymentGraph) -> frozenset[frozenset[str]]:
    """The library's former ``channel_pairs()``: one frozenset per payment's
    endpoints, gathered into a frozenset."""
    return frozenset(frozenset((a, b)) for a, b, _ in graph.payments)


def oracle_hop_distances(adj, source):
    """Hop count from ``source`` to every node over the adjacency lists
    ``adj``, by a first-in first-out queue; unreached nodes read n."""
    n = len(adj)
    dist = [n] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for peer in adj[node]:
            if dist[peer] == n:
                dist[peer] = dist[node] + 1
                queue.append(peer)
    return dist


def _numpy_hop_distances(peers: np.ndarray, source: int) -> np.ndarray:
    """The library's former single-source ``_hop_distances``, kept verbatim."""
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


def oracle_random_regular_graph(n: int, degree: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """The library's former ``random_regular_graph``, kept verbatim but for
    its degree rule, which is the library's: one scalar ``rng.integers``
    call per stub drawn."""
    if n == 1:
        return ((),)
    if degree < 1:
        raise TopologyError(f"no connected {degree}-regular graph over {n} nodes: the degree must be >= 1")
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
            if _numpy_hop_distances(np.array(graph), 0).max() < n:
                return graph
    raise TopologyError(
        f"no connected {degree}-regular graph over {n} nodes after 100 seeded attempts"
    )


@dataclasses.dataclass(frozen=True)
class BlockRecord:
    """One mined block, as the simulator oracle builds it and as a block row
    exports: the record type the library held before its column table."""

    block_id: int
    miner_id: str
    parent_id: int | None
    height: int
    mined_at_s: float
    size_bytes: int


@dataclasses.dataclass(frozen=True)
class RecordResult:
    """A simulation result packaged as ``SimResult`` was before it held its
    blocks as a column table: each field as ``SimResult``'s, but ``blocks``
    a tuple of records."""

    blocks: tuple[BlockRecord, ...]
    canonical_chain: tuple[int, ...]
    per_miner_canonical: ProducerDistribution
    stale_rate: float
    observed_tps: float
    mean_confirmation_latency_s: float


def as_records(report):
    """``report`` with a ``BlockTable`` repackaged as one ``BlockRecord`` per
    block, from the table's columns, and a ``SimResult``, or each one in a
    list, as a ``RecordResult``: its blocks so, the other fields as they are."""
    if isinstance(report, BlockTable):
        names = [*report.miner_ids, GENESIS_MINER]
        return tuple(
            BlockRecord(b, names[m], parent, height, mined_at, report.size_bytes)
            for b, (m, parent, height, mined_at) in enumerate(
                zip(report.miner_index, report.parent_ids, report.heights, report.mined_at_s))
        )
    if isinstance(report, SimResult):
        fields = dataclasses.fields(RecordResult)[1:]
        return RecordResult(as_records(report.blocks), *(getattr(report, f.name) for f in fields))
    if isinstance(report, list):
        return [as_records(item) for item in report]
    return report


def oracle_simulation(config: SimConfig) -> RecordResult:
    """The per-hop event-heap engine that ``run_simulation`` replaced, kept
    verbatim as its reference: every receipt is one heap event, a node
    forwards each block to every peer that has not seen it, and in-flight
    blocks drain for ``DRAIN_HOPS`` hop-delays after the last mining event."""
    chain, net = config.chain, config.net
    n = len(config.miners.ids)
    interval = chain.block_interval_s
    hop = net.latency_s + chain.block_size_bytes / net.bandwidth_bytes_per_s
    rng = np.random.default_rng(config.seed)

    adj = oracle_random_regular_graph(n, config.topology_degree, rng)

    # The library's draws: the whole event stream up front, so generator
    # consumption does not depend on chain/net parameters.
    blocks_to_mine = config.duration_blocks
    mined, winners = simnet._draw_events(config, rng)
    mine_times = mined[1:]

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
    miner_ids = list(config.miners.ids)
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
        per_miner_canonical=ProducerDistribution(tuple(miner_ids), tuple(float(counts[m]) for m in miner_ids)),
        stale_rate=1.0 - n_canonical / blocks_to_mine,
        observed_tps=block_capacity(chain) * (n_canonical / blocks_to_mine) / interval,
        mean_confirmation_latency_s=chain.confirmations * (mined_at[best] / n_canonical),
    )


def oracle_inbox_engine(config: SimConfig) -> tuple[list[int | None], list[int]]:
    """The library's former inbox loop, kept verbatim, returning the parent
    and height columns. At its turn each winner pushes every block mined
    since its previous turn into a heap keyed by arrival at it, then takes
    the arrived blocks in ``(arrival, block id)`` order, so ties in float
    arrival go to the lower id, as in the library."""
    chain, net = config.chain, config.net
    n = len(config.miners.ids)
    hop = propagation_delay(1, chain, net)
    rng = np.random.default_rng(config.seed)

    adj = random_regular_graph(n, config.topology_degree, rng).tolist()

    blocks_to_mine = config.duration_blocks
    mined, winners = simnet._draw_events(config, rng)

    parent = [-1]
    height = [0]
    mined_at = mined.tolist()
    miner_of = [-1] + winners.tolist()
    tip = [0] * n
    tip_height = [0] * n
    # inbox[m] holds (arrival at m, block id) for blocks in flight to m; ids
    # below offered[m] are in it already or can never beat m's tip.
    offered = [1] * n
    inbox: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    # Hop distances from each miner that wins a block, one row per winner.
    distances: list[list[int] | None] = [None] * n
    for miner in set(winners.tolist()):
        distances[miner] = oracle_hop_distances(adj, miner)

    for block_id in range(1, blocks_to_mine + 1):
        now = mined_at[block_id]
        miner = miner_of[block_id]
        dist = distances[miner]
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

    parent[0] = None
    return parent, height


def oracle_to_jsonable(obj):
    """The library's original ``to_jsonable``, kept verbatim but for dict
    keys, which it now leaves to ``json`` to spell, as the library does, and
    for a distribution, which holds columns now and is walked as the row
    field it held then."""
    if isinstance(obj, ProducerDistribution):
        return {"entries": oracle_to_jsonable(obj.entries)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: oracle_to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [oracle_to_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(oracle_to_jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {k: oracle_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise FormatError(f"cannot serialize {type(obj).__name__} to JSON")


def oracle_export_json(report, path) -> None:
    """The library's original JSON export, kept verbatim: the whole payload
    is built first, then written by ``json.dump(..., indent=2)``."""
    if isinstance(report, SimConfig):
        payload = {
            "miners": [
                {"miner_id": m, "hash_power_share": s} for m, s in report.miners.entries
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


def oracle_export_csv(report, path, columns=None) -> None:
    """The library's CSV export before it wrote rows a chunk at a time, its
    writer kept verbatim: one ``csv.writer`` writes the header and every row.
    It takes the tables the library takes and checks none."""
    if isinstance(report, ProducerDistribution):
        report, columns = report.entries, columns or ("producer_id", "weight")
    header = columns or tuple(f"col{i + 1}" for i in range(len(report[0])))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(report)


# The CSV loaders as they were before they read a column at a time: every
# row is stripped and checked on its own, and the types' values are checked
# entry by entry. ``_oracle_read_rows``, ``_oracle_validated`` and the two
# loaders are the library's former code, verbatim but for their names, the
# entry-by-entry checks the types used to run, which are applied before each
# type is built, and the weight column, which is parsed as the count column
# is, row by row.


def _oracle_read_rows(path: str, expected_header: list[str]):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected_header:
            raise ParseError(f"{path}:1: expected header {','.join(expected_header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise ParseError(f"{path}:{lineno}: expected {len(expected_header)} columns, got {len(row)}")
            yield lineno, [cell.strip() for cell in row]


def _oracle_validated(path: str, expected_header: list[str], build):
    try:
        return build()
    except InputError as exc:
        where = path
        if exc.index is not None:
            lineno, _ = next(itertools.islice(_oracle_read_rows(path, expected_header), exc.index, None))
            where = f"{path}:{lineno}"
        raise ParseError(f"{where}: {exc}") from None


def _oracle_distribution(entries) -> ProducerDistribution:
    converted = tuple((str(pid), float(w)) for pid, w in entries)
    if not converted:
        raise InputError("distribution has no producers")
    seen = set()
    for index, (pid, w) in enumerate(converted):
        if pid in seen:
            raise InputError(f"duplicate producer_id {pid!r}", index)
        seen.add(pid)
        if not math.isfinite(w) or w < 0:
            raise InputError(f"weight of {pid!r} must be finite and >= 0, got {w!r}", index)
    if sum(w for _, w in converted) <= 0:
        raise InputError("total weight must be positive")
    if sum(w for _, w in converted) == math.inf:
        raise InputError("total weight must be finite, got inf")
    return distribution(entries)


def _oracle_payment_graph(payments) -> PaymentGraph:
    for index, (a, b, count) in enumerate(payments):
        if a == b:
            raise InputError(f"payment from {a!r} to itself", index)
        if count < 1:
            raise InputError(f"payment count must be >= 1, got {count!r} for {a!r}->{b!r}", index)
    return payment_graph(payments)


def oracle_load_distribution(path: str) -> ProducerDistribution:
    header = ["producer_id", "weight"]
    entries: list[tuple[str, float]] = []
    for lineno, (pid, raw_weight) in _oracle_read_rows(path, header):
        try:
            entries.append((pid, float(raw_weight)))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: weight is not a number: {raw_weight!r}") from None
    return _oracle_validated(path, header, lambda: _oracle_distribution(tuple(entries)))


def oracle_load_payment_graph(path: str) -> PaymentGraph:
    header = ["from", "to", "count"]
    payments: list[tuple[str, str, int]] = []
    for lineno, (src, dst, raw_count) in _oracle_read_rows(path, header):
        try:
            payments.append((src, dst, int(raw_count)))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: count is not an integer: {raw_count!r}") from None
    if not payments:
        raise ParseError(f"{path}: no data rows")
    return _oracle_validated(path, header, lambda: _oracle_payment_graph(tuple(payments)))
