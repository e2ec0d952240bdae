"""Sharding and payment-channel scaling models.

Both models are organized around the centralization-throughput product (CTP):
centralization level times transactions per second. Even sharding multiplies
throughput by the shard count and divides centralization by it, so the
product is invariant. Payment channels (Lightning-style) multiply throughput
by an off-chain batching factor and, with relays, cut on-chain transactions
down to one channel per active client, at the price of concentrating relay
trust in a single node. Relays can only withhold payments; the data model has
no path through which a relay could alter a balance. A payment graph holds
its payments as three columns, and counts its channel pairs from them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from chainmeter.errors import InputError, exact, integer, plain, positive, real

# On-chain transactions per payment channel: one to fund it, one to settle it.
CHANNEL_ONCHAIN_COST = 2


@dataclass(frozen=True)
class ShardingAnalysis:
    k: int
    sharded_tps: float
    sharded_centralization: float
    ctp_before: float
    ctp_after: float


def ctp(centralization_n: float, throughput_tps: float) -> float:
    """Centralization-throughput product, of two positive finite factors;
    a product that overflows is rejected too."""
    product = (positive(centralization_n, "ctp factor centralization_n")
               * positive(throughput_tps, "ctp factor throughput_tps"))
    if not math.isfinite(product):
        raise InputError(f"ctp centralization_n * throughput_tps must be finite, got {centralization_n!r} * {throughput_tps!r}")
    return product


def shard_analysis(throughput_tps: float, centralization_n: int, node_count: int, k: int) -> ShardingAnalysis:
    """Even k-way sharding of a chain with throughput ``throughput_tps``,
    centralization level ``centralization_n`` and ``node_count`` nodes: k
    times the throughput at 1/k the centralization.

    The product after sharding is ``(k*t) * (n/k)``; the k factors cancel
    algebraically, so ``ctp_after`` is computed as the same product as
    ``ctp_before`` and the invariance is exact, not approximate.
    """
    t = positive(throughput_tps, "throughput_tps")
    n = positive(integer(centralization_n, "centralization level"), "centralization level")
    if integer(node_count, "node_count") < n:
        raise InputError(
            f"node_count ({node_count}) cannot be smaller than the "
            f"centralization level ({centralization_n})"
        )
    positive(integer(k, "shard count"), "shard count")
    if k > node_count:
        raise InputError(
            f"cannot split {node_count} nodes into {k} shards: a shard needs at least one node"
        )
    product = ctp(n, t)
    sharded_tps = k * t
    if not math.isfinite(sharded_tps):
        raise InputError(f"sharded throughput k * throughput_tps must be finite, got {k!r} * {t!r}")
    return ShardingAnalysis(
        k=k,
        sharded_tps=sharded_tps,
        sharded_centralization=n / k,
        ctp_before=product,
        ctp_after=product,
    )


@dataclass(frozen=True)
class PaymentGraph:
    """Clients and the payments flowing between them within a channel window,
    as three columns: ``sources[i]`` paid ``targets[i]`` ``counts[i]`` times.
    ``payments`` gives the ``(from, to, count)`` rows, built when read. Its
    active clients and channel pair count are built once, when first asked
    for, and take no part in ``==``, ``hash``, pickling or
    ``dataclasses.replace``."""

    clients: frozenset[str]
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        # A frozenset of exactly str and columns of exactly str and int are
        # kept as given; others' cells go through str and errors.integer.
        clients = self.clients if exact(self.clients, str, frozenset) else frozenset(map(str, self.clients))
        sources, targets = (c if exact(c, str) else tuple(map(str, c)) for c in (self.sources, self.targets))
        counts = self.counts if exact(self.counts, int) else list(self.counts)
        if not len(sources) == len(targets) == len(counts):
            raise InputError(f"payment graph has {len(sources)} sources, {len(targets)} targets and {len(counts)} counts")
        if counts is not self.counts:
            counts = tuple(map(integer, counts, itertools.repeat("payment count"), range(len(counts))))
        # Self-payments, counts and endpoints are checked a column at a time;
        # the columns are walked only to name the first bad payment.
        if (any(map(operator.eq, sources, targets)) or min(counts, default=1) < 1
                or not (clients.issuperset(sources) and clients.issuperset(targets))):
            for index, (a, b, count) in enumerate(zip(sources, targets, counts)):
                if a == b:
                    raise InputError(f"payment from {a!r} to itself", index)
                if count < 1:
                    raise InputError(f"payment count must be >= 1, got {count!r} for {a!r}->{b!r}", index)
                if a not in clients or b not in clients:
                    raise InputError(f"payment endpoints {a!r}, {b!r} must be declared clients", index)
        vars(self).update(clients=clients, sources=sources, targets=targets, counts=counts)

    @property
    def payments(self) -> tuple[tuple[str, str, int], ...]:
        """The ``(from, to, count)`` rows, zipped from the columns when read."""
        return tuple(zip(self.sources, self.targets, self.counts))

    def __getstate__(self):
        # The cached values are rebuilt on demand, so a pickle holds only the fields.
        return {"clients": self.clients, "sources": self.sources, "targets": self.targets, "counts": self.counts}

    @functools.cached_property
    def _active_clients(self) -> frozenset[str]:
        return frozenset(self.sources).union(self.targets)

    @functools.cached_property
    def _channel_pair_count(self) -> int:
        # No payment is to itself, so each pair paid both ways is two ordered pairs.
        pairs = set(zip(self.sources, self.targets))
        return len(pairs) - len(pairs.intersection(zip(self.targets, self.sources))) // 2

    def active_clients(self) -> frozenset[str]:
        """Clients that send or receive at least one payment."""
        return self._active_clients

    def channel_pair_count(self) -> int:
        """Distinct unordered client pairs with at least one payment."""
        return self._channel_pair_count


def onchain_tx_count(graph: PaymentGraph, relay_id: str | None) -> int:
    """On-chain transactions needed to carry the graph's payments: 2 per
    distinct channel.

    With no relay (``relay_id`` None), one direct channel funds each payment
    pair. A single relay funds one channel per active client (none for the
    relay itself if it happens to be a payment endpoint: a node needs no
    channel to itself).
    """
    if relay_id is None:
        return CHANNEL_ONCHAIN_COST * graph.channel_pair_count()
    return CHANNEL_ONCHAIN_COST * len(graph.active_clients() - {relay_id})


@dataclass(frozen=True)
class LightningAnalysis:
    """Payment-channel outcome: effective throughput, relay centralization,
    their product, and the on-chain transaction counts that drove it."""

    effective_tps: float
    relay_centralization_n0: int
    ctp: float
    onchain_direct: int
    onchain_plan: int


def lightning_analysis(
    throughput_tps: float, graph: PaymentGraph, relay_id: str | None, alpha: float
) -> LightningAnalysis:
    """Throughput and centralization of a chain with throughput
    ``throughput_tps`` when channels batch ``alpha`` payments per on-chain
    transaction.

    Without a relay (``relay_id`` None) every client pair keeps its own
    channel: throughput rises to ``t * alpha`` and relay centralization stays
    at the client count. One relay scales throughput further by the ratio of
    direct to relayed on-chain transactions (a gain only when the graph has
    more funded pairs than active clients) and pins relay centralization at 1.
    """
    t = positive(throughput_tps, "throughput_tps")
    if not 1 <= real(alpha, "batching factor alpha") < math.inf:
        raise InputError(f"batching factor alpha must be >= 1 and finite, got {alpha!r}")
    alpha = plain(alpha, "batching factor alpha")
    if not graph.counts:
        raise InputError("payment graph has no payments to analyze")
    direct_cost = onchain_tx_count(graph, None)
    plan_cost = onchain_tx_count(graph, relay_id)
    if relay_id is None:
        effective = t * alpha
        n0 = len(graph.clients)
    else:
        effective = t * alpha * (direct_cost / plan_cost)
        n0 = 1
    return LightningAnalysis(
        effective_tps=effective,
        relay_centralization_n0=n0,
        ctp=ctp(n0, effective),
        onchain_direct=direct_cost,
        onchain_plan=plan_cost,
    )
