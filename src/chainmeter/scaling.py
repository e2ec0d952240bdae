"""Sharding and payment-channel scaling models.

Both models are organized around the centralization-throughput product (CTP):
centralization level times transactions per second. Even sharding multiplies
throughput by the shard count and divides centralization by it, so the
product is invariant. Payment channels (Lightning-style) multiply throughput
by an off-chain batching factor and, with relays, cut on-chain transactions
down to one channel per active client, at the price of concentrating relay
trust in a single node. Relays can only withhold payments; the data model has
no path through which a relay could alter a balance.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from chainmeter.errors import InputError, integer, plain, positive, real
from chainmeter.metrics import CentralizationLevel

# On-chain transactions per payment channel: one to fund it, one to settle it.
CHANNEL_ONCHAIN_COST = 2

# A payment row's sender, receiver and count.
_FROM, _TO, _COUNT = map(operator.itemgetter, range(3))


@dataclass(frozen=True)
class BaselineChain:
    """A chain before scaling: throughput, centralization level, node count."""

    throughput_tps: float
    centralization: CentralizationLevel
    node_count: int

    def __post_init__(self):
        object.__setattr__(self, "throughput_tps", positive(self.throughput_tps, "throughput_tps"))
        positive(integer(self.centralization.n, "centralization level"), "centralization level")
        if integer(self.node_count, "node_count") < self.centralization.n:
            raise InputError(
                f"node_count ({self.node_count}) cannot be smaller than the "
                f"centralization level ({self.centralization.n})"
            )


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


def shard_analysis(base: BaselineChain, k: int) -> ShardingAnalysis:
    """Even k-way sharding: k times the throughput at 1/k the centralization.

    The product after sharding is ``(k*t) * (n/k)``; the k factors cancel
    algebraically, so ``ctp_after`` is computed as the same product as
    ``ctp_before`` and the invariance is exact, not approximate.
    """
    positive(integer(k, "shard count"), "shard count")
    if k > base.node_count:
        raise InputError(
            f"cannot split {base.node_count} nodes into {k} shards: a shard needs at least one node"
        )
    product = ctp(base.centralization.n, base.throughput_tps)
    sharded_tps = k * base.throughput_tps
    if not math.isfinite(sharded_tps):
        raise InputError(f"sharded throughput k * throughput_tps must be finite, got {k!r} * {base.throughput_tps!r}")
    return ShardingAnalysis(
        k=k,
        sharded_tps=sharded_tps,
        sharded_centralization=base.centralization.n / k,
        ctp_before=product,
        ctp_after=product,
    )


@dataclass(frozen=True)
class PaymentGraph:
    """Clients and the payments flowing between them within a channel window.
    Its active clients and channel pairs are built once, on first use, and
    take no part in ``==``, ``hash``, pickling or ``dataclasses.replace``."""

    clients: frozenset[str]
    payments: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "clients", frozenset(map(str, self.clients)))
        # Counts follow errors.integer's rule: operator.index in the pass that
        # builds the rows, and one test for the booleans it lets through. Only
        # a failure walks the rows again, to name the first bad one.
        try:
            payments = tuple((str(a), str(b), operator.index(c)) for a, b, c in self.payments)
            if bool in set(map(type, map(_COUNT, self.payments))):
                raise TypeError
        except TypeError:
            for index, (_, _, c) in enumerate(self.payments):
                integer(c, "payment count", index)
            raise
        object.__setattr__(self, "payments", payments)
        # Self-payments, counts and endpoints are checked a column at a time;
        # the rows are walked only to name the first bad one.
        src, dst = list(map(_FROM, payments)), list(map(_TO, payments))
        if (any(map(operator.eq, src, dst)) or min(map(_COUNT, payments), default=1) < 1
                or not self.clients.issuperset(src) or not self.clients.issuperset(dst)):
            for index, (a, b, count) in enumerate(payments):
                if a == b:
                    raise InputError(f"payment from {a!r} to itself", index)
                if count < 1:
                    raise InputError(f"payment count must be >= 1, got {count!r} for {a!r}->{b!r}", index)
                if a not in self.clients or b not in self.clients:
                    raise InputError(f"payment endpoints {a!r}, {b!r} must be declared clients", index)

    def __getstate__(self):
        # The cached sets are rebuilt on demand, so a pickle holds only the fields.
        return {"clients": self.clients, "payments": self.payments}

    @functools.cached_property
    def _active_clients(self) -> frozenset[str]:
        return frozenset(map(_FROM, self.payments)).union(map(_TO, self.payments))

    @functools.cached_property
    def _channel_pairs(self) -> frozenset[frozenset[str]]:
        return frozenset(map(frozenset, zip(map(_FROM, self.payments), map(_TO, self.payments))))

    def active_clients(self) -> frozenset[str]:
        """Clients that send or receive at least one payment."""
        return self._active_clients

    def channel_pairs(self) -> frozenset[frozenset[str]]:
        """Distinct unordered client pairs with at least one payment."""
        return self._channel_pairs


@dataclass(frozen=True)
class RelayPlan:
    """How payments are carried: direct channels, one relay for everything,
    or explicit per-pair routes. A plan checks itself when it is built: a
    known mode, a relay id for a single relay, and routes that each run
    between their pair's endpoints without repeating a node."""

    mode: str
    relay_id: str | None = None
    routes: tuple[tuple[frozenset[str], tuple[str, ...]], ...] | None = None

    def __post_init__(self):
        if self.mode not in ("direct", "single_relay", "custom"):
            raise InputError(f"unknown relay plan mode {self.mode!r}")
        if self.mode == "single_relay" and self.relay_id is None:
            raise InputError("single-relay plan is missing its relay id")
        for pair, path in self.routes or ():
            if len(path) < 2 or {path[0], path[-1]} != pair:
                raise InputError(f"route for {tuple(sorted(pair))!r} must run between its endpoints, got {path!r}")
            if len(set(path)) != len(path):
                raise InputError(f"route for {tuple(sorted(pair))!r} revisits a node: {path!r}")

    @classmethod
    def direct(cls) -> "RelayPlan":
        return cls(mode="direct")

    @classmethod
    def single_relay(cls, relay_id: str) -> "RelayPlan":
        return cls(mode="single_relay", relay_id=str(relay_id))

    @classmethod
    def custom(cls, routes: Mapping[tuple[str, str], Sequence[str]]) -> "RelayPlan":
        """Explicit routes: for each payment pair, the full node path from one
        endpoint to the other (relays in between, no repeated nodes)."""
        packed = tuple((frozenset((str(a), str(b))), tuple(map(str, path))) for (a, b), path in routes.items())
        return cls(mode="custom", routes=packed)


def _custom_channels(graph: PaymentGraph, plan: RelayPlan) -> set[frozenset[str]]:
    routed = dict(plan.routes or ())
    channels: set[frozenset[str]] = set()
    for pair in graph.channel_pairs():
        path = routed.get(pair)
        if path is None:
            a, b = sorted(pair)
            raise InputError(f"plan has no route for payment pair ({a!r}, {b!r})")
        channels.update(frozenset(edge) for edge in zip(path, path[1:]))
    return channels


def onchain_tx_count(graph: PaymentGraph, plan: RelayPlan) -> int:
    """On-chain transactions needed to run the plan: 2 per distinct channel.

    Direct plans fund one channel per payment pair. A single relay funds one
    channel per active client (none for the relay itself if it happens to be
    a payment endpoint: a node needs no channel to itself). Custom plans fund
    every edge appearing on some route.
    """
    if plan.mode == "direct":
        channels: Collection[frozenset[str]] = graph.channel_pairs()
    elif plan.mode == "single_relay":
        channels = {
            frozenset((c, plan.relay_id)) for c in graph.active_clients() if c != plan.relay_id
        }
    else:
        channels = _custom_channels(graph, plan)
    return CHANNEL_ONCHAIN_COST * len(channels)


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
    base: BaselineChain, graph: PaymentGraph, plan: RelayPlan, alpha: float
) -> LightningAnalysis:
    """Throughput and centralization with channels batching ``alpha`` payments
    per on-chain transaction.

    Without relays every client pair keeps its own channel: throughput rises
    to ``t * alpha`` and relay centralization stays at the client count. One
    relay scales throughput further by the ratio of direct to relayed on-chain
    transactions (a gain only when the graph has more funded pairs than active
    clients) and pins relay centralization at 1.
    """
    if not 1 <= real(alpha, "batching factor alpha") < math.inf:
        raise InputError(f"batching factor alpha must be >= 1 and finite, got {alpha!r}")
    alpha = plain(alpha, "batching factor alpha")
    if not graph.payments:
        raise InputError("payment graph has no payments to analyze")
    direct_cost = onchain_tx_count(graph, RelayPlan.direct())
    plan_cost = onchain_tx_count(graph, plan)
    t = base.throughput_tps
    if plan.mode == "direct":
        effective = t * alpha
        n0 = len(graph.clients)
    else:
        effective = t * alpha * (direct_cost / plan_cost)
        if plan.mode == "single_relay":
            n0 = 1
        else:
            interior = {node for _, path in (plan.routes or ()) for node in path[1:-1]}
            n0 = len(interior) if interior else len(graph.clients)
    return LightningAnalysis(
        effective_tps=effective,
        relay_centralization_n0=n0,
        ctp=ctp(n0, effective),
        onchain_direct=direct_cost,
        onchain_plan=plan_cost,
    )
