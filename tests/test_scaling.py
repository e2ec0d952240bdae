import random

import numpy as np
import pytest

from chainmeter import (
    BaselineChain,
    CentralizationLevel,
    InputError,
    PaymentGraph,
    RelayPlan,
    ctp,
    lightning_analysis,
    onchain_tx_count,
    shard_analysis,
)

from helpers import all_payment_graphs


def baseline(t=15.0, n=100, nodes=None):
    return BaselineChain(
        throughput_tps=t,
        centralization=CentralizationLevel(n=n, epsilon=0.1),
        node_count=nodes if nodes is not None else n,
    )


def full_graph(n):
    clients = [f"c{i}" for i in range(n)]
    payments = tuple((a, b, 1) for i, a in enumerate(clients) for b in clients[i + 1:])
    return PaymentGraph(clients=frozenset(clients), payments=payments)


class TestCtp:
    def test_definition(self):
        assert ctp(100, 15) == 1500

    def test_private_chain_degenerate(self):
        assert ctp(1, 42.5) == 42.5

    def test_rebalancing_factors(self):
        assert ctp(100 * 3, 15) == ctp(100, 15 * 3)

    def test_rejects_non_positive(self):
        with pytest.raises(InputError):
            ctp(0, 15)

    @pytest.mark.parametrize("factors, name", [
        ((float("nan"), 15), "centralization_n"),
        ((100, float("nan")), "throughput_tps"),
        ((100, float("inf")), "throughput_tps"),
    ])
    def test_rejects_non_finite(self, factors, name):
        with pytest.raises(InputError, match=f"^ctp factor {name} must be positive and finite"):
            ctp(*factors)


class TestBaselineChain:
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0])
    def test_throughput_must_be_positive_and_finite(self, t):
        with pytest.raises(InputError, match="^throughput_tps must be positive and finite"):
            baseline(t=t)

    @pytest.mark.parametrize("nodes", [100.0, 100.5, float("nan"), "100"])
    def test_node_count_must_be_an_integer(self, nodes):
        with pytest.raises(InputError, match="^node_count must be an integer"):
            baseline(n=100, nodes=nodes)


class TestSharding:
    def test_four_way_example(self):
        analysis = shard_analysis(baseline(), 4)
        assert analysis.sharded_tps == 60.0
        assert analysis.sharded_centralization == 25.0
        assert analysis.ctp_before == 1500.0
        assert analysis.ctp_after == 1500.0

    def test_k_one_is_identity(self):
        analysis = shard_analysis(baseline(), 1)
        assert analysis.sharded_tps == 15.0
        assert analysis.sharded_centralization == 100.0
        assert analysis.ctp_after == analysis.ctp_before

    def test_doubling_k(self):
        a2 = shard_analysis(baseline(), 2)
        a4 = shard_analysis(baseline(), 4)
        assert a4.sharded_tps == 2 * a2.sharded_tps
        assert a4.sharded_centralization == a2.sharded_centralization / 2
        assert a4.ctp_after == a2.ctp_after

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(InputError):
            shard_analysis(baseline(nodes=100), 101)

    def test_ctp_exact_over_random_triples(self):
        rng = random.Random(31)
        for _ in range(200):
            t = rng.uniform(0.01, 5000.0)
            n = rng.randint(1, 10_000)
            k = rng.randint(1, n)
            analysis = shard_analysis(baseline(t=t, n=n), k)
            assert analysis.ctp_after == analysis.ctp_before  # bitwise, no tolerance
            # the per-field route agrees up to rounding
            assert analysis.sharded_tps * analysis.sharded_centralization == pytest.approx(
                analysis.ctp_after, rel=1e-12
            )


class TestOnchainCounting:
    def test_fully_connected_four_direct(self):
        assert onchain_tx_count(full_graph(4), RelayPlan.direct()) == 12  # 2 * C(4,2)

    def test_fully_connected_four_single_relay(self):
        assert onchain_tx_count(full_graph(4), RelayPlan.single_relay("hub")) == 8  # 2 * 4

    def test_single_pair_direct(self):
        g = PaymentGraph(clients=frozenset({"a", "b"}), payments=(("a", "b", 3),))
        assert onchain_tx_count(g, RelayPlan.direct()) == 2

    def test_relay_that_is_a_client_needs_no_self_channel(self):
        star = PaymentGraph(
            clients=frozenset({"hub", "x", "y", "z"}),
            payments=(("hub", "x", 1), ("hub", "y", 1), ("hub", "z", 1)),
        )
        assert onchain_tx_count(star, RelayPlan.direct()) == 6
        assert onchain_tx_count(star, RelayPlan.single_relay("hub")) == 6
        assert onchain_tx_count(star, RelayPlan.single_relay("external")) == 8

    def test_repeated_payments_share_one_channel(self):
        g = PaymentGraph(clients=frozenset({"a", "b"}), payments=(("a", "b", 5), ("b", "a", 2)))
        assert onchain_tx_count(g, RelayPlan.direct()) == 2

    def test_custom_route_counts_path_edges(self):
        g = PaymentGraph(clients=frozenset({"a", "b", "c"}), payments=(("a", "b", 1), ("a", "c", 1)))
        plan = RelayPlan.custom({("a", "b"): ["a", "r", "b"], ("a", "c"): ["a", "r", "c"]})
        # channels: a-r, r-b, r-c
        assert onchain_tx_count(g, plan) == 6

    def test_custom_plan_missing_route_rejected(self):
        g = PaymentGraph(clients=frozenset({"a", "b", "c"}), payments=(("a", "b", 1), ("a", "c", 1)))
        plan = RelayPlan.custom({("a", "b"): ["a", "b"]})
        with pytest.raises(InputError):
            onchain_tx_count(g, plan)

    def test_custom_route_must_be_acyclic(self):
        with pytest.raises(InputError):
            RelayPlan.custom({("a", "b"): ["a", "r", "a", "b"]})

    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "hub"}, "unknown relay plan mode 'hub'"),
        ({"mode": "single_relay"}, "missing its relay id"),
        ({"mode": "custom", "routes": ((frozenset("ab"), ("a",)), (frozenset("ac"), ("a", "c")))},
         r"route for \('a', 'b'\) must run between its endpoints"),
        ({"mode": "custom", "routes": ((frozenset("ab"), ("a", "r", "c")),)},
         r"route for \('a', 'b'\) must run between its endpoints"),
        ({"mode": "custom", "routes": ((frozenset("ab"), ("a", "r", "a", "b")),)},
         r"route for \('a', 'b'\) revisits a node"),
    ])
    def test_bad_plan_rejected_when_built(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            RelayPlan(**kwargs)

    def test_relay_floor_is_two_per_active_client(self):
        for graph in all_payment_graphs(5):
            count = onchain_tx_count(graph, RelayPlan.single_relay("ext"))
            assert count == 2 * len(graph.active_clients())

    def test_relay_no_worse_than_direct_exactly_when_pairs_reach_active(self):
        # Funding a channel per client pays off only on graphs with at least
        # as many funded pairs as active clients (dense graphs); sparse
        # graphs such as a lone pair or a matching are cheaper kept direct.
        for graph in all_payment_graphs(5):
            relay = onchain_tx_count(graph, RelayPlan.single_relay("ext"))
            direct = onchain_tx_count(graph, RelayPlan.direct())
            dense = len(graph.channel_pairs()) >= len(graph.active_clients())
            assert (relay <= direct) == dense

    def test_client_relay_never_loses_on_connected_graphs(self):
        # With the relay chosen among participants, a connected payment graph
        # always has at least active-1 pairs, so relaying never costs more.
        for graph in all_payment_graphs(5):
            active = sorted(graph.active_clients())
            if not _connected(graph):
                continue
            relay = onchain_tx_count(graph, RelayPlan.single_relay(active[0]))
            assert relay <= onchain_tx_count(graph, RelayPlan.direct())


def _connected(graph):
    active = set(graph.active_clients())
    adj = {c: set() for c in active}
    for a, b, _ in graph.payments:
        adj[a].add(b)
        adj[b].add(a)
    start = next(iter(active))
    seen, frontier = {start}, [start]
    while frontier:
        for peer in adj[frontier.pop()]:
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return seen == active


class TestLightningAnalysis:
    def test_direct_without_batching_is_identity(self):
        g = full_graph(4)
        analysis = lightning_analysis(baseline(t=10.0, n=4, nodes=4), g, RelayPlan.direct(), 1.0)
        assert analysis.effective_tps == 10.0
        assert analysis.relay_centralization_n0 == 4
        assert analysis.ctp == 40.0

    def test_fully_connected_four_with_relay(self):
        g = full_graph(4)
        analysis = lightning_analysis(
            baseline(t=10.0, n=4, nodes=4), g, RelayPlan.single_relay("hub"), 2.0
        )
        assert analysis.onchain_direct == 12
        assert analysis.onchain_plan == 8
        assert analysis.relay_centralization_n0 == 1
        assert analysis.effective_tps == pytest.approx(10.0 * 2.0 * 1.5)
        assert analysis.ctp == pytest.approx(30.0)

    def test_builtin_modes_pin_n0_to_one_or_n(self):
        g = full_graph(5)
        base = baseline(t=3.0, n=5, nodes=5)
        direct = lightning_analysis(base, g, RelayPlan.direct(), 2.0)
        relayed = lightning_analysis(base, g, RelayPlan.single_relay("hub"), 2.0)
        assert direct.relay_centralization_n0 == len(g.clients)
        assert relayed.relay_centralization_n0 == 1

    def test_extreme_case_ctp_is_n_t_alpha(self):
        # Fully connected graph, everything through one relay: the product
        # n * t * alpha survives only through batching.
        for n in (3, 4, 6):
            g = full_graph(n)
            t, alpha = 7.0, 3.0
            analysis = lightning_analysis(
                baseline(t=t, n=n, nodes=n), g, RelayPlan.single_relay("hub"), alpha
            )
            pairs = n * (n - 1) / 2
            assert analysis.ctp == pytest.approx(t * alpha * pairs / n)
            direct = lightning_analysis(baseline(t=t, n=n, nodes=n), g, RelayPlan.direct(), alpha)
            assert direct.ctp == pytest.approx(n * t * alpha)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(InputError):
            lightning_analysis(baseline(t=1.0, n=2, nodes=2), full_graph(2), RelayPlan.direct(), 0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_alpha_not_finite_rejected(self, alpha):
        with pytest.raises(InputError, match="^batching factor alpha must be >= 1 and finite"):
            lightning_analysis(baseline(t=1.0, n=2, nodes=2), full_graph(2), RelayPlan.direct(), alpha)

    def test_empty_payments_rejected(self):
        g = PaymentGraph(clients=frozenset({"a", "b"}), payments=())
        with pytest.raises(InputError):
            lightning_analysis(baseline(t=1.0, n=2, nodes=2), g, RelayPlan.direct(), 1.0)


class TestPaymentGraphValidation:
    def test_self_payment_rejected(self):
        with pytest.raises(InputError):
            PaymentGraph(clients=frozenset({"a"}), payments=(("a", "a", 1),))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InputError):
            PaymentGraph(clients=frozenset({"a"}), payments=(("a", "b", 1),))

    @pytest.mark.parametrize("count", [2.7, 2.0, "2", None])
    def test_count_must_be_an_integer(self, count):
        payments = (("a", "b", 1), ("b", "c", 3), ("a", "c", count))
        with pytest.raises(InputError, match="^payment count must be an integer, got ") as err:
            PaymentGraph(clients=frozenset("abc"), payments=payments)
        assert err.value.index == 2

    def test_numpy_integer_counts_become_ints(self):
        g = PaymentGraph(clients=frozenset("ab"), payments=(("a", "b", np.int64(3)),))
        assert g.payments == (("a", "b", 3),) and type(g.payments[0][2]) is int

    def test_zero_count_rejected(self):
        with pytest.raises(InputError):
            PaymentGraph(clients=frozenset({"a", "b"}), payments=(("a", "b", 0),))
