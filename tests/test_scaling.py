import dataclasses
import operator
import pickle
import random
import re

import numpy as np
import pytest

from chainmeter import (
    InputError,
    PaymentGraph,
    ctp,
    lightning_analysis,
    onchain_tx_count,
    shard_analysis,
)

from helpers import all_payment_graphs, oracle_channel_pairs, payment_graph


class Tag(str):
    pass


class Count(int):
    pass


def shard(k, t=15.0, n=100, nodes=None):
    return shard_analysis(t, n, nodes if nodes is not None else n, k)


def full_graph(n):
    clients = [f"c{i}" for i in range(n)]
    payments = tuple((a, b, 1) for i, a in enumerate(clients) for b in clients[i + 1:])
    return payment_graph(frozenset(clients), payments)


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


class TestSharding:
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0])
    def test_throughput_must_be_positive_and_finite(self, t):
        with pytest.raises(InputError, match="^throughput_tps must be positive and finite"):
            shard(1, t=t)

    @pytest.mark.parametrize("nodes", [100.0, 100.5, float("nan"), "100"])
    def test_node_count_must_be_an_integer(self, nodes):
        with pytest.raises(InputError, match="^node_count must be an integer"):
            shard(1, n=100, nodes=nodes)

    def test_four_way_example(self):
        analysis = shard(4)
        assert analysis.sharded_tps == 60.0
        assert analysis.sharded_centralization == 25.0
        assert analysis.ctp_before == 1500.0
        assert analysis.ctp_after == 1500.0

    def test_k_one_is_identity(self):
        analysis = shard(1)
        assert analysis.sharded_tps == 15.0
        assert analysis.sharded_centralization == 100.0
        assert analysis.ctp_after == analysis.ctp_before

    def test_doubling_k(self):
        a2 = shard(2)
        a4 = shard(4)
        assert a4.sharded_tps == 2 * a2.sharded_tps
        assert a4.sharded_centralization == a2.sharded_centralization / 2
        assert a4.ctp_after == a2.ctp_after

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(InputError):
            shard(101, nodes=100)

    # Each call breaks its own check and every later one, so the first check
    # in order is the one that must speak.
    @pytest.mark.parametrize("args, message", [
        ((0.0, 0, 1.5, 0), "^throughput_tps must be positive and finite, got 0.0$"),
        ((7.0, 0, 1.5, 0), "^centralization level must be positive and finite, got 0$"),
        ((7.0, 4, 1.5, 0), "^node_count must be an integer"),
        ((7.0, 4, 2, 0), r"^node_count \(2\) cannot be smaller than the centralization level \(4\)$"),
        ((7.0, 4, 10, 0), "^shard count must be positive and finite, got 0$"),
    ], ids=["throughput", "centralization", "node-count-type", "node-count-range", "shard-count"])
    def test_checks_run_in_order(self, args, message):
        with pytest.raises(InputError, match=message):
            shard_analysis(*args)

    def test_ctp_exact_over_random_triples(self):
        rng = random.Random(31)
        for _ in range(200):
            t = rng.uniform(0.01, 5000.0)
            n = rng.randint(1, 10_000)
            k = rng.randint(1, n)
            analysis = shard(k, t=t, n=n)
            assert analysis.ctp_after == analysis.ctp_before  # bitwise, no tolerance
            # the per-field route agrees up to rounding
            assert analysis.sharded_tps * analysis.sharded_centralization == pytest.approx(
                analysis.ctp_after, rel=1e-12
            )


class TestOnchainCounting:
    def test_fully_connected_four_direct(self):
        assert onchain_tx_count(full_graph(4), None) == 12  # 2 * C(4,2)

    def test_fully_connected_four_single_relay(self):
        assert onchain_tx_count(full_graph(4), "hub") == 8  # 2 * 4

    def test_single_pair_direct(self):
        g = payment_graph(frozenset({"a", "b"}), (("a", "b", 3),))
        assert onchain_tx_count(g, None) == 2

    def test_relay_that_is_a_client_needs_no_self_channel(self):
        star = payment_graph(
            frozenset({"hub", "x", "y", "z"}),
            (("hub", "x", 1), ("hub", "y", 1), ("hub", "z", 1)),
        )
        assert onchain_tx_count(star, None) == 6
        assert onchain_tx_count(star, "hub") == 6
        assert onchain_tx_count(star, "external") == 8

    def test_repeated_payments_share_one_channel(self):
        g = payment_graph(frozenset({"a", "b"}), (("a", "b", 5), ("b", "a", 2)))
        assert onchain_tx_count(g, None) == 2

    def test_idle_client_relay_funds_every_active_client(self):
        # A declared client with no payments of its own relays like an outsider.
        g = payment_graph(frozenset("abci"), (("a", "b", 1), ("b", "c", 1)))
        assert onchain_tx_count(g, "i") == onchain_tx_count(g, "ext") == 6

    def test_empty_relay_id_is_a_relay(self):
        # Only None means direct channels; any string names a relay node.
        g = full_graph(4)
        assert onchain_tx_count(g, "") == 8
        assert lightning_analysis(10.0, g, "", 2.0).relay_centralization_n0 == 1

    def test_relay_floor_is_two_per_active_client(self):
        for graph in all_payment_graphs(5):
            count = onchain_tx_count(graph, "ext")
            assert count == 2 * len(graph.active_clients())

    def test_relay_no_worse_than_direct_exactly_when_pairs_reach_active(self):
        # Funding a channel per client pays off only on graphs with at least
        # as many funded pairs as active clients (dense graphs); sparse
        # graphs such as a lone pair or a matching are cheaper kept direct.
        for graph in all_payment_graphs(5):
            relay = onchain_tx_count(graph, "ext")
            direct = onchain_tx_count(graph, None)
            dense = graph.channel_pair_count() >= len(graph.active_clients())
            assert (relay <= direct) == dense

    def test_client_relay_never_loses_on_connected_graphs(self):
        # With the relay chosen among participants, a connected payment graph
        # always has at least active-1 pairs, so relaying never costs more.
        for graph in all_payment_graphs(5):
            active = sorted(graph.active_clients())
            if not _connected(graph):
                continue
            relay = onchain_tx_count(graph, active[0])
            assert relay <= onchain_tx_count(graph, None)


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
        analysis = lightning_analysis(10.0, g, None, 1.0)
        assert analysis.effective_tps == 10.0
        assert analysis.relay_centralization_n0 == 4
        assert analysis.ctp == 40.0

    def test_fully_connected_four_with_relay(self):
        g = full_graph(4)
        analysis = lightning_analysis(10.0, g, "hub", 2.0)
        assert analysis.onchain_direct == 12
        assert analysis.onchain_plan == 8
        assert analysis.relay_centralization_n0 == 1
        assert analysis.effective_tps == pytest.approx(10.0 * 2.0 * 1.5)
        assert analysis.ctp == pytest.approx(30.0)

    def test_relay_pins_n0_to_one_direct_to_n(self):
        g = full_graph(5)
        t = 3.0
        direct = lightning_analysis(t, g, None, 2.0)
        relayed = lightning_analysis(t, g, "hub", 2.0)
        assert direct.relay_centralization_n0 == len(g.clients)
        assert relayed.relay_centralization_n0 == 1

    def test_extreme_case_ctp_is_n_t_alpha(self):
        # Fully connected graph, everything through one relay: the product
        # n * t * alpha survives only through batching.
        for n in (3, 4, 6):
            g = full_graph(n)
            t, alpha = 7.0, 3.0
            analysis = lightning_analysis(t, g, "hub", alpha)
            pairs = n * (n - 1) / 2
            assert analysis.ctp == pytest.approx(t * alpha * pairs / n)
            direct = lightning_analysis(t, g, None, alpha)
            assert direct.ctp == pytest.approx(n * t * alpha)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(InputError):
            lightning_analysis(1.0, full_graph(2), None, 0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_alpha_not_finite_rejected(self, alpha):
        with pytest.raises(InputError, match="^batching factor alpha must be >= 1 and finite"):
            lightning_analysis(1.0, full_graph(2), None, alpha)

    def test_empty_payments_rejected(self):
        g = payment_graph(frozenset({"a", "b"}), ())
        with pytest.raises(InputError):
            lightning_analysis(1.0, g, None, 1.0)

    @pytest.mark.parametrize("t, message", [
        (0.0, "^throughput_tps must be positive and finite, got 0.0$"),
        (1.0, "^batching factor alpha must be >= 1 and finite, got 0.5$"),
    ], ids=["throughput", "alpha"])
    def test_checks_run_in_order(self, t, message):
        # Throughput, then alpha, then the payments: all three are bad here.
        g = payment_graph(frozenset({"a", "b"}), ())
        with pytest.raises(InputError, match=message):
            lightning_analysis(t, g, None, 0.5)

    def test_relay_on_a_lone_pair_halves_throughput(self):
        # One pair: a direct channel costs 2 on-chain transactions, an
        # outside relay 4, so the relay plan carries half of t * alpha.
        g = payment_graph(frozenset("ab"), (("a", "b", 1),))
        analysis = lightning_analysis(10.0, g, "ext", 2.0)
        assert (analysis.onchain_direct, analysis.onchain_plan) == (2, 4)
        assert (analysis.effective_tps, analysis.relay_centralization_n0, analysis.ctp) == (10.0, 1, 10.0)


class TestPaymentGraphValidation:
    def test_self_payment_rejected(self):
        with pytest.raises(InputError):
            payment_graph(frozenset({"a"}), (("a", "a", 1),))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InputError):
            payment_graph(frozenset({"a"}), (("a", "b", 1),))

    @pytest.mark.parametrize("count", [2.7, 2.0, "2", None, True])
    def test_count_must_be_an_integer(self, count):
        payments = (("a", "b", 1), ("b", "c", 3), ("a", "c", count))
        with pytest.raises(InputError, match="^payment count must be an integer, got ") as err:
            payment_graph(frozenset("abc"), payments)
        assert err.value.index == 2

    def test_exact_columns_are_kept_as_given(self):
        sources, targets, counts = ("a", "b"), ("b", "c"), (1, 2)
        g = PaymentGraph(frozenset("abc"), sources, targets, counts)
        assert g.sources is sources and g.targets is targets and g.counts is counts
        assert g.payments == (("a", "b", 1), ("b", "c", 2))

    @pytest.mark.parametrize("clients", [{"a", "b", "c"}, ["a", "b", "c", "a"], frozenset({Tag("a"), "b", "c"})],
                             ids=["set", "list", "str_subclass"])
    def test_other_client_sets_become_a_frozenset_of_str(self, clients):
        g = PaymentGraph(clients, ("a",), ("b",), (1,))
        assert type(g.clients) is frozenset and g.clients == frozenset("abc")
        assert set(map(type, g.clients)) == {str}

    @pytest.mark.parametrize("payments", [
        [("a", "b", 1), ("b", "c", 2)],
        (("a", "b", np.int64(1)), ("b", "c", np.uint8(2))),
        (("a", "b", Count(1)), ("b", "c", 2)),
        ((Tag("a"), "b", 1), ("b", Tag("c"), 2)),
    ], ids=["list", "numpy_ints", "int_subclass", "str_subclass"])
    def test_other_columns_are_converted_as_before(self, payments):
        # The cells as columns, lists for a list of rows.
        cells = list if isinstance(payments, list) else tuple
        g = PaymentGraph(frozenset("abc"), *(cells(row[i] for row in payments) for i in range(3)))
        assert type(g.sources) is type(g.targets) is type(g.counts) is tuple
        # The former conversion, applied to every row.
        assert g.payments == tuple((str(a), str(b), operator.index(c)) for a, b, c in payments)
        assert [tuple(map(type, row)) for row in g.payments] == [(str, str, int)] * 2

    @pytest.mark.parametrize("payments, message", [
        ((("a", "b", 1), ("b", "c", 2.0)), "payment count must be an integer, got 2.0"),
        ((("a", "b", 1), (Tag("c"), "c", np.int64(1))), "payment from 'c' to itself"),
        ((("a", "b", 1), ("b", "c", 0)), "payment count must be >= 1, got 0 for 'b'->'c'"),
        ((("a", "b", 1), ("b", "d", 1)), "payment endpoints 'b', 'd' must be declared clients"),
    ], ids=["not_an_integer", "self_payment", "zero_count", "undeclared"])
    def test_tuple_and_list_columns_are_refused_alike(self, payments, message):
        for cells in (tuple, list):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$") as info:
                PaymentGraph(frozenset("abc"), *map(cells, zip(*payments)))
            assert info.value.index == 1

    @pytest.mark.parametrize("sources, targets, counts", [
        (("a", "b"), ("b",), (1, 1)), (("a",), ("b", "c"), (1, 1)), (("a", "b"), ("b", "c"), [1]), ((), (), (1,)),
    ], ids=["short_targets", "short_sources", "short_list", "no_payments"])
    def test_columns_of_unequal_length_are_refused(self, sources, targets, counts):
        message = (f"^payment graph has {len(sources)} sources, {len(targets)} targets "
                   f"and {len(counts)} counts$")
        with pytest.raises(InputError, match=message) as info:
            PaymentGraph(frozenset("abc"), sources, targets, counts)
        assert info.value.index is None
        with pytest.raises(InputError, match="^payment graph has 2 sources, 2 targets and 3 counts$"):
            dataclasses.replace(full_graph(3), sources=("c0", "c1"), targets=("c1", "c2"), counts=(1, 1, 1))

    def test_numpy_integer_counts_become_ints(self):
        g = payment_graph(frozenset("ab"), (("a", "b", np.int64(3)),))
        assert g.payments == (("a", "b", 3),) and type(g.payments[0][2]) is int

    def test_zero_count_rejected(self):
        with pytest.raises(InputError):
            payment_graph(frozenset({"a", "b"}), (("a", "b", 0),))


class TestPaymentGraphCache:
    def test_cached_values_take_no_part_in_the_value(self):
        graph, fresh = full_graph(6), full_graph(6)
        pairs, active = graph.channel_pair_count(), graph.active_clients()
        assert graph == fresh and hash(graph) == hash(fresh)
        assert pickle.dumps(graph) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(graph))
        # A pickle holds the columns only.
        assert copy == graph and vars(copy).keys() == {"clients", "sources", "targets", "counts"}
        assert copy.channel_pair_count() == pairs and copy.active_clients() == active
        smaller = dataclasses.replace(graph, sources=graph.sources[:3], targets=graph.targets[:3],
                                      counts=graph.counts[:3])
        assert smaller.channel_pair_count() == len(oracle_channel_pairs(smaller)) == 3
        assert smaller.active_clients() == frozenset(c for p in graph.payments[:3] for c in p[:2])

    def test_clients_are_kept_and_active_clients_built_when_first_asked_for(self):
        clients = frozenset("abcd")
        graph = PaymentGraph(clients, ("a", "b"), ("b", "c"), (1, 2))
        # The endpoints are checked without building the active set.
        assert graph.clients is clients and "_active_clients" not in vars(graph)
        assert graph.active_clients() == frozenset("abc") and graph.active_clients() is vars(graph)["_active_clients"]
        # Cells of another type are converted before the active set is built from them.
        graph = PaymentGraph(clients, [Tag("a")], [Tag("b")], [np.int64(1)])
        assert set(map(type, graph.active_clients())) == {str}

    def test_each_value_is_built_once(self):
        graph = full_graph(5)
        pairs, active = graph.channel_pair_count(), graph.active_clients()
        assert vars(graph)["_channel_pair_count"] == pairs == 10
        # A planted count shows that later calls read the cache, not the payments.
        vars(graph)["_channel_pair_count"] = 99
        assert lightning_analysis(1.0, graph, "c0", 2.0).onchain_direct == 198
        assert lightning_analysis(1.0, graph, None, 2.0).onchain_plan == 198
        assert graph.channel_pair_count() == 99 and graph.active_clients() is active


def _seeded_graph(rng):
    """A payment graph with repeated pairs and both directions of some."""
    clients = [f"c{i}" for i in range(rng.randint(2, 30))]
    payments = []
    for _ in range(rng.randint(1, 80)):
        a, b = rng.sample(clients, 2)
        payments.append((a, b, rng.randint(1, 3)))
        if rng.random() < 0.3:
            payments.append(rng.choice([(a, b, 1), (b, a, 2)]))
    return payment_graph(frozenset(clients), tuple(payments))


class TestChannelPairCount:
    def test_equals_the_pair_set_on_every_small_graph(self):
        for graph in all_payment_graphs(5):
            assert graph.channel_pair_count() == len(oracle_channel_pairs(graph))

    def test_equals_the_pair_set_with_both_directions_and_repeats(self):
        rng = random.Random("channel-pairs")
        both = repeated = 0
        for _ in range(300):
            graph = _seeded_graph(rng)
            assert graph.channel_pair_count() == len(oracle_channel_pairs(graph))
            ordered = [p[:2] for p in graph.payments]
            both += any((b, a) in ordered for a, b in ordered)
            repeated += len(set(ordered)) < len(ordered)
        assert both > 50 and repeated > 50

    def test_both_directions_fund_one_channel(self):
        graph = payment_graph(frozenset("abc"), (("a", "b", 1), ("b", "a", 2), ("a", "b", 3), ("c", "a", 1)))
        assert graph.channel_pair_count() == 2
        assert onchain_tx_count(graph, None) == 4
