import json
import math
import random
import re
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from chainmeter import cli, simnet
from chainmeter import (
    BlockTable,
    ChainParams,
    InputError,
    NetworkParams,
    ProducerDistribution,
    SimConfig,
    SimResult,
    TopologyError,
    ValidationError,
    block_capacity,
    bound_violation_check,
    centralization_level,
    export_report,
    load_sim_config,
    max_throughput,
    produced_distribution,
    propagation_delay,
    propagation_limited_throughput,
    run_simulation,
    throughput_upper_bound,
)
from chainmeter.simnet import _hop_distances, random_regular_graph

from helpers import (
    as_records,
    distribution,
    oracle_hop_distances,
    oracle_inbox_engine,
    oracle_random_regular_graph,
    oracle_simulation,
)

CHAIN = ChainParams(block_size_bytes=1_048_576, tx_size_bytes=513.86, block_interval_s=600.0, confirmations=6)
NET = NetworkParams(bandwidth_bytes_per_s=712_500.0, latency_s=0.1)


def equal_miners(n):
    return ProducerDistribution(tuple(f"m{i:02d}" for i in range(n)), (1.0 / n,) * n)


def config(n=5, blocks=200, degree=4, seed=3, chain=CHAIN, net=NET):
    return SimConfig(miners=equal_miners(n), chain=chain, net=net,
                     duration_blocks=blocks, topology_degree=degree, seed=seed)


def config_problems(tmp_path, rows, **fields):
    """What ``load_sim_config`` refuses in a config file that lists ``rows``
    as its miners, the file's name left out."""
    data = {"miners": [{"miner_id": m, "hash_power_share": w} for m, w in rows],
            "chain": asdict(CHAIN), "net": asdict(NET), "duration_blocks": 10, **fields}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as info:
        load_sim_config(str(path))
    return str(info.value).removeprefix(f"{path}: ")


class TestPropagationDelay:
    def test_single_hop(self):
        chain = ChainParams(10**6, 500.0, 600.0, 6)
        net = NetworkParams(10**6, 0.1)
        assert propagation_delay(1, chain, net) == pytest.approx(1.1)

    def test_linear_in_hops(self):
        assert propagation_delay(3, CHAIN, NET) == pytest.approx(3 * propagation_delay(1, CHAIN, NET))

    def test_vanishes_with_fast_network(self):
        chain = ChainParams(10**6, 500.0, 600.0, 6)
        assert propagation_delay(1, chain, NetworkParams(1e15, 0.0)) < 1e-8

    def test_rejects_zero_hops(self):
        with pytest.raises(InputError):
            propagation_delay(0, CHAIN, NET)


class TestTopology:
    def test_regular_and_connected(self):
        rng = np.random.default_rng(0)
        adj = random_regular_graph(20, 8, rng)
        assert adj.shape == (20, 8) and adj.dtype == np.intp
        assert (np.diff(adj, axis=1) > 0).all()
        assert all(node not in peers for node, peers in enumerate(adj.tolist()))

    @pytest.mark.parametrize("degree", [0, -1, 8])
    def test_single_node(self, degree):
        assert random_regular_graph(1, degree, np.random.default_rng(0)).tolist() == [[]]

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_is_refused_before_any_draw(self, degree):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(TopologyError, match=f"^no connected {degree}-regular graph over 5 nodes"):
            random_regular_graph(5, degree, rng)
        assert rng.bit_generator.state == state

    def test_two_nodes_degree_one(self):
        assert random_regular_graph(2, 1, np.random.default_rng(0)).tolist() == [[1], [0]]

    def test_impossible_connectivity_raises(self):
        # degree-1 over 4 nodes is always two disjoint edges
        with pytest.raises(TopologyError):
            random_regular_graph(4, 1, np.random.default_rng(0))

    def test_seed_determines_graph(self):
        a = random_regular_graph(16, 4, np.random.default_rng(9))
        b = random_regular_graph(16, 4, np.random.default_rng(9))
        assert a.tolist() == b.tolist()

    def test_other_bit_generators_are_refused(self):
        with pytest.raises(TypeError, match="MT19937"):
            random_regular_graph(20, 8, np.random.Generator(np.random.MT19937(0)))


def graph_outcome(build, n, degree, seed, prepare=None):
    """What a graph build leaves: the graph as lists of peers or the error
    type, the generator state after it, and the next value the generator
    gives. ``prepare`` is applied to the generator before the build."""
    rng = np.random.default_rng(seed)
    if prepare:
        prepare(rng)
    try:
        graph = build(n, degree, rng)
    except TopologyError:
        graph = TopologyError
    else:
        graph = graph.tolist() if isinstance(graph, np.ndarray) else [list(peers) for peers in graph]
    return graph, rng.bit_generator.state, rng.random()


def hold_half(rng):
    """Leave ``rng`` holding the high half of a word, as ``integers(7)`` does."""
    rng.integers(7)


def hold_zero(rng):
    """Leave ``rng`` holding a buffered half of 0 for its next 32-bit draw."""
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, 0
    rng.bit_generator.state = state


class TestGraphAgainstOracle:
    """The stub draw from raw generator words against the one-call-per-stub
    matcher it replaced: the same graph, or the same ``TopologyError``, and
    the generator left in the same state.

    ``sparse`` covers every degree up to n/2 for n <= 40, where pairs are
    rarely rejected; ``dense`` every higher degree for n <= 24, where
    accepted and rejected pairs alternate; ``stuck`` dense degrees at n=40
    whose matchings stall or come out disconnected until the 100 attempts
    run out; ``large`` graphs that read many blocks of words; ``mid``
    degrees near n/8, n/4 and n/3, where long runs of accepted pairs end in
    lone rejections and streaks of rejections come between the runs;
    ``restart`` the benchmark's (200, 8) at the seeds below 50 whose first
    matching stalls at its last two stubs and is matched afresh.
    """

    @staticmethod
    def cases(family):
        if family == "large":
            yield from ((n, 8, seed) for n in (200, 1000, 2000) for seed in range(3))
        elif family == "mid":
            yield from ((n, n // k, seed) for n in (64, 128, 256) for k in (8, 4, 3) for seed in (0, 1))
        elif family == "stuck":
            yield from ((40, degree, 0) for degree in range(34, 39))
        elif family == "restart":
            yield from ((200, 8, seed) for seed in (5, 10, 25, 27, 40, 48))
        else:
            for n in range(1, 41 if family == "sparse" else 25):
                for degree in range(n):
                    if n * degree % 2 == 0 and (degree <= n // 2) == (family == "sparse"):
                        yield from ((n, degree, seed) for seed in ((0, 1, 2) if family == "sparse" else (n % 3,)))

    @pytest.mark.parametrize("family", ["sparse", "dense", "stuck", "large", "mid", "restart"])
    def test_same_graph_and_generator_state(self, family, monkeypatch):
        check, stalls = simnet._any_valid_pair, []

        def recording(stubs, adj):
            stalls.append((len(stubs), check(stubs, adj)))
            return stalls[-1][1]

        monkeypatch.setattr(simnet, "_any_valid_pair", recording)
        for n, degree, seed in self.cases(family):
            stalls.clear()
            expected = graph_outcome(oracle_random_regular_graph, n, degree, seed)
            assert graph_outcome(random_regular_graph, n, degree, seed) == expected, (n, degree, seed)
            if family == "stuck":
                assert expected[0] is TopologyError
            if family == "restart":
                # One stall check, over the two live stubs, that finds no pair.
                assert stalls == [(2, False)], seed

    @pytest.mark.parametrize("family", ["sparse", "dense"])
    def test_buffered_half_is_drawn_first(self, family):
        # The build's first draw takes the half the generator holds.
        for n, degree, seed in self.cases(family):
            if seed == n % 3:
                expected = graph_outcome(oracle_random_regular_graph, n, degree, seed, hold_half)
                assert graph_outcome(random_regular_graph, n, degree, seed, hold_half) == expected, (n, degree, seed)

    def test_first_draw_redrawn(self):
        # A held 0 makes the first stub draw's product 0, whose low half is
        # under (2**32 - size) % size at these stub counts: the draw leaves
        # the fast path and is redrawn from the next value.
        for n, degree in ((20, 8), (24, 16), (200, 8)):
            for seed in range(3):
                expected = graph_outcome(oracle_random_regular_graph, n, degree, seed, hold_zero)
                assert graph_outcome(random_regular_graph, n, degree, seed, hold_zero) == expected, (n, degree, seed)


class CountingPCG64(np.random.PCG64):
    """A PCG64 that counts its ``random_raw`` calls."""

    raw_calls = 0

    def random_raw(self, *args, **kwargs):
        self.raw_calls += 1
        return super().random_raw(*args, **kwargs)


class CountingGenerator(np.random.Generator):
    """A generator that counts its ``integers`` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("n", [200, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_graph_build_reads_two_blocks_of_words(n, seed):
    # One block read ahead holds every stub's draw and the rejected pairs'
    # draws; one more sets the generator where one call per stub leaves it.
    rng = CountingGenerator(CountingPCG64(seed))
    random_regular_graph(n, 8, rng)
    assert rng.calls == 0
    assert rng.bit_generator.raw_calls == 2


@pytest.mark.parametrize("size", [3, 1000, 2**31 + 5, 3 * 2**30])
@pytest.mark.parametrize("buffered", [False, True])
def test_bounded_draw_matches_integers(size, buffered):
    # At these sizes the redraw fires from almost never (3) to about every
    # other draw (2**31 + 5), and 2,000 draws cross blocks of words.
    expected, rng = np.random.default_rng(size), np.random.default_rng(size)
    if buffered:
        hold_half(expected)
        hold_half(rng)
    stream = simnet._Halves(rng.bit_generator)
    draws, pos = [], 0
    for _ in range(2000):
        index, pos = stream.bounded(pos, size)
        draws.append(index)
    stream.end(pos)
    assert draws == [int(expected.integers(size)) for _ in range(2000)]
    assert rng.bit_generator.state == expected.bit_generator.state


class TestHopDistances:
    """The one multi-source search against a queue-driven search per source:
    every entry between two sources."""

    @staticmethod
    def check(adj, sources):
        n = len(adj)
        peers = np.array(adj, dtype=np.intp).reshape(n, -1)
        dist = _hop_distances(peers, np.array(sources, dtype=np.intp))
        rows = [oracle_hop_distances(adj, s) for s in sources]
        assert dist.dtype == np.min_scalar_type(n)
        assert dist.tolist() == [[row[k] for k in sources] for row in rows]

    @pytest.mark.parametrize("n, degree", [(2, 1), (9, 2), (10, 3), (37, 4), (300, 2), (300, 8)])
    def test_random_regular_graphs(self, n, degree):
        rng = np.random.default_rng(n)
        adj = random_regular_graph(n, degree, rng).tolist()
        # Every node, then source counts on and either side of 64-bit word
        # edges, in scrambled order.
        self.check(adj, list(range(n)))
        for count in {1, 63, 64, 65, 128, 129}:
            self.check(adj, rng.permutation(n)[:min(n, count)].tolist())

    def test_disconnected_nodes_read_n(self):
        self.check(TWO_RINGS, [5, 0, 3, 1])
        self.check(TWO_RINGS, [6])
        dist = _hop_distances(np.array(TWO_RINGS), np.array([0, 1, 4]))
        assert dist.tolist() == [[0, 1, 8], [1, 0, 8], [8, 8, 0]]

    def test_single_node(self):
        self.check(((),), [0])

    def test_dtype_widens_with_n(self):
        # uint8 holds 255 but not 256; a ring's far side is n/2 hops away.
        for n in (255, 256):
            self.check(ring(n), [0, n - 1, 100, n // 2])
            self.check(ring(n), list(range(n))[::-1])


# Two disjoint rings, of 3 and 5 nodes.
TWO_RINGS = ((1, 2), (0, 2), (0, 1), (4, 7), (3, 5), (4, 6), (5, 7), (3, 6))


def ring(n):
    return tuple(tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n))


class TestConnected:
    """``_connected`` against a queue-driven search from node 0: true only
    if it reaches every node."""

    @staticmethod
    def check(adj):
        n = len(adj)
        connected = simnet._connected(np.array(adj, dtype=np.intp).reshape(n, -1))
        assert connected == (max(oracle_hop_distances(adj, 0)) < n)
        return connected

    @pytest.mark.parametrize("n, degree", [(2, 1), (9, 2), (10, 3), (37, 4), (300, 2), (300, 8)])
    def test_random_regular_graphs(self, n, degree):
        assert self.check(random_regular_graph(n, degree, np.random.default_rng(n)).tolist())

    def test_two_disjoint_rings(self):
        assert not self.check(TWO_RINGS)
        # Node 0 in the larger ring, of 5 nodes.
        assert not self.check(((1, 4), (0, 2), (1, 3), (2, 4), (0, 3), (6, 7), (5, 7), (5, 6)))

    def test_single_node(self):
        assert self.check(((),))

    def test_edgeless_nodes(self):
        assert not simnet._connected(np.empty((3, 0), np.intp))

    def test_long_rings(self):
        # Searches about n/2 levels deep: one 2,000-node ring, then two
        # rings of 1,000 nodes each.
        assert self.check(ring(2000))
        assert not self.check(ring(1000) + tuple(tuple(p + 1000 for p in peers) for peers in ring(1000)))


class TestConnectivityCheck:
    """The peer-graph build checks each full matching with ``_connected``."""

    def test_disconnected_matching_is_retried(self, monkeypatch):
        # A 2-regular matching over 7 nodes may come out as a 3-cycle and a
        # 4-cycle: the build must throw it away and match again.
        check, reach = simnet._connected, []

        def recording(peers):
            reach.append(check(peers))
            return reach[-1]

        monkeypatch.setattr(simnet, "_connected", recording)
        retried = 0
        for seed in range(20):
            reach.clear()
            graph = random_regular_graph(7, 2, np.random.default_rng(seed))
            expected = oracle_random_regular_graph(7, 2, np.random.default_rng(seed))
            assert graph.tolist() == [list(peers) for peers in expected], seed
            assert reach[-1] and not any(reach[:-1]), seed
            retried += len(reach) > 1
        assert retried >= 3


class TestConfigValidation:
    def test_shares_are_weights_that_need_not_sum_to_one(self):
        cfg = SimConfig(miners=distribution((("a", 0.5), ("b", 0.4))), chain=CHAIN, net=NET, duration_blocks=10, topology_degree=1)
        assert cfg.miners.entries == (("a", 0.5), ("b", 0.4))

    def test_first_miner_fault_is_a_listed_problem(self, tmp_path):
        # The loader builds the miners' ProducerDistribution, which names its first fault.
        assert config_problems(tmp_path, (("a", "x"), ("b", 0.5), ("c", None)), duration_blocks=0, topology_degree=2) == (
            "miners[0]: weight of 'a' must be a number, got 'x'; duration_blocks: must be >= 1, got 0")

    def test_degree_must_fit(self):
        with pytest.raises(ValidationError):
            run_simulation(config(n=4, degree=4))
        with pytest.raises(ValidationError):  # no connected 1-regular graph over 4 nodes
            run_simulation(config(n=4, degree=1))

    def test_odd_degree_product_rejected(self):
        with pytest.raises(ValidationError):
            run_simulation(config(n=5, degree=3))

    def test_duration_must_be_positive(self):
        with pytest.raises(ValidationError):
            run_simulation(config(blocks=0))

    def test_duration_is_at_most_what_one_float64_array_holds(self):
        # Only the configs are built: a run at the bound would allocate 8 EiB.
        bound = np.iinfo(np.intp).max // 8
        assert simnet.MAX_DURATION_BLOCKS == bound
        assert replace(config(), duration_blocks=bound).duration_blocks == bound
        with pytest.raises(ValidationError, match=f"^duration_blocks: must be <= {bound}, got {bound + 1}$"):
            replace(config(), duration_blocks=bound + 1)
        with pytest.raises(ValueError, match="array is too big"):
            np.random.default_rng(0).random(bound + 1)  # fails before it allocates

    def test_an_interval_whose_mining_times_overflow_is_refused(self):
        # At the limit every seed's mining times stay finite; past it the
        # config is refused when it is built, so no run starts.
        for blocks in (1, 20):
            at_limit = replace(CHAIN, block_interval_s=simnet.MAX_MINING_SPAN_S / blocks)
            for seed in range(5):
                result = run_simulation(config(n=2, blocks=blocks, degree=1, seed=seed, chain=at_limit))
                assert all(map(math.isfinite, result.blocks.mined_at_s))
        with pytest.raises(ValidationError, match=(
            r"^chain: block_interval_s must be <= 1.4044477616111842e\+305 over 20 blocks, "
            r"so mining times stay finite, got 1e\+308$"
        )):
            config(n=2, blocks=20, degree=1, chain=replace(CHAIN, block_interval_s=1e308))
        with pytest.raises(ValidationError, match="^chain: block_interval_s must be <= "):
            replace(config(chain=replace(CHAIN, block_interval_s=1e303)), duration_blocks=10_000)

    def test_duplicate_miner_ids(self, tmp_path):
        assert config_problems(tmp_path, (("a", 0.5), ("a", 0.5)), topology_degree=1) == (
            "miners[1]: duplicate producer_id 'a'")

    def test_no_miners(self):
        # An empty list is refused by the loader; no config can hold one.
        with pytest.raises(InputError, match="^distribution has no producers$"):
            SimConfig(miners=ProducerDistribution((), ()), chain=CHAIN, net=NET, duration_blocks=10)

    def test_weights_whose_sum_overflows_are_refused(self, tmp_path):
        assert config_problems(tmp_path, (("a", 1e308), ("b", 1e308)), topology_degree=1) == (
            "miners: total weight must be finite, got inf")

    def test_error_lists_every_violation(self, tmp_path):
        message = config_problems(tmp_path, (("a", 0.5), ("a", 0.4)), duration_blocks=0, topology_degree=5, seed=-1)
        for field in ("miners[1]: duplicate", "topology_degree", "duration_blocks", "seed"):
            assert field in message

    @pytest.mark.parametrize("miners", [
        (("a", 1.0),), {"a": 1.0}, None, ("a",),
    ], ids=["rows", "dict", "none", "ids"])
    def test_miners_of_another_type_are_a_listed_problem(self, miners):
        with pytest.raises(ValidationError, match=(
            rf"^miners: must be a ProducerDistribution, got {re.escape(repr(miners))}; "
            r"duration_blocks: must be >= 1, got 0$"
        )):
            SimConfig(miners=miners, chain=CHAIN, net=NET, duration_blocks=0)

    @pytest.mark.parametrize("field, value", [
        ("duration_blocks", 10.7), ("duration_blocks", 10.0), ("topology_degree", 8.5),
        ("seed", 3.9), ("seed", math.nan), ("seed", "3"), ("seed", None),
        ("duration_blocks", True), ("seed", False),
    ])
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got "):
            replace(config(), **{field: value})

    def test_numpy_integers_pass(self):
        cfg = replace(config(seed=3), seed=np.int64(3), duration_blocks=np.uint64(200), topology_degree=np.int32(4))
        assert (cfg.seed, cfg.duration_blocks, cfg.topology_degree) == (3, 200, 4)
        assert {type(cfg.seed), type(cfg.duration_blocks), type(cfg.topology_degree)} == {int}
        assert run_simulation(cfg) == run_simulation(config(seed=3))

    def test_chain_and_net_of_another_type_are_listed_problems(self):
        with pytest.raises(ValidationError, match=(
            r"^chain: must be a ChainParams, got None; net: must be a NetworkParams, got 'x'$"
        )):
            SimConfig(miners=distribution((("a", .5), ("b", .5))), chain=None, net="x", duration_blocks=5, topology_degree=1)

    def test_lone_miner_keeps_its_share(self, tmp_path):
        for share, stored in ((0.9, 0.9), (3, 3.0), (np.float32(0.5), 0.5)):
            cfg = SimConfig(miners=distribution((("solo", share),)), chain=CHAIN, net=NET, duration_blocks=5)
            assert cfg.miners.weights == (stored,) and type(cfg.miners.weights[0]) is float
            assert dict(produced_distribution(run_simulation(cfg)).entries) == {"solo": 5.0}
        assert config_problems(tmp_path, (("solo", 0.0),)) == "miners: total weight must be positive"
        for share, read in ((-0.5, "-0.5"), (math.inf, "inf"), (math.nan, "nan"), (10**400, "inf")):
            assert config_problems(tmp_path, (("solo", share),)) == (
                f"miners[0]: weight of 'solo' must be finite and >= 0, got {read}")


class TestSingleMiner:
    def test_no_competition(self):
        cfg = SimConfig(miners=distribution((("solo", 1.0),)), chain=CHAIN, net=NET,
                        duration_blocks=100, topology_degree=0, seed=2)
        result = run_simulation(cfg)
        assert result.stale_rate == 0.0
        assert result.observed_tps == block_capacity(CHAIN) / CHAIN.block_interval_s
        assert len(result.canonical_chain) == 101

    def test_production_all_attributed(self):
        cfg = SimConfig(miners=distribution((("solo", 1.0),)), chain=CHAIN, net=NET,
                        duration_blocks=64, topology_degree=0, seed=2)
        result = run_simulation(cfg)
        assert dict(result.per_miner_canonical.entries) == {"solo": 64.0}

    def test_degree_is_ignored(self, tmp_path):
        exports = []
        for degree in (0, -1, 8):
            cfg = SimConfig(miners=distribution((("solo", 1.0),)), chain=CHAIN, net=NET,
                            duration_blocks=64, topology_degree=degree, seed=2)
            export_report(run_simulation(cfg), tmp_path / "r.json", "json")
            exports.append((tmp_path / "r.json").read_bytes())
        assert exports == exports[:1] * 3


class TestDeterminism:
    def test_identical_config_identical_result(self):
        a = run_simulation(config(seed=11))
        b = run_simulation(config(seed=11))
        assert a == b

    def test_different_seeds_differ(self):
        a = run_simulation(config(seed=1))
        b = run_simulation(config(seed=2))
        assert a != b


class TestChainValidity:
    def test_canonical_chain_is_contiguous(self):
        result = run_simulation(config(blocks=500, seed=5))
        blocks = result.blocks
        chain = result.canonical_chain
        assert chain[0] == 0
        for prev, cur in zip(chain, chain[1:]):
            assert blocks.parent_ids[cur] == prev
            assert blocks.heights[cur] == blocks.heights[prev] + 1
            assert blocks.mined_at_s[cur] > blocks.mined_at_s[prev]

    def test_every_block_has_valid_parent(self):
        blocks = run_simulation(config(blocks=300, seed=6)).blocks
        for block_id, parent in enumerate(blocks.parent_ids):
            if block_id == 0:
                assert parent is None and blocks.heights[0] == 0
            else:
                assert 0 <= parent < len(blocks)
                assert blocks.heights[parent] == blocks.heights[block_id] - 1
                assert blocks.mined_at_s[block_id] > blocks.mined_at_s[parent]

    def test_stale_rate_matches_definition(self):
        result = run_simulation(config(blocks=400, seed=8))
        mined = len(result.blocks) - 1
        canonical = len(result.canonical_chain) - 1
        assert result.stale_rate == 1.0 - canonical / mined


class TestThroughput:
    def test_matches_protocol_rate_when_interval_dominates(self):
        result = run_simulation(config(n=10, blocks=4000, degree=4, seed=0))
        assert result.observed_tps == pytest.approx(max_throughput(CHAIN), rel=0.05)
        assert result.stale_rate < 0.01

    def test_interval_at_floor_loses_to_closed_form(self):
        hop = NET.latency_s + CHAIN.block_size_bytes / NET.bandwidth_bytes_per_s
        tight = ChainParams(CHAIN.block_size_bytes, CHAIN.tx_size_bytes, hop, 6)
        result = run_simulation(config(n=10, blocks=3000, degree=4, seed=0, chain=tight))
        assert result.observed_tps < propagation_limited_throughput(tight, NET)
        assert result.stale_rate > 0.1

    def test_never_exceeds_ceiling(self):
        for seed in range(5):
            result = run_simulation(config(n=8, blocks=500, degree=4, seed=seed))
            check = bound_violation_check(result, NET, CHAIN)
            assert not check.violated
            assert check.cap_tps == throughput_upper_bound(NET, CHAIN.tx_size_bytes)
            assert check.observed_tps == result.observed_tps


class TestProportionalProduction:
    def test_canonical_shares_track_hash_power(self):
        shares = [0.5, 0.3, 0.2]
        cfg = SimConfig(
            miners=distribution((f"m{i}", s) for i, s in enumerate(shares)),
            chain=CHAIN, net=NetworkParams(1e8, 0.001),
            duration_blocks=5000, topology_degree=2, seed=4,
        )
        result = run_simulation(cfg)
        total = sum(result.per_miner_canonical.weights)
        for (_, count), share in zip(result.per_miner_canonical.entries, shares):
            sigma = math.sqrt(share * (1 - share) / total)
            assert abs(count / total - share) <= 3 * sigma

    def test_zero_share_miner_mines_nothing(self):
        shares = [0.0, 0.5, 0.0, 0.5, 0.0]
        cfg = SimConfig(
            miners=distribution((f"m{i}", s) for i, s in enumerate(shares)),
            chain=CHAIN, net=NET, duration_blocks=2000, topology_degree=2, seed=6,
        )
        mined = dict(produced_distribution(run_simulation(cfg)).entries)
        assert mined["m0"] == mined["m2"] == mined["m4"] == 0.0
        assert mined["m1"] + mined["m3"] == 2000.0


class ForcedDraw(np.random.Generator):
    """A PCG64 generator whose ``random`` arrays hold ``value`` at ``index``."""

    def __init__(self, seed, index, value):
        super().__init__(np.random.PCG64(seed))
        self.index, self.value = index, value

    def random(self, *args, **kwargs):
        draws = super().random(*args, **kwargs)
        draws[self.index] = self.value
        return draws


class TestWinnerDraw:
    # The largest float below 1, the most a draw in [0, 1) can be.
    TOP = np.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("index, value, winner", [(1, 0.0, 1), (2, TOP, 2)], ids=["lowest", "highest"])
    def test_extreme_draws_skip_zero_weights_listed_first_and_last(self, monkeypatch, index, value, winner):
        # The weights sum to 1 - 5e-10, so the highest draw lies past the
        # raw cumulative sum; over the total the last weight ends at 1.0.
        cfg = SimConfig(miners=distribution((("relay0", 0.0), ("a", 0.5), ("b", 0.4999999995), ("relay", 0.0))), chain=CHAIN,
                        net=NET, duration_blocks=5, topology_degree=2, seed=1)
        mined, winners = simnet._draw_events(cfg, ForcedDraw(1, index, value))
        plain = simnet._draw_events(cfg, np.random.default_rng(1))[1]
        assert winners.tolist() == [*plain[:index], winner, *plain[index + 1:]]
        assert mined[0] == 0.0 and len(mined) == 6
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ForcedDraw(seed, index, value))
        mined_by = dict(produced_distribution(run_simulation(cfg)).entries)
        assert mined_by["relay0"] == mined_by["relay"] == 0.0

    def test_weights_draw_as_their_shares(self):
        # Dividing by a power of two is exact, so weights 2**k times the
        # shares, and counts in their ratio, give the same winners and result.
        shares = (("a", 0.75), ("b", 0.0), ("c", 0.25))
        base = SimConfig(miners=distribution(shares), chain=CHAIN, net=NET, duration_blocks=300, topology_degree=2, seed=8)
        result = run_simulation(base)
        for k in (-3, 2, 60):
            assert run_simulation(replace(base, miners=distribution((m, math.ldexp(s, k)) for m, s in shares))) == result
        assert run_simulation(replace(base, miners=distribution((("a", 3), ("b", 0), ("c", 1))))) == result


class TestProducedDistribution:
    def test_single_miner_counts_duration(self):
        cfg = SimConfig(miners=distribution((("solo", 1.0),)), chain=CHAIN, net=NET,
                        duration_blocks=40, topology_degree=0, seed=1)
        result = run_simulation(cfg)
        assert dict(result.per_miner_canonical.entries) == {"solo": 40.0}
        assert dict(produced_distribution(result).entries) == {"solo": 40.0}

    def test_all_blocks_dominate_canonical(self):
        result = run_simulation(config(n=10, blocks=1000, degree=4, seed=9))
        canonical = dict(result.per_miner_canonical.entries)
        everything = dict(produced_distribution(result).entries)
        assert set(canonical) == set(everything)
        assert all(everything[m] >= canonical[m] for m in canonical)
        assert sum(everything.values()) == 1000.0

    def test_all_blocks_equal_a_plain_count_over_the_records(self):
        shares = [0.0, 0.4, 0.0, 0.35, 0.25]
        forky = replace(CHAIN, block_interval_s=0.5)
        cfg = SimConfig(miners=distribution((f"m{i}", s) for i, s in enumerate(shares)), chain=forky, net=NET,
                        duration_blocks=600, topology_degree=2, seed=12)
        result = run_simulation(cfg)
        assert result.stale_rate > 0.3
        counts = dict.fromkeys(cfg.miners.ids, 0.0)
        for index in result.blocks.miner_index[1:]:
            counts[result.blocks.miner_ids[index]] += 1.0
        everything = produced_distribution(result)
        assert everything.entries == tuple(counts.items())
        assert {type(w) for _, w in everything.entries} == {float}

    def test_skewed_run_recovers_configured_level(self):
        # top 4 hold 53% of hash power; the 0.47 level should come out 4 +- 1
        shares = [0.53 / 4] * 4 + [0.47 / 8] * 8
        cfg = SimConfig(
            miners=distribution((f"m{i:02d}", s) for i, s in enumerate(shares)),
            chain=CHAIN, net=NetworkParams(1e8, 0.001),
            duration_blocks=8000, topology_degree=4, seed=10,
        )
        result = run_simulation(cfg)
        level = centralization_level(result.per_miner_canonical, 0.47)
        assert abs(level.n - 4) <= 1


class TestBlockTable:
    def test_blocks_are_the_first_field(self):
        result = run_simulation(config(n=6, blocks=50, seed=2))
        assert fields(SimResult)[0].name == "blocks"
        assert type(result.blocks) is BlockTable

    def test_length_counts_genesis(self):
        cfg = config(n=6, blocks=80, seed=4)
        blocks = run_simulation(cfg).blocks
        assert len(blocks) == cfg.duration_blocks + 1
        assert {len(blocks.parent_ids), len(blocks.heights), len(blocks.mined_at_s),
                len(blocks.miner_index)} == {len(blocks)}
        assert blocks.miner_index[0] == -1 and blocks.parent_ids[0] is None
        assert blocks.miner_ids == cfg.miners.ids
        assert blocks.size_bytes == CHAIN.block_size_bytes

    def test_holds_no_state_beyond_its_fields(self, tmp_path):
        result = run_simulation(config(n=6, blocks=50, seed=2))
        export_report(result, str(tmp_path / "r.json"), "json")
        produced_distribution(result)
        for obj in (result, result.blocks):
            assert vars(obj).keys() == {f.name for f in fields(obj)}

    @pytest.mark.parametrize("column, lengths", [
        ("parent_ids", "2, 3, 3, 3"), ("heights", "3, 2, 3, 3"),
        ("mined_at_s", "3, 3, 2, 3"), ("miner_index", "3, 3, 3, 2"),
    ])
    def test_columns_of_unequal_length_are_refused(self, column, lengths):
        columns = {"parent_ids": (None, 0, 1), "heights": (0, 1, 2), "mined_at_s": (0.0, 1.0, 2.0),
                   "miner_index": (-1, 0, 0)}
        columns[column] = columns[column][:-1]
        with pytest.raises(InputError, match=f"^parent_ids, heights, mined_at_s and miner_index differ in length: {lengths}$"):
            BlockTable(**columns, size_bytes=1000, miner_ids=("a",))

    def test_equal_seeds_give_equal_equally_hashed_results(self, tmp_path):
        a, b = run_simulation(config(seed=7)), run_simulation(config(seed=7))
        export_report(a, str(tmp_path / "a.json"), "json")
        assert a == b and hash(a) == hash(b)
        assert a.blocks == b.blocks and hash(a.blocks) == hash(b.blocks)


def tiered_miners(n):
    """2018 Bitcoin skew over ``n`` > 16 miners: 4 pools hold 53%, the top 16 hold 90%."""
    shares = [0.53 / 4] * 4 + [0.37 / 12] * 12 + [0.10 / (n - 16)] * (n - 16)
    return distribution((f"m{i:02d}", s) for i, s in enumerate(shares))


def relay_miners(n, hashing):
    """``n`` nodes of which only the last ``hashing`` mine, in equal shares;
    the others are zero-share relay nodes."""
    return distribution((f"m{i:02d}", 0.0 if i < n - hashing else 1.0 / hashing) for i in range(n))


def test_hop_sums_follow_the_blocks_in_flight():
    # A 400-miner ring puts about 200 hops between winners. A table of every
    # block's arrival at each hop count would hold 200 x 5,001 floats,
    # 7.6 MiB; the window of blocks in flight holds about 2^16.
    cfg = SimConfig(miners=equal_miners(400), chain=CHAIN, net=NET, duration_blocks=5_000, topology_degree=2, seed=1)
    tracemalloc.start()
    try:
        run_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class TestAgainstOracle:
    """The windowed engine against two references it must match exactly.

    The engine treats each event's settled prefix of block ids as arrived
    and computes an arrival time only for the blocks in flight after it.
    The per-hop oracle floods every block hop by hop through one event heap;
    the inbox oracle, the engine's former loop, pushes every block into a
    heap per winner. All three deliver a block to a node after the same
    float sum of hop delays, so every public attribute of a ``SimResult``
    must match the per-hop oracle, ``blocks`` record by record, and the
    parent and height columns must match the inbox oracle. The one rule that
    differs: distinct blocks reaching one node at the same float time are
    taken in heap push order by the per-hop oracle and by lower block id by
    the engine and the inbox oracle. With continuous mining times that tie
    has probability zero.

    The ``ulp`` family puts mining times at 1e13 to 1e16 s and the hop near
    half an ulp of them, so each ``+ hop`` rounds and a block can reach a
    node later than its hop count times the hop, or at the very time it is
    mined. The ``tiered`` family is fork-heavy at workload scale: skewed
    shares, an interval of about two hops and 2,000 to 3,000 blocks. In the
    ``relays`` family most nodes are zero-share relays on a sparse graph, so
    a winner's most hops to another winner is often fewer than to any node.
    In the ``runs`` family the interval is 3 to 50 hops over 1,000 to 3,000
    blocks, so most blocks have received every earlier one and the engine
    takes them in runs after a lone top; every config forks, so runs start
    after forks as well as after genesis.
    """

    FAMILIES = [
        ("single", 10), ("pair", 40), ("ring", 40), ("dense", 40), ("mixed", 140), ("forky", 40),
        ("ulp", 40), ("tiered", 6), ("relays", 30), ("runs", 20),
    ]

    @staticmethod
    def grid(family, count):
        rng = random.Random(f"oracle/{family}")
        for _ in range(count):
            if family == "single":
                n, degree = 1, 0
            elif family == "pair":
                n, degree = 2, 1
            elif family == "ring":
                n, degree = rng.randint(10, 40), 2
            elif family == "dense":
                n = rng.randint(5, 16)
                degree = rng.choice([d for d in (n - 1, n - 2, n - 3) if n * d % 2 == 0])
            elif family == "tiered":
                n = rng.randint(20, 60)
                degree = rng.choice([d for d in range(3, 9) if n * d % 2 == 0])
            elif family == "relays":
                n = rng.randint(20, 50)
                degree = rng.choice([d for d in (3, 4) if n * d % 2 == 0])
            elif family == "runs":
                n = rng.choice((2, rng.randint(3, 30)))
                degree = 1 if n == 2 else rng.choice([d for d in range(2, min(n, 9)) if n * d % 2 == 0])
            else:
                n = rng.randint(3, 30)
                degree = rng.choice([d for d in range(2, min(n, 9)) if n * d % 2 == 0])
            chain = ChainParams(rng.choice([10**5, 10**6, 4 * 10**6]), 500.0,
                                rng.choice([2.0, 10.0, 60.0, 600.0]), 6)
            net = NetworkParams(rng.choice([1e5, 1e6, 1e7]), rng.choice([0.0, 0.05, 0.5]))
            if family == "forky":
                hop = propagation_delay(1, chain, net)
                chain = replace(chain, block_interval_s=hop * rng.uniform(0.02, 0.2))
            blocks = rng.randint(50 if family == "forky" else 1, 200)
            if family == "tiered":
                hop = propagation_delay(1, chain, net)
                chain = replace(chain, block_interval_s=hop * rng.uniform(1.5, 2.5))
                blocks = rng.randint(2_000, 3_000)
            elif family == "relays":
                hop = propagation_delay(1, chain, net)
                chain = replace(chain, block_interval_s=hop * rng.uniform(1.0, 4.0))
                blocks = rng.randint(200, 600)
            elif family == "runs":
                hop = propagation_delay(1, chain, net)
                chain = replace(chain, block_interval_s=hop * rng.uniform(3.0, 50.0))
                blocks = rng.randint(1_000, 3_000)
            elif family == "ulp":
                chain = replace(chain, block_interval_s=10 ** rng.uniform(13, 16))
                # Half an ulp of a mining time somewhere in the run.
                hop = math.ulp(chain.block_interval_s * rng.uniform(0.5, blocks)) / 2 * rng.uniform(0.8, 1.25)
                net = NetworkParams(chain.block_size_bytes / hop, 0.0)
            if family == "tiered":
                miners = tiered_miners(n)
            elif family == "relays":
                miners = relay_miners(n, rng.randint(2, 5))
            else:
                miners = equal_miners(n)
            yield SimConfig(miners=miners, chain=chain, net=net, duration_blocks=blocks,
                            topology_degree=degree, seed=rng.randrange(2**32))

    @pytest.mark.parametrize("family, count", FAMILIES)
    def test_identical_results(self, family, count):
        stale = []
        for cfg in self.grid(family, count):
            result = run_simulation(cfg)
            assert as_records(result) == oracle_simulation(cfg), cfg
            stale.append(result.stale_rate)
        if family == "forky":
            assert min(stale) > 0.5
        if family == "tiered":
            assert min(stale) > 0.3
        if family == "runs":
            assert min(stale) > 0

    @pytest.mark.parametrize("family, count", FAMILIES)
    def test_matches_the_inbox_engine(self, family, count):
        for cfg in self.grid(family, count):
            result = run_simulation(cfg)
            assert (list(result.blocks.parent_ids), list(result.blocks.heights)) == oracle_inbox_engine(cfg), cfg

    @pytest.mark.parametrize("family, count", FAMILIES)
    def test_smallest_window_matches_the_inbox_engine(self, family, count, monkeypatch):
        # The hop sums are rebuilt whenever a block past them is looked up.
        monkeypatch.setattr(simnet, "_WINDOW_SUMS", 1)
        for cfg in self.grid(family, count):
            result = run_simulation(cfg)
            assert (list(result.blocks.parent_ids), list(result.blocks.heights)) == oracle_inbox_engine(cfg), cfg

    def test_relays_are_farther_than_winners(self):
        # The relays family exercises what it is for: in most configs some
        # miner's farthest node is farther than its farthest fellow miner.
        differ = 0
        for cfg in self.grid("relays", 30):
            adj = random_regular_graph(len(cfg.miners.ids), cfg.topology_degree, np.random.default_rng(cfg.seed)).tolist()
            hashing = [i for i, share in enumerate(cfg.miners.weights) if share > 0]
            rows = [oracle_hop_distances(adj, m) for m in hashing]
            differ += any(max(row) > max(row[m] for m in hashing) for row in rows)
        assert differ >= 20

    @pytest.mark.parametrize("window", [simnet._WINDOW_SUMS, 1])
    def test_tie_at_the_top_before_a_run(self, window, monkeypatch):
        # Blocks 33 (miner a) and 34 (miner b) are mined 0.24 s apart, under
        # the 1 s hop, so both sit at the top height. Block 35, b's, has
        # received every earlier block; the tie rule gives it b's own block,
        # which reached b first, not the lower id. Block 35 is then a lone
        # top, and block 36, also full, extends it in a run.
        monkeypatch.setattr(simnet, "_WINDOW_SUMS", window)
        cfg = SimConfig(miners=distribution((("a", 0.5), ("b", 0.5))), chain=ChainParams(1_000_000, 500.0, 5.0, 6),
                        net=NetworkParams(1e6, 0.0), duration_blocks=40, topology_degree=1, seed=1)
        result = run_simulation(cfg)
        blocks = result.blocks
        assert blocks.heights[33] == blocks.heights[34] == max(blocks.heights[:35]) == 33
        assert blocks.miner_index[33:37] == (0, 1, 1, 1)
        assert blocks.mined_at_s[34] + 1.0 <= blocks.mined_at_s[35] and blocks.mined_at_s[35] + 1.0 <= blocks.mined_at_s[36]
        assert blocks.parent_ids[35:37] == (34, 35)
        assert as_records(result) == oracle_simulation(cfg)
        assert (list(blocks.parent_ids), list(blocks.heights)) == oracle_inbox_engine(cfg)

    def test_hop_longer_than_the_run(self):
        # Nothing is ever delivered: every miner extends only its own blocks.
        cfg = SimConfig(miners=equal_miners(20), chain=ChainParams(8_000_000, 500.0, 0.01, 6),
                        net=NetworkParams(1e5, 0.1), duration_blocks=3000, topology_degree=4, seed=1)
        result = run_simulation(cfg)
        assert as_records(result) == oracle_simulation(cfg)
        assert result.stale_rate > 0.9

    def test_identical_export_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        export_report(config(n=12, blocks=300, degree=4, seed=21), str(path), "json")
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        assert cli.main(["simulate", str(path), "--out", str(new)]) == cli.EXIT_OK
        monkeypatch.setattr(cli, "run_simulation", oracle_simulation)
        assert cli.main(["simulate", str(path), "--out", str(old)]) == cli.EXIT_OK
        assert new.read_bytes() == old.read_bytes()
