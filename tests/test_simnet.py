import math
import random
from dataclasses import replace

import numpy as np
import pytest

from chainmeter import cli
from chainmeter import (
    ChainParams,
    InputError,
    NetworkParams,
    SimConfig,
    TopologyError,
    ValidationError,
    block_capacity,
    bound_violation_check,
    centralization_level,
    export_report,
    max_throughput,
    produced_distribution,
    propagation_delay,
    propagation_limited_throughput,
    run_simulation,
    throughput_upper_bound,
)
from chainmeter.simnet import random_regular_graph

from helpers import oracle_simulation

CHAIN = ChainParams(block_size_bytes=1_048_576, tx_size_bytes=513.86, block_interval_s=600.0, confirmations=6)
NET = NetworkParams(bandwidth_bytes_per_s=712_500.0, latency_s=0.1)


def equal_miners(n):
    return tuple((f"m{i:02d}", 1.0 / n) for i in range(n))


def config(n=5, blocks=200, degree=4, seed=3, chain=CHAIN, net=NET):
    return SimConfig(miners=equal_miners(n), chain=chain, net=net,
                     duration_blocks=blocks, topology_degree=degree, seed=seed)


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
        assert all(len(peers) == 8 for peers in adj)
        assert all(node not in peers for node, peers in enumerate(adj))

    def test_single_node(self):
        assert random_regular_graph(1, 0, np.random.default_rng(0)) == ((),)

    def test_two_nodes_degree_one(self):
        assert random_regular_graph(2, 1, np.random.default_rng(0)) == ((1,), (0,))

    def test_impossible_connectivity_raises(self):
        # degree-1 over 4 nodes is always two disjoint edges
        with pytest.raises(TopologyError):
            random_regular_graph(4, 1, np.random.default_rng(0))

    def test_seed_determines_graph(self):
        a = random_regular_graph(16, 4, np.random.default_rng(9))
        b = random_regular_graph(16, 4, np.random.default_rng(9))
        assert a == b


class TestConfigValidation:
    def test_shares_must_sum_to_one(self):
        cfg = SimConfig(miners=(("a", 0.5), ("b", 0.4)), chain=CHAIN, net=NET,
                        duration_blocks=10, topology_degree=1)
        with pytest.raises(ValidationError):
            run_simulation(cfg)

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

    def test_duplicate_miner_ids(self):
        cfg = SimConfig(miners=(("a", 0.5), ("a", 0.5)), chain=CHAIN, net=NET,
                        duration_blocks=10, topology_degree=1)
        with pytest.raises(ValidationError):
            run_simulation(cfg)

    def test_error_lists_every_violation(self):
        cfg = SimConfig(miners=(("a", 0.5), ("b", 0.4)), chain=CHAIN, net=NET,
                        duration_blocks=0, topology_degree=5, seed=-1)
        with pytest.raises(ValidationError) as err:
            run_simulation(cfg)
        message = str(err.value)
        for field in ("miners", "topology_degree", "duration_blocks", "seed"):
            assert field in message


class TestSingleMiner:
    def test_no_competition(self):
        cfg = SimConfig(miners=(("solo", 1.0),), chain=CHAIN, net=NET,
                        duration_blocks=100, topology_degree=0, seed=2)
        result = run_simulation(cfg)
        assert result.stale_rate == 0.0
        assert result.observed_tps == block_capacity(CHAIN) / CHAIN.block_interval_s
        assert len(result.canonical_chain) == 101

    def test_production_all_attributed(self):
        cfg = SimConfig(miners=(("solo", 1.0),), chain=CHAIN, net=NET,
                        duration_blocks=64, topology_degree=0, seed=2)
        result = run_simulation(cfg)
        assert dict(result.per_miner_canonical.entries) == {"solo": 64.0}


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
        by_id = {r.block_id: r for r in result.blocks}
        chain = result.canonical_chain
        assert chain[0] == 0
        for prev, cur in zip(chain, chain[1:]):
            record = by_id[cur]
            assert record.parent_id == prev
            assert record.height == by_id[prev].height + 1
            assert record.mined_at_s > by_id[prev].mined_at_s

    def test_every_block_has_valid_parent(self):
        result = run_simulation(config(blocks=300, seed=6))
        by_id = {r.block_id: r for r in result.blocks}
        for record in result.blocks:
            if record.block_id == 0:
                assert record.parent_id is None and record.height == 0
            else:
                parent = by_id[record.parent_id]
                assert parent.height == record.height - 1
                assert record.mined_at_s > parent.mined_at_s

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
            miners=tuple((f"m{i}", s) for i, s in enumerate(shares)),
            chain=CHAIN, net=NetworkParams(1e8, 0.001),
            duration_blocks=5000, topology_degree=2, seed=4,
        )
        result = run_simulation(cfg)
        total = result.per_miner_canonical.total_weight()
        for (_, count), share in zip(result.per_miner_canonical.entries, shares):
            sigma = math.sqrt(share * (1 - share) / total)
            assert abs(count / total - share) <= 3 * sigma

    def test_zero_share_miner_mines_nothing(self):
        shares = [0.0, 0.5, 0.0, 0.5, 0.0]
        cfg = SimConfig(
            miners=tuple((f"m{i}", s) for i, s in enumerate(shares)),
            chain=CHAIN, net=NET, duration_blocks=2000, topology_degree=2, seed=6,
        )
        mined = dict(produced_distribution(run_simulation(cfg), False).entries)
        assert mined["m0"] == mined["m2"] == mined["m4"] == 0.0
        assert mined["m1"] + mined["m3"] == 2000.0


class TestProducedDistribution:
    def test_single_miner_counts_duration(self):
        cfg = SimConfig(miners=(("solo", 1.0),), chain=CHAIN, net=NET,
                        duration_blocks=40, topology_degree=0, seed=1)
        result = run_simulation(cfg)
        assert dict(produced_distribution(result, True).entries) == {"solo": 40.0}
        assert dict(produced_distribution(result, False).entries) == {"solo": 40.0}

    def test_all_blocks_dominate_canonical(self):
        result = run_simulation(config(n=10, blocks=1000, degree=4, seed=9))
        canonical = dict(produced_distribution(result, True).entries)
        everything = dict(produced_distribution(result, False).entries)
        assert set(canonical) == set(everything)
        assert all(everything[m] >= canonical[m] for m in canonical)
        assert sum(everything.values()) == 1000.0

    def test_skewed_run_recovers_configured_level(self):
        # top 4 hold 53% of hash power; the 0.47 level should come out 4 +- 1
        shares = [0.53 / 4] * 4 + [0.47 / 8] * 8
        cfg = SimConfig(
            miners=tuple((f"m{i:02d}", s) for i, s in enumerate(shares)),
            chain=CHAIN, net=NetworkParams(1e8, 0.001),
            duration_blocks=8000, topology_degree=4, seed=10,
        )
        result = run_simulation(cfg)
        dist = produced_distribution(result, True)
        level = centralization_level(dist, 0.47)
        assert abs(level.n - 4) <= 1


class TestAgainstOracle:
    """The hop-distance engine against the per-hop event heap it replaced.

    Both engines deliver a block to a node after the same float sum of hop
    delays, so every ``SimResult`` must match exactly. The one rule that
    differs: distinct blocks reaching one node at the same float time are
    taken in heap push order by the oracle and by lower block id by the
    engine. With continuous mining times that tie has probability zero.
    """

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
            else:
                n = rng.randint(3, 30)
                degree = rng.choice([d for d in range(2, min(n, 9)) if n * d % 2 == 0])
            chain = ChainParams(rng.choice([10**5, 10**6, 4 * 10**6]), 500.0,
                                rng.choice([2.0, 10.0, 60.0, 600.0]), 6)
            net = NetworkParams(rng.choice([1e5, 1e6, 1e7]), rng.choice([0.0, 0.05, 0.5]))
            if family == "forky":
                hop = propagation_delay(1, chain, net)
                chain = replace(chain, block_interval_s=hop * rng.uniform(0.02, 0.2))
            yield SimConfig(miners=equal_miners(n), chain=chain, net=net,
                            duration_blocks=rng.randint(50 if family == "forky" else 1, 200),
                            topology_degree=degree,
                            seed=rng.randrange(2**32))

    @pytest.mark.parametrize("family, count", [
        ("single", 10), ("pair", 40), ("ring", 40), ("dense", 40), ("mixed", 140), ("forky", 40),
    ])
    def test_identical_results(self, family, count):
        stale = []
        for cfg in self.grid(family, count):
            result = run_simulation(cfg)
            assert result == oracle_simulation(cfg), cfg
            stale.append(result.stale_rate)
        if family == "forky":
            assert min(stale) > 0.5

    def test_hop_longer_than_the_run(self):
        # Nothing is ever delivered: every miner extends only its own blocks.
        cfg = SimConfig(miners=equal_miners(20), chain=ChainParams(8_000_000, 500.0, 0.01, 6),
                        net=NetworkParams(1e5, 0.1), duration_blocks=3000, topology_degree=4, seed=1)
        result = run_simulation(cfg)
        assert result == oracle_simulation(cfg)
        assert result.stale_rate > 0.9

    def test_identical_export_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        export_report(config(n=12, blocks=300, degree=4, seed=21), str(path), "json")
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        assert cli.main(["simulate", str(path), "--out", str(new)]) == cli.EXIT_OK
        monkeypatch.setattr(cli, "run_simulation", oracle_simulation)
        assert cli.main(["simulate", str(path), "--out", str(old)]) == cli.EXIT_OK
        assert new.read_bytes() == old.read_bytes()
