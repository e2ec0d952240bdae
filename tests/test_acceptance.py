"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``) and
enforcing its runtime budget.

Criterion 6 checks the relay guarantee as ``onchain_tx_count`` states it, on
every payment graph with up to 6 clients. A single relay costs exactly two
on-chain transactions per active client. It costs no more than direct
channels exactly when the graph has at least as many funded pairs as active
clients. Sparse graphs are cheaper kept direct: a lone payment pair costs 4
relayed vs 2 direct. The test pins the census of those sparse graphs at 3,620
of 33,861, so a change to either on-chain count fails it.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import chainmeter as cm
from chainmeter.cli import EXIT_OK, main

from helpers import all_payment_graphs, distribution, merged, oracle_level, random_distribution, run


@contextmanager
def criterion(number, limit_s, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= limit_s
    print(f"[{'PASS' if within else 'FAIL'}] criterion {number:2d}: {description} ({elapsed:.2f}s)")
    assert within, f"criterion {number} exceeded its {limit_s}s budget: {elapsed:.2f}s"


def test_c01_preset_formula_reproduction():
    with criterion(1, 1.0, "bitcoin preset gives L=3600s and R=3.40+-0.02; ethereum gives L=90s"):
        outcome = run(["bound", "--preset", "bitcoin"])
        assert outcome.exit_code == EXIT_OK
        lines = dict(line.split(":", 1) for line in outcome.stdout_report.splitlines())
        assert float(lines["confirmation latency L"].split()[0]) == 3600.0
        assert abs(float(lines["protocol throughput R"].split()[0]) - 3.40) <= 0.02
        outcome = run(["bound", "--preset", "ethereum"])
        assert outcome.exit_code == EXIT_OK
        lines = dict(line.split(":", 1) for line in outcome.stdout_report.splitlines())
        assert float(lines["confirmation latency L"].split()[0]) == 90.0


def test_c02_bandwidth_ceiling():
    with criterion(2, 1.0, "5.7 Mbps / 513.86 B caps throughput at 1386.5+-0.5 tx/s"):
        net = cm.NetworkParams(bandwidth_bytes_per_s=5.7e6 / 8, latency_s=0.1)
        cap = cm.throughput_upper_bound(net, 513.86)
        assert abs(cap - 1386.5) <= 0.5
        outcome = run(["bound", "--preset", "bitcoin"])
        assert f"bandwidth ceiling w/s: {cap!r} tx/s" in outcome.stdout_report


def test_c03_skew_fixtures():
    with criterion(3, 1.0, "measured-skew fixtures score N_0.1=16, N_0.47=4, N_0.1=11, N_0.39=3"):
        btc = cm.bitcoin_miner_distribution()
        assert cm.centralization_level(btc, 0.10).n == 16
        assert cm.centralization_level(btc, 0.47).n == 4
        eth = cm.ethereum_miner_distribution()
        assert cm.centralization_level(eth, 0.10).n == 11
        assert cm.centralization_level(eth, 0.39).n == 3


def test_c04_metrics_property_suite():
    with criterion(4, 30.0, "five centralization invariants over 1200 random distributions"):
        rng = random.Random(10_001)
        epsilons = (0.0, 0.1, 1 / 3, 0.49, 0.9)
        for _ in range(1200):
            entries = random_distribution(rng, max_producers=20)
            dist = distribution(entries)
            weights = [w for _, w in entries]
            eps = rng.uniform(0.0, 0.99)

            level = cm.centralization_level(dist, eps)
            # oracle equivalence
            assert level.n == oracle_level(weights, eps)
            # minimality
            if level.n > 1:
                top = sorted(weights, reverse=True)
                assert sum(top[: level.n - 1]) / sum(top) < (1 - eps) - 1e-9
            # epsilon monotonicity
            e_lo, e_hi = sorted((eps, rng.uniform(0.0, 0.99)))
            assert cm.centralization_level(dist, e_lo).n >= cm.centralization_level(dist, e_hi).n
            # scale invariance
            scale = rng.choice([1e-3, 7.0, 1e6])
            scaled = distribution((p, w * scale) for p, w in entries)
            e_chk = rng.choice(epsilons)
            assert cm.centralization_level(scaled, e_chk).n == cm.centralization_level(dist, e_chk).n
            # merge dominance
            if len(entries) >= 2:
                a, b = rng.sample([p for p, _ in entries], 2)
                pooled = merged(dist, [a, b], "_merged")
                assert cm.centralization_level(pooled, e_chk).n <= cm.centralization_level(dist, e_chk).n


def test_c05_ctp_invariance_exact():
    with criterion(5, 1.0, "sharded CTP equals baseline CTP bit-for-bit on 100 random triples"):
        rng = random.Random(555)
        for _ in range(100):
            t = rng.uniform(1e-3, 1e4)
            n = rng.randint(1, 100_000)
            k = rng.randint(1, n)
            analysis = cm.shard_analysis(t, n, n, k)
            assert analysis.ctp_after == analysis.ctp_before


def test_c06_single_relay_counting_exhaustive():
    with criterion(6, 10.0, "on every graph up to 6 clients: relay = 2*active, <= direct exactly "
                            "when pairs >= active; relay dearer on 3,620 of 33,861"):
        relay, direct = "relay", None
        checked = 0
        formula_failures = 0
        worse_than_direct = set()
        sparse = set()
        for index, graph in enumerate(all_payment_graphs(6)):
            checked += 1
            relay_count = cm.onchain_tx_count(graph, relay)
            active = len(graph.active_clients())
            if relay_count != 2 * active:
                formula_failures += 1
            if relay_count > cm.onchain_tx_count(graph, direct):
                worse_than_direct.add(index)
            # sparseness is read off the graph's structure, not off the counts
            if graph.channel_pair_count() < active:
                sparse.add(index)
        assert formula_failures == 0, f"relay floor formula failed on {formula_failures} graphs"
        # relay <= direct holds exactly on the graphs with pairs >= active
        assert worse_than_direct == sparse, (
            f"relay dearer than direct on {len(worse_than_direct - sparse)} dense graphs; "
            f"not dearer on {len(sparse - worse_than_direct)} sparse graphs"
        )
        assert (len(worse_than_direct), checked) == (3_620, 33_861)

        full4 = next(
            g for g in all_payment_graphs(4)
            if len(g.clients) == 4 and g.channel_pair_count() == 6
        )
        assert cm.onchain_tx_count(full4, direct) == 12
        assert cm.onchain_tx_count(full4, relay) == 8


def test_c07_simulator_reproduces_protocol_rate():
    with criterion(7, 60.0, "20 equal miners, 10k blocks: observed tps within 5% of 3.40, stale < 1%"):
        chain, _ = cm.preset("bitcoin")
        net = cm.NetworkParams(bandwidth_bytes_per_s=712_500.0, latency_s=0.1)
        config = cm.SimConfig(
            miners=distribution((f"m{i:02d}", 0.05) for i in range(20)),
            chain=chain, net=net, duration_blocks=10_000, topology_degree=8, seed=0,
        )
        result = cm.run_simulation(config)
        target = cm.max_throughput(chain)
        assert abs(result.observed_tps - target) / target <= 0.05
        assert result.stale_rate < 0.01


def test_c08_ceiling_and_fork_monotonicity_grid():
    with criterion(8, 600.0, "50-config grid: observed <= w/s everywhere, stale non-increasing in p"):
        latency, bandwidth = 0.1, 712_500.0
        tx_size = 513.86
        miners = distribution((f"m{i:02d}", 1 / 12) for i in range(12))
        block_sizes = [64 * 2**10, 256 * 2**10, 2**20, 2 * 2**20, 8 * 2**20]
        interval_ratios = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]
        seeds = range(10)
        configs = 0
        for block_size in block_sizes:
            floor = latency + block_size / bandwidth
            mean_stales = []
            for ratio in interval_ratios:
                chain = cm.ChainParams(block_size, tx_size, ratio * floor, 6)
                net = cm.NetworkParams(bandwidth, latency)
                configs += 1
                stales = []
                for seed in seeds:
                    result = cm.run_simulation(cm.SimConfig(
                        miners=miners, chain=chain, net=net,
                        duration_blocks=300, topology_degree=4, seed=seed,
                    ))
                    assert not cm.bound_violation_check(result, net, chain).violated
                    stales.append(result.stale_rate)
                mean_stales.append(sum(stales) / len(stales))
            for shorter, longer in zip(mean_stales, mean_stales[1:]):
                assert longer <= shorter  # stale rate never grows as p grows
        assert configs >= 50


def test_c09_proportional_mining_with_skew():
    with criterion(9, 120.0, "40%-miner skew over 20k blocks: shares within 3 sigma, N_eps within 1"):
        shares = [0.4] + [0.6 / 9] * 9
        config = cm.SimConfig(
            miners=distribution((f"m{i}", s) for i, s in enumerate(shares)),
            chain=cm.ChainParams(1_048_576, 513.86, 600.0, 6),
            net=cm.NetworkParams(1e7, 0.01),
            duration_blocks=20_000, topology_degree=4, seed=7,
        )
        result = cm.run_simulation(config)
        dist = result.per_miner_canonical
        total = dist.total_weight()
        for (_, count), share in zip(dist.entries, shares):
            sigma = math.sqrt(share * (1 - share) / total)
            assert abs(count / total - share) <= 3 * sigma
        # the configured skew scores N_0.49 = 3 and N_0.1 = 9 exactly
        assert abs(cm.centralization_level(dist, 0.49).n - 3) <= 1
        assert abs(cm.centralization_level(dist, 0.10).n - 9) <= 1


def test_c10_byte_identical_exports(tmp_path):
    with criterion(10, 60.0, "repeating a simulate run with one seed exports identical bytes"):
        config = {
            "miners": [{"miner_id": f"m{i}", "hash_power_share": 0.2} for i in range(5)],
            "chain": {"block_size_bytes": 1_048_576, "tx_size_bytes": 513.86, "block_interval_s": 600},
            "net": {"bandwidth_bytes_per_s": 712_500, "latency_s": 0.1},
            "duration_blocks": 200,
            "topology_degree": 4,
            "seed": 0,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["simulate", str(config_path), "--out", str(first)]) == EXIT_OK
        assert main(["simulate", str(config_path), "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 0


def test_c11_monotone_sweep_approaches_ceiling():
    with criterion(11, 1.0, "sweep b=10^k*s, k=1..9: strictly increasing, final within 1% of w/s"):
        tx_size = 500.0
        chain = cm.ChainParams(5000, tx_size, 1.0, 1)
        net = cm.NetworkParams(bandwidth_bytes_per_s=1e6, latency_s=1.0)
        sizes = [int(10**k * tx_size) for k in range(1, 10)]
        values = cm.throughput_sweep(chain, net, sizes)
        assert all(a < b for a, b in zip(values, values[1:]))
        cap = cm.throughput_upper_bound(net, tx_size)
        assert values[-1] < cap
        assert (cap - values[-1]) / cap < 0.01
