import math
import random
from dataclasses import replace

import numpy as np
import pytest
from helpers import oracle_throughput_sweep

from chainmeter import (
    ChainParams,
    InputError,
    NetworkParams,
    block_capacity,
    max_throughput,
    preset,
    propagation_limited_throughput,
    throughput_sweep,
    throughput_upper_bound,
    tx_latency,
)

BITCOIN = ChainParams(block_size_bytes=1_048_576, tx_size_bytes=513.86, block_interval_s=600.0, confirmations=6)
WAN = NetworkParams(bandwidth_bytes_per_s=712_500.0, latency_s=0.1)  # 5.7 Mbps decimal


class TestParamValidation:
    @pytest.mark.parametrize("value", [6.9, 6.0, math.nan, "6", None, True])
    def test_confirmations_must_be_an_integer(self, value):
        with pytest.raises(InputError, match="^confirmations must be an integer, got "):
            ChainParams(1000, 500.0, 600.0, value)

    @pytest.mark.parametrize("value", [1000.5, 1000.0, math.nan, math.inf, "1000", None, True])
    def test_block_size_must_be_an_integer(self, value):
        with pytest.raises(InputError, match="^block_size_bytes must be an integer, got "):
            ChainParams(value, 500.0, 600.0)

    def test_numpy_integer_block_size_passes(self):
        assert block_capacity(ChainParams(np.int64(1000), 500.0, 600.0)) == 2.0

    def test_chain_rejects_non_positive(self):
        with pytest.raises(InputError):
            ChainParams(0, 500.0, 600.0, 6)
        with pytest.raises(InputError):
            ChainParams(1000, 500.0, -1.0, 6)
        with pytest.raises(InputError):
            ChainParams(1000, 500.0, 600.0, 0)
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                ChainParams(1000, 500.0, bad, 6)
            with pytest.raises(InputError):
                ChainParams(1000, bad, 600.0, 6)

    def test_chain_rejects_block_smaller_than_tx(self):
        with pytest.raises(InputError):
            ChainParams(100, 500.0, 600.0, 6)

    def test_unknown_preset_names_the_known_ones(self):
        with pytest.raises(InputError, match=r"^unknown preset 'nope'; available: \['bitcoin', 'ethereum'\]$"):
            preset("nope")

    def test_net_rejects_bad_values(self):
        with pytest.raises(InputError):
            NetworkParams(0.0, 0.1)
        with pytest.raises(InputError):
            NetworkParams(1e6, -0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                NetworkParams(bad, 0.1)
            with pytest.raises(InputError):
                NetworkParams(1e6, bad)


class TestLatency:
    def test_bitcoin_is_an_hour(self):
        assert tx_latency(BITCOIN) == 3600.0

    def test_fifteen_second_blocks_give_ninety(self):
        assert tx_latency(ChainParams(112_500, 500.0, 15.0, 6)) == 90.0

    def test_identity_scaling(self):
        assert tx_latency(ChainParams(1000, 500.0, 0.001, 1)) == 0.001


class TestBlockCapacity:
    def test_bitcoin_capacity(self):
        # 1_048_576 / 513.86 evaluated directly.
        assert block_capacity(BITCOIN) == pytest.approx(2040.59, abs=0.1)

    def test_block_equal_to_tx(self):
        assert block_capacity(ChainParams(500, 500.0, 1.0, 1)) == 1.0

    def test_exact_division(self):
        assert block_capacity(ChainParams(1000, 250.0, 1.0, 1)) == 4.0


class TestMaxThroughput:
    def test_bitcoin_rate(self):
        assert max_throughput(BITCOIN) == pytest.approx(3.40, abs=0.02)

    def test_degenerate_one_tps(self):
        assert max_throughput(ChainParams(500, 500.0, 1.0, 1)) == 1.0

    def test_linear_in_block_size(self):
        double = ChainParams(2 * BITCOIN.block_size_bytes, 513.86, 600.0, 6)
        assert max_throughput(double) == 2 * max_throughput(BITCOIN)


class TestPropagationLimited:
    def test_zero_latency_hits_ceiling_exactly(self):
        net = NetworkParams(712_500.0, 0.0)
        for b in (2**16, 2**20, 2**23):
            chain = ChainParams(b, 513.86, 600.0, 6)
            assert propagation_limited_throughput(chain, net) == throughput_upper_bound(net, 513.86)

    def test_bitcoin_figures(self):
        # b/(s*(l + b/w)) evaluated directly with the WAN parameters.
        assert propagation_limited_throughput(BITCOIN, WAN) == pytest.approx(1298.34, abs=1.0)

    def test_increasing_in_block_size(self):
        one = propagation_limited_throughput(BITCOIN, WAN)
        two = propagation_limited_throughput(ChainParams(2 * 2**20, 513.86, 600.0, 6), WAN)
        assert two > one

    def test_monotone_over_random_parameters(self):
        rng = random.Random(21)
        for _ in range(200):
            s = rng.uniform(1.0, 2000.0)
            l = rng.uniform(1e-3, 5.0)
            w = rng.uniform(1e4, 1e9)
            b1 = rng.randint(int(s) + 1, 10**7)
            b2 = rng.randint(b1 + 1, 2 * 10**7)
            net = NetworkParams(w, l)
            r1 = propagation_limited_throughput(ChainParams(b1, s, 1.0, 1), net)
            r2 = propagation_limited_throughput(ChainParams(b2, s, 1.0, 1), net)
            assert r2 > r1


class TestUpperBound:
    def test_measured_bitcoin_bandwidth(self):
        assert throughput_upper_bound(WAN, 513.86) == pytest.approx(1386.5, abs=0.5)

    def test_bandwidth_equal_to_tx_size(self):
        assert throughput_upper_bound(NetworkParams(513.86, 0.0), 513.86) == 1.0

    def test_strictly_above_propagation_limited_when_latency_positive(self):
        rng = random.Random(22)
        for _ in range(100):
            s = rng.uniform(1.0, 2000.0)
            net = NetworkParams(rng.uniform(1e4, 1e8), rng.uniform(1e-3, 2.0))
            b = rng.randint(int(s) + 1, 10**8)
            chain = ChainParams(b, s, 1.0, 1)
            assert propagation_limited_throughput(chain, net) < throughput_upper_bound(net, s)

    def test_rejects_bad_tx_size(self):
        with pytest.raises(InputError):
            throughput_upper_bound(WAN, 0.0)


class TestSweep:
    def test_ascending_sizes_give_increasing_tps(self):
        sizes = [2**16, 2**18, 2**20, 2**22]
        tps = throughput_sweep(BITCOIN, WAN, sizes)
        assert tps == sorted(tps)
        assert all(a < b for a, b in zip(tps, tps[1:]))

    def test_all_values_below_ceiling(self):
        cap = throughput_upper_bound(WAN, BITCOIN.tx_size_bytes)
        for v in throughput_sweep(BITCOIN, WAN, [2**k for k in range(10, 30)]):
            assert v < cap

    def test_singleton_matches_single_point(self):
        rates = throughput_sweep(BITCOIN, WAN, [BITCOIN.block_size_bytes])
        assert rates == [propagation_limited_throughput(BITCOIN, WAN)]

    def test_preserves_input_order(self):
        sizes = [2**20, 2**16, 2**22]
        rates = throughput_sweep(BITCOIN, WAN, sizes)
        assert rates == [throughput_sweep(BITCOIN, WAN, [b])[0] for b in sizes]
        assert rates[1] < rates[0] < rates[2]

    def test_rejects_empty_and_tiny_blocks(self):
        with pytest.raises(InputError):
            throughput_sweep(BITCOIN, WAN, [])
        with pytest.raises(InputError, match="block_size_bytes 4 < tx_size_bytes 513.86"):
            throughput_sweep(BITCOIN, WAN, [2**20, 4])

    def test_fractional_size_is_rejected_not_truncated(self):
        with pytest.raises(InputError, match="^block_size_bytes must be an integer, got 1048576.9$"):
            throughput_sweep(BITCOIN, WAN, [2**20, 1048576.9])

    def test_boolean_size_is_rejected(self):
        # One-byte blocks are valid here, so only the type can refuse True.
        chain = ChainParams(1000, 0.5, 600.0)
        with pytest.raises(InputError, match="^block_size_bytes must be an integer, got True$"):
            throughput_sweep(chain, WAN, [2**20, True])

    @pytest.mark.parametrize("latency", [0.0, -0.0, 0.1, None])
    def test_bit_identical_to_one_chain_per_size(self, latency):
        rng = random.Random(f"sweep/{latency!r}")
        for _ in range(30):
            chain = ChainParams(rng.randrange(10**3, 10**7), rng.uniform(100.0, 900.0), rng.uniform(1.0, 600.0))
            net = NetworkParams(10 ** rng.uniform(3, 9), rng.uniform(0.0, 2.0) if latency is None else latency)
            sizes = [rng.randrange(900, 2**rng.randrange(11, 64)) for _ in range(40)] + [np.int64(2**20), 2**53 + 1]
            rng.shuffle(sizes)
            expected = [propagation_limited_throughput(replace(chain, block_size_bytes=b), net) for b in sizes]
            rates = throughput_sweep(chain, net, sizes)
            assert [(type(v), float.hex(v)) for v in rates] == [(type(v), float.hex(v)) for v in expected]

    @pytest.mark.parametrize("latency", [0.0, -0.0, 1e-300, 0.1])
    def test_bit_identical_to_the_former_formula(self, latency):
        """Sizes past 2**53, 2**63 and 2**64, and numpy ints, convert to the
        float Python's division rounds them to."""
        rng = random.Random(f"sweep/oracle/{latency!r}")
        edges = [2**53 + 1, 2**63 - 1, 2**63 + 5, 2**64 - 1, 2**64 + 1, 2**70, np.int64(2**62 + 3),
                 np.uint64(2**64 - 3), np.int32(7919)]
        for _ in range(40):
            chain = ChainParams(rng.randrange(10**3, 10**7), rng.uniform(1.0, 900.0), rng.uniform(1.0, 600.0))
            net = NetworkParams(10 ** rng.uniform(3, 9), latency)
            sizes = edges + [rng.randrange(1000, 2**rng.randrange(11, 71)) for _ in range(60)]
            rng.shuffle(sizes)
            rates = throughput_sweep(chain, net, sizes)
            expected = oracle_throughput_sweep(chain, net, sizes)
            assert [(type(v), v.hex()) for v in rates] == [(float, float(v).hex()) for _, v in expected]

    def test_bad_sizes_raise_the_first_error_in_input_order(self):
        rng = random.Random("sweep/bad")
        good = [2**20, 514, np.int64(4096), 10**12]
        bad = [0, -5, 4, 513, True, 1048576.9, 2.0, "1024", None, np.float64(1e6), 10**400]
        for _ in range(200):
            sizes = rng.choices(good, k=rng.randint(0, 6)) + rng.sample(bad, rng.randint(1, 3))
            rng.shuffle(sizes)
            with pytest.raises(InputError) as expected:
                for b in sizes:
                    replace(BITCOIN, block_size_bytes=b)
            with pytest.raises(InputError) as got:
                throughput_sweep(BITCOIN, WAN, sizes)
            assert str(got.value) == str(expected.value)

    def test_supremum_gap(self):
        # Gap to w/s below 1% by b = 1e9*s whenever l <= 1 s and w >= 1e5 B/s.
        for s, l, w in [(513.86, 1.0, 1e5), (100.0, 0.5, 1e6), (2000.0, 1.0, 1e7)]:
            net = NetworkParams(w, l)
            b = int(1e9 * s)
            chain = ChainParams(b, s, 1.0, 1)
            cap = throughput_upper_bound(net, s)
            value = propagation_limited_throughput(chain, net)
            assert value < cap
            assert (cap - value) / cap < 0.01


class TestDimensionalConsistency:
    def test_scaling_bytes_leaves_throughputs_unchanged(self):
        rng = random.Random(23)
        for _ in range(50):
            s = rng.uniform(10.0, 2000.0)
            b = rng.randint(int(s) + 1, 10**7)
            net = NetworkParams(rng.uniform(1e4, 1e8), rng.uniform(0.0, 2.0))
            chain = ChainParams(b, s, rng.uniform(1.0, 600.0), 6)
            c = rng.choice([2, 10, 1024])
            scaled_chain = ChainParams(b * c, s * c, chain.block_interval_s, 6)
            scaled_net = NetworkParams(net.bandwidth_bytes_per_s * c, net.latency_s)
            assert max_throughput(scaled_chain) == pytest.approx(max_throughput(chain), rel=1e-12)
            assert propagation_limited_throughput(scaled_chain, scaled_net) == pytest.approx(
                propagation_limited_throughput(chain, net), rel=1e-12
            )
            assert throughput_upper_bound(scaled_net, s * c) == pytest.approx(
                throughput_upper_bound(net, s), rel=1e-12
            )


class TestReport:
    def test_invariants(self):
        propagation = propagation_limited_throughput(BITCOIN, WAN)
        assert propagation <= throughput_upper_bound(WAN, BITCOIN.tx_size_bytes)
        assert tx_latency(BITCOIN) == 3600.0
        # Bitcoin's configured interval respects the floor, so the
        # propagation-limited rate dominates the protocol rate.
        assert propagation >= max_throughput(BITCOIN)
