import dataclasses
import pickle
import random

import numpy as np
import pytest

from chainmeter import (
    CentralizationLevel,
    ConsensusKind,
    InputError,
    ProducerDistribution,
    central_trust,
    centralization_level,
    cumulative_share_curve,
    merge_producers,
)
from chainmeter.metrics import TRUST_EPSILON
from chainmeter.presets import bitcoin_miner_distribution, ethereum_miner_distribution

from helpers import COVERAGE_TOL, oracle_descending_shares, oracle_level, random_distribution


def dist(*weights):
    return ProducerDistribution(tuple((f"p{i}", w) for i, w in enumerate(weights)))


class TestDistribution:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            ProducerDistribution(())

    def test_rejects_zero_total(self):
        with pytest.raises(InputError):
            dist(0.0, 0.0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InputError):
            ProducerDistribution((("a", 1.0), ("a", 2.0)))

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(InputError):
            dist(1.0, -0.5)
        with pytest.raises(InputError):
            dist(1.0, float("inf"))

    @pytest.mark.parametrize("weight", ["x", None])
    def test_weight_that_is_not_a_number_names_its_entry(self, weight):
        with pytest.raises(InputError, match=f"^weight of 'b' must be a number, got {weight!r}$") as info:
            ProducerDistribution((("a", 1.0), ("b", weight), ("c", "y")))
        assert info.value.index == 1

    def test_numeric_string_weight_is_accepted(self):
        assert ProducerDistribution((("a", "1.5"), ("b", 1))).entries == (("a", 1.5), ("b", 1.0))

    def test_sorted_entries_breaks_ties_by_id(self):
        d = ProducerDistribution((("b", 2.0), ("a", 2.0), ("c", 5.0)))
        assert d.sorted_entries() == [("c", 5.0), ("a", 2.0), ("b", 2.0)]


class TestCentralizationLevel:
    def test_single_producer_is_fully_centralized(self):
        level = centralization_level(dist(100.0), 0.0)
        assert level == CentralizationLevel(n=1, epsilon=0.0, covered_share=1.0)

    def test_uniform_hundred_producers(self):
        d = ProducerDistribution(tuple((f"p{i:03d}", 1.0) for i in range(100)))
        assert centralization_level(d, 0.1).n == 90

    def test_bitcoin_shaped_fixture(self):
        # 16 producers hold 90% of weight, 200 share the rest.
        d = bitcoin_miner_distribution()
        level = centralization_level(d, 0.1)
        assert level.n == oracle_level([w for _, w in d.entries], 0.1) == 16
        assert level.covered_share == pytest.approx(0.9, abs=1e-12)

    def test_top_four_share_exactly_53_percent(self):
        d = bitcoin_miner_distribution()
        level = centralization_level(d, 0.47)
        assert level.n == oracle_level([w for _, w in d.entries], 0.47) == 4
        assert level.covered_share == pytest.approx(0.53, abs=1e-12)

    def test_epsilon_out_of_range(self):
        d = dist(1.0, 2.0)
        for bad in (-0.01, 1.0, 1.5):
            with pytest.raises(InputError):
                centralization_level(d, bad)


class TestCentralTrust:
    def test_single_is_one_regardless(self):
        d = dist(5.0, 5.0, 5.0)
        level = central_trust(d, ConsensusKind.SINGLE)
        assert level.n == 1
        assert level.covered_share == pytest.approx(1 / 3)

    def test_nakamoto_with_dominant_top_three(self):
        weights = [0.25, 0.20, 0.16] + [0.39 / 47] * 47  # top 3 hold 61%
        d = dist(*weights)
        assert central_trust(d, ConsensusKind.NAKAMOTO).n <= 3

    def test_pbft_uniform_three(self):
        # 2/3 coverage needed and each producer holds exactly 1/3.
        assert central_trust(dist(1.0, 1.0, 1.0), ConsensusKind.PBFT).n == 2


class TestCumulativeShareCurve:
    def test_two_point_distribution(self):
        d = ProducerDistribution((("A", 3.0), ("B", 1.0)))
        assert cumulative_share_curve(d) == [(1, 0.75), (2, 1.0)]

    def test_uniform_curve_is_linear(self):
        n = 8
        d = ProducerDistribution(tuple((f"p{i}", 2.0) for i in range(n)))
        for rank, share in cumulative_share_curve(d):
            assert share == pytest.approx(rank / n, abs=1e-12)

    def test_last_point_is_one(self):
        rng = random.Random(11)
        for _ in range(50):
            d = ProducerDistribution(tuple(random_distribution(rng)))
            curve = cumulative_share_curve(d)
            assert abs(curve[-1][1] - 1.0) <= 1e-12

    def test_curve_non_decreasing_and_concave(self):
        rng = random.Random(12)
        for _ in range(100):
            d = ProducerDistribution(tuple(random_distribution(rng)))
            curve = [share for _, share in cumulative_share_curve(d)]
            increments = [b - a for a, b in zip([0.0] + curve, curve)]
            assert all(x >= -1e-12 for x in increments)
            assert all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))


class TestProperties:
    """Light versions of the invariants; the full-width runs live in the
    acceptance suite."""

    def test_oracle_equivalence(self):
        rng = random.Random(13)
        for _ in range(200):
            entries = random_distribution(rng)
            d = ProducerDistribution(tuple(entries))
            eps = rng.uniform(0.0, 0.99)
            assert centralization_level(d, eps).n == oracle_level([w for _, w in entries], eps)

    def test_minimality(self):
        rng = random.Random(14)
        for _ in range(200):
            d = ProducerDistribution(tuple(random_distribution(rng)))
            eps = rng.uniform(0.0, 0.99)
            level = centralization_level(d, eps)
            if level.n > 1:
                top = sorted((w for _, w in d.entries), reverse=True)
                short = sum(top[: level.n - 1]) / sum(top)
                assert short < (1.0 - eps) - 1e-9

    def test_epsilon_monotonicity(self):
        rng = random.Random(15)
        for _ in range(200):
            d = ProducerDistribution(tuple(random_distribution(rng)))
            e1, e2 = sorted((rng.uniform(0, 0.99), rng.uniform(0, 0.99)))
            assert centralization_level(d, e1).n >= centralization_level(d, e2).n

    def test_scale_invariance(self):
        rng = random.Random(16)
        for _ in range(100):
            entries = random_distribution(rng)
            scale = rng.choice([0.001, 3.0, 1e6])
            d1 = ProducerDistribution(tuple(entries))
            d2 = ProducerDistribution(tuple((pid, w * scale) for pid, w in entries))
            for eps in (0.0, 0.1, 0.33, 0.49, 0.9):
                assert centralization_level(d1, eps).n == centralization_level(d2, eps).n

    def test_merge_dominance(self):
        rng = random.Random(17)
        for _ in range(100):
            entries = random_distribution(rng)
            if len(entries) < 2:
                continue
            d = ProducerDistribution(tuple(entries))
            a, b = rng.sample([pid for pid, _ in entries], 2)
            merged = merge_producers(d, [a, b], "merged")
            for eps in (0.0, 0.1, 0.49):
                assert centralization_level(merged, eps).n <= centralization_level(d, eps).n


class TestMergeProducers:
    def test_merges_weights(self):
        d = ProducerDistribution((("a", 1.0), ("b", 2.0), ("c", 3.0)))
        merged = merge_producers(d, ["a", "c"], "ac")
        assert dict(merged.entries) == {"b": 2.0, "ac": 4.0}

    def test_unknown_id_rejected(self):
        with pytest.raises(InputError):
            merge_producers(dist(1.0, 2.0), ["nope"], "m")

    def test_ethereum_shaped_fixture(self):
        d = ethereum_miner_distribution()
        assert centralization_level(d, 0.1).n == 11
        assert centralization_level(d, 0.39).n == 3


class TestSortOnce:
    """Each distribution sorts its weights once, with numpy, and every result
    keeps the bits and types of the former per-call sort by (-weight, id)."""

    EPSILONS = (0.0, 0.01, 0.1, 1 / 3, 0.49, 0.9, 0.999)
    CASES = {
        "ties": (("b", 2.0), ("a", 2.0), ("c", 5.0), ("d", 2.0)),
        "zeros": (("a", 0.0), ("b", 3.0), ("c", 0.0), ("d", 1.0)),
        "negative_zeros": (("a", -0.0), ("b", 0.0), ("c", 1.5), ("d", -0.0), ("e", 1.5), ("f", 0.1)),
        "single": (("solo", 7.0),),
        "pareto_200k": lambda: tuple(
            (f"p{i:06d}", w) for i, w in
            enumerate(np.floor(100 * np.random.default_rng(0).pareto(1.16, 200_000)).tolist())
        ),
    }

    @staticmethod
    def results(d):
        levels = [centralization_level(d, eps) for eps in TestSortOnce.EPSILONS]
        trust = [central_trust(d, kind) for kind in ConsensusKind]
        return levels, trust, cumulative_share_curve(d)

    @staticmethod
    def former_results(d):
        """What the former code returned: the same formulas, on the shares of
        the former sort by (-weight, id)."""
        shares = oracle_descending_shares(d)

        def level(eps):
            n = min(int(np.searchsorted(shares, (1.0 - eps) - COVERAGE_TOL, side="left")) + 1, len(shares))
            return CentralizationLevel(n=n, epsilon=float(eps), covered_share=float(shares[n - 1]))

        top = d.sorted_entries()[0][1]
        trust = [level(TRUST_EPSILON[kind]) if kind in TRUST_EPSILON
                 else CentralizationLevel(n=1, epsilon=0.0, covered_share=top / d.total_weight())
                 for kind in ConsensusKind]
        return [level(eps) for eps in TestSortOnce.EPSILONS], trust, [(k + 1, float(f)) for k, f in enumerate(shares)]

    def assert_as_before(self, entries):
        d = ProducerDistribution(entries)
        assert d._cumulative_shares.tobytes() == oracle_descending_shares(d).tobytes()
        # pickle writes each value's type and every float's 8 bytes.
        assert pickle.dumps(self.results(d)) == pickle.dumps(self.former_results(d))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_and_types_as_before(self, case):
        entries = self.CASES[case]
        self.assert_as_before(entries() if callable(entries) else entries)

    def test_random_distributions_as_before(self):
        rng = random.Random(18)
        for _ in range(200):
            self.assert_as_before(tuple(random_distribution(rng)))

    def test_sorts_once_per_distribution(self, monkeypatch):
        sorted_lengths = []
        sort = np.sort

        def counting_sort(a, *args, **kwargs):
            sorted_lengths.append(len(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        d = bitcoin_miner_distribution()
        for _ in range(2):
            self.results(d)
        assert sorted_lengths == [len(d.entries)]
        self.results(dist(1.0, 2.0))
        assert sorted_lengths == [len(d.entries), 2]

    def test_cache_leaves_equality_hash_pickle_and_replace_alone(self):
        fresh, used = dist(3.0, 1.0, 2.0), dist(3.0, 1.0, 2.0)
        cumulative_share_curve(used)
        assert not used._cumulative_shares.flags.writeable
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used and cumulative_share_curve(restored) == cumulative_share_curve(used)
        assert dataclasses.replace(used) == fresh
        other = dataclasses.replace(used, entries=(("p0", 1.0), ("p1", 1.0)))
        assert cumulative_share_curve(other) == [(1, 0.5), (2, 1.0)]
