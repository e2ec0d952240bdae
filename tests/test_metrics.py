import dataclasses
import pickle
import random
import re

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
)
from chainmeter.metrics import TRUST_EPSILON
from chainmeter.presets import bitcoin_miner_distribution, ethereum_miner_distribution

from helpers import COVERAGE_TOL, distribution, merged, oracle_descending_shares, oracle_level, random_distribution


class Tag(str):
    pass


class Count(int):
    pass


def dist(*weights):
    return distribution((f"p{i}", w) for i, w in enumerate(weights))


class TestDistribution:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            distribution(())

    def test_rejects_zero_total(self):
        with pytest.raises(InputError):
            dist(0.0, 0.0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InputError):
            distribution((("a", 1.0), ("a", 2.0)))

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(InputError):
            dist(1.0, -0.5)
        with pytest.raises(InputError):
            dist(1.0, float("inf"))

    @pytest.mark.parametrize("weight", ["x", None])
    def test_weight_that_is_not_a_number_names_its_entry(self, weight):
        with pytest.raises(InputError, match=f"^weight of 'b' must be a number, got {weight!r}$") as info:
            distribution((("a", 1.0), ("b", weight), ("c", "y")))
        assert info.value.index == 1

    def test_numeric_string_weight_is_refused(self):
        with pytest.raises(InputError, match="^weight of 'a' must be a number, got '1.5'$") as info:
            distribution((("a", "1.5"), ("b", 1)))
        assert info.value.index == 0

    def test_exact_columns_are_kept_as_given(self):
        ids, weights = ("a", "b"), (1.0, 2.5)
        d = ProducerDistribution(ids, weights)
        assert d.ids is ids and d.weights is weights
        assert d.entries == (("a", 1.0), ("b", 2.5))

    @pytest.mark.parametrize("entries", [
        [("a", 1.0), ("b", 2.5)],
        (("a", 1), ("b", 2.5)),
        (("a", Count(1)), ("b", 2.5)),
        (("a", np.float64(1.0)), ("b", np.float32(2.5))),
        (("a", np.int64(1)), ("b", 2.5)),
        ((Tag("a"), 1.0), (Tag("b"), 2.5)),
    ], ids=["list", "int", "int_subclass", "numpy_floats", "numpy_int", "str_subclass"])
    def test_other_columns_are_converted_as_before(self, entries):
        # The cells as columns, lists for a list of rows.
        cells = list if isinstance(entries, list) else tuple
        d = ProducerDistribution(cells(pid for pid, _ in entries), cells(w for _, w in entries))
        assert type(d.ids) is type(d.weights) is tuple
        # The former conversion, applied to every entry.
        assert d.entries == tuple((str(pid), float(w)) for pid, w in entries)
        assert [tuple(map(type, row)) for row in d.entries] == [(str, float)] * 2

    @pytest.mark.parametrize("entries, message", [
        ((("a", 1.0), ("b", "x")), "weight of 'b' must be a number, got 'x'"),
        ((("a", 1.0), (Tag("b"), np.float64(-1))), "weight of 'b' must be finite and >= 0, got -1.0"),
        ((("a", 1.0), ("a", 2.0)), "duplicate producer_id 'a'"),
    ], ids=["not_a_number", "negative", "duplicate"])
    def test_tuple_and_list_columns_are_refused_alike(self, entries, message):
        for cells in (tuple, list):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$") as info:
                ProducerDistribution(*map(cells, zip(*entries)))
            assert info.value.index == 1

    @pytest.mark.parametrize("ids, weights", [
        (("a", "b"), (1.0,)), (("a",), (1.0, 2.0)), (("a", "b"), [1, 2, 3]), ((), (1.0,)),
    ], ids=["short_weights", "short_ids", "long_list", "no_ids"])
    def test_columns_of_unequal_length_are_refused(self, ids, weights):
        message = f"^distribution has {len(ids)} producer ids but {len(weights)} weights$"
        with pytest.raises(InputError, match=message) as info:
            ProducerDistribution(ids, weights)
        assert info.value.index is None
        with pytest.raises(InputError, match="^distribution has 2 producer ids but 3 weights$"):
            dataclasses.replace(dist(1.0, 2.0), weights=(1.0, 2.0, 3.0))

    def test_weights_whose_sum_overflows_are_refused(self):
        with pytest.raises(InputError, match="^total weight must be finite, got inf$") as info:
            distribution((("a", 1e308), ("b", 1e308)))
        assert info.value.index is None

    def test_int_weight_past_the_float_range_reads_as_infinite(self):
        with pytest.raises(InputError, match="^weight of 'a' must be finite and >= 0, got inf$") as info:
            distribution((("a", 10**400), ("b", 1.0)))
        assert info.value.index == 0


class TestCentralizationLevel:
    def test_single_producer_is_fully_centralized(self):
        level = centralization_level(dist(100.0), 0.0)
        assert level == CentralizationLevel(n=1, epsilon=0.0, covered_share=1.0)

    def test_uniform_hundred_producers(self):
        d = distribution((f"p{i:03d}", 1.0) for i in range(100))
        assert centralization_level(d, 0.1).n == 90

    def test_bitcoin_shaped_fixture(self):
        # 16 producers hold 90% of weight, 200 share the rest.
        d = bitcoin_miner_distribution()
        level = centralization_level(d, 0.1)
        assert level.n == oracle_level([w for _, w in d.entries], 0.1) == 16
        assert level.covered_share == pytest.approx(0.9, abs=1e-12)

    def test_ethereum_shaped_fixture(self):
        d = ethereum_miner_distribution()
        assert centralization_level(d, 0.1).n == 11
        assert centralization_level(d, 0.39).n == 3

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

    def test_single_covers_the_top_share_the_level_reports(self):
        # 0.1 + 0.2 + 0.3 sums to 0.6000000000000001 in entry order, so the
        # top weight over that total would read 0.4999999999999999.
        d = dist(0.1, 0.2, 0.3)
        assert central_trust(d, ConsensusKind.SINGLE).covered_share == centralization_level(d, 0.5).covered_share == 0.5

    def test_nakamoto_with_dominant_top_three(self):
        weights = [0.25, 0.20, 0.16] + [0.39 / 47] * 47  # top 3 hold 61%
        d = dist(*weights)
        assert central_trust(d, ConsensusKind.NAKAMOTO).n <= 3

    def test_pbft_uniform_three(self):
        # 2/3 coverage needed and each producer holds exactly 1/3.
        assert central_trust(dist(1.0, 1.0, 1.0), ConsensusKind.PBFT).n == 2


class TestCumulativeShareCurve:
    def test_two_point_distribution(self):
        d = distribution((("A", 3.0), ("B", 1.0)))
        assert cumulative_share_curve(d) == [0.75, 1.0]

    def test_uniform_curve_is_linear(self):
        n = 8
        d = distribution((f"p{i}", 2.0) for i in range(n))
        for rank, share in enumerate(cumulative_share_curve(d), start=1):
            assert share == pytest.approx(rank / n, abs=1e-12)

    def test_last_point_is_one(self):
        rng = random.Random(11)
        for _ in range(50):
            d = distribution(random_distribution(rng))
            curve = cumulative_share_curve(d)
            assert abs(curve[-1] - 1.0) <= 1e-12

    def test_curve_non_decreasing_and_concave(self):
        rng = random.Random(12)
        for _ in range(100):
            d = distribution(random_distribution(rng))
            curve = cumulative_share_curve(d)
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
            d = distribution(entries)
            eps = rng.uniform(0.0, 0.99)
            assert centralization_level(d, eps).n == oracle_level([w for _, w in entries], eps)

    def test_minimality(self):
        rng = random.Random(14)
        for _ in range(200):
            d = distribution(random_distribution(rng))
            eps = rng.uniform(0.0, 0.99)
            level = centralization_level(d, eps)
            if level.n > 1:
                top = sorted((w for _, w in d.entries), reverse=True)
                short = sum(top[: level.n - 1]) / sum(top)
                assert short < (1.0 - eps) - 1e-9

    def test_epsilon_monotonicity(self):
        rng = random.Random(15)
        for _ in range(200):
            d = distribution(random_distribution(rng))
            e1, e2 = sorted((rng.uniform(0, 0.99), rng.uniform(0, 0.99)))
            assert centralization_level(d, e1).n >= centralization_level(d, e2).n

    def test_scale_invariance(self):
        rng = random.Random(16)
        for _ in range(100):
            entries = random_distribution(rng)
            scale = rng.choice([0.001, 3.0, 1e6])
            d1 = distribution(entries)
            d2 = distribution((pid, w * scale) for pid, w in entries)
            for eps in (0.0, 0.1, 0.33, 0.49, 0.9):
                assert centralization_level(d1, eps).n == centralization_level(d2, eps).n

    def test_merge_dominance(self):
        rng = random.Random(17)
        for _ in range(100):
            entries = random_distribution(rng)
            if len(entries) < 2:
                continue
            d = distribution(entries)
            a, b = rng.sample([pid for pid, _ in entries], 2)
            pooled = merged(d, [a, b], "merged")
            for eps in (0.0, 0.1, 0.49):
                assert centralization_level(pooled, eps).n <= centralization_level(d, eps).n


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

        trust = [level(TRUST_EPSILON[kind]) if kind in TRUST_EPSILON
                 else CentralizationLevel(n=1, epsilon=0.0, covered_share=float(shares[0]))
                 for kind in ConsensusKind]
        return [level(eps) for eps in TestSortOnce.EPSILONS], trust, [float(f) for f in shares]

    def assert_as_before(self, entries):
        d = distribution(entries)
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
        # A pickle holds the columns only.
        assert vars(restored) == {"ids": ("p0", "p1", "p2"), "weights": (3.0, 1.0, 2.0)}
        assert restored == used and cumulative_share_curve(restored) == cumulative_share_curve(used)
        assert dataclasses.replace(used) == fresh
        other = dataclasses.replace(used, ids=("p0", "p1"), weights=(1.0, 1.0))
        assert cumulative_share_curve(other) == [0.5, 1.0]
