"""Tests for deterministic strategies, enumeration, and reference-bit correlators."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from racsim import classical
from racsim.bell import sign_matrix


def exact_expression_value(strategy):
    """Sign-matrix expression value of a strategy's correlators, in exact arithmetic."""
    table = classical.reference_correlators(strategy)
    signs = sign_matrix(strategy.n)
    total = Fraction(0)
    for i in range(signs.shape[0]):
        for j in range(signs.shape[1]):
            total += int(signs[i, j]) * Fraction(table[i, j])
    return total


class TestBruteSuccess:
    def test_send_first_bit_repeat(self):
        report = classical.brute_success(classical.first_bit_strategy(2))
        assert report.average == 0.75

    def test_anti_majority_repeat(self):
        report = classical.brute_success(classical.majority_strategy(2, invert_encode=True))
        assert report.average == 0.25

    def test_majority_conjugate_decode(self):
        report = classical.brute_success(classical.majority_strategy(2, invert_decode=True))
        assert report.average == 0.25

    def test_majority_three_bits(self):
        report = classical.brute_success(classical.majority_strategy(3))
        assert report.average == 0.75
        assert len(report.per_cell) == 24
        assert all(v in (0.0, 1.0) for v in report.per_cell.values())

    def test_per_cell_detail_majority_two_bits(self):
        report = classical.brute_success(classical.majority_strategy(2))
        # both bits recovered for 00 and 11, exactly one for 01 and 10
        assert report.per_cell[((0, 0), 0)] == 1.0
        assert report.per_cell[((0, 0), 1)] == 1.0
        assert report.per_cell[((0, 1), 0)] + report.per_cell[((0, 1), 1)] == 1.0


class TestMixedSuccess:
    def test_pure_majority(self):
        mix = classical.StrategyMixture(((1.0, classical.majority_strategy(2)),))
        assert classical.mixed_success(mix) == 0.75

    def test_even_mixture_of_extremes(self):
        mix = classical.StrategyMixture(
            (
                (0.5, classical.majority_strategy(2)),
                (0.5, classical.majority_strategy(2, invert_encode=True)),
            )
        )
        assert classical.mixed_success(mix) == 0.5

    def test_uniform_mixture_over_all_strategies(self):
        strategies = [s for s, _ in classical.enumerate_deterministic(2)]
        weight = 1.0 / len(strategies)
        mix = classical.StrategyMixture(tuple((weight, s) for s in strategies))
        assert classical.mixed_success(mix) == pytest.approx(0.5, abs=1e-12)

    def test_mixture_bounded_by_components(self):
        rng = np.random.default_rng(31)
        strategies = [s for s, _ in classical.enumerate_deterministic(2)]
        for _ in range(20):
            picks = rng.choice(len(strategies), size=3, replace=False)
            weights = rng.dirichlet(np.ones(3))
            mix = classical.StrategyMixture(
                tuple((float(w), strategies[i]) for w, i in zip(weights, picks))
            )
            averages = [classical.brute_success(strategies[i]).average for i in picks]
            value = classical.mixed_success(mix)
            assert min(averages) - 1e-12 <= value <= max(averages) + 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            classical.StrategyMixture(((0.7, classical.majority_strategy(2)),))


class TestEnumeration:
    def test_two_bit_summary(self):
        summary = classical.enumeration_summary(2)
        assert summary.count == 256
        assert summary.max_average == 0.75
        assert summary.min_average == 0.25

    def test_three_bit_summary(self):
        summary = classical.enumeration_summary(3)
        assert summary.count == 16384
        assert summary.max_average == 0.75
        assert summary.min_average == 0.25

    def test_count_matches_formula(self):
        assert classical.strategy_count(2) == 2**4 * 4**2 == 256
        assert classical.strategy_count(3) == 2**8 * 4**3 == 16384

    def test_strategies_distinct(self):
        ids = [s.strategy_id for s, _ in classical.enumerate_deterministic(2)]
        assert len(set(ids)) == 256

    def test_rejects_large_n(self):
        with pytest.raises(ValueError, match="strategies"):
            list(classical.enumerate_deterministic(4))
        with pytest.raises(ValueError):
            list(classical.enumerate_deterministic(5, allow_large=True))

    @pytest.mark.parametrize("n", [2, 3])
    def test_summary_matches_strategy_scan(self, n):
        # oracle: brute_success one strategy at a time, first strict extreme in order
        count, best, worst = 0, (-1.0, -1), (2.0, -1)
        for strategy, report in classical.enumerate_deterministic(n):
            count += 1
            average = report.average
            if average > best[0]:
                best = (average, strategy.strategy_id)
            if average < worst[0]:
                worst = (average, strategy.strategy_id)
        summary = classical.enumeration_summary(n)
        assert summary.count == count
        assert (summary.max_average, summary.best_id) == best
        assert (summary.min_average, summary.worst_id) == worst

    def test_four_bit_optimum_by_exhaustion(self):
        tracemalloc.start()
        try:
            summary = classical.enumeration_summary(4, allow_large=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.count == 2**16 * 4**4
        assert summary.max_average == 11 / 16 == classical.optimal_classical_formula(4)
        assert summary.min_average == 5 / 16
        assert peak < 64 * 2**20

    def test_five_bits_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="strategies"):
                classical.enumeration_summary(5, allow_large=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_formula_matches_enumeration_max(self):
        for n in (2, 3):
            assert classical.optimal_classical_formula(n) == classical.enumeration_summary(n).max_average


class TestOptimalFormula:
    @pytest.mark.parametrize("n,expected", [(2, 0.75), (3, 0.75), (4, 0.6875)])
    def test_known_values(self, n, expected):
        assert classical.optimal_classical_formula(n) == expected

    def test_decreases_toward_half(self):
        values = [classical.optimal_classical_formula(n) for n in range(2, 31)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.5


class TestReferenceCorrelators:
    def test_first_bit_strategy_all_ones(self):
        table = classical.reference_correlators(classical.first_bit_strategy(2))
        np.testing.assert_array_equal(table, np.ones((2, 2)))

    def test_majority_three_bit_rows(self):
        table = classical.reference_correlators(classical.majority_strategy(3))
        np.testing.assert_array_equal(table[:3], np.ones((3, 3)))
        np.testing.assert_array_equal(table[3], -np.ones(3))

    def test_constant_encoder_all_zero(self):
        table = classical.reference_correlators(classical.constant_strategy(2, message=0))
        np.testing.assert_array_equal(table, np.zeros((2, 2)))

    def test_success_identity_exact_all_two_bit_strategies(self):
        for strategy, report in classical.enumerate_deterministic(2):
            lhs = report.average_fraction()
            rhs = Fraction(1, 2) * (1 + exact_expression_value(strategy) / 4)
            assert lhs == rhs

    def test_success_identity_exact_all_three_bit_strategies(self):
        for strategy, report in classical.enumerate_deterministic(3):
            lhs = report.average_fraction()
            rhs = Fraction(1, 2) * (1 + exact_expression_value(strategy) / 12)
            assert lhs == rhs

    def test_success_from_correlators_matches_brute(self):
        for strategy in (
            classical.first_bit_strategy(3),
            classical.majority_strategy(3, invert_decode=True),
            classical.constant_strategy(3, message=1, output=1),
        ):
            assert classical.success_from_correlators(strategy) == pytest.approx(
                classical.brute_success(strategy).average, abs=1e-12
            )


class TestClassHelpers:
    def test_two_bit_classes(self):
        assert classical.class_index((0, 0)) == classical.class_index((1, 1)) == 0
        assert classical.class_index((0, 1)) == classical.class_index((1, 0)) == 1

    def test_three_bit_class_members(self):
        assert classical.class_members(3, 0) == ((0, 0, 0), (1, 1, 1))
        assert classical.class_members(3, 3) == ((0, 1, 1), (1, 0, 0))

    def test_classes_partition_strings(self):
        for n in (2, 3, 4):
            seen = {}
            for bits in classical.bit_strings(n):
                seen.setdefault(classical.class_index(bits), []).append(bits)
            assert len(seen) == 2 ** (n - 1)
            assert all(len(members) == 2 for members in seen.values())
