"""Tests for deterministic strategies, enumeration, and reference-bit correlators."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from racsim import classical
from racsim.bell import sign_matrix, success_from_bell


def first_bit_strategy(n):
    """Send the first bit; Bob repeats the received bit for every query."""
    encode = tuple(bits[0] for bits in classical.bit_strings(n))
    return classical.DeterministicStrategy(n=n, encode=encode, decode=((0, 1),) * n)


def majority_strategy(n, invert_encode=False, invert_decode=False):
    """Majority encoding (ties round up) with identity decoding, optionally inverted."""
    encode = tuple(int(2 * sum(bits) >= n) ^ invert_encode for bits in classical.bit_strings(n))
    decoder = (1, 0) if invert_decode else (0, 1)
    return classical.DeterministicStrategy(n=n, encode=encode, decode=(decoder,) * n)


def constant_strategy(n, message=0, output=0):
    """Alice always sends ``message``; Bob always answers ``output``."""
    return classical.DeterministicStrategy(
        n=n, encode=(message,) * (1 << n), decode=((output, output),) * n
    )


def cell_hits(strategy):
    """Success indicator per (string, queried bit) cell, from the strategy's own tables."""
    return {
        (bits, k): int(strategy.output(k, strategy.message(bits)) == bits[k])
        for bits in classical.bit_strings(strategy.n)
        for k in range(strategy.n)
    }


def exact_average(strategy):
    hits = cell_hits(strategy)
    return Fraction(sum(hits.values()), len(hits))


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
        assert classical.brute_success(first_bit_strategy(2)) == 0.75

    def test_anti_majority_repeat(self):
        assert classical.brute_success(majority_strategy(2, invert_encode=True)) == 0.25

    def test_majority_conjugate_decode(self):
        assert classical.brute_success(majority_strategy(2, invert_decode=True)) == 0.25

    def test_majority_three_bits(self):
        strategy = majority_strategy(3)
        assert classical.brute_success(strategy) == 0.75
        hits = cell_hits(strategy)
        assert len(hits) == 24
        assert sum(hits.values()) / len(hits) == 0.75

    def test_per_cell_detail_majority_two_bits(self):
        hits = cell_hits(majority_strategy(2))
        # both bits recovered for 00 and 11, exactly one for 01 and 10
        assert hits[((0, 0), 0)] == 1
        assert hits[((0, 0), 1)] == 1
        assert hits[((0, 1), 0)] + hits[((0, 1), 1)] == 1
        assert classical.brute_success(majority_strategy(2)) == sum(hits.values()) / 8


class TestMixedSuccess:
    """Strategies drawn with shared randomness, independently of the input, succeed
    with the weighted mean of their averages."""

    def test_pure_majority(self):
        # a mixture with one component is that strategy
        assert classical.brute_success(majority_strategy(2)) == 0.75

    def test_even_mixture_of_extremes(self):
        averages = [
            classical.brute_success(majority_strategy(2)),
            classical.brute_success(majority_strategy(2, invert_encode=True)),
        ]
        assert 0.5 * averages[0] + 0.5 * averages[1] == 0.5

    def test_uniform_mixture_over_all_strategies(self):
        averages = [average for _, average in classical.enumerate_deterministic(2)]
        assert sum(averages) / len(averages) == pytest.approx(0.5, abs=1e-12)


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
        with pytest.raises(ValueError, match="16777216 strategies"):
            list(classical.enumerate_deterministic(4))
        with pytest.raises(ValueError, match="strategies"):
            list(classical.enumerate_deterministic(5))
        with pytest.raises(ValueError, match="16 strategies"):
            classical.enumeration_summary(1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_summary_matches_strategy_scan(self, n):
        # oracle: brute_success one strategy at a time
        averages = [average for _, average in classical.enumerate_deterministic(n)]
        summary = classical.enumeration_summary(n)
        assert summary.count == len(averages)
        assert summary.max_average == max(averages)
        assert summary.min_average == min(averages)

    def test_four_bit_optimum_by_exhaustion(self):
        tracemalloc.start()
        try:
            summary = classical.enumeration_summary(4)
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
                classical.enumeration_summary(5)
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
        table = classical.reference_correlators(first_bit_strategy(2))
        np.testing.assert_array_equal(table, np.ones((2, 2)))

    def test_majority_three_bit_rows(self):
        table = classical.reference_correlators(majority_strategy(3))
        np.testing.assert_array_equal(table[:3], np.ones((3, 3)))
        np.testing.assert_array_equal(table[3], -np.ones(3))

    def test_constant_encoder_all_zero(self):
        table = classical.reference_correlators(constant_strategy(2, message=0))
        np.testing.assert_array_equal(table, np.zeros((2, 2)))

    def test_success_identity_exact_all_two_bit_strategies(self):
        for strategy, average in classical.enumerate_deterministic(2):
            lhs = exact_average(strategy)
            assert float(lhs) == average
            assert lhs == Fraction(1, 2) * (1 + exact_expression_value(strategy) / 4)

    def test_success_identity_exact_all_three_bit_strategies(self):
        for strategy, average in classical.enumerate_deterministic(3):
            lhs = exact_average(strategy)
            assert float(lhs) == average
            assert lhs == Fraction(1, 2) * (1 + exact_expression_value(strategy) / 12)

    def test_success_from_correlators_matches_brute(self):
        for strategy in (
            first_bit_strategy(3),
            majority_strategy(3, invert_decode=True),
            constant_strategy(3, message=1, output=1),
        ):
            value = float(np.sum(sign_matrix(3) * classical.reference_correlators(strategy)))
            assert success_from_bell(3, value) == pytest.approx(
                classical.brute_success(strategy), abs=1e-12
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
