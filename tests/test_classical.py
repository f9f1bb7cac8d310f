"""Tests for deterministic strategies, enumeration, and reference-bit correlators.

The oracle is a strategy-by-strategy scan over plain (encode, decode) tables:
``encode[x]`` is the message for string index x and ``decode[k][m]`` Bob's
output for bit k on message m. Every row of the count-array path is checked
against it, and the exact success/expression identity runs on it.
"""

import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from racsim import classical
from racsim.bell import sign_matrix, success_from_bell

DECODERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def first_bit_strategy(n):
    """Send the first bit; Bob repeats the received bit for every query."""
    return tuple(bits[0] for bits in classical.bit_strings(n)), ((0, 1),) * n


def majority_strategy(n, invert_encode=False, invert_decode=False):
    """Majority encoding (ties round up) with identity decoding, optionally inverted."""
    encode = tuple(int(2 * sum(bits) >= n) ^ invert_encode for bits in classical.bit_strings(n))
    decoder = (1, 0) if invert_decode else (0, 1)
    return encode, (decoder,) * n


def constant_strategy(n, message=0, output=0):
    """Alice always sends ``message``; Bob always answers ``output``."""
    return (message,) * (1 << n), ((output, output),) * n


def scan(n):
    """Every (encode, decode) pair, in enumeration order."""
    for encode in product((0, 1), repeat=1 << n):
        for decode in product(DECODERS, repeat=n):
            yield encode, decode


def oracle_id(encode, decode):
    """Encode table bits, then each decoder's two outputs, low bits first."""
    bits = list(encode) + [b for table in decode for b in table]
    return sum(b << shift for shift, b in enumerate(bits))


def class_members(n, index):
    """The two strings of class ``index``: agreement with the first bit, as binary digits."""
    base = tuple([0] + [(index >> (n - 1 - j)) & 1 for j in range(1, n)])
    return base, tuple(1 - b for b in base)


def oracle_correlators(n, encode, decode):
    """Entry (i, k): 0.5 (-1)^(first bit) (-1)^(output for bit k), summed over class i."""
    table = np.zeros((1 << (n - 1), n))
    for i in range(1 << (n - 1)):
        for bits in class_members(n, i):
            message = encode[int("".join(map(str, bits)), 2)]
            for k in range(n):
                table[i, k] += 0.5 * (-1.0 if bits[0] else 1.0) * (-1.0 if decode[k][message] else 1.0)
    return table


def cell_hits(n, encode, decode):
    """Success indicator per (string, queried bit) cell, from the strategy's own tables."""
    return {
        (bits, k): int(decode[k][encode[x]] == bits[k])
        for x, bits in enumerate(classical.bit_strings(n))
        for k in range(n)
    }


def exact_average(n, encode, decode):
    hits = cell_hits(n, encode, decode)
    return Fraction(sum(hits.values()), len(hits))


def exact_expression_value(n, encode, decode):
    """Sign-matrix expression value of a strategy's correlators, in exact arithmetic."""
    table = oracle_correlators(n, encode, decode)
    signs = sign_matrix(n)
    total = Fraction(0)
    for i in range(signs.shape[0]):
        for j in range(signs.shape[1]):
            total += int(signs[i, j]) * Fraction(table[i, j])
    return total


def array_row(n, encode, decode):
    """The count-array row of one strategy: enumeration index E 4^n + D."""
    e = int("".join(map(str, encode)), 2)
    d = int("".join(str(DECODERS.index(tuple(table))) for table in decode), 4)
    return classical.strategy_rows(n)[e * 4**n + d]


class TestBruteSuccess:
    def test_send_first_bit_repeat(self):
        assert classical.brute_success(2, *first_bit_strategy(2)) == 0.75

    def test_anti_majority_repeat(self):
        assert classical.brute_success(2, *majority_strategy(2, invert_encode=True)) == 0.25

    def test_majority_conjugate_decode(self):
        assert classical.brute_success(2, *majority_strategy(2, invert_decode=True)) == 0.25

    def test_majority_three_bits(self):
        strategy = majority_strategy(3)
        assert classical.brute_success(3, *strategy) == 0.75
        hits = cell_hits(3, *strategy)
        assert len(hits) == 24
        assert sum(hits.values()) / len(hits) == 0.75

    def test_per_cell_detail_majority_two_bits(self):
        hits = cell_hits(2, *majority_strategy(2))
        # both bits recovered for 00 and 11, exactly one for 01 and 10
        assert hits[((0, 0), 0)] == 1
        assert hits[((0, 0), 1)] == 1
        assert hits[((0, 1), 0)] + hits[((0, 1), 1)] == 1
        assert classical.brute_success(2, *majority_strategy(2)) == sum(hits.values()) / 8


class TestMixedSuccess:
    """Strategies drawn with shared randomness, independently of the input, succeed
    with the weighted mean of their averages."""

    def test_pure_majority(self):
        # a mixture with one component is that strategy
        assert array_row(2, *majority_strategy(2))[1] == 0.75

    def test_even_mixture_of_extremes(self):
        averages = [
            array_row(2, *majority_strategy(2))[1],
            array_row(2, *majority_strategy(2, invert_encode=True))[1],
        ]
        assert 0.5 * averages[0] + 0.5 * averages[1] == 0.5

    def test_uniform_mixture_over_all_strategies(self):
        averages = [average for _, average, _ in classical.strategy_rows(2)]
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
        ids = [strategy_id for strategy_id, _, _ in classical.strategy_rows(2)]
        assert sorted(ids) == list(range(256))

    def test_rejects_large_n(self):
        with pytest.raises(ValueError, match="16777216 strategies"):
            classical.strategy_rows(4)
        with pytest.raises(ValueError, match="strategies"):
            classical.strategy_rows(5)
        with pytest.raises(ValueError, match="16 strategies"):
            classical.enumeration_summary(1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_summary_matches_strategy_scan(self, n):
        averages = [classical.brute_success(n, *strategy) for strategy in scan(n)]
        summary = classical.enumeration_summary(n)
        assert summary.count == len(averages)
        assert summary.max_average == max(averages)
        assert summary.min_average == min(averages)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_match_strategy_scan(self, n):
        rows = classical.strategy_rows(n)
        assert len(rows) == classical.strategy_count(n)
        for (strategy_id, average, table), (encode, decode) in zip(rows, scan(n)):
            assert strategy_id == oracle_id(encode, decode)
            assert average == classical.brute_success(n, encode, decode)
            assert table == oracle_correlators(n, encode, decode).tolist()

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
        _, _, table = array_row(2, *first_bit_strategy(2))
        np.testing.assert_array_equal(table, np.ones((2, 2)))

    def test_majority_three_bit_rows(self):
        _, _, table = array_row(3, *majority_strategy(3))
        np.testing.assert_array_equal(table[:3], np.ones((3, 3)))
        np.testing.assert_array_equal(table[3], -np.ones(3))

    def test_constant_encoder_all_zero(self):
        _, _, table = array_row(2, *constant_strategy(2, message=0))
        np.testing.assert_array_equal(table, np.zeros((2, 2)))

    def test_success_identity_exact_all_two_bit_strategies(self):
        for strategy in scan(2):
            lhs = exact_average(2, *strategy)
            assert float(lhs) == classical.brute_success(2, *strategy)
            assert lhs == Fraction(1, 2) * (1 + exact_expression_value(2, *strategy) / 4)

    def test_success_identity_exact_all_three_bit_strategies(self):
        for strategy in scan(3):
            lhs = exact_average(3, *strategy)
            assert float(lhs) == classical.brute_success(3, *strategy)
            assert lhs == Fraction(1, 2) * (1 + exact_expression_value(3, *strategy) / 12)

    def test_success_from_correlators_matches_brute(self):
        for strategy in (
            first_bit_strategy(3),
            majority_strategy(3, invert_decode=True),
            constant_strategy(3, message=1, output=1),
        ):
            _, average, table = array_row(3, *strategy)
            value = float(np.sum(sign_matrix(3) * np.array(table)))
            assert success_from_bell(3, value) == pytest.approx(average, abs=1e-12)
            assert average == classical.brute_success(3, *strategy)


class TestClassHelpers:
    def test_two_bit_classes(self):
        # strings 00, 01, 10, 11
        assert classical.string_classes(2).tolist() == [0, 1, 1, 0]

    def test_three_bit_class_members(self):
        classes = classical.string_classes(3)
        assert np.flatnonzero(classes == 0).tolist() == [0b000, 0b111]
        assert np.flatnonzero(classes == 3).tolist() == [0b011, 0b100]

    def test_classes_partition_strings(self):
        for n in (2, 3, 4):
            classes = classical.string_classes(n)
            for x, bits in enumerate(classical.bit_strings(n)):
                # the pattern of agreement with the first bit, read as binary
                assert classes[x] == int("".join(str(b ^ bits[0]) for b in bits[1:]), 2)
                assert class_members(n, classes[x])[bits[0]] == bits
            assert np.bincount(classes).tolist() == [2] * (1 << (n - 1))
