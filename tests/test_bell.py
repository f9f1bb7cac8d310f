"""Tests for sign matrices, expression bounds, and success conversions."""

import math

import numpy as np
import pytest

from racsim import bell


class TestSignMatrix:
    def test_two_bit_layout(self):
        np.testing.assert_array_equal(bell.sign_matrix(2), [[1, 1], [1, -1]])

    def test_three_bit_layout(self):
        np.testing.assert_array_equal(
            bell.sign_matrix(3),
            [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]],
        )

    def test_four_bit_rows_distinct_leading_plus(self):
        signs = bell.sign_matrix(4)
        assert signs.shape == (8, 4)
        assert np.all(signs[:, 0] == 1)
        assert len({tuple(row) for row in signs}) == 8

    def test_matches_the_entrywise_loop(self):
        for n in range(1, 17):
            rows = 1 << (n - 1)
            loop = np.ones((rows, n), dtype=int)
            for i in range(rows):
                for j in range(1, n):
                    if (i >> (n - 1 - j)) & 1:
                        loop[i, j] = -1
            signs = bell.sign_matrix(n)
            assert signs.dtype == loop.dtype
            np.testing.assert_array_equal(signs, loop)


class TestBellValue:
    def test_all_plus_correlators(self):
        table = np.ones((2, 2))
        assert bell.bell_value(table, bell.sign_matrix(2)) == pytest.approx(2.0)

    def test_extremal_box_table(self):
        table = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert bell.bell_value(table, bell.sign_matrix(2)) == pytest.approx(4.0)

    def test_three_bit_quantum_table(self):
        signs = bell.sign_matrix(3)
        table = signs / math.sqrt(3)
        assert bell.bell_value(table, signs) == pytest.approx(4 * math.sqrt(3), abs=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            bell.bell_value(np.ones((2, 3)), bell.sign_matrix(2))

    def test_rejects_missing_entries(self):
        table = np.array([[1.0, np.nan], [1.0, -1.0]])
        with pytest.raises(ValueError):
            bell.bell_value(table, bell.sign_matrix(2))


class TestClassicalBound:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 6), (4, 12)])
    def test_known_values(self, n, expected):
        assert bell.classical_bound(n) == expected

    def test_telescoping_identity_exact_up_to_30(self):
        for n in range(1, 31):
            assert bell.classical_bound(n) == bell.classical_bound_telescoped(n)

    def test_n4_both_forms(self):
        # independent evaluation of the defining sum
        total = (4 - 0) * 1 + (4 - 2) * 4
        assert bell.classical_bound(4) == total == 12


class TestDeterministicMax:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_bound(self, n):
        assert bell.deterministic_max(bell.sign_matrix(n)) == bell.classical_bound(n)

    def test_rejects_oversized_search(self):
        with pytest.raises(ValueError):
            bell.deterministic_max(bell.sign_matrix(6))

    def test_printed_variant_layout_same_bound(self):
        # row-relabeled/sign-flipped three-bit layout: same noncontextual bound
        variant = np.array(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        )
        assert bell.deterministic_max(variant) == 6


class TestQuantumMax:
    def test_known_values(self):
        assert bell.quantum_max(2) == pytest.approx(2.8284271, abs=1e-7)
        assert bell.quantum_max(3) == pytest.approx(6.9282032, abs=1e-7)
        assert bell.quantum_max(4) == pytest.approx(16.0, abs=1e-12)


class TestSuccessFromBell:
    def test_classical_point(self):
        assert bell.success_from_bell(2, 2.0) == pytest.approx(0.75)

    def test_quantum_point(self):
        assert bell.success_from_bell(2, 2 * math.sqrt(2)) == pytest.approx(0.8535534, abs=1e-7)

    def test_four_bit_point(self):
        assert bell.success_from_bell(4, 16.0) == pytest.approx(0.75)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bell.success_from_bell(2, 4.5)

    def test_affine_in_value(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            c1, c2 = rng.uniform(-8, 8, size=2)
            lam = rng.uniform()
            mixed = bell.success_from_bell(3, lam * c1 + (1 - lam) * c2)
            split = lam * bell.success_from_bell(3, c1) + (1 - lam) * bell.success_from_bell(3, c2)
            assert mixed == pytest.approx(split, abs=1e-12)


class TestViolationMargin:
    def test_two_bit_margin(self):
        beta, gain = bell.violation_margin(2, 2 * math.sqrt(2), 2.0)
        assert beta == pytest.approx(0.8284271, abs=1e-7)
        assert gain == pytest.approx(0.1035534, abs=1e-7)

    def test_three_bit_margin(self):
        beta, gain = bell.violation_margin(3, 4 * math.sqrt(3), 6.0)
        assert beta == pytest.approx(0.9282032, abs=1e-7)
        assert gain == pytest.approx(0.0386751, abs=1e-7)

    def test_no_violation(self):
        assert bell.violation_margin(2, 2.0, 2.0) == (0.0, 0.0)

    def test_margin_equals_success_difference(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            cap = n * 2 ** (n - 1)
            c_hi, c_lo = sorted(rng.uniform(-cap, cap, size=2), reverse=True)
            _, gain = bell.violation_margin(n, c_hi, c_lo)
            diff = bell.success_from_bell(n, c_hi) - bell.success_from_bell(n, c_lo)
            assert gain == pytest.approx(diff, abs=1e-12)


class TestRowRelabeling:
    def test_bell_value_invariant_under_row_permutation_and_flip(self):
        rng = np.random.default_rng(23)
        signs = bell.sign_matrix(3)
        for _ in range(50):
            table = rng.uniform(-1, 1, size=signs.shape)
            base = bell.bell_value(table, signs)
            perm = rng.permutation(signs.shape[0])
            flips = rng.choice([1, -1], size=signs.shape[0])
            signs2 = signs[perm] * flips[:, None]
            table2 = table[perm] * flips[:, None]
            assert bell.bell_value(table2, signs2) == pytest.approx(base, abs=1e-12)
            assert bell.deterministic_max(signs2) == bell.deterministic_max(signs)
