"""Unit tests for the small-dimension state algebra."""

import math

import numpy as np
import pytest

from racsim import qcore
from racsim.mzi import maximally_entangled_state

ATOL = 1e-12


def random_unit(rng):
    vec = rng.standard_normal(3)
    return vec / np.linalg.norm(vec)


class TestObservableFromBloch:
    def test_z_axis_is_diagonal(self):
        np.testing.assert_allclose(
            qcore.observable_from_bloch(qcore.Z_AXIS), np.diag([1.0, -1.0]), atol=ATOL
        )

    def test_x_axis_is_antidiagonal(self):
        np.testing.assert_allclose(
            qcore.observable_from_bloch(qcore.X_AXIS), np.array([[0, 1], [1, 0]]), atol=ATOL
        )

    def test_diagonal_direction_eigenvalues(self):
        direction = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        obs = qcore.observable_from_bloch(direction)
        eigenvalues = np.linalg.eigvalsh(obs)
        np.testing.assert_allclose(eigenvalues, [-1.0, 1.0], atol=ATOL)
        assert abs(np.trace(obs)) < ATOL

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            qcore.observable_from_bloch([0.0, 0.0, 0.5])

    def test_rejects_nan_direction(self):
        with pytest.raises(ValueError):
            qcore.require_unit([math.nan, 0.0, 0.0])

    def test_stacked_check_names_the_norm_of_the_first_bad_row(self):
        rng = np.random.default_rng(3)
        for row in rng.standard_normal((200, 3)) * rng.choice([1e-3, 1.0, 1e3], (200, 1)):
            expected = f"direction must have unit norm, got {float(np.linalg.norm(row))}"
            with pytest.raises(ValueError) as stacked:
                qcore.require_unit_rows(np.vstack((qcore.Z_AXIS, row, 2 * qcore.Z_AXIS)))
            assert str(stacked.value) == expected
        qcore.require_unit_rows(np.vstack((qcore.X_AXIS, qcore.Z_AXIS)))

    def test_eigenvalues_pm_one_for_random_directions(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            obs = qcore.observable_from_bloch(random_unit(rng))
            np.testing.assert_allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=ATOL)


class TestProjector:
    def test_z_projectors(self):
        np.testing.assert_allclose(qcore.projector(qcore.Z_AXIS, 0).entries, np.diag([1.0, 0.0]), atol=ATOL)
        np.testing.assert_allclose(qcore.projector(qcore.Z_AXIS, 1).entries, np.diag([0.0, 1.0]), atol=ATOL)

    def test_x_projector_all_halves(self):
        np.testing.assert_allclose(
            qcore.projector(qcore.X_AXIS, 0).entries, np.full((2, 2), 0.5), atol=ATOL
        )

    def test_idempotence_and_completeness_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            direction = random_unit(rng)
            p0 = qcore.projector(direction, 0).entries
            p1 = qcore.projector(direction, 1).entries
            np.testing.assert_allclose(p0 @ p0, p0, atol=ATOL)
            np.testing.assert_allclose(p1 @ p1, p1, atol=ATOL)
            np.testing.assert_allclose(p0 + p1, np.eye(2), atol=ATOL)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            qcore.projector(qcore.Z_AXIS, 2)


class TestTensor:
    def test_identity(self):
        np.testing.assert_allclose(qcore.tensor(np.eye(2), np.eye(2)), np.eye(4), atol=ATOL)

    def test_projector_product(self):
        up = np.diag([1.0, 0.0])
        np.testing.assert_allclose(qcore.tensor(up, up), np.diag([1.0, 0, 0, 0]), atol=ATOL)

    def test_sigma_z_pair(self):
        zz = qcore.tensor(qcore.SIGMA_Z, qcore.SIGMA_Z)
        np.testing.assert_allclose(zz, np.diag([1.0, -1.0, -1.0, 1.0]), atol=ATOL)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qcore.PureState(np.array([1.0, 1.0]))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            qcore.PureState(np.array([1.0, 0.0, 0.0]))

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError):
            qcore.PureState(np.array([1.0, math.nan]))


class TestJointProbability:
    def test_entangled_state_zero_and_half(self):
        state = maximally_entangled_state()
        pz0 = qcore.projector(qcore.Z_AXIS, 0)
        pz1 = qcore.projector(qcore.Z_AXIS, 1)
        assert qcore.joint_probability(state, pz0, pz0) == pytest.approx(0.0, abs=ATOL)
        assert qcore.joint_probability(state, pz0, pz1) == pytest.approx(0.5, abs=ATOL)

    def test_same_direction_outcomes_never_agree(self):
        state = maximally_entangled_state()
        rng = np.random.default_rng(12)
        for _ in range(100):
            direction = random_unit(rng)
            proj = qcore.projector(direction, 0)
            assert qcore.joint_probability(state, proj, proj) == pytest.approx(0.0, abs=ATOL)

    def test_four_outcomes_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amps /= np.linalg.norm(amps)
            state = qcore.PureState(amps)
            d_a, d_b = random_unit(rng), random_unit(rng)
            total = sum(
                qcore.joint_probability(
                    state, qcore.projector(d_a, oa), qcore.projector(d_b, ob)
                )
                for oa in (0, 1)
                for ob in (0, 1)
            )
            assert total == pytest.approx(1.0, abs=ATOL)


class TestExpectationProduct:
    def test_aligned_z_anticorrelated(self):
        state = maximally_entangled_state()
        assert qcore.expectation_product(state, qcore.Z_AXIS, qcore.Z_AXIS) == pytest.approx(-1.0, abs=ATOL)

    def test_orthogonal_axes_vanish(self):
        state = maximally_entangled_state()
        assert qcore.expectation_product(state, qcore.Z_AXIS, qcore.X_AXIS) == pytest.approx(0.0, abs=ATOL)

    def test_anticorrelation_law_random_sweep(self):
        state = maximally_entangled_state()
        rng = np.random.default_rng(14)
        for _ in range(100):
            d_a, d_b = random_unit(rng), random_unit(rng)
            expected = -float(np.dot(d_a, d_b))
            assert qcore.expectation_product(state, d_a, d_b) == pytest.approx(expected, abs=ATOL)


class TestPreparedState:
    def test_z_preparations(self):
        np.testing.assert_allclose(
            qcore.prepared_state(qcore.Z_AXIS, 0).entries, np.diag([1.0, 0.0]), atol=ATOL
        )
        np.testing.assert_allclose(
            qcore.prepared_state(qcore.Z_AXIS, 1).entries, np.diag([0.0, 1.0]), atol=ATOL
        )

    def test_purity_for_tilted_direction(self):
        direction = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        assert qcore.prepared_state(direction, 0).purity() == pytest.approx(1.0, abs=ATOL)

    def test_matches_projector_entrywise(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            direction = random_unit(rng)
            for bit in (0, 1):
                np.testing.assert_allclose(
                    qcore.prepared_state(direction, bit).entries,
                    qcore.projector(direction, bit).entries,
                    atol=ATOL,
                )

    def test_bloch_vector_round_trip(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            direction = random_unit(rng)
            rho = qcore.prepared_state(direction, 1)
            np.testing.assert_allclose(rho.bloch_vector, -direction, atol=1e-10)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qcore.DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            qcore.DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            qcore.DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError):
            qcore.DensityOperator(np.full((2, 2), np.nan))

    def test_stack_check_rejects_one_bad_matrix(self):
        stack = np.stack([qcore.projector(qcore.Z_AXIS, 0).entries] * 5)
        qcore.require_density(stack)
        stack[3] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="positive semidefinite"):
            qcore.require_density(stack)
