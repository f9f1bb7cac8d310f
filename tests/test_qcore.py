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


def observable(direction):
    """n . sigma as the difference of its outcome projectors: eigenvalue +1 minus -1."""
    return qcore.projector(direction, 0) - qcore.projector(direction, 1)


def bloch_vector(rho):
    return np.array([np.trace(rho @ sigma).real for sigma in (qcore.SIGMA_X, qcore.SIGMA_Y, qcore.SIGMA_Z)])


class TestObservableFromBloch:
    """The dichotomic observable n . sigma that a projector pair resolves."""

    def test_z_axis_is_diagonal(self):
        np.testing.assert_allclose(observable(qcore.Z_AXIS), np.diag([1.0, -1.0]), atol=ATOL)

    def test_x_axis_is_antidiagonal(self):
        np.testing.assert_allclose(
            observable(qcore.X_AXIS), np.array([[0, 1], [1, 0]]), atol=ATOL
        )

    def test_diagonal_direction_eigenvalues(self):
        direction = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        obs = observable(direction)
        eigenvalues = np.linalg.eigvalsh(obs)
        np.testing.assert_allclose(eigenvalues, [-1.0, 1.0], atol=ATOL)
        assert abs(np.trace(obs)) < ATOL

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            qcore.projector([0.0, 0.0, 0.5], 0)

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
            obs = observable(random_unit(rng))
            np.testing.assert_allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=ATOL)


class TestProjector:
    def test_z_projectors(self):
        np.testing.assert_allclose(qcore.projector(qcore.Z_AXIS, 0), np.diag([1.0, 0.0]), atol=ATOL)
        np.testing.assert_allclose(qcore.projector(qcore.Z_AXIS, 1), np.diag([0.0, 1.0]), atol=ATOL)

    def test_x_projector_all_halves(self):
        np.testing.assert_allclose(
            qcore.projector(qcore.X_AXIS, 0), np.full((2, 2), 0.5), atol=ATOL
        )

    def test_idempotence_and_completeness_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            direction = random_unit(rng)
            p0 = qcore.projector(direction, 0)
            p1 = qcore.projector(direction, 1)
            np.testing.assert_allclose(p0 @ p0, p0, atol=ATOL)
            np.testing.assert_allclose(p1 @ p1, p1, atol=ATOL)
            np.testing.assert_allclose(p0 + p1, np.eye(2), atol=ATOL)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            qcore.projector(qcore.Z_AXIS, 2)

    def test_stack_builder_matches_one_direction_bit_for_bit(self):
        rng = np.random.default_rng(17)
        directions = rng.standard_normal((2000, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        stack = qcore.outcome_projectors(directions)
        assert stack.shape == (2000, 2, 2, 2)
        for direction, pair in zip(directions[:200], stack):
            for bit in (0, 1):
                assert qcore.projector(direction, bit).tobytes() == pair[bit].tobytes()


class TestTensor:
    """The path-first tensor product inside ``joint_probability``, on basis states."""

    @staticmethod
    def basis_state(index):
        amps = np.zeros(4)
        amps[index] = 1.0
        return qcore.PureState(amps)

    def test_identity(self):
        # the four projector products resolve the identity on every basis state
        for index in range(4):
            state = self.basis_state(index)
            total = sum(
                qcore.joint_probability(
                    state, qcore.projector(qcore.X_AXIS, a), qcore.projector(qcore.Y_AXIS, b)
                )
                for a in (0, 1)
                for b in (0, 1)
            )
            assert total == pytest.approx(1.0, abs=ATOL)

    def test_projector_product(self):
        up, down = qcore.projector(qcore.Z_AXIS, 0), qcore.projector(qcore.Z_AXIS, 1)
        # basis order |up_p up_s>, |up_p down_s>, |down_p up_s>, |down_p down_s>
        for index, (path, spin) in enumerate([(up, up), (up, down), (down, up), (down, down)]):
            probs = [qcore.joint_probability(self.basis_state(k), path, spin) for k in range(4)]
            np.testing.assert_allclose(probs, np.eye(4)[index], atol=ATOL)

    def test_sigma_z_pair(self):
        values = [
            qcore.expectation_product(self.basis_state(k), qcore.Z_AXIS, qcore.Z_AXIS) for k in range(4)
        ]
        np.testing.assert_allclose(values, [1.0, -1.0, -1.0, 1.0], atol=ATOL)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            qcore.PureState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_bad_dimension(self):
        for amps in ([1.0, 0.0], [1.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match=r"^state dimension must be 4"):
                qcore.PureState(np.array(amps))

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="not normalized"):
            qcore.PureState(np.array([1.0, math.nan, 0.0, 0.0]))


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
            table = qcore.joint_table(state, random_unit(rng), random_unit(rng))
            assert table.shape == (2, 2)
            assert table.sum() == pytest.approx(1.0, abs=ATOL)


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
            qcore.prepared_state(qcore.Z_AXIS, 0), np.diag([1.0, 0.0]), atol=ATOL
        )
        np.testing.assert_allclose(
            qcore.prepared_state(qcore.Z_AXIS, 1), np.diag([0.0, 1.0]), atol=ATOL
        )

    def test_purity_for_tilted_direction(self):
        direction = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        rho = qcore.prepared_state(direction, 0)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=ATOL)

    def test_matches_projector_entrywise(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            direction = random_unit(rng)
            for bit in (0, 1):
                np.testing.assert_allclose(
                    qcore.prepared_state(direction, bit),
                    qcore.projector(direction, bit),
                    atol=ATOL,
                )

    def test_bloch_vector_round_trip(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            direction = random_unit(rng)
            rho = qcore.prepared_state(direction, 1)
            np.testing.assert_allclose(bloch_vector(rho), -direction, atol=1e-10)


class TestDensityOperator:
    """``require_density``, the one density-operator check, on single matrices and stacks."""

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.require_density(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            qcore.require_density(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            qcore.require_density(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError):
            qcore.require_density(np.full((2, 2), np.nan, dtype=complex))

    def test_stack_check_rejects_one_bad_matrix(self):
        stack = np.stack([qcore.projector(qcore.Z_AXIS, 0)] * 5)
        qcore.require_density(stack)
        stack[3] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="positive semidefinite"):
            qcore.require_density(stack)
