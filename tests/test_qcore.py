"""Unit tests for the small-dimension state algebra."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim import qcore
from racsim.qcore import maximally_entangled_state

ATOL = 1e-12


def random_unit(rng):
    vec = rng.standard_normal(3)
    return vec / np.linalg.norm(vec)


def observable(direction):
    """n . sigma as the difference of its outcome projectors: eigenvalue +1 minus -1."""
    plus, minus = qcore.projector(direction)
    return plus - minus


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
            qcore.projector([0.0, 0.0, 0.5])

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

    def test_a_norm_past_the_largest_double_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"unit norm, got inf$"):
                qcore.require_unit_rows(np.array([[1e308, 1e308, 0.0]]))

    def test_stacked_check_reads_rows_in_c_order_over_every_leading_axis(self):
        stack = np.tile(qcore.Z_AXIS, (3, 4, 1))
        stack[2, 1] = [0.0, 0.0, 0.5]
        stack[1, 3] = [0.0, 3.0, 0.0]
        with pytest.raises(ValueError, match=r"unit norm, got 3\.0$"):
            qcore.projector(stack)

    def test_rejects_a_last_axis_other_than_three(self):
        for bad in (np.ones(2), np.ones((4, 2)), 1.0):
            with pytest.raises(ValueError, match="3-vectors"):
                qcore.projector(bad)

    def test_eigenvalues_pm_one_for_random_directions(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            obs = observable(random_unit(rng))
            np.testing.assert_allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=ATOL)


class TestProjector:
    def test_z_projectors(self):
        np.testing.assert_allclose(qcore.projector(qcore.Z_AXIS)[0], np.diag([1.0, 0.0]), atol=ATOL)
        np.testing.assert_allclose(qcore.projector(qcore.Z_AXIS)[1], np.diag([0.0, 1.0]), atol=ATOL)

    def test_x_projector_all_halves(self):
        np.testing.assert_allclose(
            qcore.projector(qcore.X_AXIS)[0], np.full((2, 2), 0.5), atol=ATOL
        )

    def test_idempotence_and_completeness_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            direction = random_unit(rng)
            p0, p1 = qcore.projector(direction)
            np.testing.assert_allclose(p0 @ p0, p0, atol=ATOL)
            np.testing.assert_allclose(p1 @ p1, p1, atol=ATOL)
            np.testing.assert_allclose(p0 + p1, np.eye(2), atol=ATOL)

    def test_stack_builder_matches_one_direction_bit_for_bit(self):
        rng = np.random.default_rng(17)
        directions = rng.standard_normal((2000, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        stack = qcore.projector(directions)
        assert stack.shape == (2000, 2, 2, 2)
        assert qcore.projector(directions.reshape(40, 50, 3)).tobytes() == stack.tobytes()
        for direction, pair in zip(directions[:200], stack):
            assert qcore.projector(direction).tobytes() == pair.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), stretch=st.floats(-0.999, 0.999))
    def test_every_accepted_direction_gives_density_operators(self, seed, stretch):
        # the norm check admits norms within ATOL of 1; every projector it lets
        # through is Hermitian, of unit trace and has no eigenvalue below -ATOL
        directions = np.array([random_unit(np.random.default_rng(seed)), qcore.X_AXIS, qcore.Z_AXIS])
        directions *= 1.0 + stretch * ATOL
        stack = qcore.projector(directions)
        assert np.array_equal(stack, np.conj(stack).swapaxes(-1, -2))
        assert np.max(np.abs(np.trace(stack, axis1=-2, axis2=-1).real - 1.0)) <= ATOL
        assert np.min(np.linalg.eigvalsh(stack)) >= -ATOL


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
                    state, qcore.projector(qcore.X_AXIS)[a], qcore.projector(qcore.Y_AXIS)[b]
                )
                for a in (0, 1)
                for b in (0, 1)
            )
            assert total == pytest.approx(1.0, abs=ATOL)

    def test_projector_product(self):
        up, down = qcore.projector(qcore.Z_AXIS)
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
        pz0, pz1 = qcore.projector(qcore.Z_AXIS)
        assert qcore.joint_probability(state, pz0, pz0) == pytest.approx(0.0, abs=ATOL)
        assert qcore.joint_probability(state, pz0, pz1) == pytest.approx(0.5, abs=ATOL)

    def test_same_direction_outcomes_never_agree(self):
        state = maximally_entangled_state()
        rng = np.random.default_rng(12)
        for _ in range(100):
            direction = random_unit(rng)
            proj = qcore.projector(direction)[0]
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


AXES = np.vstack((np.eye(3), -np.eye(3)))
# (path stack shape, spin stack shape): leading axes that broadcast against each other
BROADCASTS = [((), ()), ((5,), ()), ((), (4,)), ((3, 1), (4,)), ((2, 1, 3), (1, 2, 1)), ((6,), (6,))]


def directions(rng, shape):
    """Unit directions of ``shape + (3,)``: random rows with some coordinate axes mixed in."""
    rows = rng.standard_normal((int(np.prod(shape, dtype=int)), 3))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    axes = rng.random(len(rows)) < 0.3
    rows[axes] = AXES[rng.integers(0, 6, int(axes.sum()))]
    return rows.reshape(shape + (3,))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shapes=st.sampled_from(BROADCASTS))
def test_stacked_table_matches_per_entry_kron_bit_for_bit(seed, shapes):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = qcore.PureState(amps / np.linalg.norm(amps))
    paths, spins = directions(rng, shapes[0]), directions(rng, shapes[1])
    table = qcore.joint_table(state, paths, spins)
    lead = np.broadcast_shapes(shapes[0], shapes[1])
    assert table.shape == lead + (2, 2)
    paths, spins = np.broadcast_to(paths, lead + (3,)), np.broadcast_to(spins, lead + (3,))
    for index in np.ndindex(lead):
        path_pair, spin_pair = qcore.projector(paths[index]), qcore.projector(spins[index])
        for a, b in np.ndindex(2, 2):
            op = np.kron(path_pair[a], spin_pair[b])
            expected = np.vdot(state.amplitudes, op @ state.amplitudes).real
            assert table[index + (a, b)].tobytes() == expected.tobytes()


unit_vectors = st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(0, 1), delta=st.floats(-2 * math.pi, 2 * math.pi), a=unit_vectors, b=unit_vectors)
def test_table_matches_the_closed_form_of_the_interferometer_state(t, delta, a, b):
    """t|up_p down_z> + r e^(i delta)|down_p up_z>, C = 2 t r: correlator and marginals in closed form."""
    a, b = np.array(a) / np.linalg.norm(a), np.array(b) / np.linalg.norm(b)
    r = math.sqrt(1.0 - t * t)
    amps = np.array([0.0, t, r * np.exp(1j * delta), 0.0])
    (p00, p01), (p10, p11) = qcore.joint_table(qcore.PureState(amps), a, b)
    c = 2.0 * t * r
    transverse = math.cos(delta) * (a[0] * b[0] + a[1] * b[1]) + math.sin(delta) * (a[1] * b[0] - a[0] * b[1])
    assert p00 - p01 - p10 + p11 == pytest.approx(-a[2] * b[2] + c * transverse, abs=1e-12)
    assert p00 + p01 - p10 - p11 == pytest.approx((t * t - r * r) * a[2], abs=1e-12)
    assert p00 - p01 + p10 - p11 == pytest.approx((r * r - t * t) * b[2], abs=1e-12)


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

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError, match="outcome must be 0 or 1"):
            qcore.prepared_state(qcore.Z_AXIS, 2)

    def test_rejects_a_stack_of_directions(self):
        with pytest.raises(ValueError, match="must be a 3-vector"):
            qcore.prepared_state(np.vstack((qcore.Z_AXIS, qcore.X_AXIS)), 0)

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
                    qcore.projector(direction)[bit],
                    atol=ATOL,
                )

    def test_bloch_vector_round_trip(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            direction = random_unit(rng)
            rho = qcore.prepared_state(direction, 1)
            np.testing.assert_allclose(bloch_vector(rho), -direction, atol=1e-10)
