"""Small-dimension complex state algebra: Bloch observables, projectors, Born probabilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for algebraic identities (normalization, idempotence, Hermiticity).
ATOL = 1e-12

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def require_unit(direction) -> np.ndarray:
    """Return ``direction`` as a float 3-vector, rejecting non-unit norms."""
    vec = np.asarray(direction, dtype=float)
    if vec.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {vec.shape}")
    require_unit_rows(vec[None])
    return vec


def require_unit_rows(rows: np.ndarray) -> None:
    """Reject a (k, 3) stack of directions unless every row has unit norm.

    ``sqrt(vecdot)`` equals ``np.linalg.norm`` of each 3-vector bit for bit; the
    message names the norm of the first bad row.
    """
    norms = np.sqrt(np.vecdot(rows, rows))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= ATOL))  # NaN fails too
    if bad.size:
        raise ValueError(f"direction must have unit norm, got {float(norms[bad[0]])}")


def require_density(mats: np.ndarray) -> None:
    """Reject a stack (..., 2, 2) unless every matrix is Hermitian, unit-trace and PSD."""
    if not np.max(np.abs(mats - np.conj(mats).swapaxes(-1, -2))) <= ATOL:  # NaN fails too
        raise ValueError("density operator must be Hermitian")
    if not np.max(np.abs(np.trace(mats, axis1=-2, axis2=-1).real - 1.0)) <= ATOL:
        raise ValueError("density operator must have unit trace")
    if not np.min(np.linalg.eigvalsh(mats)) >= -ATOL:
        raise ValueError("density operator must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector of dimension 2 or 4 (path factor first, spin second)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape not in ((2,), (4,)):
            raise ValueError(f"state dimension must be 2 or 4, got {amps.shape}")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= ATOL:  # NaN fails too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """2x2 Hermitian, unit-trace, positive-semidefinite operator."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"density operator must be 2x2, got {mat.shape}")
        require_density(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def bloch_vector(self) -> np.ndarray:
        rho = self.entries
        return np.array(
            [
                float(np.trace(rho @ SIGMA_X).real),
                float(np.trace(rho @ SIGMA_Y).real),
                float(np.trace(rho @ SIGMA_Z).real),
            ]
        )

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


@dataclass(frozen=True, eq=False)
class Projector:
    """Rank-1 projector onto the eigenstate of a Bloch-direction observable.

    Outcome bit 0 selects the +1 eigenvalue, bit 1 the -1 eigenvalue.
    """

    direction: np.ndarray
    outcome: int
    entries: np.ndarray


def observable_from_bloch(direction) -> np.ndarray:
    """Dichotomic observable n . sigma for a unit Bloch direction n."""
    vec = require_unit(direction)
    return vec[0] * SIGMA_X + vec[1] * SIGMA_Y + vec[2] * SIGMA_Z


def projector(direction, outcome: int) -> Projector:
    """Projector (I + (-1)^outcome n . sigma) / 2; the pair over outcomes sums to identity."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    vec = require_unit(direction)
    sign = 1.0 if outcome == 0 else -1.0
    mat = 0.5 * (IDENTITY + sign * observable_from_bloch(vec))
    mat.setflags(write=False)
    vec.setflags(write=False)
    return Projector(direction=vec, outcome=outcome, entries=mat)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the path factor first and the spin factor second."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def joint_probability(state: PureState, path_proj: Projector, spin_proj: Projector) -> float:
    """Born probability <psi| P_path (x) P_spin |psi> on a 4-dimensional state."""
    if state.dim != 4:
        raise ValueError("joint_probability requires a 4-dimensional state")
    op = tensor(path_proj.entries, spin_proj.entries)
    return float(np.vdot(state.amplitudes, op @ state.amplitudes).real)


def expectation_product(state: PureState, direction_a, direction_b) -> float:
    """Signed four-outcome sum giving <(a . sigma) (x) (b . sigma)> on ``state``."""
    vec_a = require_unit(direction_a)
    vec_b = require_unit(direction_b)
    total = 0.0
    for bit_a in (0, 1):
        for bit_b in (0, 1):
            sign = 1.0 if bit_a == bit_b else -1.0
            total += sign * joint_probability(
                state, projector(vec_a, bit_a), projector(vec_b, bit_b)
            )
    return total


def prepared_state(direction, bit: int) -> DensityOperator:
    """Pure qubit preparation with Bloch vector (-1)^bit along ``direction``."""
    return DensityOperator(projector(direction, bit).entries)
