"""Small-dimension complex state algebra: path-spin states, Bloch-direction projectors and Born probabilities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance for normalization: unit directions, state vectors, splitter amplitudes.
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
    require_unit_rows(vec)
    return vec


def require_unit_rows(rows: np.ndarray) -> None:
    """Reject an array unless it is a (..., 3) stack of directions and every row has unit norm.

    ``sqrt(vecdot)`` equals ``np.linalg.norm`` of each 3-vector bit for bit; the
    message names the norm of the first bad row in C order.
    """
    if rows.ndim == 0 or rows.shape[-1] != 3:
        raise ValueError(f"directions must be 3-vectors, got shape {rows.shape}")
    with np.errstate(over="ignore"):  # a norm past the largest double is inf, and rejected
        norms = np.sqrt(np.vecdot(rows, rows)).ravel()
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= ATOL))  # NaN fails too
    if bad.size:
        raise ValueError(f"direction must have unit norm, got {float(norms[bad[0]])}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized path-spin state vector: 4 amplitudes, path factor first, spin second."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (4,):
            raise ValueError(f"state dimension must be 4, got {amps.shape}")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= ATOL:  # NaN fails too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def entangled_state(transmission: float, reflection: float, prep_phase: float) -> PureState:
    """Path-spin state a |up_p down_z> + b e^(i delta) |down_p up_z> after the interferometer's first splitter.

    Basis order: |up_p up_z>, |up_p down_z>, |down_p up_z>, |down_p down_z>.
    """
    if not abs(transmission**2 + reflection**2 - 1.0) <= ATOL:  # NaN fails too
        raise ValueError("transmission^2 + reflection^2 must equal 1")
    amps = np.zeros(4, dtype=complex)
    amps[1] = transmission
    amps[2] = reflection * np.exp(1j * prep_phase)
    return PureState(amps)


def maximally_entangled_state() -> PureState:
    """Balanced splitter with a pi phase: the singlet-like path-spin state."""
    return entangled_state(1.0 / math.sqrt(2), 1.0 / math.sqrt(2), math.pi)


def projector(directions) -> np.ndarray:
    """(I + (-1)^outcome d . sigma) / 2 for a stack of unit directions (..., 3): shape (..., 2, 2, 2).

    Index ``[..., outcome, :, :]``; outcome bit 0 selects the +1 eigenvalue of
    d . sigma, bit 1 the -1 eigenvalue, and the pair sums to the identity.
    """
    d = np.asarray(directions, dtype=float)
    require_unit_rows(d)
    d = d[..., None, None]
    obs = d[..., 0, :, :] * SIGMA_X + d[..., 1, :, :] * SIGMA_Y + d[..., 2, :, :] * SIGMA_Z
    signs = np.array([1.0, -1.0])[:, None, None]
    return 0.5 * (IDENTITY + signs * obs[..., None, :, :])


def joint_probability(state: PureState, path_projs: np.ndarray, spin_projs: np.ndarray) -> np.ndarray:
    """Born probabilities <psi| P_path (x) P_spin |psi> of stacked 2x2 projector pairs, path factor first.

    The (..., 4, 4) operators hold ``kron``'s products entry by entry, so each
    value equals ``vdot(psi, kron(P, S) @ psi).real`` bit for bit.
    """
    ops = path_projs[..., :, None, :, None] * spin_projs[..., None, :, None, :]
    amps = state.amplitudes
    return np.vecdot(amps, np.matmul(ops.reshape(ops.shape[:-4] + (4, 4)), amps)).real


def joint_table(state: PureState, path_directions, spin_directions) -> np.ndarray:
    """Born tables of broadcast direction stacks (..., 3): shape (..., 2, 2).

    ``[..., a, b]`` is P(path outcome a, spin outcome b) on ``state``; outcome
    bit 0 is the +1 eigenvalue along each direction, as in ``projector``.
    """
    paths = projector(path_directions)[..., :, None, :, :]
    spins = projector(spin_directions)[..., None, :, :, :]
    return joint_probability(state, paths, spins)


def expectation_product(state: PureState, direction_a, direction_b) -> float:
    """Signed four-outcome sum giving <(a . sigma) (x) (b . sigma)> on ``state``."""
    (p00, p01), (p10, p11) = joint_table(state, direction_a, direction_b)
    return float(p00 - p01 - p10 + p11)


def prepared_state(direction, bit: int) -> np.ndarray:
    """Pure qubit preparation with Bloch vector (-1)^bit along ``direction``; ``projector`` checks its norm."""
    if bit not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {bit}")
    return projector(require_unit(direction))[bit]
