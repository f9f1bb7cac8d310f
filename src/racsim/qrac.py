"""Quantum 2->1 and 3->1 protocols: measurement bases, preparations, success, seesaw search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .bell import bell_value, quantum_max, sign_matrix, success_from_bell
from .classical import bit_strings, class_index, optimal_classical_formula


@dataclass(frozen=True, eq=False)
class MeasurementBases:
    """Alice's per-class directions (2^(n-1) rows) and Bob's per-bit directions (n rows)."""

    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        alice = np.asarray(self.alice, dtype=float)
        bob = np.asarray(self.bob, dtype=float)
        if bob.ndim != 2 or bob.shape[1] != 3:
            raise ValueError(f"bob directions must be (n, 3), got {bob.shape}")
        n = bob.shape[0]
        if alice.shape != (1 << (n - 1), 3):
            raise ValueError(
                f"alice directions must be ({1 << (n - 1)}, 3) for n={n}, got {alice.shape}"
            )
        for row in np.vstack((alice, bob)):
            qcore.require_unit(row)
        alice.setflags(write=False)
        bob.setflags(write=False)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    @property
    def n(self) -> int:
        return self.bob.shape[0]


def default_bases(n: int) -> MeasurementBases:
    """Protocol-optimal directions: square diagonals for n=2, cube vertices for n=3.

    Chosen so that every correlator equals s_ij / sqrt(n), which saturates the
    quantum maximum of the n-bit expression.
    """
    signs = sign_matrix(n)
    if n == 2:
        alice = np.array(
            [[signs[i, 1], 0.0, signs[i, 0]] for i in range(2)], dtype=float
        ) / math.sqrt(2)
        bob = np.array([qcore.Z_AXIS, qcore.X_AXIS])
    elif n == 3:
        alice = np.asarray(signs, dtype=float) / math.sqrt(3)
        bob = np.array([qcore.X_AXIS, qcore.Y_AXIS, qcore.Z_AXIS])
    else:
        raise ValueError(f"single-stage protocol defined for n in {{2, 3}}, got {n}")
    return MeasurementBases(alice=alice, bob=bob)


def preparation(bases: MeasurementBases, bits: tuple[int, ...]) -> qcore.DensityOperator:
    """Qubit state encoding ``bits``: Bloch vector (-1)^(first bit) along the class direction."""
    return qcore.prepared_state(bases.alice[class_index(bits)], bits[0])


def quantum_success(bases: MeasurementBases) -> float:
    """Average success over all (string, queried bit) cells via Born-rule traces."""
    n = bases.n
    total = 0.0
    for bits in bit_strings(n):
        rho = preparation(bases, bits)
        for k in range(n):
            proj = qcore.projector(bases.bob[k], bits[k])
            total += float(np.trace(rho.entries @ proj.entries).real)
    return total / (n * (1 << n))


def correlator_qm(bases: MeasurementBases, i: int, j: int) -> float:
    """Trace form Tr[rho_i^0 B_j^0 + rho_i^1 B_j^1] - 1; analytically the dot product."""
    rho0 = qcore.prepared_state(bases.alice[i], 0).entries
    rho1 = qcore.prepared_state(bases.alice[i], 1).entries
    b0 = qcore.projector(bases.bob[j], 0).entries
    b1 = qcore.projector(bases.bob[j], 1).entries
    return float(np.trace(rho0 @ b0 + rho1 @ b1).real - 1.0)


def correlator_table(bases: MeasurementBases) -> np.ndarray:
    n = bases.n
    return np.array(
        [[correlator_qm(bases, i, j) for j in range(n)] for i in range(1 << (n - 1))]
    )


def bell_from_preps(bases: MeasurementBases) -> float:
    """Value of the n-bit expression over the preparation correlators."""
    return bell_value(correlator_table(bases), sign_matrix(bases.n))


def identity_check(bases: MeasurementBases) -> float:
    """Residual |success - (1 + value / (n 2^(n-1))) / 2|; zero up to rounding."""
    return abs(quantum_success(bases) - success_from_bell(bases.n, bell_from_preps(bases)))


@dataclass(frozen=True)
class ProtocolResult:
    """Success probability, expression value, and gain over the classical optimum.

    Construction enforces the success/expression identity to 1e-12.
    """

    n: int
    success: float
    bell: float
    margin: float

    def __post_init__(self):
        if abs(self.success - success_from_bell(self.n, self.bell)) > 1e-12:
            raise ValueError("success and expression value violate the exact identity")


def protocol_result(bases: MeasurementBases) -> ProtocolResult:
    """Evaluate a basis choice into a consistent (success, expression, margin) triple."""
    success = quantum_success(bases)
    value = bell_from_preps(bases)
    return ProtocolResult(
        n=bases.n,
        success=success,
        bell=value,
        margin=success - optimal_classical_formula(bases.n),
    )


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector from normalized Gaussian components."""
    while True:
        vec = rng.standard_normal(3)
        norm = float(np.linalg.norm(vec))
        if norm > 1e-9:
            return vec / norm


def random_bases(n: int, rng: np.random.Generator) -> MeasurementBases:
    alice = np.array([random_direction(rng) for _ in range(1 << (n - 1))])
    bob = np.array([random_direction(rng) for _ in range(n)])
    return MeasurementBases(alice=alice, bob=bob)


def _seesaw_value(signs: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> float:
    return float(np.sum(signs * (alice @ bob.T)))


def maximize_bell(
    n: int,
    starts: int = 100,
    iterations: int = 200,
    seed: int | None = None,
    tol: float = 1e-14,
    initial: MeasurementBases | None = None,
) -> tuple[float, MeasurementBases]:
    """Alternating (seesaw) maximization of the n-bit expression over unit directions.

    Holding one side fixed, each direction on the other side is replaced by the
    normalized signed sum of its partners, which is the exact inner maximizer.
    Degenerate zero-norm updates restart that attempt with fresh random directions.
    """
    if n not in (2, 3):
        raise ValueError(f"seesaw search defined for n in {{2, 3}}, got {n}")
    signs = np.asarray(sign_matrix(n), dtype=float)
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None

    pending = initial
    attempts = 0
    reseeds = 0
    while attempts < starts:
        attempts += 1
        if pending is not None:
            alice = np.array(pending.alice, dtype=float)
            bob = np.array(pending.bob, dtype=float)
            pending = None
        else:
            alice = np.array([random_direction(rng) for _ in range(signs.shape[0])])
            bob = np.array([random_direction(rng) for _ in range(n)])
        degenerate = False
        value = _seesaw_value(signs, alice, bob)
        for _ in range(iterations):
            bob_new = signs.T @ alice
            norms = np.linalg.norm(bob_new, axis=1)
            if np.any(norms < 1e-12):
                degenerate = True
                break
            bob = bob_new / norms[:, None]
            alice_new = signs @ bob
            norms = np.linalg.norm(alice_new, axis=1)
            if np.any(norms < 1e-12):
                degenerate = True
                break
            alice = alice_new / norms[:, None]
            new_value = _seesaw_value(signs, alice, bob)
            if new_value - value < tol:
                value = new_value
                break
            value = new_value
        if degenerate:
            # re-seed this start without consuming the attempt budget
            reseeds += 1
            if reseeds <= 10 * starts:
                attempts -= 1
            continue
        if value > best_value:
            best_value = value
            best = (alice.copy(), bob.copy())

    assert best is not None
    cap = quantum_max(n)
    if best_value > cap + 1e-9:
        raise AssertionError(f"seesaw value {best_value} exceeds quantum cap {cap}")
    return best_value, MeasurementBases(alice=best[0], bob=best[1])
