"""Quantum 2->1 and 3->1 protocols: measurement bases, Born-rule success, seesaw search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .bell import bell_value, quantum_max, sign_matrix, success_from_bell
from .classical import bit_strings, string_classes


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
        qcore.require_unit_rows(np.vstack((alice, bob)))
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


# Bases per kernel call in identity_residuals: about 1.4 MB of temporaries at n = 3.
_SLICE = 250


def _born_traces(alice: np.ndarray, bob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Success and trace-form correlator table of every basis in a stack.

    ``alice`` is (m, 2^(n-1), 3) and ``bob`` (m, n, 3). All preparations and
    projectors are built at once and checked as density operators in one call.
    Each basis's success sums its (string, queried bit) cells in ``bit_strings``
    order; correlator (i, j) is Tr[rho_i^0 B_j^0 + rho_i^1 B_j^1] - 1, analytically
    the dot product alice[i] . bob[j].
    """
    n = bob.shape[1]
    preps = qcore.outcome_projectors(alice)
    projs = qcore.outcome_projectors(bob)
    qcore.require_density(preps)
    qcore.require_density(projs)
    strings = np.array(list(bit_strings(n)))
    rho = preps[:, string_classes(n), strings[:, 0]]
    proj = projs[:, np.arange(n), strings]
    cells = np.trace(rho[:, :, None] @ proj, axis1=-2, axis2=-1).real
    # a running sum, not a pairwise one, so each success equals the cell-by-cell loop
    success = np.cumsum(cells.reshape(len(cells), -1), axis=1)[:, -1] / (n * (1 << n))
    pairs = (
        preps[:, :, None, 0] @ projs[:, None, :, 0] + preps[:, :, None, 1] @ projs[:, None, :, 1]
    )
    table = np.trace(pairs, axis1=-2, axis2=-1).real - 1.0
    return success, table


def quantum_success(bases: MeasurementBases) -> float:
    """Average success over all (string, queried bit) cells via Born-rule traces."""
    success, _ = _born_traces(bases.alice[None], bases.bob[None])
    return float(success[0])


def correlator_table(bases: MeasurementBases) -> np.ndarray:
    """Trace-form correlators, one row per Alice class, one column per queried bit."""
    _, table = _born_traces(bases.alice[None], bases.bob[None])
    return table[0]


def correlator_qm(bases: MeasurementBases, i: int, j: int) -> float:
    """Trace form Tr[rho_i^0 B_j^0 + rho_i^1 B_j^1] - 1; analytically the dot product."""
    return float(correlator_table(bases)[i, j])


def bell_from_preps(bases: MeasurementBases) -> float:
    """Value of the n-bit expression over the preparation correlators."""
    return bell_value(correlator_table(bases), sign_matrix(bases.n))


def identity_residuals(stack: list[MeasurementBases]) -> np.ndarray:
    """Residual |success - (1 + value / (n 2^(n-1))) / 2| of each basis; zero up to rounding."""
    n = stack[0].n
    signs = sign_matrix(n)
    residuals = []
    for lo in range(0, len(stack), _SLICE):
        part = stack[lo : lo + _SLICE]
        success, tables = _born_traces(
            np.stack([bases.alice for bases in part]), np.stack([bases.bob for bases in part])
        )
        for p, table in zip(success, tables):
            residuals.append(abs(p - success_from_bell(n, bell_value(table, signs))))
    return np.array(residuals)


def identity_check(bases: MeasurementBases) -> float:
    """Residual of the success/expression identity for one basis choice."""
    return float(identity_residuals([bases])[0])


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


# a seesaw start stops once one round gains less than this
SEESAW_TOL = 1e-14


def _seesaw_value(signs: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> float:
    return float(np.sum(signs * (alice @ bob.T)))


def maximize_bell(
    n: int,
    starts: int = 100,
    iterations: int = 200,
    seed: int | None = None,
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
            if new_value - value < SEESAW_TOL:
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
