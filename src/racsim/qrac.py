"""Quantum 2->1 and 3->1 protocols: measurement bases, Born-rule success, seesaw search."""

from __future__ import annotations

import math

import numpy as np

from . import qcore
from .bell import bell_value, sign_matrix, success_from_bell
from .classical import bit_strings, string_classes


def default_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Protocol-optimal (alice, bob) directions: square diagonals for n=2, cube vertices for n=3.

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
    return alice, bob


# Bases per kernel call in identity_residuals: about 1.4 MB of temporaries at n = 3.
_SLICE = 250


def _born_traces(alice: np.ndarray, bob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Success and trace-form correlator table of every basis in a stack.

    ``alice`` is (m, 2^(n-1), 3) and ``bob`` (m, n, 3). All preparations and
    projectors are built at once by ``qcore.projector``, which checks every norm.
    Each basis's success sums its (string, queried bit) cells in ``bit_strings``
    order; correlator (i, j) is Tr[rho_i^0 B_j^0 + rho_i^1 B_j^1] - 1, analytically
    the dot product alice[i] . bob[j]. The one-basis views pass a stack of one.
    """
    n = bob.shape[1]
    preps = qcore.projector(alice)
    projs = qcore.projector(bob)
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


def quantum_success(alice: np.ndarray, bob: np.ndarray) -> float:
    """Average success over all (string, queried bit) cells via Born-rule traces."""
    success, _ = _born_traces(alice[None], bob[None])
    return float(success[0])


def correlator_qm(alice: np.ndarray, bob: np.ndarray, i: int, j: int) -> float:
    """Trace form Tr[rho_i^0 B_j^0 + rho_i^1 B_j^1] - 1; analytically the dot product."""
    return float(_born_traces(alice[None], bob[None])[1][0, i, j])


def bell_from_preps(alice: np.ndarray, bob: np.ndarray) -> float:
    """Value of the n-bit expression over the preparation correlators."""
    _, tables = _born_traces(alice[None], bob[None])
    return bell_value(tables[0], sign_matrix(len(bob)))


def identity_residuals(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Residual |success - (1 + value / (n 2^(n-1))) / 2| of each basis of a stack; zero up to rounding."""
    parts = [
        _born_traces(alice[lo : lo + _SLICE], bob[lo : lo + _SLICE])
        for lo in range(0, len(alice), _SLICE)
    ]
    success, tables = map(np.concatenate, zip(*parts))
    n = bob.shape[1]
    return np.abs(success - success_from_bell(n, bell_value(tables, sign_matrix(n))))


def identity_check(alice: np.ndarray, bob: np.ndarray) -> float:
    """Residual of the success/expression identity for one basis choice."""
    return float(identity_residuals(alice[None], bob[None])[0])


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector from normalized Gaussian components."""
    while True:
        vec = rng.standard_normal(3)
        norm = float(np.linalg.norm(vec))
        if norm > 1e-9:
            return vec / norm


def random_bases(n: int, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random (alice, bob) stacks, drawn one direction at a time, Alice's rows first; ``projector`` checks them."""
    rows = 1 << (n - 1)
    directions = np.array([random_direction(rng) for _ in range(count * (rows + n))])
    directions = directions.reshape(count, rows + n, 3)
    return directions[:, :rows], directions[:, rows:]


# a seesaw start stops once one round gains less than this
SEESAW_TOL = 1e-14


def _seesaw_value(signs: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> float:
    return float(np.sum(signs * (alice @ bob.T)))


def _best_response(signs: np.ndarray, partners: np.ndarray) -> np.ndarray | None:
    """Normalized signed sums ``signs @ partners``, the exact maximizer; None if any sum vanishes."""
    sums = signs @ partners
    norms = np.linalg.norm(sums, axis=1)
    if np.any(norms < 1e-12):
        return None
    return sums / norms[:, None]


def maximize_bell(
    n: int, starts: int = 100, iterations: int = 200, seed: int | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Alternating (seesaw) maximization of the n-bit expression over unit directions: (value, alice, bob).

    Each round replaces Bob's directions, then Alice's, by their best response.
    A degenerate (zero-norm) response restarts that attempt with fresh random
    directions; the first 10 * starts restarts do not use up an attempt.
    """
    if n not in (2, 3):
        raise ValueError(f"seesaw search defined for n in {{2, 3}}, got {n}")
    signs = np.asarray(sign_matrix(n), dtype=float)
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None

    attempts = 0
    reseeds = 0
    while attempts < starts:
        attempts += 1
        alice = np.array([random_direction(rng) for _ in range(signs.shape[0])])
        bob = np.array([random_direction(rng) for _ in range(n)])
        value = _seesaw_value(signs, alice, bob)
        for _ in range(iterations):
            bob = _best_response(signs.T, alice)
            if bob is None:
                break
            alice = _best_response(signs, bob)
            if alice is None:
                break
            new_value = _seesaw_value(signs, alice, bob)
            if new_value - value < SEESAW_TOL:
                value = new_value
                break
            value = new_value
        if alice is None or bob is None:
            reseeds += 1
            if reseeds <= 10 * starts:
                attempts -= 1
            continue
        if value > best_value:
            best_value = value
            best = (alice.copy(), bob.copy())

    assert best is not None
    return best_value, *best
