"""Quantum 2->1 and 3->1 protocols: measurement bases, steered Born-table success, seesaw search."""

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


def steering_bases(n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Analyzer (alice, bob) directions realizing the n-bit protocol bases (n in {2, 3}) on the entangled state.

    The shared state anti-correlates path and spin, so measuring the path along the
    negated class direction of ``default_bases`` leaves the spin side in the
    intended preparation for outcome bit 0; Bob's spin axes are unchanged.
    ``steered_table`` measures the path along the same -A_i.
    """
    alice, bob = default_bases(n)
    return -alice, bob


# Direction pairs per joint_table call in steered_table: about 1 MB of temporaries.
PAIR_SLICE = 1024


def steered_table(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Born table P(a, b) of every (alice[i], bob[j]) pair of a stack, (..., rows, n, 2, 2), at [..., i, j, a, b].

    The path is measured along -alice[i] and the spin along bob[j], on the
    maximally entangled state, which anti-correlates them: path outcome a leaves
    the spin prepared along (-1)^a alice[i], so twice the table is each
    prepare-and-measure cell. Pairs go to ``qcore.joint_table`` PAIR_SLICE at a
    time; each pair's table depends on that pair alone, so no bit changes.
    """
    pairs = np.stack(np.broadcast_arrays(-alice[..., :, None, :], bob[..., None, :, :]))
    paths, spins = pairs.reshape(2, -1, 3)
    state = qcore.maximally_entangled_state()
    parts = [
        qcore.joint_table(state, paths[lo : lo + PAIR_SLICE], spins[lo : lo + PAIR_SLICE])
        for lo in range(0, len(paths), PAIR_SLICE)
    ]
    return np.concatenate(parts).reshape(pairs.shape[1:-1] + (2, 2))


def evaluate(alice: np.ndarray, bob: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Success, correlator table and identity residual of every basis in a stack, all from one ``steered_table``.

    ``alice`` is (m, 2^(n-1), 3) and ``bob`` (m, n, 3). Cell (string s, queried bit
    k) is 2 P(a = s_0, b = s_k) at s's class; success sums the cells in
    ``bit_strings`` order. Correlator (i, j) is P00 + P11 - P01 - P10, analytically
    alice[i] . bob[j]. The residual |success - (1 + value / (n 2^(n-1))) / 2| holds
    each success against its correlators' expression value; it is zero up to rounding.
    """
    n = bob.shape[1]
    table = steered_table(alice, bob)
    strings = np.array(list(bit_strings(n)))
    cells = 2.0 * table[:, string_classes(n)[:, None], np.arange(n), strings[:, :1], strings]
    # a running sum, not a pairwise one, so each success equals the cell-by-cell loop
    success = np.cumsum(cells.reshape(len(cells), -1), axis=1)[:, -1] / (n * (1 << n))
    correlators = table[..., 0, 0] + table[..., 1, 1] - table[..., 0, 1] - table[..., 1, 0]
    residual = np.abs(success - success_from_bell(n, bell_value(correlators, sign_matrix(n))))
    return success, correlators, residual


# One-basis views of ``evaluate``; no command calls the first three, the benchmark's span list names them.
def quantum_success(alice: np.ndarray, bob: np.ndarray) -> float:
    return float(evaluate(alice[None], bob[None])[0][0])


def correlator_qm(alice: np.ndarray, bob: np.ndarray, i: int, j: int) -> float:
    return float(evaluate(alice[None], bob[None])[1][0, i, j])


def bell_from_preps(alice: np.ndarray, bob: np.ndarray) -> float:
    return bell_value(evaluate(alice[None], bob[None])[1][0], sign_matrix(len(bob)))


def identity_check(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """The identity residual of each basis of a stack, ``evaluate``'s third value."""
    return evaluate(alice, bob)[2]


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector from normalized Gaussian components."""
    while True:
        vec = rng.standard_normal(3)
        norm = float(np.linalg.norm(vec))
        if norm > 1e-9:
            return vec / norm


def random_bases(n: int, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random (alice, bob) stacks, Alice's rows first; ``projector`` checks them.

    One ``standard_normal`` call draws the same Gaussians, and leaves the generator in
    the same state, as one ``random_direction`` call per direction; ``vecdot`` gives
    the same norms as ``np.linalg.norm`` of a single vector. Only if some row is too
    short to normalise is the draw replayed one direction at a time, from the saved
    state, so that a redrawn row shifts every later one exactly as it would there.
    """
    rows = 1 << (n - 1)
    state = rng.bit_generator.state
    directions = rng.standard_normal((count * (rows + n), 3))
    norms = np.sqrt(np.vecdot(directions, directions))
    if np.any(norms <= 1e-9):
        rng.bit_generator.state = state
        directions = np.array([random_direction(rng) for _ in range(len(directions))])
    else:
        directions /= norms[:, None]
    directions = directions.reshape(count, rows + n, 3)
    return directions[:, :rows], directions[:, rows:]


# a seesaw start stops once one round gains less than this
SEESAW_TOL = 1e-14


def _seesaw_value(signs: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """The expression sum_ij s_ij alice_i . bob_j of each start in a stack."""
    return np.sum(signs * (alice @ bob.swapaxes(-1, -2)), axis=(-2, -1))


def _best_response(signs: np.ndarray, partners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized signed sums ``signs @ partners`` of each start, the exact maximizer, and where any sum vanishes.

    A vanished sum is divided by 1 instead, so a degenerate start raises no warning;
    its directions are meaningless and the caller discards it.
    """
    sums = signs @ partners
    norms = np.linalg.norm(sums, axis=-1)
    vanished = norms < 1e-12
    return sums / np.where(vanished, 1.0, norms)[..., None], vanished.any(axis=-1)


def _seesaw(
    signs: np.ndarray, alice: np.ndarray, bob: np.ndarray, iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run a stack of starts in place until each converges: (value, dead) per start.

    Each round replaces Bob's directions, then Alice's, by their best response, on
    the starts still gaining at least SEESAW_TOL; a start whose response vanishes
    is dead. Every start sees exactly the operations it would see alone.
    """
    value = _seesaw_value(signs, alice, bob)
    dead = np.zeros(len(value), dtype=bool)
    live = np.arange(len(value))
    for _ in range(iterations):
        if not live.size:
            break
        new_bob, bob_dead = _best_response(signs.T, alice[live])
        new_alice, alice_dead = _best_response(signs, new_bob)
        new_value = _seesaw_value(signs, new_alice, new_bob)
        ok = ~(bob_dead | alice_dead)
        dead[live[~ok]] = True
        live, new_value = live[ok], new_value[ok]
        alice[live], bob[live] = new_alice[ok], new_bob[ok]
        gained = new_value - value[live] >= SEESAW_TOL
        value[live] = new_value
        live = live[gained]
    return value, dead


def maximize_bell(
    n: int, starts: int = 100, iterations: int = 200, seed: int | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Alternating (seesaw) maximization of the n-bit expression over unit directions: (value, alice, bob).

    Every start is drawn with ``random_direction`` and all of a round's starts run
    as one stack. A degenerate (zero-norm) response kills its start; the first
    10 * starts dead starts are replaced by as many fresh draws in the next round.
    Starts use no randomness once drawn, so a replacement is simply the next draw,
    as if it had been drawn the moment its start died. The best start is the first
    maximum in draw order.
    """
    if n not in (2, 3):
        raise ValueError(f"seesaw search defined for n in {{2, 3}}, got {n}")
    signs = np.asarray(sign_matrix(n), dtype=float)
    rows = signs.shape[0]
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None

    pending = starts
    reseeds = 0
    while pending:
        drawn = np.array([[random_direction(rng) for _ in range(rows + n)] for _ in range(pending)])
        alice, bob = drawn[:, :rows], drawn[:, rows:]
        value, dead = _seesaw(signs, alice, bob, iterations)
        value[dead] = -np.inf
        top = int(np.argmax(value))
        if value[top] > best_value:
            best_value = float(value[top])
            best = (alice[top].copy(), bob[top].copy())
        died = int(dead.sum())
        pending = min(died, max(0, 10 * starts - reseeds))
        reseeds += died

    assert best is not None
    return best_value, *best
