"""Bell-type correlation expressions for n->1 codes: sign matrices, bounds, success conversions."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# Largest sign matrix deterministic_max will search exhaustively: 2^(2^(n-1) + n) cases.
_MAX_BRUTE_N = 5


def sign_matrix(n: int) -> np.ndarray:
    """Class-pattern sign coefficients, one row per input class, one column per bit.

    Row i starts with +1; the remaining entries follow the binary expansion of i,
    so entry (i, j) is +1 exactly when bit j of the class pattern matches the
    reference (first) bit. Shape (2^(n-1), n).
    """
    if n < 1:
        raise ValueError(f"bit count must be >= 1, got {n}")
    # entry (i, j) is -1 where bit n - 1 - j of i is set; i < 2^(n-1), so column 0 stays +1
    return 1 - 2 * ((np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1, -1, -1)) & 1)


def bell_value(table: np.ndarray, signs: np.ndarray) -> float | np.ndarray:
    """Signed sum sum_ij s_ij * t_ij of a correlation table, or of each table of a (..., rows, n) stack."""
    t = np.asarray(table, dtype=float)
    s = np.asarray(signs)
    if t.shape[-2:] != s.shape:
        raise ValueError(f"correlation table shape {t.shape} does not match signs {s.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("correlation table has missing or non-finite entries")
    if np.max(np.abs(t)) > 1.0 + 1e-12:
        raise ValueError("correlators must lie in [-1, 1]")
    return np.sum(s * t, axis=(-2, -1))


def classical_bound(n: int) -> int:
    """Noncontextual bound sum_{r=0}^{floor((n-1)/2)} (n - 2r) C(n, r), exact integer."""
    if n < 1:
        raise ValueError(f"bit count must be >= 1, got {n}")
    return sum((n - 2 * r) * math.comb(n, r) for r in range((n - 1) // 2 + 1))


def classical_bound_telescoped(n: int) -> int:
    """Closed form n * C(n-1, floor((n-1)/2)) of the telescoping sum."""
    if n < 1:
        raise ValueError(f"bit count must be >= 1, got {n}")
    return n * math.comb(n - 1, (n - 1) // 2)


def deterministic_max(signs: np.ndarray) -> int:
    """Exhaustive maximum of sum_ij s_ij A_i B_j over all sign assignments A, B in {-1, +1}.

    Independent oracle for classical_bound; search space 2^(rows + cols).
    """
    s = np.asarray(signs, dtype=int)
    rows, cols = s.shape
    if cols > _MAX_BRUTE_N:
        raise ValueError(
            f"brute-force search rejected: {cols} bits means 2^{(1 << (cols - 1)) + cols} cases"
        )
    a_all = np.array(list(product((1, -1), repeat=rows)), dtype=int)
    b_all = np.array(list(product((1, -1), repeat=cols)), dtype=int)
    values = a_all @ s @ b_all.T
    return int(values.max())


def quantum_max(n: int) -> float:
    """Maximal quantum value 2^(n-1) sqrt(n) of the n-bit expression."""
    if n < 1:
        raise ValueError(f"bit count must be >= 1, got {n}")
    return float(2 ** (n - 1)) * math.sqrt(n)


def algebraic_max(n: int) -> int:
    """Value with every correlator at +/-1 aligned to its sign: n * 2^(n-1)."""
    return n * (1 << (n - 1))


def success_from_bell(n: int, value: float | np.ndarray) -> float | np.ndarray:
    """Average success probability (1 + value / (n 2^(n-1))) / 2 of an n->1 code, elementwise."""
    cap = algebraic_max(n)
    outside = np.abs(value) > cap + 1e-9
    if np.any(outside):
        first = np.asarray(value)[outside][0]
        raise ValueError(f"expression value {first} outside algebraic range [-{cap}, {cap}]")
    return 0.5 * (1.0 + value / cap)


def violation_margin(n: int, value_quantum: float, value_classical: float) -> tuple[float, float]:
    """Violation beta = C_qm - C_cl and the matching success gain beta / (n 2^n)."""
    beta = value_quantum - value_classical
    return beta, beta / (n * (1 << n))
