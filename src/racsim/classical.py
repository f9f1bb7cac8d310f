"""Classical n->1 random access codes: deterministic strategies, enumeration, correlators."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterator

import numpy as np

from .bell import sign_matrix, success_from_bell

# Full enumeration is 2^(2^n) * 4^n strategies; n = 4 is allowed only behind a flag.
_ENUM_DEFAULT_LIMIT = 3
_ENUM_HARD_LIMIT = 4
# Bob's per-bit decoders in enumeration order: the output for message 0, then for 1.
_DECODERS = tuple(product((0, 1), repeat=2))


def bit_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All n-bit strings as tuples, first bit most significant."""
    return product((0, 1), repeat=n)


def string_index(bits: tuple[int, ...]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def class_index(bits: tuple[int, ...]) -> int:
    """Index of the input class of ``bits``: the pattern of agreement with the first bit.

    Classes pair each string with its bitwise complement and are ordered to match
    the rows of bell.sign_matrix.
    """
    idx = 0
    for b in bits[1:]:
        idx = (idx << 1) | (b ^ bits[0])
    return idx


def class_members(n: int, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two strings (leading bit 0, leading bit 1) forming class ``index``."""
    flips = [(index >> (n - 1 - j)) & 1 for j in range(1, n)]
    base = tuple([0] + flips)
    return base, tuple(1 - b for b in base)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Alice's encoding table plus Bob's per-bit decoding tables.

    ``encode`` maps every n-bit string (by index, first bit most significant) to the
    transmitted message bit; ``decode[k]`` maps the received message to Bob's output
    when he is asked for bit k.
    """

    n: int
    encode: tuple[int, ...]
    decode: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.encode) != 1 << self.n:
            raise ValueError(f"encode table must cover all {1 << self.n} strings")
        if len(self.decode) != self.n:
            raise ValueError(f"need one decoder per bit, got {len(self.decode)}")
        for table in (self.encode, *self.decode):
            if any(b not in (0, 1) for b in table):
                raise ValueError("encode/decode tables must contain bits")

    def message(self, bits: tuple[int, ...]) -> int:
        return self.encode[string_index(bits)]

    def output(self, k: int, message: int) -> int:
        return self.decode[k][message]

    @property
    def strategy_id(self) -> int:
        """Stable integer id: encode table bits, then decoder tables, low bits first."""
        ident = 0
        shift = 0
        for b in self.encode:
            ident |= b << shift
            shift += 1
        for table in self.decode:
            for b in table:
                ident |= b << shift
                shift += 1
        return ident


@dataclass(frozen=True)
class StrategyMixture:
    """Convex mixture of deterministic strategies drawn independently of the input."""

    components: tuple[tuple[float, DeterministicStrategy], ...]

    def __post_init__(self):
        weights = [w for w, _ in self.components]
        if any(w < 0 for w in weights):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {sum(weights)}")


@dataclass(frozen=True)
class SuccessReport:
    """Per-cell success indicators over all (string, queried bit) pairs, plus the mean."""

    per_cell: dict[tuple[tuple[int, ...], int], float]
    average: float

    def average_fraction(self) -> Fraction:
        total = Fraction(0)
        for v in self.per_cell.values():
            total += Fraction(v)
        return total / len(self.per_cell)


def brute_success(strategy: DeterministicStrategy) -> SuccessReport:
    """Evaluate the success condition on every (string, bit) cell, uniform weights."""
    per_cell: dict[tuple[tuple[int, ...], int], float] = {}
    hits = 0
    for bits in bit_strings(strategy.n):
        message = strategy.message(bits)
        for k in range(strategy.n):
            ok = strategy.output(k, message) == bits[k]
            per_cell[(bits, k)] = 1.0 if ok else 0.0
            hits += ok
    return SuccessReport(per_cell=per_cell, average=hits / len(per_cell))


def mixed_success(mixture: StrategyMixture) -> float:
    """Average success of a strategy mixture: convex combination of member averages."""
    return sum(w * brute_success(s).average for w, s in mixture.components)


def strategy_count(n: int) -> int:
    return (1 << (1 << n)) * 4**n


def _require_enumerable(n: int, allow_large: bool) -> None:
    limit = _ENUM_HARD_LIMIT if allow_large else _ENUM_DEFAULT_LIMIT
    if n < 2 or n > limit:
        raise ValueError(
            f"enumeration rejected for n={n}: {strategy_count(n)} strategies"
            + ("" if allow_large else " (pass allow_large=True for n=4)")
        )


def enumerate_deterministic(
    n: int, allow_large: bool = False
) -> Iterator[tuple[DeterministicStrategy, SuccessReport]]:
    """Yield every deterministic strategy exactly once, with its success report."""
    _require_enumerable(n, allow_large)
    for encode in product((0, 1), repeat=1 << n):
        for decode in product(_DECODERS, repeat=n):
            strategy = DeterministicStrategy(n=n, encode=encode, decode=decode)
            yield strategy, brute_success(strategy)


@dataclass(frozen=True)
class EnumerationSummary:
    n: int
    count: int
    max_average: float
    min_average: float
    best_id: int
    worst_id: int


def enumeration_summary(n: int, allow_large: bool = False) -> EnumerationSummary:
    """Score every strategy of ``enumerate_deterministic`` at once; report the extremes.

    Bob's answer to query k depends only on the message and his decoder for bit k,
    so ``hits[d, e, k]`` (strings whose bit k decoder d recovers under encode table
    e) summed over one decoder per bit gives every strategy's hit count, laid out
    in enumeration order. ``argmax``/``argmin`` pick the first extreme, as a
    strict scan in that order does.
    """
    _require_enumerable(n, allow_large)
    size = 1 << n
    tables = 1 << size
    strings = np.array(list(bit_strings(n)), dtype=np.uint8)
    encode = ((np.arange(tables)[:, None] >> np.arange(size - 1, -1, -1)) & 1).astype(np.uint8)
    answers = np.array(_DECODERS, dtype=np.uint8)[:, encode]
    # totals reach n 2^n <= 64, so uint8 keeps n = 4 (16.7 M strategies) at ~17 MB
    hits = (answers[..., None] == strings).sum(axis=2, dtype=np.uint8)
    totals = np.zeros((tables, 1), dtype=np.uint8)
    for k in range(n):
        totals = (totals[:, :, None] + hits[:, :, k].T[:, None, :]).reshape(tables, -1)
    best, worst = int(totals.argmax()), int(totals.argmin())
    cells = n * size
    return EnumerationSummary(
        n=n,
        count=totals.size,
        max_average=int(totals.flat[best]) / cells,
        min_average=int(totals.flat[worst]) / cells,
        best_id=_strategy_at(n, best, encode).strategy_id,
        worst_id=_strategy_at(n, worst, encode).strategy_id,
    )


def _strategy_at(n: int, flat: int, encode: np.ndarray) -> DeterministicStrategy:
    """The strategy at position ``flat`` of the enumeration order."""
    table, choice = divmod(flat, 4**n)
    decode = tuple(_DECODERS[(choice >> (2 * (n - 1 - k))) & 3] for k in range(n))
    return DeterministicStrategy(n=n, encode=tuple(int(b) for b in encode[table]), decode=decode)


def optimal_classical_formula(n: int) -> float:
    """Optimal classical success 1/2 + C(n-1, floor((n-1)/2)) / 2^n."""
    if n < 1:
        raise ValueError(f"bit count must be >= 1, got {n}")
    return 0.5 + comb(n - 1, (n - 1) // 2) / (1 << n)


def reference_correlators(strategy: DeterministicStrategy) -> np.ndarray:
    """Reference-bit correlators per (class, queried bit).

    Entry (i, k) averages (-1)^(first bit) * (-1)^(Bob's output for bit k) over the
    two strings of class i. Plugged into the sign matrix these reproduce the exact
    success/expression identity for every deterministic strategy.
    """
    n = strategy.n
    table = np.zeros((1 << (n - 1), n))
    for i in range(1 << (n - 1)):
        for bits in class_members(n, i):
            message = strategy.message(bits)
            ref_sign = -1.0 if bits[0] else 1.0
            for k in range(n):
                out_sign = -1.0 if strategy.output(k, message) else 1.0
                table[i, k] += 0.5 * ref_sign * out_sign
    return table


def success_from_correlators(strategy: DeterministicStrategy) -> float:
    """Success average recomputed through the sign-matrix expression."""
    value = float(np.sum(sign_matrix(strategy.n) * reference_correlators(strategy)))
    return success_from_bell(strategy.n, value)


def first_bit_strategy(n: int) -> DeterministicStrategy:
    """Send the first bit; Bob repeats the received bit for every query."""
    encode = tuple(bits[0] for bits in bit_strings(n))
    return DeterministicStrategy(n=n, encode=encode, decode=((0, 1),) * n)


def majority_strategy(n: int, invert_encode: bool = False, invert_decode: bool = False) -> DeterministicStrategy:
    """Majority encoding (ties round up) with identity decoding, optionally inverted."""
    encode = []
    for bits in bit_strings(n):
        maj = 1 if 2 * sum(bits) >= n else 0
        encode.append(maj ^ (1 if invert_encode else 0))
    decoder = (1, 0) if invert_decode else (0, 1)
    return DeterministicStrategy(n=n, encode=tuple(encode), decode=(decoder,) * n)


def constant_strategy(n: int, message: int = 0, output: int = 0) -> DeterministicStrategy:
    """Alice always sends ``message``; Bob always answers ``output``."""
    return DeterministicStrategy(
        n=n, encode=(message,) * (1 << n), decode=((output, output),) * n
    )
