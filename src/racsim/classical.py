"""Classical n->1 random access codes: deterministic strategies, enumeration, correlators."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterator

import numpy as np

# Full enumeration is 2^(2^n) * 4^n strategies: the count array scores up to
# n = 4 (16.7 M), a strategy-by-strategy scan up to n = 3 (16 384).
_SUMMARY_LIMIT = 4
_SCAN_LIMIT = 3
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


def brute_success(strategy: DeterministicStrategy) -> float:
    """Average of the success condition over every (string, bit) cell, uniform weights."""
    hits = 0
    for bits in bit_strings(strategy.n):
        message = strategy.message(bits)
        hits += sum(strategy.output(k, message) == bits[k] for k in range(strategy.n))
    return hits / (strategy.n << strategy.n)


def strategy_count(n: int) -> int:
    return (1 << (1 << n)) * 4**n


def _require_enumerable(n: int, limit: int) -> None:
    if n < 2 or n > limit:
        raise ValueError(
            f"enumeration supports 2 <= n <= {limit}; n={n} would mean {strategy_count(n)} strategies"
        )


def enumerate_deterministic(n: int) -> Iterator[tuple[DeterministicStrategy, float]]:
    """Yield every deterministic strategy exactly once, with its average success."""
    _require_enumerable(n, _SCAN_LIMIT)
    for encode in product((0, 1), repeat=1 << n):
        for decode in product(_DECODERS, repeat=n):
            strategy = DeterministicStrategy(n=n, encode=encode, decode=decode)
            yield strategy, brute_success(strategy)


@dataclass(frozen=True)
class EnumerationSummary:
    count: int
    max_average: float
    min_average: float


def enumeration_summary(n: int) -> EnumerationSummary:
    """Score every deterministic strategy at once, in enumeration order; report the extremes.

    Bob's answer to query k depends only on the message and his decoder for bit k,
    so ``hits[d, e, k]`` (strings whose bit k decoder d recovers under encode table
    e) summed over one decoder per bit gives every strategy's hit count, laid out
    in enumeration order.
    """
    _require_enumerable(n, _SUMMARY_LIMIT)
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
    cells = n * size
    return EnumerationSummary(
        count=totals.size,
        max_average=int(totals.max()) / cells,
        min_average=int(totals.min()) / cells,
    )


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
