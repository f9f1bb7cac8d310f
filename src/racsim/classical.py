"""Classical n->1 random access codes: deterministic strategies, enumeration, correlators."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterator

import numpy as np

# Full enumeration is 2^(2^n) * 4^n strategies: the count array scores up to
# n = 4 (16.7 M); one output row per strategy stops at n = 3 (16 384).
_SUMMARY_LIMIT = 4
_DUMP_LIMIT = 3
# Bob's per-bit decoders in enumeration order: the output for message 0, then for 1.
_DECODERS = tuple(product((0, 1), repeat=2))


def bit_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All n-bit strings as tuples, first bit most significant."""
    return product((0, 1), repeat=n)


def string_classes(n: int) -> np.ndarray:
    """Input class of every n-bit string, in ``bit_strings`` order.

    A class is the pattern of agreement with the first bit, read as a binary
    number, so it pairs each string with its bitwise complement and its rows
    match those of bell.sign_matrix. The two indices of a pair add up to
    2^n - 1, and the class is the lower one: the member whose first bit is 0.
    """
    index = np.arange(1 << n)
    return np.minimum(index, index[::-1])


def brute_success(n: int, encode, decode) -> float:
    """Average of the success condition over every (string, bit) cell, uniform weights.

    ``encode[s]`` is the message for string index s (first bit most significant)
    and ``decode[k][m]`` Bob's output for bit k on message m.
    """
    hits = sum(
        decode[k][encode[s]] == bits[k] for s, bits in enumerate(bit_strings(n)) for k in range(n)
    )
    return hits / (n << n)


def strategy_count(n: int) -> int:
    return (1 << (1 << n)) * 4**n


def _require_enumerable(n: int, limit: int) -> None:
    if n < 2 or n > limit:
        # the count is 2^exponent; past 2^64 it is written as that power, since the
        # integer's digits would soon exceed what str() formats (n = 14) or memory holds
        exponent = (1 << n) + 2 * n
        count = strategy_count(n) if exponent <= 64 else f"2^{exponent}"
        raise ValueError(f"enumeration supports 2 <= n <= {limit}; n={n} would mean {count} strategies")


def _encode_tables(n: int) -> np.ndarray:
    """Every encode table, (2^(2^n), 2^n): row E sends bit 2^n - 1 - x of E for string x."""
    size = 1 << n
    return ((np.arange(1 << size)[:, None] >> np.arange(size - 1, -1, -1)) & 1).astype(np.uint8)


def _hit_totals(n: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Bob's answers and the hit count of every strategy, in enumeration order.

    Strategy s = E 4^n + D pairs encode table E with the decoders that are the
    base-4 digits of D, bit 0's most significant. ``answers[d, E, x]`` is
    decoder d's output on the message of string x under table E. Bob's answer
    to query k depends only on the message and his decoder for bit k, so
    ``hits[d, E, k]`` (strings whose bit k decoder d recovers) summed over one
    decoder per bit gives ``totals[E, D]``, the hit count of strategy s.
    """
    _require_enumerable(n, limit)
    tables = 1 << (1 << n)
    strings = np.array(list(bit_strings(n)), dtype=np.uint8)
    answers = np.array(_DECODERS, dtype=np.uint8)[:, _encode_tables(n)]
    # totals reach n 2^n <= 64, so uint8 keeps n = 4 (16.7 M strategies) at ~17 MB
    hits = (answers[..., None] == strings).sum(axis=2, dtype=np.uint8)
    totals = np.zeros((tables, 1), dtype=np.uint8)
    for k in range(n):
        totals = (totals[:, :, None] + hits[:, :, k].T[:, None, :]).reshape(tables, -1)
    return answers, totals


@dataclass(frozen=True)
class EnumerationSummary:
    count: int
    max_average: float
    min_average: float


def enumeration_summary(n: int) -> EnumerationSummary:
    """Score every deterministic strategy at once, in enumeration order; report the extremes."""
    _, totals = _hit_totals(n, _SUMMARY_LIMIT)
    cells = n << n
    return EnumerationSummary(
        count=totals.size,
        max_average=int(totals.max()) / cells,
        min_average=int(totals.min()) / cells,
    )


def strategy_rows(n: int) -> list[tuple[int, float, list]]:
    """(strategy id, average success, correlator table) of every strategy, in enumeration order.

    The id holds the encode table's bits, low bit first, then each decoder's
    output for message 0 and for message 1. Correlator (i, k) averages
    (-1)^(first bit) * (-1)^(Bob's output for bit k) over the two strings of
    class i; plugged into the sign matrix these reproduce the exact
    success/expression identity for every strategy.
    """
    answers, totals = _hit_totals(n, _DUMP_LIMIT)
    size = 1 << n
    decoders = (np.arange(4**n)[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3
    encode_ids = _encode_tables(n).astype(np.int64) @ (1 << np.arange(size))
    decoder_ids = (np.array(_DECODERS) @ (1, 2))[decoders] << (size + 2 * np.arange(n))
    ids = encode_ids[:, None] | decoder_ids.sum(axis=1)
    # signed answers, times the first bit's sign, summed over each class's two strings
    first = np.arange(size) >> (n - 1)
    signed = (1 - 2 * answers.astype(np.int8)) * (1 - 2 * first)
    members = string_classes(n)[:, None] == np.arange(size >> 1)
    per_decoder = signed @ members.astype(np.int8) // 2
    tables = per_decoder[decoders].transpose(2, 0, 3, 1).reshape(-1, size >> 1, n)
    averages = totals.ravel() / (n << n)
    return list(zip(ids.ravel().tolist(), averages.tolist(), tables.astype(float).tolist()))


def optimal_classical_formula(n: int) -> float:
    """Optimal classical success 1/2 + C(n-1, floor((n-1)/2)) / 2^n."""
    if n < 1:
        raise ValueError(f"bit count must be >= 1, got {n}")
    return 0.5 + comb(n - 1, (n - 1) // 2) / (1 << n)
