"""Mach-Zehnder path-spin interferometer: analyzer settings, Born sampling, count estimators."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import qcore
from .bell import bell_value, sign_matrix
from .qcore import maximally_entangled_state  # noqa: F401  perfbench/workloads.py reads it here

# Shots drawn per block by the mzi and concat samplers: a block's scratch stays in cache.
BLOCK = 1 << 15


def path_direction(theta: float, phi: float) -> np.ndarray:
    """Bloch direction measured by the recombining stage at angles (theta, phi)."""
    return np.array(
        [
            math.sin(2 * theta) * math.cos(phi),
            math.sin(2 * theta) * math.sin(phi),
            -math.cos(2 * theta),
        ]
    )


def angles_for_direction(direction) -> tuple[float, float]:
    """Analyzer angles (theta, phi) whose recombining stage measures along ``direction``."""
    vec = qcore.require_unit(direction)
    theta = 0.5 * math.acos(max(-1.0, min(1.0, -vec[2])))
    phi = math.atan2(vec[1], vec[0])
    return theta, phi


@dataclass(frozen=True)
class Setting:
    """One joint measurement configuration, with optional (i, j) labels for reports."""

    theta: float
    phi: float
    spin_axis: np.ndarray
    label: tuple[int, int] | None = None

    def __post_init__(self):
        # the recombining stage turns by 2 theta, which must stay finite too
        if not (math.isfinite(2 * self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"2 theta and phi must be finite, got {self.theta}, {self.phi}")
        object.__setattr__(self, "spin_axis", qcore.require_unit(self.spin_axis))


def stream(seed: int, stream_id: int, start: int = 0, lane: int = 0) -> np.random.Philox:
    """Counter-based bit generator for (seed, stream_id), positioned at 64-bit word ``start``.

    Philox advances in blocks of four words, so position by whole blocks and
    discard the remainder: from any start, the words are those the stream read
    from word 0 gives there. ``lane`` is counter word 2. The samplers draw from
    lane 0 and read lane 1, the tie lane, only to settle a draw that ties a
    threshold (``fill_passes``).
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=[0, 0, lane, 0])
    if start:
        bitgen.advance(start // 4)
    if start % 4:
        bitgen.random_raw(start % 4)
    return bitgen


# Each width's carry of no units, shared: a stream that opens on a word edge carries none
_NO_UNITS = {1: np.empty(0, dtype=np.uint8), 32: np.empty(0, dtype=np.uint32)}


class Units:
    """Stream (seed, stream_id) read as ``width``-bit units, 1 or 32, from unit ``start`` on.

    Unit k is bits w j .. w (j + 1) - 1 of word k // m, for w = ``width``,
    m = 64 // w and j = k mod m: each word is read from its low bits up. The
    stream opens at word start // m and drops the start mod m units before
    ``start``. Where a take ends inside a word, the word's unused units, fewer
    than m and copied, serve the next take first, so any cut of the units
    reads the same values and a carry never pins a whole block.
    """

    __slots__ = ("bitgen", "width", "carried")

    def __init__(self, seed: int, stream_id: int, start: int, width: int):
        per_word = 64 // width
        self.bitgen = stream(seed, stream_id, start // per_word)
        self.width = width
        self.carried = _NO_UNITS[width]
        if start % per_word:
            self.take(start % per_word)

    def take(self, size: int) -> np.ndarray:
        """The next ``size`` units: bits as uint8 at width 1, uint32 at width 32."""
        carried = self.carried
        need = size - len(carried)
        if need <= 0:
            self.carried = carried[size:]
            return carried[:size]
        words = self.bitgen.random_raw(-(-need * self.width // 64)).astype("<u8", copy=False)
        fresh = words.view("<u4") if self.width == 32 else np.unpackbits(words.view(np.uint8), bitorder="little")
        self.carried = fresh[need:].copy()
        return np.concatenate((carried, fresh[:need])) if len(carried) else fresh[:need]


# A threshold K's low bits, below a 32-bit draw's: K = q 2^TIE_BITS + r
TIE_BITS = 21


def split_thresholds(ks) -> tuple[np.ndarray, np.ndarray]:
    """uint64 (q, r) of each threshold K from ``thresholds``: K = q 2^TIE_BITS + r, as ``fill_passes`` reads it."""
    ks = np.asarray(ks, dtype=np.uint64)
    return ks >> TIE_BITS, ks & ((1 << TIE_BITS) - 1)


def fill_passes(masks, h: np.ndarray, q, r, lane: tuple[int, int, int], ties: np.ndarray, index=None) -> None:
    """Set ``masks[j]`` where the uint32 draws ``h`` pass threshold j, K = q_j 2^TIE_BITS + r_j.

    With ``lane = (seed, stream_id, first)``, h[i] is draw first + i of stream
    (seed, stream_id). Its 53-bit x = h 2^TIE_BITS + t passes K, x >= K, where
    h > q, or where h = q and t >= r; t is the top TIE_BITS bits of word
    first + i of the stream's tie lane. Only a tie with r != 0 reads t, once
    per draw however many thresholds it ties, so masks of rising K nest.

    Either q and r hold one Python int per mask (a uint64 scalar would promote
    the block to uint64) and ``ties`` is one bool row of scratch; or, given
    ``index``, q is a uint32 array shaped like ``masks`` with each draw's q,
    draw i's r_j is r[j][index[i]], and ``ties`` is bool scratch of that shape.
    """
    tied = []
    if index is None:
        for j, (q_j, r_j) in enumerate(zip(q, r)):
            if q_j > 0xFFFFFFFF:  # K = 2^53 passes no draw; numpy compares an out-of-range int slowly
                masks[j].fill(False)
            elif not r_j:
                np.greater_equal(h, q_j, out=masks[j])
            else:
                np.greater(h, q_j, out=masks[j])
                if np.equal(h, q_j, out=ties).any():
                    draws = np.flatnonzero(ties)
                    tied.append((j, draws, np.full(len(draws), r_j)))
    else:
        np.greater(h, q, out=masks)
        if np.equal(h, q, out=ties).any():
            for j, row in enumerate(ties):
                draws = np.flatnonzero(row)
                tied.append((j, draws, r[j][index[draws]]))
    if not tied:
        return
    seed, stream_id, first = lane
    tie_words: dict[int, int] = {}
    for j, draws, lows in tied:
        for i, low in zip(draws.tolist(), lows.tolist()):
            if low and i not in tie_words:
                word = stream(seed, stream_id, first + i, lane=1).random_raw(1)[0]
                tie_words[i] = int(word) >> (64 - TIE_BITS)
            masks[j][i] = not low or tie_words[i] >= low


def born_probabilities(state: qcore.PureState, settings: Sequence[Setting]) -> np.ndarray:
    """One Born table row per setting: P(path+,spin+), P(path+,spin-), P(path-,spin+), P(path-,spin-)."""
    paths = np.array([path_direction(s.theta, s.phi) for s in settings]).reshape(-1, 3)
    spins = np.array([s.spin_axis for s in settings]).reshape(-1, 3)
    probs = np.clip(qcore.joint_table(state, paths, spins).reshape(-1, 4), 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def thresholds(probs) -> np.ndarray:
    """uint64 K with ``x >= K`` exactly where ``x * 2^-53 >= probs``, for every 53-bit integer x.

    numpy builds a Philox double x * 2^-53 from 53 bits of one word. For c in
    [0, 1], c * 2^53 and its ceiling are exact doubles, so the integer x reaches
    c * 2^53 exactly when x >= ceil(c * 2^53). Every x passes a c below 0
    (K = 0); none passes a c above 1 or NaN (K = 2^53). The samplers build x
    from a 32-bit draw and, on a tie, 21 bits of the tie lane (``fill_passes``).
    """
    c = np.asarray(probs, dtype=float)
    return np.ceil(np.where(c <= 1.0, np.maximum(c, 0.0), 1.0) * 2.0**53).astype(np.uint64)


def sample_setting(
    probs: np.ndarray,
    shots: int,
    seed: int,
    setting_index: int,
    start: int,
    path_bits: np.ndarray | None = None,
    spin_bits: np.ndarray | None = None,
) -> np.ndarray:
    """Draw ``shots`` i.i.d. joint outcomes of one setting, starting at shot ``start``.

    ``probs`` is that setting's row of ``born_probabilities``. Returns the 4
    tallies in the same order; given the uint8 arrays ``path_bits`` and
    ``spin_bits`` (length ``shots``), also writes each shot's path and spin bit
    into them. Draws come ``BLOCK`` at a time and the masks reuse one block of
    scratch, so scratch does not grow with ``shots``.

    Shot k's draw h is 32-bit unit k of stream (seed, setting_index): half
    k mod 2 of word k // 2, low half first. Its uniform is x 2^-53 with
    x = h 2^21 + t, where t is the top 21 bits of word k of the tie lane, and
    ``fill_passes`` compares x with each threshold K = q 2^21 + r from
    ``thresholds``. So h alone decides but for a tie, h = q with r != 0, which
    a shot meets with probability 2^-32, and only a tie reads the tie lane.
    """
    # a draw's outcome is the number of cumulative probabilities its x reaches,
    # as searchsorted(cumsum(probs), x 2^-53, side="right") counts them; the masks
    # nest (K0 <= K1 <= K2), so the outcome's high bit, the path bit, is the middle
    # mask, and its parity, the spin bit, is the XOR of all three
    q, r = (part.tolist() for part in split_thresholds(thresholds(np.cumsum(probs)[:3])))
    draws = Units(seed, setting_index, start, 32)
    scratch = np.empty((4, min(shots, BLOCK)), dtype=bool)
    n0 = n1 = n2 = 0
    for lo in range(0, shots, BLOCK):
        hi = min(lo + BLOCK, shots)
        h = draws.take(hi - lo)
        m0, m1, m2, tie = scratch[:, : hi - lo]
        if path_bits is not None:
            m1 = path_bits[lo:hi].view(bool)
        fill_passes((m0, m1, m2), h, q, r, (seed, setting_index, start + lo), tie)
        if spin_bits is not None:
            spin = np.bitwise_xor(m0, m1, out=spin_bits[lo:hi].view(bool))
            spin ^= m2
        n0 += np.count_nonzero(m0)
        n1 += np.count_nonzero(m1)
        n2 += np.count_nonzero(m2)
    return np.array([shots - n0, n0 - n1, n1 - n2, n2], dtype=np.int64)


def _partition(shots: int, workers: int) -> list[tuple[int, int]]:
    # at most ``workers`` even spans; ``stream`` resumes each at its first shot,
    # so the spans need no alignment. Zero shots is one empty span
    step = -(-shots // max(1, workers))
    return [(lo, min(lo + step, shots)) for lo in range(0, shots or 1, max(step, 1))]


def map_spans(task: Callable[[int, int], object], shots: int, workers: int) -> list:
    """``[task(lo, hi) for lo, hi in _partition(shots, workers)]``, in span order.

    min(spans, CPU count) threads run them, dealt round-robin: the caller runs
    spans 0, threads, 2 threads, ... after submitting each other thread's share
    to a pool. Submitted one span at a time, every span could go to the first
    pool thread while the caller waits for the interpreter lock.
    """
    spans = _partition(shots, workers)
    threads = min(len(spans), os.cpu_count() or 1)
    if threads == 1:
        return [task(*span) for span in spans]

    def share(first: int) -> list:
        return [task(*span) for span in spans[first::threads]]

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        rest = pool.map(share, range(1, threads))
        shares = [share(0), *rest]
    return [shares[k % threads][k // threads] for k in range(len(spans))]


def counts_from_outcomes(path_bits: np.ndarray, spin_bits: np.ndarray) -> np.ndarray:
    """The 4 tallies of one setting's outcome bits, in ``born_probabilities`` order."""
    return np.bincount(2 * path_bits + spin_bits, minlength=4)


@dataclass(frozen=True, eq=False)
class SamplingResult:
    """Per setting, in the same outcome order: the Born row drawn from, its int64 tallies, and its bits.

    ``outcomes`` holds each setting's (path bits, spin bits) uint8 arrays, or
    is empty when the run was sampled without its events.
    """

    probs: np.ndarray
    counts: np.ndarray
    outcomes: tuple[tuple[np.ndarray, np.ndarray], ...]


def sample_events(
    state: qcore.PureState,
    settings: Sequence[Setting],
    shots_per_setting: int,
    seed: int,
    workers: int = 1,
    events: bool = False,
) -> SamplingResult:
    """Sample every setting independently, all settings per shot span; identical for any worker count.

    Each shot's outcome bits are kept, 2 B per shot and setting, only with ``events``.
    """
    if shots_per_setting < 0:
        raise ValueError("shots must be nonnegative")

    probs = born_probabilities(state, settings)
    # per setting, its path and spin bit rows; without events no rows, and no bits are written
    bits = [np.empty((2 if events else 0, shots_per_setting), dtype=np.uint8) for _ in probs]

    def span(lo: int, hi: int) -> list[np.ndarray]:
        return [
            sample_setting(row, hi - lo, seed, s_idx, lo, *bits[s_idx][:, lo:hi])
            for s_idx, row in enumerate(probs)
        ]

    counts = np.sum(map_spans(span, shots_per_setting, workers), axis=0, dtype=np.int64)
    return SamplingResult(probs, counts, tuple(map(tuple, bits)) if events else ())


# each outcome's product of the path and spin signs, in ``born_probabilities`` order
OUTCOME_SIGNS = np.array([1, -1, -1, 1])


def correlators(table: np.ndarray) -> np.ndarray:
    """Signed outcome sum over the row total of each ``(..., 4)`` row.

    On tallies this is the joint-frequency estimate; on Born rows, the exact correlator.
    """
    totals = np.sum(table, axis=-1)
    if np.any(totals <= 0):
        raise ValueError("correlator undefined for zero shots")
    return table @ OUTCOME_SIGNS / totals


def correlator_product_form(counts: np.ndarray) -> float:
    """Product of the path-port asymmetry and the summed per-port spin asymmetries of one tally row.

    Evaluated on count fractions. On maximally entangled states the path factor
    vanishes, so this can disagree with the joint-frequency correlator; it is kept
    for side-by-side reporting, not for the estimation pipeline.
    """
    n_plus, n_minus, m_plus, m_minus = (int(c) for c in counts)
    total = n_plus + n_minus + m_plus + m_minus
    if total < 1:
        raise ValueError("correlator undefined for zero shots")
    return (n_plus + n_minus - m_plus - m_minus) / total * ((n_plus - n_minus + m_plus - m_minus) / total)


def protocol_settings(alice: np.ndarray, bob: np.ndarray) -> list[Setting]:
    """All (class, bit) setting pairs in row-major order, labeled 1-based."""
    settings = []
    for i, alice_dir in enumerate(alice):
        theta, phi = angles_for_direction(alice_dir)
        for j, spin_axis in enumerate(bob):
            settings.append(
                Setting(theta=theta, phi=phi, spin_axis=spin_axis, label=(i + 1, j + 1))
            )
    return settings


def protocol_value(table: np.ndarray) -> float:
    """Two-bit expression from the four ``protocol_settings``' rows of tallies or Born rows.

    The settings measure the path along each of Alice's directions and the spin
    along each of Bob's; the expression is the signed sum of their correlators,
    and ``bell.success_from_bell(2, value)`` turns it into a success rate. On
    tallies this is the estimate, on the Born rows the exact value.
    """
    if len(table) != 4:
        raise ValueError(f"the two-bit protocol has 4 settings, got {len(table)} rows")
    return float(bell_value(correlators(table).reshape(2, 2), sign_matrix(2)))
