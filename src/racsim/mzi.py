"""Mach-Zehnder path-spin interferometer: state preparation, Born sampling, count estimators."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import qcore
from .bell import bell_value, sign_matrix
from .qrac import MeasurementBases, default_bases

# Shots drawn per block by the mzi and concat samplers: a block's scratch stays in cache.
BLOCK = 1 << 15


def entangled_state(transmission: float, reflection: float, prep_phase: float) -> qcore.PureState:
    """Path-spin state a |up_p down_z> + b e^(i delta) |down_p up_z> after the first splitter.

    Basis order: |up_p up_z>, |up_p down_z>, |down_p up_z>, |down_p down_z>.
    """
    if not abs(transmission**2 + reflection**2 - 1.0) <= qcore.ATOL:  # NaN fails too
        raise ValueError("transmission^2 + reflection^2 must equal 1")
    amps = np.zeros(4, dtype=complex)
    amps[1] = transmission
    amps[2] = reflection * np.exp(1j * prep_phase)
    return qcore.PureState(amps)


def maximally_entangled_state() -> qcore.PureState:
    """Balanced splitter with a pi phase: the singlet-like path-spin state."""
    return entangled_state(1.0 / math.sqrt(2), 1.0 / math.sqrt(2), math.pi)


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


@dataclass(frozen=True)
class DetectionCounts:
    """Spin +/- tallies behind the two path output ports for one setting.

    ``n_*`` counts sit behind the positive path port, ``m_*`` behind the negative
    one; ``*_plus``/``*_minus`` split each port by spin outcome.
    """

    n_plus: int
    n_minus: int
    m_plus: int
    m_minus: int

    @property
    def path_plus(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def path_minus(self) -> int:
        return self.m_plus + self.m_minus

    @property
    def shots(self) -> int:
        return self.path_plus + self.path_minus


def stream(seed: int, stream_id: int, start: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream_id), positioned at draw ``start``.

    Philox advances in blocks of four 64-bit outputs, so position by whole blocks
    and discard the remainder; each sampled shot consumes exactly one draw, which
    makes any partition of the shot range reproduce the unpartitioned stream.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    if start:
        bitgen.advance(start // 4)
    gen = np.random.Generator(bitgen)
    if start % 4:
        gen.random(start % 4)
    return gen


def born_probabilities(state: qcore.PureState, setting: Setting) -> np.ndarray:
    """Joint outcome probabilities [(path+,spin+), (path+,spin-), (path-,spin+), (path-,spin-)]."""
    table = qcore.joint_table(state, path_direction(setting.theta, setting.phi), setting.spin_axis)
    probs = np.clip(table.ravel(), 0.0, None)
    return probs / probs.sum()


def sample_setting(
    state: qcore.PureState,
    setting: Setting,
    shots: int,
    seed: int,
    setting_index: int,
    start: int,
    path_bits: np.ndarray,
    spin_bits: np.ndarray,
) -> np.ndarray:
    """Draw ``shots`` i.i.d. joint outcomes for one setting, starting at shot ``start``.

    Writes each shot's outcome bits into ``path_bits`` and ``spin_bits`` (length
    ``shots``) and returns the 4 tallies in ``born_probabilities`` order. Uniforms
    are drawn ``BLOCK`` at a time into one reused buffer, so scratch memory does
    not grow with ``shots``.
    """
    cum = np.cumsum(born_probabilities(state, setting))
    cum[-1] = 1.0
    gen = stream(seed, setting_index, start)
    uniforms = np.empty(min(shots, BLOCK))
    joint = np.empty(len(uniforms), dtype=np.uint8)
    tallies = np.zeros(4, dtype=np.int64)
    for lo in range(0, shots, BLOCK):
        hi = min(lo + BLOCK, shots)
        u, o = uniforms[: hi - lo], joint[: hi - lo]
        gen.random(out=u)
        # for nondecreasing cum with cum[3] = 1 > u this equals
        # searchsorted(cum, u, side="right"), bit for bit
        np.greater_equal(u, cum[0], out=o)
        o += u >= cum[1]
        o += u >= cum[2]
        tallies += np.bincount(o, minlength=4)
        np.right_shift(o, 1, out=path_bits[lo:hi])
        np.bitwise_and(o, 1, out=spin_bits[lo:hi])
    return tallies


def _partition(shots: int, workers: int) -> list[tuple[int, int]]:
    # block-of-4 aligned chunks so each worker resumes the stream exactly;
    # zero shots is one empty span
    workers = max(1, workers)
    step = -(-shots // workers)
    step += (-step) % 4
    return [(lo, min(lo + step, shots)) for lo in range(0, shots or 1, max(step, 4))]


def map_spans(task: Callable[[int, int], object], shots: int, workers: int) -> list:
    """``[task(lo, hi) for lo, hi in _partition(shots, workers)]``, in span order.

    One span runs inline. Several run on one pool of min(spans, CPU count)
    threads, so ``workers`` sets the partition but not the thread count.
    """
    spans = _partition(shots, workers)
    if len(spans) == 1:
        return [task(*spans[0])]
    with ThreadPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
        return list(pool.map(lambda span: task(*span), spans))


def counts_from_outcomes(path_bits: np.ndarray, spin_bits: np.ndarray) -> DetectionCounts:
    tallies = np.bincount(2 * path_bits + spin_bits, minlength=4)
    return DetectionCounts(
        n_plus=int(tallies[0]),
        n_minus=int(tallies[1]),
        m_plus=int(tallies[2]),
        m_minus=int(tallies[3]),
    )


@dataclass(frozen=True)
class SamplingResult:
    """Per-setting tallies and the (path bits, spin bits) uint8 arrays they came from."""

    counts: tuple[DetectionCounts, ...]
    outcomes: tuple[tuple[np.ndarray, np.ndarray], ...]


def sample_events(
    state: qcore.PureState,
    settings: Sequence[Setting],
    shots_per_setting: int,
    seed: int,
    workers: int = 1,
) -> SamplingResult:
    """Sample every setting independently; results are identical for any worker count."""
    if shots_per_setting < 0:
        raise ValueError("shots must be nonnegative")

    counts, outcomes = [], []
    for s_idx, setting in enumerate(settings):
        path_bits = np.empty(shots_per_setting, dtype=np.uint8)
        spin_bits = np.empty(shots_per_setting, dtype=np.uint8)
        tallies = map_spans(
            lambda lo, hi: sample_setting(
                state, setting, hi - lo, seed, s_idx, lo, path_bits[lo:hi], spin_bits[lo:hi]
            ),
            shots_per_setting,
            workers,
        )
        counts.append(DetectionCounts(*(int(t) for t in sum(tallies))))
        outcomes.append((path_bits, spin_bits))
    return SamplingResult(counts=tuple(counts), outcomes=tuple(outcomes))


def correlator_from_counts(counts: DetectionCounts) -> float:
    """Joint-frequency correlator: signed outcome products averaged over shots."""
    if counts.shots < 1:
        raise ValueError("correlator undefined for zero shots")
    return (counts.n_plus - counts.n_minus - counts.m_plus + counts.m_minus) / counts.shots


def correlator_product_form(counts: DetectionCounts) -> float:
    """Product of the path-port asymmetry and the summed per-port spin asymmetries.

    Evaluated on count fractions. On maximally entangled states the path factor
    vanishes, so this can disagree with the joint-frequency correlator; it is kept
    for side-by-side reporting, not for the estimation pipeline.
    """
    if counts.shots < 1:
        raise ValueError("correlator undefined for zero shots")
    total = counts.shots
    path_asym = (counts.path_plus - counts.path_minus) / total
    spin_asym = (
        (counts.n_plus - counts.n_minus) + (counts.m_plus - counts.m_minus)
    ) / total
    return path_asym * spin_asym


def steering_bases() -> MeasurementBases:
    """Analyzer directions that realize the two-bit protocol bases on the entangled state.

    The shared state anti-correlates path and spin, so measuring the path along the
    negated class direction leaves the spin side in the intended preparation for
    outcome bit 0.
    """
    bases = default_bases(2)
    return MeasurementBases(alice=-np.asarray(bases.alice), bob=np.asarray(bases.bob))


def protocol_settings(bases: MeasurementBases) -> list[Setting]:
    """All (class, bit) setting pairs in row-major order, labeled 1-based."""
    settings = []
    for i, alice_dir in enumerate(bases.alice):
        theta, phi = angles_for_direction(alice_dir)
        for j, spin_axis in enumerate(bases.bob):
            settings.append(
                Setting(theta=theta, phi=phi, spin_axis=spin_axis, label=(i + 1, j + 1))
            )
    return settings


def protocol_value(counts: Sequence[DetectionCounts]) -> tuple[float, float]:
    """Two-bit expression estimate and its standard error from the four ``protocol_settings``' counts.

    The settings measure the path along each of Alice's directions and the spin
    along each of Bob's; the estimate is the signed sum of their joint-frequency
    correlators, and ``bell.success_from_bell(2, value)`` turns it into a success
    estimate. A correlator E over N shots averages N outcomes of +-1, so its
    variance is (1 - E^2)/N; the settings draw independent streams, so the four
    variances add.
    """
    if len(counts) != 4:
        raise ValueError(f"the two-bit protocol has 4 settings, got {len(counts)} counts")
    correlators = np.array([correlator_from_counts(c) for c in counts])
    variance = sum((1.0 - e * e) / c.shots for e, c in zip(correlators, counts))
    return bell_value(correlators.reshape(2, 2), sign_matrix(2)), math.sqrt(variance)
