"""The sampling tolerance rule: Z standard errors, each estimator stating its own SE.

A wrong variance formula would still pass most rows at Z = 5, so the standard
errors are calibrated directly: over a fixed range of seeds, the estimate's
deviation from the exact value, in units of its own SE, must look standard normal.
The rule must also never be looser than the hand-scaled bounds it replaced.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim import bell, cli, concat, mzi

SEEDS = range(400)  # fixed in advance, never chosen after looking at the result
SHOTS = 2000


def assert_standard_normal(z: np.ndarray) -> None:
    """Shares within 1 and 2 and the mean of 400 z-scores, each within 4 binomial SDs.

    The shares are 0.683 +- 4 x 0.023 and 0.954 +- 4 x 0.010; the mean is 0 +- 4 x 0.05.
    An SE off by a factor of sqrt(2) moves the first share to 0.52 or 0.84.
    """
    assert len(z) == len(SEEDS)
    assert 0.59 <= np.mean(np.abs(z) <= 1) <= 0.78
    assert 0.913 <= np.mean(np.abs(z) <= 2) <= 0.996
    assert abs(np.mean(z)) <= 0.2


def test_protocol_stderr_is_calibrated():
    state, settings_ = mzi.maximally_entangled_state(), mzi.protocol_settings(mzi.steering_bases())
    exact = bell.quantum_max(2)
    z = []
    for seed in SEEDS:
        value, stderr = mzi.protocol_value(mzi.sample_events(state, settings_, SHOTS, seed).counts)
        z.append((value - exact) / stderr)
    assert_standard_normal(np.array(z))


def test_rate_stderr_is_calibrated():
    tree = concat.build_tree(6)
    exact = concat.analytic_per_bit(tree)[0]
    z = []
    for seed in SEEDS:
        sim = concat.simulate(tree, [0] * 6, [0], SHOTS, seed, engine="born")
        rate = sim.successes[0] / sim.shots
        z.append((rate - exact) / cli._rate_stderr(rate, sim.shots))
    assert_standard_normal(np.array(z))


def hand_scaled(base: float, pinned_shots: float, shots: int) -> float:
    """The bound the rule replaced: ``base`` at ``pinned_shots``, widened as 1/sqrt(shots) below."""
    return base * max(1.0, math.sqrt(pinned_shots / shots))


def at_most(tolerance: float, bound: float) -> bool:
    # up to rounding: with every correlator 0 the expression's two bounds meet at 10/sqrt(N)
    return tolerance <= bound * (1 + 1e-12)


@st.composite
def protocol_counts(draw, shots: int):
    """Four settings' tallies of ``shots`` shots each, cut at three random points."""
    counts = []
    for _ in range(4):
        a, b, c = sorted(draw(st.integers(0, shots)) for _ in range(3))
        counts.append(mzi.DetectionCounts(a, b - a, c - b, shots - c))
    return counts


@settings(max_examples=300, deadline=None)
@given(shots=st.integers(2, 10**7), data=st.data())
def test_never_looser_than_the_hand_scaled_bounds(shots, data):
    _, tol_c, _, tol_p = cli._protocol_estimates(data.draw(protocol_counts(shots)), shots)
    assert at_most(tol_c, hand_scaled(0.01, 1e6, shots))
    assert at_most(tol_p, hand_scaled(0.002, 1e6, shots))
    rate = data.draw(st.integers(0, shots)) / shots
    tol_rate = cli._sampling_tolerance(cli._rate_stderr(rate, shots), shots)
    assert at_most(tol_rate, hand_scaled(0.01, 2e5, shots))
    # the product-form row's bound 1/sqrt(N) keeps its 5/sqrt(N)
    assert at_most(cli._sampling_tolerance(1 / math.sqrt(shots), shots), 5.0 / math.sqrt(shots))


def test_an_exact_distribution_gets_the_one_count_floor():
    counts = [mzi.DetectionCounts(0, 500, 500, 0)] * 3 + [mzi.DetectionCounts(500, 0, 0, 500)]
    value, tol_c, success, tol_p = cli._protocol_estimates(counts, 1000)
    assert (value, success) == (-4.0, 0.0)
    assert (tol_c, tol_p) == (cli.Z / 1000, cli.Z / 8000)
