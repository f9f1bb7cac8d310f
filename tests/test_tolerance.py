"""The sampling tolerance rule: Z standard errors of the sampled distribution, at the row's target.

A wrong variance formula would still pass most rows at Z = 5, so the standard
errors are calibrated directly: over a fixed range of seeds, the estimate's
deviation from the exact value, in units of the SE at that value, must look
standard normal. The rule must also never be looser than the hand-scaled bounds
it replaced.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim import cli, concat, mzi, qcore, qrac
from test_golden import SETTINGS

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
    state, settings_ = qcore.maximally_entangled_state(), mzi.protocol_settings(*qrac.steering_bases())
    z = []
    for seed in SEEDS:
        result = mzi.sample_events(state, settings_, SHOTS, seed)
        exact = mzi.protocol_value(result.probs)
        stderr = math.sqrt(np.sum(cli._correlator_variances(result.probs, SHOTS)))
        z.append((mzi.protocol_value(result.counts) - exact) / stderr)
    assert_standard_normal(np.array(z))


def test_correlator_stderr_is_calibrated():
    """One correlator-joint row at a generic setting, against its Born target."""
    line = json.loads(SETTINGS.splitlines()[1])
    setting = mzi.Setting(line["theta"], line["phi"], np.array(line["spin_axis"], dtype=float))
    state = qcore.maximally_entangled_state()
    z = []
    for seed in SEEDS:
        result = mzi.sample_events(state, [setting], SHOTS, seed)
        exact = mzi.correlators(result.probs[0])
        stderr = math.sqrt(cli._correlator_variances(result.probs, SHOTS)[0])
        z.append((mzi.correlators(result.counts[0]) - exact) / stderr)
    assert abs(exact) < 0.9  # generic: neither outcome product is rare
    assert_standard_normal(np.array(z))


def test_rate_stderr_is_calibrated():
    tree = concat.build_tree(6)
    exact = concat.chain_success(1, 1)
    z = []
    for seed in SEEDS:
        sim = concat.simulate(tree, [0] * 6, [0], SHOTS, seed)
        rate = sim.successes[0] / sim.shots
        z.append((rate - exact) / cli._rate_stderr(exact, sim.shots))
    assert_standard_normal(np.array(z))


def hand_scaled(base: float, pinned_shots: float, shots: int) -> float:
    """The bound the rule replaced: ``base`` at ``pinned_shots``, widened as 1/sqrt(shots) below."""
    return base * max(1.0, math.sqrt(pinned_shots / shots))


def at_most(tolerance: float, bound: float) -> bool:
    # up to rounding: with every correlator 0 the expression's two bounds meet at 10/sqrt(N)
    return tolerance <= bound * (1 + 1e-12)


@st.composite
def protocol_run(draw, shots: int) -> mzi.SamplingResult:
    """Four settings' Born rows, each cut at three random multiples of 1/shots, and their tallies."""
    counts = []
    for _ in range(4):
        a, b, c = sorted(draw(st.integers(0, shots)) for _ in range(3))
        counts.append([a, b - a, c - b, shots - c])
    counts = np.array(counts, dtype=np.int64)
    return mzi.SamplingResult(counts / shots, counts, ())


@settings(max_examples=300, deadline=None)
@given(shots=st.integers(2, 10**7), data=st.data())
def test_never_looser_than_the_hand_scaled_bounds(shots, data):
    _, tol_c, _, tol_p = cli._protocol_estimates(data.draw(protocol_run(shots)), shots)
    assert at_most(tol_c, hand_scaled(0.01, 1e6, shots))
    assert at_most(tol_p, hand_scaled(0.002, 1e6, shots))
    rate = data.draw(st.integers(0, shots)) / shots  # the target rate
    tol_rate = cli._sampling_tolerance(cli._rate_stderr(rate, shots), shots)
    assert at_most(tol_rate, hand_scaled(0.01, 2e5, shots))
    # the product-form row's bound 1/sqrt(N) keeps its 5/sqrt(N)
    assert at_most(cli._sampling_tolerance(1 / math.sqrt(shots), shots), 5.0 / math.sqrt(shots))


def test_an_exact_distribution_gets_the_one_count_floor():
    counts = np.array([[0, 500, 500, 0]] * 3 + [[500, 0, 0, 500]])
    value, tol_c, success, tol_p = cli._protocol_estimates(mzi.SamplingResult(counts / 1000, counts, ()), 1000)
    assert (value, success) == (-4.0, 0.0)
    assert (tol_c, tol_p) == (cli.Z / 1000, cli.Z / 8000)
