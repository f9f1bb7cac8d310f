"""Tests for the interferometer model, Born sampling, and count estimators."""

import json
import math
import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racsim import cli, concat, mzi, qcore, qrac
from racsim.bell import classical_bound, success_from_bell

SQRT_HALF = 1.0 / math.sqrt(2.0)


def concurrence(state: qcore.PureState) -> float:
    """2 |det M| of the 2x2 coefficient matrix; independent entanglement oracle."""
    a = state.amplitudes
    return 2.0 * abs(a[0] * a[3] - a[1] * a[2])


class TestEntangledState:
    def test_balanced_pi_phase_amplitudes(self):
        state = qcore.entangled_state(SQRT_HALF, SQRT_HALF, math.pi)
        np.testing.assert_allclose(
            state.amplitudes, [0.0, SQRT_HALF, -SQRT_HALF, 0.0], atol=1e-12
        )

    def test_single_branch_product_state(self):
        state = qcore.entangled_state(1.0, 0.0, 0.3)
        np.testing.assert_allclose(state.amplitudes, [0.0, 1.0, 0.0, 0.0], atol=1e-12)
        assert concurrence(state) == pytest.approx(0.0, abs=1e-12)

    def test_concurrence_is_twice_amplitude_product(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            a = float(rng.uniform(0, 1))
            b = math.sqrt(1 - a * a)
            delta = float(rng.uniform(0, 2 * math.pi))
            state = qcore.entangled_state(a, b, delta)
            assert concurrence(state) == pytest.approx(2 * a * b, abs=1e-12)

    def test_maximal_point(self):
        assert concurrence(qcore.maximally_entangled_state()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError):
            qcore.entangled_state(0.9, 0.9, 0.0)

    @pytest.mark.parametrize("amplitudes", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_splitter_amplitude_rejected(self, amplitudes):
        transmission, reflection = amplitudes
        with pytest.raises(ValueError, match=r"transmission\^2 \+ reflection\^2"):
            qcore.entangled_state(transmission, reflection, 0.0)


def path_observable(theta, phi):
    """Which-port observable of the recombining stage: the projector pair along its direction."""
    direction = mzi.path_direction(theta, phi)
    plus, minus = qcore.projector(direction)
    return plus - minus


class TestPathObservable:
    def test_zero_phase_form(self):
        theta = 0.7
        expected = [math.sin(2 * theta), 0.0, -math.cos(2 * theta)]
        np.testing.assert_allclose(mzi.path_direction(theta, 0.0), expected, atol=1e-12)

    def test_straight_through_is_minus_z(self):
        np.testing.assert_allclose(mzi.path_direction(0.0, 1.23), -qcore.Z_AXIS, atol=1e-12)
        np.testing.assert_allclose(path_observable(0.0, 1.23), -qcore.SIGMA_Z, atol=1e-12)

    def test_quarter_settings_give_sigma_y(self):
        np.testing.assert_allclose(
            mzi.path_direction(math.pi / 4, math.pi / 2), qcore.Y_AXIS, atol=1e-12
        )
        np.testing.assert_allclose(
            path_observable(math.pi / 4, math.pi / 2), qcore.SIGMA_Y, atol=1e-12
        )

    def test_unit_eigenvalues_and_zero_trace(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            theta, phi = rng.uniform(0, math.pi, size=2)
            assert np.linalg.norm(mzi.path_direction(theta, phi)) == pytest.approx(1.0, abs=1e-12)
            obs = path_observable(theta, phi)
            np.testing.assert_allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=1e-12)
            assert abs(np.trace(obs)) < 1e-12

    def test_direction_round_trip(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            theta, phi = mzi.angles_for_direction(direction)
            np.testing.assert_allclose(mzi.path_direction(theta, phi), direction, atol=1e-12)

    def test_matches_projector_eigenvectors(self):
        theta, phi = 0.4, 1.1
        direction = mzi.path_direction(theta, phi)
        obs = path_observable(theta, phi)
        plus = qcore.projector(direction)[0]
        np.testing.assert_allclose(obs @ plus, plus, atol=1e-12)


class TestSampling:
    def test_impossible_outcomes_never_sampled(self):
        state = qcore.maximally_entangled_state()
        theta, phi = mzi.angles_for_direction(qcore.Z_AXIS)
        setting = mzi.Setting(theta=theta, phi=phi, spin_axis=qcore.Z_AXIS)
        result = mzi.sample_events(state, [setting], 50_000, seed=99)
        n_plus, _, _, m_minus = counts = result.counts[0]
        assert n_plus == 0
        assert m_minus == 0
        assert counts.sum() == 50_000

    def test_zero_shots_allowed_but_estimators_reject(self):
        state = qcore.maximally_entangled_state()
        setting = mzi.Setting(theta=0.1, phi=0.2, spin_axis=qcore.X_AXIS)
        result = mzi.sample_events(state, [setting], 0, seed=1)
        assert result.counts[0].sum() == 0
        with pytest.raises(ValueError):
            mzi.correlators(result.counts[0])
        with pytest.raises(ValueError):
            mzi.correlator_product_form(result.counts[0])

    @pytest.mark.parametrize("shots", [10_000, 1_000_000])
    def test_frequencies_approach_born_probabilities(self, shots):
        state = qcore.maximally_entangled_state()
        settings = mzi.protocol_settings(*qrac.steering_bases())
        result = mzi.sample_events(state, settings, shots, seed=2024)
        bound = 5.0 / math.sqrt(shots)
        probs = mzi.born_probabilities(state, settings)
        assert np.array_equal(result.probs, probs)  # the rows the sampler drew from
        assert result.counts.dtype == np.int64 and result.counts.shape == (len(settings), 4)
        assert np.max(np.abs(result.counts / shots - probs)) <= bound

    def test_estimator_consistency_with_analytic_expectation(self):
        state = qcore.maximally_entangled_state()
        rng = np.random.default_rng(54)
        shots = 10_000
        for trial in range(20):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            spin = rng.standard_normal(3)
            spin /= np.linalg.norm(spin)
            theta, phi = mzi.angles_for_direction(direction)
            setting = mzi.Setting(theta=theta, phi=phi, spin_axis=spin)
            result = mzi.sample_events(state, [setting], shots, seed=1000 + trial)
            estimate = mzi.correlators(result.counts[0])
            exact = qcore.expectation_product(state, direction, spin)
            assert abs(estimate - exact) <= 5.0 / math.sqrt(shots)
            # the same map on the Born row is the exact correlator
            assert mzi.correlators(result.probs[0]) == pytest.approx(exact, abs=1e-12)

    def test_born_rows_computed_once_per_run(self):
        settings = mzi.protocol_settings(*qrac.steering_bases())
        with mock.patch.object(mzi, "born_probabilities", wraps=mzi.born_probabilities) as born:
            mzi.sample_events(qcore.maximally_entangled_state(), settings, 1000, seed=3, workers=2)
        born.assert_called_once()

    def test_reproducible_across_worker_counts(self):
        state = qcore.maximally_entangled_state()
        settings = mzi.protocol_settings(*qrac.steering_bases())
        baseline = mzi.sample_events(state, settings, 30_000, seed=5, workers=1, events=True)
        for workers in (2, 3, 5):
            rerun = mzi.sample_events(state, settings, 30_000, seed=5, workers=workers, events=True)
            assert np.array_equal(rerun.counts, baseline.counts)
            for (p1, s1), (p2, s2) in zip(baseline.outcomes, rerun.outcomes):
                assert np.array_equal(p1, p2) and np.array_equal(s1, s2)

    def test_event_stream_matches_counts(self, tmp_path):
        state = qcore.maximally_entangled_state()
        settings = [
            mzi.Setting(theta=0.3, phi=0.4, spin_axis=qcore.X_AXIS),
            mzi.Setting(theta=1.1, phi=-0.7, spin_axis=qcore.Z_AXIS),
        ]
        result = mzi.sample_events(state, settings, 501, seed=6, workers=2, events=True)
        path = tmp_path / "events.jsonl"
        cli.write_events(result, str(path))
        expected = "".join(
            json.dumps({"setting": s, "shot": k, "path": int(p), "spin": int(q)}) + "\n"
            for s, (path_bits, spin_bits) in enumerate(result.outcomes)
            for k, (p, q) in enumerate(zip(path_bits, spin_bits))
        )
        assert path.read_bytes() == expected.encode()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(events) == 2 * 501
        for s, counts in enumerate(result.counts):
            plus_plus = sum(
                1 for e in events if e["setting"] == s and (e["path"], e["spin"]) == (0, 0)
            )
            assert plus_plus == counts[0]


def reference_write_events(result: mzi.SamplingResult, path: str) -> None:
    """The event writer as one f-string per shot: the oracle for ``cli.write_events``."""
    with open(path, "w") as handle:
        for s_idx, (path_bits, spin_bits) in enumerate(result.outcomes):
            handle.writelines(
                f'{{"setting": {s_idx}, "shot": {k}, "path": {p}, "spin": {q}}}\n'
                for k, (p, q) in enumerate(zip(path_bits.tolist(), spin_bits.tolist()))
            )


# decade and template edges; shot 100000 is the first six-digit line
EVENT_SHOTS = [0, 1, 9, 10, 11, 99, 100, 100_001]
EVENT_SHOTS += [cli.EVENT_TEMPLATE + d for d in (-1, 0, 1)] + [mzi.BLOCK + d for d in (-1, 1)]


def assert_writes_reference_bytes(shots, n_settings, workers, seed):
    base = mzi.protocol_settings(*qrac.steering_bases())
    chosen = [base[k % len(base)] for k in range(n_settings)]
    result = mzi.sample_events(qcore.maximally_entangled_state(), chosen, shots, seed, workers, events=True)
    with tempfile.TemporaryDirectory() as tmp:
        expected, written = Path(tmp, "expected.jsonl"), Path(tmp, "written.jsonl")
        reference_write_events(result, str(expected))
        cli.write_events(result, str(written))
        assert written.read_bytes() == expected.read_bytes()


# settings 10 and up have a wider head
n_settings = st.integers(1, 12)
event_workers = st.integers(1, 3)
event_seeds = st.integers(0, 2**64 - 1)


@settings(max_examples=20, deadline=None)
@example(shots=100_001, n_settings=2, workers=3, seed=1)
@given(shots=st.sampled_from(EVENT_SHOTS), n_settings=n_settings, workers=event_workers, seed=event_seeds)
def test_write_events_matches_reference_bytes(shots, n_settings, workers, seed):
    assert_writes_reference_bytes(shots, n_settings, workers, seed)


@settings(max_examples=50, deadline=None)
@example(template=10, shots=1200, n_settings=12, workers=2, seed=1)
@given(
    template=st.sampled_from([10, 100]),
    shots=st.integers(0, 1200),
    n_settings=n_settings,
    workers=event_workers,
    seed=event_seeds,
)
def test_write_events_small_chunks_match_reference_bytes(template, shots, n_settings, workers, seed):
    # shot numbers at and above the template size get one, two or three high digits
    with mock.patch.object(cli, "EVENT_TEMPLATE", template):
        assert_writes_reference_bytes(shots, n_settings, workers, seed)


def test_write_events_reuses_no_block_too_short_for_a_later_setting(tmp_path):
    # hand-made outcomes of unequal lengths: a later setting may need more rows of a
    # (setting width, shot width) block than an earlier one built
    rng = np.random.default_rng(1)
    lengths = [3, 12, 1, 25, 0, 25, 9, 10, 11, 105, 2, 30]
    outcomes = tuple(tuple(rng.integers(0, 2, (2, n), dtype=np.uint8)) for n in lengths)
    result = mzi.SamplingResult(np.zeros((len(lengths), 4)), np.zeros((len(lengths), 4), dtype=np.int64), outcomes)
    with mock.patch.object(cli, "EVENT_TEMPLATE", 10):
        cli.write_events(result, str(tmp_path / "written.jsonl"))
    reference_write_events(result, str(tmp_path / "expected.jsonl"))
    assert (tmp_path / "written.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def events_and_reference(shots, seed=1):
    """Two protocol settings' sampled events and the reference writer's bytes for them."""
    settings = mzi.protocol_settings(*qrac.steering_bases())[:2]
    result = mzi.sample_events(qcore.maximally_entangled_state(), settings, shots, seed, events=True)
    with tempfile.TemporaryDirectory() as tmp:
        reference = Path(tmp, "reference.jsonl")
        reference_write_events(result, str(reference))
        return result, reference.read_bytes()


def stale_bytes(kind, new_size, fill):
    """An old file's bytes: empty, shorter than the new ones, the same size, or much longer."""
    size = {"empty": 0, "shorter": new_size // 2, "same": new_size, "longer": 3 * new_size + 4099}[kind]
    return (fill * (size // len(fill) + 1))[:size]


@settings(max_examples=30, deadline=None)
@given(
    shots=st.sampled_from([0, 1, 11, 150]),
    kind=st.sampled_from(["empty", "shorter", "same", "longer"]),
    fill=st.binary(min_size=1, max_size=64),
)
def test_rewrite_over_an_old_file_leaves_only_the_new_bytes(shots, kind, fill):
    # the file is written from offset 0 without truncating on open and cut at the end
    result, expected = events_and_reference(shots)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "events.jsonl")
        path.write_bytes(stale_bytes(kind, len(expected), fill))
        cli.write_events(result, str(path))
        assert path.read_bytes() == expected


def test_rewrite_through_a_symlink_keeps_the_link(tmp_path):
    result, expected = events_and_reference(150)
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_bytes(b"stale\n" * 10_000)
    link.symlink_to(target)
    cli.write_events(result, str(link))
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == expected


def test_rewrite_of_a_hard_link_reaches_both_names(tmp_path):
    result, expected = events_and_reference(150)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    first.write_bytes(b"stale\n" * 10_000)
    os.link(first, second)
    cli.write_events(result, str(second))
    assert first.read_bytes() == second.read_bytes() == expected
    assert os.stat(first).st_nlink == 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this system")
def test_events_stream_into_a_fifo(tmp_path):
    # a FIFO cannot be cut: the writer leaves it alone and the reader gets every line
    result, expected = events_and_reference(150)
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cli.write_events(result, str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected]


class _InlinePool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs tasks in the caller."""

    def __init__(self, built, max_workers):
        built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestSpanRunner:
    @pytest.mark.parametrize("cpus", [None, 1, 3, 1000])
    def test_threads_capped_by_spans_and_cpus(self, monkeypatch, cpus):
        built = []
        monkeypatch.setattr(mzi, "ThreadPoolExecutor", lambda max_workers: _InlinePool(built, max_workers))
        monkeypatch.setattr(mzi.os, "cpu_count", lambda: cpus)
        shots, workers = 1000, 64
        cap = min(len(mzi._partition(shots, workers)), cpus or 1)
        # the caller is one of the cap threads; a cap of one builds no pool
        pools = [cap - 1] if cap > 1 else []
        state = qcore.maximally_entangled_state()
        setting = mzi.Setting(theta=0.3, phi=0.4, spin_axis=qcore.X_AXIS)
        many = mzi.sample_events(state, [setting], shots, seed=4, workers=workers)
        assert built == pools
        tree = concat.build_tree(4)
        sim = concat.simulate(tree, [0, 1, 1, 0], [2], shots, seed=4, workers=workers)
        assert built == pools * 2
        # one span runs inline: no pool
        one = mzi.sample_events(state, [setting], shots, seed=4, workers=1)
        assert concat.simulate(tree, [0, 1, 1, 0], [2], shots, seed=4, workers=1) == sim
        assert built == pools * 2
        assert np.array_equal(many.counts, one.counts)

    @pytest.mark.parametrize("workers, shares", [(2, [1, 1]), (3, [2, 1]), (4, [2, 2]), (8, [4, 4])])
    def test_spans_dealt_evenly_to_the_threads(self, monkeypatch, workers, shares):
        monkeypatch.setattr(mzi.os, "cpu_count", lambda: 2)
        caller, ran = threading.get_ident(), []

        def task(lo, hi):
            ran.append(threading.get_ident())
            return lo, hi

        assert mzi.map_spans(task, 64, workers) == mzi._partition(64, workers)
        assert len(ran) == workers
        others = set(ran) - {caller}
        assert [ran.count(caller)] + [ran.count(t) for t in others] == shares


class TestCountEstimators:
    def test_all_mass_one_cell(self):
        counts = np.array([0, 1000, 0, 0])  # n+, n-, m+, m-
        assert mzi.correlators(counts) == -1.0

    def test_uniform_counts_vanish(self):
        counts = np.array([250, 250, 250, 250])
        assert mzi.correlators(counts) == 0.0
        assert mzi.correlator_product_form(counts) == 0.0

    def test_rows_map_one_by_one(self):
        table = np.array([[0, 1000, 0, 0], [250, 250, 250, 250], [3, 1, 0, 0]])
        assert mzi.correlators(table).tolist() == [-1.0, 0.0, 0.5]

    def test_aligned_entangled_state_exact_minus_one(self):
        state = qcore.maximally_entangled_state()
        theta, phi = mzi.angles_for_direction(qcore.Z_AXIS)
        setting = mzi.Setting(theta=theta, phi=phi, spin_axis=qcore.Z_AXIS)
        result = mzi.sample_events(state, [setting], 100_000, seed=7)
        assert mzi.correlators(result.counts[0]) == -1.0

    def test_product_state_both_estimators_agree(self):
        # all mass at (path +, spin -): product form (1-0)[(0-1)+(0-0)] = -1
        state = qcore.entangled_state(1.0, 0.0, 0.0)
        theta, phi = mzi.angles_for_direction(qcore.Z_AXIS)
        setting = mzi.Setting(theta=theta, phi=phi, spin_axis=qcore.Z_AXIS)
        result = mzi.sample_events(state, [setting], 10_000, seed=8)
        counts = result.counts[0]
        assert counts[1] == 10_000  # n-
        assert mzi.correlators(counts) == -1.0
        assert mzi.correlator_product_form(counts) == -1.0

    def test_documented_discrepancy_on_entangled_state(self):
        state = qcore.maximally_entangled_state()
        theta, phi = mzi.angles_for_direction(qcore.Z_AXIS)
        setting = mzi.Setting(theta=theta, phi=phi, spin_axis=qcore.Z_AXIS)
        result = mzi.sample_events(state, [setting], 1_000_000, seed=9)
        counts = result.counts[0]
        assert mzi.correlators(counts) == -1.0
        assert abs(mzi.correlator_product_form(counts)) < 0.005


def protocol_counts(bases, shots, seed):
    """Tallies of the protocol settings of an (alice, bob) pair on the maximally entangled state."""
    state = qcore.maximally_entangled_state()
    return mzi.sample_events(state, mzi.protocol_settings(*bases), shots, seed).counts


class TestEstimateProtocol:
    def test_steering_settings_hit_quantum_values(self):
        value = mzi.protocol_value(protocol_counts(qrac.steering_bases(), 1_000_000, seed=42))
        assert abs(success_from_bell(2, value) - 0.8535534) <= 0.002
        assert abs(value - 2 * math.sqrt(2)) <= 0.01

    def test_aligned_bases_classical_floor(self):
        z = np.array([0.0, 0.0, 1.0])
        aligned = np.tile(z, (2, 1)), np.tile(z, (2, 1))
        counts = protocol_counts(aligned, 200_000, seed=42)
        value = mzi.protocol_value(counts)
        assert np.all(mzi.correlators(counts) == -1.0)  # every shot is perfectly anti-correlated
        assert abs(value - (-2.0)) <= 0.01
        assert abs(success_from_bell(2, value) - 0.25) <= 0.002

    def test_rejects_three_bit_bases(self):
        counts = protocol_counts(qrac.default_bases(3), 10, seed=1)
        with pytest.raises(ValueError):
            mzi.protocol_value(counts)

    def test_rejects_zero_shots(self):
        counts = protocol_counts(qrac.steering_bases(), 0, seed=1)
        with pytest.raises(ValueError):
            mzi.protocol_value(counts)


def exact_protocol_value(state):
    """Two-bit expression at the steering bases: ``protocol_value`` of the four settings' Born rows."""
    return mzi.protocol_value(mzi.born_probabilities(state, mzi.protocol_settings(*qrac.steering_bases())))


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0, 1), delta=st.floats(-2 * math.pi, 2 * math.pi))
def test_expression_grows_with_the_concurrence(a, delta):
    """The paper's correspondence: at the steering bases the expression is sqrt(2) (1 - C cos delta)."""
    b = math.sqrt(1.0 - a * a)  # as ``racsim mzi --a`` sets the reflection amplitude
    c = 2.0 * a * b
    value = exact_protocol_value(qcore.entangled_state(a, b, delta))
    assert value == pytest.approx(math.sqrt(2.0) * (1.0 - c * math.cos(delta)), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0, 1))
def test_violation_at_pi_exactly_when_concurrence_exceeds_root_two_minus_one(a):
    b = math.sqrt(1.0 - a * a)
    margin = 2.0 * a * b - (math.sqrt(2.0) - 1.0)
    excess = exact_protocol_value(qcore.entangled_state(a, b, math.pi)) - classical_bound(2)
    # sqrt(2) (1 + C) - 2 = sqrt(2) (C - (sqrt(2) - 1))
    assert excess == pytest.approx(math.sqrt(2.0) * margin, abs=1e-12)
    if abs(margin) > 1e-12:
        assert (excess > 0) == (margin > 0)


# one setting's counts: every cell from 1 to 10^7
quad = st.tuples(*[st.integers(1, 10**7)] * 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(quad, min_size=4, max_size=4))
def test_protocol_value_is_the_signed_correlator_sum(cells):
    counts = np.array(cells, dtype=np.int64)
    c00, c01, c10, c11 = (float(mzi.correlators(row)) for row in counts)
    for (n_plus, n_minus, m_plus, m_minus), c in zip(cells, (c00, c01, c10, c11)):
        # the per-row Python-int form, bit for bit
        assert c == (n_plus - n_minus - m_plus + m_minus) / (n_plus + n_minus + m_plus + m_minus)
    value = mzi.protocol_value(counts)
    assert value == c00 + c01 + c10 - c11
    # the same function on the rows as distributions: the exact value of the table
    probs = counts / counts.sum(axis=1, keepdims=True)
    assert mzi.protocol_value(probs) == pytest.approx(value, abs=1e-12)
    variances = [(1 - c * c) / 1000 for c in (c00, c01, c10, c11)]
    assert cli._correlator_variances(probs, 1000) == pytest.approx(variances, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(quad, max_size=12).filter(lambda cells: len(cells) != 4))
def test_protocol_value_needs_four_counts(cells):
    with pytest.raises(ValueError):
        mzi.protocol_value(np.array(cells, dtype=np.int64).reshape(-1, 4))


@settings(max_examples=50, deadline=None)
@given(st.lists(quad, min_size=3, max_size=3), st.integers(0, 3))
def test_protocol_value_rejects_a_zero_shot_count(cells, position):
    cells.insert(position, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        mzi.protocol_value(np.array(cells, dtype=np.int64).reshape(-1, 4))
