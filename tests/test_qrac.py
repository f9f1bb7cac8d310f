"""Tests for the single-stage quantum protocols and the seesaw search.

The seesaw oracle is the start-by-start loop: each start runs alone until it
converges or its best response vanishes, and a dead start is replaced by the
next draw at once. The stacked search must match it byte for byte.

The Born oracle is the prepare-and-measure trace form: 2x2 traces of Alice's
prepared qubit states against Bob's projectors. The steered path-spin table
must match it to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racsim import qcore, qrac
from racsim.bell import bell_value, quantum_max, sign_matrix, success_from_bell
from racsim.classical import bit_strings, optimal_classical_formula, string_classes

Z = np.array([0.0, 0.0, 1.0])


def all_z_bases(n):
    return np.tile(Z, (2 ** (n - 1), 1)), np.tile(Z, (n, 1))


def oracle_best_response(signs, partners):
    """Normalized rows of ``signs @ partners``; None if any row vanishes."""
    sums = signs @ partners
    norms = np.linalg.norm(sums, axis=1)
    if np.any(norms < 1e-12):
        return None
    return sums / norms[:, None]


def oracle_maximize_bell(n, starts=100, iterations=200, seed=None):
    """The seesaw one start at a time: (value, alice, bob) of the first best start."""
    signs = np.asarray(sign_matrix(n), dtype=float)
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    best = None
    attempts = 0
    reseeds = 0
    while attempts < starts:
        attempts += 1
        alice = np.array([qrac.random_direction(rng) for _ in range(signs.shape[0])])
        bob = np.array([qrac.random_direction(rng) for _ in range(n)])
        value = float(np.sum(signs * (alice @ bob.T)))
        for _ in range(iterations):
            bob = oracle_best_response(signs.T, alice)
            if bob is None:
                break
            alice = oracle_best_response(signs, bob)
            if alice is None:
                break
            new_value = float(np.sum(signs * (alice @ bob.T)))
            if new_value - value < qrac.SEESAW_TOL:
                value = new_value
                break
            value = new_value
        if alice is None or bob is None:
            reseeds += 1
            if reseeds <= 10 * starts:
                attempts -= 1
            continue
        if value > best_value:
            best_value = value
            best = (alice.copy(), bob.copy())
    return best_value, *best


def search_bytes(result):
    value, alice, bob = result
    return type(value), np.float64(value).tobytes(), alice.tobytes(), bob.tobytes()


def doomed_starts(n, doomed):
    """A ``random_direction`` that puts all of Alice's directions along z in the starts ``doomed``, and its draws.

    Starts count in draw order. Bob's second signed sum then vanishes, so each
    doomed start dies; its directions are still drawn, so later starts are unchanged.
    """
    draw = qrac.random_direction
    rows = 2 ** (n - 1)
    drawn = []

    def along_z(rng):
        drawn.append(draw(rng))
        start, row = divmod(len(drawn) - 1, rows + n)
        return Z if start in doomed and row < rows else drawn[-1]

    return along_z, drawn


class ShrunkRows:
    """A generator whose Gaussian rows with a first component above 2 shrink to a norm below 1e-9.

    The shrink depends on the drawn values alone, so a replay from a saved state
    shrinks the same rows.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.shrunk = 0

    def standard_normal(self, size):
        values = self.rng.standard_normal(size)
        rows = values.reshape(-1, 3)
        tiny = rows[:, 0] > 2.0
        rows[tiny] *= 1e-12
        self.shrunk += int(tiny.sum())
        return values


class TestDefaultBases:
    def test_two_bit_dot_products(self):
        alice, bob = qrac.default_bases(2)
        assert float(alice[0] @ bob[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert float(alice[0] @ alice[1]) == pytest.approx(0.0, abs=1e-12)

    def test_three_bit_dot_products_follow_signs(self):
        alice, bob = qrac.default_bases(3)
        signs = sign_matrix(3)
        for i in range(4):
            for j in range(3):
                assert float(alice[i] @ bob[j]) == pytest.approx(
                    signs[i, j] / math.sqrt(3), abs=1e-12
                )

    def test_rejects_unsupported_n(self):
        with pytest.raises(ValueError):
            qrac.default_bases(4)


class TestQuantumSuccess:
    def test_two_bit_optimum(self):
        assert qrac.quantum_success(*qrac.default_bases(2)) == pytest.approx(
            0.5 * (1 + 1 / math.sqrt(2)), abs=1e-12
        )

    def test_three_bit_optimum(self):
        assert qrac.quantum_success(*qrac.default_bases(3)) == pytest.approx(
            0.5 * (1 + 1 / math.sqrt(3)), abs=1e-12
        )

    def test_aligned_bases_recover_first_bit_strategy(self):
        # every direction along z: first bit retrieved perfectly, second is a coin flip
        assert qrac.quantum_success(*all_z_bases(2)) == pytest.approx(0.75, abs=1e-12)

    def test_alice_z_bob_default(self):
        _, bob = qrac.default_bases(2)
        assert qrac.quantum_success(np.tile(Z, (2, 1)), bob) == pytest.approx(0.75, abs=1e-12)


class TestCorrelators:
    def test_diagonal_entries(self):
        bases = qrac.default_bases(2)
        assert qrac.correlator_qm(*bases, 0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert qrac.correlator_qm(*bases, 1, 1) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    def test_orthogonal_directions_vanish(self):
        alice, bob = np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.array([[0, 0, 1.0], [0, 0, 1.0]])
        for i in range(2):
            for j in range(2):
                assert qrac.correlator_qm(alice, bob, i, j) == pytest.approx(0.0, abs=1e-12)

    def test_trace_form_equals_dot_product_random_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = 2 if rng.random() < 0.5 else 3
            [alice], [bob] = qrac.random_bases(n, rng, 1)
            i = int(rng.integers(2 ** (n - 1)))
            j = int(rng.integers(n))
            dot = float(alice[i] @ bob[j])
            assert qrac.correlator_qm(alice, bob, i, j) == pytest.approx(dot, abs=1e-12)


class TestBellFromPreps:
    def test_two_bit_value(self):
        assert qrac.bell_from_preps(*qrac.default_bases(2)) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12
        )

    def test_three_bit_value(self):
        assert qrac.bell_from_preps(*qrac.default_bases(3)) == pytest.approx(
            4 * math.sqrt(3), abs=1e-12
        )

    def test_aligned_bases_reach_classical_bound(self):
        assert qrac.bell_from_preps(*all_z_bases(2)) == pytest.approx(2.0, abs=1e-12)
        _, bob = qrac.default_bases(2)
        assert qrac.bell_from_preps(np.tile(Z, (2, 1)), bob) == pytest.approx(2.0, abs=1e-12)


class TestIdentity:
    def test_default_bases(self):
        alice, bob = qrac.default_bases(2)
        assert qrac.identity_check(alice[None], bob[None])[0] < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_sweep(self, n):
        rng = np.random.default_rng(42 + n)
        worst = np.max(qrac.identity_check(*qrac.random_bases(n, rng, 1000)))
        assert worst < 1e-12

    def test_margin_matches_success_gap(self):
        from racsim.bell import classical_bound

        for n, denom in ((2, 8.0), (3, 24.0)):
            bases = qrac.default_bases(n)
            gap = qrac.quantum_success(*bases) - optimal_classical_formula(n)
            beta = qrac.bell_from_preps(*bases) - classical_bound(n)
            assert gap == pytest.approx(beta / denom, abs=1e-12)


class TestMaximizeBell:
    def test_two_bit_reaches_optimum(self):
        value, alice, bob = qrac.maximize_bell(2, starts=50, seed=7)
        assert value >= 2 * math.sqrt(2) - 1e-6
        assert value <= quantum_max(2) + 1e-9
        assert alice.shape == (2, 3) and bob.shape == (2, 3)
        assert qrac.identity_check(alice[None], bob[None])[0] < 1e-12

    def test_three_bit_reaches_optimum(self):
        value, _, _ = qrac.maximize_bell(3, starts=50, seed=7)
        assert value >= 4 * math.sqrt(3) - 1e-6
        assert value <= quantum_max(3) + 1e-9

    def test_degenerate_start_reseeded(self, monkeypatch):
        # both of Alice's first directions along z: Bob's second signed sum vanishes
        draw = qrac.random_direction
        drawn = []

        def first_alice_along_z(rng):
            drawn.append(draw(rng))
            return Z if len(drawn) <= 2 else drawn[-1]

        monkeypatch.setattr(qrac, "random_direction", first_alice_along_z)
        value, _, _ = qrac.maximize_bell(2, starts=5, seed=3)
        assert value <= quantum_max(2) + 1e-9
        assert value >= 2 * math.sqrt(2) - 1e-6
        # the restart draws a sixth start of four directions instead of using up one of five
        assert len(drawn) == 24

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        starts=st.integers(1, 30),
        iterations=st.integers(1, 200),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_stack_matches_start_by_start_oracle(self, n, starts, iterations, seed):
        stacked = qrac.maximize_bell(n, starts=starts, iterations=iterations, seed=seed)
        assert search_bytes(stacked) == search_bytes(oracle_maximize_bell(n, starts, iterations, seed))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        starts=st.integers(2, 4),
        doomed=st.sets(st.integers(0, 20)),
        seed=st.integers(0, 2**64 - 1),
    )
    # every start but the last that 2 starts can reach dies: the 21st death uses up an attempt
    @example(n=2, starts=2, doomed=set(range(21)), seed=0)
    def test_degenerate_starts_match_oracle(self, n, starts, doomed, seed):
        results = []
        for search in (qrac.maximize_bell, oracle_maximize_bell):
            along_z, drawn = doomed_starts(n, doomed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qrac, "random_direction", along_z)
                results.append((search_bytes(search(n, starts, 200, seed)), len(drawn)))
        assert results[0] == results[1]

    def test_rejects_unsupported_n(self):
        with pytest.raises(ValueError):
            qrac.maximize_bell(4, starts=1, seed=0)


class TestProtocolResult:
    """The (success, expression value, margin) triple that ``racsim quantum`` reports."""

    def test_default_bases_bundle(self):
        bases = qrac.default_bases(2)
        success = qrac.quantum_success(*bases)
        assert success == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-12)
        assert qrac.bell_from_preps(*bases) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert success - optimal_classical_formula(2) == pytest.approx(success - 0.75, abs=1e-12)

    def test_random_bases_satisfy_identity(self):
        rng = np.random.default_rng(44)
        for alice, bob in zip(*qrac.random_bases(3, rng, 50)):
            success = qrac.quantum_success(alice, bob)
            assert abs(success - success_from_bell(3, qrac.bell_from_preps(alice, bob))) <= 1e-12


def random_stack(n, size, seed):
    return qrac.random_bases(n, np.random.default_rng(seed), size)


stacks = {
    "n": st.sampled_from([2, 3]),
    "size": st.integers(1, 20),
    "seed": st.integers(0, 2**64 - 1),
}


def oracle_preparations(alice, n):
    """Alice's prepared qubit state of each bit string: Bloch vector (-1)^s_0 along her class direction."""
    strings = np.array(list(bit_strings(n)))
    return qcore.projector(alice)[:, string_classes(n), strings[:, 0]]


def oracle_born_traces(alice, bob):
    """Success and correlator table of every basis in a stack, in trace form.

    Cell (string s, queried bit k) is Tr[rho_s B_k^(s_k)], and each basis's
    success sums its cells in ``bit_strings`` order; correlator (i, j) is
    Tr[rho_i^0 B_j^0 + rho_i^1 B_j^1] - 1.
    """
    n = bob.shape[1]
    preps = qcore.projector(alice)
    projs = qcore.projector(bob)
    strings = np.array(list(bit_strings(n)))
    proj = projs[:, np.arange(n), strings]
    cells = np.trace(oracle_preparations(alice, n)[:, :, None] @ proj, axis1=-2, axis2=-1).real
    success = np.cumsum(cells.reshape(len(cells), -1), axis=1)[:, -1] / (n * (1 << n))
    pairs = preps[:, :, None, 0] @ projs[:, None, :, 0] + preps[:, :, None, 1] @ projs[:, None, :, 1]
    return success, np.trace(pairs, axis1=-2, axis2=-1).real - 1.0


def kernel_bytes(alice, bob):
    """The bytes of every stacked kernel output: residuals, success, correlators and the steered table."""
    success, tables, residuals = qrac.evaluate(alice, bob)
    outputs = (residuals, success, tables, qrac.steered_table(alice, bob))
    return [a.tobytes() for a in outputs]


class TestStackedKernel:
    """The steered-table kernel against the trace-form oracle, its one-basis views and the dot form."""

    def test_preparation_bloch_vectors(self):
        # as the oracle indexes them: the string's class picks Alice's
        # direction, its first bit the sign
        alice, _ = qrac.default_bases(2)
        preps = oracle_preparations(alice[None], 2)[0]
        # strings 01 and 10 (indices 1 and 2) form class 1
        for index, sign in ((1, 1.0), (2, -1.0)):
            assert string_classes(2)[index] == 1
            bloch = [np.trace(preps[index] @ s).real for s in (qcore.SIGMA_X, qcore.SIGMA_Y, qcore.SIGMA_Z)]
            np.testing.assert_allclose(bloch, sign * alice[1], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(**stacks)
    def test_steered_table_matches_trace_form_oracle(self, n, size, seed):
        alice, bob = random_stack(n, size, seed)
        success, tables, _ = qrac.evaluate(alice, bob)
        oracle_success, oracle_tables = oracle_born_traces(alice, bob)
        np.testing.assert_allclose(success, oracle_success, rtol=0, atol=1e-15)
        np.testing.assert_allclose(tables, oracle_tables, rtol=0, atol=1e-15)
        # twice the steered table is each prepare-and-measure cell Tr[rho_i^a B_j^b]
        cells = np.trace(
            qcore.projector(alice)[:, :, None, :, None] @ qcore.projector(bob)[:, None, :, None],
            axis1=-2, axis2=-1,
        ).real
        np.testing.assert_allclose(2.0 * qrac.steered_table(alice, bob), cells, rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(**stacks)
    def test_stack_matches_one_basis_views_bit_for_bit(self, n, size, seed):
        alice, bob = random_stack(n, size, seed)
        success, tables, _ = qrac.evaluate(alice, bob)
        assert success.tolist() == [qrac.quantum_success(a, b) for a, b in zip(alice, bob)]
        for table, a, b in zip(tables, alice, bob):
            rows, cols = table.shape
            views = [[qrac.correlator_qm(a, b, i, j) for j in range(cols)] for i in range(rows)]
            assert table.tobytes() == np.array(views).tobytes()
            assert qrac.bell_from_preps(a, b) == bell_value(table, sign_matrix(n))

    @settings(max_examples=60, deadline=None)
    @given(**stacks)
    def test_trace_form_agrees_with_dot_form(self, n, size, seed):
        alice, bob = random_stack(n, size, seed)
        for tables in (oracle_born_traces(alice, bob)[1], qrac.evaluate(alice, bob)[1]):
            for table, a, b in zip(tables, alice, bob):
                np.testing.assert_allclose(table, a @ b.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pair_slice", [1, 5, 7])
    @settings(max_examples=20, deadline=None)
    @given(**stacks)
    def test_pair_slices_change_no_bit(self, pair_slice, n, size, seed):
        # these stacks fit in one default slice, so only a small slice crosses an edge
        alice, bob = random_stack(n, size, seed)
        whole = kernel_bytes(alice, bob)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qrac, "PAIR_SLICE", pair_slice)
            assert kernel_bytes(alice, bob) == whole

    @pytest.mark.parametrize("n", [2, 3])
    def test_default_pair_slice_edges_change_no_bit(self, n, monkeypatch):
        # 300 bases hold 1200 or 3600 pairs, so the default slice has edges inside them
        alice, bob = random_stack(n, 300, n)
        sliced = kernel_bytes(alice, bob)
        monkeypatch.setattr(qrac, "PAIR_SLICE", 10**6)
        assert kernel_bytes(alice, bob) == sliced

    @settings(max_examples=60, deadline=None)
    @given(**stacks)
    def test_identity_residuals_vanish(self, n, size, seed):
        alice, bob = random_stack(n, size, seed)
        assert np.all(qrac.identity_check(alice, bob) < 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(**stacks)
    def test_identity_residuals_match_per_table_formula(self, n, size, seed):
        alice, bob = random_stack(n, size, seed)
        success, tables, _ = qrac.evaluate(alice, bob)
        signs = sign_matrix(n)
        expected = [
            abs(p - success_from_bell(n, float(np.sum(signs * table))))
            for p, table in zip(success, tables)
        ]
        assert qrac.identity_check(alice, bob).tobytes() == np.array(expected).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**stacks)
    def test_random_bases_draw_one_direction_at_a_time(self, n, size, seed):
        alice, bob = qrac.random_bases(n, np.random.default_rng(seed), size)
        rng = np.random.default_rng(seed)
        rows = 2 ** (n - 1) + n
        drawn = np.array([qrac.random_direction(rng) for _ in range(size * rows)])
        assert alice.shape == (size, 2 ** (n - 1), 3) and bob.shape == (size, n, 3)
        assert np.concatenate((alice, bob), axis=1).tobytes() == drawn.reshape(size, rows, 3).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_bases_replays_a_draw_with_a_short_row(self, n, seed):
        batched = ShrunkRows(seed)
        alice, bob = qrac.random_bases(n, batched, 50)
        assert batched.shrunk > 0
        one_at_a_time = ShrunkRows(seed)
        rows = 2 ** (n - 1) + n
        drawn = np.array([qrac.random_direction(one_at_a_time) for _ in range(50 * rows)])
        assert np.concatenate((alice, bob), axis=1).tobytes() == drawn.reshape(50, rows, 3).tobytes()
        assert batched.bit_generator.state == one_at_a_time.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(**stacks, side=st.sampled_from(["alice", "bob"]), pick=st.integers(0, 2**32))
    def test_non_unit_direction_rejected_by_batched_check(self, n, size, seed, side, pick):
        alice, bob = random_stack(n, size, seed)
        directions = {"alice": alice, "bob": bob}[side]
        basis, row = divmod(pick % (size * directions.shape[1]), directions.shape[1])
        directions[basis, row] *= 1.001
        with pytest.raises(ValueError, match="unit norm"):
            qrac.evaluate(alice, bob)
