"""Tests for concatenated code trees, analytic per-bit success, and simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim import cli, concat
from racsim.bell import quantum_max, success_from_bell


def smooth_oracle(n):
    """Brute scan for the least 3-smooth integer >= n."""
    m = n
    while True:
        r = m
        for p in (2, 3):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class TestSmoothCeiling:
    @pytest.mark.parametrize("n,expected", [(5, 6), (7, 8), (4, 4), (2, 2), (13, 16), (25, 27)])
    def test_known_values(self, n, expected):
        assert concat.smooth_ceiling(n) == expected

    def test_matches_brute_scan(self):
        for n in range(2, 200):
            assert concat.smooth_ceiling(n) == smooth_oracle(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            concat.smooth_ceiling(1)


class TestBuildTree:
    def test_four_leaves_all_two_stages(self):
        tree = concat.build_tree(4)
        assert tree.depth_profile() == [(2, 0)] * 4
        assert len(tree.internal_postorder()) == 3
        assert all(len(children) == 2 for children in tree.internal_postorder())

    def test_six_leaves_mixed_profile(self):
        tree = concat.build_tree(6)
        assert tree.depth_profile() == [(1, 1)] * 6

    def test_two_leaves_single_subunit(self):
        tree = concat.build_tree(2)
        assert tree.depth_profile() == [(1, 0)] * 2

    def test_rejects_non_smooth(self):
        for n in (5, 1, 0, -6):  # 0 must not loop forever halving itself
            with pytest.raises(ValueError, match="is not of the form"):
                concat.build_tree(n)

    def test_balanced_profiles_uniform(self):
        for n in (2, 3, 4, 6, 8, 9, 12, 24):
            profile = concat.build_tree(n).depth_profile()
            assert len(set(profile)) == 1
            k, j = profile[0]
            assert 2**k * 3**j == n

    def test_subunits_numbered_in_postorder(self):
        # 3-ary groups nearest the leaves; children are (is subunit, number or leaf)
        leaf, sub = False, True
        assert concat.build_tree(6).internal_postorder() == (
            ((leaf, 0), (leaf, 1), (leaf, 2)),
            ((leaf, 3), (leaf, 4), (leaf, 5)),
            ((sub, 0), (sub, 1)),
        )

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError, match=r"^subunit arity must be 2 or 3, got 4$"):
            concat.ConcatTree([0, 1, 2, 3])

    def test_rejects_bare_leaf(self):
        with pytest.raises(ValueError, match=r"^a tree needs at least one subunit, got a bare leaf$"):
            concat.ConcatTree(0)

    def test_rejects_repeated_leaf(self):
        with pytest.raises(ValueError, match="permutation"):
            concat.ConcatTree([[0, 1], [1, 2]])

    def test_paths_to_leaves_follow_nesting(self):
        tree = concat.ConcatTree([[0, 1, 2], [3, [4, 5]]])
        paths = tree.paths_to_leaves([5, 0, 5])
        assert [[pos for _, pos in path] for path in paths] == [[1, 1, 1], [0, 0], [1, 1, 1]]
        subunits = tree.internal_postorder()
        assert all(path[0][0] == len(subunits) - 1 for path in paths)  # the root is numbered last
        assert [len(subunits[uid]) for uid, _ in paths[0]] == [2, 2, 2]

    def test_paths_to_leaves_match_depth_profile(self):
        tree = concat.build_padded(200, permute_seed=3).tree
        paths = tree.paths_to_leaves(range(tree.n))
        arity = [len(children) for children in tree.internal_postorder()]
        profile = [
            (sum(arity[uid] == 2 for uid, _ in path), sum(arity[uid] == 3 for uid, _ in path))
            for path in paths
        ]
        assert profile == tree.depth_profile()

    def test_paths_to_leaves_rejects_unknown_leaf(self):
        tree = concat.build_tree(4)
        with pytest.raises(ValueError, match=r"^leaf 7 not present \(n=4\)$"):
            tree.paths_to_leaves([0, 7])


# nestings of 2- and 3-ary groups with None at the leaves; the root is a group
shapes = st.lists(
    st.recursive(st.none(), lambda kids: st.lists(kids, min_size=2, max_size=3), max_leaves=40),
    min_size=2,
    max_size=3,
)


def label(shape, names):
    """``shape`` with its leaves, left to right, named by ``names``."""
    if shape is None:
        return next(names)
    return [label(child, names) for child in shape]


def leaf_count(shape):
    return 1 if shape is None else sum(leaf_count(child) for child in shape)


def subunit_count(item):
    return 0 if isinstance(item, int) else 1 + sum(subunit_count(child) for child in item)


def naive_paths(item, first=0, trail=()):
    """Leaf -> root-first (postorder number, slot) pairs; ``first`` numbers item's first subunit."""
    if isinstance(item, int):
        return {item: trail}
    uid = first + subunit_count(item) - 1
    found = {}
    for slot, child in enumerate(item):
        found.update(naive_paths(child, first, trail + ((uid, slot),)))
        first += subunit_count(child)
    return found


@settings(max_examples=200, deadline=None)
@given(shape=shapes, data=st.data())
def test_stored_paths_match_a_recursive_walk(shape, data):
    n = leaf_count(shape)
    nested = label(shape, iter(data.draw(st.permutations(range(n)))))
    tree = concat.ConcatTree(nested)
    expected = naive_paths(nested)
    paths = tree.paths_to_leaves(range(n))
    assert tree.n == n
    assert paths == [expected[leaf] for leaf in range(n)]
    # each step names the child the next step is in, and the last step the leaf
    subunits = tree.internal_postorder()
    assert len(subunits) == subunit_count(nested)
    for leaf, path in enumerate(paths):
        below = [(True, uid) for uid, _ in path[1:]] + [(False, leaf)]
        assert [subunits[uid][slot] for uid, slot in path] == below


class TestChainSuccess:
    @pytest.mark.parametrize(
        "k,j,expected",
        [(2, 0, 0.75), (1, 1, 0.5 * (1 + 1 / math.sqrt(6))), (0, 0, 1.0)],
    )
    def test_known_values(self, k, j, expected):
        assert concat.chain_success(k, j) == pytest.approx(expected, abs=1e-15)

    def test_rejects_negative_stages(self):
        with pytest.raises(ValueError):
            concat.chain_success(-1, 0)


class TestAnalyticPerBit:
    def test_four_leaf_tree(self):
        np.testing.assert_allclose(
            concat.analytic_per_bit(concat.build_tree(4)), [0.75] * 4, atol=1e-15
        )

    def test_six_leaf_tree(self):
        np.testing.assert_allclose(
            concat.analytic_per_bit(concat.build_tree(6)),
            [0.5 * (1 + 1 / math.sqrt(6))] * 6,
            atol=1e-15,
        )

    def test_five_leaf_mixed_tree_favors_pair_branch(self):
        tree = concat.ConcatTree([[0, 1, 2], [3, 4]])
        per_bit = concat.analytic_per_bit(tree)
        assert per_bit[3] == pytest.approx(0.75, abs=1e-15)
        assert per_bit[2] == pytest.approx(0.5 * (1 + 1 / math.sqrt(6)), abs=1e-15)
        assert per_bit[3] > per_bit[2]

    def test_bias_multiplication_matches_stage_formula(self):
        # success = (1 + product of per-stage biases) / 2 along each leaf-to-root path
        bias2 = 2 * concat.chain_success(1, 0) - 1
        bias3 = 2 * concat.chain_success(0, 1) - 1
        for nested in ([[0, 1], [2, 3]], [[0, 1, 2], [3, 4]], [[[0, 1], [2, 3]], [4, 5]]):
            tree = concat.ConcatTree(nested)
            for leaf, (k, j) in enumerate(tree.depth_profile()):
                expected = 0.5 * (1 + bias2**k * bias3**j)
                assert concat.analytic_per_bit(tree)[leaf] == pytest.approx(expected, abs=1e-12)


def rates(sims: concat.SimulationResults) -> list[float]:
    return [successes / sims.shots for successes in sims.successes]


def stage_bias(arity, slot, engine):
    """Mean over class i and Alice bit a of 2 P(spin = a XOR c_slot(i)) - 1, from the sampler's tables.

    Slot j's class bit is bit (arity - 1 - j) of i; slot 0 has class bit 0.
    """
    spin_zero = concat._spin_tables(arity, engine)[slot]
    classes = 1 << (arity - 1)
    total = 0.0
    for i in range(classes):
        class_bit = (i >> (arity - 1 - slot)) & 1
        for a in (0, 1):
            p = spin_zero[2 * i + a]
            total += 2.0 * (p if a == class_bit else 1.0 - p) - 1.0
    return total / (2 * classes)


def oracle_per_bit(tree, engine):
    """Per leaf: 1/2 + 1/2 times the product of the stage biases on its path from the root."""
    subunits = tree.internal_postorder()
    biases = {(a, j): stage_bias(a, j, engine) for a in (2, 3) for j in range(a)}
    return np.array([
        0.5 + 0.5 * math.prod(biases[len(subunits[uid]), slot] for uid, slot in path)
        for path in tree.paths_to_leaves(range(tree.n))
    ])


@pytest.mark.parametrize("engine", ["born", "mzi"])
@pytest.mark.parametrize("arity", [2, 3])
def test_stage_bias_is_one_over_root_arity(arity, engine):
    for slot in range(arity):
        assert stage_bias(arity, slot, engine) == pytest.approx(1 / math.sqrt(arity), abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(shape=shapes, engine=st.sampled_from(["born", "mzi"]), data=st.data())
def test_stage_oracle_matches_analytic_per_bit(shape, engine, data):
    n = leaf_count(shape)
    tree = concat.ConcatTree(label(shape, iter(data.draw(st.permutations(range(n))))))
    np.testing.assert_allclose(oracle_per_bit(tree, engine), concat.analytic_per_bit(tree), rtol=0, atol=1e-12)


@pytest.mark.parametrize("engine", ["born", "mzi"])
@pytest.mark.parametrize(
    "nested,bits,seed",
    [
        ([[0, 1], [2, 3]], [1, 0, 1, 1], 3),
        ([[4, 0, 2], [1, 3]], [0, 1, 1, 0, 1], 5),
        ([[[5, 0], [2, 6, 1]], [3, 4]], [1, 1, 0, 1, 0, 0, 1], 8),
    ],
)
def test_sampler_within_five_standard_errors_of_the_oracle(nested, bits, seed, engine):
    tree = concat.ConcatTree(nested)
    shots = 40_000
    sims = concat.simulate(tree, bits, range(tree.n), shots, seed, engine=engine)
    oracle = oracle_per_bit(tree, engine)
    assert np.all(np.abs(np.array(rates(sims)) - oracle) <= cli.Z * np.sqrt(oracle * (1 - oracle) / shots))


class TestBounds:
    @pytest.mark.parametrize("n,expected", [(4, 0.75), (2, 0.8535533905932737), (9, 2 / 3)])
    def test_quantum_bound(self, n, expected):
        assert concat.quantum_bound(n) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "n,expected",
        [(5, 0.5 + 0.5 / math.sqrt(6)), (7, 0.5 + 0.5 / math.sqrt(8)), (4, 0.75)],
    )
    def test_padded_lower_bound(self, n, expected):
        assert concat.padded_lower_bound(n) == pytest.approx(expected, abs=1e-12)

    def test_bound_consistent_with_expression_cap(self):
        for n in range(2, 31):
            assert success_from_bell(n, quantum_max(n)) == pytest.approx(
                concat.quantum_bound(n), abs=1e-12
            )


class TestSimulate:
    def test_four_leaf_rate(self):
        tree = concat.build_tree(4)
        [rate] = rates(concat.simulate(tree, [1, 0, 1, 1], [2], 200_000, seed=17))
        assert abs(rate - 0.75) <= 0.01

    def test_six_leaf_rate(self):
        tree = concat.build_tree(6)
        [rate] = rates(concat.simulate(tree, [0] * 6, [4], 200_000, seed=17))
        assert abs(rate - 0.7041241) <= 0.01

    def test_single_pair_rate(self):
        tree = concat.build_tree(2)
        [rate] = rates(concat.simulate(tree, [1, 0], [0], 200_000, seed=17))
        assert abs(rate - 0.8535534) <= 0.01

    def test_rate_close_to_analytic_for_all_leaves(self):
        tree = concat.ConcatTree([[0, 1, 2], [3, 4]])
        per_bit = concat.analytic_per_bit(tree)
        shots = 100_000
        sims = concat.simulate(tree, [1, 1, 0, 0, 1], range(5), shots, seed=23)
        assert sims.shots == shots
        for leaf, rate in enumerate(rates(sims)):
            assert abs(rate - per_bit[leaf]) <= 5.0 / math.sqrt(shots)

    def test_engines_agree_statistically(self):
        tree = concat.build_tree(6)
        [born] = rates(concat.simulate(tree, [1, 0, 1, 1, 0, 0], [3], 50_000, seed=11, engine="born"))
        [apparatus] = rates(concat.simulate(tree, [1, 0, 1, 1, 0, 0], [3], 50_000, seed=11, engine="mzi"))
        assert abs(born - apparatus) <= 5.0 / math.sqrt(50_000)

    def test_reproducible_across_worker_counts(self):
        tree = concat.build_tree(4)
        baseline = concat.simulate(tree, [1, 1, 0, 1], [1], 80_000, seed=5, workers=1)
        for workers in (2, 4):
            rerun = concat.simulate(tree, [1, 1, 0, 1], [1], 80_000, seed=5, workers=workers)
            assert rerun == baseline

    def test_rejects_bad_query(self):
        tree = concat.build_tree(4)
        with pytest.raises(ValueError):
            concat.simulate(tree, [0, 0, 0, 0], [4], 10, seed=1)

    def test_rejects_bad_engine(self):
        tree = concat.build_tree(2)
        with pytest.raises(ValueError):
            concat.simulate(tree, [0, 0], [0], 10, seed=1, engine="exact")


def leaf_positions(tree):
    """Left-to-right position of each leaf label in a balanced tree, read off its path."""
    subunits = tree.internal_postorder()
    positions = []
    for path in tree.paths_to_leaves(range(tree.n)):
        position = 0
        for uid, slot in path:
            position = position * len(subunits[uid]) + slot
        positions.append(position)
    return positions


class TestPadding:
    def test_unpermuted_labels_follow_positions(self):
        tree = concat.build_padded(5).tree
        assert tree.n == 6
        assert leaf_positions(tree) == list(range(6))

    def test_permuted_labels_are_the_shared_seed_order(self):
        # the leaf at position p is labelled order[p]: input bit order[p] if < 5, else padding
        order = np.random.default_rng(9).permutation(6)
        positions = leaf_positions(concat.build_padded(5, permute_seed=9).tree)
        assert [positions[label] for label in order] == list(range(6))

    def test_padded_simulation_matches_leaf_profile(self):
        tree = concat.build_padded(5, permute_seed=9).tree
        per_bit = concat.analytic_per_bit(tree)
        shots = 100_000
        [rate] = rates(concat.simulate(tree, [1, 0, 1, 1, 0, 0], [2], shots, seed=29))
        assert abs(rate - per_bit[2]) <= 5.0 / math.sqrt(shots)

    def test_smooth_input_unpadded(self):
        assert concat.build_padded(6).tree.n == 6

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 5000), permute_seed=st.sampled_from([None, 0, 3, 9]))
    def test_every_leaf_has_the_stages_of_the_padded_size(self, n, permute_seed):
        # the CLI writes each analytic row from m = smooth_ceiling(n) alone
        m = concat.smooth_ceiling(n)
        stages = concat.smooth_factorization(m)
        tree = concat.build_padded(n, permute_seed=permute_seed).tree
        assert tree.depth_profile() == [stages] * m
        assert concat.analytic_per_bit(tree).tolist() == [concat.chain_success(*stages)] * m
