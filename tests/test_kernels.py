"""Block-wise sampling kernels: bit-identical to full-array references, memory flat in shots.

``mzi.BLOCK`` is patched down to a few shots so that block edges fall inside
small spans; each kernel is also checked once at the real block. The references
draw each span's uniforms in one call, as doubles.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racsim import cli, concat, mzi, qcore, qrac

STATE = qcore.maximally_entangled_state()
SETTING = mzi.protocol_settings(*qrac.steering_bases())[0]
SMOOTH = [2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36]

blocks = st.sampled_from([1, 3, 8])
seeds = st.integers(0, 2**64 - 1)
# zero entries, equal entries and generic weights; at least one weight is positive
weights = st.lists(
    st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 1.0), min_size=4, max_size=4
).filter(lambda w: sum(w) > 0)


@settings(max_examples=300, deadline=None)
@given(
    block=blocks,
    weights=weights,
    seed=seeds,
    setting_index=st.integers(0, 2**64 - 1),
    start=st.integers(0, 1000),
    shots=st.integers(0, 50),
)
# the real block, over three whole blocks and a tail from an unaligned shot
@example(
    block=mzi.BLOCK, weights=[0.1, 0.2, 0.3, 0.4], seed=5, setting_index=2, start=4003,
    shots=3 * mzi.BLOCK + 5,
)
@example(
    block=mzi.BLOCK, weights=[1.0, 0.0, 3.0, 0.0], seed=6, setting_index=0, start=4001,
    shots=3 * mzi.BLOCK + 5,
)
# exact 0 and 1 entries, as the aligned-z protocol run draws from, at every start % 4
@example(block=8, weights=[0.0, 1.0, 1.0, 0.0], seed=7, setting_index=1, start=2, shots=17)
@example(block=3, weights=[0.0, 0.0, 1.0, 0.0], seed=8, setting_index=3, start=3, shots=10)
@example(block=1, weights=[1.0, 0.0, 0.0, 0.0], seed=9, setting_index=0, start=1, shots=4)
@example(block=8, weights=[0.0, 0.0, 0.0, 1.0], seed=2**64 - 1, setting_index=2, start=0, shots=24)
def test_mzi_kernel_matches_searchsorted(block, weights, seed, setting_index, start, shots):
    probs = np.asarray(weights) / sum(weights)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    uniforms = np.random.Generator(mzi.stream(seed, setting_index, start)).random(shots)
    outcomes = np.searchsorted(cum, uniforms, side="right")
    path_bits = np.empty(shots, dtype=np.uint8)
    spin_bits = np.empty(shots, dtype=np.uint8)
    with mock.patch.object(mzi, "BLOCK", block):
        tallies = mzi.sample_setting(probs, shots, seed, setting_index, start, path_bits, spin_bits)
        counts_only = mzi.sample_setting(probs, shots, seed, setting_index, start)
    assert tallies.tolist() == np.bincount(outcomes, minlength=4).tolist()
    assert counts_only.tolist() == tallies.tolist()
    assert path_bits.tolist() == (outcomes >> 1).tolist()
    assert spin_bits.tolist() == (outcomes & 1).tolist()
    assert mzi.counts_from_outcomes(path_bits, spin_bits).tolist() == tallies.tolist()


# the protocol settings and the aligned-z ones, whose Born rows are exactly 0, 1/2, 1/2, 0
PROTOCOL = mzi.protocol_settings(*qrac.steering_bases())
Z_PAIR = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
ALIGNED = mzi.protocol_settings(Z_PAIR, Z_PAIR)


@settings(max_examples=100, deadline=None)
@given(
    block=blocks, settings_=st.sampled_from([PROTOCOL, ALIGNED]), shots=st.integers(0, 50),
    workers=st.integers(1, 3), seed=seeds,
)
def test_counts_only_sampling_matches_kept_bits(block, settings_, shots, workers, seed):
    with mock.patch.object(mzi, "BLOCK", block):
        kept = mzi.sample_events(STATE, settings_, shots, seed, workers, events=True)
        counts_only = mzi.sample_events(STATE, settings_, shots, seed, workers)
    assert counts_only.outcomes == ()
    assert np.array_equal(counts_only.probs, kept.probs)
    assert counts_only.counts.tolist() == kept.counts.tolist()
    assert [mzi.counts_from_outcomes(*bits).tolist() for bits in kept.outcomes] == kept.counts.tolist()


def assert_threshold_exact(c: float) -> None:
    """``x >= thresholds(c)`` equals ``x * 2^-53 >= c`` at the integers next to c * 2^53."""
    edge = math.ceil(c * 2**53)
    ks = np.clip(np.array([edge - 1, edge, edge + 1]), 0, 2**53 - 1).astype(np.uint64)
    assert ((ks >= mzi.thresholds(c)) == (ks * 2.0**-53 >= c)).all()


@pytest.mark.parametrize(
    "c",
    [
        -0.25,
        -0.0,
        -5e-324,
        0.0,
        2.0**-53,
        np.nextafter(0.5, 0.0),
        0.5,
        np.nextafter(0.5, 1.0),
        1 - 2.0**-53,
        1.0,
        1 + 2.0**-52,
        1.5,
    ],
)
def test_threshold_matches_double_compare_at_boundaries(c):
    assert_threshold_exact(c)


def test_threshold_of_nan_passes_no_draw():
    # no double compares >= NaN
    assert mzi.thresholds(math.nan) == 2**53


@settings(max_examples=500, deadline=None)
@given(c=st.floats(0.0, 1.0))
def test_threshold_matches_double_compare(c):
    assert_threshold_exact(c)


def doubles(seed, stream_id, lo, count):
    """``count`` doubles of a stream from shot ``lo``, drawn in one call."""
    return np.random.Generator(mzi.stream(seed, stream_id, lo)).random(count)


def reference_simulate_range(tree, bits, query, seed, lo, hi):
    """Full-array span kernel: one message, Alice bit and class array per subunit."""
    count = hi - lo
    subunits = tree.internal_postorder()
    # P(spin outcome 0 | class, Alice bit, slot), one (class, slot) pair at a time
    cond_tables = {}
    for arity in {len(children) for children in subunits}:
        alice, bob = qrac.default_bases(arity)
        pairs = [[2.0 * qcore.joint_table(STATE, -a, b)[:, 0] for b in bob] for a in alice]
        cond_tables[arity] = np.array(pairs).transpose(0, 2, 1)

    messages, alice_bits, classes = {}, {}, {}
    for uid, children in enumerate(subunits):
        child_vals = []
        for is_subunit, i in children:
            if is_subunit:
                child_vals.append(messages[i])
            else:
                child_vals.append(np.full(count, bits[i], dtype=np.uint8))
        ref = child_vals[0]
        cls = np.zeros(count, dtype=np.intp)
        for value in child_vals[1:]:
            cls = (cls << 1) | (value ^ ref)
        a = (doubles(seed, 2 * uid + concat._ALICE_STREAM, lo, count) < 0.5).astype(np.uint8)
        messages[uid] = ref ^ a
        alice_bits[uid] = a
        classes[uid] = cls

    received = messages[len(subunits) - 1]
    for uid, pos in tree.paths_to_leaves([query])[0]:
        p_spin0 = cond_tables[len(subunits[uid])][classes[uid], alice_bits[uid], pos]
        spin = doubles(seed, 2 * uid + concat._BOB_STREAM, lo, count) >= p_spin0
        received = spin.astype(np.uint8) ^ received
    return int(np.sum(received == bits[query]))


def test_concat_kernel_matches_full_array_reference_at_real_block():
    tree = concat.build_tree(12)
    bits = [k % 3 % 2 for k in range(tree.n)]
    queries = [0, 5, 11]
    lo = 4 * 1000 + 3
    hi = lo + 3 * mzi.BLOCK + 5
    expected = [reference_simulate_range(tree, bits, q, 11, lo, hi) for q in queries]
    assert concat.simulate_range(tree, bits, queries, 11, lo, hi) == expected


def nested_form(tree):
    """The nesting ``tree`` was built from, rendered from its subunits' children."""
    subunits = tree.internal_postorder()

    def render(is_subunit, i):
        return [render(*child) for child in subunits[i]] if is_subunit else i

    return render(True, len(subunits) - 1)


def relabeled(nested, order):
    """The same nesting with leaf ``i`` renamed ``order[i]``."""

    def walk(item):
        return order[item] if isinstance(item, int) else [walk(c) for c in item]

    return concat.ConcatTree(walk(nested))


@settings(max_examples=200, deadline=None)
@given(
    block=blocks,
    n=st.sampled_from(SMOOTH),
    data=st.data(),
    seed=seeds,
    lo=st.integers(0, 250).map(lambda k: 4 * k),
    shots=st.integers(1, 50),
)
def test_concat_kernel_matches_full_array_reference(block, n, data, seed, lo, shots):
    order = data.draw(st.permutations(range(n)))
    tree = relabeled(nested_form(concat.build_tree(n)), order)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # repeats and any order: each query's count is that of a run of it alone
    queries = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    expected = [reference_simulate_range(tree, bits, q, seed, lo, lo + shots) for q in queries]
    with mock.patch.object(mzi, "BLOCK", block):
        assert concat.simulate_range(tree, bits, queries, seed, lo, lo + shots) == expected


def opened_streams(tree, queries) -> list[int]:
    """Stream ids one ``simulate_range`` span opens, in opening order."""
    opened = []
    real = mzi.stream

    def spy(seed, stream_id, start=0):
        opened.append(stream_id)
        return real(seed, stream_id, start)

    with mock.patch.object(mzi, "stream", spy):
        concat.simulate_range(tree, [0] * tree.n, queries, 3, 0, 8)
    return opened


def read_subunits(tree, query) -> set[int]:
    """Subunits whose Alice bit reaches the decoder of ``query``, found bottom-up.

    Alice's bit at u flips the message of every subunit reached by climbing from u
    while the climb stays on first children. The decoder reads the root's message
    and the message of every child of an on-path subunit.
    """
    subunits = tree.internal_postorder()
    parent = {i: uid for uid, children in enumerate(subunits) for is_subunit, i in children if is_subunit}
    on_path = {uid for uid, _ in tree.paths_to_leaves([query])[0]}
    read = set()
    for uid in range(len(subunits)):
        w = uid
        while True:
            up = parent.get(w)
            if up is None or up in on_path:
                read.add(uid)
                break
            if subunits[up][0] != (True, w):
                break
            w = up
    return read


def test_one_query_opens_only_the_streams_it_reads():
    tree = concat.build_padded(200, permute_seed=3).tree
    query = 17  # leaf 17 carries input bit 17
    opened = opened_streams(tree, [query])
    alice = sorted(s // 2 for s in opened if s % 2 == concat._ALICE_STREAM)
    bob = sorted(s // 2 for s in opened if s % 2 == concat._BOB_STREAM)
    assert len(opened) == len(set(opened))
    assert alice == sorted(read_subunits(tree, query)) and len(alice) == 24
    (path,) = tree.paths_to_leaves([query])
    assert bob == sorted(uid for uid, _ in path) and len(bob) == 6


def test_all_queries_open_each_stream_once():
    tree = concat.build_padded(200, permute_seed=3).tree
    subunits = len(tree.internal_postorder())
    assert subunits == 111
    # every subunit is on some leaf's path, so each opens its Alice and its Bob stream
    assert sorted(opened_streams(tree, range(tree.n))) == list(range(2 * subunits))


def traced_peak(run) -> int:
    """Peak traced bytes allocated while ``run()`` executes, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_concat_scratch_does_not_grow_with_shots():
    tree = concat.build_tree(54)
    bits = [k % 2 for k in range(tree.n)]

    def peak(blocks):
        return traced_peak(lambda: concat.simulate(tree, bits, [5], blocks * mzi.BLOCK, seed=9))

    peak(1)  # lazy imports on a first call are not scratch
    assert peak(8) <= 1.25 * peak(2)


def test_concat_all_queries_scratch_does_not_grow_with_shots():
    tree = concat.build_tree(54)
    bits = [int(k % 3 == 0) for k in range(tree.n)]
    queries = range(tree.n)

    def peak(blocks):
        return traced_peak(
            lambda: concat.simulate(tree, bits, queries, blocks * mzi.BLOCK, seed=9)
        )

    peak(1)  # lazy imports on a first call are not scratch
    assert peak(8) <= 1.25 * peak(2)


def sample_events_scratch(blocks: int, events: bool) -> int:
    """Traced peak of one sampling run, less the path and spin bit arrays it keeps."""
    shots = blocks * mzi.BLOCK
    outputs = 2 * shots if events else 0
    return traced_peak(lambda: mzi.sample_events(STATE, [SETTING], shots, seed=9, events=events)) - outputs


def test_sample_events_scratch_does_not_grow_with_shots():
    sample_events_scratch(1, True)  # lazy imports on a first call are not scratch
    assert sample_events_scratch(8, True) <= 1.25 * sample_events_scratch(2, True)


def test_counts_only_sample_events_scratch_does_not_grow_with_shots():
    sample_events_scratch(1, False)  # lazy imports on a first call are not scratch
    assert sample_events_scratch(8, False) <= 1.25 * sample_events_scratch(2, False)


def test_report_holds_no_outcome_bits():
    # one protocol run's bits would be 8 MB: 4 settings x 10^6 shots x 2 B
    cli.report_rows(1, 1000, 1000, 1)  # lazy imports on a first call are not the report's
    assert traced_peak(lambda: cli.report_rows(1, 10**6, 20_000, 1)) < 4 * 10**6


def test_write_events_scratch_does_not_grow_with_shots(tmp_path):
    def peak(blocks):
        result = mzi.sample_events(STATE, [SETTING], blocks * mzi.BLOCK, seed=9, events=True)
        return traced_peak(lambda: cli.write_events(result, str(tmp_path / "events.jsonl")))

    peak(1)  # lazy imports on a first call are not scratch
    assert peak(8) <= 1.25 * peak(2)
