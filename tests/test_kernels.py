"""Block-wise sampling kernels: bit-identical to full-array references, memory flat in shots.

``mzi.BLOCK`` is patched to 64, 128 or 192 shots, multiples of the 64 coins in
a word as ``mzi.blocks`` requires, so that spans of a few hundred shots cross
several block and word edges; each kernel is also checked once at the real
block. The references draw each span's uniforms in one call, from the 32-bit
halves of raw words and a tie word for every draw, and each span's concat coins
in one call, as the bits of raw words. The kernels read a tie word only where a
draw ties a threshold.
"""

import inspect
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

block_sizes = st.sampled_from([64, 128, 192])
seeds = st.integers(0, 2**64 - 1)
# zero entries, equal entries and generic weights; at least one weight is positive
weights = st.lists(
    st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 1.0), min_size=4, max_size=4
).filter(lambda w: sum(w) > 0)


@settings(max_examples=300, deadline=None)
@given(
    block=block_sizes,
    weights=weights,
    seed=seeds,
    setting_index=st.integers(0, 2**64 - 1),
    start=st.integers(0, 1000),
    shots=st.integers(0, 500),
)
# the real block from an unaligned shot: a short first block, two whole blocks and a tail
@example(
    block=mzi.BLOCK, weights=[0.1, 0.2, 0.3, 0.4], seed=5, setting_index=2, start=4003,
    shots=3 * mzi.BLOCK + 5,
)
@example(
    block=mzi.BLOCK, weights=[1.0, 0.0, 3.0, 0.0], seed=6, setting_index=0, start=4001,
    shots=3 * mzi.BLOCK + 5,
)
# exact 0 and 1 entries, as the aligned-z protocol run draws from, at every start % 4
@example(block=64, weights=[0.0, 1.0, 1.0, 0.0], seed=7, setting_index=1, start=2, shots=170)
@example(block=128, weights=[0.0, 0.0, 1.0, 0.0], seed=8, setting_index=3, start=3, shots=300)
@example(block=192, weights=[1.0, 0.0, 0.0, 0.0], seed=9, setting_index=0, start=1, shots=400)
@example(block=64, weights=[0.0, 0.0, 0.0, 1.0], seed=2**64 - 1, setting_index=2, start=0, shots=240)
def test_mzi_kernel_matches_searchsorted(block, weights, seed, setting_index, start, shots):
    probs = np.asarray(weights) / sum(weights)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    outcomes = np.searchsorted(cum, uniforms(seed, setting_index, start, shots), side="right")
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
    block=block_sizes, settings_=st.sampled_from([PROTOCOL, ALIGNED]), shots=st.integers(0, 500),
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
    """``x >= thresholds(c)`` equals ``x * 2^-53 >= c`` at the integers next to c * 2^53.

    For 0 < K < 2^53, a raw word w also passes ``w >= K << 11`` exactly where
    ``(w >> 11) >= K``, at the words next to K << 11 and at the last word above it.
    """
    edge = math.ceil(c * 2**53)
    ks = np.clip(np.array([edge - 1, edge, edge + 1]), 0, 2**53 - 1).astype(np.uint64)
    k = mzi.thresholds(c)
    assert ((ks >= k) == (ks * 2.0**-53 >= c)).all()
    if 0 < k < 2**53:
        words = np.array([(int(k) << 11) - 1, int(k) << 11, (int(k) << 11) + 2047], dtype=np.uint64)
        assert ((words >= k << 11) == ((words >> 11) >= k)).all()


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


def test_boundaries_reach_the_extreme_raw_word_thresholds():
    # the raw-word form is checked at K = 1, 2^52 and 2^53 - 1 by the boundaries above
    assert mzi.thresholds([2.0**-53, 0.5, 1 - 2.0**-53]).tolist() == [1, 2**52, 2**53 - 1]


class FixedWords:
    """A bit generator stand-in that hands out the given raw words in order."""

    def __init__(self, *words):
        self.words = list(words)

    def random_raw(self, count):
        out, self.words = self.words[:count], self.words[count:]
        return np.array(out, dtype=np.uint64)


@settings(max_examples=300, deadline=None)
@given(block=block_sizes, lo=st.integers(0, 1000), shots=st.integers(0, 1000))
@example(block=mzi.BLOCK, lo=mzi.BLOCK - 1, shots=mzi.BLOCK + 2)  # one shot, a whole block, one shot
@example(block=mzi.BLOCK, lo=2 * mzi.BLOCK, shots=mzi.BLOCK)  # opens on an edge: one whole block
@example(block=64, lo=5, shots=0)  # an empty span: no block
def test_blocks_tile_the_span_on_block_edges(block, lo, shots):
    with mock.patch.object(mzi, "BLOCK", block):
        cut = list(mzi.blocks(lo, lo + shots))
    assert [k for start, end in cut for k in range(start, end)] == list(range(lo, lo + shots))
    assert all(0 < end - start <= block for start, end in cut)
    assert all(start % block == 0 for start, _ in cut[1:])


@pytest.mark.parametrize("block", [3, 96])
def test_blocks_need_whole_words_of_coins(block):
    with mock.patch.object(mzi, "BLOCK", block), pytest.raises(ValueError, match="multiple of 64"):
        list(mzi.blocks(0, 10))


def test_coins_are_the_bits_of_each_word_low_bit_first():
    # word 0 sets coins 0 and 63; word 1 sets coins 64 + 1, 64 + 2 and 64 + 63
    words = FixedWords(1 | 1 << 63, 0b110 | 1 << 63)
    got = mzi.units(words, 0, 70, 1)
    assert np.flatnonzero(got).tolist() == [0, 63, 65, 66] and len(got) == 70 and got.dtype == np.uint8
    assert words.words == []
    # from coin 62 of word 5 to coin 1 of word 6: the take skips coins 0 .. 61 and
    # draws no word past the one it ends in
    words = FixedWords(1 << 62 | 1 << 63, 0b10, 7)
    assert mzi.units(words, 5 * 64 + 62, 4, 1).tolist() == [1, 1, 0, 1] and words.words == [7]


def test_draws_are_the_halves_of_each_word_low_half_first():
    words = FixedWords(5 | 7 << 32, 11 | 13 << 32, 17 | 19 << 32)
    got = mzi.units(words, 0, 3, 32)
    assert got.tolist() == [5, 7, 11] and got.dtype == np.uint32 and words.words == [17 | 19 << 32]
    # from the high half of word 1 to the low half of word 2
    words = FixedWords(5 | 7 << 32, 11 | 13 << 32, 17 | 19 << 32)
    assert mzi.units(words, 3, 2, 32).tolist() == [7, 11] and words.words == [17 | 19 << 32]


class TieLane:
    """``mzi.stream`` stand-in: lane 1 hands out one tie word with top 21 bits ``t``, and counts its opens."""

    def __init__(self, t):
        self.t, self.opens = t, 0

    def __call__(self, seed, stream_id, start=0, lane=0):
        if not lane:
            return FixedWords()
        self.opens += 1
        return FixedWords(self.t << 43 | 2**43 - 1)


@settings(max_examples=500, deadline=None)
@given(k=st.integers(0, 2**53), dh=st.integers(-2, 2), t=st.integers(0, 2**21 - 1))
@example(k=2**53, dh=0, t=2**21 - 1)  # q = 2^32 passes no draw, not even h = 2^32 - 1
@example(k=0, dh=0, t=0)  # K = 0 passes every draw
@example(k=5 << 21, dh=0, t=0)  # a tie with r = 0 passes without its tie word
def test_draw_passes_exactly_where_its_53_bit_uniform_does(k, dh, t):
    # one shot whose draw h sits next to K's high bits q, against the row's first threshold K
    h = min(max((k >> 21) + dh, 0), 2**32 - 1)
    c = k * 2.0**-53
    probs = [c, 1.0 - c, 0.0, 0.0]

    def one_draw(bitgen, start, size, width):
        return np.array([h], dtype=np.uint32)

    lane = TieLane(t)
    with mock.patch.object(mzi, "units", one_draw), mock.patch.object(mzi, "stream", lane):
        tallies = mzi.sample_setting(probs, 1, 0, 0, 0)
    assert tallies[1:].sum() == ((h << 21 | t) >= k)
    assert lane.opens == (h == k >> 21 and k % 2**21 != 0)


def test_threshold_of_nan_passes_no_draw():
    # no double compares >= NaN
    assert mzi.thresholds(math.nan) == 2**53


@settings(max_examples=500, deadline=None)
@given(c=st.floats(0.0, 1.0))
def test_threshold_matches_double_compare(c):
    assert_threshold_exact(c)


def uniforms(seed, stream_id, lo, count):
    """``count`` uniforms of a stream from shot ``lo``, drawn in one call: x 2^-53 for x = h 2^21 + t.

    Draw k's h is half k % 2 of word k // 2, low half first, by shifts; its t
    is the top 21 bits of word k of the tie lane, read for every draw.
    """
    first = lo // 2
    raw = mzi.stream(seed, stream_id, first).random_raw((lo + count + 1) // 2 - first)
    h = ((raw[:, None] >> np.array([0, 32], dtype=np.uint64)) & np.uint64(2**32 - 1)).reshape(-1)
    t = mzi.stream(seed, stream_id, lo, lane=1).random_raw(count) >> np.uint64(43)
    return ((h[lo % 2 : lo % 2 + count] << np.uint64(21)) | t) * 2.0**-53


def coins(seed, stream_id, lo, count):
    """``count`` coins of an Alice stream from shot ``lo``: bit k % 64 of word k // 64, by shifts."""
    first = lo // 64
    raw = mzi.stream(seed, stream_id, first).random_raw((lo + count + 63) // 64 - first)
    packed = (raw[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return packed.reshape(-1)[lo % 64 : lo % 64 + count].astype(np.uint8)


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
        a = coins(seed, 2 * uid + concat._ALICE_STREAM, lo, count)
        messages[uid] = ref ^ a
        alice_bits[uid] = a
        classes[uid] = cls

    received = messages[len(subunits) - 1]
    for uid, pos in tree.paths_to_leaves([query])[0]:
        p_spin0 = cond_tables[len(subunits[uid])][classes[uid], alice_bits[uid], pos]
        spin = uniforms(seed, 2 * uid + concat._BOB_STREAM, lo, count) >= p_spin0
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
    block=block_sizes,
    n=st.sampled_from(SMOOTH),
    data=st.data(),
    seed=seeds,
    lo=st.integers(0, 1000),
    shots=st.integers(1, 500),
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


@settings(max_examples=100, deadline=None)
@given(
    block=block_sizes,
    n=st.sampled_from(SMOOTH),
    seed=seeds,
    lo=st.integers(0, 1000),
    shots=st.integers(1, 500),
    cuts=st.lists(st.integers(1, 499), max_size=4),
)
# cuts on both sides of a 64-shot word and block edge, and one inside a word
@example(block=64, n=6, seed=3, lo=60, shots=300, cuts=[3, 4, 5, 37])
def test_concat_counts_add_up_over_any_span_cut(block, n, seed, lo, shots, cuts):
    tree = concat.build_tree(n)
    bits = [k % 3 % 2 for k in range(n)]
    queries = list(range(n))
    edges = [lo] + sorted({lo + c for c in cuts if c < shots}) + [lo + shots]
    with mock.patch.object(mzi, "BLOCK", block):
        whole = concat.simulate_range(tree, bits, queries, seed, lo, lo + shots)
        parts = [concat.simulate_range(tree, bits, queries, seed, a, b) for a, b in zip(edges, edges[1:])]
    assert [sum(counts) for counts in zip(*parts)] == whole


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


def test_each_arity_builds_its_steered_table_once():
    tree = concat.build_padded(200, permute_seed=3).tree  # 2- and 3-bit subunits
    built = []
    real = qrac.steered_table

    def spy(alice, bob):
        built.append(len(bob))  # one spin direction per child slot
        return real(alice, bob)

    concat._spin_tables.cache_clear()
    concat._spin_thresholds.cache_clear()
    with mock.patch.object(qrac, "steered_table", spy):
        for _ in range(2):
            concat.simulate(tree, [k % 2 for k in range(tree.n)], range(tree.n), 64, seed=4, workers=4)
    assert sorted(built) == [2, 3]
    assert not concat._spin_tables(3).flags.writeable and not concat._spin_thresholds(3).flags.writeable


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


def deep_span_takes(lo: int, hi: int) -> tuple[dict, list]:
    """Each stream's take sizes, and live bytes, of one deep span [lo, hi).

    Query 17 of the padded n = 200 code (n = 216) opens 24 Alice and 6 Bob
    streams. Returns per width the take sizes of each of its streams, in
    opening order; and as each take starts, the bytes that ``mzi.units``
    allocated and are still live.
    """
    tree = concat.build_padded(200, permute_seed=3).tree
    bits = [k % 2 for k in range(tree.n)]
    takes, held = {}, []
    source, first = inspect.getsourcelines(mzi.units)
    real = mzi.units

    def traced(bitgen, start, size, width):
        # keyed by stream, each kept alive so that no later stream reuses its id
        takes.setdefault(id(bitgen), (bitgen, width, []))[2].append(size)
        held.append(sum(
            trace.size for trace in tracemalloc.take_snapshot().traces
            if trace.traceback[0].filename == mzi.__file__
            and first <= trace.traceback[0].lineno < first + len(source)
        ))
        return real(bitgen, start, size, width)

    tracemalloc.start()
    try:
        with mock.patch.object(mzi, "units", traced):
            concat.simulate_range(tree, bits, [17], 9, lo, hi)
    finally:
        tracemalloc.stop()
    return {w: [sizes for _, width, sizes in takes.values() if width == w] for w in (1, 32)}, held


# what ``mzi.units`` allocated and is still live as a take starts: the coins (1 B each)
# and draws (4 B each) of the block the span still holds, and their array headers.
# Units kept from one block to the next as a view, or a take kept past its block,
# would pin a whole block, 2^15 B of coins or 2^17 B of draws, per stream
HELD_BOUND = 5 * mzi.BLOCK + 2048


@pytest.mark.parametrize(
    "lo, sizes",
    [
        # off a BLOCK edge, one shot past a coin word edge and an odd draw: the first
        # block runs to the next edge and the last takes the rest
        (65, [mzi.BLOCK - 65, mzi.BLOCK, mzi.BLOCK, 65]),
        (2 * mzi.BLOCK, [mzi.BLOCK] * 3),
    ],
    ids=["off-edge", "on-edge"],
)
def test_deep_span_takes_whole_blocks_after_the_first(lo, sizes):
    takes, held = deep_span_takes(lo, lo + 3 * mzi.BLOCK)
    assert takes == {1: [sizes] * 24, 32: [sizes] * 6}
    assert len(held) == len(sizes) * (24 + 6) and max(held) < HELD_BOUND, held


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
