"""Block-wise sampling kernels: bit-identical to full-array references, memory flat in shots.

``mzi.BLOCK`` is patched down to a few shots so that block edges fall inside
small spans; each kernel is also checked once at the real block. The references
draw each span's uniforms in one call, from the 32-bit halves of raw words and a
tie word for every draw, and each span's concat coins in one call, as the bits
of raw words. The kernels read a tie word only where a draw ties a threshold.
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


def fixed_units(width, *words):
    """``mzi.Units`` of the given width at unit 0, reading the given words."""
    units = mzi.Units(0, 0, 0, width)
    units.bitgen = FixedWords(*words)
    return units


def test_coin_k_is_bit_k_mod_64_of_word_k_div_64():
    # word 0 sets coins 0 and 63; word 1 sets coins 64 + 1, 64 + 2 and 64 + 63
    units = fixed_units(1, 1 | 1 << 63, 0b110 | 1 << 63)
    got = units.take(70)
    assert np.flatnonzero(got).tolist() == [0, 63, 65, 66] and len(got) == 70
    assert np.flatnonzero(units.carried).tolist() == [63 - 6] and len(units.carried) == 58
    # the carried bits serve the next take before any word is drawn
    got = units.take(58)
    assert np.flatnonzero(got).tolist() == [57] and len(units.carried) == 0 and units.bitgen.words == []


def test_draw_k_is_half_k_mod_2_of_word_k_div_2():
    units = fixed_units(32, 5 | 7 << 32, 11 | 13 << 32, 17 | 19 << 32)
    assert units.take(3).tolist() == [5, 7, 11] and units.carried.tolist() == [13]
    assert units.take(1).tolist() == [13] and units.bitgen.words == [17 | 19 << 32]
    assert units.take(1).tolist() == [17] and units.carried.tolist() == [19]
    assert units.take(0).dtype == np.uint32


class TieLane:
    """``mzi.stream`` stand-in: lane 1 hands out one tie word with top 21 bits ``t``, and counts its opens."""

    def __init__(self, t):
        self.t, self.opens = t, 0

    def __call__(self, seed, stream_id, start=0, lane=0):
        assert lane == 1
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

    class OneDraw:
        def __init__(self, *_):
            pass

        def take(self, size):
            return np.array([h], dtype=np.uint32)

    lane = TieLane(t)
    with mock.patch.object(mzi, "Units", OneDraw), mock.patch.object(mzi, "stream", lane):
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
    block=blocks,
    n=st.sampled_from(SMOOTH),
    data=st.data(),
    seed=seeds,
    lo=st.integers(0, 1000),
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


@settings(max_examples=100, deadline=None)
@given(
    block=blocks,
    n=st.sampled_from(SMOOTH),
    seed=seeds,
    lo=st.integers(0, 1000),
    shots=st.integers(1, 200),
    cuts=st.lists(st.integers(1, 199), max_size=4),
)
# cuts on both sides of a 64-shot word edge, and one inside a word
@example(block=8, n=6, seed=3, lo=60, shots=80, cuts=[3, 4, 5, 37])
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


def deep_span_carries() -> tuple[dict, list, list]:
    """Sizes taken, carries and live bytes of one deep span.

    Query 17 of the padded n = 200 code (n = 216) opens 24 Alice and 6 Bob
    streams. The span runs 3 blocks from shot 65, one shot past a coin word
    edge and an odd draw. Returns each width's take sizes; as blocks 2 and 3
    start, each width's carried units per stream; and as each take starts, the
    last block's included, the bytes that ``mzi.Units.take`` allocated and are
    still live.
    """
    tree = concat.build_padded(200, permute_seed=3).tree
    bits = [k % 2 for k in range(tree.n)]
    takes, carried, held, opened = {1: [], 32: []}, [], [], {}
    source, first = inspect.getsourcelines(mzi.Units.take)
    real = mzi.Units.take

    def traced(units, size):
        opened.setdefault(id(units), units)
        takes[units.width].append(size)
        # one opening skip per Alice stream, then 3 blocks: carries before blocks 2 and 3
        if units.width == 1 and len(takes[1]) in (2 * 24 + 1, 3 * 24 + 1):
            carried.append({w: [len(u.carried) for u in opened.values() if u.width == w] for w in (1, 32)})
            if len(carried) == 2:
                opened.clear()  # the last block drops each stream after its take
        held.append(sum(
            trace.size for trace in tracemalloc.take_snapshot().traces
            if trace.traceback[0].filename == mzi.__file__
            and first <= trace.traceback[0].lineno < first + len(source)
        ))
        return real(units, size)

    tracemalloc.start()
    try:
        with mock.patch.object(mzi.Units, "take", traced):
            concat.simulate_range(tree, bits, [17], 9, 65, 65 + 3 * mzi.BLOCK)
    finally:
        tracemalloc.stop()
    return takes, carried, held


# what take allocated and is still live as a take starts: each stream's carry, and the
# coins (1 B each) and draws (4 B each) of the block the span still holds. A carry kept
# as a view, or a stream kept open past its last take with its carry so kept, would pin
# a whole block, 2^15 B of coins or 2^17 B of draws, per stream
HELD_BOUND = 5 * mzi.BLOCK + (24 + 6) * 1024


def test_deep_span_carries_fewer_than_64_coins_per_stream():
    takes, carried, held = deep_span_carries()
    # each stream opens as its subunit first draws: a skip of one unit, then its first block
    assert takes[1] == [1, mzi.BLOCK] * 24 + [mzi.BLOCK] * 2 * 24
    assert [c[1] for c in carried] == [[63] * 24] * 2
    assert len(held) == 4 * (24 + 6) and max(held) < HELD_BOUND, held


def test_deep_span_carries_at_most_one_draw_per_bob_stream():
    takes, carried, held = deep_span_carries()
    assert takes[32] == [1, mzi.BLOCK] * 6 + [mzi.BLOCK] * 2 * 6
    assert [c[32] for c in carried] == [[1] * 6] * 2
    assert len(held) == 4 * (24 + 6) and max(held) < HELD_BOUND, held


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
