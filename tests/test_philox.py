"""The sampling streams, rederived from a pure-Python Philox4x64-10.

Philox4x64-10 is the counter-based generator of Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC'11. Stream (seed, id) is
keyed (seed, id); word w is lane w % 4 of the block at counter w // 4 + 1, as
numpy increments the counter before each block. The stream's tie lane is keyed
the same with counter word 2 set to 1. Each test rebuilds a sampler's output
from these words alone, so a changed stream fails and names the first word
that differs.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN, SETTINGS

from racsim import cli, concat, mzi, qcore, qrac

MASK = (1 << 64) - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox4x64_10(counter, key):
    """One 4-word block: ten rounds of two 64x64 -> 128-bit products, the key bumped between rounds."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
        p0, p1 = MULTIPLIERS[0] * c0, MULTIPLIERS[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK, (p0 >> 64) ^ c3 ^ k1, p0 & MASK
    return c0, c1, c2, c3


def words(seed, stream_id, start, count, lane=0):
    """Words ``start .. start + count - 1`` of stream (seed, stream_id), counter word 2 at ``lane``."""
    out = []
    for block in range(start // 4, (start + count + 3) // 4):
        out.extend(philox4x64_10((block + 1, 0, lane, 0), (seed, stream_id)))
    skip = start % 4
    return out[skip : skip + count]


def halves(seed, stream_id, start, count):
    """32-bit draws ``start .. start + count - 1``: draw k is half k % 2 of word k // 2, low half first."""
    packed = words(seed, stream_id, start // 2, (start + count + 1) // 2 - start // 2)
    return [packed[k // 2 - start // 2] >> (32 * (k % 2)) & 0xFFFFFFFF for k in range(start, start + count)]


def uniforms(seed, stream_id, start, count):
    """The 53-bit x = h 2^21 + t of draws ``start ..``, t the top 21 bits of tie word k, read for every draw."""
    ties = words(seed, stream_id, start, count, lane=1)
    return [h << 21 | t >> 43 for h, t in zip(halves(seed, stream_id, start, count), ties)]


def assert_same_words(actual, expected, start, what):
    for k, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"{what}: word {start + k} is {got:#018x}, Philox4x64-10 gives {want:#018x}"
    assert len(actual) == len(expected)


# known-answer vectors published with the Random123 reference implementation
@pytest.mark.parametrize(
    "counter, key, block",
    [
        ((0, 0, 0, 0), (0, 0),
         (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
        ((MASK,) * 4, (MASK,) * 2,
         (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
        ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
         (0x452821E638D01377, 0xBE5466CF34E90C6C),
         (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
    ],
)
def test_block_matches_known_answer(counter, key, block):
    assert philox4x64_10(counter, key) == block


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4001, 4002, 4003, 4004])
@pytest.mark.parametrize("seed, stream_id", [(1, 0), (42, 3), (MASK, 7)])
def test_stream_words_at_every_start(seed, stream_id, start):
    actual = mzi.stream(seed, stream_id, start).random_raw(9).tolist()
    assert_same_words(actual, words(seed, stream_id, start, 9), start, f"stream({seed}, {stream_id}, {start})")


@pytest.mark.parametrize("start", [0, 1, 3, 4, 4003])
def test_tie_lane_words_at_every_start(start):
    seed, stream_id = 42, 3
    actual = mzi.stream(seed, stream_id, start, lane=1).random_raw(9).tolist()
    expected = words(seed, stream_id, start, 9, lane=1)
    assert_same_words(actual, expected, start, f"tie lane of ({seed}, {stream_id}) at {start}")
    assert expected != words(seed, stream_id, start, 9)


def test_sample_setting_tally_across_a_block_edge():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    cumulative = np.cumsum(probs)[:3]
    seed, setting_index, start, shots = 5, 2, 4003, 300
    # the outcome is the number of cumulative probabilities at or below the draw's double
    draws = uniforms(seed, setting_index, start, shots)
    outcomes = [int(np.sum(x * 2.0**-53 >= cumulative)) for x in draws]
    path_bits = np.empty(shots, dtype=np.uint8)
    spin_bits = np.empty(shots, dtype=np.uint8)
    with mock.patch.object(mzi, "BLOCK", 128):
        tallies = mzi.sample_setting(probs, shots, seed, setting_index, start, path_bits, spin_bits)
    assert tallies.tolist() == [outcomes.count(k) for k in range(4)]
    assert path_bits.tolist() == [k >> 1 for k in outcomes]
    assert spin_bits.tolist() == [k & 1 for k in outcomes]


def coins(seed, stream_id, lo, hi):
    """Alice's coins for shots ``lo .. hi - 1``: coin k is bit k % 64 of word k // 64."""
    packed = words(seed, stream_id, lo // 64, (hi + 63) // 64 - lo // 64)
    return [(packed[k // 64 - lo // 64] >> (k % 64)) & 1 for k in range(lo, hi)]


def test_simulate_range_success_count():
    # one 3->1 subunit, number 0: Alice's coin sets her bit, Bob's draw his spin along the
    # queried slot; the span starts 37 bits into word 62 and ends inside word 67 of Alice's
    # stream, and in the high half of word 2002 of Bob's
    bits, query, seed, lo, hi = [1, 0, 1], 2, 9, 4005, 4305
    alice, bob = qrac.default_bases(3)
    cls = ((bits[1] ^ bits[0]) << 1) | (bits[2] ^ bits[0])

    def p_spin0(a):
        # P(spin 0 | class, a) = (1 + (-1)^a A_class . B_query) / 2 on the steered state
        return 0.5 * (1.0 + (-1) ** a * float(alice[cls] @ bob[query]))

    successes = one_subunit_successes(bits, query, seed, lo, hi, lambda a, x: x * 2.0**-53 >= p_spin0(a))
    assert concat.simulate_range(concat.build_tree(3), bits, [query], seed, lo, hi) == [successes]


def one_subunit_successes(bits, query, seed, lo, hi, spin):
    """Successes of a one-subunit tree over shots [lo, hi), with ``spin(a, x)`` for coin a and draw x."""
    alice_coins = coins(seed, concat._ALICE_STREAM, lo, hi)
    bob_draws = uniforms(seed, concat._BOB_STREAM, lo, hi - lo)
    return sum((bits[0] ^ a) ^ int(spin(a, x)) == bits[query] for a, x in zip(alice_coins, bob_draws))


def tied_row(seed, stream_id, shot, lows):
    """A Born row whose first thresholds share the high 32 bits of draw ``shot``, with low parts ``lows``."""
    (h,) = halves(seed, stream_id, shot, 1)
    cumulative = [((h << 21) + r) * 2.0**-53 for r in lows]
    return np.diff(cumulative + [1.0] * (4 - len(lows)), prepend=0.0)


@pytest.mark.parametrize(
    "offsets, outcome",
    [
        ([0], 1),  # r = t: the draw passes
        ([1], 0),  # r = t + 1: it does not
        ([0, 1], 1),  # two thresholds share q; the draw passes the first only
        ([-1, 0], 2),  # it passes both
        ([1, 2], 0),  # it passes neither
    ],
)
def test_tied_draw_reads_its_tie_word_once(offsets, outcome):
    seed, setting_index, start, shots, shot = 5, 2, 4003, 300, 4140
    (t,) = (w >> 43 for w in words(seed, setting_index, shot, 1, lane=1))
    assert 2 <= t < 2**21 - 2
    probs = tied_row(seed, setting_index, shot, [t + d for d in offsets])
    cumulative = np.cumsum(probs)[:3]
    outcomes = [int(np.sum(x * 2.0**-53 >= cumulative)) for x in uniforms(seed, setting_index, start, shots)]
    assert outcomes[shot - start] == outcome
    path_bits = np.empty(shots, dtype=np.uint8)
    spin_bits = np.empty(shots, dtype=np.uint8)
    lanes = []
    real = mzi.stream

    def spy(seed_, stream_id, start_=0, lane=0):
        lanes.append((lane, start_))
        return real(seed_, stream_id, start_, lane)

    with mock.patch.object(mzi, "BLOCK", 128), mock.patch.object(mzi, "stream", spy):
        tallies = mzi.sample_setting(probs, shots, seed, setting_index, start, path_bits, spin_bits)
    assert [lane for lane in lanes if lane[0]] == [(1, shot)]
    # nested masks: every tally is the count of its outcome, none negative
    assert tallies.tolist() == [outcomes.count(k) for k in range(4)]
    assert path_bits.tolist() == [k >> 1 for k in outcomes]
    assert spin_bits.tolist() == [k & 1 for k in outcomes]


@pytest.mark.parametrize("offset", [0, 1])
def test_tied_spin_draw_reads_its_tie_word(offset):
    # every spin threshold of the 3->1 tables is moved onto draw 4140 of Bob's stream
    bits, query, seed, lo, hi, shot = [1, 0, 1], 2, 9, 4005, 4305, 4140
    (h,) = halves(seed, concat._BOB_STREAM, shot, 1)
    (t,) = (w >> 43 for w in words(seed, concat._BOB_STREAM, shot, 1, lane=1))
    k = (h << 21) + t + offset
    split = np.array([[[k >> 21] * 8] * 3, [[k & (2**21 - 1)] * 8] * 3], dtype=np.uint32)
    successes = one_subunit_successes(bits, query, seed, lo, hi, lambda a, x: x >= k)
    with mock.patch.object(concat, "_spin_thresholds", lambda arity: split):
        assert concat.simulate_range(concat.build_tree(3), bits, [query], seed, lo, hi) == [successes]


def test_tied_spin_draws_of_every_read_slot_share_one_tie_word():
    # all three queries of the 3->1 subunit read draw 4140 of Bob's stream against their own
    # slot's threshold, each tied on q: r = t, t + 1 and t - 1
    bits, seed, lo, hi, shot = [1, 0, 1], 9, 4005, 4305, 4140
    (h,) = halves(seed, concat._BOB_STREAM, shot, 1)
    (t,) = (w >> 43 for w in words(seed, concat._BOB_STREAM, shot, 1, lane=1))
    assert 2 <= t < 2**21 - 2
    ks = [(h << 21) + t + offset for offset in (0, 1, -1)]
    split = np.array([[[k >> 21] * 8 for k in ks], [[k & (2**21 - 1)] * 8 for k in ks]], dtype=np.uint32)
    successes = [one_subunit_successes(bits, q, seed, lo, hi, lambda a, x, k=k: x >= k) for q, k in enumerate(ks)]
    lanes = []
    real = mzi.stream

    def spy(seed_, stream_id, start=0, lane=0):
        lanes.append((lane, start))
        return real(seed_, stream_id, start, lane)

    with mock.patch.object(concat, "_spin_thresholds", lambda arity: split), mock.patch.object(mzi, "stream", spy):
        assert concat.simulate_range(concat.build_tree(3), bits, [0, 1, 2], seed, lo, hi) == successes
    assert [lane for lane in lanes if lane[0]] == [(1, shot)]


# a span start one shot before, at and after the edge of word w: every fourth word opens a
# Philox block
word_edges = st.integers(0, 40).flatmap(lambda w: st.sampled_from([64 * w - 1, 64 * w, 64 * w + 1]))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, MASK),
    stream_id=st.integers(0, MASK),
    lo=word_edges.filter(lambda lo: lo >= 0) | st.integers(0, 3000),
    shots=st.integers(1, 300),
    block=st.sampled_from([1, 3, 8, mzi.BLOCK]),
)
@example(seed=MASK, stream_id=MASK, lo=255, shots=3, block=1)  # words 3 and 4: a Philox block edge
@example(seed=0, stream_id=0, lo=257, shots=2 * mzi.BLOCK + 70, block=mzi.BLOCK)
@example(seed=1, stream_id=2, lo=64, shots=65, block=3)  # a span that opens on a word edge skips nothing
def test_concat_coins_are_bits_of_reference_words(seed, stream_id, lo, shots, block):
    # a one-subunit tree opens one Alice and one Bob stream: key Alice's (seed, stream_id) and
    # record every unit each hands out, the ones skipped on opening inside a word first, then
    # one take per block
    drawn = {1: [], 32: []}
    real_stream, real_take = mzi.stream, mzi.Units.take

    def keyed(seed_, sid, start=0, lane=0):
        return real_stream(seed_, stream_id if sid == concat._ALICE_STREAM else sid, start, lane)

    def recorded(units, size):
        out = real_take(units, size)
        drawn[units.width].append(out.tolist())
        return out

    with (
        mock.patch.object(mzi, "BLOCK", block),
        mock.patch.object(mzi, "stream", keyed),
        mock.patch.object(mzi.Units, "take", recorded),
    ):
        concat.simulate_range(concat.build_tree(2), [0, 1], [0], seed, lo, lo + shots)
    sizes = [min(block, lo + shots - k) for k in range(lo, lo + shots, block)]
    # Alice's coins, bits of 64-bit words, and Bob's spin draws, half k % 2 of word k // 2
    for width, skip, reference in (
        (1, lo % 64, coins(seed, stream_id, lo - lo % 64, lo + shots)),
        (32, lo % 2, halves(seed, concat._BOB_STREAM, lo - lo % 2, shots + lo % 2)),
    ):
        assert [len(units) for units in drawn[width]] == [skip] * (skip > 0) + sizes
        assert sum(drawn[width], []) == reference


def test_events_file_from_reference_words(tmp_path):
    # the second span resumes each stream at the high half of word 37, 1 word into a 4-word
    # block, and both cross a sampling block
    seed, shots, spans = 11, 150, [(0, 75), (75, 150)]
    chosen = mzi.protocol_settings(*qrac.steering_bases())[1:3]
    with mock.patch.object(mzi, "BLOCK", 64), mock.patch.object(mzi, "_partition", lambda *_: spans):
        result = mzi.sample_events(qcore.maximally_entangled_state(), chosen, shots, seed, workers=2, events=True)
    cli.write_events(result, str(tmp_path / "events.jsonl"))
    written = (tmp_path / "events.jsonl").read_text().splitlines()
    expected = []
    for s_idx, probs in enumerate(result.probs):
        cuts = mzi.thresholds(np.cumsum(probs)[:3]).tolist()
        outcomes = [sum(x >= cut for cut in cuts) for x in uniforms(seed, s_idx, 0, shots)]
        expected += [
            f'{{"setting": {s_idx}, "shot": {k}, "path": {o >> 1}, "spin": {o & 1}}}' for k, o in enumerate(outcomes)
        ]
    for k, (got, want) in enumerate(zip(written, expected)):
        assert got == want, f"event line {k} is {got}, Philox4x64-10 gives {want}"
    assert len(written) == len(expected) == 2 * shots


def test_golden_settings_run_tallies_from_reference_words(tmp_path, capsys):
    # the mzi-settings-events golden: 3 settings x 5001 shots, seed 3, on 2 workers
    argv, _ = GOLDEN["mzi-settings-events"]
    settings_path, events = tmp_path / "settings.jsonl", tmp_path / "events.jsonl"
    settings_path.write_text(SETTINGS)
    argv = [a.format(settings=settings_path, events=events) for a in argv]
    assert cli.main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    printed = [
        [r["params"][k] for k in ("n_spin_plus", "n_spin_minus", "m_spin_plus", "m_spin_minus")]
        for r in rows
        if r["quantity"] == "correlator-joint"
    ]
    args = cli.build_parser().parse_args(argv)
    state = qcore.entangled_state(args.a, math.sqrt(1.0 - args.a**2), args.delta)
    expected = []
    for s_idx, probs in enumerate(mzi.born_probabilities(state, cli.load_settings(str(settings_path)))):
        cuts = mzi.thresholds(np.cumsum(probs)[:3]).tolist()
        outcomes = [sum(x >= cut for cut in cuts) for x in uniforms(args.seed, s_idx, 0, args.shots)]
        expected.append([outcomes.count(k) for k in range(4)])
    assert (args.seed, args.shots, args.workers, len(expected)) == (3, 5001, 2, 3)
    assert printed == expected
