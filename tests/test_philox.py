"""The sampling streams, rederived from a pure-Python Philox4x64-10.

Philox4x64-10 is the counter-based generator of Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC'11. Stream (seed, id) is
keyed (seed, id); word w is lane w % 4 of the block at counter w // 4 + 1, as
numpy increments the counter before each block. Each test rebuilds a sampler's
output from these words alone, so a changed stream fails and names the first
word that differs.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
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


def words(seed, stream_id, start, count):
    """Words ``start .. start + count - 1`` of stream (seed, stream_id)."""
    out = []
    for block in range(start // 4, (start + count + 3) // 4):
        out.extend(philox4x64_10((block + 1, 0, 0, 0), (seed, stream_id)))
    skip = start % 4
    return out[skip : skip + count]


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


def test_sample_setting_tally_across_a_block_edge():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    cumulative = np.cumsum(probs)[:3]
    seed, setting_index, start, shots = 5, 2, 4003, 300
    # the outcome is the number of cumulative probabilities at or below the draw's double
    draws = words(seed, setting_index, start, shots)
    outcomes = [int(np.sum((w >> 11) * 2.0**-53 >= cumulative)) for w in draws]
    path_bits = np.empty(shots, dtype=np.uint8)
    spin_bits = np.empty(shots, dtype=np.uint8)
    with mock.patch.object(mzi, "BLOCK", 128):
        tallies = mzi.sample_setting(probs, shots, seed, setting_index, start, path_bits, spin_bits)
    assert tallies.tolist() == [outcomes.count(k) for k in range(4)]
    assert path_bits.tolist() == [k >> 1 for k in outcomes]
    assert spin_bits.tolist() == [k & 1 for k in outcomes]


def test_simulate_range_success_count():
    # one 3->1 subunit, number 0: Alice's word sets her bit, Bob's his spin along the queried slot
    tree = concat.build_tree(3)
    bits, query, seed, lo, hi = [1, 0, 1], 2, 9, 4005, 4305
    alice, bob = qrac.default_bases(3)
    cls = ((bits[1] ^ bits[0]) << 1) | (bits[2] ^ bits[0])
    alice_words = words(seed, concat._ALICE_STREAM, lo, hi - lo)
    bob_words = words(seed, concat._BOB_STREAM, lo, hi - lo)
    successes = 0
    for wa, wb in zip(alice_words, bob_words):
        a = int((wa >> 11) < 2**52)
        # P(spin 0 | class, a) = (1 + (-1)^a A_class . B_query) / 2 on the steered state
        p_spin0 = 0.5 * (1.0 + (-1) ** a * float(alice[cls] @ bob[query]))
        spin = int((wb >> 11) * 2.0**-53 >= p_spin0)
        successes += (bits[0] ^ a) ^ spin == bits[query]
    assert concat.simulate_range(tree, bits, [query], seed, lo, hi) == [successes]


def test_events_file_from_reference_words(tmp_path):
    # the second span resumes each stream 3 words into a 4-word block, and both cross a sampling block
    seed, shots, spans = 11, 150, [(0, 75), (75, 150)]
    chosen = mzi.protocol_settings(*qrac.steering_bases())[1:3]
    with mock.patch.object(mzi, "BLOCK", 64), mock.patch.object(mzi, "_partition", lambda *_: spans):
        result = mzi.sample_events(qcore.maximally_entangled_state(), chosen, shots, seed, workers=2, events=True)
    cli.write_events(result, str(tmp_path / "events.jsonl"))
    written = (tmp_path / "events.jsonl").read_text().splitlines()
    expected = []
    for s_idx, probs in enumerate(result.probs):
        cuts = mzi.thresholds(np.cumsum(probs)[:3]).tolist()
        outcomes = [sum((w >> 11) >= cut for cut in cuts) for w in words(seed, s_idx, 0, shots)]
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
        outcomes = [sum((w >> 11) >= cut for cut in cuts) for w in words(args.seed, s_idx, 0, args.shots)]
        expected.append([outcomes.count(k) for k in range(4)])
    assert (args.seed, args.shots, args.workers, len(expected)) == (3, 5001, 2, 3)
    assert printed == expected
