"""Golden outputs: sha256 of stdout plus the event file for fixed sampling commands.

The digests pin the reproducibility contract across kernel rewrites: the same
seed gives the same rows and event lines, byte for byte, for any worker count.
A digest changes only when a sampled output changes. The exact-layer entries
pin the enumeration, Born-trace and seesaw rows the same way.
"""

import hashlib

import pytest

from racsim import cli

SETTINGS = (
    '{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n'
    '{"theta": 1.1, "phi": -0.7, "spin_axis": [0, 0.6, 0.8], "i": 2, "j": 1}\n'
    '{"theta": 0.0, "phi": 2.5, "spin_axis": [0, 0, -1]}\n'
)

GOLDEN = {
    "mzi-counts-workers-1": (
        ["mzi", "--shots", "100000", "--seed", "5", "--workers", "1"],
        "eb062300f3279ab1d79aa9feb9f2a02a133e58945861a275fcd609912518c744",
    ),
    "mzi-counts-workers-2": (
        ["mzi", "--shots", "100000", "--seed", "5", "--workers", "2"],
        "a5f27d192282ba5b034f51a4cbceb3559ff556c0dff737a906a47524cca08a4e",
    ),
    "mzi-settings-events": (
        ["mzi", "--settings", "{settings}", "--shots", "5001", "--seed", "3",
         "--events", "{events}", "--workers", "2"],
        "253e521d5f8cfbce269a82044ac24cf30eda0af901708cbcb503c04a1c69528f",
    ),
    "concat-n6-mzi": (
        ["concat", "--n", "6", "--engine", "mzi", "--shots", "5003", "--seed", "7",
         "--workers", "2"],
        "bc5907bb56190d85a07f3b78115e707a35234edc402790215c91d78aea791feb",
    ),
    "concat-n200-born-permuted": (
        ["concat", "--n", "200", "--engine", "born", "--permute-seed", "3", "--query", "17",
         "--seed", "7", "--workers", "2"],
        "1248cb254da3d840c03c1ad82d5668fe11c610aec0b40bfa2322656d0efcc3f5",
    ),
    # --query all: every simulated-per-bit row of one shared multi-query pass
    "concat-n200-born-permuted-all": (
        ["concat", "--n", "200", "--engine", "born", "--permute-seed", "3", "--seed", "7",
         "--shots", "2000", "--workers", "2"],
        "7aa6fad58a357e382b5c2c5672aa5a84c7b79d54a6e92e9a01cbe61b28f2cf7b",
    ),
    "concat-n12-mzi-all": (
        ["concat", "--n", "12", "--engine", "mzi", "--seed", "7", "--shots", "3001",
         "--workers", "2"],
        "b0d0bc38eae9fe178dca5e499c3e3fbd52369d714fabf24da2f54f3e71ff41bc",
    ),
    # non-zero input on padded, permuted codes: a bit on the wrong leaf changes the rows
    "concat-n7-born-permuted-input": (
        ["concat", "--n", "7", "--engine", "born", "--permute-seed", "3", "--input", "1011001",
         "--shots", "4001", "--seed", "11", "--workers", "2"],
        "606364c39dd0cf1ef15210e26600dd76f12fe13f3cfff8c91fd569973d521b95",
    ),
    "concat-n10-mzi-permuted-input": (
        ["concat", "--n", "10", "--engine", "mzi", "--permute-seed", "5", "--input", "1101000111",
         "--shots", "3001", "--seed", "2", "--workers", "2"],
        "ddb0132e4949a33d753191a2abb941a9c26c498e390618ea95a5a7dcec2edf8c",
    ),
    # analytic engine only: 973 bits padded to 1024 = 2^10, every row from stages [10, 0]
    "concat-n973-analytic-permuted": (
        ["concat", "--n", "973", "--permute-seed", "5"],
        "4a7bb4f00967ab118de457c69f32b35c9180af25052b730aaec94278f679af68",
    ),
    # exact layer: enumeration, Born traces, identity sweep and seesaw
    "report-all-seed-5": (
        ["report", "--all", "--seed", "5", "--shots", "20000", "--concat-shots", "20000",
         "--workers", "1"],
        "7e516a2d93e3d92d16634c4c5e2399cc515917d8cba3817db20df35f5821b73b",
    ),
    "quantum-n3-optimize": (
        ["quantum", "--n", "3", "--optimize", "--seed", "7"],
        "bceffd574ff48ddf926a1c77dce94e10bf0516e9a64b3656eb912aaf4bd46c40",
    ),
    "quantum-n2": (
        ["quantum", "--n", "2"],
        "7c73b1eeaf9870d3b2c492405318dedb4dc84d19e36dad93b3ba034a801940c0",
    ),
    "classical-n3": (
        ["classical", "--n", "3"],
        "5d0c23cf383abe37183c04999f29aa8df6e3af0274e48a7be9e9941913e58135",
    ),
    # one row per deterministic strategy: id, average and correlator table
    "classical-n2-dump": (
        ["classical", "--n", "2", "--dump-strategies"],
        "8022a7b75d20069e1bbae98aea2b8a830a2f7cc89f5653966ad4d294ec4b76ee",
    ),
    "classical-n3-dump": (
        ["classical", "--n", "3", "--dump-strategies"],
        "34dec2185df1d772919d7ed2deb938471f4d5ce7ff8c4a9dfeaeaae0086558c0",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_output_matches_golden_digest(name, capsys, tmp_path):
    argv, digest = GOLDEN[name]
    settings = tmp_path / "settings.jsonl"
    settings.write_text(SETTINGS)
    events = tmp_path / "events.jsonl"
    assert cli.main([a.format(settings=settings, events=events) for a in argv]) == 0
    out = capsys.readouterr().out.encode()
    sha = hashlib.sha256(out + (events.read_bytes() if events.exists() else b""))
    assert sha.hexdigest() == digest
