"""Golden outputs: sha256 of stdout plus the event file for fixed sampling commands.

The digests pin the reproducibility contract across kernel rewrites: the same
seed gives the same rows and event lines, byte for byte, for any worker count.
A digest changes only when a sampled output changes. The exact-layer entries
pin the enumeration, steered Born-table and seesaw rows the same way.
"""

import hashlib
import json

import numpy as np
import pytest

from racsim import cli

SETTINGS = (
    '{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n'
    '{"theta": 1.1, "phi": -0.7, "spin_axis": [0, 0.6, 0.8], "i": 2, "j": 1}\n'
    '{"theta": 0.0, "phi": 2.5, "spin_axis": [0, 0, -1]}\n'
)

# n = 4: 8 Alice and 4 Bob seeded random unit directions. The rows name the file, so
# the test writes it as bases.json in its working directory.
_DIRECTIONS = np.random.default_rng(4).standard_normal((12, 3))
_DIRECTIONS /= np.linalg.norm(_DIRECTIONS, axis=1, keepdims=True)
BASES = json.dumps({"alice": _DIRECTIONS[:8].tolist(), "bob": _DIRECTIONS[8:].tolist()})

GOLDEN = {
    "mzi-counts-workers-1": (
        ["mzi", "--shots", "100000", "--seed", "5", "--workers", "1"],
        "66026a77b0ae09ffeb1d841d83381396fdaaf3d827d32d69161e801351d37f3c",
    ),
    "mzi-counts-workers-2": (
        ["mzi", "--shots", "100000", "--seed", "5", "--workers", "2"],
        "6cbb4d05c578851e347ca422316b7cf40c331077a8623cdbe71e62a54939075d",
    ),
    "mzi-settings-events": (
        ["mzi", "--settings", "{settings}", "--shots", "5001", "--seed", "3",
         "--events", "{events}", "--workers", "2"],
        "9814c636af7dbbf5d83d9b5cb69a6304b80f8633cf2702e83374225a630d5fec",
    ),
    # the "-mzi" entries were recorded under the former --engine mzi, which drew from the
    # same steered path-spin table as born; their rows differ only in the engine name
    "concat-n6-mzi": (
        ["concat", "--n", "6", "--engine", "born", "--shots", "5003", "--seed", "7",
         "--workers", "2"],
        "9a705d7620da5f2b86ae9943a3ef1a07b69d77cd1999f917ac198e0141f88a2f",
    ),
    "concat-n200-born-permuted": (
        ["concat", "--n", "200", "--engine", "born", "--permute-seed", "3", "--query", "17",
         "--seed", "7", "--workers", "2"],
        "f0ce35c8efdc251c02d4b261695b3c36b35f14e514d1b26be66bda1dc06961e1",
    ),
    # --query all: every simulated-per-bit row of one shared multi-query pass
    "concat-n200-born-permuted-all": (
        ["concat", "--n", "200", "--engine", "born", "--permute-seed", "3", "--seed", "7",
         "--shots", "2000", "--workers", "2"],
        "8c5c4ba5354c4ad235a7f9abad08b32b11cf7f681d38ea62a3c1666a90fd9b8e",
    ),
    "concat-n12-mzi-all": (
        ["concat", "--n", "12", "--engine", "born", "--seed", "7", "--shots", "3001",
         "--workers", "2"],
        "dbc7de7d0097901a7d0b4bc66a129880f517576b0570f84feb85eb6e1210ccf4",
    ),
    # non-zero input on padded, permuted codes: a bit on the wrong leaf changes the rows
    "concat-n7-born-permuted-input": (
        ["concat", "--n", "7", "--engine", "born", "--permute-seed", "3", "--input", "1011001",
         "--shots", "4001", "--seed", "11", "--workers", "2"],
        "24746a9e2744f364f7d4fd2e47265b6d637fe1dc0929fb9a9519410c69c3dbd4",
    ),
    "concat-n10-mzi-permuted-input": (
        ["concat", "--n", "10", "--engine", "born", "--permute-seed", "5", "--input", "1101000111",
         "--shots", "3001", "--seed", "2", "--workers", "2"],
        "e2ac0abccabf37587fdfc18f2d48272e5dad7314cfa66fbfecd08a214d043223",
    ),
    # analytic engine only: 973 bits padded to 1024 = 2^10, every row from stages [10, 0]
    "concat-n973-analytic-permuted": (
        ["concat", "--n", "973", "--permute-seed", "5"],
        "4a7bb4f00967ab118de457c69f32b35c9180af25052b730aaec94278f679af68",
    ),
    # exact layer: enumeration, steered Born tables, identity sweep and seesaw
    "report-all-seed-5": (
        ["report", "--all", "--seed", "5", "--shots", "20000", "--concat-shots", "20000",
         "--workers", "1"],
        "2e68d1edcacc35da4afc5c455f97b2d816fdc956bf3ea64cf66f636fb1dde0f8",
    ),
    "quantum-n3-optimize": (
        ["quantum", "--n", "3", "--optimize", "--seed", "7"],
        "c52be9980ba2aef9338e566fa671da3897541e0dde66b158d2700157803b309a",
    ),
    "quantum-n2": (
        ["quantum", "--n", "2"],
        "06548e6507fcdf76a915db561b5a3daf9997d869e5c22e2a26f24db8c2ecb6fb",
    ),
    # a bases file: success, expression value and identity residual of one evaluation
    "quantum-bases-n4": (
        ["quantum", "--bases", "bases.json"],
        "37941f41b94f010593bf0204bf51ba0954e21f7b1d3d879d47f8306e397c34f4",
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
def test_output_matches_golden_digest(name, capsys, monkeypatch, tmp_path):
    argv, digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bases.json").write_text(BASES)
    settings = tmp_path / "settings.jsonl"
    settings.write_text(SETTINGS)
    events = tmp_path / "events.jsonl"
    assert cli.main([a.format(settings=settings, events=events) for a in argv]) == 0
    out = capsys.readouterr().out.encode()
    sha = hashlib.sha256(out + (events.read_bytes() if events.exists() else b""))
    assert sha.hexdigest() == digest
