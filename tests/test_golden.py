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
        "b2184227b6cd958c6c5e4e0e98a053f9e57176324d252013c9539e428b60e240",
    ),
    "mzi-counts-workers-2": (
        ["mzi", "--shots", "100000", "--seed", "5", "--workers", "2"],
        "810a314ac9a355f2dbead3c570455bc4f857b0081d68760ae31856bb501c3446",
    ),
    "mzi-settings-events": (
        ["mzi", "--settings", "{settings}", "--shots", "5001", "--seed", "3",
         "--events", "{events}", "--workers", "2"],
        "2f66816f8d1ca52a70ab8700e22466110fb8e8ca83c1b08d04ff6d07712c5e86",
    ),
    # the "-mzi" entries were recorded under the former --engine mzi, which drew from the
    # same steered path-spin table as born; their rows differ only in the engine name
    "concat-n6-mzi": (
        ["concat", "--n", "6", "--engine", "born", "--shots", "5003", "--seed", "7",
         "--workers", "2"],
        "c81cb2a73c0eaa693d5baa8fa3906de832df5dca8d70694bb868d813e96de7b4",
    ),
    "concat-n200-born-permuted": (
        ["concat", "--n", "200", "--engine", "born", "--permute-seed", "3", "--query", "17",
         "--seed", "7", "--workers", "2"],
        "7563df9a428a16cfb751dfd4874d38cd2feab74b58eaa8d664f9232a9740bd81",
    ),
    # --query all: every simulated-per-bit row of one shared multi-query pass
    "concat-n200-born-permuted-all": (
        ["concat", "--n", "200", "--engine", "born", "--permute-seed", "3", "--seed", "7",
         "--shots", "2000", "--workers", "2"],
        "83879daca23587d8477a279d5c19b8c5bf75bbddc07c66b055ed49cdeea76187",
    ),
    "concat-n12-mzi-all": (
        ["concat", "--n", "12", "--engine", "born", "--seed", "7", "--shots", "3001",
         "--workers", "2"],
        "0c9f4908723b394395bc93505d5e0035bcd839265c8b945fe6beca8515ef0476",
    ),
    # non-zero input on padded, permuted codes: a bit on the wrong leaf changes the rows
    "concat-n7-born-permuted-input": (
        ["concat", "--n", "7", "--engine", "born", "--permute-seed", "3", "--input", "1011001",
         "--shots", "4001", "--seed", "11", "--workers", "2"],
        "66775b25cb493733468efd10a3f4af97d781dbb6909469e9dd2400323e744728",
    ),
    "concat-n10-mzi-permuted-input": (
        ["concat", "--n", "10", "--engine", "born", "--permute-seed", "5", "--input", "1101000111",
         "--shots", "3001", "--seed", "2", "--workers", "2"],
        "a0d77d084fcb13748bdedec573dd1a5b5c7470b050c42fd4892e8f161796b53d",
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
        "8a5b08007aa2a9ca0ed043a0860879ce9774eaa383ec9751ecb70ad3e8b8b231",
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
