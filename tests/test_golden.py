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
        "04fdbf1ac3cf226b26f370d4933ad23ad87b2ba6891303e6238652ad792c2818",
    ),
    "mzi-counts-workers-2": (
        ["mzi", "--shots", "100000", "--seed", "5", "--workers", "2"],
        "1c2d195c3873a496cf0f3141c3e72bf8f17bccae15e44635f39d21438f1f6925",
    ),
    "mzi-settings-events": (
        ["mzi", "--settings", "{settings}", "--shots", "5001", "--seed", "3",
         "--events", "{events}", "--workers", "2"],
        "253e521d5f8cfbce269a82044ac24cf30eda0af901708cbcb503c04a1c69528f",
    ),
    "concat-n6-mzi": (
        ["concat", "--n", "6", "--engine", "mzi", "--shots", "5003", "--seed", "7",
         "--workers", "2"],
        "91a9913261074d3bb2dc58dec68f1e4a08b6614d0c9737fc3e162c9210818733",
    ),
    "concat-n200-born-permuted": (
        ["concat", "--n", "200", "--engine", "born", "--permute-seed", "3", "--query", "17",
         "--seed", "7", "--workers", "2"],
        "5387f9d3a70c31a74a25fdef7b2598427bafb2cb743c4c4d44620c0bfe992f9d",
    ),
    # --query all: every simulated-per-bit row of one shared multi-query pass
    "concat-n200-born-permuted-all": (
        ["concat", "--n", "200", "--engine", "born", "--permute-seed", "3", "--seed", "7",
         "--shots", "2000", "--workers", "2"],
        "845d71b61cb9c62a753a1dea1a0ebdefdc83a3d58b6f9ef3c6157b5ae7095bd9",
    ),
    "concat-n12-mzi-all": (
        ["concat", "--n", "12", "--engine", "mzi", "--seed", "7", "--shots", "3001",
         "--workers", "2"],
        "675d1e93c4077777ac9aba5cfa72576c847255fec2d870ffe2a48b429c48bd23",
    ),
    # non-zero input on padded, permuted codes: a bit on the wrong leaf changes the rows
    "concat-n7-born-permuted-input": (
        ["concat", "--n", "7", "--engine", "born", "--permute-seed", "3", "--input", "1011001",
         "--shots", "4001", "--seed", "11", "--workers", "2"],
        "e3d48f882f54123f066497da139f12630c701241d555e4b9d8259369f5e7c0c0",
    ),
    "concat-n10-mzi-permuted-input": (
        ["concat", "--n", "10", "--engine", "mzi", "--permute-seed", "5", "--input", "1101000111",
         "--shots", "3001", "--seed", "2", "--workers", "2"],
        "91a40a1c6e20602b9598074a0fe2ae0524517151eb2dc8c78186c2c688335cba",
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
        "e0cf993ae4ffa9401ffca92dfe56ac594b58e15873f3ed35a12fde43397035e2",
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
