"""Resource gates of the heaviest CLI runs: peak RSS, wall time and the events file, each command in a fresh child.

The file imports nothing from the checkout but ``racsim`` itself, so it also
runs from a copy outside the checkout against an installed package:

    cp tests/test_resource_gates.py "$TMPDIR" && cd "$TMPDIR" && python -m pytest -q test_resource_gates.py
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from racsim import cli

ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
RACSIM = [sys.executable, "-m", "racsim.cli"]

# Runs one command with its stdout discarded and prints its peak RSS in KiB. The
# process running this is fresh, so RUSAGE_CHILDREN covers that command alone;
# in the test process it would be the maximum over every child run so far.
_MEASURE = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL, timeout=60)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

GATES = [
    # report --all keeps only tallies: 10^7 shots per setting would hold 80 MB of outcome bits per run
    pytest.param(
        ["report", "--all", "--seed", "1", "--shots", "10000000", "--concat-shots", "10000"], 60,
        id="report-all-1e7-shots",
    ),
    # the padded tree keeps a parent link per node, not a root path per leaf
    pytest.param(
        ["concat", "--n", "100000", "--engine", "born", "--shots", "1", "--seed", "1", "--query", "0"], 192,
        id="sampled-concat-n1e5",
    ),
    # exhaustion of all 16.7 M strategies at n = 4
    pytest.param(["classical", "--n", "4"], 64, id="classical-n4"),
]


@pytest.mark.parametrize("argv, bound_mb", GATES)
def test_peak_rss_stays_under_its_bound(argv, bound_mb):
    measured = subprocess.run(
        [sys.executable, "-c", _MEASURE, *RACSIM, *argv], capture_output=True, text=True, env=ENV,
    )
    assert measured.returncode == 0, measured.stderr
    peak_mb = int(measured.stdout) / 1024
    assert peak_mb < bound_mb, f"racsim {' '.join(argv)} peaked at {peak_mb:.1f} MB"


def run(argv: list[str], timeout: float | None = None) -> None:
    """``racsim argv`` in a fresh child with its stdout discarded; it must exit 0 within ``timeout`` seconds."""
    done = subprocess.run(
        [*RACSIM, *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=ENV, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "argv, seconds",
    [
        # the largest seesaw the CLI accepts stays cheap
        pytest.param(["quantum", "--n", "3", "--optimize", "--starts", "10000", "--seed", "1"], 30, id="seesaw-1e4-starts"),
        # the end-to-end sampling run: 10^7 shots per setting on two workers
        pytest.param(["mzi", "--shots", "10000000", "--seed", "1", "--workers", "2"], 60, id="mzi-1e7-shots"),
    ],
)
def test_finishes_within_its_timeout(argv, seconds):
    run(argv, seconds)


def test_largest_bases_file_finishes_within_its_timeout(tmp_path):
    # n = 16 bits, 2^15 rows for Alice: the largest bases file the bound admits
    d = np.random.default_rng(1).standard_normal((2**15 + 16, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    bases = tmp_path / "bases16.json"
    bases.write_text(json.dumps({"alice": d[: 2**15].tolist(), "bob": d[2**15 :].tolist()}))
    run(["quantum", "--bases", str(bases)], 30)


def lines_and_last(path: Path) -> tuple[int, str]:
    """Line count of a file, read a MiB at a time, and its last line."""
    with open(path, "rb") as handle:
        count = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
        handle.seek(max(0, handle.tell() - 100))
        return count, handle.read().decode().splitlines()[-1]


def test_events_file_of_a_million_shots_and_its_shorter_rewrite(tmp_path):
    # one line per shot, the last for setting 3
    events = tmp_path / "ev.jsonl"
    run(["mzi", "--shots", "1000000", "--seed", "1", "--workers", "2", "--events", str(events)], 60)
    count, last = lines_and_last(events)
    assert count == 4_000_000
    assert re.fullmatch(r'\{"setting": 3, "shot": 999999, "path": [01], "spin": [01]\}', last), last
    # a shorter rerun to the same path rewrites it in place and cuts off the old tail
    run(["mzi", "--shots", "1000", "--seed", "1", "--events", str(events)])
    count, last = lines_and_last(events)
    assert count == 4000
    assert re.fullmatch(r'\{"setting": 3, "shot": 999, "path": [01], "spin": [01]\}', last), last
