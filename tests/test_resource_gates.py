"""Peak-RSS gates of the heaviest CLI runs, each command measured in a fresh child process.

The file imports nothing from the checkout but ``racsim`` itself, so it also
runs from a copy outside the checkout against an installed package:

    cp tests/test_resource_gates.py "$TMPDIR" && cd "$TMPDIR" && python -m pytest -q test_resource_gates.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from racsim import cli

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
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    command = [sys.executable, "-m", "racsim.cli", *argv]
    measured = subprocess.run(
        [sys.executable, "-c", _MEASURE, *command], capture_output=True, text=True, env=env,
    )
    assert measured.returncode == 0, measured.stderr
    peak_mb = int(measured.stdout) / 1024
    assert peak_mb < bound_mb, f"racsim {' '.join(argv)} peaked at {peak_mb:.1f} MB"
