"""Benchmark workloads: seeded CLI inputs and the checks every pass's output must meet.

Each workload turns the benchmark seed into the CLI calls of one pass (and of a
small warm-up), writing any input files they need into a work directory. The
program only ever sees those generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sampled correlators must lie within this many standard errors of the exact value.
Z_BOUND = 5.0

MZI_SHOTS = 10_000_000
EVENT_SETTINGS = 8
EVENT_SHOTS = 50_000
CONCAT_N = 200
CONCAT_SHOTS = 200_000
CONCAT_QUERIES = 10
REPORT_SHOTS = 1_000_000
REPORT_CONCAT_SHOTS = 200_000
# Shots report_rows samples besides the two --shots protocol runs (4 settings
# each) and two --concat-shots concat runs: 4 settings x 4096 shots, twice, for
# its worker-count check.
REPORT_REPRO_SHOTS = 2 * 4 * 4096

_EVENT_LINE = re.compile(rb'\{"setting": (\d+), "shot": (\d+), "path": ([01]), "spin": ([01])\}\n?')


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must show.

    ``kind`` adds checks to the generic ones every call gets: ``mzi`` (counts
    and correlators per setting), ``events`` (those plus the event file) or
    ``concat`` (the simulated row of ``query``); ``rows`` adds none.
    """

    argv: tuple[str, ...]
    kind: str = "rows"
    shots: int = 0
    settings: int = 0
    shots_per_setting: int = 0
    events: Path | None = None
    query: int | None = None


@dataclass(frozen=True)
class Plan:
    """One workload instance: the calls of a pass and the calls of its warm-up."""

    calls: tuple[Call, ...]
    warmup: tuple[Call, ...]

    @property
    def shots(self) -> int:
        """Born-sampled shots per pass."""
        return sum(call.shots for call in self.calls)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def report_all(seed: int, workdir: Path, workers: int) -> Plan:
    """report --all: enumeration, Born traces and seesaw dominate; few samples."""
    s = _cli_seed(np.random.default_rng([seed, 0]))
    argv = (
        "report", "--all", "--seed", s, "--shots", str(REPORT_SHOTS),
        "--concat-shots", str(REPORT_CONCAT_SHOTS), "--workers", "1",
    )
    shots = 2 * 4 * REPORT_SHOTS + 2 * REPORT_CONCAT_SHOTS + REPORT_REPRO_SHOTS
    warmup = (
        Call(("classical", "--n", "2")),
        Call(("quantum", "--n", "3", "--optimize", "--seed", s, "--starts", "5")),
        Call(("mzi", "--shots", "4096", "--seed", s, "--workers", "1")),
        Call(("concat", "--n", "6", "--engine", "born", "--shots", "4096", "--seed", s, "--workers", "1")),
    )
    return Plan((Call(argv, "rows", shots),), warmup)


def mzi_counts(seed: int, workdir: Path, workers: int) -> Plan:
    """Counts-only Born sampling at the protocol settings: the mzi kernel alone."""
    s = _cli_seed(np.random.default_rng([seed, 1]))

    def call(shots: int) -> Call:
        argv = ("mzi", "--shots", str(shots), "--seed", s, "--workers", str(workers))
        return Call(argv, "mzi", 4 * shots, settings=4, shots_per_setting=shots)

    return Plan((call(MZI_SHOTS),), (call(100_000),))


def random_settings(rng: np.random.Generator, count: int) -> list[dict]:
    """Analyzer settings with uniform angles and uniformly random unit spin axes."""
    settings = []
    for k in range(count):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        settings.append({
            "i": k + 1,
            "j": 1,
            "theta": float(rng.uniform(0.0, math.pi / 2)),
            "phi": float(rng.uniform(0.0, 2 * math.pi)),
            "spin_axis": axis.tolist(),
        })
    return settings


def mzi_events(seed: int, workdir: Path, workers: int) -> Plan:
    """Per-shot event log at random settings, one worker: event serialisation dominates."""
    rng = np.random.default_rng([seed, 2])
    s = _cli_seed(rng)
    settings_path = workdir / "settings.jsonl"
    settings_path.write_text(
        "".join(json.dumps(rec) + "\n" for rec in random_settings(rng, EVENT_SETTINGS))
    )

    def call(shots: int, events: Path) -> Call:
        argv = (
            "mzi", "--settings", str(settings_path), "--shots", str(shots), "--seed", s,
            "--events", str(events), "--workers", "1",
        )
        return Call(argv, "events", EVENT_SETTINGS * shots, EVENT_SETTINGS, shots, events)

    return Plan((call(EVENT_SHOTS, workdir / "events.jsonl"),), (call(500, workdir / "warmup-events.jsonl"),))


def concat_deep(seed: int, workdir: Path, workers: int) -> Plan:
    """Deep padded concatenated code: per-node streams, memory O(shots x nodes)."""
    rng = np.random.default_rng([seed, 3])
    s = _cli_seed(rng)
    bits = "".join(str(b) for b in rng.integers(0, 2, CONCAT_N))
    permute = _cli_seed(rng)
    queries = sorted(int(q) for q in rng.choice(CONCAT_N, CONCAT_QUERIES, replace=False))

    def call(query: int, shots: int) -> Call:
        argv = (
            "concat", "--n", str(CONCAT_N), "--engine", "born", "--shots", str(shots),
            "--seed", s, "--workers", str(workers), "--input", bits,
            "--permute-seed", permute, "--query", str(query),
        )
        return Call(argv, "concat", shots, query=query)

    return Plan(tuple(call(q, CONCAT_SHOTS) for q in queries), (call(queries[0], 4096),))


WORKLOADS = {
    "report-all": report_all,
    "mzi-counts": mzi_counts,
    "mzi-events": mzi_events,
    "concat-deep": concat_deep,
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def parse_rows(text: str) -> list[dict] | None:
    """The JSON records of one CLI call's stdout, or None if any line is not JSON."""
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return None


def row_checks(tag: str, rc: int, rows: list[dict] | None) -> list[Check]:
    """Exit code, a non-empty parseable table, and one check per row with a verdict."""
    checks = [
        Check(f"{tag}.exit-code", rc == 0),
        Check(f"{tag}.rows-parse", rows is not None),
        Check(f"{tag}.rows-emitted", bool(rows)),
    ]
    verdicts = [row for row in rows or [] if row.get("pass") is not None]
    checks.extend(Check(f"{tag}.row.{row.get('quantity')}", row["pass"] is True) for row in verdicts)
    return checks


def correlator_checks(tag: str, rows: list[dict], shots: int, racsim) -> list[Check]:
    """Each sampled joint correlator within Z_BOUND standard errors of the exact value."""
    state = racsim.mzi.maximally_entangled_state()
    checks = []
    for row in rows:
        if row["quantity"] != "correlator-joint":
            continue
        p = row["params"]
        exact = racsim.qcore.expectation_product(
            state, racsim.mzi.path_direction(p["theta"], p["phi"]), p["spin_axis"]
        )
        se = math.sqrt(max(0.0, 1.0 - exact * exact) / shots)
        checks.append(Check(f"{tag}.correlator.{p['label']}", abs(row["value"] - exact) <= Z_BOUND * se + 1e-9))
    return checks


def count_rows(rows: list[dict]) -> list[tuple[int, int, int, int]]:
    """Per-setting (n+, n-, m+, m-) tallies as the correlator rows report them."""
    return [
        (r["params"]["n_spin_plus"], r["params"]["n_spin_minus"],
         r["params"]["m_spin_plus"], r["params"]["m_spin_minus"])
        for r in rows
        if r["quantity"] == "correlator-joint"
    ]


def event_tallies(path: Path, settings: int) -> tuple[int, list[list[int]], bool]:
    """Line count, per-setting tallies, and whether every line is a well-formed event in shot order."""
    tallies = [[0, 0, 0, 0] for _ in range(settings)]
    next_shot = [0] * settings
    lines = 0
    ordered = True
    if not path.is_file():
        return lines, tallies, False
    with open(path, "rb") as handle:
        for line in handle:
            lines += 1
            m = _EVENT_LINE.fullmatch(line)
            if m is None:
                ordered = False
                continue
            setting, shot, path_bit, spin_bit = (int(g) for g in m.groups())
            if setting >= settings:
                ordered = False
                continue
            ordered &= shot == next_shot[setting]
            next_shot[setting] = shot + 1
            tallies[setting][2 * path_bit + spin_bit] += 1
    return lines, tallies, ordered


def check_call(tag: str, call: Call, rc: int, text: str, racsim) -> tuple[list[Check], int]:
    """All checks of one call's output, and the records it wrote (rows plus events)."""
    rows = parse_rows(text)
    checks = row_checks(tag, rc, rows)
    rows = rows or []
    records = len(rows)
    if call.kind in ("mzi", "events"):
        checks += correlator_checks(tag, rows, call.shots_per_setting, racsim)
        reported = count_rows(rows)
        checks.append(Check(f"{tag}.settings-reported", len(reported) == call.settings))
        checks.extend(
            Check(f"{tag}.setting{k}.shots", sum(t) == call.shots_per_setting) for k, t in enumerate(reported)
        )
    if call.kind == "events":
        lines, tallies, ordered = event_tallies(call.events, call.settings)
        records += lines
        checks.append(Check(f"{tag}.events.lines", lines == call.settings * call.shots_per_setting))
        checks.append(Check(f"{tag}.events.shot-order", ordered))
        checks.append(Check(f"{tag}.events.tallies", [tuple(t) for t in tallies] == reported))
    if call.kind == "concat":
        sims = [r for r in rows if r["quantity"] == "simulated-per-bit"]
        checks.append(Check(
            f"{tag}.simulated-query",
            len(sims) == 1 and sims[0]["params"]["bit"] == call.query and sims[0]["params"]["shots"] == call.shots,
        ))
    return checks, records


def check_pass(plan: Plan, outputs: list[tuple[int, str]], racsim) -> tuple[list[Check], int]:
    """All checks of one pass, and the number of records it wrote."""
    checks: list[Check] = []
    records = 0
    for i, (call, (rc, text)) in enumerate(zip(plan.calls, outputs)):
        call_checks, call_records = check_call(f"call{i}", call, rc, text, racsim)
        checks += call_checks
        records += call_records
    return checks, records


def fail_ratio(checks: list[Check]) -> float:
    """Failed checks over attempted checks."""
    return sum(not c.ok for c in checks) / len(checks)


def digest(plan: Plan, outputs: list[tuple[int, str]]) -> str:
    """SHA-256 over every call's exit code and stdout, each followed by its event file."""
    h = hashlib.sha256()
    for call, (rc, text) in zip(plan.calls, outputs):
        h.update(f"{rc}\n".encode())
        h.update(text.encode())
        if call.events is not None and call.events.is_file():
            with open(call.events, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()
