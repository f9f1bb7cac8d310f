"""Tests of the benchmark's own checks and span accounting (small inputs only)."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span_array(rows):
    return np.array(rows, dtype=spans.SPAN_DTYPE)


def test_self_time_subtracts_union_of_parallel_children():
    # parent [0, 100]; children on two threads overlap in [30, 60]; grandchild in A
    rows = _span_array([
        (0, -1, 0, 0, 100, 1, 0),
        (1, 0, 1, 10, 60, 1, 0),
        (2, 0, 1, 30, 80, 2, 0),
        (3, 1, 2, 20, 30, 1, 0),
    ])
    self_ns, overlap_ns = spans.self_times(rows)
    assert self_ns.tolist() == [30, 40, 50, 10]
    assert overlap_ns.tolist() == [30, 0, 0, 0]
    # self minus parallel overlap adds up to the root's duration
    assert self_ns.sum() - overlap_ns.sum() == 100
    assert spans.contained(rows)


def test_self_time_matches_brute_force_on_random_trees():
    rng = np.random.default_rng(5)
    rows = [(0, -1, 0, 0, 1000, 0, 0)]
    for span_id in range(1, 60):
        parent = rows[int(rng.integers(len(rows)))]
        lo, hi = sorted(int(x) for x in rng.integers(parent[3], parent[4] + 1, 2))
        rows.append((span_id, parent[0], 1, lo, hi, int(rng.integers(3)), 0))
    arr = _span_array(rows)
    self_ns, _ = spans.self_times(arr)
    for k, row in enumerate(rows):
        covered = np.zeros(1000, bool)
        for child in rows:
            if child[1] == row[0]:
                covered[child[3]:child[4]] = True
        assert self_ns[k] == (row[4] - row[3]) - covered[row[3]:row[4]].sum()


@pytest.fixture
def racsim():
    importlib.import_module("racsim.cli")
    return importlib.import_module("racsim")


@pytest.fixture
def events_pass(tmp_path, racsim):
    """A real small mzi --events pass: the workload's warm-up call, checked as a pass."""
    plan = workloads.mzi_events(3, tmp_path, 1)
    plan = workloads.Plan(plan.warmup, ())
    outputs = [run.run_call(racsim, list(call.argv)) for call in plan.calls]
    return plan, outputs


def test_events_pass_is_clean(events_pass, racsim):
    plan, outputs = events_pass
    checks, records = workloads.check_pass(plan, outputs, racsim)
    assert workloads.fail_ratio(checks) == 0.0
    assert records == workloads.EVENT_SETTINGS * (500 + 3)


def test_truncated_event_file_raises_fail_ratio(events_pass, racsim):
    plan, outputs = events_pass
    events = plan.calls[0].events
    lines = events.read_bytes().splitlines(keepends=True)
    events.write_bytes(b"".join(lines[:-1]))
    checks, _ = workloads.check_pass(plan, outputs, racsim)
    assert workloads.fail_ratio(checks) > 0
    assert "call0.events.lines" in {c.name for c in checks if not c.ok}


def test_mismatched_tally_raises_fail_ratio(events_pass, racsim):
    plan, outputs = events_pass
    rc, text = outputs[0]
    rows = [json.loads(line) for line in text.splitlines()]
    target = next(r for r in rows if r["quantity"] == "correlator-joint")
    target["params"]["n_spin_plus"] += 1
    target["params"]["n_spin_minus"] -= 1
    tampered = "".join(json.dumps(r) + "\n" for r in rows)
    checks, _ = workloads.check_pass(plan, [(rc, tampered)], racsim)
    assert workloads.fail_ratio(checks) > 0
    assert "call0.events.tallies" in {c.name for c in checks if not c.ok}


def test_fabricated_failing_row_raises_fail_ratio(tmp_path, racsim):
    plan = workloads.Plan((workloads.Call(("report", "--all")),), ())
    good = {"cmd": "report", "params": {}, "quantity": "x", "value": 1, "expected": 1,
            "tolerance": 0, "reference": None, "pass": True}
    bad = dict(good, quantity="y", value=2, **{"pass": False})
    clean, _ = workloads.check_pass(plan, [(0, json.dumps(good) + "\n")], racsim)
    failing, _ = workloads.check_pass(plan, [(0, json.dumps(good) + "\n" + json.dumps(bad) + "\n")], racsim)
    assert workloads.fail_ratio(clean) == 0.0
    assert workloads.fail_ratio(failing) > 0
    assert [c.name for c in failing if not c.ok] == ["call0.row.y"]


def test_traced_pass_nests_worker_threads_and_restores_functions(tmp_path, racsim):
    plan = workloads.mzi_counts(1, tmp_path, 2)
    plan = workloads.Plan(plan.warmup, ())
    original = racsim.mzi.sample_setting
    tracer = spans.Tracer(run.layer_modules(racsim), run.OBSERVERS)
    tracer.install()
    try:
        _, _, outputs = run.run_pass(racsim, plan, tracer, pass_id=0)
    finally:
        tracer.uninstall()
    assert racsim.mzi.sample_setting is original
    checks, _ = workloads.check_pass(plan, outputs, racsim)
    stats, trace_checks = run.pass_stats(tracer.take_spans(), tracer.names, tracer.counters[0])
    assert workloads.fail_ratio(checks + trace_checks) == 0.0
    metrics = run.layer_metrics(stats)
    assert metrics["mzi.sample_setting.calls"][0] == 8  # 4 settings x 2 workers
    assert metrics["trace.parallel_overlap_s"][0] > 0
    assert metrics["mzi.outcome_bytes"][0] == 4 * 2 * 100_000


def test_repeated_traced_passes_keep_span_names_and_seesaw_ratio(racsim):
    plan = workloads.Plan((workloads.Call(("quantum", "--n", "3", "--optimize", "--seed", "7", "--starts", "5")),), ())
    tracer = spans.Tracer(run.layer_modules(racsim), run.OBSERVERS)
    names = list(tracer.names)
    ratios = []
    for pass_id in range(3):
        tracer.install()
        try:
            _, _, outputs = run.run_pass(racsim, plan, tracer, pass_id)
        finally:
            tracer.uninstall()
        checks, _ = workloads.check_pass(plan, outputs, racsim)
        stats, trace_checks = run.pass_stats(tracer.take_spans(), tracer.names, tracer.counters.pop(pass_id))
        assert workloads.fail_ratio(checks + trace_checks) == 0.0
        assert tracer.names == names
        metrics = run.layer_metrics(stats)
        assert metrics["qrac.maximize_bell.calls"][0] == 1
        ratios.append(metrics["qrac.seesaw_useful_ratio"][0])
    assert ratios == [1.0, 1.0, 1.0]


def test_missing_traced_function_fails_span_names_check(racsim):
    modules = run.layer_modules(racsim)
    tracer = spans.Tracer(modules, run.OBSERVERS)
    names = [n for n in tracer.names if n != "mzi.sample_setting"]
    _, trace_checks = run.pass_stats(tracer.take_spans(), names, {})
    assert "trace.span-names" in {c.name for c in trace_checks if not c.ok}


def test_malformed_event_line_fails_event_checks(events_pass, racsim):
    plan, outputs = events_pass
    events = plan.calls[0].events
    lines = events.read_bytes().splitlines(keepends=True)
    lines[0] = lines[0].replace(b'"shot": 0', b'"shot":0')
    events.write_bytes(b"".join(lines))
    checks, _ = workloads.check_pass(plan, outputs, racsim)
    assert "call0.events.shot-order" in {c.name for c in checks if not c.ok}


@pytest.fixture
def own_racsim_modules():
    """Puts back the racsim modules the rest of the suite imported, after a test re-imports it."""
    saved = {name: module for name, module in sys.modules.items() if run._is_racsim(name)}
    yield
    for name in [name for name in sys.modules if run._is_racsim(name)]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_setups_aside_keep_the_modules_in_use(tmp_path, own_racsim_modules):
    setups = run.SetUps(workloads.mzi_counts, 1, tmp_path, 1)
    racsim, _ = setups.once()
    setups.aside(2)
    assert len(setups.times) == 3 and all(t > 0 for t in setups.times)
    assert workloads.fail_ratio(setups.checks) == 0.0
    assert sys.modules["racsim"] is racsim
    assert sys.modules["racsim.mzi"] is racsim.mzi
    setups.aside(run.SETUPS)
    assert len(setups.times) == run.SETUPS
