"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim import cli, mzi, qcore, qrac
from test_mzi import reference_write_events


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines() if line]
    return code, rows


def by_quantity(rows, quantity):
    matches = [r for r in rows if r["quantity"] == quantity]
    assert matches, f"no row with quantity {quantity!r}"
    return matches


class TestClassicalCommand:
    def test_enumerate_two_bits(self, capsys):
        code, rows = run(capsys, ["classical", "--n", "2", "--mode", "enumerate"])
        assert code == 0
        assert by_quantity(rows, "max-average")[0]["value"] == 0.75
        assert by_quantity(rows, "min-average")[0]["value"] == 0.25
        assert by_quantity(rows, "strategy-count")[0]["value"] == 256

    def test_enumerate_three_bits(self, capsys):
        code, rows = run(capsys, ["classical", "--n", "3", "--mode", "enumerate"])
        assert code == 0
        assert by_quantity(rows, "max-average")[0]["value"] == 0.75

    def test_formula_four_bits(self, capsys):
        code, rows = run(capsys, ["classical", "--n", "4", "--mode", "formula"])
        assert code == 0
        assert by_quantity(rows, "optimal-success-formula")[0]["value"] == 0.6875

    def test_enumerate_four_bits(self, capsys):
        code, rows = run(capsys, ["classical", "--n", "4"])
        assert code == 0
        assert by_quantity(rows, "strategy-count")[0]["value"] == 16_777_216
        assert by_quantity(rows, "max-average")[0]["value"] == 11 / 16
        assert by_quantity(rows, "min-average")[0]["value"] == 5 / 16
        assert all(row["pass"] for row in rows)

    def test_oversized_enumeration_refused_with_count(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["classical", "--n", "5", "--mode", "enumerate"])
        assert excinfo.value.code == 2
        assert "4398046511104" in capsys.readouterr().err
        # the strategy-by-strategy dump stops at n = 3
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["classical", "--n", "4", "--dump-strategies"])
        assert excinfo.value.code == 2
        assert "16777216" in capsys.readouterr().err

    @pytest.mark.parametrize("n,count", [(6, "2^76"), (14, "2^16412"), (cli.BITS_MAX, "2^1073741884")])
    def test_large_count_written_as_power(self, capsys, n, count):
        # from n = 14 the integer has more digits than str() formats
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["classical", "--n", str(n)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            f"error: enumeration supports 2 <= n <= 4; n={n} would mean {count} strategies\n"
        )

    def test_dump_strategies_records(self, capsys):
        code, rows = run(capsys, ["classical", "--n", "2", "--dump-strategies"])
        assert code == 0
        strategies = [r for r in rows if r["quantity"] == "strategy"]
        assert len(strategies) == 256
        sample = strategies[0]
        assert "strategy_id" in sample["params"]
        assert "correlators" in sample["params"]


class TestBoundsCommand:
    def test_table_rows(self, capsys):
        code, rows = run(capsys, ["bounds", "--n-max", "4"])
        assert code == 0
        n2 = [r for r in rows if r["params"].get("n") == 2]
        assert by_quantity(n2, "classical-bound")[0]["value"] == 2
        assert by_quantity(n2, "quantum-max")[0]["value"] == pytest.approx(2.8284271, abs=1e-6)
        assert by_quantity(n2, "success-at-quantum-max")[0]["value"] == pytest.approx(0.8535534, abs=1e-6)
        n4 = [r for r in rows if r["params"].get("n") == 4]
        assert by_quantity(n4, "classical-bound")[0]["value"] == 12
        assert by_quantity(n4, "quantum-max")[0]["value"] == 16.0
        assert by_quantity(n4, "success-at-classical-bound")[0]["value"] == 0.6875
        assert by_quantity(n4, "success-at-classical-bound")[0]["pass"] is True


class TestQuantumCommand:
    def test_three_bit_defaults(self, capsys):
        code, rows = run(capsys, ["quantum", "--n", "3"])
        assert code == 0
        assert by_quantity(rows, "success")[0]["value"] == pytest.approx(0.7886751, abs=1e-6)
        assert by_quantity(rows, "expression-value")[0]["value"] == pytest.approx(6.9282032, abs=1e-6)

    def test_bases_file_override(self, capsys, tmp_path):
        bases_path = tmp_path / "bases.json"
        s = 1 / math.sqrt(2)
        bases_path.write_text(
            json.dumps({"alice": [[s, 0, s], [-s, 0, s]], "bob": [[0, 0, 1], [1, 0, 0]]})
        )
        code, rows = run(capsys, ["quantum", "--bases", str(bases_path)])
        assert code == 0
        assert by_quantity(rows, "expression-value")[0]["value"] == pytest.approx(
            2 * math.sqrt(2), abs=1e-9
        )

    def test_malformed_bases_file(self, capsys, tmp_path):
        bad = tmp_path / "bases.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["quantum", "--bases", str(bad)])
        assert excinfo.value.code == 2

    @staticmethod
    def evaluate_spy(monkeypatch) -> list[int]:
        """The stack size of every ``qrac.evaluate`` call from now on."""
        calls, evaluate = [], qrac.evaluate

        def spy(alice, bob):
            calls.append(len(alice))
            return evaluate(alice, bob)

        monkeypatch.setattr(qrac, "evaluate", spy)
        return calls

    def test_bases_file_is_evaluated_once(self, capsys, monkeypatch, tmp_path):
        bases_path = tmp_path / "bases.json"
        bases_path.write_text(json.dumps({"alice": [[0, 0, 1], [1, 0, 0]], "bob": [[0, 0, 1], [0, 1, 0]]}))
        calls = self.evaluate_spy(monkeypatch)
        assert cli.main(["quantum", "--bases", str(bases_path)]) == 0
        assert calls == [1]

    def test_report_evaluates_each_basis_set_once(self, monkeypatch):
        # the two default basis sets, then the two stacks of 1000 random bases
        calls = self.evaluate_spy(monkeypatch)
        cli.report_rows(1, 1000, 1000, 1)
        assert calls == [1, 1, 1000, 1000]

    def test_optimize_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["quantum", "--n", "2", "--optimize"])
        assert excinfo.value.code == 2

    def test_optimize_reaches_cap(self, capsys):
        code, rows = run(capsys, ["quantum", "--n", "2", "--optimize", "--starts", "20", "--seed", "3"])
        assert code == 0
        row = by_quantity(rows, "seesaw-max")[0]
        assert row["pass"] is True


# (a, delta) of generated states, drawn once from a fixed generator, plus the run
# seeds and edge states: fixed in advance, never chosen after looking at the result
GENERATED_STATES = [
    (float(a), float(delta), seed)
    for seed, (a, delta) in enumerate(np.random.default_rng(18).uniform((0, -2 * math.pi), (1, 2 * math.pi), (24, 2)))
] + [(0.9, math.pi, 24), (0.9, 0.0, 25), (0.9, 3.0, 26), (1.0, 0.0, 27), (0.0, math.pi, 28), (1 / math.sqrt(2), 0.0, 29)]


class TestMziCommand:
    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mzi", "--shots", "100"])
        assert excinfo.value.code == 2

    def test_default_estimation_run(self, capsys):
        code, rows = run(capsys, ["mzi", "--shots", "20000", "--seed", "42"])
        assert code == 0
        assert by_quantity(rows, "expression-estimate")[0]["pass"] is True
        assert by_quantity(rows, "success-estimate")[0]["pass"] is True
        joints = by_quantity(rows, "correlator-joint")
        assert len(joints) == 4
        tallies = joints[0]["params"]
        assert tallies["n_total"] == tallies["n_spin_plus"] + tallies["n_spin_minus"]

    def test_settings_file_and_events(self, capsys, tmp_path):
        settings_path = tmp_path / "settings.jsonl"
        settings_path.write_text(
            json.dumps(
                {"i": 1, "j": 1, "theta": math.pi / 2, "phi": 0.0, "spin_axis": [0, 0, 1]}
            )
            + "\n"
        )
        events_path = tmp_path / "events.jsonl"
        code, rows = run(
            capsys,
            [
                "mzi", "--shots", "1000", "--seed", "11",
                "--settings", str(settings_path), "--events", str(events_path),
            ],
        )
        assert code == 0
        joint = by_quantity(rows, "correlator-joint")[0]
        assert joint["value"] == -1.0  # aligned settings on the entangled state
        assert abs(by_quantity(rows, "correlator-product-form")[0]["value"]) < 0.2
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert len(events) == 1000
        assert all(e["path"] != e["spin"] for e in events)

    def test_settings_parse_error_reports_line(self, capsys, tmp_path):
        settings_path = tmp_path / "settings.jsonl"
        settings_path.write_text('{"i": 1, "j": 1, "theta": 0.1, "phi": 0.0, "spin_axis": [0,0,1]}\n{bad\n')
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mzi", "--shots", "10", "--seed", "1", "--settings", str(settings_path)])
        assert excinfo.value.code == 2
        assert ":2:" in capsys.readouterr().err

    def test_missing_field_reports_line(self, capsys, tmp_path):
        settings_path = tmp_path / "settings.jsonl"
        settings_path.write_text('{"i": 1, "j": 1, "phi": 0.0, "spin_axis": [0,0,1]}\n')
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mzi", "--shots", "10", "--seed", "1", "--settings", str(settings_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert ":1:" in err and "theta" in err

    @pytest.mark.parametrize("present,missing", [("i", "j"), ("j", "i")])
    def test_half_label_reports_line(self, capsys, tmp_path, present, missing):
        settings_path = tmp_path / "settings.jsonl"
        settings_path.write_text(
            '{"theta": 0.1, "phi": 0.0, "spin_axis": [0,0,1]}\n'
            f'{{"{present}": 2, "theta": 0.1, "phi": 0.0, "spin_axis": [0,0,1]}}\n'
        )
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mzi", "--shots", "10", "--seed", "1", "--settings", str(settings_path)])
        assert excinfo.value.code == 2
        assert f"{settings_path}:2: missing field '{missing}'" in capsys.readouterr().err

    @pytest.mark.parametrize("a, delta, seed", GENERATED_STATES)
    def test_state_runs_are_checked_against_their_own_state(self, capsys, a, delta, seed):
        argv = ["mzi", "--shots", "20000", "--seed", str(seed), "--a", repr(a), "--delta", repr(delta)]
        code, rows = run(capsys, argv)
        assert code == 0
        expression = by_quantity(rows, "expression-estimate")[0]
        concurrence = 2 * a * math.sqrt(1 - a * a)
        assert expression["expected"] == pytest.approx(math.sqrt(2) * (1 - concurrence * math.cos(delta)), abs=1e-12)
        assert all(row["reference"] == "born-table" for row in rows if row["pass"] is not None)

    def test_settings_rows_are_checked_against_their_born_rows(self, capsys, tmp_path):
        # exact correlator 0.994: a run may see no minority outcome, so the SE is read at the target
        settings_path = tmp_path / "settings.jsonl"
        theta = 0.5 * math.acos(0.994)
        settings_path.write_text(json.dumps({"theta": theta, "phi": 0.0, "spin_axis": [0, 0, 1]}) + "\n")
        failed = []
        for seed in range(400):  # fixed in advance
            code, rows = run(capsys, ["mzi", "--shots", "1000", "--seed", str(seed), "--settings", str(settings_path)])
            joints = by_quantity(rows, "correlator-joint")
            assert all(row["pass"] is not None for row in joints)
            assert joints[0]["expected"] == pytest.approx(0.994, abs=1e-12)
            if code != 0:
                failed.append(seed)
        assert failed == []

    @pytest.mark.parametrize("label", [cli.LABEL_MAX, -cli.LABEL_MAX, cli.LABEL_MAX + 1, -cli.LABEL_MAX - 1])
    def test_labels_bounded_at_label_max(self, capsys, tmp_path, label):
        settings_path = tmp_path / "settings.jsonl"
        settings_path.write_text(json.dumps({"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0], "i": label, "j": 1}))
        argv = ["mzi", "--shots", "8", "--seed", "1", "--settings", str(settings_path)]
        if abs(label) <= cli.LABEL_MAX:
            code, rows = run(capsys, argv)
            assert code == 0 and rows[0]["params"]["label"] == [label, 1]
        else:
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2

    def test_identical_output_across_workers(self, capsys):
        def scrub(rows):
            for row in rows:
                row["params"].pop("workers", None)
            return rows

        code1, rows1 = run(capsys, ["mzi", "--shots", "8192", "--seed", "3", "--workers", "1"])
        code2, rows2 = run(capsys, ["mzi", "--shots", "8192", "--seed", "3", "--workers", "3"])
        assert code1 == code2 == 0
        assert scrub(rows1) == scrub(rows2)


class TestConcatCommand:
    def test_analytic_engine(self, capsys):
        code, rows = run(capsys, ["concat", "--n", "6"])
        assert code == 0
        per_bit = by_quantity(rows, "analytic-per-bit")
        assert len(per_bit) == 6
        assert all(r["value"] == pytest.approx(0.7041241, abs=1e-6) for r in per_bit)

    def test_sampling_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["concat", "--n", "4", "--engine", "born"])
        assert excinfo.value.code == 2

    def test_born_engine_single_query(self, capsys):
        code, rows = run(
            capsys,
            ["concat", "--n", "4", "--engine", "born", "--shots", "50000", "--seed", "7", "--query", "1"],
        )
        assert code == 0
        sim = by_quantity(rows, "simulated-per-bit")[0]
        assert sim["pass"] is True
        assert sim["expected"] == 0.75

    def test_padded_run_labels_standin(self, capsys):
        code, rows = run(
            capsys,
            ["concat", "--n", "5", "--engine", "born", "--shots", "20000", "--seed", "7",
             "--query", "0", "--permute-seed", "13"],
        )
        assert code == 0
        assert rows[0]["params"]["padded_to"] == 6
        assert rows[0]["params"]["sr_permutation_standin"] is True

    def test_bad_input_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["concat", "--n", "4", "--engine", "born", "--shots", "100",
                      "--seed", "1", "--input", "01"])
        assert excinfo.value.code == 2

    def test_few_shot_runs_are_checked_at_the_target_rate(self, capsys):
        # 35 shots may all succeed: the SE read at that estimate would be 0
        argv = ["concat", "--n", "2", "--engine", "born", "--shots", "35", "--query", "0", "--seed"]
        failed = [seed for seed in range(400) if cli.main(argv + [str(seed)]) != 0]  # seeds fixed in advance
        capsys.readouterr()
        assert failed == []

    def test_query_all_simulates_every_bit(self, capsys):
        code, rows = run(
            capsys,
            ["concat", "--n", "4", "--engine", "born", "--shots", "20000", "--seed", "7",
             "--query", "all", "--input", "1011"],
        )
        assert code == 0
        sims = by_quantity(rows, "simulated-per-bit")
        assert [r["params"]["bit"] for r in sims] == [0, 1, 2, 3]
        assert all(r["pass"] for r in sims)

    def test_padded_to_1024_runs(self, capsys):
        # smooth_ceiling(973) = 1024, where 2^m overflowed a float in the padded bound
        code, rows = run(capsys, ["concat", "--n", "973"])
        assert code == 0
        assert rows[0]["params"]["padded_to"] == 1024
        assert by_quantity(rows, "padded-lower-bound")[0]["value"] == 0.5 + 1 / 64

    @pytest.mark.parametrize("n", [cli.CONCAT_MAX_N + 1, 10**18])
    def test_n_bounded_in_parser(self, capsys, n):
        # parser level only: a tree this size is never built
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["concat", "--n", str(n)])
        assert excinfo.value.code == 2
        assert f"expected int in [2, {cli.CONCAT_MAX_N}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,bound",
    [
        (["concat", "--n", "4", "--shots"], cli.SHOTS_MAX),
        (["report", "--all", "--seed", "1", "--shots"], cli.SHOTS_MAX),
        (["report", "--all", "--seed", "1", "--concat-shots"], cli.SHOTS_MAX),
        (["quantum", "--optimize", "--seed", "1", "--starts"], cli.STARTS_MAX),
        (["quantum", "--optimize", "--seed", "1", "--iterations"], cli.ITERATIONS_MAX),
    ],
    ids=["concat-shots", "report-shots", "report-concat-shots", "starts", "iterations"],
)
@pytest.mark.parametrize("excess", [1, 10**30])
def test_counts_bounded_in_parser(capsys, argv, bound, excess):
    # parser level only: no per-shot arrays stop these counts, so a run would just keep going
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(argv + [str(bound + excess)])
    assert excinfo.value.code == 2
    assert f"in [1, {bound}]" in capsys.readouterr().err


def test_settings_over_budget_refused_before_any_work(capsys, monkeypatch, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the outcome budget was checked")

    monkeypatch.setattr(cli.mzi, "sample_events", no_work)
    settings_path = tmp_path / "settings.jsonl"
    settings_path.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n' * 9)
    events_path = tmp_path / "events.jsonl"
    argv = ["mzi", "--shots", str(cli.SHOTS_MAX), "--seed", "1", "--settings", str(settings_path)]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + ["--events", str(events_path)])
    assert excinfo.value.code == 2
    assert f"9 settings x {cli.SHOTS_MAX} shots would hold {18 * cli.SHOTS_MAX} B" in capsys.readouterr().err
    assert not events_path.exists()
    # eight settings at the largest shot count fit the budget exactly
    settings_path.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n' * 8)
    with pytest.raises(AssertionError, match="sampling started"):
        cli.main(argv)


def test_query_scratch_over_budget_refused_before_any_draw(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the query scratch was checked")

    monkeypatch.setattr(cli.concat, "simulate", no_work)
    fit = cli.QUERY_SCRATCH_BUDGET // mzi.BLOCK  # queries of one full-block span
    argv = ["concat", "--engine", "born", "--seed", "1", "--workers", "1", "--n"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + [str(fit + 1)])
    assert excinfo.value.code == 2
    assert f"{fit + 1} queries would hold {(fit + 1) * mzi.BLOCK} B" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="sampling started"):
        cli.main(argv + [str(fit)])


def test_concat_builds_a_tree_only_to_sample(capsys, monkeypatch):
    def no_tree(*args, **kwargs):
        raise AssertionError("the padded tree was built or walked")

    monkeypatch.setattr(cli.concat, "build_padded", no_tree)
    monkeypatch.setattr(cli.concat, "build_tree", no_tree)
    code, rows = run(capsys, ["concat", "--n", "200"])
    assert code == 0
    assert len(by_quantity(rows, "analytic-per-bit")) == 200
    # every refused concat input exits 2 before the tree is built, sampled or not
    for name, argv in BAD_ARGV.items():
        if argv[0] == "concat":
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2, name
            assert "Traceback" not in capsys.readouterr().err


def test_bases_bits_bounded_before_alice_is_read(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"alice": "never read", "bob": [[0, 0, 1]] * (cli.BASES_MAX_N + 1)}))
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["quantum", "--bases", str(path)])
    assert excinfo.value.code == 2
    expected = f"error: {path}: {cli.BASES_MAX_N + 1} bits, above the bound of {cli.BASES_MAX_N}\n"
    assert capsys.readouterr().err == expected


class TestReportCommand:
    def test_requires_all_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["report", "--seed", "1"])
        assert excinfo.value.code == 2

    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["report", "--all"])
        assert excinfo.value.code == 2

    def test_full_report_passes_and_exports_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        csv_path.write_text("stale,line\n" * 10_000)  # rewritten in place: the old tail must go
        code, rows = run(
            capsys,
            ["report", "--all", "--seed", "42", "--shots", "100000",
             "--concat-shots", "50000", "--csv", str(csv_path)],
        )
        assert code == 0
        checked = [r for r in rows if r["pass"] is not None]
        assert checked and all(r["pass"] for r in checked)
        # both estimators surfaced side by side
        joint = by_quantity(rows, "discrepancy-correlator-joint")[0]
        product = by_quantity(rows, "discrepancy-correlator-product-form")[0]
        assert joint["value"] == -1.0
        assert abs(product["value"]) < 0.05
        lines = csv_path.read_text().splitlines()
        assert len(lines) == len(rows) + 1
        assert lines[0].startswith("cmd,quantity,value")
        assert not any(line.startswith("stale") for line in lines)

    def test_deterministic_given_seed(self, capsys):
        args = ["report", "--all", "--seed", "9", "--shots", "20000", "--concat-shots", "20000"]
        code1, rows1 = run(capsys, args)
        code2, rows2 = run(capsys, args + ["--workers", "2"])
        assert code1 == code2 == 0
        assert rows1 == rows2


class TestWorkersOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mzi", "--shots", "8", "--seed", "1"],
            ["concat", "--n", "4", "--engine", "born", "--shots", "8", "--seed", "1"],
            ["report", "--all", "--seed", "1"],
        ],
        ids=["mzi", "concat", "report"],
    )
    def test_zero_rejected_before_any_work(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--workers", "0"])
        assert excinfo.value.code == 2
        assert "argument --workers" in capsys.readouterr().err

    def test_environment_does_not_set_workers(self, capsys, monkeypatch):
        argv = ["mzi", "--shots", "4096", "--seed", "5"]
        code, rows = run(capsys, argv)
        monkeypatch.setenv("RACSIM_WORKERS", "abc")
        assert run(capsys, argv) == (code, rows)
        assert code == 0 and rows[0]["params"]["workers"] == 1


BAD_ARGV = {
    "mzi-a-above-one": ["mzi", "--shots", "8", "--seed", "1", "--a", "2"],
    "mzi-a-nan": ["mzi", "--shots", "8", "--seed", "1", "--a", "nan"],
    "mzi-zero-shots": ["mzi", "--shots", "0", "--seed", "1"],
    "mzi-negative-shots": ["mzi", "--shots", "-5", "--seed", "1"],
    "mzi-settings-zero-shots": ["mzi", "--shots", "0", "--seed", "1", "--settings", "{settings}"],
    "mzi-negative-seed": ["mzi", "--shots", "8", "--seed", "-1"],
    "mzi-seed-above-64-bits": ["mzi", "--shots", "8", "--seed", str(2**64)],
    "mzi-delta-nan": ["mzi", "--shots", "8", "--seed", "1", "--delta", "nan"],
    "mzi-delta-inf": ["mzi", "--shots", "8", "--seed", "1", "--delta", "inf"],
    "mzi-settings-theta-nan": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{theta_nan}"],
    "mzi-settings-axis-nan": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{axis_nan}"],
    "concat-zero-shots": ["concat", "--n", "4", "--engine", "born", "--shots", "0", "--seed", "1"],
    "concat-query-not-int": ["concat", "--n", "4", "--engine", "born", "--seed", "1", "--query", "x"],
    "concat-query-out-of-range": ["concat", "--n", "5", "--engine", "born", "--seed", "1", "--query", "5"],
    "concat-input-not-bits": ["concat", "--n", "4", "--engine", "born", "--seed", "1", "--input", "01x1"],
    "concat-input-too-short": ["concat", "--n", "5", "--engine", "born", "--seed", "1", "--input", "10"],
    "concat-input-too-long": [
        "concat", "--n", "5", "--engine", "born", "--seed", "1", "--input", "10110110",
    ],
    "concat-engine-mzi": ["concat", "--n", "4", "--engine", "mzi", "--seed", "1"],
    # the analytic engine checks --input and --query too
    "concat-analytic-input-not-bits": ["concat", "--n", "4", "--input", "xyz"],
    "concat-analytic-query-out-of-range": ["concat", "--n", "5", "--query", "5"],
    "concat-negative-permute-seed": ["concat", "--n", "5", "--permute-seed", "-1"],
    "concat-n-above-bound": ["concat", "--n", str(cli.CONCAT_MAX_N + 1)],
    # every query of a full-block span holds one block of parity scratch
    "concat-query-scratch-above-budget": [
        "concat", "--n", str(cli.QUERY_SCRATCH_BUDGET // mzi.BLOCK + 1), "--engine", "born",
        "--seed", "1", "--workers", "1",
    ],
    "quantum-bases-n4-optimize": ["quantum", "--bases", "{bases_n4}", "--optimize", "--seed", "1"],
    "mzi-settings-theta-doubles-to-inf": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{theta_huge}"],
    "mzi-settings-label-inf": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_inf}"],
    "mzi-settings-label-nan": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_nan}"],
    "mzi-settings-label-huge": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_huge}"],
    "mzi-settings-huge-integer": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{settings_huge_integer}"],
    "quantum-bases-huge-integer": ["quantum", "--bases", "{bases_huge_integer}"],
    "mzi-settings-label-fraction": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_fraction}"],
    "mzi-settings-label-bool": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_bool}"],
    "mzi-settings-label-string": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_string}"],
    "mzi-settings-label-i-only": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_i_only}"],
    "mzi-settings-label-j-only": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_j_only}"],
    "quantum-bases-one-bit": ["quantum", "--bases", "{bases_n1}"],
    "quantum-negative-seed": ["quantum", "--optimize", "--seed", "-1"],
    "quantum-optimize-without-seed": ["quantum", "--optimize", "--bases", "{missing}"],
    "concat-born-without-seed": ["concat", "--n", "4", "--engine", "born", "--input", "01x1"],
    "quantum-zero-starts": ["quantum", "--optimize", "--seed", "1", "--starts", "0"],
    "quantum-zero-iterations": ["quantum", "--optimize", "--seed", "1", "--iterations", "0"],
    "quantum-missing-bases": ["quantum", "--bases", "{missing}"],
    "quantum-bases-not-object": ["quantum", "--bases", "{array}"],
    "quantum-bases-utf16": ["quantum", "--bases", "{utf16}"],
    "mzi-settings-utf16": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{utf16}"],
    "report-zero-shots": ["report", "--all", "--seed", "1", "--shots", "0"],
    "report-zero-concat-shots": ["report", "--all", "--seed", "1", "--concat-shots", "0"],
    "report-negative-seed": ["report", "--all", "--seed", "-1"],
    "bounds-n-max-one": ["bounds", "--n-max", "1"],
    "mzi-events-unwritable": ["mzi", "--shots", "10", "--seed", "1", "--events", "{unwritable}"],
    "classical-n-40": ["classical", "--n", "40"],
    "classical-n-huge": ["classical", "--n", str(10**30)],
    "classical-formula-n-above-bound": ["classical", "--n", str(cli.BITS_MAX + 1), "--mode", "formula"],
    "classical-formula-dump-strategies": ["classical", "--n", "2", "--mode", "formula", "--dump-strategies"],
    "mzi-shots-above-bound": ["mzi", "--shots", str(cli.SHOTS_MAX + 1), "--seed", "1"],
    "mzi-shots-huge": ["mzi", "--shots", str(10**30), "--seed", "1"],
    "mzi-workers-huge": ["mzi", "--shots", "8", "--seed", "1", "--workers", str(10**30)],
    "concat-workers-above-bound": [
        "concat", "--n", "4", "--engine", "born", "--shots", "8", "--seed", "1",
        "--workers", str(cli.WORKERS_MAX + 1),
    ],
    "mzi-settings-over-budget": [
        "mzi", "--shots", str(cli.SHOTS_MAX), "--seed", "1", "--settings", "{nine_settings}",
    ],
    "report-csv-unwritable": [
        "report", "--all", "--seed", "1", "--shots", "1000", "--concat-shots", "1000",
        "--csv", "{unwritable}",
    ],
    "mzi-settings-line-array": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{array}"],
    "mzi-settings-line-number": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{number}"],
    "quantum-bases-bob-number": ["quantum", "--bases", "{bob_number}"],
    "mzi-settings-axis-string": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{axis_string}"],
    "mzi-settings-theta-list": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{theta_list}"],
    "quantum-bases-bob-row-string": ["quantum", "--bases", "{bob_row_string}"],
    "quantum-bases-alice-string": ["quantum", "--bases", "{alice_string}"],
    "quantum-bases-alice-rows": ["quantum", "--bases", "{alice_rows}"],
    "quantum-bases-bob-shape": ["quantum", "--bases", "{bob_shape}"],
    "quantum-bases-alice-not-unit": ["quantum", "--bases", "{alice_not_unit}"],
    "quantum-bases-first-bad-row": ["quantum", "--bases", "{first_bad_row}"],
    "quantum-bases-nan-row": ["quantum", "--bases", "{nan_row}"],
    "quantum-bases-nested": ["quantum", "--bases", "{nested}"],
    "mzi-settings-nested": ["mzi", "--shots", "4", "--seed", "1", "--settings", "{nested}"],
    # /dev/full opens, and every write to it fails with ENOSPC
    "mzi-events-full-device": ["mzi", "--shots", "10", "--seed", "1", "--events", "{full}"],
    "report-csv-full-device": [
        "report", "--all", "--seed", "1", "--shots", "1000", "--concat-shots", "1000", "--csv", "{full}",
    ],
}
# the whole stderr of a BAD_ARGV entry whose file has the wrong JSON shape, type or values
BAD_ARGV_MESSAGES = {
    "quantum-bases-not-object": "error: {array}: a bases file must be a JSON object",
    "quantum-bases-bob-number": 'error: {bob_number}: "bob" must be a list of directions',
    "mzi-settings-line-array": "error: {array}:1: a settings line must be a JSON object",
    "mzi-settings-line-number": "error: {number}:1: a settings line must be a JSON object",
    "mzi-settings-axis-string": 'error: {axis_string}:1: "spin_axis" must be a list of numbers',
    "mzi-settings-theta-list": 'error: {theta_list}:1: "theta" must be a number',
    "quantum-bases-bob-row-string": 'error: {bob_row_string}: "bob" must be a list of directions',
    "quantum-bases-alice-string": 'error: {alice_string}: "alice" must be a list of directions',
    "quantum-bases-alice-rows": "error: {alice_rows}: alice directions must be (2, 3) for n=2, got (3, 3)",
    "quantum-bases-bob-shape": "error: {bob_shape}: bob directions must be (n, 3), got (2, 4)",
    "quantum-bases-alice-not-unit": "error: {alice_not_unit}: direction must have unit norm, got 2.0",
    # Alice's rows are read before Bob's: her 2.0 row is named, not Bob's 3.0 row
    "quantum-bases-first-bad-row": "error: {first_bad_row}: direction must have unit norm, got 2.0",
    "quantum-bases-nan-row": "error: {nan_row}: direction must have unit norm, got nan",
    # past Python's int-to-str digit limit json.loads raises a plain ValueError
    "mzi-settings-huge-integer": "error: {settings_huge_integer}:1: invalid JSON: integer literal too long",
    "quantum-bases-huge-integer": "error: {bases_huge_integer}: invalid JSON: integer literal too long",
    # json.loads recurses once per nesting level and raises RecursionError
    "quantum-bases-nested": "error: {nested}: invalid JSON: nested too deeply",
    "mzi-settings-nested": "error: {nested}:1: invalid JSON: nested too deeply",
    "mzi-settings-label-nan": f'error: {{label_nan}}:1: "i" must be an integer of magnitude at most {cli.LABEL_MAX}',
    "mzi-settings-label-inf": f'error: {{label_inf}}:1: "i" must be an integer of magnitude at most {cli.LABEL_MAX}',
    "mzi-settings-label-huge": f'error: {{label_huge}}:1: "i" must be an integer of magnitude at most {cli.LABEL_MAX}',
    # a file that cannot be opened, or written once open, is named by the OS error
    "quantum-missing-bases": "error: [Errno 2] No such file or directory: '{missing}'",
    "mzi-events-unwritable": "error: [Errno 2] No such file or directory: '{unwritable}'",
    "report-csv-unwritable": "error: [Errno 2] No such file or directory: '{unwritable}'",
    "mzi-events-full-device": "error: [Errno 28] No space left on device",
    # every sampled stage draws from the steered path-spin table, under the name born
    "concat-engine-mzi": (
        "racsim concat: error: argument --engine: invalid choice: 'mzi' (choose from 'analytic', 'born')"
    ),
    "report-csv-full-device": "error: [Errno 28] No space left on device",
    # formula mode has no strategies to dump
    "classical-formula-dump-strategies": "error: --dump-strategies needs --mode enumerate",
    # each command checks its own seed rule first, before reading any other input
    "quantum-optimize-without-seed": "error: --seed is required with --optimize",
    "concat-born-without-seed": "error: --seed is required for sampling engines",
}


@pytest.mark.parametrize("case, argv", BAD_ARGV.items(), ids=BAD_ARGV.keys())
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, case, argv):
    if "{full}" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    settings_path = tmp_path / "settings.jsonl"
    settings_path.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n')
    array_path = tmp_path / "array.json"
    array_path.write_text("[1, 2]\n")
    number_path = tmp_path / "number.jsonl"
    number_path.write_text("7\n")
    bob_number = tmp_path / "bob_number.json"
    bob_number.write_text('{"bob": 3}\n')
    theta_nan = tmp_path / "theta_nan.jsonl"
    theta_nan.write_text('{"theta": NaN, "phi": 0.4, "spin_axis": [1, 0, 0]}\n')
    axis_nan = tmp_path / "axis_nan.jsonl"
    axis_nan.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [NaN, 0, 0]}\n')
    theta_huge = tmp_path / "theta_huge.jsonl"
    theta_huge.write_text('{"theta": 1e308, "phi": 0.4, "spin_axis": [1, 0, 0]}\n')
    label_inf = tmp_path / "label_inf.jsonl"
    label_inf.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0], "i": 1e400, "j": 1}\n')
    labels = {}
    label_values = (
        ("label_fraction", "1.7"), ("label_bool", "true"), ("label_string", '"2"'),
        ("label_nan", "NaN"), ("label_huge", "9" * 300),
    )
    for name, value in label_values:
        labels[name] = tmp_path / f"{name}.jsonl"
        labels[name].write_text(f'{{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0], "i": {value}, "j": 1}}\n')
    for name, half in (("label_i_only", '"i": 7'), ("label_j_only", '"j": 2')):
        labels[name] = tmp_path / f"{name}.jsonl"
        labels[name].write_text(f'{{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0], {half}}}\n')
    bases_n1 = tmp_path / "bases_n1.json"
    bases_n1.write_text(json.dumps({"alice": [[0, 0, 1]], "bob": [[0, 0, 1]]}))
    bases_n4 = tmp_path / "bases_n4.json"
    bases_n4.write_text(json.dumps({"alice": [[0, 0, 1]] * 8, "bob": [[0, 0, 1]] * 4}))
    nine_settings = tmp_path / "nine_settings.jsonl"
    nine_settings.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n' * 9)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes('{"theta": 0.3}\n'.encode("utf-16"))  # starts with the BOM ff fe
    typed = {
        "axis_string": '{"theta": 0.3, "phi": 0.4, "spin_axis": "abc"}',
        "theta_list": '{"theta": [1], "phi": 0.4, "spin_axis": [1, 0, 0]}',
        "bob_row_string": json.dumps({"alice": [[0, 0, 1]] * 2, "bob": [[0, 0, 1], "ab"]}),
        "alice_string": json.dumps({"alice": "x", "bob": [[0, 0, 1]] * 2}),
        "alice_rows": json.dumps({"alice": [[0, 0, 1]] * 3, "bob": [[0, 0, 1]] * 2}),
        "bob_shape": json.dumps({"alice": [[0, 0, 1]] * 2, "bob": [[0, 0, 1, 0]] * 2}),
        "alice_not_unit": json.dumps({"alice": [[0, 0, 2], [0, 0, 1]], "bob": [[0, 0, 1]] * 2}),
        "first_bad_row": json.dumps(
            {"alice": [[0, 0, 1], [0, 0, 1], [0, 0, 2], [0, 0, 1]], "bob": [[0, 0, 1], [0, 0, 3], [0, 0, 1]]}
        ),
        "settings_huge_integer": '{"theta": 1' + "0" * 5000 + ', "phi": 0.4, "spin_axis": [1, 0, 0]}',
        "bases_huge_integer": '{"alice": [[0, 0, 1' + "0" * 5000 + ']], "bob": [[0, 0, 1], [1, 0, 0]]}',
        "nested": "[" * 100_000,
        "nan_row": json.dumps(
            {"alice": [[0, 0, 1], [0, 0, 1], [0, 0, math.nan], [0, 0, 1]], "bob": [[0, 0, 1], [0, 0, 3], [0, 0, 1]]}
        ),
    }
    for name, text in typed.items():
        typed[name] = tmp_path / f"{name}.json"
        typed[name].write_text(text + "\n")
    paths = {
        "settings": settings_path, "array": array_path, "missing": tmp_path / "missing.json",
        "number": number_path, "bob_number": bob_number,
        "theta_nan": theta_nan, "axis_nan": axis_nan, "utf16": utf16, "theta_huge": theta_huge,
        "label_inf": label_inf, "bases_n1": bases_n1, "bases_n4": bases_n4,
        "nine_settings": nine_settings, "unwritable": tmp_path / "no-such-dir" / "out", "full": "/dev/full",
        **labels, **typed,
    }
    with pytest.raises(SystemExit) as excinfo:
        cli.main([arg.format(**paths) for arg in argv])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "error:" in captured.err
    assert "Traceback" not in captured.err
    if case in BAD_ARGV_MESSAGES:
        assert captured.err == BAD_ARGV_MESSAGES[case].format(**paths) + "\n"


class Raw(str):
    """A JSON token written as is: ``1e400`` reads as inf, which ``json.dumps`` cannot write."""


def render(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(render(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)  # NaN and Infinity come out as those tokens


numbers = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.integers(-(10**400), 10**400),
    st.sampled_from([0, 1, -1, 0.6, 0.8, 1e308, -1e308, 5e-324]),
    st.sampled_from([Raw("1e400"), Raw("-1e400"), Raw("NaN"), Raw("Infinity")]),
)
scalars = st.one_of(numbers, st.none(), st.booleans(), st.text(max_size=4))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
# well-shaped direction lists with generated entries, or anything at all
wild = values | st.lists(st.lists(numbers, min_size=3, max_size=3), min_size=1, max_size=8)
UNIT_ROWS = ([1, 0, 0], [0, 0, 1], [0, 0.6, 0.8], [0, 0, -1])
angles = st.floats(-4, 4)


def unit_rows(count):
    return st.lists(st.sampled_from(UNIT_ROWS), min_size=count, max_size=count)


setting_record = st.fixed_dictionaries(
    {"theta": angles, "phi": angles, "spin_axis": st.sampled_from(UNIT_ROWS)}
)


@st.composite
def bases_record(draw):
    n = draw(st.integers(1, 4))
    return {"alice": draw(unit_rows(1 << (n - 1))), "bob": draw(unit_rows(n))}


@st.composite
def corrupted(draw, record):
    """A well-formed record with some fields (none, often) replaced or added."""
    good = draw(record)
    for key in draw(st.sets(st.sampled_from(sorted(good) + ["i", "j"]))):
        good[key] = draw(wild)
    return good


@st.composite
def input_files(draw, record, max_lines):
    """File bytes: generated records, one a line, perhaps with bytes spliced in (non-UTF-8 too)."""
    lines = draw(st.lists(corrupted(record) | values, min_size=1, max_size=max_lines))
    data = "\n".join(render(line) for line in lines).encode()
    junk = draw(st.just(b"") | st.binary(min_size=1, max_size=4))
    at = draw(st.integers(0, len(data)))
    return data[:at] + junk + data[at:]


def run_argv(argv):
    """Run ``cli.main`` in-process with its output captured: exit code and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue().splitlines()


def run_generated(argv_of, data: bytes):
    """Run ``cli.main`` on a file holding ``data``: exit code and stderr lines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        return run_argv(argv_of(str(path), str(Path(tmp) / "events.jsonl")))


def assert_clean_exit(code, err_lines):
    """Exit 0 or 1 (a failed check), or 2 with one ``error:`` line; never an exception."""
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err_lines) == 1 and "error:" in err_lines[0]


@settings(max_examples=150, deadline=None)
@given(data=input_files(setting_record, 3), shots=st.integers(1, 8), events=st.booleans())
def test_generated_settings_files_exit_cleanly(data, shots, events):
    def argv(path, events_path):
        extra = ["--events", events_path] if events else []
        return ["mzi", "--shots", str(shots), "--seed", "1", "--settings", path, *extra]

    assert_clean_exit(*run_generated(argv, data))


@settings(max_examples=150, deadline=None)
@given(data=input_files(bases_record(), 1), optimize=st.booleans())
def test_generated_bases_files_exit_cleanly(data, optimize):
    def argv(path, _):
        extra = ["--optimize", "--seed", "1", "--starts", "2", "--iterations", "5"] if optimize else []
        return ["quantum", "--bases", path, *extra]

    assert_clean_exit(*run_generated(argv, data))


MALFORMED = ["-1", "0", "-7", "nan", "inf", "-inf", "1e308", "", "all", "0.5"]


def flag_values(valid, bound=None):
    """(valid, bad) value strategies; an integer flag's bad values include integers far past ``bound``."""
    bad = st.sampled_from(MALFORMED)
    if bound is not None:
        bad |= st.integers(bound + 1, 10**40).map(str)
    return st.sampled_from(valid), bad


def command_flags(paths) -> dict:
    """Each subcommand's flags, as (valid, bad) value strategies or None for a switch, and its required flags.

    Valid values stay small so that no case starts long work.
    """
    seeds = flag_values(["0", "1", "7"], 2**64 - 1)
    workers = flag_values(["1", "2", "3"], cli.WORKERS_MAX)
    shots = flag_values(["1", "8", "100"], cli.SHOTS_MAX)
    reals = flag_values(["0", "0.5", "1", "3.14", "1e-300"])
    bad_paths = [paths["directory"], paths["missing"], paths["unwritable"]]
    settings_file = st.just(paths["settings"]), st.sampled_from(bad_paths + [paths["malformed"], paths["bases"]])
    bases_file = st.just(paths["bases"]), st.sampled_from(bad_paths + [paths["malformed"], paths["settings"]])
    output = st.just(paths["out"]), st.sampled_from(bad_paths)
    return {
        "classical": (
            {
                # n = 4 would enumerate 16.7 M strategies; 5 and 30 are refused at once
                "--n": flag_values(["2", "3", "5", "30"], cli.BITS_MAX),
                "--mode": flag_values(["enumerate", "formula"]),
                "--dump-strategies": None,
            },
            ["--n"],
        ),
        "bounds": ({"--n-max": flag_values(["2", "10", "30"], cli.BITS_MAX)}, []),
        "quantum": (
            {
                "--n": flag_values(["2", "3", "4"], cli.BITS_MAX),
                "--bases": bases_file,
                "--optimize": None,
                "--starts": flag_values(["1", "3"], cli.STARTS_MAX),
                "--iterations": flag_values(["1", "20"], cli.ITERATIONS_MAX),
                "--seed": seeds,
            },
            ["--optimize", "--seed"],
        ),
        "mzi": (
            {
                "--shots": shots,
                "--seed": seeds,
                "--settings": settings_file,
                "--events": output,
                "--a": reals,
                "--delta": reals,
                "--workers": workers,
            },
            ["--shots", "--seed"],
        ),
        "concat": (
            {
                "--n": flag_values(["2", "4", "5", "50"], cli.CONCAT_MAX_N),
                "--engine": (st.sampled_from(["analytic", "born"]), st.sampled_from(MALFORMED + ["mzi"])),
                "--shots": shots,
                "--seed": seeds,
                "--query": flag_values(["0", "3", "49", "50", "all"], 10**3),
                "--input": flag_values(["01", "0101", "01x1", "1" * 50]),
                "--permute-seed": seeds,
                "--workers": workers,
            },
            ["--n", "--engine", "--seed"],
        ),
        "report": (
            {
                "--all": None,
                "--seed": seeds,
                "--shots": shots,
                "--concat-shots": shots,
                "--csv": output,
                "--workers": workers,
            },
            ["--all", "--seed"],
        ),
    }


@st.composite
def command_argv(draw, flags, required):
    """Mostly valid argv: now and then a bad value, a missing value or required flag, an unknown flag."""
    chosen = set(draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)))
    if draw(st.integers(0, 9)):
        chosen |= set(required)
    argv = []
    for flag in draw(st.permutations(sorted(chosen))):
        argv.append(flag)
        if flags[flag] is not None:
            valid, bad = flags[flag]
            pick = draw(st.sampled_from(range(20)))
            if pick:  # 0: the value is missing
                argv.append(draw(bad if pick == 1 else valid))
    if draw(st.integers(0, 9)) == 0:
        unknown = draw(st.sampled_from(["--bogus", "--shots-per-setting", "-x", "extra", "--n=2=3"]))
        argv.insert(draw(st.integers(0, len(argv))), unknown)
    return argv


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory) -> dict:
    """Input and output paths: good, missing, a directory, malformed or unwritable."""
    root = tmp_path_factory.mktemp("argv")
    (root / "settings.jsonl").write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n')
    (root / "bases.json").write_text(json.dumps({"alice": [[0, 0, 1], [1, 0, 0]], "bob": [[0, 0, 1], [0, 1, 0]]}))
    (root / "malformed.json").write_text('{"alice": [[0, 0, 1]], "theta": [\n')
    names = {
        "settings": "settings.jsonl", "bases": "bases.json", "malformed": "malformed.json",
        "missing": "missing.json", "out": "out.txt", "unwritable": "no-such-dir/out",
    }
    return {"directory": str(root), **{key: str(root / name) for key, name in names.items()}}


@pytest.mark.parametrize("command", ["classical", "bounds", "quantum", "mzi", "concat", "report"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_argv_exits_cleanly(argv_paths, command, data):
    flags, required = command_flags(argv_paths)[command]
    argv = [command] + data.draw(command_argv(flags, required), label="flags")
    assert_clean_exit(*run_argv(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["mzi", "--shots", "10", "--seed", "1", "--events", "{unwritable}"],
        ["mzi", "--shots", "10", "--seed", "1", "--settings", "{settings}", "--events", "{unwritable}"],
        ["report", "--all", "--seed", "1", "--csv", "{unwritable}"],
    ],
    ids=["mzi-events", "mzi-settings-events", "report-csv"],
)
def test_unwritable_output_fails_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the output path was checked")

    monkeypatch.setattr(cli.mzi, "sample_events", no_work)
    monkeypatch.setattr(cli, "report_rows", no_work)
    settings_path = tmp_path / "settings.jsonl"
    settings_path.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n')
    paths = {"settings": settings_path, "unwritable": tmp_path / "no-such-dir" / "out"}
    with pytest.raises(SystemExit) as excinfo:
        cli.main([arg.format(**paths) for arg in argv])
    assert excinfo.value.code == 2
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, owner, stage",
    [
        (["mzi", "--shots", "10", "--seed", "1", "--events", "{out}"], cli.mzi, "sample_events"),
        (["report", "--all", "--seed", "1", "--csv", "{out}"], cli, "report_rows"),
    ],
    ids=["mzi-events", "report-csv"],
)
def test_failure_after_the_output_check_keeps_the_old_file(capsys, monkeypatch, tmp_path, argv, owner, stage):
    # the check opens the output without truncating it, so the old bytes survive a failed run
    def fail(*args, **kwargs):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(owner, stage, fail)
    out, old = tmp_path / "out", b'{"setting": 0, "shot": 0, "path": 1, "spin": 0}\n' * 1000
    out.write_bytes(old)
    with pytest.raises(SystemExit) as excinfo:
        cli.main([arg.format(out=out) for arg in argv])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"
    assert out.read_bytes() == old


class FailAfter:
    """A file object whose writes fail with ENOSPC once ``chunks`` of them went through."""

    def __init__(self, handle, chunks):
        self.handle, self.left, self.written = handle, chunks, []

    def write(self, data):
        if not self.left:
            raise OSError(28, "No space left on device")
        self.left -= 1
        self.written.append(bytes(data))
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()
        return False


@pytest.mark.parametrize("chunks", [0, 1, 5, 15])
def test_events_write_failing_midway_leaves_the_new_prefix(capsys, monkeypatch, tmp_path, chunks):
    # 4 settings x 2000 shots: 16 chunks (one per decade of shot numbers per setting)
    argv = ["mzi", "--shots", "2000", "--seed", "3", "--events"]
    reference = tmp_path / "reference.jsonl"
    assert cli.main(argv + [str(reference)]) == 0
    capsys.readouterr()
    out = tmp_path / "events.jsonl"
    out.write_bytes(b"stale\n" * (2 * reference.stat().st_size))
    opened = []
    fdopen = os.fdopen

    def failing_fdopen(*args, **kwargs):
        opened.append(FailAfter(fdopen(*args, **kwargs), chunks))
        return opened[-1]

    monkeypatch.setattr(cli.os, "fdopen", failing_fdopen)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + [str(out)])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    [handle] = opened
    assert len(handle.written) == chunks
    written = out.read_bytes()
    assert written == b"".join(handle.written)
    assert reference.read_bytes().startswith(written)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ["mzi", "--shots", "10", "--seed", "1", "--events", os.devnull],
        ["report", "--all", "--seed", "1", "--shots", "1000", "--concat-shots", "1000", "--csv", os.devnull],
    ],
    ids=["mzi-events", "report-csv"],
)
def test_output_to_dev_null_exits_0(capsys, argv):
    # a character device is written but never cut
    assert cli.main(argv) == 0


def read_fifo_while_running(fifo, argv) -> tuple[bytes, bytes]:
    """A CLI subprocess writing to ``fifo`` while a reader subprocess drains it: (stdout, bytes read).

    Both run under a timeout, so a writer or reader that blocks fails the test instead of hanging it.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    drain = "import sys; sys.stdout.buffer.write(open(sys.argv[1], 'rb').read())"
    with subprocess.Popen([sys.executable, "-c", drain, str(fifo)], stdout=subprocess.PIPE) as reader:
        try:
            writer = subprocess.run(
                [sys.executable, "-m", "racsim.cli", *argv], capture_output=True, env=env, timeout=60,
            )
            received, _ = reader.communicate(timeout=60)
        finally:
            reader.kill()
    assert writer.returncode == 0, writer.stderr
    assert reader.returncode == 0
    return writer.stdout, received


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this system")
def test_events_reach_a_fifo_reader(tmp_path):
    # the output check's descriptor stays open until write_events is done, so the
    # reader sees no end-of-file before the writer's own open
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    _, received = read_fifo_while_running(fifo, ["mzi", "--shots", "10", "--seed", "1", "--events", str(fifo)])
    a = 1.0 / math.sqrt(2.0)  # the command's default state
    state = qcore.entangled_state(a, math.sqrt(max(0.0, 1.0 - a**2)), math.pi)
    settings = mzi.protocol_settings(*qrac.steering_bases())
    reference = tmp_path / "reference.jsonl"
    reference_write_events(mzi.sample_events(state, settings, 10, 1, events=True), str(reference))
    assert received == reference.read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this system")
def test_report_csv_reaches_a_fifo_reader(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    argv = ["report", "--all", "--seed", "1", "--shots", "1000", "--concat-shots", "1000", "--csv", str(fifo)]
    stdout, received = read_fifo_while_running(fifo, argv)
    rows = [json.loads(line) for line in stdout.decode().splitlines()]
    records = list(csv.DictReader(io.StringIO(received.decode())))
    assert rows and [r["quantity"] for r in records] == [r["quantity"] for r in rows]
    assert [json.loads(r["params"]) for r in records] == [r["params"] for r in rows]


def test_closed_stdout_exits_1_without_a_traceback():
    # 5000 analytic rows are far more than a pipe buffer holds, so the CLI is
    # still writing when the reader goes away
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with subprocess.Popen(
        [sys.executable, "-m", "racsim.cli", "concat", "--n", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert json.loads(proc.stdout.readline())["quantity"] == "analytic-per-bit"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_stdout_exits_2_with_one_line():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "racsim.cli", "bounds"], stdout=full, stderr=subprocess.PIPE, env=env,
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == b"error: [Errno 28] No space left on device\n"


class TestExitCodes:
    def test_failing_check_exits_one(self):
        rows = [cli.ReportRow("x", "q", 1.0, expected=2.0, tolerance=0.1)]
        assert rows[0].passed is False
        assert cli.exit_code(rows) == 1

    def test_checked_row_needs_a_numeric_value(self):
        with pytest.raises(ValueError):
            cli.ReportRow("x", "q", "a", expected="a", tolerance=0)

    def test_unchecked_rows_pass(self):
        rows = [cli.ReportRow("x", "q", 1.0)]
        assert cli.exit_code(rows) == 0
