"""End-to-end tests for the command-line interface."""

import contextlib
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

from racsim import cli, mzi


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

    def test_optimize_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["quantum", "--n", "2", "--optimize"])
        assert excinfo.value.code == 2

    def test_optimize_reaches_cap(self, capsys):
        code, rows = run(capsys, ["quantum", "--n", "2", "--optimize", "--starts", "20", "--seed", "3"])
        assert code == 0
        row = by_quantity(rows, "seesaw-max")[0]
        assert row["pass"] is True


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
    monkeypatch.setattr(cli.concat, "analytic_per_bit", no_tree)
    monkeypatch.setattr(cli.concat.ConcatTree, "depth_profile", no_tree)
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
    "mzi-settings-label-fraction": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_fraction}"],
    "mzi-settings-label-bool": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_bool}"],
    "mzi-settings-label-string": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_string}"],
    "mzi-settings-label-i-only": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_i_only}"],
    "mzi-settings-label-j-only": ["mzi", "--shots", "8", "--seed", "1", "--settings", "{label_j_only}"],
    "quantum-bases-one-bit": ["quantum", "--bases", "{bases_n1}"],
    "quantum-negative-seed": ["quantum", "--optimize", "--seed", "-1"],
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
}


@pytest.mark.parametrize("argv", BAD_ARGV.values(), ids=BAD_ARGV.keys())
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv):
    settings_path = tmp_path / "settings.jsonl"
    settings_path.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0]}\n')
    array_path = tmp_path / "array.json"
    array_path.write_text("[1, 2]\n")
    theta_nan = tmp_path / "theta_nan.jsonl"
    theta_nan.write_text('{"theta": NaN, "phi": 0.4, "spin_axis": [1, 0, 0]}\n')
    axis_nan = tmp_path / "axis_nan.jsonl"
    axis_nan.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [NaN, 0, 0]}\n')
    theta_huge = tmp_path / "theta_huge.jsonl"
    theta_huge.write_text('{"theta": 1e308, "phi": 0.4, "spin_axis": [1, 0, 0]}\n')
    label_inf = tmp_path / "label_inf.jsonl"
    label_inf.write_text('{"theta": 0.3, "phi": 0.4, "spin_axis": [1, 0, 0], "i": 1e400, "j": 1}\n')
    labels = {}
    for name, value in (("label_fraction", "1.7"), ("label_bool", "true"), ("label_string", '"2"')):
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
    paths = {
        "settings": settings_path, "array": array_path, "missing": tmp_path / "missing.json",
        "theta_nan": theta_nan, "axis_nan": axis_nan, "utf16": utf16, "theta_huge": theta_huge,
        "label_inf": label_inf, "bases_n1": bases_n1, "bases_n4": bases_n4,
        "nine_settings": nine_settings, "unwritable": tmp_path / "no-such-dir" / "out", **labels,
    }
    with pytest.raises(SystemExit) as excinfo:
        cli.main([arg.format(**paths) for arg in argv])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "error:" in captured.err
    assert "Traceback" not in captured.err


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
                "--engine": flag_values(["analytic", "born", "mzi"]),
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


def test_closed_stdout_exits_1_without_a_traceback():
    # 5000 analytic rows are far more than a pipe buffer holds, so the CLI is
    # still writing when the reader goes away
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "racsim.cli", "concat", "--n", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert json.loads(proc.stdout.readline())["quantity"] == "analytic-per-bit"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


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
