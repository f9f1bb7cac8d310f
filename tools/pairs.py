"""Alternating benchmark pairs of two commits: medians, quartiles and wins per metric.

    python tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K] [--trace T] [--json F]

PARENT and CHANGE are any git tree-ish of this repository (a commit, a tag, or
the tree id ``git write-tree`` prints for what is staged). Each is unpacked
with ``git archive`` into a directory of its own; one that lacks a
``BENCHMARK.json`` gets a copy of the working tree's. Pair i runs
``perfbench/run.py`` once in each copy, unchanged, with identical arguments:
the parent first in even pairs, the change first in odd ones.

For every metric the summary gives each side's median and quartiles
(numpy's linear percentiles), the interquartile range over the median, the
change in median, and the pairs each side won; a tie counts for neither. The
better direction and the regression bound come from the change's
``BENCHMARK.json``. ``gain`` marks a metric where, over at least ten pairs,
the change won at least nine tenths of them and its median beats the
parent's by more than the parent's interquartile range. ``worse`` marks one whose median is worse than
the parent's by more than its bound. The same summary, every run's result
line and the digests of both sides go to the JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), numpy's linear percentiles."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(median), float(q3)


def summarize(parent: list[float], change: list[float], better: str, bound: float | None = None) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` ran as pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    relative = (cm - pm) / pm if pm else math.nan
    return {
        "better": better,
        "pairs": len(parent),
        "parent": {"median": pm, "q1": p1, "q3": p3, "iqr_over_median": (p3 - p1) / pm if pm else math.nan},
        "change": {"median": cm, "q1": c1, "q3": c3, "iqr_over_median": (c3 - c1) / cm if cm else math.nan},
        "median_change": relative,
        "wins": {"change": change_wins, "parent": parent_wins, "ties": len(parent) - change_wins - parent_wins},
        "gain": len(parent) >= 10 and change_wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1,
        "worse": bound is not None and bool(-sign * relative > bound),
    }


def unpack(treeish: str, into: Path) -> str:
    """``git archive`` of ``treeish`` extracted into ``into``, with a BENCHMARK.json; its full id."""
    full = subprocess.run(
        ["git", "rev-parse", "--verify", treeish], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", treeish], cwd=REPO, check=True, capture_output=True)
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    if not (into / "BENCHMARK.json").exists():
        (into / "BENCHMARK.json").write_bytes((REPO / "BENCHMARK.json").read_bytes())
    return full


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``root``: its details line and its result line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, env=env, check=True, capture_output=True, text=True)
    details, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def metric_specs(root: Path, trace: int) -> dict[str, dict]:
    with open(root / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def render(summary: dict[str, dict]) -> str:
    head = f"{'metric':<40} {'parent':>12} {'iqr/med':>8} {'change':>12} {'iqr/med':>8} {'median':>8}  wins c/p/t"
    lines = [head]
    for name, s in summary.items():
        flags = " gain" if s["gain"] else ""
        flags += " WORSE" if s["worse"] else ""
        wins = s["wins"]
        lines.append(
            f"{name:<40} {s['parent']['median']:>12.6g} {s['parent']['iqr_over_median']:>8.1%}"
            f" {s['change']['median']:>12.6g} {s['change']['iqr_over_median']:>8.1%} {s['median_change']:>+8.1%}"
            f"  {wins['change']}/{wins['parent']}/{wins['ties']}{flags}"
        )
    return "\n".join(lines)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="output file (default PAIRS_<parent>_<change>_<workload>_seed<K>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs and --seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        ids = {side: unpack(getattr(args, side), root) for side, root in roots.items()}
        specs = metric_specs(roots["change"], args.trace)
        runs: dict[str, list] = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                details, result = run_once(roots[side], args.workload, args.seed, args.seconds, args.trace)
                runs[side].append({"digest": details["digest"], "failed_checks": details["failed_checks"], **result})
                print(f"pair {i}: {side} correct={result['correct']}", file=sys.stderr)
    summary = {
        name: summarize(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            spec["better"],
            spec.get("bound"),
        )
        for name, spec in specs.items()
    }
    digests = {side: sorted({str(r["digest"]) for r in side_runs}) for side, side_runs in runs.items()}
    correct = all(r["correct"] for side_runs in runs.values() for r in side_runs)
    print(render(summary))
    print(f"correct: {correct}; digests: parent {digests['parent']}, change {digests['change']}")
    record = {
        "parent": ids["parent"],
        "change": ids["change"],
        "command": f"PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --seconds {args.seconds:g} --trace {args.trace}",
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "correct": correct,
        "digests": digests,
        "summary": summary,
        "runs": runs,
    }
    out = args.json or f"PAIRS_{ids['parent'][:7]}_{ids['change'][:7]}_{args.workload}_seed{args.seed}.json"
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
