"""racsim benchmark: drives the real CLI in-process and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy. One process runs one workload, so the
peak RSS it reports belongs to that workload alone. Calls that use threads get
an explicit ``--workers`` of two, or ``nproc`` if that is less; the
``RACSIM_WORKERS`` variable is removed so it cannot override the default.

``--trace 0`` repeats passes for S seconds and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes for S seconds and prints
per-layer metrics from the spans (see ``spans.py``) plus the tracing overhead.
Every pass is checked; the last stdout line is the JSON result, the line before
it the run's details (provenance, pass times, digest, failed checks). Spans of
a traced run go to ``.perfbench_work/spans-<workload>.npz`` at the checkout
root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import spans as spanlib
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 25
FIRST_SETUPS = 5
SETUPS_PER_PASS = 3
MAX_WORKERS = 2

# Spans reported per layer, each as calls per pass and self seconds per pass.
SPANS = (
    "qcore.projector",
    "qcore.prepared_state",
    "qcore.require_unit",
    "qcore.joint_probability",
    "qrac.identity_check",
    "qrac.quantum_success",
    "qrac.bell_from_preps",
    "qrac.correlator_qm",
    "qrac.maximize_bell",
    "qrac.random_direction",
    "classical.enumeration_summary",
    "classical.brute_success",
    "bell.deterministic_max",
    "mzi.sample_setting",
    "mzi.counts_from_outcomes",
    "mzi.born_probabilities",
    "mzi.sample_events",
    "mzi.stream",
    "cli.write_events",
    "cli.load_settings",
    "cli.emit",
    "concat.simulate",
    "concat.build_padded",
)


OBSERVERS = {
    "mzi.sample_setting": lambda a, r: {"sample_setting.shots": a["shots"]},
    "mzi.sample_events": lambda a, r: {"outcome_bytes": sum(p.nbytes + s.nbytes for p, s in r.outcomes)},
    "cli.write_events": lambda a, r: {
        "events": sum(len(p) for p, _ in a["result"].outcomes),
        "event_bytes": os.path.getsize(a["path"]),
    },
    "concat.simulate": lambda a, r: {"simulate.shots": r.shots},
    "concat.build_padded": lambda a, r: {"internal_nodes": len(r.tree.internal_postorder())},
    "qrac.maximize_bell": lambda a, r: {"seesaw.useful": a["starts"] * ((1 << (a["n"] - 1)) + a["n"])},
    "classical.enumeration_summary": lambda a, r: {"strategies": r.count},
}

# Every span a metric reads: a traced pass fails its checks if one is not wrapped.
TRACED = set(SPANS) | set(OBSERVERS)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------


def _is_racsim(module_name: str) -> bool:
    return module_name == "racsim" or module_name.startswith("racsim.")


def load_racsim():
    """Import racsim afresh from the checkout's ``src/``; its attributes are the layer modules."""
    for name in [name for name in sys.modules if _is_racsim(name)]:
        del sys.modules[name]
    package = importlib.import_module("racsim")
    if Path(package.__file__).resolve().parent != (SRC / "racsim").resolve():
        raise RuntimeError(f"racsim imported from {package.__file__}, not from {SRC}")
    importlib.import_module("racsim.cli")
    return package


def layer_modules(racsim) -> dict:
    return {layer: getattr(racsim, layer) for layer in spanlib.LAYERS} | {"racsim": racsim}


def run_call(racsim, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation: exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = racsim.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # a crash is a failed call, reported through its exit-code check
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue()


def run_pass(racsim, plan, tracer=None, pass_id: int = 0):
    """Run one pass's calls; returns wall seconds, CPU seconds and outputs."""
    span = tracer.pass_span(pass_id) if tracer else contextlib.nullcontext()
    gc.collect()  # every pass starts from a collected heap
    cpu0 = time.process_time()
    with span:
        t0 = time.perf_counter_ns()
        outputs = [run_call(racsim, list(call.argv)) for call in plan.calls]
        t1 = time.perf_counter_ns()
    return (t1 - t0) / 1e9, time.process_time() - cpu0, outputs


class SetUps:
    """Timed set-ups: a fresh import of racsim, input generation and warm-up.

    The machine's speed changes in phases lasting seconds, while one set-up takes
    well under 0.1 s. So the set-ups are spread over the run, a few before the
    passes and a few after each pass, and ``setup_s`` is the fastest of them:
    what the set-up itself costs.
    """

    def __init__(self, make_plan, seed: int, workdir: Path, workers: int):
        self.make_plan, self.seed, self.workdir, self.workers = make_plan, seed, workdir, workers
        self.times: list[float] = []
        self.checks: list[workloads.Check] = []

    def once(self):
        """One set-up; returns its racsim package and plan."""
        k = len(self.times)
        t0 = time.perf_counter()
        racsim = load_racsim()
        inputs = self.workdir / f"setup{k}"
        inputs.mkdir()
        plan = self.make_plan(self.seed, inputs, self.workers)
        for i, call in enumerate(plan.warmup):
            rc, _ = run_call(racsim, list(call.argv))
            self.checks.append(workloads.Check(f"setup{k}.warmup{i}.exit-code", rc == 0))
        self.times.append(time.perf_counter() - t0)
        return racsim, plan

    def aside(self, count: int) -> None:
        """Up to ``count`` more set-ups (SETUPS in all); the racsim modules in use stay imported."""
        count = min(count, SETUPS - len(self.times))
        if count <= 0:
            return
        in_use = {name: module for name, module in sys.modules.items() if _is_racsim(name)}
        for _ in range(count):
            self.once()
        for name in [name for name in sys.modules if _is_racsim(name)]:
            del sys.modules[name]
        sys.modules.update(in_use)


class Passes:
    """All passes of a run: untraced and traced timings apart, checks, digests, spans."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.records: list[int] = []
        self.traced_walls: list[float] = []
        self.layers: list[dict] = []
        self.spans: list[np.ndarray] = []
        self.checks: list[workloads.Check] = []
        self.digests: list[str] = []


def measure(racsim, plan, seconds: float, setups: SetUps, tracer=None) -> Passes:
    """Repeat passes within ``seconds``, checking each outside the timing.

    The first pass settles caches, lazy initialisation and the output files'
    pages; it is checked like every pass but not timed. With a tracer, untraced
    and traced passes then alternate, so both see the same machine conditions
    and their difference is the tracing overhead. A further pass starts only if
    a typical pass-plus-check would still end in the window, so a run does not
    overrun by most of a long pass. After each pass, ``setups`` runs a few more
    timed set-ups.
    """
    runs = Passes()
    begin = time.perf_counter()
    rounds: list[float] = []
    minimum = 3 if tracer else 2
    while len(rounds) < minimum or time.perf_counter() - begin + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        pass_id = len(rounds)
        traced = tracer is not None and pass_id > 0 and pass_id % 2 == 0
        if traced:
            tracer.install()
        try:
            wall, cpu, outputs = run_pass(racsim, plan, tracer if traced else None, pass_id)
        finally:
            if traced:
                tracer.uninstall()
        checks, records = workloads.check_pass(plan, outputs, racsim)
        runs.checks += checks
        runs.digests.append(workloads.digest(plan, outputs))
        if traced:
            spans = tracer.take_spans()
            stats, trace_checks = pass_stats(spans, tracer.names, tracer.counters.pop(pass_id, {}))
            runs.traced_walls.append(wall)
            runs.layers.append(stats)
            runs.spans.append(spans)
            runs.checks += trace_checks
        elif pass_id > 0:
            runs.walls.append(wall)
            runs.cpus.append(cpu)
            runs.records.append(records)
        setups.aside(SETUPS_PER_PASS)
        rounds.append(time.perf_counter() - round_start)
    return runs


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def pass_stats(spans: np.ndarray, names: list[str], counters: dict) -> tuple[dict, list]:
    """Per-name calls/self/inclusive seconds of one pass, its counters and span checks."""
    self_ns, overlap_ns = spanlib.self_times(spans)
    dur_ns = spans["end_ns"] - spans["start_ns"]
    idx = spans["name"]
    k = len(names)
    calls = np.bincount(idx, minlength=k)
    self_s = np.bincount(idx, weights=self_ns, minlength=k) / 1e9
    incl_s = np.bincount(idx, weights=dur_ns, minlength=k) / 1e9
    per_name = {name: (int(calls[i]), float(self_s[i]), float(incl_s[i])) for i, name in enumerate(names)}

    # random directions drawn by the seesaw itself (random_bases draws them too)
    parent = spanlib.parent_index(spans)
    index = {name: i for i, name in enumerate(names)}
    seesaw = index.get("qrac.maximize_bell", -1)
    direction = index.get("qrac.random_direction", -1)
    draws = np.flatnonzero((idx == direction) & (parent >= 0))
    drawn = int(np.sum(idx[parent[draws]] == seesaw))

    root = np.flatnonzero(idx == 0)
    wall_s = float(dur_ns[root].sum()) / 1e9
    remainder_s = float(self_ns[root].sum()) / 1e9
    stats = {
        "spans": per_name,
        "counters": dict(counters),
        "seesaw_drawn": drawn,
        "span_count": len(spans) - len(root),
        "wall_s": wall_s,
        "self_sum_s": float(self_ns.sum()) / 1e9,
        "overlap_s": float(overlap_ns.sum()) / 1e9,
        "remainder_s": remainder_s,
    }
    checks = [
        # a renamed layer function would otherwise read as zero calls and zero time
        workloads.Check("trace.span-names", len(index) == len(names) and all(n in index for n in TRACED)),
        workloads.Check("trace.one-pass-span", len(root) == 1),
        workloads.Check("trace.self-nonnegative", bool(np.all(self_ns >= 0))),
        workloads.Check("trace.children-contained", spanlib.contained(spans)),
        # self times minus parallel overlap add up to the pass's wall time; what the
        # layers do not cover is the harness's own share of the pass
        workloads.Check(
            "trace.self-sum",
            abs(stats["self_sum_s"] - stats["overlap_s"] - wall_s) <= 1e-6
            and 0 <= remainder_s <= max(0.02 * wall_s, 0.02),
        ),
    ]
    return stats, checks


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metric values of one traced pass."""
    spans, counters = stats["spans"], stats["counters"]

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        calls, self_s, _ = span(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for layer in spanlib.LAYERS:
        total = sum(v[1] for k, v in spans.items() if k.startswith(layer + "."))
        metrics[f"layer.{layer}.self_s"] = (total, "s")

    calls, _, incl = span("qrac.identity_check")
    metrics["qrac.identity_check.us_per_call"] = (_ratio(incl * 1e6, calls), "us")
    metrics["qrac.seesaw_useful_ratio"] = (_ratio(counters.get("seesaw.useful", 0), stats["seesaw_drawn"]), "ratio")
    metrics["classical.enumeration_summary.strategies_per_s"] = (
        _ratio(counters.get("strategies", 0), span("classical.enumeration_summary")[2]), "1/s"
    )
    metrics["mzi.sample_setting.ns_per_shot"] = (
        _ratio(span("mzi.sample_setting")[2] * 1e9, counters.get("sample_setting.shots", 0)), "ns"
    )
    metrics["mzi.outcome_bytes"] = (counters.get("outcome_bytes", 0), "B")
    metrics["cli.write_events.events_per_s"] = (_ratio(counters.get("events", 0), span("cli.write_events")[2]), "1/s")
    metrics["cli.write_events.bytes"] = (counters.get("event_bytes", 0), "B")
    metrics["concat.simulate.shots_per_s"] = (
        _ratio(counters.get("simulate.shots", 0), span("concat.simulate")[2]), "1/s"
    )
    metrics["concat.internal_nodes"] = (_ratio(counters.get("internal_nodes", 0), span("concat.build_padded")[0]), "count")
    metrics["trace.spans"] = (stats["span_count"], "count")
    metrics["trace.wall_s"] = (stats["wall_s"], "s")
    metrics["trace.remainder_s"] = (stats["remainder_s"], "s")
    metrics["trace.parallel_overlap_s"] = (stats["overlap_s"], "s")
    return metrics


def median_metrics(per_pass: list[dict]) -> dict[str, tuple[float, str]]:
    return {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def steal_seconds() -> float | None:
    """Machine-wide CPU steal time so far, from /proc/stat (read-only)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None  # git would report the commit of an enclosing repository
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(racsim, args, workers: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "racsim": getattr(racsim, "__version__", None),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def declared_metrics(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "racsim" / "__init__.py").is_file():
        print(f"error: no racsim sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    os.environ.pop("RACSIM_WORKERS", None)
    sys.path.insert(0, str(SRC))
    workers = max(1, min(MAX_WORKERS, os.cpu_count() or 1))
    steal0 = steal_seconds()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setups = SetUps(workloads.WORKLOADS[args.workload], args.seed, workdir, workers)
        racsim, plan = setups.once()
        setups.aside(FIRST_SETUPS - 1)
        tracer = spanlib.Tracer(layer_modules(racsim), OBSERVERS) if args.trace else None
        runs = measure(racsim, plan, args.seconds, setups, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(runs.walls)
    if args.trace:
        metrics = median_metrics([layer_metrics(stats) for stats in runs.layers])
        metrics["trace.overhead_s"] = (statistics.median(runs.traced_walls) - wall, "s")
        np.savez_compressed(
            WORK / f"spans-{args.workload}.npz", spans=np.concatenate(runs.spans), names=np.array(tracer.names)
        )
    else:
        metrics = {
            "setup_s": (min(setups.times), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(runs.cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "shots_per_s": (plan.shots / wall, "1/s"),
            "events_per_s": (statistics.median(runs.records) / wall, "1/s"),
        }

    digests = sorted(set(runs.digests))
    checks = setups.checks + runs.checks
    checks.append(workloads.Check("digest.identical-across-passes", len(digests) == 1))
    failed = [c.name for c in checks if not c.ok]
    steal1 = steal_seconds()

    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}", file=sys.stderr)
        return 1

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(racsim, args, workers),
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "passes": {"untraced": len(runs.walls), "traced": len(runs.traced_walls)},
        "wall_s_per_pass": runs.walls,
        "traced_wall_s_per_pass": runs.traced_walls,
        "digest": digests[0] if len(digests) == 1 else digests,
        "fail_ratio": workloads.fail_ratio(checks),
        "failed_checks": failed[:20],
    }
    print(json.dumps(details))
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
