"""Command-line front end: per-module commands plus a consolidated check report."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bell, classical, concat, mzi, qcore, qrac

class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be decoded is a UsageError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: {exc}")


def _numeric_field(record: dict, name: str, depth: int):
    """``record[name]`` as a float (depth 0) or float array ``depth`` lists deep; else a TypeError naming both."""
    value = record[name]
    leaves = [value]
    for _ in range(depth):  # a non-list where a list belongs becomes None, which is no number
        leaves = [v for row in leaves for v in (row if isinstance(row, list) else [None])]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in leaves):
        try:
            return float(value) if depth == 0 else np.asarray(value, dtype=float)
        except ValueError:  # rows of unequal length
            pass
    kind = ("a number", "a list of numbers", "a list of directions")[depth]
    raise TypeError(f'"{name}" must be {kind}')


@dataclass(slots=True)
class ReportRow:
    """One check/result line: computed value, optional reference target and verdict.

    A row with an ``expected`` value and no ``passed`` verdict compares its
    numeric value within ``tolerance``.
    """

    cmd: str
    quantity: str
    value: object
    params: dict = field(default_factory=dict)
    expected: object = None
    tolerance: float | None = None
    reference: str | None = None
    passed: bool | None = None

    def __post_init__(self):
        if self.passed is None and self.expected is not None:
            self.passed = abs(float(self.value) - float(self.expected)) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "cmd": self.cmd,
            "params": self.params,
            "quantity": self.quantity,
            "value": self.value,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "reference": self.reference,
            "pass": self.passed,
        }


def emit(rows: list[ReportRow]) -> None:
    for row in rows:
        sys.stdout.write(json.dumps(row.to_dict()) + "\n")


def _open_output(path: str) -> int:
    """A write descriptor on ``path`` at offset 0, creating the file but not truncating it.

    Truncating on open makes a rerun wait for the filesystem to drop the old
    file's blocks, and a run that fails later would leave the old output empty.
    """
    return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)


@contextlib.contextmanager
def _rewrite(path: str, mode: str = "wb", **kwargs):
    """``path`` as a file written from offset 0; a regular file is cut to the bytes written.

    The cut also runs when a write fails, so the file then holds the new prefix
    and nothing stale after it. Devices and FIFOs (``/dev/null``, ``/dev/full``)
    are never cut.
    """
    with os.fdopen(_open_output(path), mode, **kwargs) as handle:
        try:
            yield handle
        finally:
            try:
                handle.flush()
            finally:
                fd = handle.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _held_output(path: str | None):
    """``path`` opened for writing before any work, to hold until the work is done; no path holds nothing.

    An unwritable path fails before any work, the old file stays as it was until
    its writer rewrites it, and a FIFO's reader sees no end-of-file in between.
    """
    return open(_open_output(path), "wb", buffering=0) if path else contextlib.nullcontext()


def write_csv(rows: list[ReportRow], path: str) -> None:
    """The rows' ``to_dict`` records as CSV, params JSON-encoded in the last column."""
    columns = ["cmd", "quantity", "value", "expected", "tolerance", "reference", "pass", "params"]
    with _rewrite(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, columns)
        writer.writeheader()
        for row in rows:
            record = row.to_dict()
            writer.writerow({**record, "params": json.dumps(record["params"])})


def exit_code(rows: list[ReportRow]) -> int:
    checked = [r.passed for r in rows if r.passed is not None]
    return 0 if all(checked) else 1


def _quantum_optimum(n: int) -> tuple[float, float]:
    """Quantum-optimal (success, expression value) of the n-bit code."""
    cap = bell.quantum_max(n)
    return bell.success_from_bell(n, cap), cap


def _quantum_values(alice: np.ndarray, bob: np.ndarray) -> tuple[float, float, float]:
    """Success, expression value and identity residual of one basis, from one ``qrac.evaluate``."""
    success, correlators, residual = qrac.evaluate(alice[None], bob[None])
    return float(success[0]), bell.bell_value(correlators[0], bell.sign_matrix(len(bob))), float(residual[0])


# A sampled row passes within Z standard errors of its target, each SE that of the
# distribution sampled: a correct sampler misses by 5 SE about once in 1.7 million
# rows (two-sided normal tail).
Z = 5


def _sampling_tolerance(stderr: float, shots: int) -> float:
    """Z standard errors with a floor of one count, 1/shots: an exact outcome distribution has SE 0."""
    return Z * max(stderr, 1.0 / shots)


def _rate_stderr(rate: float, shots: int) -> float:
    """Standard error of a success rate over ``shots`` independent shots."""
    return math.sqrt(rate * (1.0 - rate) / shots)


def _correlator_variances(probs: np.ndarray, shots: int) -> np.ndarray:
    """Each Born row's joint-frequency variance: ``shots`` outcomes of +-1 with mean E give (1 - E^2)/shots."""
    exact = mzi.correlators(probs)
    return np.maximum(0.0, 1.0 - exact * exact) / shots


def _protocol_estimates(result: mzi.SamplingResult, shots: int) -> tuple[float, float, float, float]:
    """Two-bit expression and success estimates of a protocol run, each with its tolerance.

    The four settings draw independent streams, so their correlator variances
    add. Success is the expression mapped by a line of slope 1/(2 algebraic_max(2))
    = 1/8, so its tolerance is the expression's, one-count floor included, times that slope.
    """
    value = mzi.protocol_value(result.counts)
    tol = _sampling_tolerance(math.sqrt(np.sum(_correlator_variances(result.probs, shots))), shots)
    return value, tol, bell.success_from_bell(2, value), tol / (2 * bell.algebraic_max(2))


def _reaches_cap(value: float, cap: float) -> bool:
    """One-sided seesaw rule: at most 1e-6 below the cap, above it only by rounding."""
    return cap - 1e-6 <= value <= cap + 1e-9


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------


def cmd_classical(args) -> list[ReportRow]:
    params = {"n": args.n, "mode": args.mode}
    rows: list[ReportRow] = []
    if args.mode == "formula":
        if args.dump_strategies:
            raise UsageError("--dump-strategies needs --mode enumerate")
        rows.append(
            ReportRow(
                "classical",
                "optimal-success-formula",
                classical.optimal_classical_formula(args.n),
                params,
            )
        )
        return rows

    try:
        # both check n before any work: the dump stops at n = 3, the summary at n = 4
        strategies = classical.strategy_rows(args.n) if args.dump_strategies else []
        summary = classical.enumeration_summary(args.n)
    except ValueError as exc:
        raise UsageError(str(exc))
    for strategy_id, average, correlators in strategies:
        rows.append(
            ReportRow(
                "classical", "strategy", average,
                {**params, "strategy_id": strategy_id, "correlators": correlators},
            )
        )
    formula = classical.optimal_classical_formula(args.n)
    rows.append(
        ReportRow(
            "classical", "strategy-count", summary.count, params,
            expected=classical.strategy_count(args.n), tolerance=0,
            reference="counting-formula",
        )
    )
    rows.append(
        ReportRow(
            "classical", "max-average", summary.max_average, params,
            expected=formula, tolerance=0.0, reference="optimal-classical",
        )
    )
    rows.append(
        ReportRow(
            "classical", "min-average", summary.min_average, params,
            expected=1.0 - formula, tolerance=0.0, reference="pessimal-classical",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> list[ReportRow]:
    rows: list[ReportRow] = []
    for n in range(2, args.n_max + 1):
        params = {"n": n}
        c_cl = bell.classical_bound(n)
        c_qm = bell.quantum_max(n)
        p_cl = bell.success_from_bell(n, c_cl)
        p_qm = bell.success_from_bell(n, c_qm)
        beta, gain = bell.violation_margin(n, c_qm, c_cl)
        rows.append(
            ReportRow(
                "bounds", "classical-bound", c_cl, params,
                expected=bell.classical_bound_telescoped(n), tolerance=0,
                reference="telescoped-form",
            )
        )
        rows.append(ReportRow("bounds", "quantum-max", c_qm, params))
        rows.append(
            ReportRow(
                "bounds", "success-at-classical-bound", p_cl, params,
                expected=classical.optimal_classical_formula(n), tolerance=1e-15,
                reference="optimal-classical",
            )
        )
        rows.append(ReportRow("bounds", "success-at-quantum-max", p_qm, params))
        rows.append(ReportRow("bounds", "violation", beta, params))
        rows.append(
            ReportRow(
                "bounds", "success-gain", gain, params,
                expected=p_qm - p_cl, tolerance=1e-12, reference="margin-identity",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# quantum
# ---------------------------------------------------------------------------


def _parse_json(text: str, path: str, lineno: int | None = None):
    """``json.loads(text)`` of file ``path``, or of its line ``lineno``; each failure is a UsageError there.

    A syntax error in a whole file names the line it is on.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason, lineno = exc.msg, lineno or exc.lineno
    except ValueError:
        reason = _LONG_INTEGER
    except RecursionError:
        reason = _TOO_DEEP
    where = path if lineno is None else f"{path}:{lineno}"
    raise UsageError(f"{where}: invalid JSON: {reason}")


def load_bases(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (alice, bob) directions of a bases file: shapes checked, n bounded before Alice is read."""
    data = _parse_json(_read_text(path), path)
    if not isinstance(data, dict):
        raise UsageError(f"{path}: a bases file must be a JSON object")
    try:
        bob = _numeric_field(data, "bob", 2)
        n = len(bob)
        if n < 2:
            raise UsageError(f"{path}: {n} bits, below the least of 2")
        if n > BASES_MAX_N:
            raise UsageError(f"{path}: {n} bits, above the bound of {BASES_MAX_N}")
        if bob.shape[1] != 3:  # the reader gives a (n, k) array once n >= 2
            raise ValueError(f"bob directions must be (n, 3), got {bob.shape}")
        alice = _numeric_field(data, "alice", 2)
        if alice.shape != (1 << (n - 1), 3):
            raise ValueError(f"alice directions must be ({1 << (n - 1)}, 3) for n={n}, got {alice.shape}")
        qcore.require_unit_rows(np.vstack((alice, bob)))
    except KeyError as exc:
        raise UsageError(f"{path}: missing field {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path}: {exc}")
    return alice, bob


def cmd_quantum(args) -> list[ReportRow]:
    if args.optimize and args.seed is None:
        raise UsageError("--seed is required with --optimize")
    if args.bases:
        alice, bob = load_bases(args.bases)
        n = len(bob)
        if args.optimize and n not in (2, 3):
            raise UsageError(f"{args.bases}: seesaw search supports n in {{2, 3}}, got n={n}")
        expected_p = expected_c = None
    else:
        n = args.n
        if n not in (2, 3):
            raise UsageError(f"single-stage protocol supports n in {{2, 3}}, got {n}")
        alice, bob = qrac.default_bases(n)
        expected_p, expected_c = _quantum_optimum(n)
    params = {"n": n, "bases": args.bases or "default"}
    success, value, residual = _quantum_values(alice, bob)
    margin = success - classical.optimal_classical_formula(n)
    rows = [
        ReportRow("quantum", "success", success, params, expected_p, 1e-9, "quantum-optimum"),
        ReportRow("quantum", "expression-value", value, params, expected_c, 1e-9, "quantum-optimum"),
        ReportRow("quantum", "margin-over-classical", margin, params),
        ReportRow("quantum", "identity-residual", residual, params, 0.0, 1e-12, "success-expression-identity"),
    ]
    if args.optimize:
        best, _, _ = qrac.maximize_bell(n, starts=args.starts, iterations=args.iterations, seed=args.seed)
        cap = bell.quantum_max(n)
        rows.append(
            ReportRow(
                "quantum", "seesaw-max", best,
                {**params, "starts": args.starts, "seed": args.seed},
                expected=cap, tolerance=None, reference="quantum-cap",
                passed=_reaches_cap(best, cap),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# mzi
# ---------------------------------------------------------------------------


def _label_index(record: dict, name: str) -> int:
    """``record[name]`` as a label index: an integral JSON number within LABEL_MAX of 0, no boolean or string."""
    value = record[name]
    # NaN fails the bound, so int() never sees it or an infinity
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= LABEL_MAX:
        if value == int(value):
            return int(value)
    raise ValueError(f'"{name}" must be an integer of magnitude at most {LABEL_MAX}')


def load_settings(path: str) -> list[mzi.Setting]:
    settings: list[mzi.Setting] = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        record = _parse_json(text, path, lineno)
        if not isinstance(record, dict):
            raise UsageError(f"{path}:{lineno}: a settings line must be a JSON object")
        try:
            label = None
            if "i" in record or "j" in record:
                label = (_label_index(record, "i"), _label_index(record, "j"))
            theta, phi = _numeric_field(record, "theta", 0), _numeric_field(record, "phi", 0)
            settings.append(mzi.Setting(theta, phi, _numeric_field(record, "spin_axis", 1), label))
        except KeyError as exc:
            raise UsageError(f"{path}:{lineno}: missing field {exc}")
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: an integer too large for a float
            raise UsageError(f"{path}:{lineno}: {exc}")
    if not settings:
        raise UsageError(f"{path}: no settings found")
    return settings


def _counts_params(setting: mzi.Setting, counts: np.ndarray) -> dict:
    """The setting and its tally row: n_* behind the positive path port, m_* behind the negative one."""
    n_plus, n_minus, m_plus, m_minus = counts.tolist()
    return {
        "label": list(setting.label) if setting.label else None,
        "theta": setting.theta,
        "phi": setting.phi,
        "spin_axis": np.asarray(setting.spin_axis).tolist(),
        "n_total": n_plus + n_minus,
        "n_spin_plus": n_plus,
        "n_spin_minus": n_minus,
        "m_total": m_plus + m_minus,
        "m_spin_plus": m_plus,
        "m_spin_minus": m_minus,
    }


# shot numbers below this power of ten get their digits from one template
EVENT_TEMPLATE = 10_000
# every event line ends in this tail; the outcome bits go to its two zeros, columns counted from the line end
_EVENT_TAIL = np.frombuffer(b', "path": 0, "spin": 0}\n', dtype=np.uint8)
_PATH_COL, _SPIN_COL = np.flatnonzero(_EVENT_TAIL == ord("0")) - len(_EVENT_TAIL)


def write_events(result: mzi.SamplingResult, path: str) -> None:
    """One JSON line per shot, setting by setting: {"setting": s, "shot": k, "path": p, "spin": q}.

    Chunks end at decades below T = ``EVENT_TEMPLATE`` and at multiples of T
    above it, so a chunk's shot numbers are one constant, ``lo // T`` (none
    below T), followed by the rows of a zero-padded template of 0 .. T - 1 laid
    out once per call. One (rows, line) uint8 block, rebuilt for each setting and
    shot width, holds a chunk's lines; a chunk rewrites only that constant and the
    path and spin columns. Scratch memory is O(T) lines whatever the shot count.
    """
    size = EVENT_TEMPLATE
    places = [np.arange(48, 58, dtype=np.uint8)] * (len(str(size)) - 1)  # ASCII 0 .. 9 in each place
    template = np.stack(np.meshgrid(*places, indexing="ij"), axis=-1).reshape(size, -1)
    with _rewrite(path) as handle:
        for s_idx, (path_bits, spin_bits) in enumerate(result.outcomes):
            head = np.frombuffer(f'{{"setting": {s_idx}, "shot": '.encode(), dtype=np.uint8)
            lo, shots = 0, len(path_bits)
            while lo < shots:
                width = len(str(lo))
                hi = min(shots, 10**width if lo < size else lo + size)
                high = np.frombuffer(str(lo // size).encode() if lo >= size else b"", dtype=np.uint8)
                if lo in (0, 10 ** (width - 1)):  # a new setting or shot width starts at 0 or a power of ten
                    block = rows = None  # release the old block first: one is held at a time
                    digits = template[lo % size : lo % size + hi - lo, len(high) - width :]  # the low digits
                    block = np.tile(np.concatenate([head, high, digits[0], _EVENT_TAIL]), (hi - lo, 1))
                    block[:, len(head) + len(high) : -len(_EVENT_TAIL)] = digits
                rows = block[: hi - lo]
                rows[:, len(head) : len(head) + len(high)] = high
                np.add(path_bits[lo:hi], 48, out=rows[:, _PATH_COL])
                np.add(spin_bits[lo:hi], 48, out=rows[:, _SPIN_COL])
                handle.write(rows)
                lo = hi


def cmd_mzi(args) -> list[ReportRow]:
    state = qcore.entangled_state(args.a, math.sqrt(max(0.0, 1.0 - args.a**2)), args.delta)
    base_params = {"shots": args.shots, "seed": args.seed, "workers": args.workers}
    if args.settings:
        settings = load_settings(args.settings)
    else:
        settings = mzi.protocol_settings(*qrac.steering_bases())
    held = OUTCOME_BYTES * len(settings) * args.shots
    if held > OUTCOME_BUDGET:
        raise UsageError(
            f"{args.settings}: {len(settings)} settings x {args.shots} shots would hold "
            f"{held} B of outcomes, above {OUTCOME_BUDGET} B"
        )
    with _held_output(args.events):
        # keeps the bits without --events too: perfbench/test_perfbench.py pins mzi's outcome_bytes
        result = mzi.sample_events(state, settings, args.shots, args.seed, workers=args.workers, events=True)
        if args.events:
            write_events(result, args.events)
    # every estimate is checked against the Born rows it was drawn from
    joint, exact = mzi.correlators(result.counts).tolist(), mzi.correlators(result.probs).tolist()
    stderrs = np.sqrt(_correlator_variances(result.probs, args.shots)).tolist()
    rows: list[ReportRow] = []
    for setting, counts, value, target, stderr in zip(settings, result.counts, joint, exact, stderrs):
        params = {**base_params, **_counts_params(setting, counts)}
        if args.settings:
            rows.append(ReportRow("mzi", "counts", int(counts.sum()), params))
        tol = _sampling_tolerance(stderr, args.shots)
        rows.append(ReportRow("mzi", "correlator-joint", value, params, target, tol, "born-table"))
        rows.append(ReportRow("mzi", "correlator-product-form", mzi.correlator_product_form(counts), params))
    if not args.settings:
        value, tol_c, success, tol_p = _protocol_estimates(result, args.shots)
        target = mzi.protocol_value(result.probs)
        rows.append(ReportRow("mzi", "expression-estimate", value, base_params, target, tol_c, "born-table"))
        target_p = bell.success_from_bell(2, target)
        rows.append(ReportRow("mzi", "success-estimate", success, base_params, target_p, tol_p, "born-table"))
    return rows


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------


def cmd_concat(args) -> list[ReportRow]:
    sampled = args.engine == "born"
    if sampled and args.seed is None:
        raise UsageError("--seed is required for sampling engines")
    n = args.n
    text = "0" * n if args.input is None else args.input
    if len(text) != n or set(text) - {"0", "1"}:
        raise UsageError(f"--input must be {n} bits")
    if args.query == "all":
        queries = range(n)
    elif 0 <= args.query < n:
        queries = [args.query]
    else:
        raise UsageError(f"query {args.query} out of range for n={n}")
    scratch = len(queries) * min(args.shots, args.workers * mzi.BLOCK)
    if sampled and scratch > QUERY_SCRATCH_BUDGET:
        raise UsageError(
            f"{len(queries)} queries would hold {scratch} B of parity scratch, "
            f"above {QUERY_SCRATCH_BUDGET} B; query fewer bits or use fewer workers"
        )
    # the padded code is the balanced tree over m = 2^k 3^j leaves: every leaf has k
    # two-bit and j three-bit stages, so m alone fixes each bit's analytic success
    m = concat.smooth_ceiling(n)
    stages = list(concat.smooth_factorization(m))  # one list, shared by every per-bit row
    per_bit = concat.chain_success(*stages)
    base_params = {
        "n": n,
        "engine": args.engine,
        "padded_to": m if m != n else None,
        "sr_permutation_standin": args.permute_seed is not None,
    }
    rows = [
        ReportRow("concat", "analytic-per-bit", per_bit, {**base_params, "bit": bit, "stages": stages})
        for bit in range(n)
    ]
    rows.append(ReportRow("concat", "quantum-upper-bound", concat.quantum_bound(n), base_params))
    rows.append(ReportRow("concat", "padded-lower-bound", concat.padded_lower_bound(n), base_params))
    if not sampled:
        return rows

    tree = concat.build_padded(n, permute_seed=args.permute_seed).tree
    bits = [int(c) for c in text] + [0] * (m - n)  # leaves n.. are padding
    sims = concat.simulate(tree, bits, queries, args.shots, args.seed, workers=args.workers)
    for query, successes in zip(queries, sims.successes):
        rows.append(
            ReportRow(
                "concat", "simulated-per-bit", successes / sims.shots,
                {**base_params, "bit": query, "shots": args.shots, "seed": args.seed},
                expected=per_bit,
                tolerance=_sampling_tolerance(_rate_stderr(per_bit, sims.shots), sims.shots),
                reference="stage-formula",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def report_rows(seed: int, shots: int, concat_shots: int, workers: int) -> list[ReportRow]:
    """The consolidated check table: every headline number with its target.

    This is the one statement of the headline checks; the acceptance suite runs it
    and asserts every row.
    """
    rows: list[ReportRow] = []
    p = {"seed": seed, "shots": shots, "concat_shots": concat_shots}

    def add(quantity, value, expected, tolerance, reference, passed=None):
        rows.append(ReportRow("report", quantity, value, p, expected, tolerance, reference, passed))

    # exhaustive classical bounds
    for n in (2, 3):
        summary = classical.enumeration_summary(n)
        add(f"classical-enum-max-n{n}", summary.max_average, 0.75, 0.0, "optimal-classical")
        add(f"classical-enum-min-n{n}", summary.min_average, 0.25, 0.0, "pessimal-classical")
        add(
            f"classical-enum-count-n{n}", summary.count, classical.strategy_count(n), 0,
            "counting-formula",
        )
        add(
            f"classical-formula-n{n}", classical.optimal_classical_formula(n),
            summary.max_average, 0.0, "enumeration",
        )
    add(
        "classical-formula-n4", classical.optimal_classical_formula(4), 11.0 / 16.0, 0.0,
        "optimal-classical",
    )

    # expression bounds: telescoping identity and brute-force maxima
    mismatches = sum(bell.classical_bound(n) != bell.classical_bound_telescoped(n) for n in range(1, 31))
    add("bound-identity-mismatches-n1-30", mismatches, 0, 0, "telescoping-identity")
    for n in (2, 3, 4):
        add(
            f"deterministic-max-n{n}", bell.deterministic_max(bell.sign_matrix(n)),
            bell.classical_bound(n), 0, "noncontextual-bound",
        )

    # headline quantum numbers: one evaluation per default basis set
    headline = {n: _quantum_values(*qrac.default_bases(n)) for n in (2, 3)}
    for n, (success, value, _) in headline.items():
        target_p, target_c = _quantum_optimum(n)
        add(f"quantum-success-n{n}", success, target_p, 1e-9, "quantum-optimum")
        add(f"quantum-expression-n{n}", value, target_c, 1e-9, "quantum-optimum")

    # structural identity over random bases
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        worst = float(np.max(qrac.identity_check(*qrac.random_bases(n, rng, 1000))))
        add(f"identity-residual-max-n{n}", worst, 0.0, 1e-12, "success-expression-identity")

    # commensurability of violation and success gain
    for n, (success, value, _) in headline.items():
        gain = success - classical.optimal_classical_formula(n)
        _, expected = bell.violation_margin(n, value, bell.classical_bound(n))
        add(f"success-gain-vs-violation-n{n}", gain, expected, 1e-9, "margin-identity")

    # seesaw search against the quantum cap
    for n in (2, 3):
        cap = bell.quantum_max(n)
        best, _, _ = qrac.maximize_bell(n, starts=100, seed=seed)
        add(f"seesaw-max-n{n}", best, cap, None, "quantum-cap", passed=_reaches_cap(best, cap))

    # sampled estimator at the protocol settings
    state = qcore.maximally_entangled_state()
    settings = mzi.protocol_settings(*qrac.steering_bases())

    def protocol_run(run_settings):
        """A run's protocol estimates and first tally row, sampled without outcome bits."""
        result = mzi.sample_events(state, run_settings, shots, seed, workers=workers)
        return _protocol_estimates(result, shots), result.counts[0]

    (value, tol_c, success, tol_p), _ = protocol_run(settings)
    target_p, target_c = _quantum_optimum(2)
    add("sampled-expression", value, target_c, tol_c, "quantum-optimum")
    add("sampled-success", success, target_p, tol_p, "quantum-optimum")

    # classical-regime sampling: every direction aligned with z
    z = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    # the outcome probabilities are exactly 0, 1/2, 1/2, 0: SE 0, so the one-count floor
    (value, tol_c, success, tol_p), counts = protocol_run(mzi.protocol_settings(z, z))
    add("aligned-expression", value, -2.0, tol_c, "pessimal-classical")
    add("aligned-success", success, 0.25, tol_p, "pessimal-classical")

    # estimator discrepancy on the aligned maximally entangled state
    add("discrepancy-correlator-joint", float(mzi.correlators(counts)), -1.0, 1e-12, "anti-correlation")
    # |product| <= |path asymmetry|, a +-1 average whose SE is at most 1/sqrt(shots)
    add(
        "discrepancy-correlator-product-form", mzi.correlator_product_form(counts), 0.0,
        _sampling_tolerance(1.0 / math.sqrt(shots), shots), "vanishing-port-asymmetry",
    )

    # concatenation: analytic values, simulation, and bound consistency
    add("chain-success-2-0", concat.chain_success(2, 0), 0.75, 0.0, "stage-formula")
    add(
        "chain-success-1-1", concat.chain_success(1, 1), 0.5 * (1.0 + 1.0 / math.sqrt(6.0)),
        1e-15, "stage-formula",
    )
    for n in (4, 6):
        sim = concat.simulate(concat.build_tree(n), [0] * n, [0], concat_shots, seed, workers=workers)
        exact = concat.chain_success(*concat.smooth_factorization(n))
        add(
            f"concat-simulated-n{n}", sim.successes[0] / sim.shots, exact,
            _sampling_tolerance(_rate_stderr(exact, sim.shots), sim.shots), "stage-formula",
        )
    add(
        "success-at-quantum-max-n4", bell.success_from_bell(4, 16.0), concat.quantum_bound(4),
        0.0, "shared-bound",
    )

    # padded sizes for non-smooth n
    add(
        "padded-bound-n5", concat.padded_lower_bound(5), 0.5 + 0.5 / math.sqrt(6.0), 1e-9,
        "padded-code",
    )
    add(
        "padded-bound-n7", concat.padded_lower_bound(7), 0.5 + 0.5 / math.sqrt(8.0), 1e-9,
        "padded-code",
    )

    # reproducibility: identical counts for any worker count
    counts_one = mzi.sample_events(state, settings, 4096, seed, workers=1).counts
    counts_many = mzi.sample_events(state, settings, 4096, seed, workers=3).counts
    mismatches = int(np.sum(np.any(counts_one != counts_many, axis=1)))
    add("worker-count-mismatches", mismatches, 0, 0, "partitioned-streams")
    return rows


def cmd_report(args) -> list[ReportRow]:
    if not args.all:
        raise UsageError("report requires --all")
    with _held_output(args.csv):
        rows = report_rows(args.seed, args.shots, args.concat_shots, args.workers)
        if args.csv:
            write_csv(rows, args.csv)
    return rows


# ---------------------------------------------------------------------------
# parser / main
# ---------------------------------------------------------------------------


def _in_range(convert, low, high=math.inf):
    """argparse type: ``convert(text)`` within [low, high]."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected {convert.__name__} in [{low}, {high}], got {text!r}"
            )
        return value

    return parse


# --n of every exact command: formula mode and the bounds table stop here,
# enumeration (n <= 4) and the single-stage protocols (n <= 3) far below.
BITS_MAX = 30
_n_bits = _in_range(int, 2, BITS_MAX)
# Every concat run holds and writes n rows, and a sampled run builds the padded
# code's tree: about 0.2-0.3 s and 35 MB at n = 10^5 (2-vCPU VM).
CONCAT_MAX_N = 10**5
# A sampled concat run keeps one block of spin-flip parity per query in each shot
# span: queries x min(span shots, mzi.BLOCK) bytes (concat.simulate_range), or
# 3.3 GB per span for --query all at n = 10^5. Spans may all run at once, so their
# sum, at most queries x min(shots, workers x BLOCK), is held to this budget
# whatever the CPU count.
QUERY_SCRATCH_BUDGET = 2**30
# Exact evaluation of a --bases file reads n 2^(n-1) Born tables and n 2^n cells once: n = 16
# takes about 1.2-1.5 s and 107 MB (2-vCPU VM), and every 2 more bits cost about 4x that.
BASES_MAX_N = 16
# |i|, |j| of a settings line's label: a reader parsing JSON numbers as doubles gets it intact
LABEL_MAX = 2**53
# json.loads refuses an integer literal past Python's digit limit (4300) with a plain ValueError
_LONG_INTEGER = "integer literal too long"
# json.loads recurses once per nested array or object: deep nesting raises RecursionError
_TOO_DEEP = "nested too deeply"
# Outcome arrays an mzi run may hold: it keeps OUTCOME_BYTES (a path and a spin bit)
# per shot and setting until the rows are written; every other sampler keeps tallies.
OUTCOME_BYTES = 2
OUTCOME_BUDGET = 2**30
# Every shot option shares this bound; at it mzi's 4 protocol settings hold half the
# budget, and mzi --settings checks its own setting count against the budget.
SHOTS_MAX = OUTCOME_BUDGET // (OUTCOME_BYTES * 8)
_shots = _in_range(int, 1, SHOTS_MAX)
# --workers sets only how each setting's shots are cut into spans; threads never
# outnumber CPUs, so more spans than this only add per-span stream set-up.
WORKERS_MAX = 256
# A seesaw start stops once it converges, after about 18 rounds on average at
# n = 3, so rounds past that are rarely run; all starts run as one stack, and
# 10^4 starts take about 0.6 s (2-vCPU VM).
STARTS_MAX = 10**4
ITERATIONS_MAX = 10**4
# streams key on the seed's 64 bits: a wider or negative seed would alias another
_seed = _in_range(int, 0, 2**64 - 1)
_workers = _in_range(int, 1, WORKERS_MAX)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite float, got {text!r}")
    return value


def _query(text: str) -> str | int:
    """argparse type for ``--query``: ``all`` or one bit index."""
    if text == "all":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'all' or an integer, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, like every other bad-input error of the CLI."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="racsim",
        description="Random access code simulations: classical bounds, quantum protocols, "
        "interferometer sampling, and concatenated codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classical = sub.add_parser("classical", help="deterministic strategies and bounds")
    p_classical.add_argument("--n", type=_n_bits, required=True)
    p_classical.add_argument("--mode", choices=("enumerate", "formula"), default="enumerate")
    p_classical.add_argument("--dump-strategies", action="store_true")
    p_classical.set_defaults(func=cmd_classical)

    p_bounds = sub.add_parser("bounds", help="expression bounds and success conversions")
    p_bounds.add_argument("--n-max", type=_n_bits, default=10)
    p_bounds.set_defaults(func=cmd_bounds)

    p_quantum = sub.add_parser("quantum", help="single-stage quantum protocol values")
    p_quantum.add_argument("--n", type=_n_bits, default=2)
    p_quantum.add_argument("--bases", help="JSON file with alice/bob unit vectors")
    p_quantum.add_argument("--optimize", action="store_true", help="run the seesaw search")
    p_quantum.add_argument("--starts", type=_in_range(int, 1, STARTS_MAX), default=100)
    p_quantum.add_argument("--iterations", type=_in_range(int, 1, ITERATIONS_MAX), default=200)
    p_quantum.add_argument("--seed", type=_seed)
    p_quantum.set_defaults(func=cmd_quantum)

    p_mzi = sub.add_parser("mzi", help="interferometer sampling and count estimators")
    p_mzi.add_argument("--shots", type=_shots, required=True)
    p_mzi.add_argument("--seed", type=_seed, required=True)
    p_mzi.add_argument("--settings", help="JSONL settings file (theta, phi, spin_axis per line)")
    p_mzi.add_argument("--events", help="write per-shot event records to this path")
    p_mzi.add_argument("--a", type=_in_range(float, 0.0, 1.0), default=1.0 / math.sqrt(2.0), help="first-splitter transmission amplitude")
    p_mzi.add_argument("--delta", type=_finite_float, default=math.pi, help="preparation phase (radians)")
    p_mzi.add_argument("--workers", type=_workers, default=1)
    p_mzi.set_defaults(func=cmd_mzi)

    p_concat = sub.add_parser("concat", help="concatenated n->1 codes")
    p_concat.add_argument("--n", type=_in_range(int, 2, CONCAT_MAX_N), required=True)
    p_concat.add_argument("--engine", choices=("analytic", "born"), default="analytic")
    p_concat.add_argument("--shots", type=_shots, default=200_000)
    p_concat.add_argument("--seed", type=_seed)
    p_concat.add_argument("--query", type=_query, default="all")
    p_concat.add_argument("--input", help="explicit input bit string")
    p_concat.add_argument("--permute-seed", type=_seed, help="shared seed for the slot permutation stand-in")
    p_concat.add_argument("--workers", type=_workers, default=1)
    p_concat.set_defaults(func=cmd_concat)

    p_report = sub.add_parser("report", help="consolidated check table")
    p_report.add_argument("--all", action="store_true")
    p_report.add_argument("--seed", type=_seed, required=True)
    p_report.add_argument("--shots", type=_shots, default=1_000_000)
    p_report.add_argument("--concat-shots", type=_shots, default=200_000)
    p_report.add_argument("--csv", help="also write the rows to a CSV file")
    p_report.add_argument("--workers", type=_workers, default=1)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = args.func(args)
    except (UsageError, OSError) as exc:  # OSError: a file that cannot be opened, read or written
        parser.exit(2, f"error: {exc}\n")
    try:
        emit(rows)
        sys.stdout.flush()
    except OSError as exc:
        # point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 1  # the reader closed stdout: exit 1 without a traceback
        parser.exit(2, f"error: {exc}\n")
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
