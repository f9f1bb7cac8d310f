"""Every public function of the package is reached by some CLI command.

The commands below (each subcommand and mode, the golden argv lists and two
bad-input calls) run under ``sys.setprofile``/``threading.setprofile``, which
records the code object of every Python call, pool threads included. A public
module-level function, or a method or property of a public class, that none of
them reaches is either dead code or one of the few names the benchmark harness
under ``perfbench/`` still reads.
"""

import inspect
import sys
import threading

import pytest

from racsim import bell, classical, cli, concat, mzi, qcore, qrac
from test_golden import BASES, GOLDEN, SETTINGS

MODULES = (bell, classical, cli, concat, mzi, qcore, qrac)

# Reached by no command; the benchmark's span list and checks read them.
BENCHMARK_ONLY = {
    "qcore.prepared_state",
    "qcore.expectation_product",
    "qrac.quantum_success",
    "qrac.bell_from_preps",
    "qrac.correlator_qm",
    "mzi.counts_from_outcomes",
    "classical.brute_success",
}


def public_functions() -> dict:
    """Code object -> ``layer.name`` of each public function a module defines.

    A public class contributes its methods, classmethods and property getters,
    as ``layer.Class.name``; methods a dataclass generates have no code here.
    """
    found = {}
    for module in MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[obj.__code__] = f"{layer}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    func = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                    if inspect.isfunction(func) and func.__code__.co_filename == module.__file__:
                        found[func.__code__] = f"{layer}.{name}.{attr}"
    return found


def command_argvs(tmp_path) -> list[list[str]]:
    settings = tmp_path / "settings.jsonl"
    settings.write_text(SETTINGS)
    # the golden quantum --bases entry reads bases.json from the working directory
    (tmp_path / "bases.json").write_text(BASES)
    events = tmp_path / "events.jsonl"
    paths = {"settings": settings, "events": events}
    return [
        ["classical", "--n", "2", "--dump-strategies"],
        ["classical", "--n", "4"],
        ["classical", "--n", "5", "--mode", "formula"],
        ["bounds", "--n-max", "5"],
        ["quantum", "--n", "2", "--optimize", "--starts", "5", "--seed", "1"],
        ["mzi", "--shots", "100", "--seed", "1", "--workers", "2"],
        ["concat", "--n", "5"],
        ["concat", "--n", "6", "--engine", "born", "--shots", "100", "--seed", "1"],
        ["report", "--all", "--seed", "1", "--shots", "1000", "--concat-shots", "1000",
         "--csv", str(tmp_path / "report.csv")],
        *([a.format(**paths) for a in argv] for argv, _ in GOLDEN.values()),
    ]


def bad_argvs(tmp_path) -> list[list[str]]:
    bad_settings = tmp_path / "bad.jsonl"
    bad_settings.write_text('{"theta": 0.3}\n')
    return [
        ["mzi", "--shots", "10", "--seed", "1", "--settings", str(bad_settings)],
        ["quantum", "--bases", str(tmp_path / "missing.json")],
    ]


def test_every_public_function_is_reached_by_a_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for argv in command_argvs(tmp_path):
            assert cli.main(argv) == 0, argv
        for argv in bad_argvs(tmp_path):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2, argv
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    capsys.readouterr()

    functions = public_functions()
    unreached = {name for code, name in functions.items() if code not in seen}
    assert unreached == BENCHMARK_ONLY
