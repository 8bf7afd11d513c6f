"""Start-up cost: a command executes only the layers it reaches.

Each check runs a fresh interpreter that records, through an audit hook,
every module body it executes, then runs the command line as
``python -m alcove_kl.cli`` does.  A warm run prints a stored record, so
it must not compile the engine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import alcove_kl
from alcove_kl.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

ENGINE = {"alcove", "hecke", "periodic", "repcalc", "verify"}

_PROBE = """
import json, os, runpy, sys

executed = set()

def record(event, args):
    if event == "exec":
        path = getattr(args[0], "co_filename", "")
        if os.path.basename(os.path.dirname(path)) == "alcove_kl":
            executed.add(os.path.basename(path)[:-3])

sys.addaudithook(record)
code = 0
if sys.argv[1:]:
    try:
        runpy.run_module("alcove_kl.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import alcove_kl
    registered = sorted(n for n in sys.modules if n.startswith("alcove_kl."))
sys.stdout.flush()
print(json.dumps({
    "code": code,
    "executed": sorted(executed - {"__init__"}),
    "loaded": sorted(
        n for n in ("fractions", "dataclasses", "inspect", "typing", "pathlib") if n in sys.modules
    ),
    "registered": [] if sys.argv[1:] else registered,
}), file=sys.stderr)
"""


def probe(*argv, flags=()) -> dict:
    """Run ``alcove-kl ARGV`` (or, without ARGV, ``import alcove_kl``) in a
    fresh interpreter started with the interpreter ``flags``; returns the
    exit code, the package modules whose bodies ran, and which of
    ``fractions``, ``dataclasses``, ``inspect``, ``typing`` and
    ``pathlib`` were loaded."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    report = json.loads(done.stderr.splitlines()[-1])
    report["executed"] = set(report["executed"])
    report["loaded"] = set(report["loaded"])
    return report


def warm(capsys, *argv) -> tuple:
    """``argv`` with a cache directory the same command has filled."""
    main(list(argv))
    capsys.readouterr()
    return argv


# what a warm run that reads its record by the flags alone executes
CACHE_READ = {"cli", "cache", "errors"}


def test_warm_periodic_executes_no_group_or_engine_layer(tmp_path, capsys):
    """A table is keyed by p, --lmax and the radius: given --window, a
    warm run reads it without the root system, which it builds only to
    resolve the default radius when --window is omitted."""
    table = ("periodic", "--type", "A", "--rank", "1", "--p", "5", "--lmax", "3")
    for window, executed in (((), CACHE_READ | {"rootsys"}), (("--window", "7"), CACHE_READ)):
        args = warm(capsys, *table, *window, "--cache-dir", str(tmp_path))
        report = probe(*args)
        assert report["code"] == 0, window
        assert report["executed"] == executed, window
        assert "fractions" not in report["loaded"], window


def test_warm_rows_execute_no_engine_layer(tmp_path, capsys):
    """A row is keyed by the word as given, so a warm run builds neither
    the root system nor the element."""
    for command, word in (("kl", "1,2,1"), ("spherical", "1,2,1")):
        args = warm(capsys, command, "--type", "A", "--rank", "2", "--w", word,
                    "--cache-dir", str(tmp_path))
        report = probe(*args)
        assert report["code"] == 0, command
        assert report["executed"] == CACHE_READ, command


def test_warm_kl_under_a_bare_site_loads_no_typing_or_pathlib(tmp_path, capsys):
    """Under ``-S`` no ``.pth`` hook imports ``typing`` or ``pathlib`` on
    the program's behalf, so a warm child shows what it imports itself."""
    args = warm(capsys, "kl", "--type", "B", "--rank", "2", "--w", "2,1,2,0",
                "--cache-dir", str(tmp_path))
    report = probe(*args, flags=("-S",))
    assert report["code"] == 0
    assert report["executed"] == CACHE_READ  # neither rootsys nor weylext
    assert report["loaded"] == set()


def test_cold_kl_executes_no_periodic_layer(tmp_path):
    report = probe("kl", "--type", "A", "--rank", "2", "--w", "1,2,1", "--cache-dir", str(tmp_path))
    assert report["code"] == 0
    assert "hecke" in report["executed"]
    assert report["executed"] & {"alcove", "periodic", "repcalc", "verify"} == set()


def test_cold_char_executes_no_group_or_engine_layer(tmp_path):
    report = probe("char", "--type", "A", "--rank", "2", "--p", "5", "--lam", "0,0",
                   "--cache-dir", str(tmp_path))
    assert report["code"] == 0
    assert report["executed"] == CACHE_READ | {"rootsys"}
    assert "fractions" not in report["loaded"]


def test_no_command_loads_dataclasses_or_inspect(tmp_path, capsys):
    """The value classes are plain classes, so no child pays for
    ``dataclasses`` and the ``inspect`` it imports, cold or warm."""
    a1 = ("--type", "A", "--rank", "1")
    cache = ("--cache-dir", str(tmp_path / "warm"))
    warm_runs = [
        warm(capsys, "kl", *a1, "--w", "1,0", *cache),
        warm(capsys, "spherical", *a1, "--w", "1,0", *cache),
        warm(capsys, "periodic", *a1, "--p", "5", "--lmax", "3", *cache),
    ]
    cold_runs = [
        ("kl", *a1, "--w", "1,0"),
        ("char", *a1, "--p", "5", "--lam", "0"),
        ("ext", *a1, "--p", "5", "--w", "0", "--y", "1,0"),
        ("loewy", *a1, "--p", "5", "--w", "0,1"),
        ("verify", *a1, "--p", "5"),
    ]
    cold_runs = [(*argv, "--cache-dir", str(tmp_path / "cold")) for argv in cold_runs]
    for argv in warm_runs + cold_runs:
        report = probe(*argv)
        assert report["code"] == 0, argv
        assert not report["loaded"] & {"dataclasses", "inspect"}, argv


def test_importing_the_package_executes_no_layer():
    report = probe()
    assert report["executed"] == set()
    # every layer is registered, to be executed on first use
    assert {name.split(".")[1] for name in report["registered"]} == {
        *ENGINE, "cache", "errors", "laurent", "rootsys", "weylext",
    }


def test_every_exported_name_resolves_in_its_layer():
    for name in alcove_kl.__all__:
        module = sys.modules[f"alcove_kl.{alcove_kl._HOME[name]}"]
        assert getattr(alcove_kl, name) is getattr(module, name), name
    namespace = {}
    exec("from alcove_kl import *", namespace)
    assert set(alcove_kl.__all__) <= set(namespace)
    assert "kl_basis" in dir(alcove_kl)
