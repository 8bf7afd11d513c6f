"""Periodic windows build their rows when a read asks for them.

A ``PeriodicWindow`` is a ``KLComputer``: construction numbers the
members, and ``element`` and ``coefficient`` make the rows they read, each
certified by the packed codec, with a driver that keeps its work on an
explicit stack.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alcove_kl.cli import main
from alcove_kl.errors import ResourceError
from alcove_kl.laurent import LaurentPoly, PackedCodec
from alcove_kl.periodic import PeriodicWindow
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import identity_elt, w0_elt

SRC = Path(__file__).resolve().parents[1] / "src"
A2 = build_root_system("A", 2)


def test_a_read_builds_only_the_rows_it_needs():
    win = PeriodicWindow(A2, 13)
    assert win.rows == {}
    e = identity_elt(A2)
    assert win.coefficient(e, e) == LaurentPoly.one()
    assert 0 < len(win.rows) < len(win.members)
    assert win.flags.keys() == win.rows.keys()


def test_a_coefficient_beyond_the_codec_bound_is_refused_on_read():
    win = PeriodicWindow(A2, 8)
    win.codec = PackedCodec(2)
    # p_{w0, e} = v^3 has a digit above the codec's degree bound
    with pytest.raises(ResourceError, match="certified bound"):
        win.coefficient(w0_elt(A2), identity_elt(A2))


def test_the_cli_refuses_an_uncertified_window_row_with_exit_3(tmp_path):
    # the windows are process-wide, so they are made with a short codec
    # in a fresh interpreter; the identity gate then reads p = v^3 and meets it
    script = (
        "import functools, sys\n"
        "from alcove_kl import periodic\n"
        "from alcove_kl.cli import main\n"
        "from alcove_kl.laurent import PackedCodec\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def short(sys, radius):\n"
        "    win = periodic.PeriodicWindow(sys, radius)\n"
        "    win.codec = PackedCodec(2)\n"
        "    return win\n"
        "periodic._window = short\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script,
         "periodic", "--type", "A", "--rank", "2", "--p", "5", "--lmax", "1",
         "--cache-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (3, "")
    payload = json.loads(done.stderr)
    assert payload["error"] == "bound"
    assert "certified bound" in payload["message"]


def test_a_window_deeper_than_the_stack_gives_the_same_table(tmp_path, capsys):
    # the row of e in the window of radius 700 rests on a chain of about
    # 700 descents, more than Python's recursion limit allows for frames
    argv = ["periodic", "--type", "A", "--rank", "1", "--p", "5", "--lmax", "3"]
    assert main([*argv, "--window", "8", "--cache-dir", str(tmp_path / "a")]) == 0
    small = capsys.readouterr()
    assert main([*argv, "--window", "700", "--cache-dir", str(tmp_path / "b")]) == 0
    deep = capsys.readouterr()
    assert deep.err == small.err == ""
    assert deep.out == small.out
