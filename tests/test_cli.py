import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alcove_kl.cache import cache_dir
from alcove_kl.cli import main
from alcove_kl.errors import IndeterminateError, SearchError
from alcove_kl.weylext import ExtWeylElt

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kl_command_longest_element(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "kl", "--type", "A", "--rank", "2", "--w", "1,2,1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "e|0,0" in out and "v^3" in out


@pytest.mark.parametrize(
    "command,word,cache_name",
    [("kl", "2,1", "kl_A2.jsonl"), ("spherical", "1,2,1,0", "spherical_A2.jsonl")],
    ids=["kl", "spherical"],
)
def test_kl_rerun_hits_cache_identical_bytes(tmp_path, capsys, command, word, cache_name):
    args = (command, "--type", "A", "--rank", "2", "--w", word, "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    cache_file = tmp_path / cache_name
    assert cache_file.exists()
    stamp = cache_file.read_text()
    code2, out2, _ = run(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert cache_file.read_text() == stamp  # no recompute appended


def test_cache_corruption_triggers_recompute(tmp_path, capsys):
    args = ("kl", "--type", "A", "--rank", "1", "--w", "1,0", "--cache-dir", str(tmp_path))
    _, out1, _ = run(capsys, *args)
    cache_file = tmp_path / "kl_A1.jsonl"
    lines = cache_file.read_text().splitlines()
    broken = lines[0][:-10] + '"corrupted"}'
    cache_file.write_text(broken + "\n")
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out2 == out1
    assert len(cache_file.read_text().splitlines()) == 2  # fresh record appended


def test_cache_undecodable_line_is_skipped(tmp_path, capsys):
    args = ("kl", "--type", "A", "--rank", "1", "--w", "0,1", "--cache-dir", str(tmp_path))
    _, out1, _ = run(capsys, *args)
    cache_file = tmp_path / "kl_A1.jsonl"
    with open(cache_file, "ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
    stamp = cache_file.read_bytes()
    code, out2, err = run(capsys, *args)
    assert code == 0, err
    assert out2 == out1
    assert cache_file.read_bytes() == stamp  # the valid record still hits


def test_unusable_cache_dir_is_config_error(tmp_path, capsys):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    code, out, err = run(
        capsys,
        "kl", "--type", "A", "--rank", "1", "--w", "0,1", "--cache-dir", str(not_a_dir),
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert str(not_a_dir) in payload["message"]


def test_length_bound_exit_code(tmp_path, capsys):
    word = ",".join(str(k % 2) for k in range(69))
    code, out, err = run(
        capsys,
        "kl", "--type", "A", "--rank", "1", "--w", word, "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert out == ""
    assert "exceeds the configured bound" in json.loads(err)["message"]


# sha256 of stdout for the README command-line examples: output bytes are
# part of the interface, so any change to them must update these digests.
README_EXAMPLES = {
    "kl --type A --rank 2 --w 1,2,1":
        "cdbdca7b362bca0a58606313e6084eb7263eafafe71384a550e17d18743eb3c4",
    "kl --type G --rank 2 --w 2,1,2,1,2,0":
        "4759e4f958d641803dec4f4e6115f4eaccda2c99b4531c9b1b22d6fc162e2c15",
    "spherical --type A --rank 2 --w 1,2,1":
        "6703695281e873beb1454febe91dfab02ab53c5523ff75fd2f9c2f580d310567",
    "periodic --type A --rank 1 --p 5 --lmax 6":
        "d2eb0936e016e661315a9e47035b2477535d2aabfe68c964773a698842054502",
    "ext --type A --rank 2 --p 5 --w 1 --y 1":
        "8439c9bde9895622eaf5a6023acea3540b3ae5d442f8b780c9ec811e320b245a",
    "loewy --type A --rank 1 --p 5 --w 0,1":
        "1ed83a95fca9a8320d24c10260e100bd628bc678976581884adb0fa83536786e",
    "char --type A --rank 2 --p 5 --module Z --lam 0,0":
        "0c0876ca1b36cdf95710b26c0cbf0b2773efa36f69cdc96a1b6f2bceaf69af65",
}


def example_id(command):
    """The subcommand, with its root system outside type A."""
    name, _, cartan, _, rank = command.split()[:5]
    return name if cartan == "A" else f"{name}-{cartan}{rank}"


@pytest.mark.parametrize("command", README_EXAMPLES, ids=example_id)
def test_readme_examples_golden_stdout(tmp_path, capsys, command):
    code, out, _ = run(capsys, *command.split(), "--cache-dir", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_EXAMPLES[command]


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ALCOVE_KL_CACHE", str(tmp_path / "envcache"))
    assert cache_dir() == tmp_path / "envcache"
    monkeypatch.delenv("ALCOVE_KL_CACHE")
    assert "alcove-kl" in str(cache_dir())


def test_periodic_command_dihedral_values(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "periodic", "--type", "A", "--rank", "1", "--p", "5",
        "--lmax", "6", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    values = {
        line.split()[2]
        for line in out.splitlines()[1:]
        if line.strip() and not line.startswith("#")
    }
    assert values <= {"0", "1", "v"}


def test_periodic_json_format(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "periodic", "--type", "A", "--rank", "1", "--p", "5",
        "--lmax", "2", "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    rows = json.loads(out)
    assert all(set(r) == {"y", "w", "p", "stabilized"} for r in rows)


def test_ext_constant_term(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "ext", "--type", "A", "--rank", "2", "--p", "5",
        "--w", "1", "--y", "1", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "conditional on Lusztig's conjecture" in out
    assert "0       1" in out or "0  1" in out


def test_loewy_two_layers(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "loewy", "--type", "A", "--rank", "1", "--p", "5",
        "--w", "0,1", "--lmax", "6", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    layers = [ln.split()[0] for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert layers == ["0", "1"]


def test_char_total(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "char", "--type", "A", "--rank", "2", "--p", "5",
        "--module", "Z", "--lam", "0,0", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "# total 125" in out


def test_config_error_exit_code(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "periodic", "--type", "Q", "--rank", "2", "--p", "5",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert json.loads(err)["error"] == "config"
    code, _, err = run(
        capsys,
        "periodic", "--type", "A", "--rank", "2", "--p", "4",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("kl", "--type", "A", "--rank", "x", "--w", "1"),
        ("kl", "--type", "A", "--rank", "2"),
        ("frob", "--type", "A"),
        (),
        ("kl", "--type", "A", "--rank", "2", "--w", "1", "--format", "xml"),
    ],
    ids=["malformed-int", "missing-w", "unknown-command", "no-command", "bad-choice"],
)
def test_usage_errors_are_json_config_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["kl", "--help"])
    assert info.value.code == 0
    assert "--w" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("periodic", "--type", "A", "--rank", "1", "--p", "5", "--window", "0"),
        ("ext", "--type", "A", "--rank", "1", "--p", "5", "--w", "0", "--y", "1,0",
         "--window", "0"),
        ("loewy", "--type", "A", "--rank", "1", "--p", "5", "--w", "0", "--window", "0"),
        ("verify", "--type", "A", "--rank", "1", "--p", "5", "--window", "0"),
        ("loewy", "--type", "A", "--rank", "1", "--p", "5", "--w", "0", "--lmax", "-1"),
        ("periodic", "--type", "A", "--rank", "1", "--p", "5", "--lmax", "-1"),
    ],
    ids=["periodic-window", "ext-window", "loewy-window", "verify-window",
         "loewy-lmax", "periodic-lmax"],
)
def test_window_below_one_and_negative_lmax_are_config_errors(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert ("--window" if "--window" in argv else "--lmax") in payload["message"]


def test_loewy_lmax_below_the_label_length_exits_3(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "loewy", "--type", "A", "--rank", "1", "--p", "5", "--w", "0,1,0,1,0",
        "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "stabilization"
    assert "of length 5" in payload["message"]
    assert "bound 4" in payload["message"]


def test_identity_gate_exit_code(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "periodic", "--type", "B", "--rank", "2", "--p", "5",
        "--lmax", "2", "--cache-dir", str(tmp_path),
    )
    assert code == 4
    assert json.loads(err)["error"] == "identity"


def test_latex_and_csv_formats(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "kl", "--type", "A", "--rank", "1", "--w", "1",
        "--format", "latex", "--cache-dir", str(tmp_path),
    )
    assert code == 0 and out.startswith(r"\begin{tabular}")
    code, out, _ = run(
        capsys,
        "kl", "--type", "A", "--rank", "1", "--w", "1",
        "--format", "csv", "--cache-dir", str(tmp_path),
    )
    assert code == 0 and out.splitlines()[0] == "y,h"


def test_verify_command_passes(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "verify", "--type", "A", "--rank", "1", "--p", "5",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "FAIL" not in out
    # determinism across runs
    code2, out2, _ = run(
        capsys,
        "verify", "--type", "A", "--rank", "1", "--p", "5",
        "--cache-dir", str(tmp_path),
    )
    assert (code2, out2) == (code, out)


def test_unusable_cache_dir_fails_before_compute(tmp_path, capsys, monkeypatch):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    calls = []
    monkeypatch.setattr("alcove_kl.cli.kl_basis", lambda *args: calls.append(args) or {})
    code, out, err = run(
        capsys,
        "kl", "--type", "A", "--rank", "2", "--w", "1,2,1", "--cache-dir", str(not_a_dir),
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"
    assert calls == []  # the row is never computed


@pytest.mark.parametrize(
    "exc,kind",
    [(SearchError, "search"), (IndeterminateError, "indeterminate")],
    ids=["search", "indeterminate"],
)
def test_search_and_indeterminate_errors_exit_3(tmp_path, capsys, monkeypatch, exc, kind):
    """A SearchError or IndeterminateError escaping a command exits 3 with a
    JSON error.  No valid command-line input reaches either today, so the
    command is made to raise it."""

    def fail(*args, **kwargs):
        raise exc("bounded search exhausted")

    monkeypatch.setattr("alcove_kl.cli.ext_dim", fail)
    code, out, err = run(
        capsys,
        "ext", "--type", "A", "--rank", "1", "--p", "5", "--w", "1", "--y", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": kind, "message": "bounded search exhausted"}


def test_kl_in_e7_numbers_only_the_elements_it_meets(tmp_path, capsys):
    # E7's Weyl group has 2,903,040 elements; a short row must not list them
    code, out, err = run(
        capsys,
        "kl", "--type", "E", "--rank", "7", "--w", "0,1,3", "--format", "csv",
        "--cache-dir", str(tmp_path),
    )
    assert (code, err) == (0, "")
    # the rows the matrix-based group gave before the element table
    w0 = "1.3.4.2.5.4.3.1.6.5.4.2.3.4.5.6.7.6.5.4.2.3.1.4.3.5.4.2.6.5.4"
    assert out.splitlines() == [
        "y,h",
        f"1.3.1.{w0[4:]}.3.1|-1,0,0,0,0,0,0,v",
        f"{w0}.3.1|-1,0,0,0,0,0,0,v^2",
        f"{w0}.3|1,0,-1,0,0,0,0,v",
        f"{w0}|0,0,1,-1,0,0,0,1",
        "1.3|0,0,0,0,0,0,0,v",
        "1|0,0,0,0,0,0,0,v^2",
        "3|0,0,0,0,0,0,0,v^2",
        "e|0,0,0,0,0,0,0,v^3",
    ]
    # the process-wide table also holds what earlier tests numbered, so the
    # count is taken in a fresh interpreter that runs only this command
    script = (
        "import contextlib, io, sys\n"
        "from alcove_kl.cli import main\n"
        "from alcove_kl.rootsys import build_root_system\n"
        "from alcove_kl.weylext import finite_group\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, len(finite_group(build_root_system('E', 7)).mats))\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script,
         "kl", "--type", "E", "--rank", "7", "--w", "0,1,3", "--format", "csv",
         "--cache-dir", str(tmp_path / "fresh")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    code, numbered = map(int, fresh.stdout.split())
    assert code == 0
    assert numbered < 1000


@pytest.mark.parametrize(
    "command,word,extra",
    [("kl", "0,1,2,1,0,2,1,0", 0), ("spherical", "2,1,2,1,0,1,2,1,0", 2)],
    ids=["kl", "spherical"],
)
def test_printing_a_warm_row_forms_no_group_product(tmp_path, capsys, monkeypatch, command, word, extra):
    """A cached row is printed from its records: the warm run forms only
    the products of reading --w (and, for spherical, of the rank-2
    coset-maximality test), not one per printed label."""
    args = (command, "--type", "B", "--rank", "2", "--w", word, "--cache-dir", str(tmp_path))
    cold = run(capsys, *args)
    calls = []
    mul = ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    warm = run(capsys, *args)
    assert warm == cold and cold[0] == 0
    assert len(cold[1].splitlines()) > 8
    assert len(calls) == len(word.split(",")) + extra


@pytest.mark.parametrize(
    "argv,reach",
    [
        (("--rank", "1", "--window", "2"), "radius 4 reaches it"),
        (("--rank", "2", "--lmax", "1", "--window", "3"), "radius 8 reaches it"),
    ],
    ids=["A1-window-2", "A2-lmax-1-window-3"],
)
def test_verify_radius_out_of_reach_exits_3(tmp_path, capsys, argv, reach):
    # whichever check meets the radius first, it reaches the CLI as a
    # WindowError, not as a failed check
    code, out, err = run(
        capsys, "verify", "--type", "A", "--p", "5", *argv, "--cache-dir", str(tmp_path)
    )
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "stabilization"
    assert payload["message"].startswith("pair y = ")
    assert reach in payload["message"]


_COMMAND_ARGS = {
    "kl": ("--type", "A", "--rank", "1", "--w", "1"),
    "spherical": ("--type", "A", "--rank", "1", "--w", "1"),
    "periodic": ("--type", "A", "--rank", "1", "--p", "5"),
    "loewy": ("--type", "A", "--rank", "1", "--p", "5", "--w", "0"),
    "ext": ("--type", "A", "--rank", "1", "--p", "5", "--w", "0", "--y", "0"),
    "char": ("--type", "A", "--rank", "1", "--p", "5", "--lam", "0"),
    "verify": ("--type", "A", "--rank", "1", "--p", "5"),
}

_UNREAD_FLAGS = [
    *((cmd, flag, value) for cmd in ("kl", "spherical")
      for flag, value in (("--window", "3"), ("--lmax", "3"), ("--seed", "1"), ("--p", "5"))),
    ("periodic", "--seed", "1"),
    ("loewy", "--seed", "1"),
    ("ext", "--lmax", "3"),
    ("ext", "--seed", "1"),
    ("char", "--window", "3"),
    ("char", "--lmax", "3"),
    ("char", "--seed", "1"),
    ("verify", "--format", "json"),
]


@pytest.mark.parametrize(
    "command,flag,value", _UNREAD_FLAGS, ids=[f"{c}{f}" for c, f, _ in _UNREAD_FLAGS]
)
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, command, flag, value):
    code, out, err = run(
        capsys, command, *_COMMAND_ARGS[command], flag, value, "--cache-dir", str(tmp_path)
    )
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert f"unrecognized arguments: {flag} {value}" in payload["message"]
