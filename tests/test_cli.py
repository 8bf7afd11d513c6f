import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alcove_kl import cache, errors
from alcove_kl.cache import cache_dir
from alcove_kl.cli import CLOSED_STDOUT, FORMATS, main
from alcove_kl.laurent import LaurentPoly
from alcove_kl.repcalc import default_radius
from alcove_kl.rootsys import PRIME_BOUND, build_root_system
from alcove_kl.weylext import ExtWeylElt, identity_elt

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
    stamp = cache_file.read_bytes()
    with open(cache_file, "ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
    code, out2, err = run(capsys, *args)
    assert code == 0, err
    assert out2 == out1
    # the valid record still hits, and the tie of one dead line is compacted
    assert cache_file.read_bytes() == stamp


@pytest.mark.parametrize(
    "key", ["1", "null", '["engine 1:x"]', '{"k": 1}'], ids=["int", "null", "list", "object"]
)
def test_cache_line_with_a_non_string_key_is_skipped(tmp_path, capsys, key):
    args = ("kl", "--type", "A", "--rank", "2", "--w", "1")
    _, cold, _ = run(capsys, *args, "--cache-dir", str(tmp_path / "cold"))
    (tmp_path / "bad").mkdir()
    (tmp_path / "bad" / "kl_A2.jsonl").write_text(f'{{"key": {key}, "payload": 2, "sha": "x"}}\n')
    code, out, err = run(capsys, *args, "--cache-dir", str(tmp_path / "bad"))
    assert code == 0, err
    assert out == cold


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
# A change to an emitted value must also bump alcove_kl.cache.ENGINE_VERSION,
# so that no cache serves a record written before it.
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


# sha256 of char stdout outside type A, for the three modules
CHAR_EXAMPLES = {
    "char --type B --rank 2 --p 7 --lam 2,-1 --module Z":
        "36c12bdfbd04ca6134320cdcd853051b41e258a0ea19d59b90397e01bcadbb8b",
    "char --type B --rank 2 --p 7 --lam 2,-1 --module Delta":
        "19bc3632d887196d0b967101e3c48fac34a09b14b461bcad3eedb1e8184f2d67",
    "char --type B --rank 2 --p 7 --lam 2,-1 --module Nabla":
        "19bc3632d887196d0b967101e3c48fac34a09b14b461bcad3eedb1e8184f2d67",
    "char --type G --rank 2 --p 7 --lam 0,0 --module Z":
        "151cc4e0c68f835cda3328e38d791b54b385e743ea3ea7835fdfe0d7f2e1930e",
    "char --type G --rank 2 --p 7 --lam 0,0 --module Delta":
        "f49ad2ea8504a0eb98ce6e14103c04b45d652c65a734b517cead8fdcd8a7dfec",
    "char --type G --rank 2 --p 7 --lam 0,0 --module Nabla":
        "f49ad2ea8504a0eb98ce6e14103c04b45d652c65a734b517cead8fdcd8a7dfec",
}


@pytest.mark.parametrize("command", CHAR_EXAMPLES, ids=lambda c: "{2}{4}-{10}".format(*c.split()))
def test_char_golden_stdout(tmp_path, capsys, command):
    code, out, _ = run(capsys, *command.split(), "--cache-dir", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAR_EXAMPLES[command]


@pytest.mark.parametrize("module,tables", [("Z", [4]), ("Delta", [4, None]), ("Nabla", [4, None])])
def test_char_builds_each_partition_table_once(tmp_path, capsys, monkeypatch, module, tables):
    from alcove_kl import rootsys

    bounds = []
    build = rootsys.partition_table

    def counted(sys, top, bound):
        bounds.append(bound)
        return build(sys, top, bound)

    monkeypatch.setattr(rootsys, "partition_table", counted)
    code, _, _ = run(
        capsys,
        "char", "--type", "A", "--rank", "2", "--p", "5", "--module", module, "--lam", "0,0",
        "--cache-dir", str(tmp_path),
    )
    assert (code, bounds) == (0, tables)


def test_readme_library_example():
    """The python block under "Library example" in README.md runs and its
    three expressions give the values its comments state."""
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    periodic, ext, head = values
    assert periodic == LaurentPoly.gen(3)
    assert ext.coeff(0) == 1
    identity = identity_elt(namespace["sys"])
    assert [(lab.kind, lab.index, m) for lab, m in head.items()] == [("L", identity, 1)]


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ALCOVE_KL_CACHE", str(tmp_path / "envcache"))
    assert cache_dir() == str(tmp_path / "envcache")
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


NOTE = "conditional on Lusztig's conjecture"
# the fields that --format json prints beside the rows, which the other
# formats print as a comment line before or after the table
JSON_OBJECTS = {
    "ext": ("ext --type A --rank 2 --p 5 --w 1 --y 1", {"note": NOTE, "series": "1"}),
    "loewy": ("loewy --type A --rank 1 --p 5 --w 0,1", {"note": NOTE}),
    "char": ("char --type A --rank 1 --p 5 --lam 0", {"total": 5}),
}


@pytest.mark.parametrize("command", JSON_OBJECTS)
def test_json_format_prints_one_object(tmp_path, capsys, command):
    import csv

    args, fields = JSON_OBJECTS[command]
    code, out, _ = run(capsys, *args.split(), "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    rows = doc.pop("rows")
    assert doc == fields
    _, table, _ = run(capsys, *args.split(), "--format", "csv", "--cache-dir", str(tmp_path))
    lines = [line for line in table.splitlines() if not line.startswith("#")]
    assert rows == list(csv.DictReader(lines)) and rows


def test_ext_constant_term(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "ext", "--type", "A", "--rank", "2", "--p", "5",
        "--w", "1", "--y", "1", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "conditional on Lusztig's conjecture" in out
    assert "0       1" in out or "0  1" in out


def test_ext_at_a_large_prime_prints_the_rows_of_a_small_one(tmp_path, capsys):
    def ext(p):
        return run(
            capsys,
            "ext", "--type", "A", "--rank", "1", "--p", str(p),
            "--w", "1", "--y", "1", "--cache-dir", str(tmp_path),
        )

    assert ext(2**61 - 1) == ext(5)
    code, out, err = ext(PRIME_BOUND)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "config" and str(PRIME_BOUND) in err


@pytest.mark.parametrize("command", [["char", "--lam", "0"], ["verify"]], ids=["char", "verify"])
def test_a_weight_box_that_grows_with_p_is_refused_before_it_is_enumerated(tmp_path, command):
    # enumerating the box of p = 2^61 - 1 ran out of memory; the address
    # space is capped so that a regression fails here, not on the host
    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "alcove_kl.cli", command[0], "--type", "A", "--rank", "1",
         "--p", str(2**61 - 1), *command[1:], "--cache-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )
    assert (done.returncode, done.stdout) == (3, "")
    payload = json.loads(done.stderr)
    assert payload["error"] == "bound"
    assert f"holds {2**61 - 1} weights, more than the bound 1000000" in payload["message"]


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


def test_type_choices_are_the_supported_cartan_types(tmp_path, capsys):
    from alcove_kl import rootsys
    from alcove_kl.cli import CARTAN_TYPES

    assert CARTAN_TYPES == tuple(sorted(rootsys._RANK_RANGE))
    # either case names one system, and so one record file
    upper, lower = (
        run(capsys, "kl", "--type", cartan, "--rank", "2", "--w", "1,2", "--cache-dir", str(tmp_path))
        for cartan in ("A", "a")
    )
    assert upper == lower and upper[0] == 0
    assert [f.name for f in tmp_path.iterdir()] == ["kl_A2.jsonl"]
    assert len((tmp_path / "kl_A2.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize("cartan", ["../x", "Q", "AB", "b/../a"])
def test_a_type_outside_the_cartan_letters_touches_no_cache_path(tmp_path, capsys, cartan):
    """The record file is named from --type, so --type is checked before
    any path is formed: nothing is created, not even the directory."""
    for command, *rest in (("kl", "--w", "1"), ("spherical", "--w", "1"),
                           ("periodic", "--p", "5", "--window", "4")):
        code, out, err = run(capsys, command, "--type", cartan, "--rank", "2", *rest,
                             "--cache-dir", str(tmp_path / "cache"))
        assert (code, out) == (2, ""), command
        assert json.loads(err)["error"] == "config", command
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,code,kind",
    [
        (("kl", "--type", "A", "--rank", "2", "--w", "1,3"), 2, "config"),
        (("kl", "--type", "A", "--rank", "0", "--w", "1"), 2, "config"),
        (("kl", "--type", "A", "--rank", "1", "--w", ",".join("01" * 35)), 3, "bound"),
        (("spherical", "--type", "A", "--rank", "2", "--w", "1"), 2, "config"),
        (("periodic", "--type", "A", "--rank", "2", "--p", "4", "--window", "8"), 2, "config"),
        (("periodic", "--type", "A", "--rank", "2", "--p", "3", "--window", "8"), 2, "config"),
    ],
    ids=["index", "rank", "length", "coset", "composite", "p-below-h"],
)
def test_a_refused_request_stores_no_record(tmp_path, capsys, argv, code, kind):
    """A record is keyed by the request, and stored only once every check
    of it has passed, so a refused request is refused again on every run."""
    for _ in range(2):
        got, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (got, out) == (code, "")
        assert json.loads(err)["error"] == kind
    assert [f.read_text() for f in tmp_path.iterdir()] in ([], [""])


@pytest.mark.parametrize("command", ["kl", "spherical"])
def test_two_words_for_one_element_print_identical_bytes(tmp_path, capsys, command):
    """A row is keyed by the word as given: two spellings of one element
    each compute once under their own key and print the same bytes, cold
    and warm, and the separators of a word do not enter its key."""
    words = ("1,2,1,0", "2,1,2,0", " 1 2, 1,0")
    runs = [
        run(capsys, command, "--type", "A", "--rank", "2", "--w", word,
            "--cache-dir", str(tmp_path))
        for _ in range(2)
        for word in words
    ]
    assert runs[0][0] == 0 and len(runs[0][1].splitlines()) > 2
    assert set(runs) == {runs[0]}
    lines = (tmp_path / f"{command}_A2.jsonl").read_text().splitlines()
    assert [json.loads(line)["key"] for line in lines] == [
        f"engine {cache.ENGINE_VERSION}:w=1,2,1,0",
        f"engine {cache.ENGINE_VERSION}:w=2,1,2,0",
    ]


def test_p_help_names_the_primality_bound(capsys):
    with pytest.raises(SystemExit) as info:
        main(["periodic", "--help"])
    assert info.value.code == 0
    assert str(PRIME_BOUND) in capsys.readouterr().out.split()


@pytest.mark.parametrize(
    "argv",
    [
        ("kl", "--type", "A", "--rank", "x", "--w", "1"),
        ("kl", "--type", "A", "--rank", "2"),
        ("frob", "--type", "A"),
        (),
        ("kl", "--type", "A", "--rank", "2", "--w", "1", "--format", "xml"),
        ("kl", "--type", "A", "--w", "1"),
        ("periodic", "--type", "A", "--rank", "1", "--window", "4"),
    ],
    ids=["malformed-int", "missing-w", "unknown-command", "no-command", "bad-choice",
         "missing-rank", "missing-p"],
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
    assert payload["error"] == "bound"
    assert "of length 5" in payload["message"]
    assert "bound 4" in payload["message"]


def test_identity_gate_exit_code(tmp_path, capsys):
    # a refused system writes no record, so it is refused again on every run
    for _ in range(2):
        code, _, err = run(
            capsys,
            "periodic", "--type", "B", "--rank", "2", "--p", "5",
            "--lmax", "2", "--cache-dir", str(tmp_path),
        )
        assert code == 4
        assert json.loads(err)["error"] == "identity"
    assert not (tmp_path / "periodic_B2.jsonl").exists()


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
    monkeypatch.setattr("alcove_kl.hecke.kl_basis", lambda *args: calls.append(args) or {})
    code, out, err = run(
        capsys,
        "kl", "--type", "A", "--rank", "2", "--w", "1,2,1", "--cache-dir", str(not_a_dir),
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"
    assert calls == []  # the row is never computed


def test_unusable_cache_dir_fails_before_any_window_is_built(tmp_path, capsys, monkeypatch):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    calls = []  # pkl_table builds the windows and runs the gate
    monkeypatch.setattr("alcove_kl.periodic.pkl_table", lambda *args: calls.append(args))
    code, out, err = run(
        capsys,
        "periodic", "--type", "A", "--rank", "1", "--p", "5", "--cache-dir", str(not_a_dir),
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "config"
    assert calls == []


_PERIODIC_TABLES = {
    "A1": ("--type", "A", "--rank", "1", "--p", "5", "--lmax", "6"),
    "A2": ("--type", "A", "--rank", "2", "--p", "5", "--lmax", "4", "--window", "10"),
}


def _refuse_to_compute(*args):
    raise AssertionError("a warm run computed the periodic table")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("system", _PERIODIC_TABLES)
def test_warm_periodic_table_prints_the_cold_bytes(tmp_path, capsys, monkeypatch, system, fmt):
    """A warm run prints the stored table: the same bytes, with no table
    computed, no group product formed and nothing appended."""
    args = ("periodic", *_PERIODIC_TABLES[system], "--format", fmt, "--cache-dir", str(tmp_path))
    cold = run(capsys, *args)
    assert cold[0] == 0 and len(cold[1].splitlines()) > 20
    cache_file = tmp_path / f"periodic_{system}.jsonl"
    stamp = cache_file.read_bytes()
    assert len(stamp.splitlines()) == 1  # one record per table
    monkeypatch.setattr("alcove_kl.periodic.pkl_table", _refuse_to_compute)
    calls = []
    mul = ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    warm = run(capsys, *args)
    assert warm == cold
    assert calls == []
    assert cache_file.read_bytes() == stamp


def test_periodic_key_resolves_the_default_radius(tmp_path, capsys, monkeypatch):
    """A missing --window and the default radius spelled out are one table."""
    base = ("periodic", "--type", "A", "--rank", "1", "--p", "5", "--cache-dir", str(tmp_path))
    cold = run(capsys, *base)
    monkeypatch.setattr("alcove_kl.periodic.pkl_table", _refuse_to_compute)
    radius = str(default_radius(build_root_system("A", 1)))
    assert run(capsys, *base, "--window", radius) == cold


def test_corrupt_periodic_record_is_recomputed(tmp_path, capsys):
    args = ("periodic", "--type", "A", "--rank", "1", "--p", "5", "--lmax", "3",
            "--cache-dir", str(tmp_path))
    _, out1, _ = run(capsys, *args)
    cache_file = tmp_path / "periodic_A1.jsonl"
    record = cache_file.read_text()
    # change one alphanumeric character of the payload, whatever its layout:
    # the line still parses, but its checksum fails
    start = record.index('"payload":')
    at = next(i for i in range(start + len('"payload":'), len(record)) if record[i].isalnum())
    corrupt = record[:at] + ("1" if record[at] == "0" else "0") + record[at + 1 :]
    cache_file.write_text(corrupt)
    assert cache_file.read_text() != record
    json.loads(corrupt)
    code, out2, _ = run(capsys, *args)
    assert (code, out2) == (0, out1)
    lines = cache_file.read_text().splitlines()
    assert len(lines) == 2 and lines[1] == record.strip()  # the fresh record


@pytest.mark.parametrize(
    "argv,name,compute",
    [
        (("kl", "--type", "B", "--rank", "2", "--w", "2,1,2,0,1"), "kl_B2", "hecke.kl_basis"),
        (("periodic", *_PERIODIC_TABLES["A2"]), "periodic_A2", "periodic.pkl_table"),
    ],
    ids=["kl", "periodic"],
)
def test_a_pretty_record_serves_every_format(tmp_path, capsys, monkeypatch, argv, name, compute):
    """A record holds the printed cells, not one format's text: the record
    a cold pretty run stores prints, in each other format, the bytes a
    cold run in that format prints."""
    warm = ("--cache-dir", str(tmp_path / "warm"))
    assert run(capsys, *argv, *warm)[0] == 0
    cache_file = tmp_path / "warm" / f"{name}.jsonl"
    stamp = cache_file.read_bytes()
    colds = {
        fmt: run(capsys, *argv, "--format", fmt, "--cache-dir", str(tmp_path / fmt))
        for fmt in ("json", "csv", "latex")
    }
    monkeypatch.setattr(f"alcove_kl.{compute}", _refuse_to_compute)
    for fmt, cold in colds.items():
        assert cold[0] == 0 and len(cold[1].splitlines()) > 5, fmt
        assert run(capsys, *argv, "--format", fmt, *warm) == cold, fmt
    assert cache_file.read_bytes() == stamp


@pytest.mark.parametrize(
    "argv",
    [
        ("kl", "--type", "A", "--rank", "2", "--w", "1,2,0"),
        ("periodic", "--type", "A", "--rank", "2", "--p", "5", "--lmax", "1", "--window", "8"),
    ],
    ids=["kl", "periodic"],
)
def test_csv_rows_read_back_with_the_header_width(tmp_path, capsys, argv):
    """Labels such as ``1.2.1|-1,-1`` hold commas, so their cells are
    quoted and ``csv.reader`` reads each row back with the header's width."""
    import csv

    for cache_state in ("cold", "warm"):
        code, out, _ = run(capsys, *argv, "--format", "csv", "--cache-dir", str(tmp_path))
        rows = list(csv.reader(out.splitlines()))
        assert code == 0 and len(rows) > 5, cache_state
        assert {len(row) for row in rows} == {len(rows[0])}, cache_state
        assert any("," in cell for row in rows for cell in row), cache_state


@pytest.mark.parametrize(
    "argv,name",
    [
        (("kl", "--type", "A", "--rank", "1", "--w", "1,0"), "kl_A1"),
        (("spherical", "--type", "A", "--rank", "1", "--w", "1,0"), "spherical_A1"),
        (("periodic", "--type", "A", "--rank", "1", "--p", "5", "--lmax", "3"), "periodic_A1"),
    ],
    ids=["kl", "spherical", "periodic"],
)
def test_record_of_another_engine_version_is_recomputed(tmp_path, capsys, monkeypatch, argv, name):
    args = (*argv, "--cache-dir", str(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(cache, "ENGINE_VERSION", cache.ENGINE_VERSION - 1)
        old = run(capsys, *args)
    cache_file = tmp_path / f"{name}.jsonl"
    assert len(cache_file.read_text().splitlines()) == 1
    new = run(capsys, *args)
    assert new == old and new[0] == 0
    keys = [json.loads(line)["key"] for line in cache_file.read_text().splitlines()]
    assert [k.split(":", 1)[0] for k in keys] == [
        f"engine {cache.ENGINE_VERSION - 1}",
        f"engine {cache.ENGINE_VERSION}",
    ]
    assert keys[0].split(":", 1)[1] == keys[1].split(":", 1)[1]
    assert run(capsys, *args) == new  # the current record now hits
    assert len(cache_file.read_text().splitlines()) == 1  # and the tie was compacted


def _documented_exit_codes() -> dict[str, tuple[int, str]]:
    """Class name -> (exit code, error kind), read off the ``errors``
    docstring, whose clauses read "A and B -> 2 ("config")"."""
    doc = " ".join(errors.__doc__.split())
    table = {}
    start = 0
    for m in re.finditer(r'-> (\d+) \("(\w+)"\)', doc):
        for name in re.findall(r"\b[A-Z]\w*Error\b", doc[start : m.start()]):
            table[name] = (int(m.group(1)), m.group(2))
        start = m.end()
    return table


ERROR_CLASSES = sorted(
    (
        c
        for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, Exception) and c.__module__ == errors.__name__
    ),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("exc", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_documented_code(tmp_path, capsys, monkeypatch, exc):
    """Each exception class of ``alcove_kl.errors``, escaping a command,
    exits with the code and JSON error kind that the module docstring
    gives it.  The docstring maps exactly the classes the module defines,
    so a class added without a mapping fails here, and so does a mapping
    kept for a class that is gone.  The command is made to raise it."""
    documented = _documented_exit_codes()
    assert sorted(documented) == [c.__name__ for c in ERROR_CLASSES]
    want_code, kind = documented[exc.__name__]

    def fail(*args, **kwargs):
        raise exc("raised by the command")

    monkeypatch.setattr("alcove_kl.repcalc.ext_dim", fail)
    code, out, err = run(
        capsys,
        "ext", "--type", "A", "--rank", "1", "--p", "5", "--w", "1", "--y", "1",
        "--cache-dir", str(tmp_path),
    )
    assert out == ""
    assert code == want_code
    assert json.loads(err) == {"error": kind, "message": "raised by the command"}


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
        f'"1.3.1.{w0[4:]}.3.1|-1,0,0,0,0,0,0",v',
        f'"{w0}.3.1|-1,0,0,0,0,0,0",v^2',
        f'"{w0}.3|1,0,-1,0,0,0,0",v',
        f'"{w0}|0,0,1,-1,0,0,0",1',
        '"1.3|0,0,0,0,0,0,0",v',
        '"1|0,0,0,0,0,0,0",v^2',
        '"3|0,0,0,0,0,0,0",v^2',
        '"e|0,0,0,0,0,0,0",v^3',
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
    "command,word",
    [("kl", "0,1,2,1,0,2,1,0"), ("spherical", "2,1,2,1,0,1,2,1,0")],
    ids=["kl", "spherical"],
)
def test_printing_a_warm_row_forms_no_group_product(tmp_path, capsys, monkeypatch, command, word):
    """A cached row is printed from its record, found by the word as
    given: the warm run forms no product, neither one per printed label
    nor the products of reading --w into an element."""
    args = (command, "--type", "B", "--rank", "2", "--w", word, "--cache-dir", str(tmp_path))
    cold = run(capsys, *args)
    calls = []
    mul = ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    warm = run(capsys, *args)
    assert warm == cold and cold[0] == 0
    assert len(cold[1].splitlines()) > 8
    assert calls == []


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
    assert payload["error"] == "bound"
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


@pytest.mark.parametrize(
    "argv",
    [
        ("kl", "--type", "A", "--rank", "1", "--w", "0,1"),
        ("verify", "--type", "A", "--rank", "1", "--p", "5", "--lmax", "2", "--window", "6"),
    ],
    ids=["kl", "verify"],
)
def test_a_closed_stdout_ends_quietly_and_never_with_0(tmp_path, argv):
    # the read end is closed before the child starts, so its first write
    # meets a closed pipe; a cut-off verify report must not read as a pass
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "alcove_kl.cli", *argv, "--cache-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == CLOSED_STDOUT != 0
    assert done.stderr == ""
