"""The benchmark's tracing contract, on one traced ``verify`` run.

``perfbench/child.py cli`` runs a command under ``perfbench/tracer.py``,
which wraps each ``verify.check_*`` under its ``__name__`` and times it
as a ``verify.check.<name>`` span.  A check whose wrapper lost its name
would be left unwrapped, and its span would silently read 0; so the
traced run must print what an untraced one prints, record one span per
check, and carry the ``lru_cache`` counters.
"""

import ast
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERIFY_A1 = ["verify", "--type", "A", "--rank", "1", "--p", "5"]


def _verify_checks():
    """``VERIFY_CHECKS`` as ``perfbench/tracer.py`` assigns it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["VERIFY_CHECKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no VERIFY_CHECKS")


def _run(argv, cache_dir):
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *argv, "--cache-dir", str(cache_dir)],
        cwd=ROOT, env=env, capture_output=True, stdin=subprocess.DEVNULL, timeout=120,
    )


def test_a_traced_verify_prints_the_same_and_records_one_span_per_check(tmp_path):
    trace_out = tmp_path / "trace.json"
    traced = _run(["perfbench/child.py", "cli", str(trace_out), "op", *VERIFY_A1], tmp_path / "traced")
    plain = _run(["-m", "alcove_kl.cli", *VERIFY_A1], tmp_path / "plain")
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout

    trace = json.loads(trace_out.read_text())
    spans = collections.Counter(trace["names"][span[0]] for span in trace["spans"])
    checks = _verify_checks()
    assert len(checks) == 10
    assert {check: spans[f"verify.check.{check}"] for check in checks} == dict.fromkeys(checks, 1)
    assert trace["counts"]["weylext.length_calls"] > 0
    assert trace["counts"]["alcove.generic_height_calls"] > 0
