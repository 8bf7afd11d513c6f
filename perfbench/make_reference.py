#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference (the seed commit
recorded in ``reference.json``); later commits must reproduce them byte
for byte.  It keeps the input pools already in ``reference.json`` and
recomputes, for every input any seed can choose: the exit code, the
``"error"`` kind on stderr and the sha256 of stdout of each CLI command,
and the sha256 of the canonical JSON of each library result.  Each
cached command is run twice on one cache directory, and both outputs
must agree.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def cli_commands(pools: dict) -> list[list[str]]:
    """Every CLI argv that ``workloads.build`` can produce."""
    commands = []
    for tiny in (False, True):
        p = pools["tiny" if tiny else "full"]
        commands.append(workloads.build("periodic-a2", 0, {"pools": pools}, tiny=tiny).first[0])
        for kind, cmd, type_ in (("kl B2", "kl", "B"), ("kl G2", "kl", "G"), ("spherical B2", "spherical", "B")):
            commands += [[cmd, "--type", type_, "--rank", "2", "--w", w] for w in p[kind]]
        for vseed in p["verify seeds"]:
            commands.append(["verify", "--type", "A", "--rank", "1", "--p", "5", "--seed", str(vseed)])
            if not tiny:
                commands.append(["verify", "--type", "A", "--rank", "2", "--p", "5", "--seed", str(vseed)])
    commands.append(["periodic", "--type", "B", "--rank", "2", "--p", "5", "--lmax", "2"])
    unique = {workloads.ref_key(c): c for c in commands}
    return list(unique.values())


def main() -> int:
    old = json.loads(run.REFERENCE.read_text())
    pools = old["pools"]
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    (work / "home").mkdir()
    runner = run.Runner(work, old)
    try:
        cli = {}
        for argv in cli_commands(pools):
            cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
            outputs = []
            for _ in range(2):
                _, code, out, err = runner.spawn([sys.executable, "-m", "alcove_kl.cli", *argv, "--cache-dir", str(cache_dir)])
                outputs.append((code, out, run.error_kind(err) if code else None))
            if outputs[0] != outputs[1]:
                raise SystemExit(f"cold and warm outputs differ for {argv}")
            code, out, error = outputs[0]
            lines = out.count(b"\n")
            cli[workloads.ref_key(argv)] = {"exit": code, "error": error, "sha256": run.sha256(out), "lines": lines}
            print(f"{code} {lines:5d} {workloads.ref_key(argv)}", file=sys.stderr)
            shutil.rmtree(cache_dir)

        queries = {}
        for tiny in (False, True):
            bound = 1 if tiny else workloads.QUERY_BOUND
            words = pools["tiny" if tiny else "full"]["queries A2"]
            config = {"words": words, "bound": bound, "radius": workloads.QUERY_RADIUS, "trace_out": None}
            _, code, out, err = runner.spawn([sys.executable, str(run.HERE / "child.py"), "queries", json.dumps(config)])
            report = json.loads(out.decode().strip().splitlines()[-1])
            first, repeat = report["passes"]["first"], report["passes"]["repeat"]
            if code != 0 or any(r["sha"] is None for r in first) or [r["sha"] for r in first] != [r["sha"] for r in repeat]:
                raise SystemExit(f"queries child failed: {err}")
            queries[f"bound={bound} radius={workloads.QUERY_RADIUS}"] = {r["word"]: r["sha"] for r in first}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    ref = {"commit": run.commit_id(), "tree_sha256": run.tree_sha256(), "pools": pools, "cli": cli, "queries": queries}
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}: {len(cli)} commands, {sum(map(len, queries.values()))} queries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
