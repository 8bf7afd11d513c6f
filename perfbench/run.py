#!/usr/bin/env python3
"""Benchmark of alcove-kl: wall time, peak RSS and correctness per workload.

    python3 perfbench/run.py --workload periodic-a2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the tree under test is the directory above this one,
imported from its ``src`` with ``PYTHONPATH``.  The load is a closed loop
with one client: one operation at a time, each a ``python -m
alcove_kl.cli`` child waited for before the next starts, or (for
``queries-a2``) one library call in a child process.  A round is a first
pass on an empty cache directory followed by a repeat pass; rounds repeat
while the next one still fits in ``--seconds`` (at least two), and every
metric is the median over rounds, its times scaled by a calibration loop
(see CALIBRATION_CODE).  Every output is checked against ``reference.json``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced rounds, run
alternately with untraced ones.  The line before it is a report with
provenance, sample counts, ``ops`` and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads
from tracer import VERIFY_CHECKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

SETUP_PER_ROUND = 2  # one set-up sample is ~0.15 s and noisy: spread them over the run
MIN_ROUNDS = 2
DEADLINE_S = 170

# The speed of the machine drifts by up to half between runs, far more than
# any bound, and CPU time drifts with it.  So before each round every run
# times a fixed calibration child, which never imports alcove_kl: a fresh
# interpreter imports the stdlib modules alcove_kl uses and fills a dict of
# tuple keys, like the engine's working set.  Time metrics are reported
# scaled to the speed at which that child takes CALIBRATION_REF_S:
# time * CALIBRATION_REF_S / median(calibration).
CALIBRATION_CODE = (
    "import argparse, dataclasses, fractions, functools, hashlib, itertools, json, random\n"
    "d = {}\n"
    "for i in range(100000):\n"
    "    k = (i % 613, (i * 7) % 617)\n"
    "    d[k] = d.get(k, 0) + i\n"
    "sorted(d.items())\n"
)
CALIBRATION_PER_ROUND = 2
CALIBRATION_REF_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "first_pass_s": "s",
    "repeat_pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "rows/s",
}

PER_LAYER = {
    "weylext.mul_calls": "count",
    "weylext.length_calls": "count",
    "weylext.length_hit_ratio": "ratio",
    "weylext.waff_elements_calls": "count",
    "weylext.waff_elements_s": "s",
    "alcove.generic_height_calls": "count",
    "alcove.generic_height_hit_ratio": "ratio",
    "alcove.generic_leq_calls": "count",
    "alcove.generic_leq_s": "s",
    "laurent.add_calls": "count",
    "laurent.mul_calls": "count",
    "periodic.window_builds": "count",
    "periodic.window_build_s": "s",
    "periodic.window_rows": "count",
    "periodic.window_entries": "count",
    "periodic.window_truncated_rows": "count",
    "periodic.support_band_calls": "count",
    "periodic.support_band_s": "s",
    "periodic.support_band_zero_ratio": "ratio",
    "periodic.pkl_table_s": "s",
    "periodic.periodic_kl_calls": "count",
    "periodic.periodic_kl_s": "s",
    "hecke.kl_basis_calls": "count",
    "hecke.kl_basis_s": "s",
    "hecke.spherical_kl_calls": "count",
    "hecke.spherical_kl_s": "s",
    "hecke.kl_by_duality_s": "s",
    "rootsys.kostant_calls": "count",
    "rootsys.kostant_s": "s",
    **{f"verify.check_s.{c}": "s" for c in VERIFY_CHECKS},
    "repcalc.loewy_layers_calls": "count",
    "repcalc.loewy_layers_s": "s",
    "repcalc.ext_dim_calls": "count",
    "repcalc.ext_dim_s": "s",
    "cache.load_s": "s",
    "cache.records_loaded": "count",
    "cache.put_calls": "count",
    "cache.put_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cli.cmd_s": "s",
    "cli.self_s": "s",
    "cli.process_s": "s",
    **{f"{layer}.self_s": "s" for layer in ("rootsys", "weylext", "alcove", "hecke", "periodic", "repcalc", "verify", "cache")},
    "trace.overhead_ratio": "ratio",
}

SETUP_CODE = (
    "import sys, alcove_kl, alcove_kl.cli\n"
    "from alcove_kl.rootsys import build_root_system\n"
    "for spec in sys.argv[1:]:\n"
    "    t, r = spec.split(':')\n"
    "    build_root_system(t, int(r))\n"
    "print(alcove_kl.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot measure this tree (isolation, missing source)."""


class Deadline(BaseException):
    """The run hit its time limit or was asked to stop."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs and checks the operations of one benchmark run."""

    def __init__(self, work: Path, ref: dict):
        self.work = work
        self.ref = ref
        self.env = {k: v for k, v in os.environ.items() if k not in ("ALCOVE_KL_CACHE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["HOME"] = str(work / "home")  # a forgotten --cache-dir stays in the work dir
        self.proc: subprocess.Popen | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    # -- processes -------------------------------------------------------

    def spawn(self, cmd: list[str], workload: bool = True) -> tuple[float, int, bytes, str]:
        """Run one child to completion: (wall s, exit code, stdout, stderr).

        A workload child's own peak RSS, from ``wait4`` rather than
        RUSAGE_CHILDREN (which keeps the maximum of every child reaped),
        counts towards ``peak_rss_mb``.
        """
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(self.proc.pid, 0)
            wall = time.perf_counter() - start
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        code, self.proc = self.proc.returncode, None
        if workload:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        return wall, code, out_path.read_bytes(), err_path.read_text(errors="replace")

    def stop(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def check_file(self, path: str) -> None:
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"alcove_kl imported from {path}, outside the tree under test {SRC}")

    def setup_sample(self, systems: list[str]) -> float:
        wall, code, out, err = self.spawn([sys.executable, "-c", SETUP_CODE, *systems])
        if code != 0:
            raise BenchError(f"set-up sample failed: {err.strip()[-500:]}")
        self.check_file(out.decode().strip())
        return wall

    def calibration_sample(self) -> float:
        wall, code, _, err = self.spawn([sys.executable, "-c", CALIBRATION_CODE], workload=False)
        if code != 0:
            raise BenchError(f"calibration loop failed: {err.strip()[-500:]}")
        return wall

    # -- CLI operations --------------------------------------------------

    def cli_op(self, argv: list[str], cache_dir: Path, trace_out: Path | None = None, op_id: str = ""):
        """Run and check one CLI command; returns (wall s, output lines)."""
        full = [*argv, "--cache-dir", str(cache_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "alcove_kl.cli", *full]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(trace_out), op_id, *full]
        wall, code, out, err = self.spawn(cmd)
        self.attempted += 1
        key = workloads.ref_key(argv)
        expected = self.ref["cli"].get(key)
        problem = None
        if expected is None:
            problem = "no reference output"
        elif code != expected["exit"]:
            problem = f"exit {code}, expected {expected['exit']}"
        elif "Traceback" in err:
            problem = "traceback on stderr"
        elif expected["error"] is not None and error_kind(err) != expected["error"]:
            problem = f"error kind {error_kind(err)!r}, expected {expected['error']!r}"
        elif sha256(out) != expected["sha256"]:
            problem = "stdout differs from the reference"
        if problem:
            self.failures.append(f"{key}: {problem}; stderr: {err.strip()[-300:]}")
        return wall, out.count(b"\n")

    def cli_round(self, wl: workloads.Workload, traced: bool, layers: "LayerStats | None"):
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        if any(cache_dir.iterdir()):
            raise BenchError(f"cache directory {cache_dir} is not empty")
        times, rows = {}, 0
        for pass_name, ops in (("first", wl.first), ("repeat", wl.repeat)):
            total = 0.0
            for n, argv in enumerate(ops):
                trace_out = self.work / "trace.json" if traced else None
                wall, lines = self.cli_op(argv, cache_dir, trace_out, f"{pass_name}:{n}")
                total += wall
                rows += lines
                if traced:
                    trace = json.loads(trace_out.read_text())
                    self.check_file(trace["file"])
                    layers.add(trace, child_wall=wall)
                    if pass_name == "first" and trace["counts"].get("cache.hits", 0):
                        raise BenchError(f"first-pass operation {argv} read the cache")
            times[pass_name] = total
        shutil.rmtree(cache_dir)
        return times["first"], times["repeat"], rows, None

    # -- the library workload --------------------------------------------

    def queries_round(self, wl: workloads.Workload, traced: bool, layers: "LayerStats | None"):
        config = dict(wl.queries, trace_out=str(self.work / "trace.json") if traced else None)
        wall, code, out, err = self.spawn([sys.executable, str(HERE / "child.py"), "queries", json.dumps(config)])
        expected = self.ref["queries"][f"bound={config['bound']} radius={config['radius']}"]
        try:
            report = json.loads(out.decode().strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            report = None
        if code != 0 or report is None:
            self.attempted += wl.ops_per_round
            for _ in range(wl.ops_per_round):
                self.failures.append(f"queries child exited {code}: {err.strip()[-300:]}")
            return wall, wall, 0, None
        self.check_file(report["file"])
        times, rows = {}, 0
        for pass_name in ("first", "repeat"):
            times[pass_name] = sum(r["s"] for r in report["passes"][pass_name])
            for r in report["passes"][pass_name]:
                self.attempted += 1
                if r["sha"] is None or r["sha"] != expected.get(r["word"]):
                    self.failures.append(f"query {r['word']} ({pass_name}): result differs from the reference")
                rows += r["values"]
        if traced:
            layers.add(json.loads(Path(config["trace_out"]).read_text()), child_wall=None)
        return times["first"], times["repeat"], rows, report["setup_s"]


def error_kind(stderr: str):
    lines = [line for line in stderr.strip().splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]).get("error")
    except (IndexError, json.JSONDecodeError, AttributeError):
        return None


class LayerStats:
    """Per-layer totals of the traced operations of one round."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.process_s = 0.0

    def add(self, trace: dict, child_wall: float | None) -> None:
        names, spans = trace["names"], trace["spans"]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        op_self: Counter = Counter()
        op_root: dict[str, tuple[str, int]] = {}
        for i, (name_id, start, end, parent, op) in enumerate(spans):
            name, dur = names[name_id], end - start
            own = dur - child_ns[i]
            self.calls[name] += 1
            self.self_ns[name] += own
            op_self[op] += own
            if parent < 0:
                if op in op_root:
                    raise BenchError(f"operation {op} has two root spans")
                op_root[op] = (name, dur)
            if not _inside_same_name(spans, i):
                self.incl_ns[name] += dur
        for op, (name, dur) in op_root.items():
            if op_self[op] > dur:
                raise BenchError(f"self times of {op} exceed its root span {name}")
        if child_wall is not None:
            cmd_ns = sum(d for n, d in op_root.values() if n == "cli.cmd")
            self.process_s += child_wall - cmd_ns / 1e9
        self.counts.update(trace["counts"])

    def metrics(self) -> dict[str, float]:
        """The PER_LAYER metrics: ``<span>_calls`` and ``<span>_s`` (inclusive
        time) for each span name, the tracer's counters, and their ratios."""
        m: dict[str, float] = dict(self.counts)
        for name, calls in self.calls.items():
            m[f"{name}_calls"] = calls
            m[f"{name}_s"] = self.incl_ns[name] / 1e9
        for check in VERIFY_CHECKS:
            m[f"verify.check_s.{check}"] = self.incl_ns[f"verify.check.{check}"] / 1e9
        for layer in ("rootsys", "weylext", "alcove", "hecke", "periodic", "repcalc", "verify", "cache", "cli"):
            m[f"{layer}.self_s"] = sum(ns for name, ns in self.self_ns.items() if name.startswith(layer + ".")) / 1e9
        c = self.counts
        m["periodic.window_builds"] = self.calls["periodic.window_build"]
        m["weylext.length_hit_ratio"] = _ratio(c["weylext.length_hits"], c["weylext.length_calls"])
        m["alcove.generic_height_hit_ratio"] = _ratio(c["alcove.generic_height_hits"], c["alcove.generic_height_calls"])
        m["periodic.support_band_zero_ratio"] = _ratio(c["periodic.support_band_zero"], self.calls["periodic.support_band"])
        m["cli.process_s"] = self.process_s
        return {k: m.get(k, 0) for k in PER_LAYER if k != "trace.overhead_ratio"}


def _inside_same_name(spans, i: int) -> bool:
    name_id, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name_id:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def tree_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "alcove_kl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, ref: dict | None = None):
    """One benchmark run: returns (result line, report)."""
    if not (SRC / "alcove_kl" / "__init__.py").is_file():
        raise BenchError(f"no alcove_kl source under {SRC}")
    ref = ref if ref is not None else json.loads(REFERENCE.read_text())
    wl = workloads.build(name, seed, ref, tiny=tiny)
    provenance = {
        "commit": commit_id(),
        "tree_sha256": tree_sha256(),
        "reference_commit": ref["commit"],
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "ops_per_round": wl.ops_per_round,
    }
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    (work / "home").mkdir()
    runner = Runner(work, ref)
    try:
        return _measure(runner, wl, seconds, trace, provenance)
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _measure(runner: Runner, wl: workloads.Workload, seconds: float, trace: bool, provenance: dict):
    round_fn = runner.queries_round if wl.queries is not None else runner.cli_round
    cli_setup = wl.queries is None and not trace
    if cli_setup:
        runner.setup_sample(wl.systems)  # warm-up: bytecode compilation

    def calibrate() -> list[float]:
        return [runner.calibration_sample() for _ in range(CALIBRATION_PER_ROUND)]

    boundaries = []  # calibration samples before each round, and after the last one
    plain, traced = [], []  # (first pass s, repeat pass s, output rows, set-up samples) per round
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not trace:
            boundaries.append(calibrate())
        setup = [runner.setup_sample(wl.systems) for _ in range(SETUP_PER_ROUND)] if cli_setup else []
        first, repeat, rows, child_setup = round_fn(wl, False, None)
        plain.append((first, repeat, rows, setup if child_setup is None else [child_setup]))
        if trace:
            layers = LayerStats()
            traced.append((round_fn(wl, True, layers), layers))
        step = time.perf_counter() - t0
        if len(plain) >= MIN_ROUNDS and time.perf_counter() - start + step > seconds:
            break
    scales = [1.0] * len(plain)  # traced runs report unscaled times
    if not trace:
        # Each round is scaled by the calibration samples on either side of it.
        boundaries.append(calibrate())
        scales = [CALIBRATION_REF_S / statistics.median(boundaries[i] + boundaries[i + 1]) for i in range(len(plain))]
    samples = _round_samples(plain, scales)
    raw = {k: statistics.median(v) for k, v in _round_samples(plain, [1.0] * len(plain)).items() if v}
    samples["peak_rss_mb"] = [runner.peak_rss_mb]

    if trace:
        per_round = [layers.metrics() for _, layers in traced]
        for m in per_round:
            for k, v in m.items():
                samples[k].append(v)
        traced_wall = statistics.median(r[0] + r[1] for r, _ in traced)
        samples["trace.overhead_ratio"] = [traced_wall / statistics.median(samples["wall_s"])]
        units = PER_LAYER
    else:
        units = END_TO_END

    metrics = {k: {"value": statistics.median(samples[k]), "unit": u} for k, u in units.items()}
    attempted, failed = runner.attempted, len(runner.failures)
    report = {
        "provenance": provenance,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "failures": runner.failures[:10],
        "metrics": {k: {**v, "samples": len(samples[k])} for k, v in metrics.items()},
    }
    report["metrics"]["ops"] = {"value": attempted, "unit": "count", "samples": 1}
    report["metrics"]["fail_ratio"] = {"value": failed / attempted, "unit": "ratio", "samples": 1}
    if not trace:
        report["unscaled_medians"] = raw
        report["calibration_scales"] = scales
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def _round_samples(rounds, scales) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)
    for (first, repeat, rows, setup), scale in zip(rounds, scales):
        samples["first_pass_s"].append(first * scale)
        samples["repeat_pass_s"].append(repeat * scale)
        samples["wall_s"].append((first + repeat) * scale)
        samples["rows_per_s"].append(rows / ((first + repeat) * scale))
        samples["setup_s"] += [t * scale for t in setup]
    return samples


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced: every metric of
    BENCHMARK.json is printed with its unit, and a corrupted reference
    digest is counted as a failed operation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, _ = bench(name, seed=1, seconds=0.1, trace=trace, tiny=True)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed operations")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, {result['attempted']} ops", file=sys.stderr)

    corrupted = copy.deepcopy(json.loads(REFERENCE.read_text()))
    key = workloads.ref_key(workloads.build("periodic-a2", 1, corrupted, tiny=True).first[0])
    corrupted["cli"][key]["sha256"] = "0" * 64
    result, report = bench("periodic-a2", seed=1, seconds=0.1, trace=False, tiny=True, ref=corrupted)
    if not report["metrics"]["fail_ratio"]["value"] > 0 or result["correct"]:
        problems.append("a corrupted reference digest did not raise fail_ratio above 0")

    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    if not problems:
        print("smoke ok")
    return 1 if problems else 0


def _on_signal(signum, frame):
    raise Deadline(signal.Signals(signum).name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(DEADLINE_S)
    try:
        if args.smoke:
            return smoke()
        result, report = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Deadline as exc:
        print(f"benchmark error: stopped by {exc} (time limit {DEADLINE_S} s)", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
