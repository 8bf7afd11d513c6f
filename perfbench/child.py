"""Child-process entry points of the benchmark.

    python perfbench/child.py cli TRACE_OUT OP_ID ARG...
        Run ``alcove_kl.cli.main(ARG...)`` under the tracer, inside one
        ``cli.cmd`` span, and exit with its code.  Spans and counters are
        written to TRACE_OUT at exit.

    python perfbench/child.py queries CONFIG_JSON
        The library workload: build the A2 windows and run the identity
        gate (set-up), then run the socle-degree queries twice in this
        process.  Prints one JSON line with the timings and the sha256 of
        each result's canonical JSON.  CONFIG_JSON holds ``words``,
        ``bound``, ``radius`` and ``trace_out`` (null for untraced).

Both run with ``PYTHONPATH`` pointing at the tree under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
import traceback


def _tracer(op_id: str):
    from tracer import Tracer

    tracer = Tracer(op_id)
    tracer.install()
    return tracer


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_cli(trace_out: str, op_id: str, argv: list[str]) -> int:
    tracer = _tracer(op_id)
    import alcove_kl.cli

    rc = 1
    try:
        with tracer.span("cli.cmd"):
            rc = alcove_kl.cli.main(argv)
    except SystemExit as exc:  # argparse errors
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(trace_out, extra={"file": alcove_kl.__file__})
    return rc


def canonical_sha(value) -> str:
    body = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def run_queries(config: dict) -> int:
    trace_out = config.get("trace_out")
    tracer = _tracer("setup") if trace_out else None
    import alcove_kl
    from alcove_kl import repcalc
    from alcove_kl.periodic import periodic_kl
    from alcove_kl.rootsys import ModularContext, build_root_system
    from alcove_kl.weylext import from_word, identity_elt, waff_elements

    radius, bound = config["radius"], config["bound"]
    system = build_root_system("A", 2)
    ctx = ModularContext(system, 5)

    start = time.perf_counter()
    with _span(tracer, "bench.setup"):
        e = identity_elt(system)
        periodic_kl(ctx, e, e, radius)  # builds the R and R + 1 windows, runs the gate
    setup_s = time.perf_counter() - start

    elements = [(word, from_word(system, [int(i) for i in word.split(",") if i])) for word in config["words"]]
    passes = {}
    for name in ("first", "repeat"):
        results = []
        for n, (word, x) in enumerate(elements):
            if tracer is not None:
                tracer.op_id = f"{name}:{n}"
            t0 = time.perf_counter()
            try:
                with _span(tracer, "bench.query"):
                    ok = repcalc.socle_degree_check(ctx, x, bound=bound, radius=radius)
                    ext = [repcalc.ext_dim(ctx, x, y, radius).to_json() for y in waff_elements(system, bound)]
                value = {"check": ok, "ext": ext}
                results.append({"word": word, "s": time.perf_counter() - t0, "sha": canonical_sha(value), "values": 1 + len(ext)})
            except Exception:  # an operation failure, counted by the parent
                traceback.print_exc()
                results.append({"word": word, "s": time.perf_counter() - t0, "sha": None, "values": 0})
        passes[name] = results

    if tracer is not None:
        tracer.dump(trace_out)
    print(json.dumps({"file": alcove_kl.__file__, "setup_s": setup_s, "passes": passes}))
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], argv[2], argv[3:])
    if mode == "queries":
        return run_queries(json.loads(argv[1]))
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
