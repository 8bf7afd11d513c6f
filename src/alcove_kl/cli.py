"""Command-line interface: compute, cache, export, verify.

Exit codes: 0 success, 2 configuration error, 3 stabilization failure,
exceeded bound (window radius, element length, weight box) or an order
query undecided within its radius, 4 identity-suite failure,
141 (``CLOSED_STDOUT``, quietly) stdout closed before the output was
written, as by ``| head -1``.  Other errors, usage errors included,
are emitted as a JSON object on stderr, of the kind ``_EXITS`` gives.
Every command takes --type, --rank and --cache-dir, and of the other
common flags (--p, --window, --lmax, --format, --seed) only those it
reads; any other flag is a usage error.  A window radius out of reach
exits 3 from every command, verify included.  Output is canonically
sorted, so identical configurations and cache states produce identical
bytes.

The layers a command may not reach (``hecke``, ``periodic``,
``repcalc``, ``verify``, ``weylext``) are imported inside the command
that reads them, or inside the closure that computes a value missing
from the cache.  A warm ``periodic`` run executes only ``cache``,
``errors``, ``laurent`` and ``rootsys``; a warm ``kl`` or ``spherical``
run adds ``weylext``, which parses --w and keys the row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

from .cache import RecordCache, cache_dir
from .errors import (
    ConfigError,
    ConsistencyError,
    DomainError,
    IndeterminateError,
    ResourceError,
    StabilizationError,
)
from .laurent import LaurentPoly
from .rootsys import PRIME_BOUND, ModularContext, Weight, build_root_system, default_radius

FORMATS = ("pretty", "json", "csv", "latex")


def _parse_word(text: str) -> list[int]:
    if not text:
        return []
    parts = text.replace(",", " ").split()
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse generator word {text!r}") from exc


def _parse_weight(text: str, rank: int) -> Weight:
    coords = _parse_word(text)
    if len(coords) != rank:
        raise ConfigError(f"weight needs {rank} coordinates, got {len(coords)}")
    return Weight(tuple(coords))


def _system(args):
    if args.type is None or args.rank is None:
        raise ConfigError("--type and --rank are required")
    return build_root_system(args.type, args.rank)


def _context(args) -> ModularContext:
    if args.p is None:
        raise ConfigError("--p is required for this command")
    return ModularContext(_system(args), args.p)


def _elt_from_flag(sys, text):
    from .weylext import from_word, gen_indices

    word = _parse_word(text)
    for i in word:
        if i not in gen_indices(sys):
            raise ConfigError(f"generator index {i} out of range")
    return from_word(sys, word)


def _emit_rows(rows, header, fmt):
    """Render a list of string tuples in the requested format."""
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2, sort_keys=True))
    elif fmt == "csv":
        print(",".join(header))
        for r in rows:
            print(",".join(str(x) for x in r))
    elif fmt == "latex":
        cols = "l" * len(header)
        print(r"\begin{tabular}{" + cols + "}")
        print(" & ".join(header) + r" \\ \hline")
        for r in rows:
            print(" & ".join(str(x) for x in r) + r" \\")
        print(r"\end{tabular}")
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def _elt_str(sys, x) -> str:
    from .weylext import elt_to_json

    return _record_str(elt_to_json(sys, x))


def _record_str(d: dict) -> str:
    """Print an element from its ``{"w", "t"}`` record (``elt_to_json``)."""
    word = ".".join(str(i) for i in d["w"]) or "e"
    tra = ",".join(str(c) for c in d["t"])
    return f"{word}|{tra}"


def _cached_records(args, name: str, key: str, compute, header, render) -> int:
    """Print the records ``compute()`` returns, cached under ``key`` in
    ``<name>.jsonl``, one table row ``render(*record)`` per record.

    The cache is opened first, so an unusable directory fails before
    anything is computed, and a record is stored only once ``compute``
    has returned: a warm run prints from the stored records alone.
    """
    cache = RecordCache(cache_dir(args.cache_dir), name)
    payload = cache.get(key)
    if payload is None:
        payload = compute()
        cache.put(key, payload)
    _emit_rows(sorted(render(*record) for record in payload), header, args.format)
    return 0


def _row_command(args, sys, w, kind: str, column: str, compute: str) -> int:
    """Print the canonical row ``hecke.<compute>(sys, w)``, cached in
    ``<kind>_<sys>``; ``hecke`` is imported only to compute it."""
    from .weylext import elt_to_json

    def records():
        from . import hecke

        row = getattr(hecke, compute)(sys, w)
        return [[elt_to_json(sys, y), p.to_json()] for y, p in row.items()]

    def render(y, p):
        return _record_str(y), str(LaurentPoly.from_json(p))

    key = json.dumps(elt_to_json(sys, w), sort_keys=True)
    return _cached_records(args, f"{kind}_{sys}", key, records, ("y", column), render)


def cmd_kl(args) -> int:
    sys = _system(args)
    w = _elt_from_flag(sys, args.w)
    return _row_command(args, sys, w, "kl", "h", "kl_basis")


def cmd_spherical(args) -> int:
    from .weylext import is_coset_maximal

    sys = _system(args)
    w = _elt_from_flag(sys, args.w)
    if not is_coset_maximal(sys, w):
        raise DomainError("the element must be maximal in its finite coset")
    return _row_command(args, sys, w, "spherical", "m", "spherical_kl")


def cmd_periodic(args) -> int:
    ctx = _context(args)
    sys = ctx.system
    radius = default_radius(sys) if args.window is None else args.window

    def records():
        from .weylext import elt_to_json
        from .periodic import pkl_table

        table = pkl_table(ctx, args.lmax, radius)
        return [
            [elt_to_json(sys, y), elt_to_json(sys, w), entry.poly.to_json(), entry.stabilized]
            for (y, w), entry in table.entries.items()
        ]

    def render(y, w, p, stabilized):
        return (
            _record_str(y),
            _record_str(w),
            str(LaurentPoly.from_json(p)),
            "yes" if stabilized else "no",
        )

    key = f"p={ctx.p}:lmax={args.lmax}:radius={radius}"
    return _cached_records(
        args, f"periodic_{sys}", key, records, ("y", "w", "p", "stabilized"), render
    )


def cmd_ext(args) -> int:
    from .repcalc import CONJECTURE_NOTE, ext_dim

    ctx = _context(args)
    sys = ctx.system
    w = _elt_from_flag(sys, args.w)
    y = _elt_from_flag(sys, args.y)
    series = ext_dim(ctx, w, y, args.window)
    rows = [(m, c) for m, c in series.terms]
    print(f"# {CONJECTURE_NOTE}; series = {series}")
    _emit_rows([(str(m), str(c)) for m, c in rows], ("degree", "dim"), args.format)
    return 0


def cmd_loewy(args) -> int:
    from .repcalc import loewy_layers

    ctx = _context(args)
    sys = ctx.system
    w = _elt_from_flag(sys, args.w)
    table = loewy_layers(ctx, w, bound=args.lmax, radius=args.window)
    rows = []
    for (label, degree), mult in table.entries.items():
        rows.append(
            (
                str(degree),
                f"L[{_elt_str(sys, label.index)}]<{','.join(str(c) for c in label.shift.coords)}>",
                str(mult),
            )
        )
    rows.sort()
    print(f"# {table.note}")
    _emit_rows(rows, ("layer", "simple", "mult"), args.format)
    return 0


def cmd_char(args) -> int:
    from .repcalc import weight_table

    ctx = _context(args)
    lam = _parse_weight(args.lam, ctx.system.rank)
    dims = weight_table(ctx, lam, ctx.p - 1)
    if args.module != "Z":
        # Delta and Nabla are read on the finite probe window of Z
        full = weight_table(ctx, lam, None)
        for mu in dims:
            dims[mu] = full[mu]
        del full
    rows = sorted((str(mu), str(d)) for mu, d in dims.items())
    _emit_rows(rows, ("weight", "dim"), args.format)
    print(f"# total {sum(dims.values())}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    ctx = _context(args)
    results = run_suite(ctx, bound=args.lmax, radius=args.window, seed=args.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.name}: {r.detail}")
    if failed:
        raise ConsistencyError(
            "; ".join(f"{r.name}: {r.detail}" for r in failed)
        )
    return 0


def _check_bounds(args) -> None:
    window, lmax = getattr(args, "window", None), getattr(args, "lmax", None)
    if window is not None and window < 1:
        raise ConfigError(f"--window must be at least 1, got {window}")
    if lmax is not None and lmax < 0:
        raise ConfigError(f"--lmax must be at least 0, got {lmax}")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ConfigError (exit 2, JSON on
    stderr) instead of printing the usage text; ``--help`` still exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="alcove-kl",
        description="Exact alcove combinatorics and Kazhdan-Lusztig-type polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, summary, flags, **defaults):
        """A subcommand taking --type, --rank and --cache-dir, and of the
        other common flags only those it reads, named in ``flags``."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--type", help="Cartan type letter (A..G)")
        p.add_argument("--rank", type=int)
        if "p" in flags:
            p_help = f"prime above the Coxeter number and below {PRIME_BOUND}"
            p.add_argument("--p", type=int, help=p_help)
        if "window" in flags:
            p.add_argument("--window", type=int, help="window radius for periodic data")
        if "lmax" in flags:
            p.add_argument("--lmax", type=int, default=4, help="length bound")
        if "format" in flags:
            p.add_argument("--format", choices=FORMATS, default="pretty")
        p.add_argument("--cache-dir", default=None)
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=fn, **defaults)
        return p

    p_kl = add("kl", cmd_kl, "canonical-basis row of an affine element", {"format"})
    p_kl.add_argument("--w", required=True, help="generator word, e.g. 0,1,2")

    p_sph = add("spherical", cmd_spherical, "spherical canonical-basis row", {"format"})
    p_sph.add_argument("--w", required=True)

    add("periodic", cmd_periodic, "table of periodic coefficients", {"p", "window", "lmax", "format"})

    p_ext = add("ext", cmd_ext, "Ext generating series of a pair", {"p", "window", "format"})
    p_ext.add_argument("--w", required=True)
    p_ext.add_argument("--y", required=True)

    p_loe = add("loewy", cmd_loewy, "radical layers of a baby Verma", {"p", "window", "lmax", "format"})
    p_loe.add_argument("--w", required=True)

    p_char = add(
        "char",
        cmd_char,
        "weight multiplicities of a standard module "
        "(Delta/Nabla are printed on the finite probe window of Z)",
        {"p", "format"},
    )
    p_char.add_argument("--module", choices=("Z", "Delta", "Nabla"), default="Z")
    p_char.add_argument("--lam", required=True, help="highest weight coordinates")

    add("verify", cmd_verify, "run the identity suite", {"p", "window", "lmax", "seed"},
        lmax=None, window=None)
    return parser


CLOSED_STDOUT = 141  # 128 + SIGPIPE, as for a process a closed pipe ends


def main(argv=None) -> int:
    try:
        status = _run(argv)
        _sys.stdout.flush()
        return status
    except BrokenPipeError:  # so that the interpreter's last flush is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return CLOSED_STDOUT


_EXITS = (
    (ConfigError, 2, "config"),
    (DomainError, 2, "config"),
    (StabilizationError, 3, "stabilization"),
    (ResourceError, 3, "bound"),
    (IndeterminateError, 3, "indeterminate"),
    (ConsistencyError, 4, "identity"),
)


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_bounds(args)
        return args.fn(args)
    except tuple(cls for cls, _, _ in _EXITS) as exc:
        code, kind = next((code, kind) for cls, code, kind in _EXITS if isinstance(exc, cls))
        print(json.dumps({"error": kind, "message": str(exc)}), file=_sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
