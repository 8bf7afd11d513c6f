"""Command-line interface: compute, cache, export, verify.

Exit codes: 0 success, 2 configuration error, 3 stabilization failure or
exceeded bound (window radius, element length, weight box), 4
identity-suite failure, 141 (``CLOSED_STDOUT``, quietly) stdout closed
before the output was written, as by ``| head -1``.  Other errors,
usage errors included, are emitted as a JSON object on stderr, of the
kind ``_EXITS`` gives.  Every command takes --type (a letter A..G, in
either case), --rank and --cache-dir, and of the other common flags (--p, --window, --lmax,
--format, --seed) only those it reads; any other flag is a usage error,
and so is a missing --type, --rank or --p.  A window radius out of
reach exits 3 from every command, verify included.  Output is
canonically sorted, so identical configurations and cache states
produce identical bytes.

The layers a command may not reach (every one but ``cache`` and
``errors``) are imported inside the command that reads them, or inside
the closure that computes a table missing from the cache.  A cached
table is stored as the string cells it prints, in
``<command>_<TYPE><rank>.jsonl``, a name formed from the flags, so a
warm run builds no value to print it.  A ``kl`` or ``spherical`` row is
keyed by the generator word as given (``w=1,2,1``), and a ``periodic``
table by p, --lmax and the radius, so a warm ``kl``, ``spherical`` or
``periodic --window`` run executes only ``cli``, ``cache`` and
``errors``; without --window, ``periodic`` adds ``rootsys`` to resolve
the default radius, as every ``char`` run reads it.  Every check of a
request runs before its record is stored, so a record exists only for a
valid request.  No command imports ``dataclasses``: the value classes
are plain ``__slots__`` classes.
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
    ResourceError,
    StabilizationError,
)

FORMATS = ("pretty", "json", "csv", "latex")

# the Cartan types ``rootsys.build_root_system`` accepts, in either case;
# --type is upper-cased and held to them before a cache file name is
# formed from it
CARTAN_TYPES = ("A", "B", "C", "D", "E", "F", "G")


def _parse_word(text: str) -> list[int]:
    if not text:
        return []
    parts = text.replace(",", " ").split()
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse generator word {text!r}") from exc


def _parse_weight(text: str, rank: int):
    from .rootsys import Weight

    coords = _parse_word(text)
    if len(coords) != rank:
        raise ConfigError(f"weight needs {rank} coordinates, got {len(coords)}")
    return Weight(tuple(coords))


def _system(args):
    from .rootsys import build_root_system

    return build_root_system(args.type, args.rank)


def _context(args):
    from .rootsys import ModularContext

    return ModularContext(_system(args), args.p)


def _elt_from_flag(sys, text):
    from .weylext import from_word, gen_indices

    word = _parse_word(text)
    for i in word:
        if i not in gen_indices(sys):
            raise ConfigError(f"generator index {i} out of range")
    return from_word(sys, word)


def _emit_rows(rows, header, fmt, before=None, after=None, **fields):
    """Render a list of string tuples in the requested format; a CSV
    cell holding a comma or a quote is quoted as RFC 4180 says.  JSON is
    a list of row objects, or one object of ``fields`` and ``rows``; the
    other formats print the lines ``before`` and ``after`` around it."""
    if fmt == "json":
        out = [dict(zip(header, r)) for r in rows]
        print(json.dumps({**fields, "rows": out} if fields else out, indent=2, sort_keys=True))
        return
    if before is not None:
        print(before)
    if fmt == "csv":
        import csv

        writer = csv.writer(_sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
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
    if after is not None:
        print(after)


def _elt_names(sys):
    """The printer of elements of ``sys`` in the form ``word|translation``:
    the shortlex word of the finite part (``finite_word``), dotted, or
    ``e`` when empty, then the translation, as ``elt_to_json`` has them.
    Each distinct label is formatted once per printer."""
    from .weylext import finite_group

    word = finite_group(sys).word
    names: dict = {}

    def name(x) -> str:
        s = names.get(x)
        if s is None:
            s = names[x] = f"{'.'.join(map(str, word(x.fin))) or 'e'}|{','.join(map(str, x.translation))}"
        return s

    return name


def _cached_rows(args, command: str, key: str, compute, header) -> int:
    """Print the table rows ``compute()`` returns, cached under ``key`` in
    ``<command>_<TYPE><rank>.jsonl``: a record is the sorted rows, the
    string cells that ``_emit_rows`` prints in every format.

    The cache is opened first, so an unusable directory fails before
    anything is computed, and a record is stored only once ``compute``
    has returned, every check of the request passed: a warm run prints
    the stored cells as they are.
    """
    # the name str(RootSystem) gives the system, formed without building it
    name = f"{command}_{args.type}{args.rank}"
    cache = RecordCache(cache_dir(args.cache_dir), name)
    rows = cache.get(key)
    if rows is None:
        rows = sorted(compute())
        cache.put(key, rows)
    _emit_rows(rows, header, args.format)
    return 0


def _row_command(args, command: str, column: str, compute: str) -> int:
    """Print the canonical row ``hecke.<compute>(sys, w)`` of the element
    w that --w spells, keyed by the word as given (``w=1,2,1``).  Only a
    miss builds the system and the element; its generator indices are
    checked here, and its length bound and, for a spherical row, its
    coset-maximality by ``hecke``, all before the row is stored."""

    def rows():
        from . import hecke

        sys = _system(args)
        row = getattr(hecke, compute)(sys, _elt_from_flag(sys, args.w))
        text = {p: str(p) for p in set(row.values())}
        name = _elt_names(sys)
        return [(name(y), text[p]) for y, p in row.items()]

    key = "w=" + ",".join(map(str, _parse_word(args.w)))
    return _cached_rows(args, command, key, rows, ("y", column))


def cmd_kl(args) -> int:
    return _row_command(args, "kl", "h", "kl_basis")


def cmd_spherical(args) -> int:
    return _row_command(args, "spherical", "m", "spherical_kl")


def cmd_periodic(args) -> int:
    radius = args.window
    if radius is None:  # read off the system only when --window is omitted
        from .rootsys import default_radius

        radius = default_radius(_system(args))

    def rows():
        from .periodic import pkl_table

        ctx = _context(args)
        sys = ctx.system
        table = pkl_table(ctx, args.lmax, radius)
        name = _elt_names(sys)
        return [
            (
                name(y),
                name(w),
                str(entry.poly),
                "yes" if entry.stabilized else "no",
            )
            for (y, w), entry in table.entries.items()
        ]

    key = f"p={args.p}:lmax={args.lmax}:radius={radius}"
    return _cached_rows(args, "periodic", key, rows, ("y", "w", "p", "stabilized"))


def cmd_ext(args) -> int:
    from .repcalc import CONJECTURE_NOTE, ext_dim

    ctx = _context(args)
    sys = ctx.system
    w = _elt_from_flag(sys, args.w)
    y = _elt_from_flag(sys, args.y)
    series = ext_dim(ctx, w, y, args.window)
    rows = [(str(m), str(c)) for m, c in series.terms]
    _emit_rows(rows, ("degree", "dim"), args.format, before=f"# {CONJECTURE_NOTE}; series = {series}",
               note=CONJECTURE_NOTE, series=str(series))
    return 0


def cmd_loewy(args) -> int:
    from .repcalc import loewy_layers

    ctx = _context(args)
    sys = ctx.system
    w = _elt_from_flag(sys, args.w)
    table = loewy_layers(ctx, w, bound=args.lmax, radius=args.window)
    name = _elt_names(sys)
    rows = []
    for (label, degree), mult in table.entries.items():
        rows.append(
            (
                str(degree),
                f"L[{name(label.index)}]<{','.join(str(c) for c in label.shift.coords)}>",
                str(mult),
            )
        )
    rows.sort()
    _emit_rows(rows, ("layer", "simple", "mult"), args.format, before=f"# {table.note}", note=table.note)
    return 0


def cmd_char(args) -> int:
    from .rootsys import weight_table

    ctx = _context(args)
    lam = _parse_weight(args.lam, ctx.system.rank)
    dims = weight_table(ctx, lam, ctx.p - 1 if args.module == "Z" else None)
    rows = sorted((str(mu), str(d)) for mu, d in dims.items())
    total = sum(dims.values())
    _emit_rows(rows, ("weight", "dim"), args.format, after=f"# total {total}", total=total)
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


class _PrimeBound:
    """Prints as ``rootsys.PRIME_BOUND`` in the --p help, so ``rootsys``
    is imported only when that help is printed."""

    def __str__(self) -> str:
        from .rootsys import PRIME_BOUND

        return str(PRIME_BOUND)


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
        p.add_argument(
            "--type", type=str.upper, choices=CARTAN_TYPES, required=True, help="Cartan type letter"
        )
        p.add_argument("--rank", type=int, required=True)
        if "p" in flags:
            p_help = "prime above the Coxeter number and below %(bound)s"
            p.add_argument("--p", type=int, required=True, help=p_help).bound = _PrimeBound()
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
