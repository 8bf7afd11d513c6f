"""In-process tracer for the benchmark's traced runs.

``Tracer.install()`` wraps the public callables of the ``alcove_kl``
layers from outside the package: it replaces each function on its
defining module and rebinds every ``from .x import f`` alias of it in the
other package modules, so calls through either name are seen.  A timed
callable records one span (name, start, end, parent span, operation id);
hot methods and ``lru_cache`` statistics are only counted.  Spans stay in
memory until ``dump`` writes them, with the counters, as one JSON file.

An untraced run installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

LAYERS = (
    "rootsys",
    "weylext",
    "alcove",
    "laurent",
    "hecke",
    "periodic",
    "repcalc",
    "verify",
    "cache",
    "cli",
)

# (module, attribute, span name): module-level callables timed as spans.
TIMED_FUNCTIONS = (
    ("weylext", "waff_elements", "weylext.waff_elements"),
    ("alcove", "generic_leq", "alcove.generic_leq"),
    ("periodic", "in_support_band", "periodic.support_band"),
    ("periodic", "pkl_table", "periodic.pkl_table"),
    ("periodic", "periodic_kl", "periodic.periodic_kl"),
    ("hecke", "kl_basis", "hecke.kl_basis"),
    ("hecke", "spherical_kl", "hecke.spherical_kl"),
    ("hecke", "kl_basis_by_duality", "hecke.kl_by_duality"),
    ("rootsys", "kostant_partition", "rootsys.kostant"),
    ("repcalc", "loewy_layers", "repcalc.loewy_layers"),
    ("repcalc", "ext_dim", "repcalc.ext_dim"),
    ("repcalc", "socle_degree_check", "repcalc.socle_degree_check"),
    ("verify", "run_suite", "verify.run_suite"),
)

VERIFY_CHECKS = (
    "monomial_identity",
    "inversion_identity",
    "rank_one_oracle",
    "kl_oracle",
    "bijections",
    "characters",
    "stabilization",
    "galleries",
    "translation_invariance",
    "flipped_convention_fails",
)

# (module, lru_cache'd function, counter prefix): read from cache_info().
LRU_COUNTED = (
    ("weylext", "length", "weylext.length"),
    ("alcove", "generic_height", "alcove.generic_height"),
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, op_id: str = "op"):
        self.op_id = op_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._lru: list = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _begin(self) -> tuple[int, int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, time.perf_counter_ns()

    def _end(self, name_id: int, idx: int, parent: int, start: int) -> None:
        self._stack.pop()
        self.spans[idx] = (name_id, start, time.perf_counter_ns(), parent, self.op_id)

    def timed(self, fn, name: str, after=None):
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``after(args, result)`` runs once the call has returned, still
        inside the span, to update counters from the result.
        """
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent, start = self._begin()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                self._end(name_id, idx, parent, start)

        return wrapper

    def counted(self, fn, counter: str):
        """Wrap a hot method so that calls are counted but not timed."""
        counts = self.counts
        counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)

        return wrapper

    def bump(self, counter: str, n: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        name_id = self._name_id(name)
        idx, parent, start = self._begin()
        try:
            yield
        finally:
            self._end(name_id, idx, parent, start)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the ``alcove_kl`` package already importable."""
        import alcove_kl.cli  # noqa: F401  (imports every layer)

        mods = {name: sys.modules[f"alcove_kl.{name}"] for name in LAYERS}
        importers = [*mods.values(), sys.modules["alcove_kl"]]
        for mod_name, attr, span_name in TIMED_FUNCTIONS:
            fn = getattr(mods[mod_name], attr)
            after = self._band_result if attr == "in_support_band" else None
            _rebind(importers, fn, self.timed(fn, span_name, after))
        for check in VERIFY_CHECKS:
            fn = getattr(mods["verify"], f"check_{check}")
            _rebind(importers, fn, self.timed(fn, f"verify.check.{check}"))

        periodic, cache = mods["periodic"], mods["cache"]
        window = periodic.PeriodicWindow
        window.__init__ = self.timed(window.__init__, "periodic.window_build", self._window_built)
        store = cache.RecordCache
        store.__init__ = self.timed(store.__init__, "cache.load", self._cache_loaded)
        store.put = self.timed(store.put, "cache.put")
        store.get = self._hit_or_miss(store.get, lambda result: result is not None)
        store.__contains__ = self._hit_or_miss(store.__contains__, bool)

        elt = mods["weylext"].ExtWeylElt
        elt.__mul__ = self.counted(elt.__mul__, "weylext.mul_calls")
        poly = mods["laurent"].LaurentPoly
        add = poly.__add__
        poly.__add__ = poly.__radd__ = self.counted(add, "laurent.add_calls")
        mul = poly.__mul__
        poly.__mul__ = poly.__rmul__ = self.counted(mul, "laurent.mul_calls")

        for mod_name, attr, prefix in LRU_COUNTED:
            self._lru.append((prefix, getattr(mods[mod_name], attr)))

    def _band_result(self, args, result) -> None:
        if not result:
            self.bump("periodic.support_band_zero")

    def _window_built(self, args, result) -> None:
        window = args[0]
        self.bump("periodic.window_rows", len(window.rows))
        self.bump("periodic.window_entries", sum(len(r) for r in window.rows.values()))
        self.bump("periodic.window_truncated_rows", sum(1 for f in window.flags.values() if f))

    def _cache_loaded(self, args, result) -> None:
        self.bump("cache.records_loaded", len(args[0]))

    def _hit_or_miss(self, fn, is_hit):
        counts = self.counts
        counts.setdefault("cache.hits", 0)
        counts.setdefault("cache.misses", 0)

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            counts["cache.hits" if is_hit(result) else "cache.misses"] += 1
            return result

        return wrapper

    # -- output ----------------------------------------------------------

    def snapshot_counts(self) -> dict[str, int]:
        counts = dict(self.counts)
        for prefix, fn in self._lru:
            info = fn.cache_info()
            counts[f"{prefix}_calls"] = info.hits + info.misses
            counts[f"{prefix}_hits"] = info.hits
        return counts

    def dump(self, path: str, extra: dict | None = None) -> None:
        body = {"names": self.names, "spans": self.spans, "counts": self.snapshot_counts()}
        if extra:
            body.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, separators=(",", ":"))


def _rebind(modules, original, wrapper) -> None:
    """Replace ``original`` under its own name in every module holding it:
    its defining module and each ``from .x import f`` alias."""
    name = original.__name__
    for mod in modules:
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)
