"""Exact alcove combinatorics and Kazhdan-Lusztig-type polynomials.

The package computes, in exact integer arithmetic: root data and Kostant
partition values, the extended affine Weyl group with its dot-action and
check involution, alcove wall-crossing combinatorics, canonical bases of
the affine Hecke algebra and its spherical module, the periodic
coefficients p_{y,w} by window-truncated wall-crossing recursion with
stabilization detection, and the Ext/Loewy/character tables built on
top of them, all guarded by a built-in identity-verification harness.

Importing the package executes none of its modules.  Each name of
``__all__`` and each module (``alcove_kl.hecke``, ...) is looked up on
first access (PEP 562), which executes the module that defines it; an
import statement naming a module executes it as usual.  So a
command-line run compiles only the layers it reaches: printing a cached
table needs neither the Hecke algebra nor the periodic engine.  Each
module is also entered in ``sys.modules`` when the package is imported,
through ``importlib.util.LazyLoader``, to be executed on first use, so
code that looks a module up there after importing the package (the
benchmark's tracer does) finds it.
"""

import importlib
import importlib.util
import sys

# the layer each exported name is defined in
_EXPORTS = {
    "alcove": ("generic_height", "generic_leq"),
    "hecke": ("kl_basis", "kl_basis_by_duality", "mul_gen", "spherical_kl"),
    "laurent": ("LaurentPoly",),
    "periodic": ("PKLTable", "periodic_kl", "pkl_table"),
    "repcalc": (
        "GradedMultTable",
        "StdLabel",
        "baby_verma_weight_dim",
        "ext_dim",
        "loewy_layers",
        "nabla_weight_dim",
        "socle_degree_check",
        "verma_weight_dim",
    ),
    "rootsys": (
        "ModularContext",
        "RootSystem",
        "Weight",
        "build_root_system",
        "dominance_leq",
        "is_restricted",
        "kostant_partition",
    ),
    "verify": ("run_suite",),
    "weylext": (
        "ExtWeylElt",
        "check",
        "dot_action",
        "length",
        "omega_group",
        "rho_check_involution",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

# every module but the command line, which ``python -m`` runs as __main__
_LAYERS = (*_EXPORTS, "cache", "errors")


def _register_lazily(name: str) -> None:
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)


for _name in _LAYERS:
    _register_lazily(_name)
del _name


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__all__})
