"""Exact alcove combinatorics and Kazhdan-Lusztig-type polynomials.

The package computes, in exact integer arithmetic: root data and Kostant
partition values, the extended affine Weyl group with its dot-action and
check involution, alcove wall-crossing combinatorics, canonical bases of
the affine Hecke algebra and its spherical module, the periodic
coefficients p_{y,w} by window-truncated wall-crossing recursion with
stabilization detection, and the Ext/Loewy/character tables built on
top of them, all guarded by a built-in identity-verification harness.
"""

from .alcove import generic_height, generic_leq, wall_cross
from .hecke import HeckeElt, SphericalElt, kl_basis, kl_basis_by_duality, mul_gen, spherical_kl
from .laurent import LaurentPoly
from .periodic import PeriodicElt, PKLTable, periodic_act_gen, periodic_kl, pkl_table
from .repcalc import (
    ExtTable,
    GradedMultTable,
    StdLabel,
    baby_verma_weight_dim,
    ext_dim,
    ext_table,
    loewy_layers,
    nabla_weight_dim,
    socle_degree_check,
    translation_pattern,
    verma_weight_dim,
)
from .rootsys import (
    ModularContext,
    RootSystem,
    Weight,
    build_root_system,
    dominance_leq,
    is_restricted,
    kostant_partition,
)
from .verify import run_suite
from .weylext import (
    ExtWeylElt,
    bruhat_leq,
    check,
    conjugate_affine_simple,
    dot_action,
    dot_stabilizer,
    find_mu_s,
    length,
    omega_group,
    restricted_elements,
    rho_check_involution,
)

__all__ = [
    "ExtTable",
    "ExtWeylElt",
    "GradedMultTable",
    "HeckeElt",
    "LaurentPoly",
    "ModularContext",
    "PKLTable",
    "PeriodicElt",
    "RootSystem",
    "SphericalElt",
    "StdLabel",
    "Weight",
    "baby_verma_weight_dim",
    "bruhat_leq",
    "build_root_system",
    "check",
    "conjugate_affine_simple",
    "dominance_leq",
    "dot_action",
    "dot_stabilizer",
    "ext_dim",
    "ext_table",
    "find_mu_s",
    "generic_height",
    "generic_leq",
    "is_restricted",
    "kl_basis",
    "kl_basis_by_duality",
    "kostant_partition",
    "length",
    "loewy_layers",
    "mul_gen",
    "nabla_weight_dim",
    "omega_group",
    "periodic_act_gen",
    "periodic_kl",
    "pkl_table",
    "restricted_elements",
    "rho_check_involution",
    "run_suite",
    "socle_degree_check",
    "spherical_kl",
    "translation_pattern",
    "verma_weight_dim",
    "wall_cross",
]
