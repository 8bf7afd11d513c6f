"""Representation-theoretic calculators over the periodic coefficients.

Everything here manipulates labels of module families (simple, baby
Verma, Verma, costandard, projective), never modules: the tables realize
the combinatorial values that the underlying theory equates with
Ext-dimensions, radical filtrations and weight multiplicities.  Tables
whose validity depends on Lusztig's character formula carry the
corresponding annotation.
"""

from __future__ import annotations

import json

from .errors import ConsistencyError, DomainError, ResourceError
from .laurent import LaurentPoly
from .periodic import _waff_kl, periodic_kl
from .rootsys import (
    ModularContext,
    Weight,
    _Record,
    _Value,
    default_radius,
    kostant_partition,
    weight_table,
)
from .weylext import (
    ExtWeylElt,
    check,
    dot_action,
    elt_to_json,
    in_waff,
    length,
    restricted_element_for,
    restricted_shift,
    w0_elt,
    w0_waff_elements,
    waff_elements,
)

CONJECTURE_NOTE = "conditional on Lusztig's conjecture"

KINDS = ("L", "Z", "Delta", "Nabla", "P")


class StdLabel(_Value):
    """A label of a standard-family object, normalized so that the index
    is a restricted element and lattice translations live in the shift:
    the object indexed by t_lam x is the object of x twisted by p*lam."""

    __slots__ = _fields = ("kind", "index", "shift")

    @staticmethod
    def make(ctx: ModularContext, kind: str, x: ExtWeylElt) -> "StdLabel":
        if kind not in KINDS:
            raise DomainError(f"unknown family {kind!r}")
        sys = ctx.system
        shift = ctx.p * restricted_shift(sys, x)  # refuses an element of another system
        return StdLabel(kind, restricted_element_for(sys, x.fin), shift)

    def weight(self, ctx: ModularContext) -> Weight:
        """The highest weight this label denotes."""
        zero = Weight.zero(ctx.system.rank)
        return dot_action(ctx, self.index, zero) + self.shift


class GradedMultTable(_Record):
    """Graded multiplicities (label, degree) -> nonnegative integer."""

    __slots__ = _fields = ("base", "entries")
    note = CONJECTURE_NOTE

    def at_degree(self, degree: int) -> dict[StdLabel, int]:
        return {
            lab: m for (lab, deg), m in self.entries.items() if deg == degree and m
        }

    def total(self) -> int:
        return sum(self.entries.values())


# -- Ext series and Loewy layers ------------------------------------------------


def ext_dim(
    ctx: ModularContext,
    w: ExtWeylElt,
    y: ExtWeylElt,
    radius: int | None = None,
) -> LaurentPoly:
    """Generating series of the Ext-dimensions from the simple object of w
    to the costandard object of y; equals the periodic coefficient
    p_{y,w}, read by ``periodic_kl`` at the default radius unless one is
    given."""
    return periodic_kl(ctx, y, w, default_radius(ctx.system) if radius is None else radius)


def loewy_layers(
    ctx: ModularContext,
    w: ExtWeylElt,
    bound: int,
    radius: int | None = None,
) -> GradedMultTable:
    """Radical-filtration layers of the baby Verma of w.

    The multiplicity of the simple of y in the m-th layer is the m-th
    coefficient of p_{w0 w, w0 y}; by the grading comparison this is
    also the degree table of the graded baby Verma.  ``bound`` limits
    the length of the candidate labels y; it must reach w itself, whose
    simple is the head, and ResourceError is raised otherwise.  The
    candidates are read with w0 y already formed, from one list per
    system and bound (``weylext.w0_waff_elements``), so a table forms
    only w0 w.

    A table is built once per context and (w, bound, radius), with
    ``radius=None`` meaning the default radius: once it has passed the
    head check it is kept in the context's memo, and later calls return
    a copy of it.  Every kept table was read through ``periodic_kl``'s
    reader, past its identity gate; a call that raises keeps nothing.
    """
    sys = ctx.system
    if not in_waff(sys, w):
        raise DomainError("baby Verma labels here lie in the Coxeter subgroup")
    lw = length(sys, w)
    if lw > bound:
        raise ResourceError(
            f"baby Verma label {json.dumps(elt_to_json(sys, w))} of length {lw} "
            f"exceeds the length bound {bound} of the candidate labels; "
            f"bound {lw} reaches it"
        )
    rad = default_radius(sys) if radius is None else radius
    key = ("loewy_layers", w, bound, rad)
    table = ctx._memo.get(key)
    if table is None:
        table = ctx._memo[key] = _build_loewy_layers(ctx, w, bound, rad)
    return GradedMultTable(table.base, dict(table.entries))


def _build_loewy_layers(
    ctx: ModularContext, w: ExtWeylElt, bound: int, rad: int
) -> GradedMultTable:
    sys = ctx.system
    w0w = w0_elt(sys) * w
    entries: dict[tuple[StdLabel, int], int] = {}
    for w0y, y in w0_waff_elements(sys, bound):
        p = _waff_kl(ctx, w0w, w0y, rad)  # w, w0 and y lie in W_aff
        if p.is_zero:
            continue
        label = StdLabel.make(ctx, "L", y)
        for m, c in p.terms:
            if c < 0:
                raise ConsistencyError("negative layer multiplicity")
            entries[(label, m)] = entries.get((label, m), 0) + c
    table = GradedMultTable(StdLabel.make(ctx, "Z", w), entries)
    head = table.at_degree(0)
    if list(head.items()) != [(StdLabel.make(ctx, "L", w), 1)]:
        raise ConsistencyError("baby Verma head is not the expected simple")
    return table


def socle_degree_check(
    ctx: ModularContext,
    x: ExtWeylElt,
    bound: int = 3,
    radius: int | None = None,
    shift: int | None = None,
) -> bool:
    """Verify the degree bookkeeping between the two computation routes.

    The Ext series of (x, y) must match the Loewy table of y read at
    layer (shift - m), where the correct shift is the length of the
    longest finite element (the socle degree constant); any other shift
    is expected to fail and raises with a diagnostic.  The Loewy tables
    do not depend on x: checking several x on one context builds each
    table once, while the Ext series are computed on every call.
    """
    sys = ctx.system
    w0 = w0_elt(sys)
    if shift is None:
        shift = length(sys, w0)
    xv = check(ctx, x)
    socle_label = StdLabel.make(ctx, "L", xv)
    for y in waff_elements(sys, bound):
        series = ext_dim(ctx, x, y, radius)
        layers = loewy_layers(ctx, y, bound=bound + 2 * length(sys, w0), radius=radius)
        degrees = {m for m, _ in series.terms} | {
            shift - deg for (lab, deg) in layers.entries if lab == socle_label
        }
        for m in degrees:
            lhs = series.coeff(m)
            rhs = layers.entries.get((socle_label, shift - m), 0)
            if lhs != rhs:
                raise ConsistencyError(
                    f"route mismatch at degree {m} with shift {shift}: "
                    f"Ext coefficient {lhs} vs layer multiplicity {rhs} "
                    f"(correct shift is the longest-element length "
                    f"{length(sys, w0)})"
                )
    return True


# -- weight multiplicities ---------------------------------------------------------


def verma_weight_dim(ctx: ModularContext, lam: Weight, mu: Weight) -> int:
    """dim of the mu-weight space of the Verma of highest weight lam."""
    return kostant_partition(ctx.system, lam - mu)


def baby_verma_weight_dim(ctx: ModularContext, lam: Weight, mu: Weight) -> int:
    """Same for the baby Verma: partition parts are capped at p - 1."""
    return kostant_partition(ctx.system, lam - mu, bound=ctx.p - 1)


# costandard weight spaces match the Verma ones dimension-wise
nabla_weight_dim = verma_weight_dim


def baby_verma_total_dim(ctx: ModularContext, lam: Weight) -> int:
    return sum(weight_table(ctx, lam, ctx.p - 1).values())
