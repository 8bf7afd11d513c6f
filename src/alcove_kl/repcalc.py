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
from dataclasses import dataclass

from .errors import ConsistencyError, DomainError, ResourceError
from .laurent import LaurentPoly
from .periodic import periodic_kl
from .rootsys import (
    ModularContext,
    RootSystem,
    Weight,
    dominance_leq,
    kostant_partition,
)
from .weylext import (
    ExtWeylElt,
    check,
    dot_action,
    dot_stabilizer,
    elt_to_json,
    find_mu_s,
    gen_indices,
    in_waff,
    length,
    restricted_element_for,
    restricted_shift,
    simple_reflection,
    w0_elt,
    waff_elements,
)

CONJECTURE_NOTE = "conditional on Lusztig's conjecture"

KINDS = ("L", "Z", "Delta", "Nabla", "P")


@dataclass(frozen=True, slots=True)
class StdLabel:
    """A label of a standard-family object, normalized so that the index
    is a restricted element and lattice translations live in the shift:
    the object indexed by t_lam x is the object of x twisted by p*lam."""

    kind: str
    index: ExtWeylElt
    shift: Weight

    @staticmethod
    def make(ctx: ModularContext, kind: str, x: ExtWeylElt) -> "StdLabel":
        if kind not in KINDS:
            raise DomainError(f"unknown family {kind!r}")
        sys = ctx.system
        return StdLabel(
            kind, restricted_element_for(sys, x.fin), ctx.p * restricted_shift(sys, x)
        )

    def weight(self, ctx: ModularContext) -> Weight:
        """The highest weight this label denotes."""
        zero = Weight.zero(ctx.system.rank)
        return dot_action(ctx, self.index, zero) + self.shift


@dataclass(frozen=True, slots=True)
class SingularVermaLabel:
    """A Verma-family label pinned to an explicit (singular-block) weight."""

    weight: Weight
    kind: str = "Delta"


@dataclass
class GradedMultTable:
    """Graded multiplicities (label, degree) -> nonnegative integer."""

    base: StdLabel
    entries: dict[tuple[StdLabel, int], int]
    note: str = CONJECTURE_NOTE

    def at_degree(self, degree: int) -> dict[StdLabel, int]:
        return {
            lab: m for (lab, deg), m in self.entries.items() if deg == degree and m
        }

    def total(self) -> int:
        return sum(self.entries.values())


@dataclass
class ExtTable:
    """Coefficients of the Ext generating series, indexed (w, y, m)."""

    system: RootSystem
    p: int
    series: dict[tuple[ExtWeylElt, ExtWeylElt], LaurentPoly]
    note: str = CONJECTURE_NOTE

    def entry(self, w: ExtWeylElt, y: ExtWeylElt, m: int) -> int:
        return self.series[(w, y)].coeff(m)


def default_radius(sys: RootSystem) -> int:
    return 3 * length(sys, w0_elt(sys)) + 4


# -- Ext series and Loewy layers ------------------------------------------------


def ext_dim(
    ctx: ModularContext,
    w: ExtWeylElt,
    y: ExtWeylElt,
    radius: int | None = None,
) -> LaurentPoly:
    """Generating series of the Ext-dimensions from the simple object of w
    to the costandard object of y; equals the periodic coefficient
    p_{y,w}."""
    sys = ctx.system
    for x in (w, y):
        if not in_waff(sys, x):
            raise DomainError("Ext series are indexed by Coxeter-group elements")
    return periodic_kl(ctx, y, w, default_radius(sys) if radius is None else radius)


def ext_table(
    ctx: ModularContext, length_bound: int, radius: int | None = None
) -> ExtTable:
    sys = ctx.system
    elements = waff_elements(sys, length_bound)
    series = {
        (w, y): ext_dim(ctx, w, y, radius) for w in elements for y in elements
    }
    return ExtTable(sys, ctx.p, series)


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
    simple is the head, and ResourceError is raised otherwise.
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
    w0 = w0_elt(sys)
    rad = default_radius(sys) if radius is None else radius
    entries: dict[tuple[StdLabel, int], int] = {}
    for y in waff_elements(sys, bound):
        p = periodic_kl(ctx, w0 * w, w0 * y, rad)
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
    is expected to fail and raises with a diagnostic.
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


def nabla_weight_dim(ctx: ModularContext, lam: Weight, mu: Weight) -> int:
    """Costandard weight spaces match the Verma ones dimension-wise."""
    return verma_weight_dim(ctx, lam, mu)


def baby_verma_support(ctx: ModularContext, lam: Weight) -> list[Weight]:
    """All weights with a nonzero baby-Verma multiplicity, by enumerating
    the truncated positive-root cone below lam."""
    sys = ctx.system
    cap = ctx.p - 1
    maxima = [cap * sum(r.root[i] for r in sys.positive_roots) for i in range(sys.rank)]
    out = []
    import itertools

    for coords in itertools.product(*(range(m + 1) for m in maxima)):
        nu = Weight(
            tuple(
                sum(sys.cartan[k][j] * coords[j] for j in range(sys.rank))
                for k in range(sys.rank)
            )
        )
        if baby_verma_weight_dim(ctx, lam, lam - nu):
            out.append(lam - nu)
    return out


def baby_verma_total_dim(ctx: ModularContext, lam: Weight) -> int:
    return sum(baby_verma_weight_dim(ctx, lam, mu) for mu in baby_verma_support(ctx, lam))


# -- translation patterns -------------------------------------------------------------


def translation_pattern(
    ctx: ModularContext,
    w: ExtWeylElt,
    i: int,
    onto_wall: bool = False,
):
    """Verma-family pattern of the translation functors through the i-th wall.

    Off the wall the wall-crossing composite has a two-step filtration
    [sub, quotient]; onto the wall a single label survives.
    """
    sys = ctx.system
    if not in_waff(sys, w):
        raise DomainError("pattern is defined for Coxeter-subgroup labels")
    if i not in gen_indices(sys):
        raise DomainError(f"no Coxeter generator with index {i}")
    zero = Weight.zero(sys.rank)
    if dot_stabilizer(ctx, zero):
        raise DomainError("the base weight must be regular")
    s = simple_reflection(sys, i)
    mu_s = find_mu_s(ctx, s)
    if onto_wall:
        return [SingularVermaLabel(dot_action(ctx, w, mu_s))]
    below = dot_action(ctx, w, zero)
    above = dot_action(ctx, w * s, zero)
    first = StdLabel.make(ctx, "Delta", w * s)
    second = StdLabel.make(ctx, "Delta", w)
    if dominance_leq(sys, below, above) and below != above:
        return [first, second]
    return [second, first]
