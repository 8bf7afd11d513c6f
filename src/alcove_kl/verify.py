"""The identity-verification harness.

Each check exercises one of the structural identities that tie the
periodic coefficients, the canonical bases, and the Weyl-group
combinatorics together; together they are the package's acceptance gate.
All randomized checks take an explicit seed, and their sample sizes are
the module constants below.  Details name elements by their
``elt_to_json`` words, weights by their coordinates and values by ``str``.

Every check is a body that returns ``(passed, detail)``, built into a
``CheckResult`` by ``_check``, which applies one rule to the engine's
refusals: a ``ConsistencyError`` or ``StabilizationError`` raised inside
a check fails that check with the exception's message, and a
``WindowError`` (a pair out of reach of the radius is not a failure of
the identity), or anything else, propagates.  Only the negative control
catches a refusal itself: its flipped engine is meant to fail.
"""

from __future__ import annotations

import random
from functools import wraps

from .alcove import generic_height
from .errors import ConsistencyError, StabilizationError
from .hecke import kl_basis, kl_basis_by_duality
from .laurent import LaurentPoly
from .periodic import PeriodicWindow, _coefficient_stabilized, _gate_radius, _validate_conventions, _waff_kl, _window, _words, in_support_band, pkl_table
from .repcalc import (
    StdLabel,
    baby_verma_total_dim,
    baby_verma_weight_dim,
    loewy_layers,
    verma_weight_dim,
)
from .rootsys import ModularContext, Weight, _Record, scaled_root_coords
from .weylext import (
    check,
    is_restricted_elt,
    length,
    restricted_element_for,
    rho_check_involution,
    socle_pairs,
    translation_elt,
    w0_elt,
    w0_waff_elements,
    waff_elements,
    weyl_group,
)


class CheckResult(_Record):
    __slots__ = _fields = ("name", "passed", "detail")


def _check(name: str):
    """Build the ``CheckResult`` of a check body under ``name``, failing it
    on a refusal as the module docstring says."""

    def build(body):
        @wraps(body)
        def run(*args, **kwargs) -> CheckResult:
            try:
                return CheckResult(name, *body(*args, **kwargs))
            except (ConsistencyError, StabilizationError) as exc:
                return CheckResult(name, False, str(exc))

        return run

    return build


@_check("monomial identity")
def check_monomial_identity(ctx: ModularContext, bound: int, radius: int) -> tuple[bool, str]:
    """p_{w0 x, x} = v^{l(w0)} on the pairs (x, w0 x) of ``socle_pairs``,
    restricted x in W_aff, read through ``_waff_kl``."""
    sys = ctx.system
    expected = LaurentPoly.gen(length(sys, w0_elt(sys)))
    tested = 0
    for x, w0x in socle_pairs(sys):
        if length(sys, x) > bound:
            continue
        tested += 1
        got = _waff_kl(ctx, w0x, x, radius)
        if got != expected:
            return False, f"value {got} at length {length(sys, x)}, expected {expected}"
    return True, f"{tested} restricted elements"


@_check("inversion identity")
def check_inversion_identity(ctx: ModularContext, bound: int, radius: int) -> tuple[bool, str]:
    """v^{l(w0)} p_{w0 y, w0 check(w)}(v^-1) = p_{y,w} on all pairs in range.

    Every label lies in W_aff: y and w0 y come from ``waff_elements`` and
    ``w0_waff_elements``, and w0 check(w) lies in W_aff with w.  So the
    values are read through ``_waff_kl``, without ``periodic_kl``'s test."""
    sys = ctx.system
    w0 = w0_elt(sys)
    shift = LaurentPoly.gen(length(sys, w0))
    pairs = fails = 0
    pairs_w0 = w0_waff_elements(sys, bound)
    for w in waff_elements(sys, bound):
        w0wv = w0 * check(ctx, w)
        for w0y, y in pairs_w0:
            pairs += 1
            lhs = shift * _waff_kl(ctx, w0y, w0wv, radius).bar()
            if lhs != _waff_kl(ctx, y, w, radius):
                fails += 1
    return fails == 0, f"{pairs} pairs, {fails} failures"


@_check("rank-one oracle")
def check_rank_one_oracle(ctx: ModularContext, bound: int, radius: int) -> tuple[bool, str]:
    """In the infinite dihedral case every coefficient lies in {0, 1, v} and
    every baby Verma has exactly a head and a one-step socle.  The labels
    come from ``waff_elements``, so the values are read through
    ``_waff_kl``."""
    sys = ctx.system
    if sys.rank != 1:
        return True, "skipped (rank > 1)"
    allowed = {LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.gen()}
    elements = waff_elements(sys, bound)
    for w in elements:
        for y in elements:
            value = _waff_kl(ctx, y, w, radius)
            if value not in allowed:
                return False, f"value {value} outside {{0,1,v}} at {_words(sys, y=y, w=w)}"
        table = loewy_layers(ctx, w, bound=bound + 2, radius=radius)
        expected = {
            (StdLabel.make(ctx, "L", w), 0): 1,
            (StdLabel.make(ctx, "L", check(ctx, w)), 1): 1,
        }
        if table.entries != expected:
            return False, f"unexpected layers for {_words(sys, w=w)}"
    return True, f"{len(elements)} columns"


@_check("canonical basis oracle")
def check_kl_oracle(ctx: ModularContext, bound: int) -> tuple[bool, str]:
    """Canonical-basis recursion against bar-self-duality solving."""
    sys = ctx.system
    n = 0
    for w in waff_elements(sys, bound):
        n += 1
        if kl_basis(sys, w) != kl_basis_by_duality(sys, w):
            return False, f"mismatch at {_words(sys, w=w)}"
    return True, f"{n} elements"


@_check("restricted bijection")
def check_bijections(ctx: ModularContext) -> tuple[bool, str]:
    """Restricted elements biject with the finite Weyl group; the rho-check
    map is a length-reversing involution on them."""
    sys = ctx.system
    res = [restricted_element_for(sys, m) for m in weyl_group(sys)]
    if len(set(res)) != sys.weyl_order:
        x = max(res, key=res.count)
        return False, f"wrong count {len(set(res))}: {_words(sys, x=x)} is the image of {res.count(x)}"
    top = length(sys, translation_elt(sys, sys.rho) * w0_elt(sys))
    for x in res:
        if not is_restricted_elt(ctx, x):
            return False, f"non-restricted image {_words(sys, x=x)}"
        y = rho_check_involution(ctx, x)
        if rho_check_involution(ctx, y) != x:
            return False, f"not an involution at {_words(sys, x=x, y=y)}"
        if length(sys, y) != top - length(sys, x):
            return False, f"length reversal fails at {_words(sys, x=x, y=y)}"
    return True, f"{len(res)} elements"


WEIGHT_SAMPLES = 200
"""Random (highest weight, weight) pairs compared by ``check_characters``."""

GALLERY_TARGETS = 50
"""In-band pairs whose coefficients ``check_galleries`` compares."""

TRANSLATION_TRIPLES = 25
"""Random (y, w, translation) triples read by ``check_translation_invariance``."""


@_check("character totals")
def check_characters(ctx: ModularContext, seed: int) -> tuple[bool, str]:
    """Truncated character total p^{|positive roots|}, and the baby Verma
    weight table against the Verma one: never larger, and equal whenever
    every simple-root coordinate of lam - mu is below p, since then no
    positive root can occur p times in a partition of lam - mu."""
    sys = ctx.system
    total = baby_verma_total_dim(ctx, Weight.zero(sys.rank))
    expected = ctx.p ** sys.num_positive_roots
    if total != expected:
        return False, f"{total} != {expected}"
    rng = random.Random(seed)
    for _ in range(WEIGHT_SAMPLES):
        lam = Weight(tuple(rng.randint(-3, 3) for _ in range(sys.rank)))
        mu = Weight(tuple(rng.randint(-6, 6) for _ in range(sys.rank)))
        baby = baby_verma_weight_dim(ctx, lam, mu)
        full = verma_weight_dim(ctx, lam, mu)
        d, coords = scaled_root_coords(sys, lam - mu)
        if baby > full or (baby != full and all(c < ctx.p * d for c in coords)):
            return False, f"weight table mismatch at lam = {lam}, mu = {mu}: {baby} vs Verma {full}"
    return True, f"total {total}"


@_check("stabilization")
def check_stabilization(ctx: ModularContext, bound: int, radius: int) -> tuple[bool, str]:
    """Tables at radius R and R + 2 agree on entries both report stabilized."""
    t1 = pkl_table(ctx, bound, radius)
    t2 = pkl_table(ctx, bound, radius + 2)
    compared = 0
    for (y, w), entry in t1.entries.items():
        other = t2.entries.get((y, w))
        if other is None or not (entry.stabilized and other.stabilized):
            continue
        compared += 1
        if entry.poly != other.poly:
            return False, f"disagreement at {_words(ctx.system, y=y, w=w)}"
    return True, f"{compared} entries compared"


@_check("gallery independence")
def check_galleries(ctx: ModularContext, bound: int, radius: int, seed: int) -> tuple[bool, str]:
    """Two random build galleries give identical reported coefficients.

    Pairs outside the support band are certified zero independently of
    the gallery, so the comparison runs over the in-band pairs that the
    engine actually reads off the windows.
    """
    sys = ctx.system
    rng = random.Random(seed)
    windows = [
        (_window(sys, radius), _window(sys, radius + 1)),
        (
            PeriodicWindow(sys, radius, gallery_seed=rng.randint(0, 10**9)),
            PeriodicWindow(sys, radius + 1, gallery_seed=rng.randint(0, 10**9)),
        ),
    ]
    elements = waff_elements(sys, bound)
    pairs = [
        (y, w)
        for w in elements
        for y in elements
        if in_support_band(sys, y, w)
    ]
    rng.shuffle(pairs)
    checked = 0
    for y, w in pairs[:GALLERY_TARGETS]:
        vals = []
        for lo, hi in windows:
            first = lo.coefficient(y, w)
            if first == hi.coefficient(y, w):
                vals.append(first)
        if len(set(vals)) > 1:
            return False, f"default {vals[0]}, seeded gallery {vals[1]} at {_words(sys, y=y, w=w)}"
        checked += 1
    return True, f"{checked} in-band targets"


@_check("translation invariance")
def check_translation_invariance(ctx: ModularContext, bound: int, radius: int, seed: int) -> tuple[bool, str]:
    """p_{t_nu y, t_nu w} = p_{y,w} for random root-lattice translations.

    Both pairs are read raw, each at its own labels and not at the orbit's
    representative, once the identity gate has passed."""
    sys = ctx.system
    rng = random.Random(seed)
    elements = waff_elements(sys, bound)
    roots = [r.as_weight() for r in sys.positive_roots]
    _validate_conventions(sys)
    for _ in range(TRANSLATION_TRIPLES):
        y, w = rng.choice(elements), rng.choice(elements)
        nu = rng.choice(roots) * rng.choice((1, -1))
        t = translation_elt(sys, nu)
        base = _coefficient_stabilized(sys, y, w, radius)
        moved = _coefficient_stabilized(sys, t * y, t * w, radius)
        if base != moved:
            return False, f"{base} at {_words(sys, y=y, w=w)}, but {moved} translated by {nu}"
    return True, f"{TRANSLATION_TRIPLES} triples"


@_check("negative control")
def check_flipped_convention_fails(ctx: ModularContext) -> tuple[bool, str]:
    """Negative control: reversing the up-direction must break the suite.

    The probes are the support convention (nothing may sit strictly above
    the column label), the monomial normalization, and the inversion
    identity at the identity pair; a correctly oriented engine passes all
    three and the mirrored one cannot, and a mirrored engine that refuses
    a probe passes the control.  The mirrored windows have the gate's
    validation radius and one more, which reach w0 in every type.
    """
    sys = ctx.system
    w0 = w0_elt(sys)
    top = LaurentPoly.gen(length(sys, w0))
    e = waff_elements(sys, 0)[0]
    rad = _gate_radius(sys)
    try:
        win_lo = PeriodicWindow(sys, rad, sign=-1)
        win_hi = PeriodicWindow(sys, rad + 1, sign=-1)

        def flipped(y, w):
            first = win_lo.coefficient(y, w)
            if first != win_hi.coefficient(y, w):
                raise StabilizationError("flipped value did not stabilize")
            return first

        support_ok = all(
            x == e or generic_height(sys, x) < 0
            for x in win_lo.row(e)
        )
        socle = flipped(w0, e)  # p_{w0 x, x} at x = e
        good = support_ok and socle == top and top * socle.bar() == flipped(e, e)
    except (ConsistencyError, StabilizationError):
        good = False
    if good:
        return False, "flipped convention unexpectedly satisfied the identity suite"
    return True, "flipped up-direction breaks the identity suite as expected"


DEFAULT_BOUNDS = {1: (6, 8), 2: (4, 12)}


def run_suite(
    ctx: ModularContext,
    bound: int | None = None,
    radius: int | None = None,
    seed: int = 0,
) -> list[CheckResult]:
    """Run every check at the given bounds (defaults depend on the rank)."""
    rank_default = DEFAULT_BOUNDS.get(ctx.system.rank, (3, 14))
    bound = bound if bound is not None else rank_default[0]
    radius = radius if radius is not None else rank_default[1]
    return [
        check_monomial_identity(ctx, bound + 2, radius),
        check_inversion_identity(ctx, bound, radius),
        check_rank_one_oracle(ctx, bound + 2, radius),
        check_kl_oracle(ctx, bound + 2 if ctx.system.rank == 1 else bound + 1),
        check_bijections(ctx),
        check_characters(ctx, seed),
        check_stabilization(ctx, min(bound, radius - 2), radius),
        check_galleries(ctx, bound, radius, seed),
        check_translation_invariance(ctx, bound, radius, seed),
        check_flipped_convention_fails(ctx),
    ]
