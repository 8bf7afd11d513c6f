"""The identity-verification harness.

Each check exercises one of the structural identities that tie the
periodic coefficients, the canonical bases, and the Weyl-group
combinatorics together; together they are the package's acceptance gate.
All randomized checks take an explicit seed.  A failed identity is
reported as a failed check; a pair out of reach of the radius is not a
failure of the identity, and its WindowError propagates from every check.
Details name elements by their ``elt_to_json`` words.
"""

from __future__ import annotations

import random

from .alcove import generic_height
from .errors import ConsistencyError, StabilizationError
from .hecke import kl_basis, kl_basis_by_duality
from .laurent import LaurentPoly
from .periodic import PeriodicWindow, _gate_radius, _window, _words, in_support_band, periodic_kl, pkl_table
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
    in_waff,
    is_restricted_elt,
    length,
    restricted_element_for,
    rho_check_involution,
    translation_elt,
    w0_elt,
    waff_elements,
    weyl_group,
)


class CheckResult(_Record):
    __slots__ = _fields = ("name", "passed", "detail")


def check_monomial_identity(ctx: ModularContext, bound: int, radius: int) -> CheckResult:
    """p_{w0 x, w0 check(x)} = v^{l(w0)} on restricted Coxeter elements."""
    sys = ctx.system
    w0 = w0_elt(sys)
    expected = LaurentPoly.gen(length(sys, w0))
    tested = 0
    try:
        for m in weyl_group(sys):
            x = restricted_element_for(sys, m)
            if not in_waff(sys, x) or length(sys, x) > bound:
                continue
            tested += 1
            got = periodic_kl(ctx, w0 * x, w0 * check(ctx, x), radius)
            if got != expected:
                return CheckResult(
                    "monomial identity",
                    False,
                    f"value {got} at length {length(sys, x)}, expected {expected}",
                )
    except (ConsistencyError, StabilizationError) as exc:
        return CheckResult("monomial identity", False, str(exc))
    return CheckResult("monomial identity", True, f"{tested} restricted elements")


def check_inversion_identity(ctx: ModularContext, bound: int, radius: int) -> CheckResult:
    """v^{l(w0)} p_{w0 y, w0 check(w)}(v^-1) = p_{y,w} on all pairs in range."""
    sys = ctx.system
    w0 = w0_elt(sys)
    shift = LaurentPoly.gen(length(sys, w0))
    pairs = fails = 0
    try:
        elements = waff_elements(sys, bound)
        for w in elements:
            wv = check(ctx, w)
            for y in elements:
                pairs += 1
                lhs = shift * periodic_kl(ctx, w0 * y, w0 * wv, radius).bar()
                if lhs != periodic_kl(ctx, y, w, radius):
                    fails += 1
    except (ConsistencyError, StabilizationError) as exc:
        return CheckResult("inversion identity", False, str(exc))
    return CheckResult(
        "inversion identity", fails == 0, f"{pairs} pairs, {fails} failures"
    )


def check_rank_one_oracle(ctx: ModularContext, bound: int, radius: int) -> CheckResult:
    """In the infinite dihedral case every coefficient lies in {0, 1, v} and
    every baby Verma has exactly a head and a one-step socle."""
    sys = ctx.system
    if sys.rank != 1:
        return CheckResult("rank-one oracle", True, "skipped (rank > 1)")
    allowed = {LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.gen()}
    elements = waff_elements(sys, bound)
    for w in elements:
        for y in elements:
            value = periodic_kl(ctx, y, w, radius)
            if value not in allowed:
                return CheckResult(
                    "rank-one oracle",
                    False,
                    f"value {value} outside {{0,1,v}} at {_words(sys, y=y, w=w)}",
                )
        table = loewy_layers(ctx, w, bound=bound + 2, radius=radius)
        expected = {
            (StdLabel.make(ctx, "L", w), 0): 1,
            (StdLabel.make(ctx, "L", check(ctx, w)), 1): 1,
        }
        if table.entries != expected:
            return CheckResult("rank-one oracle", False, f"unexpected layers for {_words(sys, w=w)}")
    return CheckResult("rank-one oracle", True, f"{len(elements)} columns")


def check_kl_oracle(ctx: ModularContext, bound: int) -> CheckResult:
    """Canonical-basis recursion against bar-self-duality solving."""
    sys = ctx.system
    n = 0
    for w in waff_elements(sys, bound):
        n += 1
        if kl_basis(sys, w) != kl_basis_by_duality(sys, w):
            return CheckResult("canonical basis oracle", False, f"mismatch at {_words(sys, w=w)}")
    return CheckResult("canonical basis oracle", True, f"{n} elements")


def check_bijections(ctx: ModularContext) -> CheckResult:
    """Restricted elements biject with the finite Weyl group; the rho-check
    map is a length-reversing involution on them."""
    sys = ctx.system
    res = [restricted_element_for(sys, m) for m in weyl_group(sys)]
    if len(set(res)) != sys.weyl_order:
        return CheckResult("restricted bijection", False, "wrong count")
    top = length(sys, translation_elt(sys, sys.rho) * w0_elt(sys))
    for x in res:
        if not is_restricted_elt(ctx, x):
            return CheckResult("restricted bijection", False, "non-restricted image")
        y = rho_check_involution(ctx, x)
        if rho_check_involution(ctx, y) != x:
            return CheckResult("restricted bijection", False, "not an involution")
        if length(sys, y) != top - length(sys, x):
            return CheckResult("restricted bijection", False, "length reversal fails")
    return CheckResult("restricted bijection", True, f"{len(res)} elements")


WEIGHT_SAMPLES = 200
"""Random (highest weight, weight) pairs compared by ``check_characters``."""


def check_characters(ctx: ModularContext, seed: int) -> CheckResult:
    """Truncated character total p^{|positive roots|}, and the baby Verma
    weight table against the Verma one: never larger, and equal whenever
    every simple-root coordinate of lam - mu is below p, since then no
    positive root can occur p times in a partition of lam - mu."""
    sys = ctx.system
    total = baby_verma_total_dim(ctx, Weight.zero(sys.rank))
    expected = ctx.p ** sys.num_positive_roots
    if total != expected:
        return CheckResult("character totals", False, f"{total} != {expected}")
    rng = random.Random(seed)
    for _ in range(WEIGHT_SAMPLES):
        lam = Weight(tuple(rng.randint(-3, 3) for _ in range(sys.rank)))
        mu = Weight(tuple(rng.randint(-6, 6) for _ in range(sys.rank)))
        baby = baby_verma_weight_dim(ctx, lam, mu)
        full = verma_weight_dim(ctx, lam, mu)
        d, coords = scaled_root_coords(sys, lam - mu)
        if baby > full or (baby != full and all(c < ctx.p * d for c in coords)):
            return CheckResult("character totals", False, "weight table mismatch")
    return CheckResult("character totals", True, f"total {total}")


def check_stabilization(ctx: ModularContext, bound: int, radius: int) -> CheckResult:
    """Tables at radius R and R + 2 agree on entries both report stabilized."""
    try:
        t1 = pkl_table(ctx, bound, radius)
        t2 = pkl_table(ctx, bound, radius + 2)
    except (ConsistencyError, StabilizationError) as exc:
        return CheckResult("stabilization", False, str(exc))
    compared = 0
    for (y, w), entry in t1.entries.items():
        other = t2.entries.get((y, w))
        if other is None or not (entry.stabilized and other.stabilized):
            continue
        compared += 1
        if entry.poly != other.poly:
            return CheckResult("stabilization", False, f"disagreement at {_words(ctx.system, y=y, w=w)}")
    return CheckResult("stabilization", True, f"{compared} entries compared")


def check_galleries(
    ctx: ModularContext, bound: int, radius: int, seed: int, targets: int
) -> CheckResult:
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
    for y, w in pairs[:targets]:
        vals = set()
        for lo, hi in windows:
            first = lo.coefficient(y, w)
            if first == hi.coefficient(y, w):
                vals.add(first)
        if len(vals) > 1:
            return CheckResult("gallery independence", False, f"values {vals}")
        checked += 1
    return CheckResult("gallery independence", True, f"{checked} in-band targets")


def check_translation_invariance(
    ctx: ModularContext, bound: int, radius: int, seed: int, triples: int
) -> CheckResult:
    """p_{t_nu y, t_nu w} = p_{y,w} for random root-lattice translations."""
    sys = ctx.system
    rng = random.Random(seed)
    elements = waff_elements(sys, bound)
    roots = [r.as_weight() for r in sys.positive_roots]
    done = 0
    try:
        for _ in range(triples):
            y, w = rng.choice(elements), rng.choice(elements)
            nu = rng.choice(roots) * rng.choice((1, -1))
            t = translation_elt(sys, nu)
            base = periodic_kl(ctx, y, w, radius, normalize=False)
            moved = periodic_kl(ctx, t * y, t * w, radius, normalize=False)
            if base != moved:
                return CheckResult("translation invariance", False, f"at {nu}")
            done += 1
    except (ConsistencyError, StabilizationError) as exc:
        return CheckResult("translation invariance", False, str(exc))
    return CheckResult("translation invariance", True, f"{done} triples")


def check_flipped_convention_fails(ctx: ModularContext) -> CheckResult:
    """Negative control: reversing the up-direction must break the suite.

    The probes are the support convention (nothing may sit strictly above
    the column label), the monomial normalization, and the inversion
    identity at the identity pair; a correctly oriented engine passes all
    three and the mirrored one cannot.  The mirrored windows have the
    gate's validation radius and one more, which reach w0 in every type.
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

        ev = check(ctx, e)
        support_ok = all(
            x == e or generic_height(sys, x) < 0
            for x in win_lo.row(e)
        )
        monomial_ok = flipped(w0 * e, w0 * ev) == top
        inversion_ok = top * flipped(w0 * e, w0 * ev).bar() == flipped(e, e)
        good = support_ok and monomial_ok and inversion_ok
    except (ConsistencyError, StabilizationError):
        good = False
    return CheckResult(
        "negative control",
        not good,
        "flipped up-direction breaks the identity suite as expected"
        if not good
        else "flipped convention unexpectedly satisfied the identity suite",
    )


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
        check_galleries(ctx, bound, radius, seed, targets=50),
        check_translation_invariance(ctx, bound, radius, seed, triples=25),
        check_flipped_convention_fails(ctx),
    ]
