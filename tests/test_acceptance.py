"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS line with its runtime; run with -s to see
them.  All comparisons are exact (integer Laurent polynomials).
"""

import random
import time

from alcove_kl.hecke import kl_basis, kl_basis_by_duality
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import PeriodicWindow, _coefficient_stabilized, in_support_band, periodic_kl, pkl_table
from alcove_kl.repcalc import (
    StdLabel,
    baby_verma_total_dim,
    loewy_layers,
    nabla_weight_dim,
    verma_weight_dim,
)
from alcove_kl.rootsys import ModularContext, Weight, build_root_system
from alcove_kl.weylext import (
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
from conftest import a2_root_partitions

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
CTX1 = ModularContext(A1, 5)
CTX2 = ModularContext(A2, 5)

RADIUS = {1: 10, 2: 14}


def _report(number, name, t0, cap_seconds):
    elapsed = time.time() - t0
    print(f"[criterion {number}] {name}: PASS ({elapsed:.1f}s)")
    assert elapsed <= cap_seconds, f"criterion {number} exceeded {cap_seconds}s"


def test_criterion_1_monomial_identity():
    t0 = time.time()
    for ctx, bound in ((CTX1, 10**9), (CTX2, 6)):
        sys = ctx.system
        w0 = w0_elt(sys)
        expected = LaurentPoly.gen(length(sys, w0))
        tested = 0
        for m in weyl_group(sys):
            x = restricted_element_for(sys, m)
            if not in_waff(sys, x) or length(sys, x) > bound:
                continue
            tested += 1
            got = periodic_kl(ctx, w0 * x, w0 * check(ctx, x), RADIUS[sys.rank])
            assert got == expected, (str(sys), length(sys, x), str(got))
        assert tested >= 1
    _report(1, "monomial identity", t0, 120)


def test_criterion_2_inversion_identity():
    t0 = time.time()
    for ctx, bound in ((CTX1, 6), (CTX2, 4)):
        sys = ctx.system
        w0 = w0_elt(sys)
        shift = LaurentPoly.gen(length(sys, w0))
        radius = RADIUS[sys.rank]
        elements = waff_elements(sys, bound)
        for w in elements:
            wv = check(ctx, w)
            for y in elements:
                lhs = shift * periodic_kl(ctx, w0 * y, w0 * wv, radius).bar()
                rhs = periodic_kl(ctx, y, w, radius)
                assert lhs == rhs, (str(sys), length(sys, y), length(sys, w))
    _report(2, "inversion identity", t0, 300)


def test_criterion_3_rank_one_oracle():
    t0 = time.time()
    allowed = {LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.gen()}
    elements = waff_elements(A1, 8)
    for w in elements:
        for y in elements:
            assert periodic_kl(CTX1, y, w, RADIUS[1]) in allowed
        table = loewy_layers(CTX1, w, bound=10, radius=RADIUS[1])
        expected = {
            (StdLabel.make(CTX1, "L", w), 0): 1,
            (StdLabel.make(CTX1, "L", check(CTX1, w)), 1): 1,
        }
        assert table.entries == expected
    _report(3, "rank-one oracle", t0, 60)


def test_criterion_4_kl_oracle_equivalence():
    t0 = time.time()
    for sys, bound in ((A1, 8), (A2, 6)):
        for w in waff_elements(sys, bound):
            assert kl_basis(sys, w) == kl_basis_by_duality(sys, w)
    _report(4, "canonical basis oracle equivalence", t0, 300)


def test_criterion_5_combinatorial_bijections():
    t0 = time.time()
    for typ, rank, p in (("A", 1, 5), ("A", 2, 5), ("B", 2, 5), ("C", 2, 5), ("G", 2, 7)):
        sys = build_root_system(typ, rank)
        ctx = ModularContext(sys, p)
        res = {restricted_element_for(sys, m) for m in weyl_group(sys)}
        assert len(res) == sys.weyl_order
        assert all(is_restricted_elt(ctx, x) for x in res)
        top = length(sys, translation_elt(sys, sys.rho) * w0_elt(sys))
        for x in res:
            y = rho_check_involution(ctx, x)
            assert rho_check_involution(ctx, y) == x
            assert length(sys, y) == top - length(sys, x)
    _report(5, "combinatorial bijections", t0, 60)


def test_criterion_6_character_totals():
    t0 = time.time()
    for typ, rank, p in (("A", 1, 5), ("A", 2, 5), ("G", 2, 7)):
        sys = build_root_system(typ, rank)
        ctx = ModularContext(sys, p)
        zero = Weight.zero(rank)
        assert baby_verma_total_dim(ctx, zero) == p ** sys.num_positive_roots
    rng = random.Random(2024)
    counts = []
    for _ in range(200):
        lam = Weight((rng.randint(-3, 3), rng.randint(-3, 3)))
        mu = Weight((rng.randint(-8, 8), rng.randint(-8, 8)))
        count = a2_root_partitions((lam - mu).coords)
        assert nabla_weight_dim(CTX2, lam, mu) == count
        assert verma_weight_dim(CTX2, lam, mu) == count
        counts.append(count)
    assert sum(1 for c in counts if c > 1) >= 10  # the samples reach past a single path
    _report(6, "character totals", t0, 60)


def test_criterion_7_stabilization_and_galleries():
    t0 = time.time()
    for ctx, bound, radius in ((CTX1, 6, 8), (CTX2, 4, 10)):
        t_lo = pkl_table(ctx, bound, radius)
        t_hi = pkl_table(ctx, bound, radius + 2)
        for key, entry in t_lo.entries.items():
            other = t_hi.entries.get(key)
            if other is not None and entry.stabilized and other.stabilized:
                assert entry.poly == other.poly
    rng = random.Random(41)
    for sys, bound, radius in ((A1, 6, 8), (A2, 4, 10)):
        windows = [
            (PeriodicWindow(sys, radius), PeriodicWindow(sys, radius + 1)),
            (
                PeriodicWindow(sys, radius, gallery_seed=rng.randint(0, 10**9)),
                PeriodicWindow(sys, radius + 1, gallery_seed=rng.randint(0, 10**9)),
            ),
        ]
        elements = waff_elements(sys, bound)
        # out-of-band pairs are certified zero for every gallery, so the
        # comparison runs over the pairs actually read off the windows
        pairs = [
            (y, w)
            for w in elements
            for y in elements
            if in_support_band(sys, y, w)
        ]
        rng.shuffle(pairs)
        for y, w in pairs[:100]:
            stable_values = set()
            for lo, hi in windows:
                first = lo.coefficient(y, w)
                if first == hi.coefficient(y, w):
                    stable_values.add(first)
            assert len(stable_values) <= 1
    _report(7, "stabilization and gallery independence", t0, 300)


def test_criterion_8_translation_invariance():
    t0 = time.time()
    rng = random.Random(99)
    for ctx, radius in ((CTX1, 10), (CTX2, 12)):
        sys = ctx.system
        elements = waff_elements(sys, 2)
        roots = [r.as_weight() for r in sys.positive_roots]
        for _ in range(50):
            y, w = rng.choice(elements), rng.choice(elements)
            nu = rng.choice(roots) * rng.choice((1, -1))
            t = translation_elt(sys, nu)
            base = _coefficient_stabilized(sys, y, w, radius)
            moved = _coefficient_stabilized(sys, t * y, t * w, radius)
            assert base == moved
    _report(8, "translation invariance", t0, 120)
