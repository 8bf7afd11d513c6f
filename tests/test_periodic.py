import json
import random

import pytest

from alcove_kl.errors import ConsistencyError, DomainError, StabilizationError, WindowError
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import (
    PeriodicWindow,
    canonical_pair,
    in_support_band,
    periodic_act_gen,
    periodic_kl,
    pkl_table,
)
from alcove_kl.rootsys import ModularContext, Weight, build_root_system
from alcove_kl.weylext import (
    check,
    elt_from_json,
    from_word,
    gen_indices,
    identity_elt,
    in_waff,
    length,
    translation_elt,
    w0_elt,
    waff_elements,
)
from conftest import dihedral_element

V = LaurentPoly.gen()
VINV = LaurentPoly.gen(-1)
ONE = LaurentPoly.one()


def a1_periodic_oracle(sys, y, w):
    """Closed form on the alcove line: 1 on the diagonal, v one step down."""
    def position(x):
        from alcove_kl.alcove import generic_height

        return generic_height(sys, x)

    m, n = position(y), position(w)
    if (m, y) == (n, w):
        return ONE
    if m == n - 1:
        return V if y == dihedral_element(sys, m) and w == dihedral_element(sys, n) else LaurentPoly.zero()
    return LaurentPoly.zero()


# -- the generator action -----------------------------------------------------


def test_act_gen_fundamental_affine_wall(a1, a2):
    for sys in (a1, a2):
        aplus = identity_elt(sys)
        out, _ = periodic_act_gen(sys, {aplus: ONE}, 0, 4)
        s0_alcove = from_word(sys, [0])
        assert out == {s0_alcove: ONE, aplus: V}


def test_act_gen_fundamental_finite_wall(a1, a2):
    for sys in (a1, a2):
        aplus = identity_elt(sys)
        out, _ = periodic_act_gen(sys, {aplus: ONE}, 1, 4)
        s1_alcove = from_word(sys, [1])
        assert out == {s1_alcove: ONE, aplus: VINV}


def test_act_gen_squares_to_v_plus_vinv(a2):
    aplus = identity_elt(a2)
    for i in gen_indices(a2):
        once, truncated_once = periodic_act_gen(a2, {aplus: ONE}, i, 6)
        twice, truncated_twice = periodic_act_gen(a2, once, i, 6)
        expected = {a: (V + VINV) * p for a, p in once.items()}
        assert twice == expected
        assert not (truncated_once or truncated_twice)


def test_act_gen_records_truncation(a1):
    from alcove_kl.alcove import wall_cross

    far = dihedral_element(a1, 3)
    up = next(i for i in gen_indices(a1) if wall_cross(a1, far, i)[1] == "up")
    out, truncated = periodic_act_gen(a1, {far: ONE}, up, 3)
    assert truncated
    assert out == {far: V}


# -- coefficients -------------------------------------------------------------


def test_diagonal_is_one(ctx_a1, ctx_a2):
    for ctx, bound, radius in ((ctx_a1, 6, 8), (ctx_a2, 4, 10)):
        for w in waff_elements(ctx.system, bound):
            assert periodic_kl(ctx, w, w, radius) == ONE


def test_dihedral_closed_form(ctx_a1):
    sys = ctx_a1.system
    for m in range(-4, 5):
        for n in range(-4, 5):
            y, w = dihedral_element(sys, m), dihedral_element(sys, n)
            assert periodic_kl(ctx_a1, y, w, radius=10) == a1_periodic_oracle(sys, y, w)


def test_monomial_identity_small(ctx_a1, ctx_a2):
    for ctx, radius in ((ctx_a1, 10), (ctx_a2, 12)):
        sys = ctx.system
        w0 = w0_elt(sys)
        top = LaurentPoly.gen(length(sys, w0))
        for x in waff_elements(sys, 3):
            xv = check(ctx, x)
            assert periodic_kl(ctx, w0 * x, w0 * xv, radius) == top


def test_a2_socle_coefficient(ctx_a2):
    # the coefficient of the longest finite element in the fundamental column
    sys = ctx_a2.system
    assert periodic_kl(ctx_a2, w0_elt(sys), identity_elt(sys), radius=10) == LaurentPoly.gen(3)


def test_coefficients_positive_with_zero_constant(ctx_a2):
    sys = ctx_a2.system
    for w in waff_elements(sys, 3):
        for y in waff_elements(sys, 4):
            p = periodic_kl(ctx_a2, y, w, radius=12)
            assert p.has_nonneg_coeffs()
            if y != w:
                assert p.in_positive_v()


def test_support_band_certifies_far_pairs(ctx_a2):
    sys = ctx_a2.system
    e = identity_elt(sys)
    deep = translation_elt(sys, Weight((-4, -4))) * e  # far below the band
    assert not in_support_band(sys, deep, e)
    assert periodic_kl(ctx_a2, deep, e, radius=10) == LaurentPoly.zero()
    above = translation_elt(sys, Weight((4, 4)))
    assert not in_support_band(sys, above, e)
    assert periodic_kl(ctx_a2, above, e, radius=10) == LaurentPoly.zero()


def test_public_values_respect_support_order(ctx_a2):
    """Nonzero reported coefficients only occur at pairs comparable in
    the order generated by up-crossings."""
    from alcove_kl.alcove import generic_height, generic_leq

    sys = ctx_a2.system
    for w in waff_elements(sys, 3):
        for y in waff_elements(sys, 4):
            p = periodic_kl(ctx_a2, y, w, radius=12)
            if p.is_zero:
                continue
            gap = generic_height(sys, w) - generic_height(sys, y)
            assert gap >= 0
            assert generic_leq(sys, y, w, radius=gap)


def test_generic_column_is_the_boxed_orbit(ctx_a2):
    """Deep inside a chamber a column supports exactly the finite-orbit
    pattern: one entry per finite Weyl group element, with the monomial
    of its height drop."""
    sys = ctx_a2.system
    w = translation_elt(sys, sys.rho)  # generic position, length 4
    support = {}
    for y in waff_elements(sys, 8):
        p = periodic_kl(ctx_a2, y, w, radius=12)
        if p:
            support[y] = p
    assert len(support) == sys.weyl_order
    assert sorted(str(p) for p in support.values()) == [
        "1", "v", "v", "v^2", "v^2", "v^3",
    ]


def test_reported_values_have_height_parity(ctx_a1, ctx_a2):
    """Every exponent of a reported coefficient has the parity of the
    height gap between the two alcoves."""
    from alcove_kl.alcove import generic_height

    for ctx, bound, radius in ((ctx_a1, 5, 8), (ctx_a2, 3, 12)):
        sys = ctx.system
        for w in waff_elements(sys, bound):
            hw = generic_height(sys, w)
            for y in waff_elements(sys, bound + 1):
                p = periodic_kl(ctx, y, w, radius)
                gap = hw - generic_height(sys, y)
                assert all((e - gap) % 2 == 0 for e, _ in p.terms)


def test_inversion_identity_sample(ctx_a2):
    sys = ctx_a2.system
    w0 = w0_elt(sys)
    shift = LaurentPoly.gen(length(sys, w0))
    for w in waff_elements(sys, 2):
        wv = check(ctx_a2, w)
        for y in waff_elements(sys, 3):
            lhs = shift * periodic_kl(ctx_a2, w0 * y, w0 * wv, radius=12).bar()
            assert lhs == periodic_kl(ctx_a2, y, w, radius=12)


def test_translation_invariance_raw(ctx_a2):
    sys = ctx_a2.system
    rng = random.Random(77)
    roots = [r.as_weight() for r in sys.positive_roots]
    elts = waff_elements(sys, 2)
    for _ in range(12):
        y, w = rng.choice(elts), rng.choice(elts)
        nu = rng.choice(roots)
        t = translation_elt(sys, nu)
        base = periodic_kl(ctx_a2, y, w, radius=12, normalize=False)
        moved = periodic_kl(ctx_a2, t * y, t * w, radius=12, normalize=False)
        assert base == moved


# -- tables ---------------------------------------------------------------------


def test_pkl_table_contents(ctx_a1):
    table = pkl_table(ctx_a1, length_bound=5, radius=8)
    sys = ctx_a1.system
    for w in waff_elements(sys, 5):
        for y in waff_elements(sys, 5):
            assert table.poly(y, w) == a1_periodic_oracle(sys, y, w)


def test_pkl_table_radius_agreement(ctx_a2):
    t1 = pkl_table(ctx_a2, length_bound=3, radius=10)
    t2 = pkl_table(ctx_a2, length_bound=3, radius=12)
    for key, entry in t1.entries.items():
        other = t2.entries.get(key)
        if entry.stabilized and other is not None and other.stabilized:
            assert entry.poly == other.poly


def test_pkl_table_json(ctx_a1):
    table = pkl_table(ctx_a1, length_bound=3, radius=6)
    blob = table.to_json()
    assert blob["type"] == "A" and blob["rank"] == 1 and blob["R"] == 6
    sys = ctx_a1.system
    for item in blob["entries"]:
        y = elt_from_json(sys, item["y"])
        w = elt_from_json(sys, item["w"])
        assert in_waff(sys, y) and in_waff(sys, w)
        assert LaurentPoly.from_json(item["poly"]) == table.entries[
            canonical_pair(sys, y, w)
        ].poly
    json.dumps(blob)  # serializable


def test_gallery_independence_seeded(a2):
    base = PeriodicWindow(a2, 8)
    alt = PeriodicWindow(a2, 8, gallery_seed=123)
    nxt = PeriodicWindow(a2, 9)
    alt_nxt = PeriodicWindow(a2, 9, gallery_seed=321)
    for w in waff_elements(a2, 3):
        for y in waff_elements(a2, 4):
            if not in_support_band(a2, y, w):
                continue  # certified zero regardless of the gallery
            vals = set()
            for lo, hi in ((base, nxt), (alt, alt_nxt)):
                first = lo.coefficient(y, w)
                if first == hi.coefficient(y, w):
                    vals.add(first)
            assert len(vals) <= 1, "stabilized values must not depend on the gallery"


def test_unsupported_system_aborts():
    b2 = build_root_system("B", 2)
    ctx = ModularContext(b2, 5)
    with pytest.raises(ConsistencyError):
        periodic_kl(ctx, identity_elt(b2), identity_elt(b2), radius=10)
    with pytest.raises(ConsistencyError):
        pkl_table(ctx, length_bound=2, radius=10)


def test_out_of_reach_raises(ctx_a1):
    sys = ctx_a1.system
    y = dihedral_element(sys, 4)
    w = dihedral_element(sys, 5)
    with pytest.raises((WindowError, StabilizationError)):
        periodic_kl(ctx_a1, y, w, radius=3, normalize=False)
    # the translation-normalized form of the same pair is in reach
    assert periodic_kl(ctx_a1, y, w, radius=3) == V


def test_periodic_kl_rejects_labels_outside_waff(ctx_a1):
    # t_{omega_1} lies in the extended group but labels no alcove
    sys = ctx_a1.system
    t = translation_elt(sys, Weight((1,)))
    e = identity_elt(sys)
    for y, w in ((t, e), (e, t)):
        for normalize in (True, False):
            with pytest.raises(DomainError):
                periodic_kl(ctx_a1, y, w, radius=8, normalize=normalize)
