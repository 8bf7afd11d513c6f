import random
from fractions import Fraction

import pytest

from alcove_kl.errors import DomainError
from alcove_kl.rootsys import ModularContext, Weight, build_root_system, is_restricted
from alcove_kl.weylext import (
    ExtWeylElt,
    FiniteWeylGroup,
    check,
    check_for_system,
    dot_action,
    elt_from_json,
    elt_to_json,
    from_word,
    gen_indices,
    identity_elt,
    in_waff,
    is_restricted_elt,
    length,
    omega_group,
    reduced_word,
    restricted_element_for,
    restricted_shift,
    rho_check_involution,
    simple_reflection,
    socle_pairs,
    translate,
    translation_elt,
    w0_elt,
    waff_elements,
    weyl_group,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)

CTX_A1 = ModularContext(A1, 5)
CTX_A2 = ModularContext(A2, 5)
CTX_B2 = ModularContext(B2, 5)
CTX_G2 = ModularContext(G2, 7)


def random_elt(sys, rng, steps=6):
    x = identity_elt(sys)
    for _ in range(rng.randint(0, steps)):
        x = x * simple_reflection(sys, rng.choice(list(gen_indices(sys))))
    if rng.random() < 0.5:
        lam = Weight(tuple(rng.randint(-2, 2) for _ in range(sys.rank)))
        x = x * translation_elt(sys, lam)
    return x


# -- length ------------------------------------------------------------------


def test_length_identity_and_simples():
    for sys in (A1, A2, B2, G2):
        assert length(sys, identity_elt(sys)) == 0
        for i in gen_indices(sys):
            assert length(sys, simple_reflection(sys, i)) == 1


def test_length_t_rho_a2():
    # sum over the three positive coroots of <rho, a^vee> = 1 + 1 + 2
    assert length(A2, translation_elt(A2, A2.rho)) == 4


def test_length_zero_element_a1():
    omega = Weight((1,))
    x = translation_elt(A1, omega) * simple_reflection(A1, 1)
    assert length(A1, x) == 0


def test_length_subadditive_and_inverse():
    rng = random.Random(5)
    for sys in (A1, A2, B2):
        for _ in range(40):
            x, y = random_elt(sys, rng), random_elt(sys, rng)
            assert length(sys, x * y) <= length(sys, x) + length(sys, y)
            assert length(sys, x.inverse()) == length(sys, x)


def test_multiplication_against_affine_action():
    """The group law must match composition of affine maps on X tensor Q."""
    rng = random.Random(9)
    for sys in (A2, B2):
        pts = [tuple(Fraction(rng.randint(-5, 5), 7) for _ in range(sys.rank)) for _ in range(3)]
        for _ in range(25):
            x, y = random_elt(sys, rng), random_elt(sys, rng)
            xy = x * y
            for pt in pts:
                assert xy.act_affine(pt) == x.act_affine(y.act_affine(pt))


def test_reduced_word_round_trip():
    rng = random.Random(12)
    for sys in (A1, A2, G2):
        for _ in range(25):
            x = random_elt(sys, rng)
            if not in_waff(sys, x):
                continue
            word = reduced_word(sys, x)
            assert len(word) == length(sys, x)
            assert from_word(sys, word) == x


# -- the dot action -------------------------------------------------------------


def test_dot_translation():
    for ctx in (CTX_A1, CTX_A2):
        sys = ctx.system
        lam = Weight(tuple(range(1, sys.rank + 1)))
        assert dot_action(ctx, translation_elt(sys, lam), Weight.zero(sys.rank)) == ctx.p * lam


def test_dot_fixes_minus_rho():
    for ctx in (CTX_A2, CTX_B2, CTX_G2):
        sys = ctx.system
        for m in weyl_group(sys):
            from alcove_kl.weylext import finite_elt

            w = finite_elt(sys, m)
            assert dot_action(ctx, w, -sys.rho) == -sys.rho


def test_dot_a1_simple():
    # s1 . 0 = -alpha = -2 omega at any p
    s1 = simple_reflection(A1, 1)
    assert dot_action(CTX_A1, s1, Weight.zero(1)) == Weight((-2,))


def test_dot_is_group_action():
    rng = random.Random(21)
    for ctx in (CTX_A1, CTX_A2, CTX_B2):
        sys = ctx.system
        for _ in range(30):
            x, y = random_elt(sys, rng), random_elt(sys, rng)
            mu = Weight(tuple(rng.randint(-4, 4) for _ in range(sys.rank)))
            assert dot_action(ctx, x * y, mu) == dot_action(
                ctx, x, dot_action(ctx, y, mu)
            )


# -- Omega ------------------------------------------------------------------------


def test_omega_a1():
    om = omega_group(A1)
    assert len(om) == 2
    expected = translation_elt(A1, Weight((1,))) * simple_reflection(A1, 1)
    assert set(om) == {identity_elt(A1), expected}


def test_omega_sizes():
    assert len(omega_group(A2)) == 3
    assert len(omega_group(B2)) == 2
    assert len(omega_group(G2)) == 1


def test_omega_intersect_waff_trivial():
    for sys in (A1, A2, B2, G2):
        inside = [o for o in omega_group(sys) if in_waff(sys, o)]
        assert inside == [identity_elt(sys)]


def test_omega_is_a_group():
    for sys in (A1, A2, B2):
        elts = set(omega_group(sys))
        for a in elts:
            assert a.inverse() in elts
            for b in elts:
                assert a * b in elts


# -- enumeration -------------------------------------------------------------------


def test_products_inverses_and_translates_build_no_weight(monkeypatch):
    # an element's translation is a plain tuple of integers; only the
    # Weight-valued functions (finite_apply, dot_action, restricted_shift)
    # build a Weight
    x, y = from_word(B2, [0, 1, 2, 1]), from_word(B2, [2, 0, 1])
    record = {"t": list(x.translation), "w": [1, 2]}
    built = []
    init = Weight.__init__
    monkeypatch.setattr(Weight, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    x * y, x.inverse(), translate((1, -2), x), elt_from_json(B2, record)
    FiniteWeylGroup(B2)  # a fresh table, with its label table's generators
    assert built == []
    assert Weight((1, 2)) and built == [((1, 2),)]  # the count sees a Weight


def test_waff_elements_is_one_shared_tuple_per_bound():
    first = waff_elements(A2, 3)
    assert isinstance(first, tuple) and waff_elements(A2, 3) == first
    # breadth-first order: a smaller bound lists a prefix
    shorter = waff_elements(A2, 2)
    assert first[: len(shorter)] == shorter
    assert [length(A2, x) for x in first] == sorted(length(A2, x) for x in first)


# -- restricted elements and check ------------------------------------------------------


def restricted_by_enumeration(ctx, bound):
    """Oracle: every x = omega z with z in W_aff of length at most the
    bound and x . 0 restricted."""
    sys = ctx.system
    return {
        om * z
        for z in waff_elements(sys, bound)
        for om in omega_group(sys)
        if is_restricted_elt(ctx, om * z)
    }


def test_restricted_a1():
    res = {restricted_element_for(A1, m) for m in weyl_group(A1)}
    expected = {identity_elt(A1), translation_elt(A1, Weight((1,))) * simple_reflection(A1, 1)}
    assert res == expected
    assert restricted_by_enumeration(CTX_A1, 3) == expected


def test_restricted_closed_form_matches_enumeration():
    for ctx in (CTX_A1, CTX_A2, CTX_B2):
        sys = ctx.system
        w0 = w0_elt(sys)
        bound = length(sys, translation_elt(sys, sys.rho) * w0)
        enumerated = restricted_by_enumeration(ctx, bound)
        closed = {restricted_element_for(sys, m) for m in weyl_group(sys)}
        assert enumerated == closed


def test_restricted_projection_bijective():
    for ctx in (CTX_A1, CTX_A2, CTX_B2, CTX_G2):
        sys = ctx.system
        closed = {restricted_element_for(sys, m) for m in weyl_group(sys)}
        assert len(closed) == sys.weyl_order
        assert {x.fin for x in closed} == set(weyl_group(sys))
        for x in closed:
            assert is_restricted(ctx, dot_action(ctx, x, Weight.zero(sys.rank)))


def test_check_examples_a1():
    assert check(CTX_A1, identity_elt(A1)) == w0_elt(A1)
    omega = translation_elt(A1, Weight((1,))) * simple_reflection(A1, 1)
    assert check(CTX_A1, omega) == translation_elt(A1, Weight((-1,)))


def test_check_commutes_with_translations_and_omega():
    rng = random.Random(41)
    for ctx in (CTX_A1, CTX_A2, CTX_B2):
        sys = ctx.system
        for _ in range(25):
            x = random_elt(sys, rng)
            mu = Weight(tuple(rng.randint(-2, 2) for _ in range(sys.rank)))
            assert check(ctx, translation_elt(sys, mu) * x) == translation_elt(
                sys, mu
            ) * check(ctx, x)
            for om in omega_group(sys):
                assert check(ctx, x * om) == check(ctx, x) * om


def test_check_is_permutation_small_window():
    elts = waff_elements(A2, 4)
    images = [check(CTX_A2, x) for x in elts]
    assert len(set(images)) == len(elts)


# -- labels from coordinates ------------------------------------------------------

LABEL_SYSTEMS = {"A1": A1, "A2": A2, "B2": B2, "G2": G2, "A3": build_root_system("A", 3)}
# the number of restricted elements outside W_aff: 4 of 6 in A2
RESTRICTED_OUTSIDE = {"A1": 1, "A2": 4, "B2": 4, "G2": 0, "A3": 18}


@pytest.mark.parametrize("name", LABEL_SYSTEMS)
def test_labels_from_coordinates_equal_the_product_formulas(name, monkeypatch):
    sys = LABEL_SYSTEMS[name]
    restricted = [restricted_element_for(sys, m) for m in weyl_group(sys)]
    outside = [x for x in restricted if not in_waff(sys, x)]
    assert len(outside) == RESTRICTED_OUTSIDE[name]
    labels = [*waff_elements(sys, 6), *outside]
    w0 = w0_elt(sys)
    rank = sys.rank
    lams = [sys.rho * 2, Weight((-1,) + (0,) * (rank - 1)), Weight(tuple(range(rank)))]
    translated = [translation_elt(sys, lam) * x for lam in lams for x in labels]
    # x = t_nu w_res defines the shift nu, and check(x) = t_nu w0 w_res
    t_nu = [translation_elt(sys, restricted_shift(sys, x)) for x in labels]
    w_res = [restricted_element_for(sys, x.fin) for x in labels]
    assert [t * w for t, w in zip(t_nu, w_res)] == labels
    checked = [t * w0 * w for t, w in zip(t_nu, w_res)]
    calls, mul = [], ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert [translate(lam.coords, x) for lam in lams for x in labels] == translated
    assert [check_for_system(sys, x) for x in labels] == checked
    assert calls == []


# the number of restricted elements in W_aff, one socle pair each
SOCLE_COUNTS = {"A1": 1, "A2": 2, "B2": 4, "G2": 12, "A3": 6, "B3": 24}


@pytest.mark.parametrize("name", SOCLE_COUNTS)
def test_socle_pairs_equal_the_product_formula_list(name):
    """The socle identity p_{w0 x, w0 check(x)} = v^{l(w0)} is read as
    p_{w0 x, x}: for restricted x, w0 check(x), formed with products, is x."""
    sys = build_root_system(name[0], int(name[1:]))
    w0 = w0_elt(sys)
    expected = []
    for m in weyl_group(sys):
        x = restricted_element_for(sys, m)
        if in_waff(sys, x):
            # check(x) = t_nu w0 w_res for x = t_nu w_res
            t_nu = translation_elt(sys, restricted_shift(sys, x))
            assert w0 * (t_nu * w0 * restricted_element_for(sys, x.fin)) == x
            assert w0 * check_for_system(sys, x) == x
            expected.append((x, w0 * x))
    assert socle_pairs(sys) == expected
    assert len(expected) == SOCLE_COUNTS[name]


def test_rho_check_involution_a1():
    e = identity_elt(A1)
    om = translation_elt(A1, Weight((1,))) * simple_reflection(A1, 1)
    assert rho_check_involution(CTX_A1, e) == om
    assert rho_check_involution(CTX_A1, om) == e
    with pytest.raises(DomainError):
        rho_check_involution(CTX_A1, simple_reflection(A1, 0))


@pytest.mark.parametrize("ctx", [CTX_A1, CTX_A2, CTX_B2, CTX_G2], ids=lambda c: str(c.system))
def test_rho_check_involution_and_length_reversal(ctx):
    sys = ctx.system
    res = [restricted_element_for(sys, m) for m in weyl_group(sys)]
    top = length(sys, translation_elt(sys, sys.rho) * w0_elt(sys))
    for x in res:
        y = rho_check_involution(ctx, x)
        assert is_restricted_elt(ctx, y)
        assert rho_check_involution(ctx, y) == x
        assert length(sys, y) == top - length(sys, x)


# -- serialization and theta pairs ------------------------------------------------------


def test_serialization_round_trip():
    rng = random.Random(51)
    for sys in (A1, A2, B2):
        for _ in range(25):
            x = random_elt(sys, rng)
            assert elt_from_json(sys, elt_to_json(sys, x)) == x

