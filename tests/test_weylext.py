import random
from fractions import Fraction

import pytest

from alcove_kl.errors import DomainError, SearchError
from alcove_kl.rootsys import ModularContext, Weight, build_root_system, is_restricted
from alcove_kl.weylext import (
    bruhat_leq,
    check,
    conjugate_affine_simple,
    dot_action,
    dot_stabilizer,
    elt_from_json,
    elt_to_json,
    find_mu_s,
    from_word,
    gen_indices,
    identity_elt,
    in_box_closure,
    in_waff,
    is_restricted_elt,
    length,
    omega_group,
    reduced_word,
    restricted_element_for,
    restricted_elements,
    rho_check_involution,
    simple_reflection,
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


# -- Bruhat order -------------------------------------------------------------------


def bruhat_by_subwords(sys, x, y):
    """Oracle: x <= y iff some subword of a reduced word of y equals x."""
    import itertools

    word = reduced_word(sys, y)
    target_len = length(sys, x)
    for positions in itertools.combinations(range(len(word)), target_len):
        if from_word(sys, [word[i] for i in positions]) == x:
            return True
    return target_len == 0


def test_bruhat_basics():
    e = identity_elt(A1)
    s0, s1 = simple_reflection(A1, 0), simple_reflection(A1, 1)
    assert bruhat_leq(A1, e, e)
    assert bruhat_leq(A1, e, s0 * s1 * s0)
    assert not bruhat_leq(A1, s0, s1)
    assert not bruhat_leq(A1, s1, s0)


def test_bruhat_incomparable_cosets():
    omega = omega_group(A1)[-1]
    if omega == identity_elt(A1):
        omega = omega_group(A1)[0]
    assert not bruhat_leq(A1, identity_elt(A1), omega)


def test_bruhat_against_subword_oracle():
    rng = random.Random(31)
    for sys in (A1, A2):
        elts = waff_elements(sys, 4)
        for _ in range(60):
            x, y = rng.choice(elts), rng.choice(elts)
            assert bruhat_leq(sys, x, y) == bruhat_by_subwords(sys, x, y)


# -- restricted elements and check ------------------------------------------------------


def test_restricted_a1():
    res = restricted_elements(CTX_A1, 3)
    expected = {identity_elt(A1), translation_elt(A1, Weight((1,))) * simple_reflection(A1, 1)}
    assert set(res) == expected


def test_restricted_closed_form_matches_enumeration():
    for ctx in (CTX_A1, CTX_A2, CTX_B2):
        sys = ctx.system
        w0 = w0_elt(sys)
        bound = length(sys, translation_elt(sys, sys.rho) * w0)
        enumerated = set(restricted_elements(ctx, bound))
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


# -- stabilizers and singular weights -------------------------------------------------


def test_dot_stabilizer_regular_zero():
    for ctx in (CTX_A1, CTX_A2, CTX_G2):
        assert dot_stabilizer(ctx, Weight.zero(ctx.system.rank)) == []


def test_dot_stabilizer_a1_walls():
    assert dot_stabilizer(CTX_A1, Weight((-1,))) == [simple_reflection(A1, 1)]
    assert dot_stabilizer(CTX_A1, Weight((4,))) == [simple_reflection(A1, 0)]
    with pytest.raises(DomainError):
        dot_stabilizer(CTX_A1, Weight((7,)))


def test_dot_stabilizer_fixes_eta():
    for ctx in (CTX_A1, CTX_A2, CTX_B2):
        sys = ctx.system
        import itertools

        for coords in itertools.product(range(-1, ctx.p), repeat=sys.rank):
            eta = Weight(coords)
            if not in_box_closure(ctx, eta):
                continue
            for s in dot_stabilizer(ctx, eta):
                assert dot_action(ctx, s, eta) == eta
                assert s * s == identity_elt(sys)


def test_find_mu_s_a1():
    assert find_mu_s(CTX_A1, simple_reflection(A1, 1)) == Weight((-1,))
    assert find_mu_s(CTX_A1, simple_reflection(A1, 0)) == Weight((4,))


def test_find_mu_s_all_generators():
    for ctx in (CTX_A1, CTX_A2, CTX_B2, CTX_G2):
        sys = ctx.system
        for i in gen_indices(sys):
            s = simple_reflection(sys, i)
            eta = find_mu_s(ctx, s)
            assert in_box_closure(ctx, eta)
            assert dot_stabilizer(ctx, eta) == [s]


def test_stabilizer_omega_equivariance():
    for ctx in (CTX_A1, CTX_A2):
        sys = ctx.system
        for om in omega_group(sys):
            for eta in (Weight.zero(sys.rank), find_mu_s(ctx, simple_reflection(sys, 0))):
                lhs = set(dot_stabilizer(ctx, dot_action(ctx, om, eta)))
                rhs = {
                    om * s * om.inverse() for s in dot_stabilizer(ctx, eta)
                }
                assert lhs == rhs


# -- conjugation of the affine reflection ------------------------------------------------


def test_conjugate_affine_simple_a1():
    u, t = conjugate_affine_simple(A1, simple_reflection(A1, 0), radius=2)
    expected_u = translation_elt(A1, Weight((1,))) * simple_reflection(A1, 1)
    assert (u, t) == (expected_u, simple_reflection(A1, 1))
    s0 = simple_reflection(A1, 0)
    assert u * t * u.inverse() == s0
    assert s0 * s0 == identity_elt(A1)


def test_conjugate_affine_simple_a2():
    s0 = simple_reflection(A2, 0)
    u, t = conjugate_affine_simple(A2, s0, radius=4)
    assert u * t * u.inverse() == s0


def test_conjugate_affine_simple_errors():
    with pytest.raises(DomainError):
        conjugate_affine_simple(A1, simple_reflection(A1, 1), radius=2)
    with pytest.raises(SearchError):
        conjugate_affine_simple(G2, simple_reflection(G2, 0), radius=0)


# -- serialization and theta pairs ------------------------------------------------------


def test_serialization_round_trip():
    rng = random.Random(51)
    for sys in (A1, A2, B2):
        for _ in range(25):
            x = random_elt(sys, rng)
            assert elt_from_json(sys, elt_to_json(sys, x)) == x

