import random

import pytest

from alcove_kl.alcove import generic_height, generic_leq
from alcove_kl.rootsys import ModularContext, Weight, build_root_system
from alcove_kl.weylext import (
    check,
    from_word,
    gen_indices,
    identity_elt,
    omega_group,
    simple_reflection,
    translation_elt,
    w0_elt,
    waff_elements,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
CTX_A1 = ModularContext(A1, 5)
CTX_A2 = ModularContext(A2, 5)


def a1_alcove(n):
    """The alcove (n, n+1) on the line, as a label."""
    word = []
    k = n
    while k > 0:
        word.append(0 if len(word) % 2 == 0 else 1)
        k -= 1
    while k < 0:
        word.append(1 if len(word) % 2 == 0 else 0)
        k += 1
    return from_word(A1, word)


def test_a1_alcove_helper_is_faithful():
    labels = {a1_alcove(n) for n in range(-4, 5)}
    assert len(labels) == 9
    assert a1_alcove(0) == identity_elt(A1)


def is_up(sys, x, i):
    """Whether crossing the wall of type i of x(A+) raises the height."""
    return generic_height(sys, x * simple_reflection(sys, i)) > generic_height(sys, x)


def test_wall_cross_directions_from_fundamental():
    # from A+ only the affine wall s0 is crossed upward
    for sys in (A1, A2, B2):
        aplus = identity_elt(sys)
        for i in gen_indices(sys):
            assert is_up(sys, aplus, i) == (i == 0)


def test_wall_cross_involutive():
    for sys in (A1, A2, B2):
        for a in waff_elements(sys, 3):
            for i in gen_indices(sys):
                b = a * simple_reflection(sys, i)
                assert b * simple_reflection(sys, i) == a
                assert is_up(sys, a, i) != is_up(sys, b, i)


def test_generic_height_normalization():
    for sys in (A1, A2, B2):
        assert generic_height(sys, identity_elt(sys)) == 0


def test_generic_height_translation_formula():
    # d(A+ + nu) equals the sum over positive coroots of <nu, a^vee>
    for sys in (A1, A2, B2):
        for r in sys.positive_roots[: sys.rank]:
            nu = r.as_weight()
            shifted = translation_elt(sys, nu)
            expected = sum(sys.pairing(nu, q) for q in sys.positive_roots)
            assert generic_height(sys, shifted) == expected


def test_generic_height_w0():
    assert generic_height(A1, w0_elt(A1)) == -1
    assert generic_height(A2, w0_elt(A2)) == -3


def test_height_changes_by_one_matching_direction():
    for sys in (A1, A2, B2):
        for x in waff_elements(sys, 4):
            a = x
            d = generic_height(sys, a)
            for i in gen_indices(sys):
                b = a * simple_reflection(sys, i)
                assert abs(generic_height(sys, b) - d) == 1


def test_gallery_path_independence():
    """The last height along the gallery of a word, crossing one wall at
    a time from A+, is the height of the product of the word."""
    rng = random.Random(8)
    for sys in (A1, A2, B2):
        for _ in range(20):
            word = [rng.choice(list(gen_indices(sys))) for _ in range(rng.randint(0, 8))]
            x = identity_elt(sys)
            heights = [generic_height(sys, x)]
            for i in word:
                x = x * simple_reflection(sys, i)
                heights.append(generic_height(sys, x))
            assert heights[-1] == generic_height(sys, from_word(sys, word))


def test_generic_leq_reflexive_and_w0():
    for sys in (A1, A2):
        aplus = identity_elt(sys)
        assert generic_leq(sys, aplus, aplus)
        below = w0_elt(sys)
        assert generic_leq(sys, below, aplus)
        assert not generic_leq(sys, aplus, below)


def test_generic_leq_total_order_a1():
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert generic_leq(A1, a1_alcove(m), a1_alcove(n)) == (m <= n)


def test_generic_leq_refines_height():
    rng = random.Random(15)
    elts = waff_elements(A2, 4)
    for _ in range(40):
        a, b = rng.choice(elts), rng.choice(elts)
        if generic_leq(A2, a, b) and a != b:
            assert generic_height(A2, a) < generic_height(A2, b)


def test_generic_leq_answers_a_far_pair_both_ways():
    # a height gap of 6 is answered in both directions, with no search
    e, far = identity_elt(A1), translation_elt(A1, Weight((6,)))
    assert generic_height(A1, far) - generic_height(A1, e) == 6
    assert generic_leq(A1, e, far)
    assert not generic_leq(A1, far, e)


def test_generic_leq_leaves_x_and_x_omega_unordered():
    # x and x omega label one alcove, so they share a height and their
    # Shi coordinates, and distinct labels of one height are unordered
    omegas = [o for o in omega_group(A2) if o != identity_elt(A2)]
    assert len(omegas) == 2
    for x in waff_elements(A2, 3):
        for o in omegas:
            assert generic_height(A2, x * o) == generic_height(A2, x)
            assert not generic_leq(A2, x, x * o)
            assert not generic_leq(A2, x * o, x)


def test_alcove_check_fundamental():
    assert check(CTX_A1, identity_elt(A1)) == w0_elt(A1)
    assert check(CTX_A2, identity_elt(A2)) == w0_elt(A2)


def test_alcove_check_commutes_with_root_translation():
    alpha = A2.positive_roots[0].as_weight()
    t = translation_elt(A2, alpha)
    for x in waff_elements(A2, 3):
        lhs = check(CTX_A2, t * x)
        rhs = t * check(CTX_A2, x)
        assert lhs == rhs


def test_alcove_check_pattern_a1():
    # checking an alcove on the line moves it one step down
    for n in range(-3, 4):
        assert check(CTX_A1, a1_alcove(n)) == a1_alcove(n - 1)
