import random

import pytest

from alcove_kl.alcove import (
    DOWN,
    UP,
    generic_height,
    generic_leq,
    wall_cross,
)
from alcove_kl.errors import IndeterminateError
from alcove_kl.rootsys import ModularContext, Weight, build_root_system
from alcove_kl.weylext import (
    check,
    from_word,
    gen_indices,
    identity_elt,
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


def test_wall_cross_directions_from_fundamental():
    for sys in (A1, A2, B2):
        aplus = identity_elt(sys)
        for i in gen_indices(sys):
            _, direction = wall_cross(sys, aplus, i)
            assert direction == (UP if i == 0 else DOWN)


def test_wall_cross_involutive():
    rng = random.Random(3)
    for sys in (A1, A2, B2):
        for x in waff_elements(sys, 3):
            a = x
            for i in gen_indices(sys):
                b, d1 = wall_cross(sys, a, i)
                back, d2 = wall_cross(sys, b, i)
                assert back == a
                assert {d1, d2} == {UP, DOWN}


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
                b, direction = wall_cross(sys, a, i)
                assert generic_height(sys, b) == d + (1 if direction == UP else -1)


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
        assert generic_leq(sys, aplus, aplus, radius=1)
        below = w0_elt(sys)
        assert generic_leq(sys, below, aplus, radius=6)
        assert not generic_leq(sys, aplus, below, radius=6)


def test_generic_leq_total_order_a1():
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert generic_leq(A1, a1_alcove(m), a1_alcove(n), radius=8) == (m <= n)


def test_generic_leq_refines_height():
    rng = random.Random(15)
    elts = waff_elements(A2, 4)
    for _ in range(40):
        a, b = rng.choice(elts), rng.choice(elts)
        try:
            if generic_leq(A2, a, b, radius=10) and a != b:
                assert generic_height(A2, a) < generic_height(A2, b)
        except IndeterminateError:
            pass


def test_generic_leq_radius_exhaustion():
    far = translation_elt(A1, Weight((6,)))
    with pytest.raises(IndeterminateError):
        generic_leq(A1, identity_elt(A1), far, radius=2)


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
