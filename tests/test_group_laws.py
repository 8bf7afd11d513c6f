"""Property tests for the group laws of the extended affine Weyl group.

Elements are drawn as omega * (a generator word of length at most 10) in
A1, A2, B2 and G2, with omega a length-zero element.  The finite part is
checked against matrices this file builds from ``reflection_mat`` along
the word, independently of the finite Weyl group table, and the affine
action at exact rational points.  The factorizations read off an
element's coordinates (the check involution, ``StdLabel``, Omega) are
checked against group products, and so is the translation-canonical
pair of the periodic polynomials.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alcove_kl
from alcove_kl.errors import DomainError
from alcove_kl.periodic import canonical_pair
from alcove_kl.repcalc import StdLabel
from alcove_kl.rootsys import ModularContext, Weight, build_root_system, in_root_lattice
from alcove_kl.weylext import (
    check,
    check_for_system,
    dot_action,
    finite_elt,
    finite_word,
    from_word,
    gen_indices,
    identity_elt,
    in_waff,
    length,
    omega_group,
    reflection_mat,
    restricted_element_for,
    translation_elt,
    w0_elt,
    weyl_group,
)

SYSTEMS = tuple(build_root_system(t, r) for t, r in (("A", 1), ("A", 2), ("B", 2), ("G", 2)))
PRIMES = {"A1": 5, "A2": 5, "B2": 5, "G2": 7}  # p > h

PROPERTY = settings(max_examples=100, deadline=None, database=None)


def words(sys):
    return st.lists(st.sampled_from(list(gen_indices(sys))), max_size=10)


def draw_element(data, sys):
    om = data.draw(st.sampled_from(omega_group(sys)))
    return om * from_word(sys, data.draw(words(sys)))


def matrix_along(sys, word):
    """The finite part of the word's product, as an integer matrix: the
    reflection in the i-th simple root for i >= 1, in the root of the
    highest coroot for i = 0."""
    simple = [r for r in sys.positive_roots if r.height == 1]
    n = sys.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in word:
        root = sys.affine_root if i == 0 else next(r for r in simple if r.root[i - 1])
        g = reflection_mat(sys, root)
        m = [[sum(m[a][k] * g[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
    return m


def apply(m, coords):
    return tuple(sum(c * x for c, x in zip(row, coords)) for row in m)


@PROPERTY
@given(st.data())
def test_associativity_and_identity(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    x, y, z = (draw_element(data, sys) for _ in range(3))
    e = identity_elt(sys)
    assert (x * y) * z == x * (y * z)
    assert e * x == x == x * e


@PROPERTY
@given(st.data())
def test_inverse_and_its_length(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    x = draw_element(data, sys)
    e = identity_elt(sys)
    assert x * x.inverse() == e == x.inverse() * x
    assert x.inverse().inverse() == x
    assert length(sys, x.inverse()) == length(sys, x)


@PROPERTY
@given(st.data())
def test_affine_and_dot_actions_are_actions(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    x, y = draw_element(data, sys), draw_element(data, sys)
    q = tuple(
        Fraction(data.draw(st.integers(-20, 20)), data.draw(st.integers(1, 7)))
        for _ in range(sys.rank)
    )
    assert (x * y).act_affine(q) == x.act_affine(y.act_affine(q))
    assert identity_elt(sys).act_affine(q) == q
    ctx = ModularContext(sys, PRIMES[str(sys)])
    mu = Weight(tuple(data.draw(st.integers(-9, 9)) for _ in range(sys.rank)))
    assert dot_action(ctx, x * y, mu) == dot_action(ctx, x, dot_action(ctx, y, mu))


@PROPERTY
@given(st.data())
def test_finite_part_matches_reflection_matrices(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    word = data.draw(words(sys))
    x = from_word(sys, word)
    lam = Weight(tuple(data.draw(st.integers(-5, 5)) for _ in range(sys.rank)))
    assert x.finite_apply(lam).coords == apply(matrix_along(sys, word), lam.coords)
    backwards = matrix_along(sys, list(reversed(word)))
    assert x.inverse().finite_apply(lam).coords == apply(backwards, lam.coords)
    # the shortlex word of the finite part rebuilds it
    fin_word = finite_word(sys, x.fin)
    assert from_word(sys, fin_word) == finite_elt(sys, x.fin)
    assert apply(matrix_along(sys, fin_word), lam.coords) == x.finite_apply(lam).coords


@PROPERTY
@given(st.data())
def test_check_of_w0_check_is_w0(data):
    # check(w0 check(x)) = w0 x: the involution under the support band
    # and the inversion identity
    sys = data.draw(st.sampled_from(SYSTEMS))
    ctx = ModularContext(sys, PRIMES[str(sys)])
    x = draw_element(data, sys)
    w0 = w0_elt(sys)
    assert check(ctx, w0 * check(ctx, x)) == w0 * x


@PROPERTY
@given(st.data())
def test_check_multiplies_the_finite_part_by_w0(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    ctx = ModularContext(sys, PRIMES[str(sys)])
    x = draw_element(data, sys)
    assert finite_elt(sys, check(ctx, x).fin) == w0_elt(sys) * finite_elt(sys, x.fin)


def test_weyl_group_lists_every_element_in_matrix_order():
    # the finite table numbers elements as they are met; weyl_group must
    # still give the whole group in the sorted order of the matrices
    for sys in SYSTEMS + (build_root_system("A", 3), build_root_system("C", 3)):
        n = sys.rank
        one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        simple = [reflection_mat(sys, r) for r in sys.positive_roots if r.height == 1]
        seen, frontier = {one}, [one]
        while frontier:
            frontier = [
                m for m in {
                    tuple(tuple(sum(a[k] * g[k][b] for k in range(n)) for b in range(n)) for a in f)
                    for f in frontier
                    for g in simple
                }
                if m not in seen
            ]
            seen.update(frontier)
        basis = [Weight(tuple(int(i == j) for i in range(n))) for j in range(n)]
        listed = [
            tuple(zip(*(finite_elt(sys, k).finite_apply(v).coords for v in basis)))
            for k in weyl_group(sys)
        ]
        assert listed == sorted(seen)


@PROPERTY
@given(st.data())
def test_check_equals_the_product_route(data):
    # the product route: t_nu = x w_res^-1, then t_nu w0 w_res
    sys = data.draw(st.sampled_from(SYSTEMS))
    x = draw_element(data, sys)
    w_res = restricted_element_for(sys, x.fin)
    t_part = x * w_res.inverse()
    assert finite_elt(sys, t_part.fin) == identity_elt(sys)
    assert check_for_system(sys, x) == t_part * w0_elt(sys) * w_res


@PROPERTY
@given(st.data())
def test_std_label_recomposes_to_its_element(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    ctx = ModularContext(sys, PRIMES[str(sys)])
    x = draw_element(data, sys)
    label = StdLabel.make(ctx, "L", x)
    assert label.index == restricted_element_for(sys, x.fin)
    nu, rest = zip(*(divmod(c, ctx.p) for c in label.shift.coords))
    assert not any(rest)
    assert translation_elt(sys, Weight(nu)) * label.index == x


@PROPERTY
@given(st.data())
def test_canonical_pair_equals_the_product_route(data):
    # the product route: w = t_nu u with nu = u(lam), then (t_{-nu} y, u)
    sys = data.draw(st.sampled_from(SYSTEMS))
    y, w = (from_word(sys, data.draw(words(sys))) for _ in range(2))
    nu = w.finite_apply(w.translation)
    assert canonical_pair(sys, y, w) == (
        translation_elt(sys, -nu) * y,
        finite_elt(sys, w.fin),
    )


def test_canonical_pair_refuses_labels_outside_waff():
    for sys in SYSTEMS:
        e = identity_elt(sys)
        outside = [o for o in omega_group(sys) if not in_waff(sys, o)]
        assert outside or str(sys) == "G2"  # G2's Omega is trivial
        for o in outside:
            for y, w in ((o, e), (e, o), (o, o)):
                with pytest.raises(DomainError):
                    canonical_pair(sys, y, w)


def _determinant(rows):
    m = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for j in range(len(m)):
        k = next(i for i in range(j, len(m)) if m[i][j])
        if k != j:
            m[j], m[k] = m[k], m[j]
            det = -det
        det *= m[j][j]
        for i in range(j + 1, len(m)):
            f = m[i][j] / m[j][j]
            m[i] = [a - f * b for a, b in zip(m[i], m[j])]
    return det


OMEGA_TYPES = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3",
    "D4", "D5", "E6", "E7", "E8", "F4", "G2",
)


@pytest.mark.parametrize("name", OMEGA_TYPES)
def test_omega_has_one_length_zero_element_per_class(name):
    # |X/Q| = det(Cartan); D4 has the non-cyclic group and D5 the order-4 one
    sys = build_root_system(name[0], int(name[1:]))
    omegas = omega_group(sys)
    assert len(omegas) == _determinant(sys.cartan)
    assert all(length(sys, o) == 0 for o in omegas)
    # no two of them differ by a translation in the root lattice
    for i, a in enumerate(omegas):
        for b in omegas[:i]:
            assert not in_root_lattice(sys, a.translation - b.translation)


def test_every_exported_name_resolves():
    for name in alcove_kl.__all__:
        assert hasattr(alcove_kl, name), name
