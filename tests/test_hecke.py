import itertools
import random
from functools import partial

import pytest

from alcove_kl.errors import DomainError
from alcove_kl.hecke import (
    KLComputer,
    act_hb_s,
    antispherical_computer,
    bruhat_interval_below,
    is_coset_maximal,
    kl_basis,
    kl_basis_by_duality,
    kl_computer,
    mul_gen,
    mul_kl_gen,
    spherical_computer,
    spherical_kl,
    std_elt,
    unit,
)
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import PeriodicWindow
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    from_word,
    gen_indices,
    identity_elt,
    is_coset_minimal,
    length,
    omega_group,
    simple_reflection,
    w0_elt,
    waff_elements,
)

from conftest import product_coset_rep

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)


@pytest.mark.parametrize("cartan,rank,bound", [("A", 1, 8), ("A", 2, 5), ("B", 2, 5), ("G", 2, 5)])
def test_no_two_neighbouring_labels_have_equal_rank(cartan, rank, bound):
    """In every module no crossing keeps the rank, so ``_cross``, which
    calls a neighbour of rank at most k's lower, and a descent, a kept
    neighbour of rank below k's, agree: ``descent`` is the first
    generator whose stay code is down."""
    sys = build_root_system(cartan, rank)
    computers = [
        kl_computer(sys), spherical_computer(sys), antispherical_computer(sys),
        PeriodicWindow(sys, bound), PeriodicWindow(sys, bound, sign=-1),
    ]
    for comp in computers:
        for x in waff_elements(sys, bound):
            k = comp.number(x)
            lower = []
            for i in gen_indices(sys):
                n = comp.nbr(k, i)
                assert comp.ranks[n] != comp.ranks[k], (comp.name, x, i)
                if comp.ranks[n] < comp.ranks[k] and comp.kept[n]:
                    lower.append(i)
            assert comp.descent(k) == (lower[0] if lower else None)

V = LaurentPoly.gen()
VINV = LaurentPoly.gen(-1)
ONE = LaurentPoly.one()


def test_unit_times_generator():
    for sys in (A1, A2):
        for i in gen_indices(sys):
            h = mul_gen(sys, unit(sys), i)
            assert h == std_elt(sys, simple_reflection(sys, i))


def test_quadratic_relation():
    for sys in (A1, A2):
        for i in gen_indices(sys):
            s = simple_reflection(sys, i)
            h = mul_gen(sys, std_elt(sys, s), i)
            assert h[identity_elt(sys)] == ONE
            assert h[s] == VINV - V


def test_braid_relation_a2():
    # H_s H_t H_s = H_t H_s H_t for each pair of generators with m = 3
    for i, j in itertools.permutations(range(3), 2):
        lhs = unit(A2)
        for k in (i, j, i):
            lhs = mul_gen(A2, lhs, k)
        rhs = unit(A2)
        for k in (j, i, j):
            rhs = mul_gen(A2, rhs, k)
        assert lhs == rhs


def test_kl_diagonal_is_one():
    for sys in (A1, A2):
        for w in waff_elements(sys, 4):
            row = kl_basis(sys, w)
            assert row[w] == ONE


def test_kl_dihedral_closed_form():
    """In the infinite dihedral group every h_{y,w} is v^(l(w)-l(y))."""
    for w in waff_elements(A1, 8):
        row = kl_basis(A1, w)
        below = bruhat_interval_below(A1, w)
        assert set(row) == set(below)
        for y, p in row.items():
            assert p == LaurentPoly.gen(length(A1, w) - length(A1, y))


def test_kl_a2_longest_finite():
    w0 = w0_elt(A2)
    row = kl_basis(A2, w0)
    assert row[identity_elt(A2)] == LaurentPoly.gen(3)
    assert len(row) == 6  # all of the finite Weyl group


def test_kl_positivity_observed():
    for sys, bound in ((A1, 8), (A2, 5)):
        for w in waff_elements(sys, bound):
            for p in kl_basis(sys, w).values():
                assert p.has_nonneg_coeffs()


@pytest.mark.parametrize("sys,bound", [(A1, 8), (A2, 6)], ids=["dihedral", "rank2"])
def test_kl_oracle_equivalence(sys, bound):
    """mu-recursion output equals triangular bar-self-duality solving."""
    for w in waff_elements(sys, bound):
        assert kl_basis(sys, w) == kl_basis_by_duality(sys, w)


def test_kl_element_bar_invariant_via_expansion():
    """Check bar-invariance of canonical elements directly in A1-tilde."""
    from alcove_kl.hecke import bar_std

    for w in waff_elements(A1, 5):
        row = kl_basis(A1, w)
        image: dict = {}
        for y, p in row.items():
            for z, r in bar_std(A1, y).items():
                image[z] = image.get(z, LaurentPoly.zero()) + p.bar() * r
        image = {z: p for z, p in image.items() if p}
        assert image == row


# -- spherical module ---------------------------------------------------------


def test_coset_maximal_reps_a1():
    maxima = sorted(
        (x for x in waff_elements(A1, 6) if is_coset_maximal(A1, x)),
        key=lambda x: length(A1, x),
    )
    words = [(1,), (1, 0), (1, 0, 1), (1, 0, 1, 0), (1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)]
    assert maxima == [from_word(A1, w) for w in words]


def product_is_coset_maximal(sys, x):
    """The product probe: every finite s_i shortens s_i x."""
    return all(
        length(sys, simple_reflection(sys, i) * x) < length(sys, x)
        for i in range(1, sys.rank + 1)
    )


@pytest.mark.parametrize(
    "cartan,rank,bound",
    [("A", 1, 8), ("A", 2, 8), ("B", 2, 8), ("G", 2, 8), ("A", 3, 8), ("B", 3, 10), ("C", 3, 10)],
    ids=["A1", "A2", "B2", "G2", "A3", "B3", "C3"],
)
def test_coset_maximality_matches_the_product_probe(cartan, rank, bound):
    """The sign of k_{alpha_i} decides the left descents, on every omega z."""
    sys = build_root_system(cartan, rank)
    for om in omega_group(sys):
        for z in waff_elements(sys, bound):
            x = om * z
            assert is_coset_maximal(sys, x) == product_is_coset_maximal(sys, x)


def test_spherical_action_stabilizing_case():
    comp = spherical_computer(A2)
    w0 = comp.number(w0_elt(A2))
    for i in (1, 2):
        assert comp.act(i, w0) == (None, V + VINV)


def test_spherical_diagonal_and_domain():
    w0 = w0_elt(A2)
    assert spherical_kl(A2, w0) == {w0: ONE}
    with pytest.raises(DomainError):
        spherical_kl(A2, identity_elt(A2))


def test_spherical_dihedral_monomials():
    for w in waff_elements(A1, 7):
        if not is_coset_maximal(A1, w):
            continue
        row = spherical_kl(A1, w)
        for y, p in row.items():
            assert is_coset_maximal(A1, y)
            assert p == LaurentPoly.gen(length(A1, w) - length(A1, y))


# -- Soergel's Prop. 3.4: both parabolic modules against the Hecke rows --------
#
# Each identity is the only reference its module's rows have, so each
# comes with a negative control: a computer with the other module's
# dropped stays, which the identity must refuse.


def restriction_misses(sys, comp, bound):
    """(rows that break, rows checked) of m_{y,w} = h_{y,w} for y and w
    coset-maximal, with no other label in the spherical row, over the
    coset-maximal w of length <= bound and the rows of ``comp``."""
    ws = [w for w in waff_elements(sys, bound) if is_coset_maximal(sys, w)]
    broken = sum(
        comp.row(w) != {y: p for y, p in kl_basis(sys, w).items() if is_coset_maximal(sys, y)}
        for w in ws
    )
    return broken, len(ws)


def signed_fold(sys, y):
    """x -> sum_{z in W_f} (-v)^{l(z)} h_{zx,y} over the coset-minimal x:
    each u in the Hecke row of y is z x with x the minimal element of
    W_f u, found by products alone, and l(z) = l(u) - l(x)."""
    out = {}
    for u, p in kl_basis(sys, y).items():
        x = product_coset_rep(sys, u, longer=False)
        lz = length(sys, u) - length(sys, x)
        out[x] = out.get(x, LaurentPoly.zero()) + LaurentPoly.gen(lz, (-1) ** lz) * p
    return {x: p for x, p in out.items() if p}


def fold_misses(sys, comp, bound):
    """(rows that break, rows checked) of n_{x,y} = sum_{z in W_f}
    (-v)^{l(z)} h_{zx,y}, over the coset-minimal y of length <= bound
    and the rows of ``comp``."""
    ys = [y for y in waff_elements(sys, bound) if is_coset_minimal(sys, y)]
    return sum(comp.row(y) != signed_fold(sys, y) for y in ys), len(ys)


@pytest.mark.parametrize(
    "cartan,rank,bound,rows",
    [
        ("A", 1, 12, 12), ("A", 2, 10, 20), ("B", 2, 12, 18), ("G", 2, 12, 9),
        ("A", 3, 8, 4), ("B", 3, 13, 7), ("C", 3, 13, 7),
    ],
    ids=["A1", "A2", "B2", "G2", "A3", "B3", "C3"],
)
def test_spherical_rows_are_the_coset_maximal_part_of_the_hecke_rows(cartan, rank, bound, rows):
    """m_{y,w} = h_{y,w} for y and w maximal in their finite cosets, and
    the spherical row holds no other label (Soergel, Represent. Theory 1,
    1997, Prop. 3.4)."""
    sys = build_root_system(cartan, rank)
    assert restriction_misses(sys, spherical_computer(sys), bound) == (0, rows)


@pytest.mark.parametrize(
    "cartan,rank,bound,rows",
    [
        ("A", 1, 10, 11), ("A", 2, 6, 16), ("B", 2, 6, 12), ("G", 2, 6, 9),
        ("A", 3, 5, 16), ("B", 3, 4, 7), ("C", 3, 4, 7),
    ],
    ids=["A1", "A2", "B2", "G2", "A3", "B3", "C3"],
)
def test_antispherical_rows_are_the_signed_fold_of_the_hecke_rows(cartan, rank, bound, rows):
    """n_{x,y} = sum_{z in W_f} (-v)^{l(z)} h_{zx,y} for x and y minimal
    in their finite cosets (Soergel, Represent. Theory 1, 1997, Prop. 3.4)."""
    sys = build_root_system(cartan, rank)
    assert fold_misses(sys, antispherical_computer(sys), bound) == (0, rows)


def test_the_antispherical_stay_in_the_spherical_module_breaks_the_restriction():
    zero = LaurentPoly.zero()
    comp = KLComputer(A2, "spherical", partial(is_coset_maximal, A2), dropped=(zero, zero))
    assert restriction_misses(A2, comp, 8) == (10, 12)


def test_the_spherical_stay_in_the_antispherical_module_breaks_the_fold():
    comp = KLComputer(
        A2, "antispherical", partial(is_coset_minimal, A2),
        dropped=(V + VINV, V + VINV), length_bound=200,
    )
    assert fold_misses(A2, comp, 6) == (14, 16)


def spherical_project(sys, h):
    """The quotient map H -> spherical module: H_z goes to
    v^{l(m) - l(z)} M_m, with m the maximal element of W_f z."""
    acc = {}
    for z, p in h.items():
        m = product_coset_rep(sys, z, longer=True)
        acc[m] = acc.get(m, LaurentPoly.zero()) + LaurentPoly.gen(length(sys, m) - length(sys, z)) * p
    return {m: p for m, p in acc.items() if p}


def spherical_act(sys, e, i):
    """Right action of Hb_{s_i} on the spherical module, by the action
    rule of the spherical label table."""
    comp = spherical_computer(sys)
    acc = act_hb_s(((comp.number(x), p) for x, p in e.items()), partial(comp.act, i))
    return {comp.elts[k]: p for k, p in acc.items()}


def test_naive_projection_is_a_module_map():
    """The induced-module quotient intertwines the two Hb_s actions, which
    pins the spherical action trichotomy against the Hecke relations."""
    rng = random.Random(23)
    for sys in (A1, A2):
        elts = waff_elements(sys, 4)
        for _ in range(20):
            h = {
                rng.choice(elts): LaurentPoly.gen(rng.randint(-2, 2), rng.randint(-3, 3))
                for _ in range(3)
            }
            for i in gen_indices(sys):
                lhs = spherical_project(sys, mul_kl_gen(sys, h, i))
                rhs = spherical_act(sys, spherical_project(sys, h), i)
                assert lhs == rhs


def test_mul_kl_gen_square():
    # Hb_s^2 = (v + v^-1) Hb_s
    for sys in (A1, A2):
        for i in gen_indices(sys):
            hb_s = mul_kl_gen(sys, unit(sys), i)
            sq = mul_kl_gen(sys, hb_s, i)
            expected = {x: (V + VINV) * p for x, p in hb_s.items()}
            assert sq == expected
