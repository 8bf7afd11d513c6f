import itertools
import random

import pytest

from alcove_kl import hecke
from alcove_kl.errors import ConsistencyError, DomainError
from alcove_kl.hecke import (
    bruhat_interval_below,
    coset_maximal_rep,
    is_coset_maximal,
    kl_basis,
    kl_basis_by_duality,
    mul_gen,
    mul_kl_gen,
    spherical_act_kl_gen,
    spherical_from_kl_row,
    spherical_kl,
    spherical_project,
    std_elt,
    unit,
)
from alcove_kl.laurent import LaurentPoly
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    from_word,
    gen_indices,
    identity_elt,
    length,
    omega_group,
    simple_reflection,
    w0_elt,
    waff_elements,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)

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


def product_coset_maximal_rep(sys, x):
    """The product probe: climb by any finite s_i that lengthens s_i x."""
    while True:
        up = [
            y
            for y in (simple_reflection(sys, i) * x for i in range(1, sys.rank + 1))
            if length(sys, y) > length(sys, x)
        ]
        if not up:
            return x
        x = up[0]


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
            assert coset_maximal_rep(sys, x) == product_coset_maximal_rep(sys, x)


def test_coset_maximal_rep_idempotent():
    for x in waff_elements(A2, 4):
        m = coset_maximal_rep(A2, x)
        assert is_coset_maximal(A2, m)
        assert coset_maximal_rep(A2, m) == m


def test_spherical_action_stabilizing_case():
    w0 = w0_elt(A2)
    e = {w0: ONE}
    for i in (1, 2):
        out = spherical_act_kl_gen(A2, e, i)
        assert out == {w0: V + VINV}


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


@pytest.mark.parametrize("sys,bound", [(A1, 6), (A2, 6)], ids=["dihedral", "rank2"])
def test_spherical_matches_ideal_expansion(sys, bound):
    """Expanding Hb_w in the ideal basis Hb_{w0} H_{y0} recovers the
    spherical canonical coefficients, for every coset-maximal w."""
    for w in waff_elements(sys, bound):
        if is_coset_maximal(sys, w):
            assert spherical_from_kl_row(sys, w) == spherical_kl(sys, w)


def test_spherical_expansion_refuses_a_leading_term_it_cannot_cancel(monkeypatch):
    """A wrong ideal basis vector leaves its leading term in the remainder;
    the expansion raises instead of picking that term again forever."""
    ideal = hecke.ideal_basis_elt
    monkeypatch.setattr(
        hecke, "ideal_basis_elt", lambda sys, y: {z: 2 * p for z, p in ideal(sys, y).items()}
    )
    w = from_word(A2, [1, 2, 1, 0])
    assert is_coset_maximal(A2, w)
    with pytest.raises(ConsistencyError, match="did not cancel its leading term"):
        spherical_from_kl_row(A2, w)


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
                rhs = spherical_act_kl_gen(sys, spherical_project(sys, h), i)
                assert lhs == rhs


def test_mul_kl_gen_square():
    # Hb_s^2 = (v + v^-1) Hb_s
    for sys in (A1, A2):
        for i in gen_indices(sys):
            hb_s = mul_kl_gen(sys, unit(sys), i)
            sq = mul_kl_gen(sys, hb_s, i)
            expected = {x: (V + VINV) * p for x, p in hb_s.items()}
            assert sq == expected
