import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_kl.errors import ConfigError
from alcove_kl.rootsys import (
    ModularContext,
    Weight,
    build_root_system,
    dominance_leq,
    is_restricted,
    kostant_partition,
    in_root_lattice,
    root_coords,
)
from alcove_kl.weylext import lattice_class, w0_elt


A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def kostant_by_enumeration(sys, nu, bound=None):
    """Independent oracle: enumerate all coefficient tuples directly."""
    target = root_coords(sys, nu)
    if any(x.denominator != 1 or x < 0 for x in target):
        return 0
    target = tuple(int(x) for x in target)
    ranges = []
    for r in sys.positive_roots:
        cmax = min(target[i] // r.root[i] for i in range(sys.rank) if r.root[i])
        if bound is not None:
            cmax = min(cmax, bound)
        ranges.append(range(cmax + 1))
    count = 0
    for combo in itertools.product(*ranges):
        s = [0] * sys.rank
        for c, r in zip(combo, sys.positive_roots):
            for i in range(sys.rank):
                s[i] += c * r.root[i]
        if tuple(s) == target:
            count += 1
    return count


@pytest.mark.parametrize(
    "typ,rank,n_pos,order",
    [
        ("A", 1, 1, 2),
        ("A", 2, 3, 6),
        ("A", 3, 6, 24),
        ("B", 2, 4, 8),
        ("C", 2, 4, 8),
        ("B", 3, 9, 48),
        ("C", 3, 9, 48),
        ("D", 4, 12, 192),
        ("G", 2, 6, 12),
        ("F", 4, 24, 1152),
        ("E", 6, 36, 51840),
    ],
)
def test_counts(typ, rank, n_pos, order):
    sys = build_root_system(typ, rank)
    assert sys.num_positive_roots == n_pos
    assert sys.weyl_order == order
    assert len(sys.w0_word) == n_pos


def test_rank_one_axioms():
    assert A1.num_positive_roots == 1
    alpha = A1.positive_roots[0]
    assert A1.pairing(alpha.as_weight(), alpha) == 2


def test_a2_data():
    assert A2.rho == Weight((1, 1))
    assert len(A2.w0_word) == 3
    # pairings of simple roots reproduce the Cartan matrix
    for i in range(2):
        for j in range(2):
            assert A2.pairing(A2.simple_roots[j], A2.positive_roots[i]) in (2, -1)


def test_cartan_invariants_all_small_types():
    for sys in (A1, A2, B2, G2):
        for i in range(sys.rank):
            assert sys.pairing(sys.rho, sys.positive_roots[i]) >= 1
        # rho pairs to 1 with every simple coroot
        simples = [r for r in sys.positive_roots if r.height == 1]
        assert len(simples) == sys.rank
        for r in simples:
            assert sys.pairing(sys.rho, r) == 1


def test_w0_negates_positive_roots():
    for sys in (A1, A2, B2, G2):
        w0 = w0_elt(sys)
        images = {tuple((-w0.finite_apply(r.as_weight())).coords) for r in sys.positive_roots}
        assert images == {r.fund for r in sys.positive_roots}


def test_coxeter_numbers():
    assert A1.coxeter_number == 2
    assert A2.coxeter_number == 3
    assert B2.coxeter_number == 4
    assert G2.coxeter_number == 6


def test_invalid_configurations():
    with pytest.raises(ConfigError):
        build_root_system("Z", 2)
    with pytest.raises(ConfigError):
        build_root_system("E", 9)
    with pytest.raises(ConfigError):
        build_root_system("G", 3)
    with pytest.raises(ConfigError):
        ModularContext(A2, 4)  # not prime
    with pytest.raises(ConfigError):
        ModularContext(G2, 5)  # not > h = 6


def test_dominance():
    lam = Weight((1, -2))
    assert dominance_leq(A2, lam, lam)
    zero = Weight.zero(2)
    a1a2 = A2.positive_roots[0].as_weight() + A2.positive_roots[1].as_weight()
    assert dominance_leq(A2, zero, a1a2)
    # the fundamental weight of A1 is not in the root lattice
    assert not dominance_leq(A1, Weight.zero(1), Weight((1,)))
    assert not dominance_leq(A1, Weight((2,)), Weight.zero(1))  # alpha not <= 0


def test_kostant_small_values():
    assert kostant_partition(A2, Weight.zero(2)) == 1
    a1 = A2.positive_roots[0].as_weight()
    a2 = A2.positive_roots[1].as_weight()
    assert kostant_partition(A2, a1 + a2) == 2
    # A1 with bound p-1: p*alpha has no bounded decomposition
    p = 5
    alpha = A1.positive_roots[0].as_weight()
    assert kostant_partition(A1, p * alpha, bound=p - 1) == 0
    assert kostant_partition(A1, p * alpha) == 1


@pytest.mark.parametrize("sys", [A2, B2, G2], ids=str)
def test_kostant_against_enumeration(sys):
    a = sys.positive_roots[0].as_weight()
    b = sys.positive_roots[1].as_weight()
    for i in range(4):
        for j in range(4):
            nu = i * a + j * b
            assert kostant_partition(sys, nu) == kostant_by_enumeration(sys, nu)
            assert kostant_partition(sys, nu, bound=2) == kostant_by_enumeration(
                sys, nu, bound=2
            )


def test_kostant_bound_monotone():
    for i, j in itertools.product(range(5), repeat=2):
        nu = Weight((i, j))
        full = kostant_partition(A2, nu)
        for bound in (0, 1, 2, 3):
            assert kostant_partition(A2, nu, bound=bound) <= full


def test_is_restricted():
    ctx = ModularContext(A2, 5)
    assert is_restricted(ctx, Weight.zero(2))
    assert is_restricted(ctx, Weight((4, 4)))  # (p-1) rho
    assert not is_restricted(ctx, Weight((5, 0)))  # p omega_1
    assert not is_restricted(ctx, Weight((-1, 0)))


LATTICE_TYPES = [
    build_root_system(t, n)
    for t, n in (
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
        ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6),
    )
]


@st.composite
def system_and_weights(draw):
    sys = draw(st.sampled_from(LATTICE_TYPES))
    weight = st.lists(st.integers(-7, 7), min_size=sys.rank, max_size=sys.rank)
    return sys, Weight(tuple(draw(weight))), Weight(tuple(draw(weight)))


@settings(max_examples=300, deadline=None, database=None)
@given(system_and_weights())
def test_integer_lattice_tests_match_fraction_coordinates(case):
    """The integer root-lattice, dominance and class tests agree with the
    rational root coordinates, which are checked to solve C c = lam."""
    sys, lam, mu = case
    c = root_coords(sys, lam)
    assert all(
        sum(sys.cartan[k][j] * c[j] for j in range(sys.rank)) == lam.coords[k]
        for k in range(sys.rank)
    )
    assert in_root_lattice(sys, lam) == all(x.denominator == 1 for x in c)
    diff = root_coords(sys, mu - lam)
    assert dominance_leq(sys, lam, mu) == all(x.denominator == 1 and x >= 0 for x in diff)
    # the class representative is lam minus the integer part of its coordinates
    floor = [x.numerator // x.denominator for x in c]
    rep = root_coords(sys, Weight(lattice_class(sys, lam)))
    assert list(rep) == [x - f for x, f in zip(c, floor)]
    assert all(0 <= x < 1 for x in rep)
    assert lattice_class(sys, lam) == lattice_class(sys, lam + sys.simple_roots[0])
    if not all(x.denominator == 1 and x >= 0 for x in c):
        assert kostant_partition(sys, lam) == 0
