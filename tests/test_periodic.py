import pickle
import random
from functools import partial

import pytest

from alcove_kl import periodic
from alcove_kl.alcove import generic_height
from alcove_kl.errors import ConsistencyError, DomainError, StabilizationError, WindowError
from alcove_kl.hecke import act_hb_s
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import (
    PeriodicWindow,
    canonical_pair,
    in_support_band,
    orbit_key,
    periodic_kl,
    pkl_table,
)
from alcove_kl.rootsys import ModularContext, Weight, build_root_system
from alcove_kl.weylext import (
    ExtWeylElt,
    check,
    from_word,
    gen_indices,
    identity_elt,
    in_waff,
    length,
    omega_group,
    simple_reflection,
    socle_pairs,
    translate,
    translation_elt,
    w0_elt,
    waff_elements,
)
from conftest import dihedral_element

A2, B2 = build_root_system("A", 2), build_root_system("B", 2)
V = LaurentPoly.gen()
VINV = LaurentPoly.gen(-1)
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def a1_periodic_oracle(sys, y, w):
    """Closed form on the alcove line: 1 on the diagonal, v one step down."""
    m, n = generic_height(sys, y), generic_height(sys, w)
    if (m, y) == (n, w):
        return ONE
    if m == n - 1:
        return V if y == dihedral_element(sys, m) and w == dihedral_element(sys, n) else LaurentPoly.zero()
    return LaurentPoly.zero()


# -- the generator action -----------------------------------------------------


def act_gen(win, element, i):
    """Right action of Hb_{s_i} on ``element`` (x(A+) keyed by x) by the
    window's own rule, which cuts crossings out of the window: the new
    element and whether the rule dropped a crossing."""
    numbered = [(win.number(x), p) for x, p in element.items()]
    acc = act_hb_s(numbered, partial(win.act, i))
    cut = any(win.act(i, k)[0] is None for k, _ in numbered)
    return {win.elts[k]: p for k, p in acc.items()}, cut


def test_act_gen_fundamental_affine_wall(a1, a2):
    for sys in (a1, a2):
        aplus = identity_elt(sys)
        out, _ = act_gen(PeriodicWindow(sys, 4), {aplus: ONE}, 0)
        s0_alcove = from_word(sys, [0])
        assert out == {s0_alcove: ONE, aplus: V}


def test_act_gen_fundamental_finite_wall(a1, a2):
    for sys in (a1, a2):
        aplus = identity_elt(sys)
        out, _ = act_gen(PeriodicWindow(sys, 4), {aplus: ONE}, 1)
        s1_alcove = from_word(sys, [1])
        assert out == {s1_alcove: ONE, aplus: VINV}


def test_act_gen_squares_to_v_plus_vinv(a2):
    aplus = identity_elt(a2)
    win = PeriodicWindow(a2, 6)
    for i in gen_indices(a2):
        once, truncated_once = act_gen(win, {aplus: ONE}, i)
        twice, truncated_twice = act_gen(win, once, i)
        expected = {a: (V + VINV) * p for a, p in once.items()}
        assert twice == expected
        assert not (truncated_once or truncated_twice)


def test_act_gen_records_truncation(a1):
    far = dihedral_element(a1, 3)
    up = next(
        i for i in gen_indices(a1)
        if generic_height(a1, far * simple_reflection(a1, i)) > generic_height(a1, far)
    )
    out, truncated = act_gen(PeriodicWindow(a1, 3), {far: ONE}, up)
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
            assert generic_leq(sys, y, w)


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
        base = periodic._coefficient_stabilized(sys, y, w, radius=12)
        moved = periodic._coefficient_stabilized(sys, t * y, t * w, radius=12)
        assert base == moved


# -- tables ---------------------------------------------------------------------


def test_pkl_table_contents(ctx_a1):
    table = pkl_table(ctx_a1, length_bound=5, radius=8)
    sys = ctx_a1.system
    for w in waff_elements(sys, 5):
        for y in waff_elements(sys, 5):
            entry = table.entries[canonical_pair(sys, y, w)]
            assert entry.stabilized
            assert entry.poly == a1_periodic_oracle(sys, y, w)


def test_pkl_table_radius_agreement(ctx_a2):
    t1 = pkl_table(ctx_a2, length_bound=3, radius=10)
    t2 = pkl_table(ctx_a2, length_bound=3, radius=12)
    for key, entry in t1.entries.items():
        other = t2.entries.get(key)
        if entry.stabilized and other is not None and other.stabilized:
            assert entry.poly == other.poly


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


@pytest.mark.parametrize("wrong", ["socle", "diagonal"])
def test_the_gate_refuses_a_wrong_value(a2, monkeypatch, wrong):
    # the reader returns zero at one kind of pair: the socle monomial is
    # read off the diagonal, the normalization on it
    read = periodic._read
    diagonals = []

    def reader(sys, y, w, radius):
        diagonals.append(y == w)
        if (y == w) == (wrong == "diagonal"):
            return ZERO, ZERO
        return read(sys, y, w, radius)

    monkeypatch.setattr(periodic, "_read", reader)
    assert periodic._gate_passes.__wrapped__(a2) is False
    # the gate refused at the first wrong value, after one right socle
    # value when the diagonal is wrong
    assert diagonals == {"socle": [False], "diagonal": [False, True]}[wrong]


def test_the_gate_fails_closed_on_a_pair_out_of_reach(a2, monkeypatch):
    pairs = socle_pairs(a2)
    rad = periodic._gate_radius(a2)
    assert rad >= max(length(a2, x) for pair in pairs for x in pair)
    # a radius that reaches every pair but a translate of one: the gate
    # refuses, where one that skipped that pair would pass on the rest
    far = tuple(translate((2 * rad,) * a2.rank, x) for x in pairs[0])
    assert min(map(partial(length, a2), far)) > rad
    monkeypatch.setattr(periodic, "socle_pairs", lambda sys: [*pairs, far])
    monkeypatch.setattr(periodic, "_gate_radius", lambda sys: rad)
    assert periodic._gate_passes.__wrapped__(a2) is False


def test_out_of_reach_raises(ctx_a1):
    sys = ctx_a1.system
    y = dihedral_element(sys, 4)
    w = dihedral_element(sys, 5)
    with pytest.raises((WindowError, StabilizationError)):
        periodic._coefficient_stabilized(sys, y, w, radius=3)
    # the translation-normalized form of the same pair is in reach
    assert periodic_kl(ctx_a1, y, w, radius=3) == V


def test_periodic_kl_rejects_labels_outside_waff(ctx_a1):
    # t_{omega_1} lies in the extended group but labels no alcove
    sys = ctx_a1.system
    t = translation_elt(sys, Weight((1,)))
    e = identity_elt(sys)
    for y, w in ((t, e), (e, t)):
        with pytest.raises(DomainError):
            periodic_kl(ctx_a1, y, w, radius=8)


def test_periodic_kl_refuses_omega_labels_outside_waff():
    # every length-zero element but the identity labels no alcove; the
    # refusal comes before the gate, which B2 and G2 fail
    for cartan_type, rank, p in (("A", 1, 5), ("A", 2, 5), ("B", 2, 5), ("G", 2, 7)):
        sys = build_root_system(cartan_type, rank)
        ctx = ModularContext(sys, p)
        e = identity_elt(sys)
        outside = [o for o in omega_group(sys) if not in_waff(sys, o)]
        assert outside or str(sys) == "G2"  # G2's Omega is trivial
        for o in outside:
            for y, w in ((o, e), (e, o), (o, o)):
                with pytest.raises(DomainError):
                    periodic_kl(ctx, y, w, radius=8)


# -- the value memo ---------------------------------------------------------------


def test_a_memoized_value_equals_a_fresh_contexts_value(a2, monkeypatch):
    ctx = ModularContext(a2, 5)
    elements = waff_elements(a2, 3)
    first = {(y, w): periodic_kl(ctx, y, w, 13) for w in elements for y in elements}
    # one memo key per orbit: as many keys as canonical pairs, each the
    # orbit key of every pair that shares the canonical pair
    orbits = {}
    for y, w in first:
        orbits.setdefault(canonical_pair(a2, y, w), set()).add(orbit_key(a2, y, w))
    assert all(len(keys) == 1 for keys in orbits.values())
    assert set(ctx._values) == {(key, 13) for (key,) in orbits.values()}
    assert len(ctx._values) == len(orbits)
    # a second read of every pair reads no window
    reads, read = [], periodic._read
    monkeypatch.setattr(periodic, "_read", lambda *args: reads.append(args) or read(*args))
    again = {pair: periodic_kl(ctx, *pair, 13) for pair in first}
    assert reads == [] and again == first
    monkeypatch.undo()
    fresh = ModularContext(a2, 5)
    assert all(periodic_kl(fresh, y, w, 13) == value for (y, w), value in first.items())


def calls_of(monkeypatch, name):
    """The list that records every call of ``periodic.<name>`` from here on."""
    calls, fn = [], getattr(periodic, name)
    monkeypatch.setattr(periodic, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def elements_made(monkeypatch):
    """The list that records every ``ExtWeylElt`` formed from here on."""
    made, init = [], ExtWeylElt.__init__
    monkeypatch.setattr(ExtWeylElt, "__init__", lambda x, *args: made.append(args) or init(x, *args))
    return made


# a root-lattice translation of A2: alpha_1 + 2 alpha_2 on the fundamental weights
NU = (0, 3)


def test_a_memo_hit_forms_no_element(a2, monkeypatch):
    ctx = ModularContext(a2, 5)
    x, w0x = socle_pairs(a2)[0]
    assert periodic_kl(ctx, w0x, x, 13) == V**3
    far = translate(NU, w0x), translate(NU, x)
    translates, made = calls_of(monkeypatch, "translate"), elements_made(monkeypatch)
    assert periodic_kl(ctx, *far, 13) == V**3 and periodic_kl(ctx, w0x, x, 13) == V**3
    assert translates == [] and made == [] and len(ctx._values) == 1


def test_an_out_of_band_miss_forms_no_element_and_reads_no_window(a2, monkeypatch):
    ctx = ModularContext(a2, 5)
    periodic._validate_conventions(a2)  # the gate reads its own windows first
    e = identity_elt(a2)
    deep = translation_elt(a2, Weight((-4, -4)))
    pairs = [(deep, e), (translate(NU, deep), translate(NU, e))]
    assert not any(in_support_band(a2, y, w) for y, w in pairs)
    translates, made = calls_of(monkeypatch, "translate"), elements_made(monkeypatch)
    reads = calls_of(monkeypatch, "_read")
    assert all(periodic_kl(ctx, y, w, 13) == ZERO for y, w in pairs)
    assert translates == [] and made == [] and reads == [] and len(ctx._values) == 1


def test_a_table_forms_one_canonical_pair_per_orbit(a2, monkeypatch):
    calls = calls_of(monkeypatch, "canonical_pair")
    table = pkl_table(ModularContext(a2, 5), length_bound=4, radius=10)
    assert len(calls) == len(table.entries) == 486
    assert set(table.entries) == {canonical_pair(*args) for args in calls}


def test_equal_contexts_do_not_share_the_value_memo_and_a_pickle_has_none(a2):
    ctx, other = ModularContext(a2, 5), ModularContext(a2, 5)
    e = identity_elt(a2)
    assert periodic_kl(ctx, e, e, 13) == ONE
    assert ctx == other and len(ctx._values) == 1 and other._values == {}
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone == ctx and clone._values == {} and clone._memo == {}


def test_raw_reads_bypass_the_value_memo(a2):
    # a table reads raw, through no context's value memo
    ctx = ModularContext(a2, 5)
    pkl_table(ctx, length_bound=2, radius=13)
    assert ctx._values == {}


RAISING_READS = {
    # the error test's pair, unstable between radius 4 and 5
    "small radius": (A2, from_word(A2, [2]), identity_elt(A2), 4, StabilizationError),
    # its canonical column w0 is longer than the radius
    "out of reach": (A2, w0_elt(A2), w0_elt(A2), 2, WindowError),
    "B2 gate": (B2, identity_elt(B2), identity_elt(B2), 10, ConsistencyError),
}


@pytest.mark.parametrize("case", RAISING_READS)
def test_a_read_that_raises_memoizes_nothing_and_raises_again(case):
    sys, y, w, radius, error = RAISING_READS[case]
    ctx = ModularContext(sys, 5)
    for _ in range(2):
        with pytest.raises(error):
            periodic_kl(ctx, y, w, radius)
        assert ctx._values == {}
