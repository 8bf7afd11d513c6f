"""The antispherical module as a periodic engine beside the windows.

Deep in the dominant chamber p_{y,w} = n_{ty,tw} with t = t_lambda
(Lusztig, Adv. Math. 37, 1980; Soergel, Represent. Theory 1, 1997).
``periodic.antispherical_kl`` reads it with t = t_{2n rho}.  These tests
hold it to the gate identities and the inversion identity, each against
a negative control whose dropped stay is the spherical v + v^-1 in place
of 0, and to the raw window values in A2, and pin the A2 pairs where
both agree on a nonzero value that the support band certifies as zero.
"""

from functools import lru_cache, partial

import pytest

from alcove_kl import periodic
from alcove_kl.errors import DomainError, ResourceError
from alcove_kl.hecke import KLComputer, antispherical_computer
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import PeriodicWindow, antispherical_kl, in_support_band
from alcove_kl.rootsys import Weight, build_root_system
from alcove_kl.weylext import (
    ExtWeylElt,
    check_for_system,
    from_word,
    identity_elt,
    in_waff,
    is_coset_minimal,
    length,
    omega_group,
    restricted_element_for,
    simple_reflection,
    socle_pairs,
    translation_elt,
    w0_elt,
    w0_waff_elements,
    waff_elements,
    weyl_group,
)

V, VINV = LaurentPoly.gen(), LaurentPoly.gen(-1)
SYSTEMS = {name: build_root_system(name[0], int(name[1])) for name in ("A1", "A2", "B2", "G2", "A3")}


def gate_identities(sys):
    """(passed, total) over the restricted x in W_aff of the identities
    p_{w0 x, x} = v^{l(w0)} and p_{x,x} = 1, the column x formed here as
    w0 check(x), which it equals for a restricted x."""
    w0 = w0_elt(sys)
    top = LaurentPoly.gen(length(sys, w0))
    xs = [restricted_element_for(sys, m) for m in weyl_group(sys)]
    xs = [x for x in xs if in_waff(sys, x)]
    passed = sum(
        antispherical_kl(sys, w0 * x, w0 * check_for_system(sys, x)) == top
        and antispherical_kl(sys, x, x) == LaurentPoly.one()
        for x in xs
    )
    return passed, len(xs)


def inversion_failures(sys, bound):
    """(failing, total) over the pairs (y, w) of length <= bound of the
    inversion identity v^{l(w0)} p_{w0 y, w0 check(w)}(v^-1) = p_{y,w}."""
    w0 = w0_elt(sys)
    top = LaurentPoly.gen(length(sys, w0))
    elements = waff_elements(sys, bound)
    failing = sum(
        top * antispherical_kl(sys, w0 * y, w0 * check_for_system(sys, w)).bar()
        != antispherical_kl(sys, y, w)
        for w in elements
        for y in elements
    )
    return failing, len(elements) ** 2


@lru_cache(maxsize=None)
def spherical_stays(sys):
    """The antispherical computer with the spherical stay v + v^-1 in place of 0."""
    return KLComputer(
        sys, "antispherical", partial(is_coset_minimal, sys),
        dropped=(V + VINV, V + VINV), length_bound=200,
    )


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_coset_minimal_means_every_finite_reflection_lengthens(name):
    sys = SYSTEMS[name]
    finite = [simple_reflection(sys, i) for i in range(1, sys.rank + 1)]
    for x in waff_elements(sys, 6):
        lx = length(sys, x)
        assert is_coset_minimal(sys, x) == all(length(sys, s * x) > lx for s in finite)


@pytest.mark.parametrize(
    "name, expected",
    [("A1", (1, 1)), ("A2", (2, 2)), ("B2", (4, 4)), ("G2", (12, 12)), ("A3", (6, 6))],
)
def test_the_gate_identities_hold_on_every_restricted_element(name, expected):
    assert gate_identities(SYSTEMS[name]) == expected


@pytest.mark.parametrize(
    "name, expected", [("A2", (1, 2)), ("B2", (1, 4)), ("A3", (1, 6))]
)
def test_the_spherical_stay_in_place_of_0_fails_the_gate(monkeypatch, name, expected):
    monkeypatch.setattr(periodic, "antispherical_computer", spherical_stays)
    assert gate_identities(SYSTEMS[name]) == expected


@pytest.mark.parametrize(
    "name, bound, pairs", [("A2", 3, 361), ("B2", 3, 289), ("G2", 2, 81), ("A3", 2, 225)]
)
def test_the_inversion_identity_holds_on_every_pair(name, bound, pairs):
    assert inversion_failures(SYSTEMS[name], bound) == (0, pairs)


@pytest.mark.parametrize("name, expected", [("A2", (325, 361)), ("B2", (266, 289))])
def test_the_spherical_stay_in_place_of_0_fails_the_inversion_identity(
    monkeypatch, name, expected
):
    monkeypatch.setattr(periodic, "antispherical_computer", spherical_stays)
    assert inversion_failures(SYSTEMS[name], 3) == expected


# Donkin-BGG (ROADMAP item 7(b)): for p >= 2h - 2 and lam = x.0 restricted,
# dim T(t_{2 rho} w0 x . 0) = p^{|positive roots|} * sum over w in W_aff of
# p_{w0 w, w0 x}(1).  Each column sum, summed over the w of length <= L,
# is stable across two successive bounds L; by l(x): A1 (0), A2 (1, 0)
# and B2 (1, 2, 3, 0).  G2's sums still grow at L = 21, and the windows'
# periodic_kl reads 8 in place of 12 at A2's x = e.
@pytest.mark.parametrize(
    "name, bounds, sums",
    [
        ("A1", (4, 5), {0: 2}),
        ("A2", (9, 10), {1: 6, 0: 12}),
        ("B2", (13, 14), {1: 24, 2: 16, 3: 8, 0: 32}),
    ],
)
def test_the_donkin_bgg_column_sums_are_stable(name, bounds, sums):
    sys = SYSTEMS[name]
    for bound in bounds:
        pairs = w0_waff_elements(sys, bound)
        assert {
            length(sys, x): sum(antispherical_kl(sys, w0w, w0x).eval_at_one() for w0w, _ in pairs)
            for x, w0x in socle_pairs(sys)
        } == sums


# The A2 pairs (y, w) of length <= 4, as reduced words, where the engine
# and the windows of radius 12 and 13 agree on a nonzero p_{y,w} that
# ``in_support_band`` certifies as zero, so the commands print 0 there.
BAND_ZEROED = {
    ("1,0", "0"): "v", ("2,0", "0"): "v", ("1,2,0", "0"): "v^2", ("2,1,0", "0"): "v^2",
    ("2,1", "1"): "v", ("1,0,2,0", "1"): "v", ("1,2", "2"): "v", ("2,0,1,0", "2"): "v",
    ("", "0,1,0"): "v", ("1,2,1", "0,1,0"): "v^2", ("1,0,2,1", "0,1,0"): "v",
    ("2", "0,1,2"): "v^2", ("0,2", "0,1,2"): "v", ("1,0,2", "0,1,2"): "v^2",
    ("0,1,0,2", "0,1,2"): "v", ("", "0,2,0"): "v", ("1,2,1", "0,2,0"): "v^2",
    ("2,0,1,2", "0,2,0"): "v", ("1", "0,2,1"): "v^2", ("0,1", "0,2,1"): "v",
    ("2,0,1", "0,2,1"): "v^2", ("0,2,0,1", "0,2,1"): "v", ("1,2", "1,0,2"): "v",
    ("1,2,1,0", "1,2,0"): "v", ("1,2,0,1", "1,2,1"): "v", ("2,1,0,2", "1,2,1"): "v",
    ("2,1", "2,0,1"): "v", ("1,2,1,0", "2,1,0"): "v",
}


def _elt(sys, word):
    return from_word(sys, [int(c) for c in word.split(",") if c])


def test_a2_values_match_every_stabilized_window_value():
    """All 961 A2 pairs of length <= 4 against the raw window values at
    radius 12 and 13: equal wherever the windows stabilize, and nonzero
    at exactly the pinned pairs outside the support band."""
    sys = SYSTEMS["A2"]
    elements = waff_elements(sys, 4)
    small, large = PeriodicWindow(sys, 12), PeriodicWindow(sys, 13)
    equal = differ = unstable = 0
    band_zeroed = {}
    for w in elements:
        for y in elements:
            first, second = small.coefficient(y, w), large.coefficient(y, w)
            value = antispherical_kl(sys, y, w)
            if first != second:
                unstable += 1
            elif value == second:
                equal += 1
            else:
                differ += 1
            if value and not in_support_band(sys, y, w):
                band_zeroed[y, w] = str(value)
    assert (len(elements) ** 2, equal, differ, unstable) == (961, 958, 0, 3)
    pinned = {(_elt(sys, y), _elt(sys, w)): p for (y, w), p in BAND_ZEROED.items()}
    assert band_zeroed == pinned
    assert all(small.coefficient(y, w) == large.coefficient(y, w) for y, w in pinned)


def test_a_warm_read_forms_no_product(monkeypatch):
    """Each depth translates the labels from coordinates, so once the
    computer holds the rows a read forms no group product, and the
    band-zeroed pairs keep their pinned values."""
    sys = SYSTEMS["A2"]
    pairs = [(_elt(sys, y), _elt(sys, w)) for y, w in BAND_ZEROED]
    for y, w in pairs:
        antispherical_kl(sys, y, w)
    calls, mul = [], ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    values = [str(antispherical_kl(sys, y, w)) for y, w in pairs]
    assert len(pairs) == 28 and values == list(BAND_ZEROED.values())
    assert calls == []


def test_the_ext_example_pair_reads_v_at_every_depth():
    # ext --type A --rank 2 --p 5 --w 0 --y 1,0 reads this pair
    sys = SYSTEMS["A2"]
    y, w = _elt(sys, "1,0"), _elt(sys, "0")
    comp = antispherical_computer(sys)
    for n in range(1, 6):
        t = translation_elt(sys, Weight((2 * n, 2 * n)))
        assert comp.row(t * w).get(t * y) == V
    assert not in_support_band(sys, y, w)


def test_labels_outside_w_aff_are_refused():
    sys = SYSTEMS["A2"]
    e, omega = identity_elt(sys), omega_group(sys)[1]
    assert not in_waff(sys, omega)
    for y, w in ((omega, e), (e, omega)):
        with pytest.raises(DomainError, match="W_aff"):
            antispherical_kl(sys, y, w)


def test_the_depth_runs_out_at_the_length_bound(monkeypatch):
    sys = SYSTEMS["G2"]

    def short(sys):
        return KLComputer(
            sys, "antispherical", partial(is_coset_minimal, sys),
            dropped=(LaurentPoly.zero(), LaurentPoly.zero()), length_bound=40,
        )

    monkeypatch.setattr(periodic, "antispherical_computer", short)
    x = restricted_element_for(sys, weyl_group(sys)[-1])
    with pytest.raises(ResourceError, match="exceeds the configured bound 40"):
        antispherical_kl(sys, x, x)
