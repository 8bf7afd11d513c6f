"""The laws of p that example tests only spot-check, on every value.

Every nonzero antispherical value p_{y,w} (``periodic.antispherical_kl``)
with w of length at most 4 and y of length at most 5 in A2 (3 and 4 in
B2 and G2) is held to four laws, with d the generic height and the gap
d(w) - d(y):

- every exponent has the parity of the gap, the Ext parity vanishing
  that Koszul duality predicts;
- the degree is at most the gap;
- every coefficient is positive;
- the diagonal value is 1;
- off the diagonal, y lies below w in Lusztig's generic Bruhat order
  (Adv. Math. 37, 1980), generated by the affine reflections that move
  an alcove to the positive side of their hyperplane.

These are necessary conditions only.  Each law is also shown to fail on
a deliberately wrong family of values, so a law that holds vacuously
fails its test, and the values each family spoils are counted.  The
up-crossing order ``alcove.generic_leq`` is a smaller order in rank 2,
and the values outside it are counted.
"""

from functools import lru_cache

import pytest

from alcove_kl.alcove import generic_height, generic_leq
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import antispherical_kl
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import finite_elt, finite_group, translate, waff_elements

V = LaurentPoly.gen()
BOUNDS = {"A2": (4, 5), "B2": (3, 4), "G2": (3, 4)}  # (longest w, longest y)
COUNTS = {"A2": (215, 31), "B2": (155, 17), "G2": (169, 16)}  # (nonzero values, diagonal ones)


@lru_cache(maxsize=None)
def nonzero_values(name):
    """(p, gap, diagonal, y, w) for every nonzero p_{y,w} within the bounds."""
    sys = build_root_system(name[0], int(name[1]))
    w_bound, y_bound = BOUNDS[name]
    out = []
    for w in waff_elements(sys, w_bound):
        for y in waff_elements(sys, y_bound):
            p = antispherical_kl(sys, y, w)
            if p:
                out.append((p, generic_height(sys, w) - generic_height(sys, y), y == w, y, w))
    return tuple(out)


def parity(p, gap, diagonal):
    return all((e - gap) % 2 == 0 for e, _ in p.terms)


def degree(p, gap, diagonal):
    return max(e for e, _ in p.terms) <= gap


def positive(p, gap, diagonal):
    return all(c > 0 for _, c in p.terms)


def unit_diagonal(p, gap, diagonal):
    return p == LaurentPoly.one() or not diagonal


# each law with a wrong family it must catch: v p flips every parity,
# v^2 p keeps parity and passes the gap on the diagonal, -p turns every
# sign, and v p moves the diagonal off 1
LAWS = {
    "parity": (parity, lambda p: V * p),
    "degree": (degree, lambda p: V * V * p),
    "positive": (positive, lambda p: -p),
    "diagonal": (unit_diagonal, lambda p: V * p),
}


# the violations each wrong family makes, in the order of LAWS: every
# value for parity and sign, every diagonal one, and for the degree the
# values whose degree is the gap itself
CAUGHT = {"A2": (215, 169, 215, 31), "B2": (155, 105, 155, 17), "G2": (169, 121, 169, 16)}


def violations(name, law, wrong=lambda p: p):
    return sum(not law(wrong(p), gap, diagonal) for p, gap, diagonal, *_ in nonzero_values(name))


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("name", BOUNDS)
def test_every_nonzero_value_keeps_the_law(name, law):
    values = nonzero_values(name)
    assert (len(values), sum(diagonal for _, _, diagonal, *_ in values)) == COUNTS[name]
    assert violations(name, LAWS[law][0]) == 0


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("name", BOUNDS)
def test_the_law_catches_a_wrong_value(name, law):
    check, wrong = LAWS[law]
    assert violations(name, check, wrong) == CAUGHT[name][list(LAWS).index(law)]


def up_reflections(sys, x, top):
    """Every t_{n alpha} s_alpha x with n > k_alpha(x), the reflection of
    x(A+) in a hyperplane above it, of generic height at most ``top``.
    The height grows with n, by <alpha, 2 rho^vee> a step."""
    group = finite_group(sys)
    for k, root in zip(x.group.table.coords(x), sys.positive_roots):
        sx = finite_elt(sys, group.reflection(root)) * x
        alpha = root.as_weight().coords
        n = k + 1
        while generic_height(sys, z := translate(tuple(n * a for a in alpha), sx)) <= top:
            yield z
            n += 1


def reflection_leq(sys, y, w):
    """Whether a chain of up-reflections leads from y to w.  Each one
    raises the generic height, so the search stops at d(w)."""
    top = generic_height(sys, w)
    seen, stack = {y}, [y]
    while stack:
        x = stack.pop()
        if x == w:
            return True
        for z in up_reflections(sys, x, top):
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return False


# each order with the off-diagonal nonzero values outside it: none below
# w in the reflection order, all of them with y and w swapped, and the
# values that the up-crossing order misses, which the support band
# certifies zero though they are not
ORDERS = {
    "reflection": (reflection_leq, {"A2": 0, "B2": 0, "G2": 0}),
    "swapped": (lambda sys, y, w: reflection_leq(sys, w, y), {"A2": 184, "B2": 138, "G2": 153}),
    "up-crossing": (generic_leq, {"A2": 20, "B2": 33, "G2": 49}),
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", BOUNDS)
def test_the_support_lies_below_w_in_the_reflection_order(name, order):
    sys = build_root_system(name[0], int(name[1]))
    leq, outside = ORDERS[order]
    off_diagonal = [(y, w) for *_, diagonal, y, w in nonzero_values(name) if not diagonal]
    assert len(off_diagonal) == COUNTS[name][0] - COUNTS[name][1]
    assert sum(not leq(sys, y, w) for y, w in off_diagonal) == outside[name]
