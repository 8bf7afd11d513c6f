"""The laws of p that example tests only spot-check, on every value.

Every nonzero antispherical value p_{y,w} (``periodic.antispherical_kl``)
with w of length at most 4 and y of length at most 5 in A2 (3 and 4 in
B2) is held to four laws, with d the generic height and the gap
d(w) - d(y):

- every exponent has the parity of the gap, the Ext parity vanishing
  that Koszul duality predicts;
- the degree is at most the gap;
- every coefficient is positive;
- the diagonal value is 1.

These are necessary conditions only.  Each law is also shown to fail on
a deliberately wrong family of values, so a law that holds vacuously
fails its test.
"""

from functools import lru_cache

import pytest

from alcove_kl.alcove import generic_height
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import antispherical_kl
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import waff_elements

V = LaurentPoly.gen()
BOUNDS = {"A2": (4, 5), "B2": (3, 4)}  # (longest w, longest y)
COUNTS = {"A2": (215, 31), "B2": (155, 17)}  # (nonzero values, diagonal ones)


@lru_cache(maxsize=None)
def nonzero_values(name):
    """(p, gap, diagonal) for every nonzero p_{y,w} within the bounds."""
    sys = build_root_system(name[0], int(name[1]))
    w_bound, y_bound = BOUNDS[name]
    out = []
    for w in waff_elements(sys, w_bound):
        for y in waff_elements(sys, y_bound):
            p = antispherical_kl(sys, y, w)
            if p:
                out.append((p, generic_height(sys, w) - generic_height(sys, y), y == w))
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


def violations(name, law, wrong=lambda p: p):
    return sum(not law(wrong(p), gap, diagonal) for p, gap, diagonal in nonzero_values(name))


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("name", BOUNDS)
def test_every_nonzero_value_keeps_the_law(name, law):
    values = nonzero_values(name)
    assert (len(values), sum(diagonal for *_, diagonal in values)) == COUNTS[name]
    assert violations(name, LAWS[law][0]) == 0


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("name", BOUNDS)
def test_the_law_catches_a_wrong_value(name, law):
    check, wrong = LAWS[law]
    assert violations(name, check, wrong) > 0
