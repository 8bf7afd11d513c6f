"""The support band against the two generic-order tests it replaces.

The oracle is the band written out from heights and the generic order:
d(check(w)) <= d(y) <= d(w), y below w, and w0 y below w0 check(w).  It
is compared with ``in_support_band`` on every pair of W_aff elements up
to a length bound, and on the same pairs left-multiplied by each
length-zero element.
"""

import pytest

from alcove_kl.alcove import generic_height, generic_leq
from alcove_kl.periodic import in_support_band
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import check_for_system, omega_group, w0_elt, waff_elements


def band_oracle(sys, y, w):
    ha = generic_height(sys, y)
    hb = generic_height(sys, w)
    if ha > hb:
        return y == w
    wv = check_for_system(sys, w)
    hv = generic_height(sys, wv)
    if ha < hv:
        return False
    if not generic_leq(sys, y, w):
        return False
    w0 = w0_elt(sys)
    return generic_leq(sys, w0 * y, w0 * wv)


@pytest.mark.parametrize(
    "typ, rank, bound", [("A", 1, 6), ("A", 2, 6), ("B", 2, 6), ("G", 2, 6), ("A", 3, 4)]
)
def test_band_matches_height_and_order_oracle(typ, rank, bound):
    sys = build_root_system(typ, rank)
    elements = waff_elements(sys, bound)
    inside = 0
    for om in omega_group(sys):
        for w in elements:
            for y in elements:
                oy, ow = om * y, om * w
                got = in_support_band(sys, oy, ow)
                assert got == band_oracle(sys, oy, ow), (typ, rank, y, w, om)
                inside += got
    # both answers occur, so neither side is constant
    assert 0 < inside < len(omega_group(sys)) * len(elements) ** 2
