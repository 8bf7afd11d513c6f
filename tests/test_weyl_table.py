"""Laws of the finite Weyl group table over a whole group.

Every element of the D4 and F4 tables is checked: its product with its
inverse, the inverse's signed root permutation, and its matrix against
the product of reflection matrices along its reduced word, built by
the group-law tests.
"""

import pytest
from test_group_laws import matrix_along

from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import finite_group, finite_word, weyl_group


def inverse_permutation(perm):
    out = [None] * len(perm)
    for j, b in enumerate(perm):
        if b >= 0:
            out[b] = j
        else:
            out[~b] = ~j
    return tuple(out)


@pytest.mark.parametrize("typ, rank, order", [("D", 4, 192), ("F", 4, 1152)])
def test_table_laws_over_the_whole_group(typ, rank, order):
    sys = build_root_system(typ, rank)
    g = finite_group(sys)
    elements = weyl_group(sys)
    assert len(elements) == order
    for k in elements:
        assert g.product(k, g.inv[k]) == g.identity
        assert g.roots[g.inv[k]] == inverse_permutation(g.roots[k])
        assert list(map(list, g.mats[k])) == matrix_along(sys, finite_word(sys, k))
