"""Laws of the finite Weyl group table over a whole group.

Every element of the D4 and F4 tables is checked: its product with its
inverse, the inverse's signed root permutation, and its matrix against
the product of reflection matrices along its reduced word, built by
the group-law tests.  The reflection in every positive root, which the
table reads off root coordinates, is checked against its matrix.
"""

import pytest
from test_group_laws import matrix_along

from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    FiniteWeylGroup,
    finite_group,
    finite_word,
    reflection_mat,
    weyl_group,
)


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


REFLECTION_SYSTEMS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize(
    "typ, rank", REFLECTION_SYSTEMS, ids=[f"{t}{r}" for t, r in REFLECTION_SYSTEMS]
)
def test_every_reflection_matches_its_matrix(typ, rank):
    """Production reflects only in the simple roots and in theta; here
    every positive root is reflected in, on a table of its own so that
    the shared table's numbering is left as it was."""
    sys = build_root_system(typ, rank)
    g = FiniteWeylGroup(sys)
    for root in sys.positive_roots:
        k = g.reflection(root)
        assert g.mats[k] == reflection_mat(sys, root)
        assert g.inv[k] == k and g.product(k, k) == g.identity
