"""Laws of the finite Weyl group table over a whole group.

Every element of the D4 and F4 tables is checked: its product with its
inverse, the inverse's signed root permutation, and its matrix against
the product of reflection matrices along its reduced word, built by
the group-law tests.  The reflection in every positive root, which the
table reads off root coordinates, is checked against its matrix.

The facts the table keeps per element are checked over whole groups
against the probe they replace: the shortlex word, whose first letter is
the smallest i with s_i m shorter by the product-and-length probe, and
w0.  Fresh interpreters count the products that reading them forms.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_group_laws import matrix_along

from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    FiniteWeylGroup,
    finite_group,
    finite_word,
    from_word,
    reflection_mat,
    w0_elt,
    weyl_group,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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


def finite_length(g, m):
    """The number of positive roots element m makes negative."""
    return sum(b < 0 for b in g.roots[m])


FACT_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("typ, rank", FACT_SYSTEMS, ids=[f"{t}{r}" for t, r in FACT_SYSTEMS])
def test_words_and_w0_match_the_product_probe(typ, rank):
    sys = build_root_system(typ, rank)
    g = finite_group(sys)
    for m in weyl_group(sys):
        word = finite_word(sys, m)
        assert functools.reduce(g.product, [g.simples[i - 1] for i in word], g.identity) == m
        assert len(word) == finite_length(g, m)
        if word:
            shorter = [
                i for i, s in enumerate(g.simples, 1)
                if finite_length(g, g.product(s, m)) < finite_length(g, m)
            ]
            assert word[0] == min(shorter)
    assert w0_elt(sys) == from_word(sys, sys.w0_word)


def fresh_count(script):
    """The last line a fresh interpreter prints running ``script``: the
    process-wide tables hold what earlier tests formed, so counts of
    products are taken where nothing was formed before."""
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()[-1]


def test_w0_forms_no_group_product():
    script = (
        "from alcove_kl.rootsys import build_root_system\n"
        "from alcove_kl.weylext import ExtWeylElt, w0_elt\n"
        "calls, mul = [], ExtWeylElt.__mul__\n"
        "ExtWeylElt.__mul__ = lambda a, b: calls.append(1) or mul(a, b)\n"
        "for name in ('A2', 'B3', 'G2', 'F4'):\n"
        "    w0_elt(build_root_system(name[0], int(name[1])))\n"
        "print(len(calls))\n"
    )
    assert fresh_count(script) == "0"


def test_a_word_forms_at_most_one_finite_product_a_letter():
    """Every B3 word read on a fresh table, each after the whole group is
    numbered: no word forms more finite-table products than it has
    letters."""
    script = (
        "from alcove_kl.rootsys import build_root_system\n"
        "from alcove_kl.weylext import FiniteWeylGroup, finite_word, weyl_group\n"
        "sys = build_root_system('B', 3)\n"
        "elements, calls, product = weyl_group(sys), [], FiniteWeylGroup.product\n"
        "FiniteWeylGroup.product = lambda g, i, j: calls.append(1) or product(g, i, j)\n"
        "excess = 0\n"
        "for m in elements:\n"
        "    calls.clear()\n"
        "    letters = len(finite_word(sys, m))\n"
        "    excess += max(0, len(calls) - letters)\n"
        "print(excess)\n"
    )
    assert fresh_count(script) == "0"
