"""Alcove model of the affine Weyl group.

An alcove is a connected component of the complement of the affine
hyperplanes where a positive coroot pairs to an integer; alcoves
correspond bijectively to W_aff elements via A = x(A+) with A+ the
fundamental alcove, so every function here takes and returns the label
x in place of the alcove x(A+), and crossing the wall of type s of
x(A+) gives (xs)(A+).  This module provides the generic height d (the
signed count of up-crossings from A+, normalized by d(A+) = 0) and the
partial order generated by up-crossings.

Both are read off Shi's integer alcove coordinates k_alpha(A), the
floor of the pairing with the coroot alpha^vee on A
(``weylext.shi_coords``), as the label table of the root system stores
them, once per label: d(A) is their sum, a crossing changes exactly one
of them by one, and A <= B in the generic order exactly when
k(A) <= k(B) componentwise.

Convention: a crossing is "up" when it moves toward the side where the
pairing with the crossed coroot increases, i.e. when d grows.
"""

from __future__ import annotations

from functools import lru_cache

from .rootsys import RootSystem
from .weylext import ExtWeylElt


@lru_cache(maxsize=None)
def generic_height(sys: RootSystem, x: ExtWeylElt) -> int:
    """d(x(A+)) = sum of the Shi coordinates, the floors of the positive
    coroot pairings at an interior point; each up-crossing raises it by
    exactly one."""
    return sum(x.group.table.coords(x))


def generic_leq(sys: RootSystem, x: ExtWeylElt, y: ExtWeylElt) -> bool:
    """Whether y(A+) is reachable from x(A+) by up-crossings.

    For distinct labels that holds exactly when d(x) < d(y) and
    k(x) <= k(y) componentwise: along a straight segment between interior
    points every coroot pairing is linear, so each wall it crosses is
    crossed upward.  Distinct labels of one height, such as x and x omega
    with omega in Omega, are unordered.
    """
    if x == y:
        return True
    if generic_height(sys, y) <= generic_height(sys, x):
        return False
    table = x.group.table
    return all(a <= b for a, b in zip(table.coords(x), table.coords(y)))
