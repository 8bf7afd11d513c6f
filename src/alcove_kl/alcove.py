"""Alcove model of the affine Weyl group.

An alcove is a connected component of the complement of the affine
hyperplanes where a positive coroot pairs to an integer; alcoves
correspond bijectively to W_aff elements via A = x(A+) with A+ the
fundamental alcove, so every function here takes and returns the label
x in place of the alcove x(A+).  This module provides the wall-crossing
moves, the generic height d (the signed count of up-crossings from A+,
normalized by d(A+) = 0) and the partial order generated by
up-crossings.

All three are read off Shi's integer alcove coordinates k_alpha(A), the
floor of the pairing with the coroot alpha^vee on A
(``weylext.shi_coords``): d(A) is their sum, a crossing changes exactly
one of them by one, and A <= B in the generic order exactly when
k(A) <= k(B) componentwise.

Convention: a crossing is "up" when it moves toward the side where the
pairing with the crossed coroot increases, i.e. when d grows.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, IndeterminateError
from .rootsys import RootSystem
from .weylext import (
    ExtWeylElt,
    gen_indices,
    shi_coords,
    simple_reflection,
)

UP = "up"
DOWN = "down"


def wall_cross(sys: RootSystem, x: ExtWeylElt, i: int) -> tuple[ExtWeylElt, str]:
    """Cross the wall of type i of x(A+): returns (x s_i, direction)."""
    if i not in gen_indices(sys):
        raise DomainError(f"no Coxeter generator with index {i}")
    xs = x * simple_reflection(sys, i)
    direction = UP if generic_height(sys, xs) > generic_height(sys, x) else DOWN
    return xs, direction


@lru_cache(maxsize=None)
def generic_height(sys: RootSystem, x: ExtWeylElt) -> int:
    """d(x(A+)) = sum of the Shi coordinates, the floors of the positive
    coroot pairings at an interior point; each up-crossing raises it by
    exactly one."""
    return sum(shi_coords(sys, x.fin, x.translation))


def generic_leq(sys: RootSystem, x: ExtWeylElt, y: ExtWeylElt, radius: int) -> bool:
    """Whether y(A+) is reachable from x(A+) by up-crossings.

    That holds exactly when k(x) <= k(y) componentwise: along a straight
    segment between interior points every coroot pairing is linear, so
    each wall it crosses is crossed upward.  The answer is only given
    when d(y) - d(x), the length of every such gallery, is at most
    ``radius``; IndeterminateError is raised otherwise.
    """
    if x == y:
        return True
    gap = generic_height(sys, y) - generic_height(sys, x)
    if gap <= 0:
        return False
    if gap > radius:
        raise IndeterminateError(
            f"height gap {gap} exceeds search radius {radius}"
        )
    kx = shi_coords(sys, x.fin, x.translation)
    return all(a <= b for a, b in zip(kx, shi_coords(sys, y.fin, y.translation)))
