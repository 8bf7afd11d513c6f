"""Alcove model of the affine Weyl group.

An alcove is a connected component of the complement of the affine
hyperplanes where a positive coroot pairs to an integer; alcoves
correspond bijectively to W_aff elements via A = x(A+) with A+ the
fundamental alcove.  This module provides the wall-crossing moves, the
generic height d (the signed count of up-crossings from A+, normalized
by d(A+) = 0), the partial order generated by up-crossings, and the
alcove form of the check operation.

All three are read off Shi's integer alcove coordinates k_alpha(A), the
floor of the pairing with the coroot alpha^vee on A
(``weylext.shi_coords``): d(A) is their sum, a crossing changes exactly
one of them by one, and A <= B in the generic order exactly when
k(A) <= k(B) componentwise.

Convention: a crossing is "up" when it moves toward the side where the
pairing with the crossed coroot increases, i.e. when d grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, IndeterminateError
from .rootsys import ModularContext, RootSystem
from .weylext import (
    ExtWeylElt,
    check,
    gen_indices,
    identity_elt,
    in_waff,
    shi_coords,
    simple_reflection,
)

UP = "up"
DOWN = "down"


@dataclass(frozen=True, slots=True)
class Alcove:
    """An alcove labeled by the W_aff element carrying A+ onto it."""

    label: ExtWeylElt


def fundamental_alcove(sys: RootSystem) -> Alcove:
    return Alcove(identity_elt(sys))


def alcove_of(sys: RootSystem, x: ExtWeylElt) -> Alcove:
    if not in_waff(sys, x):
        raise DomainError("alcoves are labeled by W_aff elements")
    return Alcove(x)


def _shi(sys: RootSystem, a: Alcove) -> tuple[int, ...]:
    return shi_coords(sys, a.label.fin, a.label.translation)


def wall_cross(sys: RootSystem, a: Alcove, i: int) -> tuple[Alcove, str]:
    """Cross the wall of type i: returns (As, direction)."""
    if i not in gen_indices(sys):
        raise DomainError(f"no Coxeter generator with index {i}")
    b = Alcove(a.label * simple_reflection(sys, i))
    direction = UP if generic_height(sys, b) > generic_height(sys, a) else DOWN
    return b, direction


@lru_cache(maxsize=None)
def generic_height(sys: RootSystem, a: Alcove) -> int:
    """d(A) = sum of the Shi coordinates of A, the floors of the positive
    coroot pairings at an interior point; each up-crossing raises it by
    exactly one."""
    return sum(_shi(sys, a))


def generic_leq(sys: RootSystem, a: Alcove, b: Alcove, radius: int) -> bool:
    """Whether b is reachable from a by up-crossings.

    That holds exactly when k(a) <= k(b) componentwise: along a straight
    segment between interior points every coroot pairing is linear, so
    each wall it crosses is crossed upward.  The answer is only given
    when d(b) - d(a), the length of every such gallery, is at most
    ``radius``; IndeterminateError is raised otherwise.
    """
    if a == b:
        return True
    gap = generic_height(sys, b) - generic_height(sys, a)
    if gap <= 0:
        return False
    if gap > radius:
        raise IndeterminateError(
            f"height gap {gap} exceeds search radius {radius}"
        )
    return all(ka <= kb for ka, kb in zip(_shi(sys, a), _shi(sys, b)))


def alcove_check(ctx: ModularContext, a: Alcove) -> Alcove:
    """The alcove form of the check operation on W_aff labels."""
    return Alcove(check(ctx, a.label))


def up_neighbors(sys: RootSystem, a: Alcove) -> list[Alcove]:
    out = []
    for i in gen_indices(sys):
        neighbor, direction = wall_cross(sys, a, i)
        if direction == UP:
            out.append(neighbor)
    return out


def gallery_heights(sys: RootSystem, word) -> list[int]:
    """Heights along the gallery from A+ determined by a generator word."""
    a = fundamental_alcove(sys)
    out = [generic_height(sys, a)]
    for i in word:
        a, _ = wall_cross(sys, a, i)
        out.append(generic_height(sys, a))
    return out
