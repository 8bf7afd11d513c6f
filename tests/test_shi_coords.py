"""Property tests for Shi's alcove coordinates and what is read off them.

Alcoves are drawn as random generator words of length at most 10 in A1,
A2, B2 and G2.  The oracles are independent of ``shi_coords``: exact
coroot pairings at the image of an interior point of A+, and a
breadth-first search over up-crossings for the generic order.
"""

from fractions import Fraction
from math import floor

from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_kl.alcove import (
    DOWN,
    UP,
    generic_height,
    generic_leq,
    wall_cross,
)
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    from_word,
    gen_indices,
    length,
    omega_group,
    shi_coords,
    simple_reflection,
)

SYSTEMS = tuple(build_root_system(t, r) for t, r in (("A", 1), ("A", 2), ("B", 2), ("G", 2)))

PROPERTY = settings(max_examples=100, deadline=None, database=None)


def words(sys):
    return st.lists(st.sampled_from(list(gen_indices(sys))), max_size=10)


def coords(sys, x):
    return shi_coords(sys, x.fin, x.translation)


def up_neighbors(sys, x):
    """The alcoves x s_i one up-crossing from x: each raises the generic
    height by exactly one."""
    d = generic_height(sys, x)
    out = [x * simple_reflection(sys, i) for i in gen_indices(sys)]
    up = [y for y in out if generic_height(sys, y) > d]
    assert all(generic_height(sys, y) == d + 1 for y in up)
    return up


def reachable_by_up_crossings(sys, a, b):
    """Reference for the generic order: search galleries of up-crossings."""
    gap = generic_height(sys, b) - generic_height(sys, a)
    frontier = {a}
    for _ in range(gap):
        frontier = {n for c in frontier for n in up_neighbors(sys, c)}
    return b in frontier


@PROPERTY
@given(st.data())
def test_coords_are_floors_of_pairings_at_an_interior_point(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    om = data.draw(st.sampled_from(omega_group(sys)))
    x = om * from_word(sys, data.draw(words(sys)))
    centre = x.act_affine(tuple(Fraction(1, sys.coxeter_number) for _ in range(sys.rank)))
    expected = tuple(
        floor(sum(c * a for c, a in zip(centre, r.coroot))) for r in sys.positive_roots
    )
    assert coords(sys, x) == expected


@PROPERTY
@given(st.data())
def test_length_and_height_are_coordinate_sums(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    word = data.draw(words(sys))
    x = from_word(sys, word)
    om = data.draw(st.sampled_from(omega_group(sys)))
    k = coords(sys, x)
    assert length(sys, x) == sum(abs(v) for v in k)
    assert length(sys, om * x) == length(sys, x) == sum(abs(v) for v in coords(sys, om * x))
    assert length(sys, x) <= len(word) and (len(word) - length(sys, x)) % 2 == 0
    assert generic_height(sys, x) == sum(k)


@PROPERTY
@given(st.data())
def test_wall_cross_moves_one_coordinate_by_one(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    a = from_word(sys, data.draw(words(sys)))
    ka = coords(sys, a)
    for i in gen_indices(sys):
        b, direction = wall_cross(sys, a, i)
        kb = coords(sys, b)
        moved = [new - old for old, new in zip(ka, kb) if new != old]
        assert moved == [1 if direction == UP else -1]
        assert direction in (UP, DOWN)


@PROPERTY
@given(st.data())
def test_generic_leq_matches_up_crossing_search(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    a = from_word(sys, data.draw(words(sys)))
    if data.draw(st.booleans()):
        b = from_word(sys, data.draw(words(sys)))
    else:
        # a gallery of up-crossings from a, so that the order holds
        b = a
        for _ in range(data.draw(st.integers(0, 6))):
            b = data.draw(st.sampled_from(up_neighbors(sys, b)))
    gap = max(generic_height(sys, b) - generic_height(sys, a), 0)
    expected = a == b or reachable_by_up_crossings(sys, a, b)
    assert generic_leq(sys, a, b, radius=gap) == expected
