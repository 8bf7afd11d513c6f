"""Periodic windows built on the numbered label table.

``PeriodicWindow`` numbers its alcove labels and keys its rows by int.
These tests hold it to the element-keyed build it replaced, kept here as
an oracle: equal rows, truncation flags and gallery choices in A1, A2,
B2 and G2, and one group product per (member, generator) pair.
"""

import random

import pytest

from alcove_kl.alcove import generic_height
from alcove_kl.errors import ConsistencyError
from alcove_kl.hecke import canonical_step, crossing_rule
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import PeriodicWindow
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    ExtWeylElt,
    elt_key,
    gen_indices,
    simple_reflection,
    waff_elements,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)

_ONE = LaurentPoly.one()


def element_keyed_window(sys, radius, gallery_seed=None, sign=1):
    """The rows and truncation flags of the window, built with every
    label a group element: each crossing forms its product again and
    reads the heights by element."""
    rng = random.Random(gallery_seed) if gallery_seed is not None else None
    elements = waff_elements(sys, radius)
    members = set(elements)
    gens = {i: simple_reflection(sys, i) for i in gen_indices(sys)}
    h = {}

    def height(x):
        d = h.get(x)
        if d is None:
            d = h[x] = sign * generic_height(sys, x)
        return d

    cut = False

    def inside(rule):
        """``rule`` with every crossing out of the members dropped and
        recorded as a cut; x stays as the rule says."""

        def act(x):
            nonlocal cut
            xs, stay = rule(x)
            if xs in members:
                return xs, stay
            cut = True
            return None, stay

        return act

    rows, flags = {}, {}
    for c in sorted(elements, key=lambda x: (height(x), elt_key(sys, x))):
        downs = [
            (i, a) for i, s in gens.items() if (a := c * s) in members and h[a] < h[c]
        ]
        if not downs:
            rows[c] = {c: _ONE}
            flags[c] = False
            continue
        i, a = rng.choice(downs) if rng is not None else downs[0]
        cut = False
        row, subtracted = canonical_step(
            rows[a], inside(crossing_rule(gens[i], height)), rows.__getitem__
        )
        if row.get(c) != _ONE:
            raise ConsistencyError(
                "canonical element is not monic at its own alcove; "
                "up-direction or correction-sign convention is wrong"
            )
        rows[c] = row
        flags[c] = cut or flags[a] or any(flags[b] for b in subtracted)
    return rows, flags


def by_element(win):
    """The window's rows and flags, read through ``element`` for every
    member."""
    read = {w: win.element(w) for w in win.members}
    return {w: row for w, (row, _) in read.items()}, {w: f for w, (_, f) in read.items()}


def recorded_choices(monkeypatch, build):
    """Run ``build`` and return its result with the generator index and
    the number of candidates of every gallery choice it drew."""
    drawn = []
    choice = random.Random.choice

    def recording(rng, seq):
        i, _ = picked = choice(rng, seq)
        drawn.append((i, len(seq)))
        return picked

    with monkeypatch.context() as m:
        m.setattr(random.Random, "choice", recording)
        return build(), drawn


CASES = [(A1, 8), (A2, 6), (B2, 5), (G2, 5)]
VARIANTS = [{}, {"gallery_seed": 17}, {"sign": -1}, {"gallery_seed": 5, "sign": -1}]


@pytest.mark.parametrize("sys,radius", CASES, ids=["A1", "A2", "B2", "G2"])
@pytest.mark.parametrize(
    "options", VARIANTS, ids=["default", "gallery", "flipped", "flipped-gallery"]
)
def test_window_matches_element_keyed_build(monkeypatch, sys, radius, options):
    want, want_drawn = recorded_choices(
        monkeypatch, lambda: element_keyed_window(sys, radius, **options)
    )
    got, got_drawn = recorded_choices(
        monkeypatch, lambda: PeriodicWindow(sys, radius, **options)
    )
    assert got_drawn == want_drawn
    assert ("gallery_seed" in options) == bool(got_drawn)
    rows, flags = by_element(got)
    assert rows == want[0]
    assert flags == want[1]
    assert any(flags.values()) and not all(flags.values())


def test_window_lookups_read_the_numbered_rows():
    win = PeriodicWindow(A2, 6)
    rows, flags = by_element(win)
    for w in waff_elements(A2, 3):
        row, truncated = win.element(w)
        assert truncated == flags[w]
        assert row == rows[w]
        for y in waff_elements(A2, 6):
            assert win.coefficient(y, w) == rows[w].get(y, LaurentPoly.zero())


@pytest.mark.parametrize("sys,radius", CASES, ids=["A1", "A2", "B2", "G2"])
@pytest.mark.parametrize("options", VARIANTS[:3], ids=["default", "gallery", "flipped"])
def test_a_window_forms_each_product_once(monkeypatch, sys, radius, options):
    """Beyond enumerating its members, a window forms each x s_i at most
    once: at most (rank + 1) products per member."""
    calls = []
    mul = ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    # the enumeration is memoized; clear it so that the hook is seen to count
    waff_elements.cache_clear()
    members = len(waff_elements(sys, radius))
    enumerated = len(calls)
    del calls[:]
    PeriodicWindow(sys, radius, **options)
    assert enumerated > 0
    assert len(calls) - enumerated <= (sys.rank + 1) * members
