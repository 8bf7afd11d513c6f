"""Periodic windows built on the numbered label table.

``PeriodicWindow`` keys its rows by the numbers of the system's label table.
These tests hold it to the element-keyed build it replaced, kept here as
an oracle: equal rows, truncation flags and gallery choices in A1, A2,
B2 and G2, and one group product per (member, generator) pair, formed
once in the system's label table whichever window asks for it first.
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
    elt_key,
    gen_indices,
    identity_elt,
    length,
    simple_reflection,
    waff_elements,
)

from conftest import count_products, filled_entries, fresh_table

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
    """The window's rows and flags, keyed by element: ``row`` read for
    every member, then the flag of each member's number."""
    rows = {w: win.row(w) for w in win.members}
    return rows, {w: win.flags[k] for w, k in win.members.items()}


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
        row = win.row(w)
        assert win.flags[win.members[w]] == flags[w]
        assert row == rows[w]
        for y in waff_elements(A2, 6):
            assert win.coefficient(y, w) == rows[w].get(y, LaurentPoly.zero())


@pytest.mark.parametrize("sys,radius", CASES, ids=["A1", "A2", "B2", "G2"])
@pytest.mark.parametrize("options", VARIANTS[:3], ids=["default", "gallery", "flipped"])
def test_a_window_forms_each_product_once(monkeypatch, sys, radius, options):
    """On a cold label table, a window forms each x s_i at most once,
    enumerating its members included: at most (rank + 1) products per
    member, and one per pair of neighbour entries the table fills."""
    with fresh_table(sys) as table:
        calls = count_products(monkeypatch)
        PeriodicWindow(sys, radius, **options)
        monkeypatch.undo()
        members = len(table.waff_order(radius))
        assert 0 < len(calls) <= (sys.rank + 1) * members
        assert 2 * len(calls) == len(filled_entries(table))


@pytest.mark.parametrize("sys,radius", CASES, ids=["A1", "A2", "B2", "G2"])
def test_a_second_window_forms_no_product_the_table_holds(monkeypatch, sys, radius):
    """Windows of one system share its label table: a second window, of
    the same radius or one more, with or without a gallery, forms no
    product for an entry the first one filled, and a window reading rows
    the first one read forms none at all."""
    with fresh_table(sys) as table:
        first = PeriodicWindow(sys, radius)
        columns = waff_elements(sys, 2)
        rows = [first.row(w) for w in columns]
        held = filled_entries(table)
        calls = count_products(monkeypatch)
        assert [PeriodicWindow(sys, radius).row(w) for w in columns] == rows
        assert calls == []
        for options in ({"gallery_seed": 17}, {"sign": -1}):
            later = PeriodicWindow(sys, radius + 1, **options)
            for w in columns:
                later.row(w)
        monkeypatch.undo()
        formed = {(table.index[a], table.gens.index(b)) for a, b in calls}
        assert formed and not formed & held


def breadth_first(sys, bound):
    """W_aff by length, walked from the identity for this bound alone:
    the per-bound enumeration the shared order replaced."""
    e = identity_elt(sys)
    seen, out, frontier = {e}, [e], [e]
    for cur in range(1, bound + 1):
        nxt = []
        for x in frontier:
            for i in gen_indices(sys):
                y = x * simple_reflection(sys, i)
                if y not in seen and length(sys, y) == cur:
                    seen.add(y)
                    nxt.append(y)
        out += nxt
        frontier = nxt
    return tuple(out)


@pytest.mark.parametrize("sys,radius", CASES, ids=["A1", "A2", "B2", "G2"])
def test_the_enumeration_is_a_prefix_of_one_order(sys, radius):
    shorter, longer = waff_elements(sys, radius), waff_elements(sys, radius + 3)
    assert len(shorter) < len(longer) and longer[: len(shorter)] == shorter
    assert longer == breadth_first(sys, radius + 3)
    # a cold table that reaches the longer bound first lists the same order
    with fresh_table(sys) as table:
        numbers = table.waff_order(radius + 3)
        assert tuple(table.elts[k] for k in numbers) == longer
        assert table.waff_order(radius) == numbers[: len(shorter)]
