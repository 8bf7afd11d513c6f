"""The label table of a root system, the computers keyed by it, and
parity outside type A.

The system's ``LabelTable`` numbers basis labels as the computers meet
them, and every computer keys its rows by those numbers; these tests
check the table against the group it numbers, the products it forms
against the entries it fills, and the rows the computers build against
the independent oracles in B2 and G2 (``test_hecke`` covers A1 and A2)
and against ``canonical_step`` on ``LaurentPoly`` rows driven by the
computer's own action rule.
"""

from functools import partial

import pytest

from alcove_kl.errors import ResourceError
from alcove_kl.hecke import (
    KLComputer,
    antispherical_computer,
    canonical_step,
    is_coset_maximal,
    kl_basis,
    kl_basis_by_duality,
    kl_computer,
    spherical_computer,
    spherical_kl,
)
from alcove_kl.laurent import LaurentPoly, PackedCodec
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    finite_group,
    from_word,
    gen_indices,
    is_coset_minimal,
    length,
    right_descents,
    shi_coords,
    simple_reflection,
    waff_elements,
)

from conftest import count_products, filled_entries, fresh_table, product_coset_rep

A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


@pytest.mark.parametrize("sys", [B2, G2], ids=["B2", "G2"])
def test_kl_rows_match_duality_oracle(sys):
    for w in waff_elements(sys, 6):
        assert kl_basis(sys, w) == kl_basis_by_duality(sys, w)


def assert_table_laws(sys, comp, kept):
    """The system's label table numbers each label once, with its Shi
    coordinates and the numbers of the neighbours formed so far; the
    computer keys its rows by those numbers and ranks and keeps each
    label it reached."""
    table = finite_group(sys).table
    assert comp.table is table and comp.elts is table.elts
    elts = table.elts
    assert len(set(elts)) == len(elts) == len(table.shi) == len(table.nbrs)
    filled = 0
    for k, x in enumerate(elts):
        assert table.number(x) == k
        assert table.shi[k] == shi_coords(sys, x.fin, x.translation)
        for i, n in enumerate(table.nbrs[k]):
            if n is not None:
                filled += 1
                assert elts[n] == x * table.gens[i]
                assert table.nbrs[n][i] == k
    assert filled > 0
    assert len(comp.ranks) == len(comp.kept) <= len(elts)
    reached = [k for k, r in enumerate(comp.ranks) if r is not None]
    assert set(comp.rows) <= set(reached)
    for k in reached:
        assert comp.ranks[k] == length(sys, elts[k])
        assert comp.kept[k] == kept(elts[k])


@pytest.mark.parametrize(
    "sys,word",
    [(A2, "0,1,2,0,1,2,1"), (B2, "0,1,2,0,1,2,1,0,1"), (G2, "0,1,2,1,2,0,1,2,1")],
    ids=["A2", "B2", "G2"],
)
def test_label_table_laws(sys, word):
    w = from_word(sys, [int(c) for c in word.split(",")])
    comp = kl_computer(sys)
    row = kl_basis(sys, w)
    assert set(row) <= set(comp.elts)
    assert_table_laws(sys, comp, lambda x: True)

    sph = spherical_computer(sys)
    top = product_coset_rep(sys, w, longer=True)
    assert set(spherical_kl(sys, top)) <= set(sph.elts)
    assert_table_laws(sys, sph, lambda x: is_coset_maximal(sys, x))


def test_descent_is_the_smallest_right_descent():
    comp = kl_computer(B2)
    w = from_word(B2, [0, 1, 2, 1, 0, 2, 1])
    kl_basis(B2, w)
    reached = [k for k, r in enumerate(comp.ranks) if r is not None]
    assert len(reached) > 10
    for k in reached:
        x = comp.elts[k]
        lx = length(B2, x)
        down = [i for i in gen_indices(B2) if length(B2, x * simple_reflection(B2, i)) < lx]
        assert comp.descent(k) == (min(down) if down else None)


def test_a_second_right_descents_forms_no_product(monkeypatch):
    """Right descents are read off the lengths of the label table's
    stored neighbours, so asking again forms no group product."""
    x = from_word(G2, [0, 1, 2, 1, 0, 2])
    down = right_descents(G2, x)
    calls = count_products(monkeypatch)
    assert right_descents(G2, x) == down
    assert calls == []
    lx = length(G2, x)
    assert down == [i for i in gen_indices(G2) if length(G2, x * simple_reflection(G2, i)) < lx]


def test_a_row_forms_each_product_once(monkeypatch):
    """A B2 row of length 26, on a cold label table, forms one group
    product per pair of neighbour entries it fills (x s_i and, back,
    x s_i s_i = x), and no other."""
    word = "0,1,2,0,1,2,0,1,2,1,0,1,2,1,0,1,2,1,0,1,2,1,0,1,2,1"
    w = from_word(B2, [int(c) for c in word.split(",")])
    expected = kl_basis(B2, w)
    with fresh_table(B2) as table:
        comp = KLComputer(B2, "canonical", lambda x: True)
        calls = count_products(monkeypatch)
        row = comp.row(w)
        monkeypatch.undo()
        assert row == expected
        assert 2 * len(calls) == len(filled_entries(table))
        assert 0 < len(calls) < 2500


def test_a_second_computer_forms_no_product_the_table_holds(monkeypatch):
    """Computers of one system share its label table: a spherical row
    read after a Hecke row forms only the products the Hecke row did not,
    and a second Hecke computer reads its row with no product at all."""
    w = from_word(B2, [0, 1, 2, 0, 1, 2, 1, 0, 1])
    top = product_coset_rep(B2, w, longer=True)
    hecke_row, spherical_row = kl_basis(B2, top), spherical_kl(B2, top)
    with fresh_table(B2) as table:
        KLComputer(B2, "canonical", lambda x: True).row(top)
        held = filled_entries(table)
        calls = count_products(monkeypatch)
        assert KLComputer(B2, "canonical", lambda x: True).row(top) == hecke_row
        assert calls == []
        sph = KLComputer(B2, "spherical", partial(is_coset_maximal, B2))
        assert sph.row(top) == spherical_row
        monkeypatch.undo()
        formed = {(table.index[a], table.gens.index(b)) for a, b in calls}
        assert formed and not formed & held


def laurent_rows(comp):
    """Rows of comp's labels by ``canonical_step`` on LaurentPoly rows,
    with comp's descent and action rule: the route the packed kernel
    replaced."""
    rows = {}

    def row_of(k):
        if k not in rows:
            i = comp.descent(k)
            if i is None:
                rows[k] = {k: LaurentPoly.one()}
            else:
                rows[k] = canonical_step(row_of(comp.nbr(k, i)), partial(comp.act, i), row_of)[0]
        return rows[k]

    return lambda w: {comp.elts[y]: p for y, p in row_of(comp.number(w)).items()}


@pytest.mark.parametrize("sys", [B2, G2], ids=["B2", "G2"])
def test_packed_rows_match_the_laurent_route(sys):
    elts = waff_elements(sys, 14)
    for comp, labels in (
        (kl_computer(sys), [w for w in elts if length(sys, w) <= 12]),
        (spherical_computer(sys), [w for w in elts if is_coset_maximal(sys, w)]),
        (antispherical_computer(sys), [w for w in elts if is_coset_minimal(sys, w)]),
    ):
        reference = laurent_rows(comp)
        assert len(labels) > 10
        for w in labels:
            assert comp.row(w) == reference(w)


def test_length_bound_is_read_through_the_computer():
    comp = KLComputer(B2, "canonical", lambda x: True, length_bound=5)
    assert comp.codec.max_degree == 5 and kl_computer(B2).codec.max_degree == 64
    w = from_word(B2, [0, 1, 2, 1, 0])
    assert comp.row(w) == kl_basis(B2, w)
    with pytest.raises(ResourceError, match="length 6 exceeds the configured bound 5"):
        comp.row(w * simple_reflection(B2, 2))


def test_an_uncertified_row_is_refused():
    """A stored coefficient beyond the digit bound makes every row built
    on it fail its certificate, and is never unpacked."""
    comp = KLComputer(B2, "canonical", lambda x: True)
    u = from_word(B2, [0, 1, 2])
    comp.row(u)
    k = comp.number(u)
    comp.rows[k][k] += 1 << (PackedCodec.B + PackedCodec.BOUND_BITS)
    with pytest.raises(ResourceError, match="certified bound"):
        comp.row(u)
    with pytest.raises(ResourceError, match="certified bound"):
        comp.row(u * simple_reflection(B2, 1))
