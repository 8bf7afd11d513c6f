"""The integer label table of ``KLComputer`` and parity outside type A.

The computers number basis labels as the recursion meets them and key
their rows by number; these tests check the table against the group it
numbers, and the rows it builds against the independent oracles in B2
and G2 (``test_hecke`` covers A1 and A2) and against ``canonical_step``
on ``LaurentPoly`` rows driven by the computer's own action rule.
"""

from functools import partial

import pytest

from alcove_kl.errors import ResourceError
from alcove_kl.hecke import (
    KLComputer,
    antispherical_computer,
    canonical_step,
    coset_maximal_rep,
    is_coset_maximal,
    kl_basis,
    kl_basis_by_duality,
    kl_computer,
    spherical_computer,
    spherical_from_kl_row,
    spherical_kl,
)
from alcove_kl.laurent import LaurentPoly, PackedCodec
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    ExtWeylElt,
    from_word,
    gen_indices,
    is_coset_minimal,
    length,
    simple_reflection,
    waff_elements,
)

A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


@pytest.mark.parametrize("sys", [B2, G2], ids=["B2", "G2"])
def test_kl_rows_match_duality_oracle(sys):
    for w in waff_elements(sys, 6):
        assert kl_basis(sys, w) == kl_basis_by_duality(sys, w)


@pytest.mark.parametrize("sys", [B2, G2], ids=["B2", "G2"])
def test_spherical_rows_match_ideal_expansion(sys):
    maximal = [w for w in waff_elements(sys, 10) if is_coset_maximal(sys, w)]
    assert len(maximal) > 3
    for w in maximal:
        assert spherical_kl(sys, w) == spherical_from_kl_row(sys, w)


def assert_table_laws(sys, comp, kept):
    gens = [simple_reflection(sys, i) for i in gen_indices(sys)]
    elts = comp.elts
    assert len(set(elts)) == len(elts) == len(comp.ranks) == len(comp.nbrs)
    filled = 0
    for k, x in enumerate(elts):
        assert comp.number(x) == k
        assert comp.ranks[k] == length(sys, x)
        assert comp.kept[k] == kept(x)
        for i, n in enumerate(comp.nbrs[k]):
            if n is not None:
                filled += 1
                assert elts[n] == x * gens[i]
    assert filled > 0


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
    top = coset_maximal_rep(sys, w)
    assert set(spherical_kl(sys, top)) <= set(sph.elts)
    assert_table_laws(sys, sph, lambda x: is_coset_maximal(sys, x))


def test_descent_is_the_smallest_right_descent():
    comp = kl_computer(B2)
    w = from_word(B2, [0, 1, 2, 1, 0, 2, 1])
    kl_basis(B2, w)
    for k, x in enumerate(list(comp.elts)):
        lx = length(B2, x)
        down = [i for i in gen_indices(B2) if length(B2, x * simple_reflection(B2, i)) < lx]
        assert comp.descent(k) == (min(down) if down else None)


def test_a_row_forms_each_product_once(monkeypatch):
    """A B2 row of length 26 forms one group product per filled entry of
    the neighbour table, and no other."""
    word = "0,1,2,0,1,2,0,1,2,1,0,1,2,1,0,1,2,1,0,1,2,1,0,1,2,1"
    w = from_word(B2, [int(c) for c in word.split(",")])
    expected = kl_basis(B2, w)
    comp = KLComputer(B2, "canonical", lambda x: True)
    calls = []
    mul = ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    row = comp.row(w)
    monkeypatch.undo()
    assert row == expected
    filled = sum(n is not None for nbrs in comp.nbrs for n in nbrs)
    assert len(calls) == filled < 2500


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
