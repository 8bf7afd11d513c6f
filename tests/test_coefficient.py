"""One entry of a canonical row, read without the rest of the row.

``KLComputer.coefficient(y, w)`` is the entry of y in ``row(w)``: it
decodes that one packed entry, and numbers no label in the system's
label table that the row does not hold.  A ``PeriodicWindow`` reads
through it too, after its own label check.
"""

import pytest

from alcove_kl.hecke import KLComputer, antispherical_computer, kl_computer, spherical_computer
from alcove_kl.laurent import LaurentPoly, PackedCodec
from alcove_kl.periodic import PeriodicWindow
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import (
    from_word,
    is_coset_maximal,
    is_coset_minimal,
    length,
    w0_elt,
    waff_elements,
)

from conftest import fresh_table

SYSTEMS = {name: build_root_system(name[0], int(name[1])) for name in ("A2", "B2")}
_ZERO = LaurentPoly.zero()


def computers(sys):
    """(computer, the labels whose rows it reads) for each module; the
    spherical labels are coset-maximal, so they reach l(w0) further."""
    short = waff_elements(sys, 3)
    longer = waff_elements(sys, 3 + length(sys, w0_elt(sys)))
    return {
        "hecke": (kl_computer(sys), short),
        "spherical": (
            spherical_computer(sys), [w for w in longer if is_coset_maximal(sys, w)]
        ),
        "antispherical": (
            antispherical_computer(sys), [w for w in short if is_coset_minimal(sys, w)]
        ),
        "window": (PeriodicWindow(sys, 3), short),
    }


@pytest.mark.parametrize("module", ["hecke", "spherical", "antispherical", "window"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_a_coefficient_is_the_entry_of_its_row(name, module):
    sys = SYSTEMS[name]
    comp, columns = computers(sys)[module]
    assert columns
    labels = waff_elements(sys, 3)
    for w in columns:
        row = comp.row(w)
        for y in labels:
            assert comp.coefficient(y, w) == row.get(y, _ZERO)


@pytest.mark.parametrize("window", [False, True], ids=["hecke", "window"])
def test_one_coefficient_decodes_one_entry(monkeypatch, window):
    sys = SYSTEMS["B2"]

    def make():
        return PeriodicWindow(sys, 5) if window else KLComputer(sys, "canonical", lambda x: True)

    ref = make()
    w = max(waff_elements(sys, 4), key=lambda x: len(ref.row(x)))
    want = ref.row(w)
    assert len(want) > 2
    comp, calls = make(), []
    unpack = PackedCodec.unpack
    monkeypatch.setattr(PackedCodec, "unpack", lambda codec, x: calls.append(x) or unpack(codec, x))
    # the first read builds the row of w and the rows it rests on, and
    # decodes one entry of them
    for n, (y, p) in enumerate(list(want.items())[:2], 1):
        assert comp.coefficient(y, w) == p
        assert len(calls) == n
    # an entry outside the row decodes nothing
    far = next(x for x in waff_elements(sys, 5) if x not in want)
    assert comp.coefficient(far, w) == _ZERO
    assert len(calls) == 2


def test_a_coefficient_numbers_no_label():
    sys = SYSTEMS["A2"]
    w = from_word(sys, [0, 1, 2])
    far = from_word(sys, [1, 2, 1, 0, 1, 2, 1])
    with fresh_table(sys) as table:
        comp = KLComputer(sys, "canonical", lambda x: True)
        row = comp.row(w)
        numbered = list(table.elts)
        assert far not in row
        assert comp.coefficient(far, w) == _ZERO
        assert table.elts == numbered and far not in table.index
    # a cold read numbers exactly what the row of w numbers
    with fresh_table(sys) as table:
        cold = KLComputer(sys, "canonical", lambda x: True)
        assert cold.coefficient(far, w) == _ZERO
        assert table.elts == numbered
