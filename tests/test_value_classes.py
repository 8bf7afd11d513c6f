"""The value classes: plain ``__slots__`` classes that compare, hash and
print as the frozen dataclasses they replaced did.

Each case builds one instance twice, and an instance that differs in
one field.  The printed forms are the ones those dataclasses printed,
except that a graded table's note is a class constant and is not
printed.  A class that declares only ``_fields`` gets its constructor
from the base.
"""

import copy
import inspect
import pickle

import pytest

from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import PKLEntry, PKLTable
from alcove_kl.repcalc import CONJECTURE_NOTE, GradedMultTable, StdLabel
from alcove_kl.rootsys import (
    ModularContext,
    PosRoot,
    RootSystem,
    Weight,
    _Record,
    build_root_system,
)
from alcove_kl.verify import CheckResult
from alcove_kl.weylext import from_word

A1 = build_root_system("A", 1)
A1_REPR = (
    "RootSystem(cartan_type='A', rank=1, cartan=((2,),), positive_roots=(PosRoot(fund=(2,), "
    "root=(1,), coroot=(1,)),), w0_word=(1,), weyl_order=2)"
)


def _a1(weyl_order=2):
    root = PosRoot((2,), (1,), (1,))
    return RootSystem("A", 1, ((2,),), (root,), (1,), weyl_order)


def _label(kind="L", word=(0, 1)):
    return StdLabel.make(ModularContext(A1, 5), kind, from_word(A1, list(word)))


# (build an instance, build one that differs, its repr, its field names)
FROZEN = {
    "LaurentPoly": (
        lambda: LaurentPoly.from_dict({-1: 2, 3: -1}),
        lambda: LaurentPoly.from_dict({-1: 2, 3: 1}),
        "LaurentPoly('2*v^-1 - v^3')",
        ("terms",),
    ),
    "Weight": (
        lambda: Weight((1, -2)),
        lambda: Weight((1, 2)),
        "Weight(coords=(1, -2))",
        ("coords",),
    ),
    "PosRoot": (
        lambda: PosRoot((2,), (1,), (1,)),
        lambda: PosRoot((2,), (1,), (2,)),
        "PosRoot(fund=(2,), root=(1,), coroot=(1,))",
        ("fund", "root", "coroot"),
    ),
    "RootSystem": (
        _a1,
        lambda: _a1(3),
        A1_REPR,
        ("cartan_type", "rank", "cartan", "positive_roots", "w0_word", "weyl_order"),
    ),
    "ModularContext": (
        lambda: ModularContext(A1, 5),
        lambda: ModularContext(A1, 7),
        f"ModularContext(system={A1_REPR}, p=5)",
        ("system", "p"),
    ),
    "ExtWeylElt": (
        lambda: from_word(A1, [0, 1]),
        lambda: from_word(A1, [1, 0]),
        "ExtWeylElt(fin=0, translation=Weight(coords=(2,)))",
        ("fin", "translation"),
    ),
    "StdLabel": (
        _label,
        lambda: _label("Z"),
        "StdLabel(kind='L', index=ExtWeylElt(fin=0, translation=Weight(coords=(0,))), "
        "shift=Weight(coords=(10,)))",
        ("kind", "index", "shift"),
    ),
    "PKLEntry": (
        lambda: PKLEntry(LaurentPoly.gen(1), True),
        lambda: PKLEntry(LaurentPoly.gen(1), False),
        "PKLEntry(poly=LaurentPoly('v'), stabilized=True)",
        ("poly", "stabilized"),
    ),
}

# (build an instance, build one that differs in the first field, its repr)
MUTABLE = {
    "CheckResult": (
        lambda: CheckResult("galleries", False, "2 of 3"),
        lambda: CheckResult("oracle", False, "2 of 3"),
        "CheckResult(name='galleries', passed=False, detail='2 of 3')",
    ),
    "GradedMultTable": (
        lambda: GradedMultTable(_label(), {(_label(), 0): 1}),
        lambda: GradedMultTable(_label("Z"), {(_label(), 0): 1}),
        "GradedMultTable(base=StdLabel(kind='L', index=ExtWeylElt(fin=0, translation="
        "Weight(coords=(0,))), shift=Weight(coords=(10,))), entries={(StdLabel(kind='L', "
        "index=ExtWeylElt(fin=0, translation=Weight(coords=(0,))), shift=Weight(coords=(10,))), "
        "0): 1})",
    ),
    "PKLTable": (
        lambda: PKLTable(A1, 5, 7, 2, {}),
        lambda: PKLTable(_a1(3), 5, 7, 2, {}),
        f"PKLTable(system={A1_REPR}, p=5, radius=7, length_bound=2, entries={{}})",
    ),
}


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_value_compares_hashes_and_prints_as_before(name):
    make, other, text, fields = FROZEN[name]
    a, b, c = make(), make(), other()
    assert type(a).__name__ == name
    assert repr(a) == repr(b) == text
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert a != text and a != None  # noqa: E711 (another class is never equal)
    if name not in ("RootSystem", "ExtWeylElt"):  # these hash part of their value
        assert hash(a) == hash(tuple(getattr(a, f) for f in fields))
    if name not in ("LaurentPoly", "ExtWeylElt"):  # these compare by hand
        assert a._key(a) == tuple(getattr(a, f) for f in fields)
    assert len({a, b, c}) == 2
    assert copy.copy(a) == a
    if name not in ("ExtWeylElt", "StdLabel"):  # a pickled element copies its table
        assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_value_refuses_assignment_and_deletion(name):
    make, _, text, fields = FROZEN[name]
    a = make()
    for field in fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


def test_the_root_system_and_element_hashes_read_their_keys():
    assert hash(A1) == hash(_a1(3)) == hash(("A", 1))
    x = from_word(A1, [0, 1])
    assert hash(x) == hash((x.fin, x.translation.coords))


def test_the_context_memo_and_the_element_table_are_not_part_of_the_value():
    ctx = ModularContext(A1, 5)
    ctx._memo["key"] = "table"
    assert ctx == ModularContext(A1, 5) and "_memo" not in repr(ctx)
    assert hash(ctx) == hash(ModularContext(A1, 5))
    x = from_word(A1, [0, 1])
    assert "group" not in repr(x) and copy.copy(x).group is x.group


@pytest.mark.parametrize("name", MUTABLE)
def test_a_mutable_record_compares_and_prints_as_before(name):
    make, other, text = MUTABLE[name]
    a, b, c = make(), make(), other()
    assert repr(a) == repr(b) == text
    assert a == b and a != c and a != text
    with pytest.raises(TypeError):
        hash(a)
    assert a._key(a) == tuple(getattr(a, f) for f in a._fields)
    first = {"CheckResult": "name", "GradedMultTable": "base", "PKLTable": "system"}[name]
    setattr(c, first, getattr(a, first))
    assert c == a


def test_a_graded_table_takes_the_conjecture_note_by_default():
    table = GradedMultTable(_label(), {})
    assert table.note == GradedMultTable.note == CONJECTURE_NOTE
    assert "note" not in GradedMultTable._fields and "note" not in repr(table)
    with pytest.raises(TypeError):
        GradedMultTable(_label(), {}, "other")


# the classes whose constructor the base builds from ``_fields``, and
# ModularContext, whose own constructor takes its fields too
CONSTRUCTED = {
    name: cases[name][0]
    for cases in (FROZEN, MUTABLE)
    for name in cases
    if name not in ("LaurentPoly", "ExtWeylElt")  # these take other arguments
}


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_positional_and_keyword_construction_agree(name):
    a = CONSTRUCTED[name]()
    cls, values = type(a), a._key(a)
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
    assert cls(*values) == a == cls(**dict(zip(cls._fields, values)))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_only_the_context_and_the_element_write_their_own_constructor():
    # verify imports every layer that defines a value class
    records = [c for c in _subclasses(_Record) if c.__module__.startswith("alcove_kl.")]
    assert {c.__name__ for c in records} >= {
        "Weight", "PosRoot", "RootSystem", "StdLabel", "GradedMultTable",
        "PKLEntry", "PKLTable", "CheckResult",
    }
    # a constructor the base compiled has no source file
    own = {
        c.__name__ for c in records
        if c._fields and vars(c)["__init__"].__code__.co_filename != "<string>"
    }
    assert own == {"ModularContext", "ExtWeylElt"}
