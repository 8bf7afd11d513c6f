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
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

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
from alcove_kl.weylext import finite_group, from_word, waff_elements

SRC = Path(__file__).resolve().parents[1] / "src"

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
        "ExtWeylElt(fin=0, translation=(2,))",
        ("fin", "translation"),
    ),
    "StdLabel": (
        _label,
        lambda: _label("Z"),
        "StdLabel(kind='L', index=ExtWeylElt(fin=0, translation=(0,)), "
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
        "(0,)), shift=Weight(coords=(10,))), entries={(StdLabel(kind='L', "
        "index=ExtWeylElt(fin=0, translation=(0,)), shift=Weight(coords=(10,))), "
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
    if name != "ExtWeylElt":  # this compares by hand
        assert a._key(a) == tuple(getattr(a, f) for f in fields)
    assert len({a, b, c}) == 2
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
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
    assert hash(x) == hash((x.fin, x.translation))


@pytest.mark.parametrize("name", ["LaurentPoly", "Weight"])
def test_a_one_field_value_compares_and_hashes_by_compiled_methods(name):
    make, other, _, (field,) = FROZEN[name]
    cls = type(make())
    # compiled, as the constructor is, rather than read through the key
    for method in ("__eq__", "__hash__"):
        assert vars(cls)[method].__code__.co_filename == "<string>"
    values = [make(), other(), make()]
    keys = [(getattr(x, field),) for x in values]
    assert [hash(x) for x in values] == [hash(k) for k in keys]
    # so a set of values iterates in the order of the set of 1-tuples
    assert [(getattr(x, field),) for x in set(values)] == list(set(keys))
    assert values[0].__eq__(getattr(values[0], field)) is NotImplemented


def test_the_context_memo_and_the_element_table_are_not_part_of_the_value():
    ctx = ModularContext(A1, 5)
    ctx._memo["key"] = "table"
    ctx._values["key"] = "value"
    assert ctx == ModularContext(A1, 5) and "_memo" not in repr(ctx)
    assert "_values" not in repr(ctx)
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
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
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
    if name != "ExtWeylElt"  # this takes other arguments
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
        "LaurentPoly", "Weight", "PosRoot", "RootSystem", "StdLabel",
        "GradedMultTable", "PKLEntry", "PKLTable", "CheckResult",
    }
    # a constructor the base compiled has no source file
    own = {
        c.__name__ for c in records
        if c._fields and vars(c)["__init__"].__code__.co_filename != "<string>"
    }
    assert own == {"ModularContext", "ExtWeylElt"}


# -- pickled elements ----------------------------------------------------------


def test_a_pickled_element_is_equal_and_shares_the_table():
    e, x = from_word(A1, []), from_word(A1, [0, 1, 0])
    table = PKLTable(A1, 5, 7, 2, {(e, x): PKLEntry(LaurentPoly.gen(1), True)})
    values = [x, _label(), table, GradedMultTable(_label(), {(_label("Z"), 1): 2})]
    for a in values:
        assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert y.group is x.group and hash(y) == hash(x)
    assert next(iter(pickle.loads(pickle.dumps(table)).entries))[1].group is x.group


def test_a_pickled_element_holds_no_table():
    a2 = build_root_system("A", 2)
    x = from_word(a2, [0, 1, 2, 1])
    before = pickle.dumps(x)
    waff_elements(a2, 10)  # the label table grows
    assert len(finite_group(a2).table.elts) > 100
    assert pickle.dumps(x) == before and len(before) < 1000


# Run in a fresh interpreter: number G2's finite table along the word in
# argv[1] first, then pickle the W_aff elements of length <= 4 (argv[2]
# "dump") or read them back from stdin, and print their finite numbers
# and their words.
_CHILD = """
import json, pickle, sys
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import elt_to_json, from_word, waff_elements
g2 = build_root_system("G", 2)
from_word(g2, [int(i) for i in sys.argv[1]])
if sys.argv[2] == "dump":
    xs = waff_elements(g2, 4)
    blob = pickle.dumps(xs).hex()
else:
    blob = sys.stdin.read()
    xs = pickle.loads(bytes.fromhex(blob))
print(json.dumps([blob, [x.fin for x in xs], [elt_to_json(g2, x) for x in xs]]))
"""


def test_a_pickled_element_reads_back_as_the_same_word_under_another_numbering():
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def child(order, mode, stdin=""):
        out = subprocess.run(
            [sys.executable, "-c", _CHILD, order, mode],
            input=stdin, env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out)

    blob, fins, words = child("121212", "dump")
    _, read_fins, read_words = child("212121", "load", blob)
    assert read_fins != fins  # the reading process numbered G2 in another order
    assert read_words == words and len(words) > 10
