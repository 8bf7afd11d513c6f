"""The batched reader ``periodic._waff_batch`` against the scalar one.

A batch reads many pairs that share one label (a row or a column) through
the context's value memo.  It must read, pair by pair, what a loop over
``_waff_kl`` reads on a fresh context of its own, leave the same memo,
and stop at the same error with the same message, keeping only the pairs
before it.  Labels are short W_aff elements of A1, A2 and B2, some
translated by the root lattice so that they lie outside every window or
are not yet numbered in the label table; radii run from too small to
reach the canonical pairs to large enough, and B2 is refused by the gate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_kl.errors import ConsistencyError, StabilizationError, WindowError
from alcove_kl.periodic import _batch_key, _waff_batch, _waff_kl, orbit_key
from alcove_kl.rootsys import ModularContext, build_root_system
from alcove_kl.weylext import ExtWeylElt, finite_group, translate, w0_waff_elements, waff_elements

SYSTEMS = tuple(build_root_system(t, r) for t, r in (("A", 1), ("A", 2), ("B", 2)))

PROPERTY = settings(max_examples=60, deadline=None, database=None)


def draw_label(data, sys):
    """A W_aff element of length at most 3, translated one time in four by
    a root-lattice translation sum_i c_i alpha_i with each c_i in [-1, 1]."""
    x = data.draw(st.sampled_from(waff_elements(sys, 3)))
    if data.draw(st.integers(0, 3)) == 0:
        simple = [r for r in sys.positive_roots if r.height == 1]
        cs = data.draw(st.lists(st.integers(-1, 1), min_size=sys.rank, max_size=sys.rank))
        x = translate(tuple(sum(c * r.fund[i] for c, r in zip(cs, simple)) for i in range(sys.rank)), x)
    return x


def read_all(values):
    """The values read, in order, and the (type, message) of the refusal
    that stopped the reads, or None."""
    out = []
    try:
        for value in values:
            out.append(value)
    except (ConsistencyError, StabilizationError, WindowError) as exc:
        return out, (type(exc), str(exc))
    return out, None


def scalar_reads(ctx, label, others, radius, column):
    for x in others:
        yield _waff_kl(ctx, x, label, radius) if column else _waff_kl(ctx, label, x, radius)


@PROPERTY
@given(data=st.data())
def test_a_batch_reads_the_scalar_values_and_leaves_the_same_memo(data):
    # radii from 1, which reaches few canonical pairs, to 9
    sys = data.draw(st.sampled_from(SYSTEMS[:2]))
    label = draw_label(data, sys)
    others = [draw_label(data, sys) for _ in range(data.draw(st.integers(0, 12)))]
    radius = data.draw(st.integers(1, 9))
    column = data.draw(st.booleans())
    scalar = ModularContext(sys, 5)
    want = read_all(scalar_reads(scalar, label, others, radius, column))
    ctx = ModularContext(sys, 5)
    got = read_all(_waff_batch(ctx, label, others, radius, column))
    assert got == want
    assert ctx._values == scalar._values
    if want[1] is None:
        # a second batch on the same context reads every pair from the memo
        assert read_all(_waff_batch(ctx, label, others, radius, column)) == want
        assert ctx._values == scalar._values
    else:
        # the refusal came at the first pair that raised, and every pair
        # before it, and no other, was read
        assert len(got[0]) < len(others)


@PROPERTY
@given(data=st.data())
def test_a_batch_that_raises_keeps_only_the_pairs_before_it(data):
    # radii at which A2 reads of short pairs are out of reach or do not
    # stabilize, and B2, which the gate refuses at the first miss
    sys = data.draw(st.sampled_from(SYSTEMS))
    label = draw_label(data, sys)
    others = [draw_label(data, sys) for _ in range(data.draw(st.integers(1, 12)))]
    radius = data.draw(st.integers(1, 5))
    column = data.draw(st.booleans())
    scalar = ModularContext(sys, 5)
    want = read_all(scalar_reads(scalar, label, others, radius, column))
    ctx = ModularContext(sys, 5)
    got = read_all(_waff_batch(ctx, label, others, radius, column))
    assert got == want and ctx._values == scalar._values
    if str(sys) == "B2":
        assert got == ([], (ConsistencyError, got[1][1]))
        assert ctx._values == {}


def test_a_batch_keys_each_pair_by_its_orbit_key():
    # the batch forms the key of every rank from the shared label's simple
    # root entries; in rank 3 too it is the scalar reader's orbit key
    for name, rank in (("A", 1), ("A", 2), ("G", 2), ("A", 3), ("B", 3)):
        sys = build_root_system(name, rank)
        table = finite_group(sys).table
        labels = waff_elements(sys, 3)
        for label in labels:
            k = table.shi[table.number(label)]
            to_column, to_row = _batch_key(label, k, 7, True), _batch_key(label, k, 7, False)
            for x in labels:
                kx = table.coords(x)
                assert to_column(x.fin, kx) == (orbit_key(sys, x, label), 7)
                assert to_row(x.fin, kx) == (orbit_key(sys, label, x), 7)


def test_the_loewy_candidates_are_the_label_tables_own_elements():
    for sys in SYSTEMS[:2]:
        table = finite_group(sys).table
        for w0y, y in w0_waff_elements(sys, 5):
            assert table.elts[table.index[w0y]] is w0y and table.elts[table.index[y]] is y


def test_a_batch_of_memo_hits_matches_every_label_by_identity(monkeypatch):
    # the labels are the label table's own elements, so a table lookup
    # finds each by identity; __eq__ runs only on a hash collision with
    # another label (hash(-1) == hash(-2)), and then finds them unequal
    sys = SYSTEMS[1]
    ctx = ModularContext(sys, 5)
    pairs = w0_waff_elements(sys, 5)
    w0ys, ys = [w0y for w0y, _ in pairs], [y for _, y in pairs]
    batches = [(w0ys[7], w0ys, False), (ys[7], ys, True)]
    first = [list(_waff_batch(ctx, label, others, 13, column)) for label, others, column in batches]
    calls, eq = [], ExtWeylElt.__eq__
    monkeypatch.setattr(ExtWeylElt, "__eq__", lambda a, b: calls.append(eq(a, b)) or calls[-1])
    again = [list(_waff_batch(ctx, label, others, 13, column)) for label, others, column in batches]
    assert again == first and True not in calls
