import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_kl import repcalc
from alcove_kl.errors import ConsistencyError, DomainError, ResourceError
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import periodic_kl
from alcove_kl.repcalc import (
    CONJECTURE_NOTE,
    StdLabel,
    baby_verma_total_dim,
    baby_verma_weight_dim,
    default_radius,
    ext_dim,
    loewy_layers,
    nabla_weight_dim,
    socle_degree_check,
    verma_weight_dim,
)
from alcove_kl.rootsys import (
    ModularContext,
    Weight,
    build_root_system,
    partition_table,
    scaled_root_coords,
    weight_table,
)
from alcove_kl.weylext import (
    ExtWeylElt,
    check,
    dot_action,
    from_word,
    identity_elt,
    simple_reflection,
    translation_elt,
    waff_elements,
)
from conftest import a2_root_partitions
from test_rootsys import kostant_by_enumeration

V = LaurentPoly.gen()
ONE = LaurentPoly.one()


def test_std_label_normalization(ctx_a1):
    sys = ctx_a1.system
    s1 = simple_reflection(sys, 1)
    omega = Weight((1,))
    lab = StdLabel.make(ctx_a1, "L", s1)
    # s1 = t_{-omega} (t_omega s1): restricted part is t_omega s1
    assert lab.index == translation_elt(sys, omega) * s1
    assert lab.shift == Weight((-5,))
    # translating the index by a lattice weight moves the shift by p*weight
    lab2 = StdLabel.make(ctx_a1, "L", translation_elt(sys, Weight((2,))) * s1)
    assert lab2.index == lab.index
    assert lab2.shift == lab.shift + Weight((10,))


def test_std_label_weight(ctx_a1):
    sys = ctx_a1.system
    lab = StdLabel.make(ctx_a1, "L", simple_reflection(sys, 1))
    assert lab.weight(ctx_a1) == dot_action(
        ctx_a1, simple_reflection(sys, 1), Weight.zero(1)
    )
    with pytest.raises(DomainError):
        StdLabel.make(ctx_a1, "Q", identity_elt(sys))


def test_ext_diagonal_constant_term(ctx_a1, ctx_a2):
    for ctx in (ctx_a1, ctx_a2):
        for w in waff_elements(ctx.system, 3):
            series = ext_dim(ctx, w, w)
            assert series.coeff(0) == 1


def test_ext_dihedral_values(ctx_a1):
    sys = ctx_a1.system
    seen = set()
    for w in waff_elements(sys, 6):
        for y in waff_elements(sys, 6):
            seen.add(ext_dim(ctx_a1, w, y))
    assert seen == {LaurentPoly.zero(), ONE, V}


def test_ext_table_entries(ctx_a1):
    # the entries of the Ext table over the labels of length <= 3: each
    # series is p_{y,w}, its coefficients in degrees 0 and 1 only
    sys = ctx_a1.system
    elements = waff_elements(sys, 3)
    for w in elements:
        for y in elements:
            series = ext_dim(ctx_a1, w, y)
            assert series == periodic_kl(ctx_a1, y, w, default_radius(sys))
            coeffs = {m: series.coeff(m) for m in range(-1, 3)}
            assert coeffs[-1] == coeffs[2] == 0
            assert series == coeffs[0] * ONE + coeffs[1] * V
        assert ext_dim(ctx_a1, w, w) == ONE


def test_loewy_layers_dihedral(ctx_a1):
    sys = ctx_a1.system
    for w in waff_elements(sys, 6):
        table = loewy_layers(ctx_a1, w, bound=8)
        head = StdLabel.make(ctx_a1, "L", w)
        socle = StdLabel.make(ctx_a1, "L", check(ctx_a1, w))
        assert table.entries == {(head, 0): 1, (socle, 1): 1}


def test_loewy_layers_a2_shape(ctx_a2):
    # the layer sizes at the origin come out 1, 2, 3, 1 (the origin sits on
    # box walls, so the pattern is one factor richer than the generic 1,2,2,1);
    # every entry here is pinned by the inversion identity suite
    sys = ctx_a2.system
    w = identity_elt(sys)
    table = loewy_layers(ctx_a2, w, bound=7)
    assert table.total() == 7
    sizes = {m: sum(table.at_degree(m).values()) for m in range(4)}
    assert sizes == {0: 1, 1: 2, 2: 3, 3: 1}
    assert table.at_degree(0) == {StdLabel.make(ctx_a2, "L", w): 1}
    assert table.at_degree(3) == {StdLabel.make(ctx_a2, "L", check(ctx_a2, w)): 1}
    assert all(m == 1 for m in table.entries.values())


def test_loewy_layers_bound_below_the_label_is_a_resource_error(ctx_a1, ctx_a2):
    # the head simple is indexed by w itself, so the bound must reach l(w)
    for ctx, word in ((ctx_a1, [0, 1, 0, 1, 0]), (ctx_a2, [0, 1, 2, 0, 1])):
        w = from_word(ctx.system, word)
        with pytest.raises(ResourceError) as info:
            loewy_layers(ctx, w, bound=4)
        message = str(info.value)
        assert "of length 5" in message and "bound 4" in message
        assert "bound 5 reaches it" in message
    assert loewy_layers(ctx_a1, from_word(ctx_a1.system, [0, 1, 0, 1, 0]), bound=5).total() == 2


def test_socle_degree_check_routes_dihedral(ctx_a1):
    for x in waff_elements(ctx_a1.system, 6):
        assert socle_degree_check(ctx_a1, x, bound=6)


def test_socle_degree_check_routes_rank_two(ctx_a2):
    for x in waff_elements(ctx_a2.system, 4):
        assert socle_degree_check(ctx_a2, x, bound=3, radius=14)


def test_loewy_layers_forms_one_product_per_candidate(ctx_a2, monkeypatch):
    # with the enumeration and the windows warm, a table forms w0 y for
    # each candidate y and w0 w once
    sys = ctx_a2.system
    w = from_word(sys, [1, 2])
    loewy_layers(ctx_a2, w, bound=9, radius=13)
    candidates = len(waff_elements(sys, 9))
    calls = []
    fresh = ModularContext(sys, 5)  # the table is not yet in its memo
    mul = ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    loewy_layers(fresh, w, bound=9, radius=13)
    assert 0 < len(calls) <= candidates + 1


def test_loewy_layers_checks_w_aff_once_per_table(ctx_a2, monkeypatch):
    """A table tests its own label for W_aff, and then reads every pair
    through ``periodic_kl``'s reader, which tests neither label again: the
    pairs (w0 w, w0 y) lie in W_aff because w, w0 and each y do."""
    from alcove_kl import periodic, weylext

    sys = ctx_a2.system
    w = from_word(sys, [1, 2])
    warm = loewy_layers(ctx_a2, w, bound=7, radius=13)  # the gate, windows and band too
    calls, in_waff = [], weylext.in_waff
    for module in (periodic, repcalc, weylext):
        monkeypatch.setattr(module, "in_waff", lambda s, x: calls.append(x) or in_waff(s, x))
    assert loewy_layers(ModularContext(sys, 5), w, bound=7, radius=13) == warm
    assert calls == [w]


def _count_work(monkeypatch):
    """Count the group products and the periodic coefficients read (through
    ``periodic_kl``'s reader ``_waff_kl``) from here on."""
    calls = {"mul": 0, "_waff_kl": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(ExtWeylElt, "__mul__", counting("mul", ExtWeylElt.__mul__))
    monkeypatch.setattr(repcalc, "_waff_kl", counting("_waff_kl", repcalc._waff_kl))
    return calls


def test_repeated_loewy_layers_reads_the_context_memo(a2, monkeypatch):
    ctx = ModularContext(a2, 5)
    w = from_word(a2, [1, 2])
    first = loewy_layers(ctx, w, bound=7, radius=13)
    calls = _count_work(monkeypatch)
    again = loewy_layers(ctx, w, bound=7, radius=13)
    assert calls == {"mul": 0, "_waff_kl": 0}
    assert again == first and again is not first


def test_loewy_layers_result_does_not_alias_the_memo(a1):
    ctx = ModularContext(a1, 5)
    w = from_word(a1, [0, 1])
    first = loewy_layers(ctx, w, bound=4)
    expected = dict(first.entries)
    first.entries.clear()
    first.entries[(first.base, 7)] = 3
    again = loewy_layers(ctx, w, bound=4)
    assert again.entries == expected and again.note == CONJECTURE_NOTE


def test_loewy_layers_errors_store_nothing(a2, monkeypatch):
    ctx = ModularContext(a2, 5)
    outside = translation_elt(a2, Weight((1, 0)))  # not in W_aff
    long_w = from_word(a2, [0, 1, 2, 0, 1])
    for _ in range(2):
        with pytest.raises(DomainError):
            loewy_layers(ctx, outside, bound=7)
        with pytest.raises(ResourceError):
            loewy_layers(ctx, long_w, bound=4)
        assert ctx._memo == {}
    w = from_word(a2, [1])
    with monkeypatch.context() as patch:
        patch.setattr(repcalc, "_waff_kl", lambda *args: LaurentPoly.zero())
        for _ in range(2):
            with pytest.raises(ConsistencyError, match="head"):
                loewy_layers(ctx, w, bound=5)
            assert ctx._memo == {}
    assert loewy_layers(ctx, w, bound=5) == loewy_layers(ModularContext(a2, 5), w, bound=5)


def test_loewy_layers_memo_keys_resolve_the_default_radius(a2, monkeypatch):
    ctx = ModularContext(a2, 5)
    w = identity_elt(a2)
    table = loewy_layers(ctx, w, bound=7)
    calls = _count_work(monkeypatch)
    assert loewy_layers(ctx, w, bound=7, radius=default_radius(a2)) == table
    assert calls["_waff_kl"] == 0 and len(ctx._memo) == 1
    wider = loewy_layers(ctx, w, bound=8)
    assert calls["_waff_kl"] == len(waff_elements(a2, 8))
    assert len(ctx._memo) == 2
    assert wider.entries.items() >= table.entries.items()


def test_equal_contexts_do_not_share_a_memo(a2):
    ctx, other = ModularContext(a2, 5), ModularContext(a2, 5)
    loewy_layers(ctx, identity_elt(a2), bound=3)
    assert ctx == other and hash(ctx) == hash(other)
    assert repr(ctx) == repr(other) == f"ModularContext(system={a2!r}, p=5)"
    assert len(ctx._memo) == 1 and other._memo == {}
    assert ctx != ModularContext(a2, 7)


def _outcome(ctx, x, **kwargs):
    try:
        return socle_degree_check(ctx, x, bound=3, radius=14, **kwargs)
    except ConsistencyError as exc:
        return str(exc)


def test_socle_degree_check_on_a_shared_context_matches_fresh_ones(a2):
    shared = ModularContext(a2, 5)
    elements = waff_elements(a2, 4)
    assert len(elements) == 31
    for x in elements:
        assert _outcome(shared, x) is _outcome(ModularContext(a2, 5), x) is True
    # a wrong shift fails the same way with the tables read from the memo
    for x in elements[:4]:
        failure = _outcome(shared, x, shift=2)
        assert isinstance(failure, str) and failure == _outcome(ModularContext(a2, 5), x, shift=2)


def test_socle_degree_check_negative_control(ctx_a1):
    sys = ctx_a1.system
    with pytest.raises(ConsistencyError):
        socle_degree_check(ctx_a1, identity_elt(sys), bound=3, shift=2)
    with pytest.raises(ConsistencyError):
        socle_degree_check(ctx_a1, identity_elt(sys), bound=3, shift=0)


# -- weight multiplicities ------------------------------------------------------


def test_verma_highest_weight_line(ctx_a2):
    lam = Weight((2, 1))
    assert verma_weight_dim(ctx_a2, lam, lam) == 1
    assert verma_weight_dim(ctx_a2, lam, lam + Weight((1, 0))) == 0


def test_baby_verma_totals():
    ctx1 = ModularContext(build_root_system("A", 1), 5)
    assert baby_verma_total_dim(ctx1, Weight((0,))) == 5
    ctx2 = ModularContext(build_root_system("A", 2), 5)
    assert baby_verma_total_dim(ctx2, Weight((0, 0))) == 125
    assert baby_verma_total_dim(ctx2, Weight((3, 1))) == 125  # independent of lam


def test_baby_verma_truncation(ctx_a1):
    lam = Weight((0,))
    alpha = ctx_a1.system.positive_roots[0].as_weight()
    assert baby_verma_weight_dim(ctx_a1, lam, lam - 4 * alpha) == 1
    assert baby_verma_weight_dim(ctx_a1, lam, lam - 5 * alpha) == 0
    assert verma_weight_dim(ctx_a1, lam, lam - 5 * alpha) == 1


def test_nabla_matches_verma_on_window(ctx_a2):
    rng = random.Random(19)
    counts = []
    for _ in range(200):
        lam = Weight((rng.randint(-3, 3), rng.randint(-3, 3)))
        mu = Weight((rng.randint(-6, 6), rng.randint(-6, 6)))
        count = a2_root_partitions((lam - mu).coords)
        assert nabla_weight_dim(ctx_a2, lam, mu) == count
        assert verma_weight_dim(ctx_a2, lam, mu) == count
        counts.append(count)
    assert sum(1 for c in counts if c > 1) >= 10  # the samples reach past a single path


def test_baby_verma_support_size(ctx_a1):
    lam = Weight((1,))
    support = list(weight_table(ctx_a1, lam, ctx_a1.p - 1))
    assert len(support) == 5
    assert all(baby_verma_weight_dim(ctx_a1, lam, mu) == 1 for mu in support)


def test_nabla_is_the_verma_rule():
    assert nabla_weight_dim is verma_weight_dim


def box_top(ctx):
    """(p - 1) 2rho in root coordinates, the top corner of the weight box."""
    sys = ctx.system
    return tuple((ctx.p - 1) * sum(r.root[i] for r in sys.positive_roots) for i in range(sys.rank))


def box(ctx, lam):
    """Every weight lam - c, 0 <= c <= (p - 1) 2rho in root coordinates,
    in the order of ``partition_table``."""
    sys = ctx.system
    for c in itertools.product(*(range(m + 1) for m in box_top(ctx))):
        yield lam - sum((k * a for k, a in zip(c, sys.simple_roots)), Weight.zero(sys.rank))


@pytest.mark.parametrize("cartan", ["A", "B"])
def test_weight_table_matches_enumeration_on_the_whole_box(cartan):
    ctx = ModularContext(build_root_system(cartan, 2), 5)
    sys, lam = ctx.system, Weight((2, -1))
    capped = weight_table(ctx, lam, ctx.p - 1)
    full = weight_table(ctx, lam, None)
    weights = list(box(ctx, lam))
    assert [mu for mu in weights if mu in capped] == list(capped)  # product order
    assert list(full) == list(capped)  # read on the baby Verma support
    for mu, count in zip(weights, partition_table(sys, box_top(ctx)), strict=True):
        nu = lam - mu
        assert capped.get(mu, 0) == kostant_by_enumeration(sys, nu, bound=ctx.p - 1)
        assert count == kostant_by_enumeration(sys, nu)
        if mu in full:
            assert full[mu] == count


LAW_CONTEXTS = [
    ModularContext(build_root_system(cartan, rank), p)
    for cartan, rank, p in (("A", 1, 3), ("A", 2, 5), ("B", 2, 5), ("G", 2, 7))
]


@st.composite
def context_and_weight(draw):
    ctx = draw(st.sampled_from(LAW_CONTEXTS))
    rank = ctx.system.rank
    coords = draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank))
    return ctx, Weight(tuple(coords))


@settings(max_examples=25, deadline=None, database=None)
@given(context_and_weight())
def test_weight_table_laws(case):
    """The baby Verma has dimension p^{|positive roots|}, its character is
    symmetric about lam - (p - 1) rho, and capping the parts at p - 1
    never adds to a multiplicity and changes none whose root coordinates
    of lam - mu are all below p.  The uncapped counts are read on the
    whole box, and the uncapped table on the baby Verma support."""
    ctx, lam = case
    sys, p = ctx.system, ctx.p
    capped = weight_table(ctx, lam, p - 1)
    full = weight_table(ctx, lam, None)
    assert sum(capped.values()) == p**sys.num_positive_roots
    centre = 2 * lam - 2 * (p - 1) * sys.rho
    assert all(capped.get(centre - mu) == dim for mu, dim in capped.items())
    assert list(full) == list(capped)
    for mu, dim in zip(box(ctx, lam), partition_table(sys, box_top(ctx)), strict=True):
        assert capped.get(mu, 0) <= dim
        if mu in full:
            assert full[mu] == dim
        d, coords = scaled_root_coords(sys, lam - mu)
        if all(c < p * d for c in coords):
            assert capped.get(mu, 0) == dim
