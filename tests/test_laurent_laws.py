"""Property tests for the arithmetic of LaurentPoly.

Polynomials are drawn from random exponent -> coefficient maps; integers
take part as constants.  The reference for +, - and * is arithmetic on
coefficient dictionaries written out in this file.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_kl.laurent import LaurentPoly

PROPERTY = settings(max_examples=100, deadline=None, database=None)

COEFFS = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=6)
POLYS = COEFFS.map(LaurentPoly.from_dict)
OPERANDS = st.one_of(POLYS, st.integers(-3, 3))

ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def as_dict(f):
    return {0: f} if isinstance(f, int) else dict(f.terms)


def oracle(f, g, op):
    """The terms of f op g from coefficient dictionaries."""
    a, b = as_dict(f), as_dict(g)
    out = {}
    if op == "*":
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    else:
        sign = 1 if op == "+" else -1
        for e, c in a.items():
            out[e] = out.get(e, 0) + c
        for e, c in b.items():
            out[e] = out.get(e, 0) + sign * c
    return tuple(sorted((e, c) for e, c in out.items() if c))


def assert_normal(f):
    assert isinstance(f, LaurentPoly)
    exps = [e for e, _ in f.terms]
    assert all(a < b for a, b in zip(exps, exps[1:]))
    assert all(c for _, c in f.terms)


@PROPERTY
@given(POLYS, OPERANDS)
def test_operations_match_dictionary_oracle(f, g):
    for op, fg, gf in (
        ("+", f + g, g + f),
        ("-", f - g, g - f),
        ("*", f * g, g * f),
    ):
        assert fg.terms == oracle(f, g, op)
        assert gf.terms == oracle(g, f, op)
        assert_normal(fg)
        assert_normal(gf)
    assert_normal(-f)
    assert_normal(f.bar())


@PROPERTY
@given(POLYS, POLYS, POLYS)
def test_commutative_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + ZERO == f and f * ONE == f and f * ZERO == ZERO
    assert f - f == ZERO and f + (-f) == ZERO
    assert f - g == f + (-g)


@PROPERTY
@given(POLYS, POLYS, st.integers(-3, 3))
def test_bar_is_an_involutive_ring_automorphism(f, g, n):
    assert f.bar().bar() == f
    assert (f + g).bar() == f.bar() + g.bar()
    assert (f - g).bar() == f.bar() - g.bar()
    assert (f * g).bar() == f.bar() * g.bar()
    assert (n * f).bar() == n * f.bar()
    assert ONE.bar() == ONE
    assert f.bar().terms == tuple(sorted((-e, c) for e, c in f.terms))


@PROPERTY
@given(POLYS, POLYS, st.integers(-3, 3), st.integers(-4, 4))
def test_add_scaled_is_one_fused_sum(f, g, c, e):
    """f.add_scaled(g, c, e) == f + c v^e g, also for c = 0 and zero g."""
    scaled = c * LaurentPoly.gen(e) * g
    for h in (f.add_scaled(g, c, e), ZERO.add_scaled(g, c, e), f.add_scaled(ZERO, c, e)):
        assert_normal(h)
    assert f.add_scaled(g, c, e).terms == oracle(f, scaled, "+")
    assert f.add_scaled(g, c, e) == f + scaled
    assert ZERO.add_scaled(g, c, e) == scaled
    assert f.add_scaled(ZERO, c, e) == f
    assert f.add_scaled(g, 0, e) == f
    assert f.add_scaled(g, c) == f + c * g
