"""Property tests for the arithmetic of LaurentPoly and its packed codec.

Polynomials are drawn from random exponent -> coefficient maps; integers
take part as constants.  The reference for +, - and * is arithmetic on
coefficient dictionaries written out in this file, and the reference for
a packed integer is the sum c_e 2^(B(e+1)) written out here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_kl.errors import ResourceError
from alcove_kl.laurent import LaurentPoly, PackedCodec

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


# -- the packed codec ---------------------------------------------------------

CODEC = PackedCodec(12)
B, BOUND = PackedCodec.B, 1 << PackedCodec.BOUND_BITS
DIGIT = st.one_of(st.integers(-5, 5), st.integers(-BOUND, BOUND - 1))
ZV = st.dictionaries(st.integers(-1, 12), DIGIT, max_size=8).map(LaurentPoly.from_dict)
HALF = 1 << (B - 1)
# beyond the certified bound but inside the range in which an integer
# still determines its coefficients
BEYOND = st.one_of(
    st.integers(BOUND, HALF - 1),
    st.integers(-HALF, -BOUND - 1),
    st.sampled_from([BOUND, -BOUND - 1, HALF - 1, -HALF]),
)


def kronecker(coeffs):
    """The packed integer of {exponent: coefficient}, with no bound."""
    return sum(c << (B * (e + 1)) for e, c in coeffs.items())


@PROPERTY
@given(ZV, ZV, st.integers(-5, 5))
def test_packed_codec_round_trips_and_reads_mu(f, g, n):
    x = CODEC.pack(f)
    assert x == kronecker(dict(f.terms))
    assert CODEC.certified(x)
    assert CODEC.unpack(x) == f
    assert CODEC.mu(x) == f.coeff(1)
    assert CODEC.in_positive_v(x) == f.in_positive_v()
    # integer operations are the ring operations while the result certifies
    y = CODEC.pack(f) + n * CODEC.pack(g)
    h = f + n * g
    if all(-BOUND <= c < BOUND for _, c in h.terms):
        assert CODEC.unpack(y) == h
        assert CODEC.mu(y) == h.coeff(1)


@PROPERTY
@given(ZV, st.integers(-1, 12), BEYOND, st.integers(0, 8))
def test_packed_codec_refuses_an_uncertified_coefficient(f, e, c, k):
    """A coefficient beyond the certified bound raises ResourceError, in
    pack and in unpack, and is never read as another polynomial.  pack
    also refuses coefficients of any size (here c * 2^k): the integer of
    one of 2^(B-1) or more is that of another polynomial, which the
    row kernel rules out by its bound on the mu-corrections."""
    coeffs = dict(f.terms)
    coeffs[e] = c
    with pytest.raises(ResourceError):
        CODEC.pack(LaurentPoly.from_dict(coeffs))
    with pytest.raises(ResourceError):
        CODEC.pack(LaurentPoly.from_dict({**coeffs, e: c << k}))
    assert not CODEC.certified(kronecker(coeffs))
    with pytest.raises(ResourceError):
        CODEC.unpack(kronecker(coeffs))


def test_packed_codec_refuses_a_degree_beyond_its_bound():
    top = LaurentPoly.gen(CODEC.max_degree)
    assert CODEC.unpack(CODEC.pack(top)) == top
    with pytest.raises(ResourceError):
        CODEC.pack(top * LaurentPoly.gen())
    with pytest.raises(ResourceError):
        CODEC.unpack(CODEC.pack(top) << B)


CODECS = {n: PackedCodec(n) for n in (0, 1, 4, 64, 200)}
# digits at the certified bound, just past it, and anywhere in a balanced digit
EDGE_DIGIT = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([BOUND - 1, -BOUND, BOUND, -BOUND - 1, HALF - 1, -HALF]),
    st.integers(-HALF, HALF - 1),
)


def full_width_certified(codec, x):
    """The certificate over all max_degree + 2 digits, written out here."""
    b, digits = PackedCodec.BOUND_BITS, codec.max_degree + 2
    bias = sum(1 << (B * j + b) for j in range(digits))
    outside = ~sum(((1 << (b + 1)) - 1) << (B * j) for j in range(digits))
    return not (x + bias) & outside


@st.composite
def packed_values(draw):
    """(max_degree, x): x from sparse digits at positions up to two past
    the codec's top digit, its top digit of either sign, or any integer
    of up to 210 digits."""
    n = draw(st.sampled_from(sorted(CODECS)))
    top = n + 3
    if draw(st.booleans()):
        return n, draw(st.integers(-(1 << (B * 210)), 1 << (B * 210)))
    digits = draw(st.dictionaries(st.integers(0, top), EDGE_DIGIT, max_size=8))
    k = draw(st.integers(0, top))
    digits[k] = draw(st.sampled_from([-1, 1, -BOUND, BOUND - 1, BOUND, -HALF])) * draw(
        st.sampled_from([1, -1])
    )
    return n, sum(d << (B * j) for j, d in digits.items())


@PROPERTY
@given(packed_values())
def test_packed_codec_certifies_on_the_digits_the_value_spans(value):
    """Testing only the lowest min(bit length // B + 1, max_degree + 2)
    digits decides the same as testing all max_degree + 2 of them."""
    n, x = value
    assert CODECS[n].certified(x) == full_width_certified(CODECS[n], x)


@PROPERTY
@given(st.lists(ZV, max_size=6), st.lists(packed_values(), max_size=3))
def test_packed_codec_certifies_a_row_as_it_certifies_each_value(fs, values):
    """The OR passes over a whole row, unsigned and then biased at the
    digit count of its longest value, decide the same as testing each
    value over all its digits; a row of packed polynomials passes."""
    xs = [CODEC.pack(f) for f in fs]
    assert CODEC.all_certified(xs)
    xs += [x for _, x in values]
    assert CODEC.all_certified(xs) == all(full_width_certified(CODEC, x) for x in xs)


@PROPERTY
@given(st.lists(ZV, max_size=6), st.integers(0, 6))
def test_packed_codec_tests_the_lower_entries_of_a_monic_row_in_one_sum(fs, k):
    xs = [CODEC.pack(f) for f in fs]
    xs.insert(k, CODEC.one)
    assert CODEC.others_in_positive_v(xs) == all(f.in_positive_v() for f in fs)


def test_the_certificate_holds_at_the_edges_of_each_width():
    for n, codec in CODECS.items():
        for k in range(n + 3):
            for top in (1, -1, BOUND - 1, -BOUND, BOUND, -BOUND - 1):
                for low in (0, BOUND - 1, -BOUND, -BOUND - 1):
                    x = (top << (B * k)) + low
                    assert codec.certified(x) == full_width_certified(codec, x), (n, k, top, low)
