"""Property tests for the stays of the generator actions on the Hecke algebra.

H_s, Hb_s and bar(H_s) act through one routine and differ only in the
pair of stays each passes to it.  Elements are drawn as random
label-keyed dicts in A1, A2, B2 and G2: labels are products of generator
words of length at most 8, coefficients small Laurent polynomials.  The
laws are that bar(H_s) is the inverse of H_s on either side of an
element, and that Hb_s = H_s + v.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_kl.hecke import mul_bar_gen, mul_gen, mul_kl_gen
from alcove_kl.laurent import LaurentPoly
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import from_word, gen_indices

SYSTEMS = tuple(build_root_system(t, r) for t, r in (("A", 1), ("A", 2), ("B", 2), ("G", 2)))

PROPERTY = settings(max_examples=100, deadline=None, database=None)

POLYS = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4).map(
    LaurentPoly.from_dict
)
V = LaurentPoly.gen()


def draw_element(data, sys):
    """A generator index of sys and a random element of its Hecke algebra."""
    gens = list(gen_indices(sys))
    words = st.lists(st.sampled_from(gens), max_size=8)
    terms = data.draw(st.lists(st.tuples(words, POLYS), max_size=5))
    h = {}
    for word, p in terms:
        x = from_word(sys, word)
        h[x] = h.get(x, LaurentPoly.zero()) + p
    return data.draw(st.sampled_from(gens)), {x: p for x, p in h.items() if p}


@PROPERTY
@given(st.data())
def test_bar_gen_inverts_the_standard_generator(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    i, h = draw_element(data, sys)
    assert mul_bar_gen(sys, mul_gen(sys, h, i), i) == h
    assert mul_gen(sys, mul_bar_gen(sys, h, i), i) == h


@PROPERTY
@given(st.data())
def test_kl_gen_is_the_standard_generator_plus_v(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    i, h = draw_element(data, sys)
    expected = mul_gen(sys, h, i)
    for x, p in h.items():
        expected[x] = expected.get(x, LaurentPoly.zero()) + V * p
    assert mul_kl_gen(sys, h, i) == {x: p for x, p in expected.items() if p}
