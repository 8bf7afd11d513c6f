"""Laws of the translation-orbit key that the periodic value memo reads.

p_{y,w} is unchanged when y and w are translated together by the root
lattice, and ``periodic.orbit_key`` names the orbit of a pair by
integers off the label table, with no element formed.  The memo is
sound only if the key is invariant and exact: pairs share a key exactly
when ``canonical_pair`` gives them one representative.  A read tests the
support band at the pair as given, which is sound only if the band is
translation invariant too.  Pairs are drawn from the W_aff elements of
length at most 4 in A1, A2, B2 and G2, each translated by its own random
root-lattice translation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_kl.periodic import canonical_pair, in_support_band, orbit_key
from alcove_kl.rootsys import build_root_system
from alcove_kl.weylext import translate, waff_elements

SYSTEMS = tuple(build_root_system(t, r) for t, r in (("A", 1), ("A", 2), ("B", 2), ("G", 2)))

PROPERTY = settings(max_examples=60, deadline=None, database=None)


def root_lattice_translation(data, sys):
    """sum_i c_i alpha_i with each c_i in [-3, 3], on the fundamental weights."""
    simple = [r for r in sys.positive_roots if r.height == 1]
    cs = data.draw(st.lists(st.integers(-3, 3), min_size=sys.rank, max_size=sys.rank))
    return tuple(sum(c * r.fund[i] for c, r in zip(cs, simple)) for i in range(sys.rank))


def draw_pairs(data, sys, count):
    """``count`` pairs of short W_aff elements, each translated by its own
    root-lattice translation: short labels make shared orbits common."""
    elements = st.sampled_from(waff_elements(sys, 4))
    pairs = []
    for _ in range(count):
        y, w = data.draw(elements), data.draw(elements)
        nu = root_lattice_translation(data, sys)
        pairs.append((translate(nu, y), translate(nu, w)))
    return pairs


@PROPERTY
@given(st.data())
def test_the_orbit_key_is_translation_invariant(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    for y, w in draw_pairs(data, sys, 4):
        nu = root_lattice_translation(data, sys)
        assert orbit_key(sys, translate(nu, y), translate(nu, w)) == orbit_key(sys, y, w)


@PROPERTY
@given(st.data())
def test_pairs_share_a_key_exactly_when_they_share_a_canonical_pair(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    pairs = draw_pairs(data, sys, 60)
    # and a translate of each, so that every pair has a partner in its orbit
    for y, w in list(pairs):
        nu = root_lattice_translation(data, sys)
        pairs.append((translate(nu, y), translate(nu, w)))
    canonical = {}
    for y, w in pairs:
        canonical.setdefault(orbit_key(sys, y, w), set()).add(canonical_pair(sys, y, w))
    assert all(len(reps) == 1 for reps in canonical.values())
    assert len(canonical) == len({canonical_pair(sys, y, w) for y, w in pairs})


@PROPERTY
@given(st.data())
def test_the_band_at_a_pair_is_the_band_at_its_canonical_pair(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    for y, w in draw_pairs(data, sys, 20):
        assert in_support_band(sys, y, w) == in_support_band(sys, *canonical_pair(sys, y, w))
