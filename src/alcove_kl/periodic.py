"""The periodic module over alcoves and its canonical-basis coefficients.

The module is the free Z[v,v^-1]-module on alcoves with generator action

    A . Hb_s = As + v    A   (As above A)
    A . Hb_s = As + v^-1 A   (As below A),

"above"/"below" referring to the generic height d.  The alcove x(A+) is
keyed by its label x in W_aff, so that As is the label x s and an
element of the module is a dict from labels to coefficients, like an
element of the Hecke algebra.
Canonical elements E_A are the canonical rows of ``hecke.KLComputer``
in a finite window (all alcoves x(A+) with l(x) <= R), ranked by height
with the members kept: alcoves whose lower neighbours all fall outside
the window seed the recursion as pure alcoves, and

    E_{As} = E_A . Hb_s  -  sum_B mu~(B, A) E_B

over the B in the support of E_A with Bs below B, where mu~(B, A) is
the coefficient of v in p_{B,A}.  The packed step builds a row, and the
rows it rests on, only when ``row`` or ``coefficient`` reads it, and
certifies each: monic, lower coefficients in vZ[v], digits within the
codec's bounds.  Terms leaving the window are truncated, and a row's
truncation flag records whether it or a row it was built from lost one.
A window with a gallery seed draws every member's descent when it is
made.  One reader, ``_read``, decides every value that ``periodic_kl``,
the identity gate and ``pkl_table`` report: a coefficient p_{y,w} (of
y(A+) in E_{w(A+)}) is read in the windows of radius R and R + 1, and
reported only when the two agree on it exactly; otherwise the query
raises StabilizationError and the table marks the entry unstabilized.

A second route, ``antispherical_kl``, reads p_{y,w} off the
antispherical module instead (see there); no command reads it yet.

Entries are stored once per translation orbit.  The values are
invariant under translating y and w together by the root lattice
(Lusztig, Adv. Math. 37, 1980), and an orbit is named by integers read
off the label table (``orbit_key``): the finite parts of y and w and the
differences k_alpha(y) - k_alpha(w) of their Shi coordinates at the
simple roots.  A query context keeps the value it read for each orbit
key and radius (``_waff_kl``), so the Ext and Loewy queries of
``repcalc`` read each orbit once, and a repeated read forms no element.
Only a value that has to be read from windows is read at the orbit's
canonical pair, obtained by writing w = t_nu u with u in the finite Weyl
group and translating both labels by -nu (``canonical_pair``).

Two safeguards wrap the raw recursion.  Pairs outside the two-sided
support band (y below w, and w0 y below w0 check(w), the latter forced
by the length-reversing inversion identity) are certified zero without
any window work, by one componentwise comparison of Shi coordinates.
The band is translation invariant, so a read tests it at the pair as
given, after the context's value memo and before any canonical pair is
formed.  And an identity gate evaluates the socle coefficient
p_{w0 x, x} = v^{l(w0)} over the pairs (x, w0 x) of ``socle_pairs``
once per root system, refusing to emit any value where the recursion
does not reproduce it; the gate passes in types A1 and A2, while elsewhere (B2,
G2, A3, ...) the pure-alcove seeding converges to a wrong
self-consistent family and the gate withholds all values.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from operator import le

from .errors import ConsistencyError, DomainError, StabilizationError, WindowError
from .hecke import KLComputer, antispherical_computer
from .laurent import LaurentPoly
from .rootsys import ModularContext, RootSystem, _Record, _Value
from .weylext import (
    ExtWeylElt,
    elt_key,
    elt_to_json,
    finite_group,
    gen_indices,
    in_waff,
    is_coset_minimal,
    length,
    socle_pairs,
    translate,
    w0_elt,
    waff_elements,
)

_ZERO = LaurentPoly.zero()


class PeriodicWindow(KLComputer):
    """Canonical elements E_A for every alcove of length at most R.

    The members are the labels of ``waff_elements(sys, R)``, a prefix of
    the breadth-first order of the system's label table, which the window
    extends to R when it is made; a label is kept exactly when that
    prefix holds it.  Labels are ranked by signed generic height, so the
    descent of a member is its first lower member neighbour.  A crossing
    that leaves the window is dropped with the stay of its direction, and
    recorded.  ``gallery_seed`` draws the descent of every member at
    construction, by increasing height; ``sign=-1`` reverses the crossing
    orientation (heights are negated), which the negative control relies
    on.
    """

    def __init__(
        self, sys: RootSystem, radius: int, gallery_seed: int | None = None, sign: int = 1
    ):
        table = finite_group(sys).table
        members = table.waff_order(radius)
        depth = table.depth

        def inside(x: ExtWeylElt) -> bool:
            d = depth(x)
            return d is not None and d <= radius

        super().__init__(
            sys, "periodic", inside,
            rank=lambda k: sign * sum(k),
            dropped=(LaurentPoly.gen(), LaurentPoly.gen(-1)),
        )
        self.radius = radius
        self._drawn = None
        if gallery_seed is not None:
            rng = random.Random(gallery_seed)
            ranks, kept, elts = self.ranks, self.kept, self.elts
            self._drawn = {}
            order = sorted(
                map(self._reach, members), key=lambda k: (ranks[k], elt_key(sys, elts[k]))
            )
            for c in order:
                nbrs = [self.nbr(c, i) for i in gen_indices(sys)]
                downs = [(i, a) for i, a in enumerate(nbrs) if kept[a] and ranks[a] < ranks[c]]
                if downs:
                    self._drawn[c] = rng.choice(downs)[0]

    @property
    def members(self) -> dict[ExtWeylElt, int]:
        """Each member with its number in the label table."""
        return {self.elts[k]: self._reach(k) for k in self.table.waff_order(self.radius)}

    def descent(self, k: int) -> int | None:
        return super().descent(k) if self._drawn is None else self._drawn.get(k)

    def _top(self, w: ExtWeylElt, y: ExtWeylElt | None = None) -> int:
        """The number of the member w, whose row is read (at the member y):
        WindowError naming the radius that reaches a non-member, and
        DomainError for a row outside W_aff, which no radius reaches."""
        k = self.number(w)
        if y is not None and not (self.kept[k] and self._is_kept(y)):
            ly, lw = length(self.sys, y), length(self.sys, w)
            raise WindowError(
                f"pair {_words(self.sys, y=y, w=w)} of lengths ({ly}, {lw}) is out "
                f"of reach of window radius {self.radius}; radius {max(ly, lw)} reaches it"
            )
        if not self.kept[k]:
            if not in_waff(self.sys, w):
                raise DomainError("periodic basis elements are indexed by W_aff")
            lw = length(self.sys, w)
            raise WindowError(
                f"element {_words(self.sys, w=w)} of length {lw} is outside the "
                f"window of radius {self.radius}; radius {lw} reaches it"
            )
        return k


@lru_cache(maxsize=None)
def _window(sys: RootSystem, radius: int) -> PeriodicWindow:
    return PeriodicWindow(sys, radius)


def orbit_key(sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt) -> tuple[int, ...]:
    """The integers that name the translation orbit of (y, w): the finite
    parts of y and w, then k_{alpha_j}(y) - k_{alpha_j}(w) for each simple
    root alpha_j, read off the label table.

    The key is invariant, since k_alpha(t_nu x) = k_alpha(x) + <nu, alpha^vee>.
    It is exact: the finite part of w fixes the sign corrections of
    ``canonical_pair``, so the differences fix the coordinates of
    t_{-nu} y at the simple roots, which with its finite part determine
    it.  So two pairs share a key exactly when they share a canonical
    pair, and no element is formed to find it.
    """
    g = w.group
    ky, kw = g.table.coords(y), g.table.coords(w)
    return (y.fin, w.fin, *[ky[j] - kw[j] for j in g._simple_pos])


def canonical_pair(
    sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt
) -> tuple[ExtWeylElt, ExtWeylElt]:
    """Translate (y, w) by the root-lattice part of w: w = t_nu u with u
    in the finite Weyl group, giving the orbit representative
    (t_{-nu} y, u).

    nu is read off the Shi coordinates of w that the label table holds:
    k_{alpha_i}(w) is <nu, alpha_i^vee>, less 1 when u^-1(alpha_i) is
    negative.  ``translate`` forms t_{-nu} y from coordinates, so no
    group product is formed.  Both labels must lie in W_aff, which
    ``periodic_kl`` checks and its other callers know.  The read path
    names orbits by ``orbit_key`` and forms the representative only for
    a value it reads from windows; ``pkl_table`` forms it once per
    orbit, to key its entries.
    """
    g = w.group
    k, signs = g.table.coords(w), g.roots[w.fin]
    neg_nu = tuple([-k[j] - (signs[j] < 0) for j in g._simple_pos])
    return translate(neg_nu, y), g.elts[w.fin]


def in_support_band(sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt) -> bool:
    """Necessary condition for p_{y,w} to be nonzero: the componentwise
    test k(check(w)) <= k(y) <= k(w) on Shi coordinates.

    The support condition p_{B,A} = 0 unless B is below A gives
    k(y) <= k(w) (``alcove.generic_leq``).  The length-reversing
    inversion identity exchanges the pair (y, w) with (w0 y, w0 check(w))
    and is an involution because check(w0 check(x)) = w0 x, so also
    w0 y is below w0 check(w).  Since k_alpha(w0 x) = -1 - k_{-w0 alpha}(x)
    and alpha -> -w0 alpha permutes the positive roots, that is
    k(check(w)) <= k(y).  Summing the coordinates, the band lies in the
    height band d(check(w)) <= d(y) <= d(w).  Both labels lie in W_aff
    (or in one coset of it), where the coordinates determine the element.

    The test is invariant under translating y and w together: check(t_nu
    x) = t_nu check(x), and t_nu adds <nu, alpha^vee> to every coordinate
    k_alpha of all three labels.  ``_waff_kl`` relies on this to test a
    pair as given rather than at its canonical pair.

    Every coordinate vector is read from the system's label table: those
    of y and w are stored with their labels, and those of check(w) are
    formed once per column w, the first time y lies below w.
    """
    table = w.group.table
    ky = table.coords(y)
    kw = table.number(w)
    if not all(map(le, ky, table.shi[kw])):
        return False
    return all(map(le, table.check_shi(kw), ky))


def periodic_kl(ctx: ModularContext, y: ExtWeylElt, w: ExtWeylElt, radius: int) -> LaurentPoly:
    """The stabilized coefficient p_{y,w}, read by ``_waff_kl`` once both
    labels are known to lie in W_aff (DomainError otherwise): in the
    windows of radius R and R + 1, and returned only when the two agree;
    raises StabilizationError otherwise and WindowError when the pair is
    out of reach."""
    sys = ctx.system
    if not (in_waff(sys, y) and in_waff(sys, w)):
        raise DomainError("periodic polynomials are indexed by W_aff pairs")
    return _waff_kl(ctx, y, w, radius)


def _waff_kl(ctx: ModularContext, y: ExtWeylElt, w: ExtWeylElt, radius: int) -> LaurentPoly:
    """``periodic_kl`` of a pair whose labels the caller knows lie in
    W_aff, read past the gate once per translation orbit.

    The value is kept in the context's value memo (``ctx._values``) under
    (``orbit_key``, radius), and a later read of any pair in that orbit
    at that radius returns it without forming an element.  A miss runs
    the gate, then tests the support band at the pair as given, which
    the band's translation invariance makes exact; only a pair inside it
    is read from the windows, at its canonical pair.  A read that raises
    keeps nothing, so it raises again."""
    sys = ctx.system
    key = (orbit_key(sys, y, w), radius)
    value = ctx._values.get(key)
    if value is None:
        _validate_conventions(sys)
        value = ctx._values[key] = (
            _coefficient_stabilized(sys, *canonical_pair(sys, y, w), radius)
            if in_support_band(sys, y, w)
            else _ZERO
        )
    return value


def _read(
    sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt, radius: int
) -> tuple[LaurentPoly, LaurentPoly]:
    """p_{y,w} in the windows of radius R and R + 1: zero in both outside
    the support band, with no window work, and WindowError when a label
    is longer than R."""
    if not in_support_band(sys, y, w):
        return _ZERO, _ZERO
    return _window(sys, radius).coefficient(y, w), _window(sys, radius + 1).coefficient(y, w)


def antispherical_kl(sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt) -> LaurentPoly:
    """p_{y,w} as the antispherical coefficient n_{ty,tw}, t = t_{2n rho}.

    Deep in the dominant chamber p_{y,w} = n_{ty,tw} (Lusztig, Adv. Math.
    37, 1980; Soergel, Represent. Theory 1, 1997), where n is the
    antispherical canonical basis (``hecke.antispherical_computer``).  The
    depth n starts at the first one at which ty and tw are both
    coset-minimal and grows until two successive depths agree; the
    computer's length bound raises ResourceError when it runs out.  Each
    depth translates the labels of the last by t_{2 rho} from coordinates
    (``translate``), so no group product is formed.  No command reads
    this route yet.
    """
    if not (in_waff(sys, y) and in_waff(sys, w)):
        raise DomainError("periodic polynomials are indexed by W_aff pairs")
    comp = antispherical_computer(sys)
    two_rho = (2,) * sys.rank
    ty, tw = translate(two_rho, y), translate(two_rho, w)
    while not (is_coset_minimal(sys, ty) and is_coset_minimal(sys, tw)):
        ty, tw = translate(two_rho, ty), translate(two_rho, tw)
    last = None
    while True:
        value = comp.coefficient(ty, tw)
        if value == last:
            return value
        last = value
        ty, tw = translate(two_rho, ty), translate(two_rho, tw)


def _coefficient_stabilized(
    sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt, radius: int
) -> LaurentPoly:
    """p_{y,w} read raw at the pair as given, with no gate and no memo:
    StabilizationError when the two windows disagree on it."""
    first, second = _read(sys, y, w, radius)
    if first != second:
        raise StabilizationError(
            f"coefficient at {_words(sys, y=y, w=w)} did not stabilize "
            f"between radius {radius} and {radius + 1}: {first} vs {second}; "
            f"try radius {radius + 1}"
        )
    return second


def _words(sys: RootSystem, **labels: ExtWeylElt) -> str:
    return ", ".join(f"{k} = {json.dumps(elt_to_json(sys, x))}" for k, x in labels.items())


def _validate_conventions(sys: RootSystem) -> None:
    """Refuse to hand out values for a root system that fails the gate."""
    if not _gate_passes(sys):
        raise ConsistencyError(_DIAGNOSTIC.format(sys=sys))


def _gate_radius(sys: RootSystem) -> int:
    """The radius of the gate's validation window: 2 l(w0) + 2, or the
    length of the longest label of ``socle_pairs`` where that is longer
    (G2, B3, C3, D4), so that the window reaches every pair."""
    longest = max(length(sys, x) for pair in socle_pairs(sys) for x in pair)
    return max(2 * length(sys, w0_elt(sys)) + 2, longest)


@lru_cache(maxsize=None)
def _gate_passes(sys: RootSystem) -> bool:
    """The built-in identity gate, run once per root system.

    The gate checks the diagonal normalization p_{x,x} = 1 and the
    monomial identity p_{w0 x, x} = v^{l(w0)} on every pair (x, w0 x) of
    ``socle_pairs``, in validation windows of radius ``_gate_radius`` and
    one more, which reach every pair.  It fails closed: a value that
    differs, does not stabilize or lies out of the windows' reach fails
    it, and on failure the module refuses to hand out values, reporting
    the conventions in force.
    """
    lw0 = length(sys, w0_elt(sys))
    rad = _gate_radius(sys)
    try:
        for x, w0x in socle_pairs(sys):
            if _coefficient_stabilized(sys, w0x, x, rad) != LaurentPoly.gen(lw0):
                return False
            if _coefficient_stabilized(sys, x, x, rad) != LaurentPoly.one():
                return False
    except (StabilizationError, WindowError):
        return False
    return True


_DIAGNOSTIC = (
    "identity gate failed for {sys}: the window recursion with pure-alcove "
    "seeds does not reproduce the socle coefficient v^l(w0) here.  "
    "Conventions in force: 'up' = crossing toward increasing coroot "
    "pairing; correction coefficient = coefficient of v^1, subtracted for "
    "support elements whose crossing is downward.  Values are withheld "
    "for this root system rather than returned unverified."
)


class PKLEntry(_Value):
    __slots__ = _fields = ("poly", "stabilized")


class PKLTable(_Record):
    """Stabilized periodic coefficients, stored once per translation orbit."""

    __slots__ = _fields = ("system", "p", "radius", "length_bound", "entries")


def pkl_table(ctx: ModularContext, length_bound: int, radius: int) -> PKLTable:
    """All stabilized p_{y,w} with both labels of length at most the bound.

    Translation invariance across each orbit is asserted on the fly: a
    raw (untranslated) extraction that is itself stabilized must agree
    with the canonical entry.  Pairs are grouped by ``orbit_key``, so the
    canonical pair that keys an entry is formed once per orbit.
    """
    sys = ctx.system
    if length_bound > radius:
        raise WindowError(
            f"length bound {length_bound} exceeds the window radius {radius}; "
            f"radius {length_bound} reaches it"
        )
    _validate_conventions(sys)
    elements = waff_elements(sys, length_bound)
    entries: dict[tuple[ExtWeylElt, ExtWeylElt], PKLEntry] = {}
    canonical: dict[tuple[int, ...], tuple[ExtWeylElt, ExtWeylElt]] = {}
    for w in elements:
        for y in elements:
            first, second = _read(sys, y, w, radius)
            found = PKLEntry(second, first == second)
            orbit = orbit_key(sys, y, w)
            key = canonical.get(orbit)
            if key is None:
                key = canonical[orbit] = canonical_pair(sys, y, w)
            cur = entries.get(key)
            if cur is None:
                entries[key] = found
            elif cur.stabilized and found.stabilized and cur.poly != found.poly:
                raise ConsistencyError(
                    f"translation invariance failed at {_words(sys, y=y, w=w)}: it "
                    f"reads {found.poly}, but its orbit, of representative "
                    f"{_words(sys, y=key[0], w=key[1])}, holds {cur.poly}; both are "
                    f"stable between radius {radius} and {radius + 1}"
                )
            elif found.stabilized and not cur.stabilized:
                entries[key] = found
    return PKLTable(sys, ctx.p, radius, length_bound, entries)
