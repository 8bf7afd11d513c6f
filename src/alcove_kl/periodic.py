"""The periodic module over alcoves and its canonical-basis coefficients.

The module is the free Z[v,v^-1]-module on alcoves with generator action

    A . Hb_s = As + v    A   (As above A)
    A . Hb_s = As + v^-1 A   (As below A),

"above"/"below" referring to the generic height d.  The alcove x(A+) is
keyed by its label x in W_aff, so that As is the label x s and the
module shares the sparse vector ``HeckeElt`` with the Hecke algebra.
Canonical elements E_A are built inside a finite window (all alcoves
x(A+) with l(x) <= R) by increasing height: alcoves whose lower
neighbors all fall outside the window seed the recursion as pure
alcoves, and

    E_{As} = E_A . Hb_s  -  sum_B mu~(B, A) E_B

over previously built B in the support of E_A with Bs below B, where
mu~(B, A) is the coefficient of v in p_{B,A}; this is the canonical
step of ``hecke``, shared with the ordinary and spherical bases.  Terms
leaving the window are truncated and the truncation is recorded.  Each
window numbers its alcoves in the ``hecke.LabelTable`` of the canonical
rows, forms each neighbour As once, reads whether the crossing goes up
off the heights of the two numbers, and keys its rows by number.  A
coefficient p_{y,w} (the coefficient of y(A+) in E_{w(A+)}) is only
reported when the windows of radius R and R + 1 agree on it exactly;
everything else raises StabilizationError.

Entries are stored once per translation orbit, keyed by the canonical
pair obtained by writing w = t_nu u with u in the finite Weyl group and
translating both labels by -nu.

Two safeguards wrap the raw recursion.  Pairs outside the two-sided
support band (y below w, and w0 y below w0 check(w), the latter forced
by the length-reversing inversion identity) are certified zero without
any window work, by one componentwise comparison of Shi coordinates;
the test is memoized per pair, because the Ext and Loewy queries of
``repcalc`` ask for the same pairs again and again.  And an identity
gate evaluates the socle coefficient p_{w0 x, w0 check(x)} = v^{l(w0)}
once per root system, refusing to emit any value where the recursion
does not reproduce it; the gate passes in types A1 and A2, while
elsewhere (B2, G2, A3, ...) the pure-alcove seeding converges to a wrong
self-consistent family and the gate withholds all values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import le

from .alcove import generic_height
from .errors import ConsistencyError, DomainError, StabilizationError, WindowError
from .hecke import HeckeElt, LabelTable, act_hb_s, canonical_step, crossing_rule
from .laurent import LaurentPoly
from .rootsys import ModularContext, RootSystem
from .weylext import (
    ExtWeylElt,
    check_for_system,
    elt_key,
    elt_to_json,
    finite_elt,
    gen_indices,
    in_waff,
    length,
    restricted_element_for,
    shi_coords,
    simple_reflection,
    translation_elt,
    w0_elt,
    waff_elements,
    weyl_group,
)

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()
_V = LaurentPoly.gen()
_VINV = LaurentPoly.gen(-1)


@dataclass(frozen=True)
class PeriodicElt(HeckeElt):
    """A finitely supported element of the periodic module, kept inside a
    window of the given radius; x(A+) is keyed by its label x."""

    support: tuple[tuple[ExtWeylElt, LaurentPoly], ...]
    radius: int
    truncated: bool = False


def periodic_act_gen(sys: RootSystem, e: PeriodicElt, i: int) -> PeriodicElt:
    """Right action of Hb_s, truncated to the window of e."""
    if i not in gen_indices(sys):
        raise DomainError(f"no Coxeter generator with index {i}")
    rule = crossing_rule(simple_reflection(sys, i), partial(generic_height, sys))
    acc, truncated = act_hb_s(e.support, rule, lambda x: length(sys, x) <= e.radius)
    return PeriodicElt.from_dict(
        sys, acc, radius=e.radius, truncated=e.truncated or truncated
    )


class PeriodicWindow:
    """Canonical elements E_A for every alcove of length at most R.

    ``gallery_seed`` randomizes the choice of descent used at each build
    step; the default picks the first eligible generator, which fixes a
    deterministic gallery.  ``sign=-1`` reverses the crossing orientation
    (heights are negated), which the negative control relies on.

    The window numbers its alcove labels in a ``LabelTable``: the members
    first, as 0..n-1, so that a number lies inside exactly when it is
    below n, then the outside neighbours met.  ``members`` maps each
    member to its number; ``rows`` and ``flags`` (whether a row was
    truncated) are keyed by number.
    """

    def __init__(
        self,
        sys: RootSystem,
        radius: int,
        gallery_seed: int | None = None,
        sign: int = 1,
    ):
        self.sys = sys
        self.radius = radius
        rng = random.Random(gallery_seed) if gallery_seed is not None else None

        elements = waff_elements(sys, radius)
        table = LabelTable(sys)
        self.members = {x: table.number(x) for x in elements}
        self._elts = table.elts
        n = len(elements)
        gens = gen_indices(sys)
        cross = [[table.nbr(k, i) for i in gens] for k in range(n)]
        h = [sign * generic_height(sys, x) for x in table.elts]
        # acts[i][k] is the action rule of s_i at member k: the number of
        # its neighbour and the stay v when the crossing goes up, else v^-1
        acts = [
            [(ks[i], _V if h[ks[i]] > h[k] else _VINV) for k, ks in enumerate(cross)]
            for i in gens
        ]
        inside = range(n).__contains__

        rows: dict[int, dict[int, LaurentPoly]] = {}
        flags: dict[int, bool] = {}
        order = sorted(range(n), key=lambda k: (h[k], elt_key(sys, elements[k])))
        for c in order:
            downs = [(i, a) for i, a in enumerate(cross[c]) if a < n and h[a] < h[c]]
            if not downs:
                rows[c] = {c: _ONE}
                flags[c] = False
                continue
            i, a = rng.choice(downs) if rng is not None else downs[0]
            row, truncated, subtracted = canonical_step(
                rows[a], acts[i].__getitem__, rows.__getitem__, inside
            )
            if row.get(c) != _ONE:
                raise ConsistencyError(
                    "canonical element is not monic at its own alcove; "
                    "up-direction or correction-sign convention is wrong"
                )
            rows[c] = row
            flags[c] = truncated or flags[a] or any(flags[b] for b in subtracted)
        self.rows = rows
        self.flags = flags

    def element(self, w: ExtWeylElt) -> PeriodicElt:
        k = self.members.get(w)
        if k is None:
            lw = length(self.sys, w)
            raise WindowError(
                f"element {_words(self.sys, w=w)} of length {lw} is outside the "
                f"window of radius {self.radius}; radius {lw} reaches it"
            )
        elts = self._elts
        return PeriodicElt.from_dict(
            self.sys,
            {elts[y]: p for y, p in self.rows[k].items()},
            radius=self.radius,
            truncated=self.flags[k],
        )

    def coefficient(self, y: ExtWeylElt, w: ExtWeylElt) -> LaurentPoly:
        kw, ky = self.members.get(w), self.members.get(y)
        if kw is None or ky is None:
            raise _out_of_reach(self.sys, y, w, f"window radius {self.radius}")
        return self.rows[kw].get(ky, _ZERO)


@lru_cache(maxsize=None)
def _window(sys: RootSystem, radius: int) -> PeriodicWindow:
    return PeriodicWindow(sys, radius)


def canonical_pair(
    sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt
) -> tuple[ExtWeylElt, ExtWeylElt]:
    """Translate (y, w) by the root-lattice part of w: w = t_nu u with u
    in the finite Weyl group, giving the orbit representative
    (t_{-nu} y, u)."""
    for x in (y, w):
        if not in_waff(sys, x):
            raise DomainError("periodic polynomials are indexed by W_aff pairs")
    nu = w.finite_apply(w.translation)
    return translation_elt(sys, -nu) * y, finite_elt(sys, w.fin)


@lru_cache(maxsize=None)
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
    """
    ky = shi_coords(sys, y.fin, y.translation)
    if not all(map(le, ky, shi_coords(sys, w.fin, w.translation))):
        return False
    # check(w) costs two products, so it is formed only for y below w
    wv = check_for_system(sys, w)
    return all(map(le, shi_coords(sys, wv.fin, wv.translation), ky))


def periodic_kl(
    ctx: ModularContext | RootSystem,
    y: ExtWeylElt,
    w: ExtWeylElt,
    radius: int,
    *,
    normalize: bool = True,
) -> LaurentPoly:
    """The stabilized coefficient p_{y,w}.

    Computed in the windows of radius R and R + 1 and returned only when
    the two agree; raises StabilizationError otherwise and WindowError
    when the pair is out of reach.  The value is extracted at the given
    pair when possible and at its translation-canonical representative
    otherwise (the two agree by translation equivariance, which the test
    suite checks separately).
    """
    sys = ctx.system if isinstance(ctx, ModularContext) else ctx
    if normalize:
        y, w = canonical_pair(sys, y, w)
    elif not (in_waff(sys, y) and in_waff(sys, w)):
        raise DomainError("periodic polynomials are indexed by W_aff pairs")
    _validate_conventions(sys)
    return _coefficient_stabilized(sys, y, w, radius)


def _coefficient_stabilized(
    sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt, radius: int
) -> LaurentPoly:
    if not in_support_band(sys, y, w):
        return LaurentPoly.zero()
    if length(sys, y) > radius or length(sys, w) > radius:
        raise _out_of_reach(sys, y, w, f"window radius {radius}")
    first = _window(sys, radius).coefficient(y, w)
    second = _window(sys, radius + 1).coefficient(y, w)
    if first != second:
        raise StabilizationError(
            f"coefficient at {_words(sys, y=y, w=w)} did not stabilize "
            f"between radius {radius} and {radius + 1}: {first} vs {second}; "
            f"try radius {radius + 1}"
        )
    return second


def _words(sys: RootSystem, **labels: ExtWeylElt) -> str:
    return ", ".join(f"{k} = {json.dumps(elt_to_json(sys, x))}" for k, x in labels.items())


def _out_of_reach(
    sys: RootSystem, y: ExtWeylElt, w: ExtWeylElt, what: str, knob: str = "radius"
) -> WindowError:
    """The WindowError for a pair beyond ``what``, naming the smallest
    ``knob`` that reaches it."""
    ly, lw = length(sys, y), length(sys, w)
    return WindowError(
        f"pair {_words(sys, y=y, w=w)} of lengths ({ly}, {lw}) is out of "
        f"reach of {what}; {knob} {max(ly, lw)} reaches it"
    )


def _validate_conventions(sys: RootSystem) -> None:
    """Refuse to hand out values for a root system that fails the gate."""
    if not _gate_passes(sys):
        raise ConsistencyError(_DIAGNOSTIC.format(sys=sys))


@lru_cache(maxsize=None)
def _gate_passes(sys: RootSystem) -> bool:
    """The built-in identity gate, run once per root system.

    The gate checks the diagonal normalization and the monomial identity
    p_{w0 x, w0 check(x)} = v^{l(w0)} on every restricted element of the
    Coxeter subgroup whose pair fits in a validation window of radius
    2 l(w0) + 2; on failure the module refuses to hand out values,
    reporting the conventions in force.
    """
    w0 = w0_elt(sys)
    lw0 = length(sys, w0)
    rad = 2 * lw0 + 2
    try:
        for m in weyl_group(sys):
            x = restricted_element_for(sys, m)
            if not in_waff(sys, x):
                continue
            lhs, rhs = w0 * x, w0 * check_for_system(sys, x)
            if max(length(sys, lhs), length(sys, rhs)) > rad:
                continue
            if _coefficient_stabilized(sys, lhs, rhs, rad) != LaurentPoly.gen(lw0):
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


@dataclass(frozen=True)
class PKLEntry:
    poly: LaurentPoly
    stabilized: bool


@dataclass
class PKLTable:
    """Stabilized periodic coefficients, stored once per translation orbit."""

    system: RootSystem
    p: int
    radius: int
    length_bound: int
    entries: dict[tuple[ExtWeylElt, ExtWeylElt], PKLEntry]

    def poly(self, y: ExtWeylElt, w: ExtWeylElt) -> LaurentPoly:
        key = canonical_pair(self.system, y, w)
        entry = self.entries.get(key)
        if entry is None:
            if not in_support_band(self.system, *key):
                return LaurentPoly.zero()
            table = f"the table of length bound {self.length_bound}"
            raise _out_of_reach(self.system, y, w, table, "length bound and radius")
        if not entry.stabilized:
            r = self.radius
            raise StabilizationError(
                f"entry at {_words(self.system, y=y, w=w)} did not stabilize "
                f"between radius {r} and {r + 1}; try radius {r + 1}"
            )
        return entry.poly

    def to_json(self) -> dict:
        sys = self.system
        items = sorted(
            self.entries.items(),
            key=lambda kv: (elt_key(sys, kv[0][1]), elt_key(sys, kv[0][0])),
        )
        return {
            "type": sys.cartan_type,
            "rank": sys.rank,
            "p": self.p,
            "R": self.radius,
            "entries": [
                {
                    "y": elt_to_json(sys, y),
                    "w": elt_to_json(sys, w),
                    "poly": e.poly.to_json(),
                    "stabilized": e.stabilized,
                }
                for (y, w), e in items
            ],
        }


def pkl_table(ctx: ModularContext, length_bound: int, radius: int) -> PKLTable:
    """All stabilized p_{y,w} with both labels of length at most the bound.

    Translation invariance across each orbit is asserted on the fly: a
    raw (untranslated) extraction that is itself stabilized must agree
    with the canonical entry.
    """
    sys = ctx.system
    if length_bound > radius:
        raise WindowError(
            f"length bound {length_bound} exceeds the window radius {radius}; "
            f"radius {length_bound} reaches it"
        )
    _validate_conventions(sys)
    win = _window(sys, radius)
    win_next = _window(sys, radius + 1)
    elements = waff_elements(sys, length_bound)
    entries: dict[tuple[ExtWeylElt, ExtWeylElt], PKLEntry] = {}
    for w in elements:
        for y in elements:
            if not in_support_band(sys, y, w):
                found = PKLEntry(LaurentPoly.zero(), True)
            else:
                first = win.coefficient(y, w)
                second = win_next.coefficient(y, w)
                found = PKLEntry(second, first == second)
            key = canonical_pair(sys, y, w)
            cur = entries.get(key)
            if cur is None:
                entries[key] = found
            elif cur.stabilized and found.stabilized and cur.poly != found.poly:
                raise ConsistencyError(
                    "translation invariance failed between two members of "
                    "the same orbit"
                )
            elif found.stabilized and not cur.stabilized:
                entries[key] = found
    return PKLTable(sys, ctx.p, radius, length_bound, entries)
