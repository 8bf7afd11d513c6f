"""Hecke algebra of the affine Weyl group and its canonical bases.

Normalization: the standard basis (H_w) satisfies

    H_s^2 = H_e + (v^-1 - v) H_s,      Hb_s = H_s + v,

so the canonical basis element Hb_w = sum_y h_{y,w} H_y has h_{y,w} in
v Z[v] off the diagonal.  Two independent computations of h_{y,w} are
provided: the usual recursion on a reduced word with mu-corrections, and
direct triangular solving of the bar-self-duality equations.

The spherical module is the induction of the one-dimensional module of
the finite Hecke algebra where every finite generator acts by v^-1; its
natural basis is indexed by the elements maximal in their W-coset, with
generator action

    M_x Hb_s = M_{xs} + v   M_x   (xs maximal, xs > x)
    M_x Hb_s = M_{xs} + v^-1 M_x  (xs maximal, xs < x)
    M_x Hb_s = (v + v^-1) M_x     (xs not maximal).

``KLComputer`` builds the canonical rows of the Hecke algebra and the
spherical module top-down along descents, with each coefficient packed
into one integer by ``laurent.PackedCodec`` (v -> 2^64, one signed digit
per power of v).  In its step the stays v, v^-1 and v + v^-1 are
shifts, mu is the digit of v, and a mu-correction is one integer
multiply-add per entry.  Exactness is certified, not assumed: every row
it stores has all digits in [-2^32, 2^32), which one biased mask-AND
per entry checks, and the |mu| of the rows one step subtracts sum to
less than 2^31 - 3, so the digits of a new row are its coefficients.  A
row that fails either bound raises ResourceError; rows become
``LaurentPoly`` values only in ``KLComputer.row``.  The generic Hb_s
action (``act_hb_s``) and canonical step (``canonical_step``) on
``LaurentPoly`` rows serve only the periodic module in ``periodic``,
bottom-up by height inside a window, and ``HeckeElt`` arithmetic.

``KLComputer`` and the periodic windows number their labels in a
``LabelTable`` (F. du Cloux's encoding, Experiment. Math. 2002) and key
their rows by number.  The table keeps, per number, the element and the
numbers of its right neighbours x s_i, each product formed once.
``KLComputer`` numbers labels as the recursion meets them and adds, per
number, the length and one kept flag (every element in the Hecke
algebra, the coset-maximal ones in the spherical module).  Both actions
above are one rule read off the table: x . Hb_s = xs + v^{+-1} x (v when
xs is longer) when xs is kept and (v + v^-1) x when it is not.  The
descent of x is the first generator s with xs shorter and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Mapping

from .errors import ConsistencyError, DomainError, ResourceError
from .laurent import LaurentPoly, PackedCodec
from .rootsys import RootSystem
from .weylext import (
    ExtWeylElt,
    elt_key,
    gen_indices,
    identity_elt,
    in_waff,
    length,
    reduced_word,
    right_descents,
    simple_reflection,
    w0_elt,
)

_ZERO = LaurentPoly.zero()
_V = LaurentPoly.gen()
_VINV = LaurentPoly.gen(-1)
_ONE = LaurentPoly.one()
_V_PLUS_VINV = _V + _VINV

@dataclass(frozen=True)
class HeckeElt:
    """A finitely supported Z[v,v^-1]-combination of basis vectors.

    The same sparse vector, keyed by W_aff elements, serves the Hecke
    algebra, the spherical module (``SphericalElt``) and the periodic
    module, whose basis vector x(A+) is keyed by its label x.
    """

    support: tuple[tuple[ExtWeylElt, LaurentPoly], ...]

    @classmethod
    def from_dict(cls, sys: RootSystem, d: Mapping, *fields, **named):
        items = [(x, p) for x, p in d.items() if p]
        items.sort(key=lambda t: elt_key(sys, t[0]))
        return cls(tuple(items), *fields, **named)

    def as_dict(self) -> dict:
        return dict(self.support)

    def coeff(self, x) -> LaurentPoly:
        for y, p in self.support:
            if y == x:
                return p
        return LaurentPoly.zero()


SphericalElt = HeckeElt


def unit(sys: RootSystem) -> HeckeElt:
    return HeckeElt(((identity_elt(sys), _ONE),))


def std_elt(sys: RootSystem, x: ExtWeylElt) -> HeckeElt:
    if not in_waff(sys, x):
        raise DomainError("Hecke basis elements are indexed by W_aff")
    return HeckeElt(((x, _ONE),))


def mul_gen(sys: RootSystem, h: HeckeElt, i: int) -> HeckeElt:
    """Right multiplication by the standard generator H_s."""
    s = simple_reflection(sys, i)
    acc: dict[ExtWeylElt, LaurentPoly] = {}
    for x, p in h.support:
        xs = x * s
        acc[xs] = acc.get(xs, LaurentPoly.zero()) + p
        if length(sys, xs) < length(sys, x):
            acc[x] = acc.get(x, LaurentPoly.zero()) + (_VINV - _V) * p
    return HeckeElt.from_dict(sys, acc)


# -- the Hb_s action and the canonical step -------------------------------------
#
# An action rule maps a basis label x to (xs, stay): the label of the
# crossed term (None when there is none) and the coefficient with which x
# stays, so that  x . Hb_s = xs + stay x.  The crossing is upward exactly
# when stay = v.


def crossing_rule(s: ExtWeylElt, rank):
    """The rule x . Hb_s = xs + v^{+-1} x, with v exactly when rank(xs) >
    rank(x) (rank is the length in the Hecke algebra, the generic height
    of x(A+) in the periodic module)."""

    def act(x):
        xs = x * s
        return xs, (_V if rank(xs) > rank(x) else _VINV)

    return act


def act_hb_s(items, act, inside=None) -> tuple[dict, bool]:
    """Right action of Hb_s on the (label, coefficient) pairs ``items``.

    Crossed terms for which ``inside`` is false are dropped; the flag
    reports whether any was.
    """
    acc: dict = {}
    truncated = False
    for x, p in items:
        xs, stay = act(x)
        if xs is not None:
            if inside is None or inside(xs):
                q = acc.get(xs)
                acc[xs] = p if q is None else q + p
            else:
                truncated = True
        q = acc.get(x)
        if len(stay.terms) == 1:  # a monomial stay: one shifted merge
            ((e, c),) = stay.terms
            acc[x] = (_ZERO if q is None else q).add_scaled(p, c, e)
        else:
            acc[x] = stay * p if q is None else q + stay * p
    return acc, truncated


def canonical_step(base: Mapping, act, row_of, inside=None) -> tuple[dict, bool, list]:
    """E_{us} = E_u . Hb_s - sum_B mu(B) E_B from the row ``base`` of E_u.

    mu(B) is the coefficient of v in base[B] and E_B = row_of(B).  The
    sum runs over the support elements B whose stay is not v: those whose
    crossing goes down (stay v^-1) and, in the spherical module, those
    whose Bs is not kept (stay v + v^-1), which must be subtracted too.
    Returns the new row, whether the action truncated, and the B
    subtracted.  (The diagonal entry of a monic row has no v-term.)
    """
    acc, truncated = act_hb_s(base.items(), act, inside)
    subtracted = []
    for b, p in base.items():
        mu = p.coeff(1)
        if mu and act(b)[1] != _V:
            subtracted.append(b)
            for z, q in row_of(b).items():
                acc[z] = acc.get(z, _ZERO).add_scaled(q, -mu)
    return {z: p for z, p in acc.items() if p}, truncated, subtracted


def mul_kl_gen(sys: RootSystem, h: HeckeElt, i: int) -> HeckeElt:
    """Right multiplication by Hb_s = H_s + v."""
    rule = crossing_rule(simple_reflection(sys, i), partial(length, sys))
    return HeckeElt.from_dict(sys, act_hb_s(h.support, rule)[0])


# -- canonical rows (the top-down mu-recursion) ----------------------------------


class LabelTable:
    """Group elements numbered on first sight (see the module docstring).

    ``elts[k]`` is the element numbered k and ``nbrs[k][i]`` the number
    of elts[k] s_i once formed, so each product is formed once.
    Subclasses keep further per-number columns by extending ``_add``.
    """

    def __init__(self, sys: RootSystem):
        self.sys = sys
        self._gens = [simple_reflection(sys, i) for i in gen_indices(sys)]
        self._number: dict[ExtWeylElt, int] = {}
        self.elts: list[ExtWeylElt] = []
        self.nbrs: list[list[int | None]] = []

    def number(self, x: ExtWeylElt) -> int:
        """The number of x in the label table, assigned on first sight."""
        k = self._number.get(x)
        if k is None:
            k = self._number[x] = len(self.elts)
            self.elts.append(x)
            self.nbrs.append([None] * len(self._gens))
            self._add(x)
        return k

    def _add(self, x: ExtWeylElt) -> None:
        """Fill the per-number columns of the newly numbered x."""

    def nbr(self, k: int, i: int) -> int:
        """The number of x s_i for x the element numbered k."""
        n = self.nbrs[k][i]
        if n is None:
            n = self.nbrs[k][i] = self.number(self.elts[k] * self._gens[i])
        return n


class KLComputer(LabelTable):
    """Memoized canonical rows of the Hecke algebra or its spherical module.

    The label table adds the columns ``lengths`` and ``kept``; ``kept(x)``
    sets the kept flag.  A label with no descent seeds the row {k: 1};
    any other row is the packed canonical step applied to the row of its
    descent neighbour.  Rows map numbers to ``codec`` integers and are
    certified as they are made (see the module docstring).
    """

    LENGTH_BOUND = 64
    """Longest element whose canonical row is computed; longer ones raise
    ResourceError.  It also bounds the degree of every row coefficient."""

    def __init__(self, sys: RootSystem, name: str, kept):
        super().__init__(sys)
        self.name = name
        self._is_kept = kept
        self.lengths: list[int] = []
        self.kept: list[bool] = []
        self.codec = PackedCodec(self.LENGTH_BOUND)
        self._rows: dict[int, dict[int, int]] = {}

    def _add(self, x: ExtWeylElt) -> None:
        self.lengths.append(length(self.sys, x))
        self.kept.append(self._is_kept(x))

    def act(self, i: int, k: int) -> tuple[int | None, LaurentPoly]:
        ks = self.nbr(k, i)
        if not self.kept[ks]:
            return None, _V_PLUS_VINV
        return ks, (_V if self.lengths[ks] > self.lengths[k] else _VINV)

    def descent(self, k: int) -> int | None:
        lk = self.lengths[k]
        for i in range(len(self._gens)):
            ks = self.nbr(k, i)
            if self.lengths[ks] < lk and self.kept[ks]:
                return i
        return None

    def row(self, w: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
        """The map y -> coefficient of y in the canonical element of w."""
        sys = self.sys
        if not in_waff(sys, w):
            raise DomainError(f"{self.name} basis elements are indexed by W_aff")
        if length(sys, w) > self.LENGTH_BOUND:
            raise ResourceError(
                f"length {length(sys, w)} exceeds the configured bound "
                f"{self.LENGTH_BOUND}"
            )
        unpack = self.codec.unpack
        return {self.elts[y]: unpack(p) for y, p in self._row(self.number(w)).items()}

    def _row(self, k: int) -> dict[int, int]:
        row = self._rows.get(k)
        if row is not None:
            return row
        i = self.descent(k)
        if i is None:
            row = {k: self.codec.one}
        else:
            row = self._step(self._row(self.nbr(k, i)), i)
            self._check(k, row)
        self._rows[k] = row
        return row

    def _step(self, base: dict[int, int], i: int) -> dict[int, int]:
        """``canonical_step`` on packed rows: E_{us} = E_u . Hb_s - sum_B
        mu(B) E_B, for the certified row ``base`` of E_u.

        Every base value lies in Z[v], so the stay v^-1 is an exact right
        shift.  A new coefficient sums certified values with multipliers
        of total absolute value at most 3 + sum |mu(B)|: one crossed term,
        a stay of at most two terms, and mu(B) times a coefficient of each
        E_B.  The step refuses the row unless that total is below
        codec.sum_bound, which keeps its digits equal to its coefficients.
        """
        B = PackedCodec.B
        act, mu_of = self.act, self.codec.mu
        acc: dict[int, int] = {}
        subtract = []
        for x, p in base.items():
            xs, stay = act(i, x)
            if xs is not None:
                q = acc.get(xs)
                acc[xs] = p if q is None else q + p
            if stay is _V:
                p <<= B
            else:
                mu = mu_of(p)
                if mu:
                    subtract.append((x, mu))
                p = p >> B if stay is _VINV else (p << B) + (p >> B)
            q = acc.get(x)
            acc[x] = p if q is None else q + p
        if 3 + sum(abs(mu) for _, mu in subtract) >= self.codec.sum_bound:
            raise ResourceError(
                f"{self.name} basis row needs more mu-corrections than the packed rows certify"
            )
        for b, mu in subtract:
            for z, q in self._row(b).items():
                acc[z] = acc.get(z, 0) - mu * q
        return {z: p for z, p in acc.items() if p}

    def _check(self, k: int, row: dict[int, int]) -> None:
        """Certify the new row of k, then check it is monic with every
        lower coefficient in vZ[v]."""
        codec = self.codec
        for p in row.values():
            if not codec.certified(p):
                raise ResourceError(
                    f"{self.name} basis row has a coefficient beyond the certified "
                    f"bound 2^{codec.BOUND_BITS} of the packed rows"
                )
        if row.get(k) != codec.one:
            raise ConsistencyError(f"{self.name} basis row is not monic")
        for y, p in row.items():
            if y != k and not codec.in_positive_v(p):
                raise ConsistencyError(
                    f"{self.name} coefficient {codec.unpack(p)} at a lower term is not in vZ[v]"
                )


@lru_cache(maxsize=None)
def kl_computer(sys: RootSystem) -> KLComputer:
    return KLComputer(sys, "canonical", lambda x: True)


def kl_basis(sys: RootSystem, w: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
    """The map y -> h_{y,w}."""
    return kl_computer(sys).row(w)


# -- the bar involution and the self-duality oracle -----------------------------


class BarComputer:
    """Expansion of bar(H_y) in the standard basis, built along reduced words."""

    def __init__(self, sys: RootSystem):
        self.sys = sys
        self._bars: dict[ExtWeylElt, dict[ExtWeylElt, LaurentPoly]] = {
            identity_elt(sys): {identity_elt(sys): _ONE}
        }

    def bar_std(self, y: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
        cached = self._bars.get(y)
        if cached is not None:
            return cached
        sys = self.sys
        i = min(right_descents(sys, y))
        s = simple_reflection(sys, i)
        prev = self.bar_std(y * s)
        # bar(H_{y's}) = bar(H_{y'}) (H_s + (v - v^-1)); in the descending
        # case the stay terms of H_s and of (v - v^-1) cancel.
        acc: dict[ExtWeylElt, LaurentPoly] = {}
        for z, p in prev.items():
            zs = z * s
            acc[zs] = acc.get(zs, LaurentPoly.zero()) + p
            if length(sys, zs) > length(sys, z):
                acc[z] = acc.get(z, LaurentPoly.zero()) + (_V - _VINV) * p
        out = {z: p for z, p in acc.items() if p}
        self._bars[y] = out
        return out


@lru_cache(maxsize=None)
def bar_computer(sys: RootSystem) -> BarComputer:
    return BarComputer(sys)


def bruhat_interval_below(sys: RootSystem, w: ExtWeylElt) -> list[ExtWeylElt]:
    """All y <= w, generated from subwords of one reduced word."""
    word = reduced_word(sys, w)
    out = {identity_elt(sys)}
    for i in word:
        s = simple_reflection(sys, i)
        out |= {x * s for x in out}
    return sorted(out, key=lambda x: elt_key(sys, x))


def kl_basis_by_duality(sys: RootSystem, w: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
    """Independent computation of h_{.,w}: solve bar-invariance triangularly.

    Writing Hb_w = sum h_y H_y and bar(H_y) = sum_z r_{z,y} H_z, the
    self-duality forces h_z - bar(h_z) = sum_{y > z} bar(h_y) r_{z,y},
    which determines h_z in v Z[v] by taking the positive part.
    """
    bars = bar_computer(sys)
    below = bruhat_interval_below(sys, w)
    order = sorted(below, key=lambda x: -length(sys, x))
    h: dict[ExtWeylElt, LaurentPoly] = {w: _ONE}
    for z in order:
        if z == w:
            continue
        g = LaurentPoly.zero()
        for y, hy in h.items():
            r = bars.bar_std(y).get(z)
            if r is not None:
                g = g + hy.bar() * r
        # g must be antisymmetric under bar with zero constant term
        if g.coeff(0) != 0 or (g + g.bar()):
            raise ConsistencyError("self-duality system is inconsistent")
        h[z] = LaurentPoly(tuple((e, c) for e, c in g.terms if e > 0))
    return {y: p for y, p in h.items() if p}


# -- the spherical module ---------------------------------------------------------


def is_coset_maximal(sys: RootSystem, x: ExtWeylElt) -> bool:
    """Maximal in Wx: every finite simple reflection is a left descent."""
    lx = length(sys, x)
    for i in range(1, sys.rank + 1):
        if length(sys, simple_reflection(sys, i) * x) > lx:
            return False
    return True


def coset_maximal_rep(sys: RootSystem, x: ExtWeylElt) -> ExtWeylElt:
    """The maximal element of Wx."""
    moved = True
    while moved:
        moved = False
        for i in range(1, sys.rank + 1):
            y = simple_reflection(sys, i) * x
            if length(sys, y) > length(sys, x):
                x = y
                moved = True
                break
    return x


def spherical_project(sys: RootSystem, h: HeckeElt) -> SphericalElt:
    """Quotient map H -> spherical module: H_z maps to
    v^{l(max) - l(z)} M_{max(Wz)}."""
    acc: dict[ExtWeylElt, LaurentPoly] = {}
    for z, p in h.support:
        m = coset_maximal_rep(sys, z)
        scale = LaurentPoly.gen(length(sys, m) - length(sys, z))
        acc[m] = acc.get(m, LaurentPoly.zero()) + scale * p
    return SphericalElt.from_dict(sys, acc)


def spherical_act_kl_gen(sys: RootSystem, e: SphericalElt, i: int) -> SphericalElt:
    """Right action of Hb_s on the spherical module, by the action rule of
    the spherical label table."""
    if i not in gen_indices(sys):
        raise DomainError(f"no Coxeter generator with index {i}")
    comp = spherical_computer(sys)
    acc = act_hb_s(((comp.number(x), p) for x, p in e.support), partial(comp.act, i))[0]
    return SphericalElt.from_dict(sys, {comp.elts[k]: p for k, p in acc.items()})


def ideal_basis_elt(sys: RootSystem, y: ExtWeylElt) -> HeckeElt:
    """Hb_{w0} H_{y0} for y coset-maximal with minimal representative y0.

    y0 = w0 y, since y = w0 y0 with l(y) = l(w0) + l(y0).

    These span the right ideal Hb_{w0} H, which realizes the spherical
    module inside the Hecke algebra; the basis vector has unitriangular
    leading term H_y.
    """
    if not is_coset_maximal(sys, y):
        raise DomainError("ideal basis vectors are indexed by coset-maximal elements")
    w0 = w0_elt(sys)
    out = HeckeElt.from_dict(sys, kl_computer(sys).row(w0))
    for i in reduced_word(sys, w0 * y):
        out = mul_gen(sys, out, i)
    return out


def spherical_from_kl_row(sys: RootSystem, w: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
    """Expand Hb_w (w coset-maximal) in the ideal basis Hb_{w0} H_{y0}.

    The expansion coefficients provide an independent route to the
    spherical canonical coefficients m_{y,w}; a nonzero remainder means
    the two computations disagree.
    """
    if not is_coset_maximal(sys, w):
        raise DomainError("expansion applies to coset-maximal elements")
    rest = kl_computer(sys).row(w)
    out: dict[ExtWeylElt, LaurentPoly] = {}
    while rest:
        y = max(rest, key=lambda x: (length(sys, x), elt_key(sys, x)))
        if not is_coset_maximal(sys, y):
            raise ConsistencyError(
                "leading term of an ideal element is not coset-maximal"
            )
        c = rest[y]
        out[y] = c
        for z, p in ideal_basis_elt(sys, y).support:
            q = rest.get(z, LaurentPoly.zero()) - c * p
            if q:
                rest[z] = q
            else:
                rest.pop(z, None)
    return out


@lru_cache(maxsize=None)
def spherical_computer(sys: RootSystem) -> KLComputer:
    return KLComputer(sys, "spherical", partial(is_coset_maximal, sys))


def spherical_kl(sys: RootSystem, w: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
    """The map y -> m_{y,w} for w maximal in its coset."""
    if not is_coset_maximal(sys, w):
        raise DomainError("spherical basis elements are indexed by coset-maximal elements")
    return spherical_computer(sys).row(w)
