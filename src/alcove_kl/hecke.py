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

One recursion, ``KLComputer``, builds the canonical rows of each module
in the table below, top-down along descents and only when a row is
read.  Each coefficient is packed into one integer by
``laurent.PackedCodec`` (v -> 2^64, one signed digit per power of v):
the stays v, v^-1 and v + v^-1 are shifts, a stay of 0 adds nothing, mu
is the digit of v, and a mu-correction is one integer multiply-add per
entry.  Every stored row is certified: its digits lie in [-2^32, 2^32),
which one biased mask-AND per entry checks, and the |mu| one step
subtracts sum to less than 2^31 - 3, so its digits are its coefficients
(ResourceError otherwise); it is monic with every lower coefficient in
vZ[v] (ConsistencyError otherwise).  Rows become ``LaurentPoly`` values
only when returned.  ``canonical_step``, the same step on ``LaurentPoly``
rows, is the reference the tests hold the packed step to.

An element of the Hecke algebra, of the spherical module or of the
periodic module is a dict from basis labels in W_aff to nonzero
``LaurentPoly`` coefficients, the shape every canonical row already has.
Every right action of a generator on such an element is one routine,
``act_hb_s(items, act)``, reading an action rule (see ``crossing_rule``)
and returning the element with its zero coefficients dropped; a term
the rule drops is not added.  In the Hecke algebra the rule is ranked by
length, and the three generators differ only in how x stays when xs is
longer (up) or shorter (down):

    generator                      up          down
    H_s                            0           v^-1 - v
    Hb_s = H_s + v                 v           v^-1
    bar(H_s) = H_s + v - v^-1      v - v^-1    0

``mul_gen``, ``mul_kl_gen`` and ``mul_bar_gen`` act by these stays, and
``bar_std`` expands bar(H_y) by the last along a reduced word.

``KLComputer`` numbers its labels as it meets them (F. du Cloux's
encoding, Experiment. Math. 2002) and keys its rows by number; per
number it keeps the element, the numbers of its neighbours x s_i (each
product formed once), a rank and a kept flag.  It reads its module as
data, given when it is made:

    module            kept            rank            dropped stays     bound
    Hecke algebra     every element   length          (none)            64
    spherical         coset-maximal   length          v+v^-1, v+v^-1    64
    periodic window   length <= R     generic height  v, v^-1           64
    antispherical     coset-minimal   length          0, 0              200

The action of Hb_s is one rule read off the table: x . Hb_s = xs +
v^{+-1} x (v when xs ranks higher) when xs is kept; otherwise xs is
dropped and x stays with the dropped stay of the direction (up, down).
The descent of x is the first generator s with xs ranked lower and
kept, and the bound is the longest label whose row ``row`` computes and
the degree bound of the codec.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Mapping

from .errors import ConsistencyError, DomainError, ResourceError
from .laurent import LaurentPoly, PackedCodec
from .rootsys import RootSystem
from .weylext import (
    ExtWeylElt,
    _left_ascent,
    elt_key,
    gen_indices,
    identity_elt,
    in_waff,
    is_coset_maximal,
    is_coset_minimal,
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
# the packed step tells stays apart by identity, so every stay a
# KLComputer holds is one of these objects
_STAYS = {stay: stay for stay in (_ZERO, _V, _VINV, _V_PLUS_VINV)}
_KEPT = (_V, _VINV)  # the stays of a kept crossing, up and down

def unit(sys: RootSystem) -> dict[ExtWeylElt, LaurentPoly]:
    return {identity_elt(sys): _ONE}


def std_elt(sys: RootSystem, x: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
    if not in_waff(sys, x):
        raise DomainError("Hecke basis elements are indexed by W_aff")
    return {x: _ONE}


# -- the generator action and the canonical step ---------------------------------
#
# An action rule maps a basis label x to (xs, stay): the label of the
# crossed term (None when there is none) and the coefficient with which x
# stays, so that  x . T = xs + stay x  for the generator T acted by.


def crossing_rule(s: ExtWeylElt, rank, up=_V, down=_VINV):
    """The rule x . T = xs + stay x, with the stay ``up`` exactly when
    rank(xs) > rank(x) and ``down`` otherwise.  The defaults give Hb_s;
    the module docstring lists the stays of H_s and bar(H_s)."""

    def act(x):
        xs = x * s
        return xs, (up if rank(xs) > rank(x) else down)

    return act


def act_hb_s(items, act) -> dict:
    """Right action of a generator, by the rule ``act``, on the (label,
    coefficient) pairs ``items``: the resulting element, with its zero
    coefficients dropped.  A stay of 0 adds no term."""
    acc: dict = {}
    for x, p in items:
        xs, stay = act(x)
        if xs is not None:
            q = acc.get(xs)
            acc[xs] = p if q is None else q + p
        q = acc.get(x)
        if len(stay.terms) == 1:  # a monomial stay: one shifted merge
            ((e, c),) = stay.terms
            acc[x] = (_ZERO if q is None else q).add_scaled(p, c, e)
        elif stay:
            acc[x] = stay * p if q is None else q + stay * p
    return {x: p for x, p in acc.items() if p}


def canonical_step(base: Mapping, act, row_of) -> tuple[dict, list]:
    """E_{us} = E_u . Hb_s - sum_B mu(B) E_B from the row ``base`` of E_u.

    mu(B) is the coefficient of v in base[B] and E_B = row_of(B).  The
    sum runs over the support elements B whose stay is neither v nor 0:
    those whose crossing goes down (stay v^-1) and, in the spherical
    module, those whose Bs is not kept (stay v + v^-1).
    Returns the new row and the B subtracted.  (The diagonal entry of a
    monic row has no v-term.)
    """
    row = act_hb_s(base.items(), act)
    subtracted = []
    for b, p in base.items():
        mu = p.coeff(1)
        if mu and act(b)[1] not in (_V, _ZERO):
            subtracted.append(b)
            for z, q in row_of(b).items():
                r = row.pop(z, _ZERO).add_scaled(q, -mu)
                if r:
                    row[z] = r
    return row, subtracted


def _act_gen(
    sys: RootSystem, h: Mapping[ExtWeylElt, LaurentPoly], i: int, up, down
) -> dict[ExtWeylElt, LaurentPoly]:
    """Right action on h of the generator with the stays (up, down)."""
    rule = crossing_rule(simple_reflection(sys, i), partial(length, sys), up, down)
    return act_hb_s(h.items(), rule)


def mul_gen(
    sys: RootSystem, h: Mapping[ExtWeylElt, LaurentPoly], i: int
) -> dict[ExtWeylElt, LaurentPoly]:
    """Right multiplication by the standard generator H_s."""
    return _act_gen(sys, h, i, _ZERO, _VINV - _V)


def mul_kl_gen(
    sys: RootSystem, h: Mapping[ExtWeylElt, LaurentPoly], i: int
) -> dict[ExtWeylElt, LaurentPoly]:
    """Right multiplication by Hb_s = H_s + v."""
    return _act_gen(sys, h, i, _V, _VINV)


def mul_bar_gen(
    sys: RootSystem, h: Mapping[ExtWeylElt, LaurentPoly], i: int
) -> dict[ExtWeylElt, LaurentPoly]:
    """Right multiplication by bar(H_s) = H_s + v - v^-1, the inverse of H_s."""
    return _act_gen(sys, h, i, _V - _VINV, _ZERO)


# -- canonical rows (the top-down mu-recursion) ----------------------------------


class KLComputer:
    """Memoized canonical rows of the module given by ``kept``, ``rank``
    (of sys and x), ``dropped`` and ``length_bound``, on the label table of
    the module docstring.

    ``elts[k]``, ``nbrs[k][i]``, ``ranks[k]`` and ``kept[k]`` are the
    element numbered k, the number of elts[k] s_i, its rank and its kept
    flag.  ``rows[k]`` is its certified row of ``codec`` integers, seeded
    {k: 1} when k has no descent, and ``flags[k]`` whether that row, or
    one it was made from, met a crossing ``act`` dropped: in a window,
    the rows that lost a term to truncation.
    """

    def __init__(
        self, sys: RootSystem, name: str, kept, rank=length,
        dropped=(_V_PLUS_VINV, _V_PLUS_VINV), length_bound: int = 64,
    ):
        self.sys = sys
        self.name = name
        self._is_kept = kept
        self._rank_of = rank
        self._dropped_stays = tuple(_STAYS[stay] for stay in dropped)
        self._gens = [simple_reflection(sys, i) for i in gen_indices(sys)]
        self._number: dict[ExtWeylElt, int] = {}
        self.elts: list[ExtWeylElt] = []
        self.nbrs: list[list[int | None]] = []
        self.ranks: list[int] = []
        self.kept: list[bool] = []
        self.codec = PackedCodec(length_bound)
        self.rows: dict[int, dict[int, int]] = {}
        self.flags: dict[int, bool] = {}

    def number(self, x: ExtWeylElt) -> int:
        """The number of x in the label table, assigned on first sight."""
        k = self._number.get(x)
        if k is None:
            k = self._number[x] = len(self.elts)
            self.elts.append(x)
            self.nbrs.append([None] * len(self._gens))
            self.ranks.append(self._rank_of(self.sys, x))
            self.kept.append(self._is_kept(x))
        return k

    def nbr(self, k: int, i: int) -> int:
        """The number of x s_i for x the element numbered k."""
        n = self.nbrs[k][i]
        if n is None:
            n = self.nbrs[k][i] = self.number(self.elts[k] * self._gens[i])
        return n

    def act(self, i: int, k: int) -> tuple[int | None, LaurentPoly]:
        """The rule of Hb_s = Hb_{s_i} at elts[k] (see the module docstring)."""
        ks = self.nbr(k, i)
        down = self.ranks[ks] <= self.ranks[k]
        return (ks, _KEPT[down]) if self.kept[ks] else (None, self._dropped_stays[down])

    def descent(self, k: int) -> int | None:
        """The first generator whose neighbour is lower and kept."""
        rk = self.ranks[k]
        for i in range(len(self._gens)):
            ks = self.nbr(k, i)
            if self.ranks[ks] < rk and self.kept[ks]:
                return i
        return None

    def row(self, w: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
        """The map y -> coefficient of y in the canonical element of w."""
        sys = self.sys
        if not in_waff(sys, w):
            raise DomainError(f"{self.name} basis elements are indexed by W_aff")
        bound = self.codec.max_degree
        if length(sys, w) > bound:
            raise ResourceError(f"length {length(sys, w)} exceeds the configured bound {bound}")
        unpack = self.codec.unpack
        return {self.elts[y]: unpack(p) for y, p in self._row(self.number(w)).items()}

    def _row(self, top: int) -> dict[int, int]:
        """The row of ``top``, made with every row it rests on.

        Rows wait on an explicit stack, not on Python's, so a chain of
        descents may be as long as the table: a row waits for its base,
        and once spread (``_spread``) it waits, with its partial sum, for
        the rows it subtracts.
        """
        rows, flags = self.rows, self.flags
        if top in rows:
            return rows[top]
        todo, waiting = [top], {}
        while todo:
            k = todo[-1]
            if k in rows:
                todo.pop()
                continue
            if k not in waiting:
                i = self.descent(k)
                if i is None:
                    rows[k], flags[k] = {k: self.codec.one}, False
                    continue
                a = self.nbr(k, i)
                if a not in rows:
                    todo.append(a)
                    continue
                waiting[k] = (a, *self._spread(rows[a], i))
            a, acc, subtract, cut = waiting[k]
            missing = [b for b, _ in subtract if b not in rows]
            if missing:
                todo += missing
                continue
            del waiting[k]
            for b, mu in subtract:
                for z, q in rows[b].items():
                    acc[z] = acc.get(z, 0) - mu * q
            row = {z: p for z, p in acc.items() if p}
            self._check(k, row)
            rows[k] = row
            flags[k] = cut or flags[a] or any(flags[b] for b, _ in subtract)
        return rows[top]

    def _spread(self, base: dict[int, int], i: int) -> tuple[dict[int, int], list, bool]:
        """The packed ``canonical_step`` E_{us} = E_u . Hb_s - sum_B mu(B) E_B
        up to the sum, for the certified row ``base`` of E_u: E_u . Hb_s,
        the pairs (B, mu(B)) and whether ``act`` dropped a crossing.

        Every base value lies in Z[v], so the stay v^-1 is an exact right
        shift, and a stay of 0 adds no own term and needs no mu-correction.
        A new coefficient sums certified values with multipliers of total
        absolute value at most 3 + sum |mu(B)|: one crossed term, a stay of
        at most two terms, and mu(B) times a coefficient of each E_B.  The
        step refuses the row unless that total is below codec.sum_bound,
        which keeps its digits equal to its coefficients.
        """
        B = PackedCodec.B
        act, mu_of = self.act, self.codec.mu
        acc: dict[int, int] = {}
        subtract = []
        cut = False
        for x, p in base.items():
            xs, stay = act(i, x)
            if xs is None:
                cut = True
            else:
                q = acc.get(xs)
                acc[xs] = p if q is None else q + p
            if stay is _V:
                p <<= B
            elif stay is _ZERO:
                continue
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
        return acc, subtract, cut

    def _check(self, k: int, row: dict[int, int]) -> None:
        """Certify the new row of k, then check it is monic with every
        lower coefficient in vZ[v]."""
        codec = self.codec
        if not all(map(codec.certified, row.values())):
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


@lru_cache(maxsize=None)
def bar_std(sys: RootSystem, y: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
    """Expansion of bar(H_y) in the standard basis, built along a reduced
    word: bar(H_y) = bar(H_{ys}) bar(H_s) for a right descent s of y."""
    descents = right_descents(sys, y)
    if not descents:
        return {y: _ONE}
    i = min(descents)
    return mul_bar_gen(sys, bar_std(sys, y * simple_reflection(sys, i)), i)


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
    below = bruhat_interval_below(sys, w)
    order = sorted(below, key=lambda x: -length(sys, x))
    h: dict[ExtWeylElt, LaurentPoly] = {w: _ONE}
    for z in order:
        if z == w:
            continue
        g = LaurentPoly.zero()
        for y, hy in h.items():
            r = bar_std(sys, y).get(z)
            if r is not None:
                g = g + hy.bar() * r
        # g must be antisymmetric under bar with zero constant term
        if g.coeff(0) != 0 or (g + g.bar()):
            raise ConsistencyError("self-duality system is inconsistent")
        h[z] = LaurentPoly(tuple((e, c) for e, c in g.terms if e > 0))
    return {y: p for y, p in h.items() if p}


# -- the spherical module ---------------------------------------------------------


def coset_maximal_rep(sys: RootSystem, x: ExtWeylElt) -> ExtWeylElt:
    """The maximal element of Wx."""
    while (i := _left_ascent(sys, x)) is not None:
        x = simple_reflection(sys, i) * x
    return x


def spherical_project(
    sys: RootSystem, h: Mapping[ExtWeylElt, LaurentPoly]
) -> dict[ExtWeylElt, LaurentPoly]:
    """Quotient map H -> spherical module: H_z maps to
    v^{l(max) - l(z)} M_{max(Wz)}."""
    acc: dict[ExtWeylElt, LaurentPoly] = {}
    for z, p in h.items():
        m = coset_maximal_rep(sys, z)
        scale = LaurentPoly.gen(length(sys, m) - length(sys, z))
        acc[m] = acc.get(m, LaurentPoly.zero()) + scale * p
    return {m: p for m, p in acc.items() if p}


def spherical_act_kl_gen(
    sys: RootSystem, e: Mapping[ExtWeylElt, LaurentPoly], i: int
) -> dict[ExtWeylElt, LaurentPoly]:
    """Right action of Hb_s on the spherical module, by the action rule of
    the spherical label table."""
    if i not in gen_indices(sys):
        raise DomainError(f"no Coxeter generator with index {i}")
    comp = spherical_computer(sys)
    acc = act_hb_s(((comp.number(x), p) for x, p in e.items()), partial(comp.act, i))
    return {comp.elts[k]: p for k, p in acc.items()}


def ideal_basis_elt(sys: RootSystem, y: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
    """Hb_{w0} H_{y0} for y coset-maximal with minimal representative y0.

    y0 = w0 y, since y = w0 y0 with l(y) = l(w0) + l(y0).

    These span the right ideal Hb_{w0} H, which realizes the spherical
    module inside the Hecke algebra; the basis vector has unitriangular
    leading term H_y.
    """
    if not is_coset_maximal(sys, y):
        raise DomainError("ideal basis vectors are indexed by coset-maximal elements")
    w0 = w0_elt(sys)
    out = kl_computer(sys).row(w0)
    for i in reduced_word(sys, w0 * y):
        out = mul_gen(sys, out, i)
    return out


def spherical_from_kl_row(sys: RootSystem, w: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
    """Expand Hb_w (w coset-maximal) in the ideal basis Hb_{w0} H_{y0}.

    The expansion coefficients provide an independent route to the
    spherical canonical coefficients m_{y,w}; a nonzero remainder means
    the two computations disagree.  Each ideal basis vector is H_y plus
    shorter terms, so the leading term strictly decreases from one step
    to the next; a leading term that is not coset-maximal or does not
    decrease raises ConsistencyError.
    """
    if not is_coset_maximal(sys, w):
        raise DomainError("expansion applies to coset-maximal elements")
    rest = kl_computer(sys).row(w)
    out: dict[ExtWeylElt, LaurentPoly] = {}
    order = partial(elt_key, sys)
    last = None
    while rest:
        y = max(rest, key=order)
        if not is_coset_maximal(sys, y):
            raise ConsistencyError(
                "leading term of an ideal element is not coset-maximal"
            )
        if last is not None and order(y) >= last:
            raise ConsistencyError(
                "an ideal basis vector did not cancel its leading term"
            )
        last = order(y)
        c = rest[y]
        out[y] = c
        for z, p in ideal_basis_elt(sys, y).items():
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


# -- the antispherical module -----------------------------------------------------


@lru_cache(maxsize=None)
def antispherical_computer(sys: RootSystem) -> KLComputer:
    """Canonical rows of the antispherical module (Soergel, Represent.
    Theory 1, 1997): the induction of the sign module of the finite Hecke
    algebra, with a basis N_x for x minimal in Wx and

        N_x Hb_s = N_{xs} + v^{+-1} N_x   (xs minimal)
        N_x Hb_s = 0                      (xs not minimal).

    Periodic coefficients are read off translates deep in the dominant
    chamber, and t_{2 rho} alone has length 32 in G2, hence the bound 200.
    """
    return KLComputer(
        sys, "antispherical", partial(is_coset_minimal, sys),
        dropped=(_ZERO, _ZERO), length_bound=200,
    )
