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

The antispherical module (``antispherical_computer``) induces the sign
module instead.  Soergel (Represent. Theory 1, 1997, Prop. 3.4) reads
both canonical bases off the Hecke rows: m_{y,w} = h_{y,w} for y and w
coset-maximal, and n_{x,y} = sum_{z in W_f} (-v)^{l(z)} h_{zx,y} for x
and y coset-minimal.  The tests hold the rows of both modules to these.

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
vZ[v] (ConsistencyError otherwise).  Entries become ``LaurentPoly``
values only when read, by ``row`` (a row) or ``coefficient`` (one entry).
``canonical_step``, the same step on ``LaurentPoly`` rows, is the
reference the tests hold the packed step to.

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

The labels are numbered once per root system, in the label table
``weylext.LabelTable`` that the system's finite Weyl group table holds
(F. du Cloux's encoding, Experiment. Math. 2002): per number it keeps
the element, its Shi coordinates and the numbers of its neighbours
x s_i, each product formed once per process whichever computer asks for
it first.  Every ``KLComputer`` keys its rows by those numbers and keeps
only its module's data: the rank and kept flag of each number it
reaches, read off the stored Shi coordinates k, its rows and its flags.
It reads its module as data, given when it is made:

    module            kept            rank            dropped stays     bound
    Hecke algebra     every element   length          (none)            64
    spherical         coset-maximal   length          v+v^-1, v+v^-1    64
    periodic window   length <= R     generic height  v, v^-1           64
    antispherical     coset-minimal   length          0, 0              200

with the length the sum of |k_alpha| and the generic height the sum of
the k_alpha; a window keeps the labels of its radius's prefix of the
table's breadth-first order of W_aff.  The action of Hb_s is one rule
read off the table: x . Hb_s = xs + v^{+-1} x (v when xs ranks higher)
when xs is kept; otherwise xs is dropped and x stays with the dropped
stay of the direction (up, down).
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
    elt_key,
    finite_group,
    identity_elt,
    in_waff,
    is_coset_maximal,
    is_coset_minimal,
    length,
    reduced_word,
    right_descents,
    simple_reflection,
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


def _shi_length(k: tuple[int, ...]) -> int:
    """The length of a label from its Shi coordinates: the sum of |k_alpha|."""
    return sum(map(abs, k))


class KLComputer:
    """Memoized canonical rows of the module given by ``kept`` (of x),
    ``rank`` (of the Shi coordinates of x), ``dropped`` and
    ``length_bound``, keyed by the numbers of the system's label table
    (``weylext.LabelTable``; see the module docstring).

    ``table`` is that table and ``elts`` its list of elements, shared
    with every other computer of the system.  The computer keeps only its
    module's data: ``ranks[k]`` and ``kept[k]`` are the rank and the kept
    flag of elts[k] once the computer has reached k (None before), and
    ``rows[k]`` is its certified row of ``codec`` integers, seeded {k: 1}
    when k has no descent; ``flags[k]`` is whether that row, or one it
    was made from, met a crossing ``act`` dropped: in a window, the rows
    that lost a term to truncation.
    """

    def __init__(
        self, sys: RootSystem, name: str, kept, rank=_shi_length,
        dropped=(_V_PLUS_VINV, _V_PLUS_VINV), length_bound: int = 64,
    ):
        self.sys = sys
        self.name = name
        self._is_kept = kept
        self._rank_of = rank
        self._dropped_stays = tuple(_STAYS[stay] for stay in dropped)
        self.table = finite_group(sys).table
        self.elts = self.table.elts
        self.ranks: list[int | None] = []
        self.kept: list[bool | None] = []
        self.codec = PackedCodec(length_bound)
        self.rows: dict[int, dict[int, int]] = {}
        self.flags: dict[int, bool] = {}

    def number(self, x: ExtWeylElt) -> int:
        """The number of x in the label table, reached by this computer."""
        return self._reach(self.table.number(x))

    def _reach(self, k: int) -> int:
        """k, with its rank and kept flag made the first time it is reached."""
        ranks, kept = self.ranks, self.kept
        if k >= len(ranks):
            pad = [None] * (k + 1 - len(ranks))
            ranks += pad
            kept += pad
        if ranks[k] is None:
            ranks[k] = self._rank_of(self.table.shi[k])
            kept[k] = self._is_kept(self.elts[k])
        return k

    def nbr(self, k: int, i: int) -> int:
        """The number of x s_i for x the element numbered k."""
        n = self.table.nbr(k, i)
        ranks = self.ranks
        return n if n < len(ranks) and ranks[n] is not None else self._reach(n)

    def act(self, i: int, k: int) -> tuple[int | None, LaurentPoly]:
        """The rule of Hb_s = Hb_{s_i} at elts[k] (see the module docstring)."""
        ks = self.nbr(k, i)
        down = self.ranks[ks] <= self.ranks[k]
        return (ks, _KEPT[down]) if self.kept[ks] else (None, self._dropped_stays[down])

    def descent(self, k: int) -> int | None:
        """The first generator whose neighbour is lower and kept."""
        rk = self.ranks[k]
        for i in range(len(self.table.gens)):
            ks = self.nbr(k, i)
            if self.ranks[ks] < rk and self.kept[ks]:
                return i
        return None

    def _top(self, w: ExtWeylElt, y: ExtWeylElt | None = None) -> int:
        """The number of w, whose row is read (at y, which needs no check
        here): the one label check of ``row`` and ``coefficient``."""
        sys = self.sys
        if not in_waff(sys, w):
            raise DomainError(f"{self.name} basis elements are indexed by W_aff")
        bound = self.codec.max_degree
        if length(sys, w) > bound:
            raise ResourceError(f"length {length(sys, w)} exceeds the configured bound {bound}")
        return self.number(w)

    def row(self, w: ExtWeylElt) -> dict[ExtWeylElt, LaurentPoly]:
        """The map y -> coefficient of y in the canonical element of w."""
        elts, unpack = self.elts, self.codec.unpack
        return {elts[y]: unpack(p) for y, p in self._row(self._top(w)).items()}

    def coefficient(self, y: ExtWeylElt, w: ExtWeylElt) -> LaurentPoly:
        """The entry of y in ``row(w)``, decoded alone.  y is never numbered:
        the row of w numbers every label it holds, so no number reads 0."""
        row = self._row(self._top(w, y))
        p = row.get(self.table.index.get(y))
        return _ZERO if p is None else self.codec.unpack(p)

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
    word: bar(H_y) = bar(H_{ys}) bar(H_s) for the smallest right descent
    s of y, with ys read off the label table's neighbours."""
    descents = right_descents(sys, y)
    if not descents:
        return {y: _ONE}
    i, table = descents[0], y.group.table
    return mul_bar_gen(sys, bar_std(sys, table.elts[table.nbr(table.index[y], i)]), i)


def bruhat_interval_below(sys: RootSystem, w: ExtWeylElt) -> list[ExtWeylElt]:
    """All y <= w, generated from subwords of one reduced word, stepped
    along the label table's neighbours."""
    word = reduced_word(sys, w)
    table = w.group.table
    out = {table.number(identity_elt(sys))}
    for i in word:
        out |= {table.nbr(k, i) for k in out}
    return sorted(map(table.elts.__getitem__, out), key=lambda x: elt_key(sys, x))


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
