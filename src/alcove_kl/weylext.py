"""The extended affine Weyl group W ltimes X and its combinatorics.

Elements are stored as pairs (w, lam) representing w * t_lam.  The
finite part w is an integer: its number in the finite Weyl group table
of the root system (``FiniteWeylGroup``), which numbers an element, with
its inverse, the first time it turns up as a product or a reflection, so
a large group is never enumerated unless ``weyl_group`` asks for all of
it.  In the table an element is its signed positive-root permutation: a
product composes two permutations and looks the result up, and products
are memoized as they are asked for.  The element's matrix on the
fundamental-weight basis is read off its permutation (row i is the
coroot of w^-1(alpha_i)) and kept with the number of its inverse; no two
matrices are ever multiplied.  The multiplication rule is

    (w t_lam)(w' t_mu) = (w w') t_{w'^{-1}(lam) + mu},

so a product costs two table lookups and one rank-sized matrix-vector
product, and an element hashes as (number, translation).

On top of the group structure this module provides Shi's alcove
coordinates and the length function read off them, the p-dilated
dot-action, the finite group Omega of length-zero elements, the
restricted elements and the check involution, the dot-stabilizers of
weights in the closure of the fundamental box, and a breadth-first
search conjugating an affine simple reflection into a finite one.

The factorizations of an element that the engine needs are read off its
coordinates rather than searched for with products: x = t_nu w_res, with
w_res the restricted element sharing x's finite part
(``restricted_shift``, used by the check involution); x = t_nu u with u
finite (u is x's finite part and nu = u(lam)); and x = omega z with omega
in Omega and z in W_aff (omega is picked by the class of the translation
modulo the root lattice).  Omega itself holds plain elements, one per
class, descended from t_0 and from t_omega for the minuscule
fundamental weights omega.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .errors import DomainError, SearchError
from .rootsys import (
    ModularContext,
    PosRoot,
    RootSystem,
    Weight,
    _root_index,
    in_root_lattice,
    is_restricted,
    scaled_root_coords,
)

Mat = tuple[tuple[int, ...], ...]


def _mat_vec(m: Mat, v: tuple) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in m])


def reflection_mat(sys: RootSystem, root: PosRoot) -> Mat:
    n = sys.rank
    return tuple(
        tuple(
            (1 if k == j else 0) - root.fund[k] * root.coroot[j] for j in range(n)
        )
        for k in range(n)
    )


@lru_cache(maxsize=None)
def _simple_root_positions(sys: RootSystem) -> tuple[int, ...]:
    """Position of alpha_i in ``sys.positive_roots``, for i = 1..rank."""
    return tuple(
        next(j for j, r in enumerate(sys.positive_roots) if r.height == 1 and r.root[i])
        for i in range(sys.rank)
    )


class FiniteWeylGroup:
    """The finite Weyl group of one root system, numbered as it is met.

    An element is its signed positive-root permutation ``roots[k]``:
    entry j is b when the element maps the b-th positive root to the
    j-th one, and ~b when it maps it to minus the j-th one.  It gets its
    number the first time it turns up, as a product or as a reflection,
    and its inverse is numbered with it; the identity is 0 and the simple
    reflections follow.  A product composes the two permutations and
    looks the result up; products are memoized as they are asked for.
    The table also holds ``inv[k]``, the number of the inverse, and
    ``mats[k]``, the matrix on the fundamental-weight basis read off the
    permutation: row i is the coroot of w^-1(alpha_i).  Nothing here
    closes the whole group; only ``weyl_group`` does.
    """

    __slots__ = (
        "mats", "inv", "roots", "identity", "simples",
        "_sys", "_index", "_products", "_stride", "_simple_pos", "_signed_coroots",
    )

    def __init__(self, sys: RootSystem):
        self._sys = sys
        self.mats: list[Mat] = []
        self.inv: list[int] = []
        self.roots: list[tuple[int, ...]] = []
        self._index: dict[tuple[int, ...], int] = {}
        self._products: dict[int, int] = {}  # i * stride + j -> product
        self._stride = sys.weyl_order
        self._simple_pos = _simple_root_positions(sys)
        # entry b of the list is beta_b^vee and entry ~b is -beta_b^vee
        coroots = [r.coroot for r in sys.positive_roots]
        self._signed_coroots = coroots + [tuple([-c for c in r]) for r in reversed(coroots)]
        self.identity = self._add(tuple(range(len(coroots))))
        self.simples = tuple(self.reflection(sys.positive_roots[j]) for j in self._simple_pos)

    def _add(self, perm: tuple[int, ...]) -> int:
        """Number a new element and its inverse; every numbered element
        has its inverse numbered."""
        # w(beta_b) = +-alpha_j  <=>  w^-1(alpha_j) = +-beta_b
        inv_perm = [0] * len(perm)
        for j, b in enumerate(perm):
            if b >= 0:
                inv_perm[b] = j
            else:
                inv_perm[~b] = ~j
        inv_perm = tuple(inv_perm)
        k = len(self.roots)
        new = (perm,) if inv_perm == perm else (perm, inv_perm)
        for p in new:
            self._index[p] = len(self.roots)
            self.roots.append(p)
            # row i is the coroot of w^-1(alpha_i), read at alpha_i's position
            self.mats.append(tuple([self._signed_coroots[p[j]] for j in self._simple_pos]))
        self.inv += [k] if len(new) == 1 else [k + 1, k]
        return k

    def reflection(self, root: PosRoot) -> int:
        """The number of the reflection in a positive root."""
        # perm[c] = b when s(beta_c) = +-beta_b; s is an involution, so
        # s(beta_b) = +-beta_c and b is also the entry at c
        m = reflection_mat(self._sys, root)
        roots = self._sys.positive_roots
        images = _root_index(self._sys)
        position = {r: j for j, r in enumerate(roots)}
        perm = []
        for beta in roots:
            alpha, sign = images[_mat_vec(m, beta.fund)]
            perm.append(position[alpha] if sign > 0 else ~position[alpha])
        perm = tuple(perm)
        k = self._index.get(perm)
        return self._add(perm) if k is None else k

    def product(self, i: int, j: int) -> int:
        """The number of the product of elements i and j."""
        key = i * self._stride + j
        k = self._products.get(key)
        if k is None:
            # if i(beta_b) = +-alpha_t and j(beta_c) = +-beta_b, then
            # i j (beta_c) = +-alpha_t
            rj = self.roots[j]
            perm = tuple([rj[b] if b >= 0 else ~rj[~b] for b in self.roots[i]])
            k = self._index.get(perm)
            if k is None:
                k = self._add(perm)
            self._products[key] = k
        return k


@lru_cache(maxsize=None)
def finite_group(sys: RootSystem) -> FiniteWeylGroup:
    """The finite Weyl group table of ``sys``, made on first use."""
    return FiniteWeylGroup(sys)


@dataclass(frozen=True, slots=True, eq=False)
class ExtWeylElt:
    """An element w * t_lam of the extended affine Weyl group.

    ``fin`` is the number of w in the table ``group`` of its root system.
    Numbers mean nothing across tables, so equal elements share the table
    as well as ``fin`` and the translation; the hash reads ``fin`` and the
    translation only.
    """

    fin: int
    translation: Weight
    group: FiniteWeylGroup = field(repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.fin, self.translation.coords)))

    def __eq__(self, other: object) -> bool:
        try:
            return (
                self.fin == other.fin
                and self.group is other.group
                and self.translation.coords == other.translation.coords
            )
        except AttributeError:
            return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "ExtWeylElt") -> "ExtWeylElt":
        # (w t_lam)(w' t_mu) = (w w') t_{w'^-1(lam) + mu}
        g = self.group
        j = other.fin
        lam = self.translation.coords
        return ExtWeylElt(
            g.product(self.fin, j),
            Weight(tuple([
                sum(map(mul, row, lam)) + m
                for row, m in zip(g.mats[g.inv[j]], other.translation.coords)
            ])),
            g,
        )

    def inverse(self) -> "ExtWeylElt":
        g = self.group
        return ExtWeylElt(
            g.inv[self.fin],
            Weight(tuple([-c for c in _mat_vec(g.mats[self.fin], self.translation.coords)])),
            g,
        )

    def finite_apply(self, lam: Weight) -> Weight:
        """Apply only the finite part, linearly."""
        return Weight(_mat_vec(self.group.mats[self.fin], lam.coords))

    def act_affine(self, point: tuple) -> tuple:
        """The affine action on X tensor Q: x -> w(x + lam)."""
        shifted = tuple(p + t for p, t in zip(point, self.translation.coords))
        return _mat_vec(self.group.mats[self.fin], shifted)


# -- constructors -----------------------------------------------------------


@lru_cache(maxsize=None)
def identity_elt(sys: RootSystem) -> ExtWeylElt:
    g = finite_group(sys)
    return ExtWeylElt(g.identity, Weight.zero(sys.rank), g)


def translation_elt(sys: RootSystem, lam: Weight) -> ExtWeylElt:
    g = finite_group(sys)
    return ExtWeylElt(g.identity, lam, g)


def _reflection_elt(sys: RootSystem, root: PosRoot, lam: Weight) -> ExtWeylElt:
    g = finite_group(sys)
    return ExtWeylElt(g.reflection(root), lam, g)


@lru_cache(maxsize=None)
def simple_reflection(sys: RootSystem, i: int) -> ExtWeylElt:
    """Coxeter generator of W_aff: i = 1..rank finite, i = 0 affine.

    The affine generator reflects in the hyperplane where the highest
    coroot pairs to 1, i.e. s_0 = t_theta s_theta for the corresponding
    root theta.
    """
    if i == 0:
        theta = sys.affine_root
        return _reflection_elt(sys, theta, -theta.as_weight())
    if not 1 <= i <= sys.rank:
        raise DomainError(f"no simple reflection with index {i}")
    g = finite_group(sys)
    return ExtWeylElt(g.simples[i - 1], Weight.zero(sys.rank), g)


def gen_indices(sys: RootSystem) -> range:
    """Indices of S_aff: 0 (affine) followed by 1..rank."""
    return range(sys.rank + 1)


def from_word(sys: RootSystem, word: tuple[int, ...] | list[int]) -> ExtWeylElt:
    x = identity_elt(sys)
    for i in word:
        x = x * simple_reflection(sys, i)
    return x


# -- Shi coordinates, length and descents ---------------------------------------


def shi_coords(sys: RootSystem, fin: int, lam: Weight) -> tuple[int, ...]:
    """Shi's alcove coordinates of x = w t_lam (J.-Y. Shi, LNM 1179, 1986).

    Entry j is k_alpha for alpha the j-th positive root: the floor of
    <q, alpha^vee> at every interior point q of the alcove x(A+).  For
    each positive root beta with w(beta) = +-alpha it is <lam, beta^vee>
    on the sign +, and -<lam, beta^vee> - 1 on the sign -.  Crossing one
    wall moves exactly one coordinate by one, upward when it grows.
    """
    pair = [sum(map(mul, lam.coords, r.coroot)) for r in sys.positive_roots]
    return tuple([
        pair[b] if b >= 0 else -1 - pair[~b] for b in finite_group(sys).roots[fin]
    ])


@lru_cache(maxsize=None)
def length(sys: RootSystem, x: ExtWeylElt) -> int:
    """The number of walls between A+ and x(A+): the sum of |k_alpha|."""
    return sum(map(abs, shi_coords(sys, x.fin, x.translation)))


def right_descents(sys: RootSystem, x: ExtWeylElt) -> list[int]:
    lx = length(sys, x)
    return [
        i for i in gen_indices(sys) if length(sys, x * simple_reflection(sys, i)) < lx
    ]


def reduced_word(sys: RootSystem, x: ExtWeylElt) -> tuple[int, ...]:
    """A canonical reduced word in S_aff (greedy smallest right descent)."""
    if not in_waff(sys, x):
        raise DomainError("reduced words are defined for W_aff elements only")
    out: list[int] = []
    while length(sys, x) > 0:
        i = min(right_descents(sys, x))
        out.append(i)
        x = x * simple_reflection(sys, i)
    return tuple(reversed(out))


def in_waff(sys: RootSystem, x: ExtWeylElt) -> bool:
    return in_root_lattice(sys, x.translation)


# -- the finite Weyl group ----------------------------------------------------


def finite_length_of(sys: RootSystem, m: int) -> int:
    """The number of positive roots the finite element m makes negative."""
    return sum(b < 0 for b in finite_group(sys).roots[m])


@lru_cache(maxsize=None)
def weyl_group(sys: RootSystem) -> tuple[int, ...]:
    """The numbers of all elements of the finite Weyl group, by
    breadth-first closure, in the sorted order of their matrices."""
    g = finite_group(sys)
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for m in frontier:
            for s in g.simples:
                k = g.product(m, s)
                if k not in seen:
                    seen.add(k)
                    nxt.append(k)
        frontier = nxt
    assert len(seen) == sys.weyl_order
    return tuple(sorted(seen, key=g.mats.__getitem__))


@lru_cache(maxsize=None)
def finite_word(sys: RootSystem, m: int) -> tuple[int, ...]:
    """Shortlex reduced word (1-based) of a finite Weyl group element."""
    g = finite_group(sys)
    word: list[int] = []
    while m != g.identity:
        for i, s in enumerate(g.simples, 1):
            sm = g.product(s, m)
            if finite_length_of(sys, sm) < finite_length_of(sys, m):
                word.append(i)
                m = sm
                break
        else:  # pragma: no cover - closure guarantees a descent
            raise AssertionError("no descent found")
    return tuple(word)


def finite_elt(sys: RootSystem, m: int) -> ExtWeylElt:
    return ExtWeylElt(m, Weight.zero(sys.rank), finite_group(sys))


@lru_cache(maxsize=None)
def w0_elt(sys: RootSystem) -> ExtWeylElt:
    return from_word(sys, sys.w0_word)


# -- the dot-action ------------------------------------------------------------


def dot_action(ctx: ModularContext, x: ExtWeylElt, mu: Weight) -> Weight:
    """(w t_lam) . mu = w(mu + p*lam + rho) - rho."""
    sys = ctx.system
    inner = mu + ctx.p * x.translation + sys.rho
    return x.finite_apply(inner) - sys.rho


# -- Omega: length-zero elements ------------------------------------------------


def lattice_class(sys: RootSystem, lam: Weight) -> tuple[int, ...]:
    """Canonical representative of lam modulo the root lattice."""
    d, c = scaled_root_coords(sys, lam)
    out = list(lam.coords)
    for j, x in enumerate(c):
        f = x // d
        if f:
            for k in range(sys.rank):
                out[k] -= f * sys.cartan[k][j]
    return tuple(out)


@lru_cache(maxsize=None)
def omega_group(sys: RootSystem) -> tuple[ExtWeylElt, ...]:
    """All length-zero elements, one per class of X modulo the root lattice.

    Each nontrivial class holds exactly one minuscule weight, and it is
    a fundamental weight omega_i, the one with <omega_i, beta^vee> <= 1
    for every positive root beta; with 0 they represent the classes.
    Each element is found from t_lam, for such a lam, by following right
    descents down to length zero; right multiplication by S_aff stays in
    the class.
    """
    n = sys.rank
    minuscule = [
        Weight(tuple(1 if k == i else 0 for k in range(n)))
        for i in range(n)
        if all(r.coroot[i] <= 1 for r in sys.positive_roots)
    ]
    out = []
    for lam in [Weight.zero(n), *minuscule]:
        x = translation_elt(sys, lam)
        while descents := right_descents(sys, x):
            x = x * simple_reflection(sys, descents[0])
        assert length(sys, x) == 0
        out.append(x)
    out.sort(key=lambda o: elt_key(sys, o))
    # conjugation by Omega permutes the Coxeter generators
    gens = [simple_reflection(sys, i) for i in gen_indices(sys)]
    gen_set = set(gens)
    for o in out:
        for s in gens:
            assert o * s * o.inverse() in gen_set
    return tuple(out)


@lru_cache(maxsize=None)
def _omega_by_class(sys: RootSystem) -> dict[tuple[int, ...], ExtWeylElt]:
    return {lattice_class(sys, o.translation): o for o in omega_group(sys)}


def omega_class(sys: RootSystem, x: ExtWeylElt) -> tuple[int, ...]:
    return lattice_class(sys, x.translation)


def waff_part(sys: RootSystem, x: ExtWeylElt) -> tuple[ExtWeylElt, ExtWeylElt]:
    """Factor x = omega * z with omega in Omega and z in W_aff."""
    om = _omega_by_class(sys)[omega_class(sys, x)]
    z = om.inverse() * x
    assert in_waff(sys, z)
    return om, z


# -- enumeration ---------------------------------------------------------------


def waff_elements(sys: RootSystem, length_bound: int) -> list[ExtWeylElt]:
    """All W_aff elements of length at most the bound, BFS from identity."""
    e = identity_elt(sys)
    seen = {e}
    out = [e]
    frontier = [e]
    cur = 0
    while frontier and cur < length_bound:
        cur += 1
        nxt = []
        for x in frontier:
            for i in gen_indices(sys):
                y = x * simple_reflection(sys, i)
                if y not in seen and length(sys, y) == cur:
                    seen.add(y)
                    nxt.append(y)
        out.extend(nxt)
        frontier = nxt
    return out


def elt_key(sys: RootSystem, x: ExtWeylElt):
    """Deterministic sort key: length, then canonical serialization."""
    return (length(sys, x), finite_word(sys, x.fin), x.translation.coords)


def elt_to_json(sys: RootSystem, x: ExtWeylElt) -> dict:
    return {"w": list(finite_word(sys, x.fin)), "t": list(x.translation.coords)}


def elt_from_json(sys: RootSystem, d: dict) -> ExtWeylElt:
    fin = from_word(sys, [int(i) for i in d["w"]])
    return ExtWeylElt(fin.fin, Weight(tuple(int(c) for c in d["t"])), fin.group)


# -- restricted elements and the check involution --------------------------------


@lru_cache(maxsize=None)
def restricted_element_for(sys: RootSystem, m: int) -> ExtWeylElt:
    """The unique element of W_ex^res with the given finite part.

    For u in W the recipe is u t_lam with lam = u^{-1}(sum of the
    fundamental weights indexed by {i : u^{-1}(alpha_i) < 0}); this makes
    u t_lam . 0 restricted for every p > h.  The sign of u^{-1}(alpha_i)
    is the sign with which u maps some positive root onto +-alpha_i.
    """
    g = finite_group(sys)
    roots = g.roots[m]
    sigma = tuple(1 if roots[j] < 0 else 0 for j in _simple_root_positions(sys))
    return ExtWeylElt(m, Weight(_mat_vec(g.mats[g.inv[m]], sigma)), g)


def restricted_elements(ctx: ModularContext, length_bound: int) -> list[ExtWeylElt]:
    """All x in W_ex with l(x) <= bound and x . 0 restricted."""
    sys = ctx.system
    out = []
    zero = Weight.zero(sys.rank)
    for z in waff_elements(sys, length_bound):
        for om in omega_group(sys):
            x = om * z
            if is_restricted(ctx, dot_action(ctx, x, zero)):
                out.append(x)
    out.sort(key=lambda x: elt_key(sys, x))
    return out


def is_restricted_elt(ctx: ModularContext, x: ExtWeylElt) -> bool:
    return is_restricted(ctx, dot_action(ctx, x, Weight.zero(ctx.system.rank)))


def restricted_shift(sys: RootSystem, x: ExtWeylElt) -> Weight:
    """The nu with x = t_nu w_res, w_res the restricted element sharing
    x's finite part: for x = w t_lam and w_res = w t_mu it is w(lam - mu)."""
    w_res = restricted_element_for(sys, x.fin)
    return x.finite_apply(x.translation - w_res.translation)


def check_for_system(sys: RootSystem, x: ExtWeylElt) -> ExtWeylElt:
    """The permutation x = t_nu w  ->  t_nu w0 w, where w is the
    restricted element sharing x's finite part (p-independent for p > h)."""
    t_part = translation_elt(sys, restricted_shift(sys, x))
    return t_part * w0_elt(sys) * restricted_element_for(sys, x.fin)


def check(ctx: ModularContext, x: ExtWeylElt) -> ExtWeylElt:
    return check_for_system(ctx.system, x)


def rho_check_involution(ctx: ModularContext, x: ExtWeylElt) -> ExtWeylElt:
    """x -> t_rho * check(x); an involution on W_ex^res that reverses
    length against l(t_rho w0)."""
    sys = ctx.system
    if not is_restricted_elt(ctx, x):
        raise DomainError("argument must lie in W_ex^res")
    return translation_elt(sys, sys.rho) * check(ctx, x)


# -- Bruhat order -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _bruhat_aff(sys: RootSystem, x: ExtWeylElt, y: ExtWeylElt) -> bool:
    if length(sys, x) > length(sys, y):
        return False
    if length(sys, x) == 0:
        return True
    if x == y:
        return True
    i = min(right_descents(sys, y))
    s = simple_reflection(sys, i)
    ys = y * s
    xs = x * s
    if length(sys, xs) < length(sys, x):
        return _bruhat_aff(sys, xs, ys)
    return _bruhat_aff(sys, x, ys)


def bruhat_leq(sys: RootSystem, x: ExtWeylElt, y: ExtWeylElt) -> bool:
    """Bruhat order via the lifting property on the W_aff parts.

    Elements in different W_aff-cosets are incomparable and compare as
    False.
    """
    if omega_class(sys, x) != omega_class(sys, y):
        return False
    _, zx = waff_part(sys, x)
    _, zy = waff_part(sys, y)
    return _bruhat_aff(sys, zx, zy)


# -- singular weights of the fundamental box ----------------------------------------


def in_box_closure(ctx: ModularContext, eta: Weight) -> bool:
    """Whether 0 <= <eta + rho, a^vee> <= p for every positive root."""
    sys = ctx.system
    shifted = eta + sys.rho
    return all(0 <= sys.pairing(shifted, r) <= ctx.p for r in sys.positive_roots)


def dot_stabilizer(ctx: ModularContext, eta: Weight) -> list[ExtWeylElt]:
    """The affine reflections generating the dot-stabilizer of eta.

    For eta in the closed fundamental box these are the reflections
    s_{a,n} with <eta + rho, a^vee> = n p for n in {0, 1}; the stabilizer
    in the extended group coincides with the one in W_aff.
    """
    sys = ctx.system
    if not in_box_closure(ctx, eta):
        raise DomainError("weight outside the closed fundamental box")
    shifted = eta + sys.rho
    out = []
    for r in sys.positive_roots:
        pair = sys.pairing(shifted, r)
        if pair == 0:
            out.append(_reflection_elt(sys, r, Weight.zero(sys.rank)))
        elif pair == ctx.p:
            out.append(_reflection_elt(sys, r, -r.as_weight()))
    return out


def box_weights(ctx: ModularContext) -> list[Weight]:
    """All weights in the closed fundamental box, in lexicographic order."""
    sys = ctx.system
    out = []
    for coords in itertools.product(range(-1, ctx.p), repeat=sys.rank):
        eta = Weight(coords)
        if in_box_closure(ctx, eta):
            out.append(eta)
    return out


def find_mu_s(ctx: ModularContext, s: ExtWeylElt) -> Weight:
    """The lexicographically smallest box weight whose dot-stabilizer is {1, s}."""
    for eta in box_weights(ctx):
        stab = dot_stabilizer(ctx, eta)
        if len(stab) == 1 and stab[0] == s:
            return eta
    raise SearchError("no weight with the prescribed stabilizer (is p > h?)")


# -- conjugating an affine simple reflection into the finite group --------------------


def conjugate_affine_simple(
    sys: RootSystem, s: ExtWeylElt, radius: int
) -> tuple[ExtWeylElt, ExtWeylElt]:
    """First (u, t) in BFS order with u t u^{-1} = s and t finite simple.

    Candidates u run over W_ex by increasing length with deterministic
    tie-breaking; raises SearchError when the radius is exhausted.
    """
    finite_simples = {simple_reflection(sys, i) for i in range(1, sys.rank + 1)}
    if s in finite_simples or s not in {
        simple_reflection(sys, i) for i in gen_indices(sys)
    }:
        raise DomainError("argument must be an affine (non-finite) simple reflection")
    candidates = []
    for z in waff_elements(sys, radius):
        for om in omega_group(sys):
            u = om * z
            candidates.append(u)
    candidates.sort(key=lambda u: elt_key(sys, u))
    for u in candidates:
        t = u.inverse() * s * u
        if t in finite_simples:
            return u, t
    raise SearchError(f"no conjugating element within radius {radius}")
