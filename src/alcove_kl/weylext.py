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
coordinates, with the length function and the test for maximality in a
finite coset read off them, the p-dilated dot-action, the finite group
Omega of length-zero elements, and the restricted elements with the
check involution and the identity gate's ``socle_pairs``.

The factorizations of an element that the engine needs are read off its
coordinates rather than searched for with products: x = t_nu w_res, with
w_res the restricted element sharing x's finite part
(``restricted_shift``, used by the check involution); and x = t_nu u
with u finite (u is x's finite part and nu = u(lam)).  A translate t_lam x
is formed from coordinates too (``translate``), and the check involution
and the translation-canonical pairs of ``periodic`` read it so, with no
group product.  Omega holds plain
elements, one per class of X modulo the root lattice, descended from t_0 and from t_omega for the minuscule
fundamental weights omega.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, sub

from .errors import DomainError
from .rootsys import (
    ModularContext,
    PosRoot,
    RootSystem,
    Weight,
    _Value,
    in_root_lattice,
    is_restricted,
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
    permutation: row i is the coroot of w^-1(alpha_i), and ``elts[k]``,
    the ``ExtWeylElt`` with no translation.  A reflection is read off
    root coordinates: s(beta) = beta - <beta, alpha^vee> alpha.  Nothing
    here closes the whole group; only ``weyl_group`` does.
    """

    __slots__ = (
        "mats", "inv", "roots", "elts", "identity", "simples",
        "_sys", "_index", "_products", "_stride", "_simple_pos", "_signed_coroots",
    )

    def __init__(self, sys: RootSystem):
        self._sys = sys
        self.mats: list[Mat] = []
        self.inv: list[int] = []
        self.roots: list[tuple[int, ...]] = []
        self.elts: list[ExtWeylElt] = []
        self._index: dict[tuple[int, ...], int] = {}
        self._products: dict[int, int] = {}  # i * stride + j -> product
        self._stride = sys.weyl_order
        # position of alpha_i in sys.positive_roots, for i = 1..rank
        self._simple_pos = tuple(
            next(j for j, r in enumerate(sys.positive_roots) if r.height == 1 and r.root[i])
            for i in range(sys.rank)
        )
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
            self.elts.append(ExtWeylElt(len(self.elts), Weight.zero(self._sys.rank), self))
        self.inv += [k] if len(new) == 1 else [k + 1, k]
        return k

    def reflection(self, root: PosRoot) -> int:
        """The number of the reflection in a positive root."""
        # perm[c] = b when s(beta_c) = +-beta_b, where s(beta) = beta -
        # <beta, alpha^vee> alpha; s is an involution, so s(beta_b) =
        # +-beta_c and b is also the entry at c
        roots = self._sys.positive_roots
        position = {}
        for j, r in enumerate(roots):
            position[r.root] = j
            position[tuple([-c for c in r.root])] = ~j
        perm = []
        for beta in roots:
            pair = sum(map(mul, beta.fund, root.coroot))
            perm.append(position[tuple([b - pair * a for b, a in zip(beta.root, root.root)])])
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


class ExtWeylElt(_Value):
    """An element w * t_lam of the extended affine Weyl group.

    ``fin`` is the number of w in the table ``group`` of its root system.
    Numbers mean nothing across tables, so equal elements share the table
    as well as ``fin`` and the translation; the hash reads ``fin`` and the
    translation only, and it and the printed form leave out the table.
    """

    __slots__ = ("fin", "translation", "group", "_hash")
    _fields = ("fin", "translation")

    def __init__(self, fin: int, translation: Weight, group: FiniteWeylGroup):
        object.__setattr__(self, "fin", fin)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_hash", hash((fin, translation.coords)))

    def __reduce__(self):
        return ExtWeylElt, (self.fin, self.translation, self.group)

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


def identity_elt(sys: RootSystem) -> ExtWeylElt:
    return finite_group(sys).elts[0]


def translation_elt(sys: RootSystem, lam: Weight) -> ExtWeylElt:
    g = finite_group(sys)
    return ExtWeylElt(g.identity, lam, g)


@lru_cache(maxsize=None)
def simple_reflection(sys: RootSystem, i: int) -> ExtWeylElt:
    """Coxeter generator of W_aff: i = 1..rank finite, i = 0 affine.

    The affine generator reflects in the hyperplane where the highest
    coroot pairs to 1, i.e. s_0 = t_theta s_theta for the corresponding
    root theta.
    """
    g = finite_group(sys)
    if i == 0:
        theta = sys.affine_root
        return ExtWeylElt(g.reflection(theta), -theta.as_weight(), g)
    if not 1 <= i <= sys.rank:
        raise DomainError(f"no simple reflection with index {i}")
    return ExtWeylElt(g.simples[i - 1], Weight.zero(sys.rank), g)


def translate(lam: tuple[int, ...], x: ExtWeylElt) -> ExtWeylElt:
    """t_lam x, read off coordinates: for x = v t_mu it is
    v t_{v^-1(lam) + mu}, one matrix-vector product with the table's
    matrix of v^-1.  No group product is formed."""
    g = x.group
    return ExtWeylElt(
        x.fin,
        Weight(tuple([
            sum(map(mul, row, lam)) + m
            for row, m in zip(g.mats[g.inv[x.fin]], x.translation.coords)
        ])),
        g,
    )


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


def is_coset_maximal(sys: RootSystem, x: ExtWeylElt) -> bool:
    """Maximal in Wx: every finite simple reflection is a left descent.

    s_i x(A+) is the mirror image of x(A+) in the wall of alpha_i, which
    sends k_{alpha_i} to -1 - k_{alpha_i} and permutes the other Shi
    coordinates, so s_i x is shorter exactly when k_{alpha_i}(x) < 0.  The
    simple roots are the positive roots of height one, listed first.
    """
    k = shi_coords(sys, x.fin, x.translation)
    return all(c < 0 for c in k[: sys.rank])


def is_coset_minimal(sys: RootSystem, x: ExtWeylElt) -> bool:
    """Minimal in Wx: every finite simple reflection is a left ascent, so
    every simple Shi coordinate is >= 0."""
    k = shi_coords(sys, x.fin, x.translation)
    return all(c >= 0 for c in k[: sys.rank])


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
    return finite_group(sys).elts[m]


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


# -- enumeration ---------------------------------------------------------------


@lru_cache(maxsize=None)
def waff_elements(sys: RootSystem, length_bound: int) -> tuple[ExtWeylElt, ...]:
    """All W_aff elements of length at most the bound, BFS from identity.

    Memoized per system and bound: every caller shares one tuple, in BFS
    order, so the group is walked once for each (system, bound).
    """
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
    return tuple(out)


@lru_cache(maxsize=None)
def w0_waff_elements(
    sys: RootSystem, length_bound: int
) -> tuple[tuple[ExtWeylElt, ExtWeylElt], ...]:
    """The pairs (w0 y, y) for y in ``waff_elements(sys, length_bound)``,
    in its order, memoized beside it: w0 y is formed once per (system,
    bound), not once for each table that reads the pairs."""
    w0 = w0_elt(sys)
    return tuple([(w0 * y, y) for y in waff_elements(sys, length_bound)])


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
    sigma = tuple(1 if roots[j] < 0 else 0 for j in g._simple_pos)
    return ExtWeylElt(m, Weight(_mat_vec(g.mats[g.inv[m]], sigma)), g)


def is_restricted_elt(ctx: ModularContext, x: ExtWeylElt) -> bool:
    return is_restricted(ctx, dot_action(ctx, x, Weight.zero(ctx.system.rank)))


def restricted_shift(sys: RootSystem, x: ExtWeylElt) -> Weight:
    """The nu with x = t_nu w_res, w_res the restricted element sharing
    x's finite part: for x = w t_lam and w_res = w t_mu it is w(lam - mu)."""
    mu = restricted_element_for(sys, x.fin).translation.coords
    return Weight(_mat_vec(x.group.mats[x.fin], tuple(map(sub, x.translation.coords, mu))))


@lru_cache(maxsize=None)
def _w0_restricted(sys: RootSystem, m: int) -> ExtWeylElt:
    """w0 w for the restricted element w = m t_mu with finite part m:
    (w0 m) t_mu, one finite-table product."""
    g = finite_group(sys)
    return ExtWeylElt(
        g.product(w0_elt(sys).fin, m), restricted_element_for(sys, m).translation, g
    )


def check_for_system(sys: RootSystem, x: ExtWeylElt) -> ExtWeylElt:
    """The permutation x = t_nu w  ->  t_nu w0 w, where w is the
    restricted element sharing x's finite part (p-independent for p > h).

    w0 w is read from a table per finite part, and t_nu is applied to
    it from coordinates (``translate``), so no group product is formed."""
    return translate(restricted_shift(sys, x).coords, _w0_restricted(sys, x.fin))


def check(ctx: ModularContext, x: ExtWeylElt) -> ExtWeylElt:
    return check_for_system(ctx.system, x)


def socle_pairs(sys: RootSystem) -> list[tuple[ExtWeylElt, ExtWeylElt]]:
    """(x, w0 x) for each restricted x in W_aff, in ``weyl_group`` order:
    p_{x,x} = 1, and p_{w0 x, x} is the socle monomial v^{l(w0)}, since
    x has shift 0, so check(x) = w0 x and w0 check(x) = x."""
    w0 = w0_elt(sys)
    xs = [restricted_element_for(sys, m) for m in weyl_group(sys)]
    return [(x, w0 * x) for x in xs if in_waff(sys, x)]


def rho_check_involution(ctx: ModularContext, x: ExtWeylElt) -> ExtWeylElt:
    """x -> t_rho * check(x); an involution on W_ex^res that reverses
    length against l(t_rho w0)."""
    sys = ctx.system
    if not is_restricted_elt(ctx, x):
        raise DomainError("argument must lie in W_ex^res")
    return translation_elt(sys, sys.rho) * check(ctx, x)
