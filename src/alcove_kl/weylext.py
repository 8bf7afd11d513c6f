"""The extended affine Weyl group W ltimes X and its combinatorics.

An element w * t_lam is two integer values: the number of w in the
finite Weyl group table of its root system (``FiniteWeylGroup``), and
the tuple of coordinates of lam on the fundamental weights.  The table
numbers an element, with its inverse, the first time it turns up as a
product or a reflection, so a large group is never enumerated unless
``weyl_group`` asks for all of it.  In the table an element is its
signed positive-root permutation: a product composes two permutations
and looks the result up, memoized.  Its matrix on the fundamental-weight
basis is read off the permutation (row i is the coroot of
w^-1(alpha_i)); no two matrices are ever multiplied.  One translation
rule, t_lam v t_mu = v t_{v^-1(lam) + mu}, gives the product

    (w t_lam)(w' t_mu) = (w w') t_{w'^{-1}(lam) + mu}

and ``translate``, which forms t_lam x with no product.  An element
hashes as (number, translation), and pickles as its system, the root
permutation of w and the translation, so a pickle holds no table.

The group table also holds the system's label table (``LabelTable``,
``x.group.table``), which numbers every label once per process, and by
whose numbers every ``hecke.KLComputer`` of the system keys its rows.

Descents are read off stored data, not probed with products: the left
descents of a finite element off the signs of its root permutation at
the simple roots, and the right descents of a label off the stored
lengths of its neighbours in the label table, along which reduced words
and the Hecke duality oracle step.  The finite table keeps the number
of w0, the shortlex word of each element and its restricted element.

On top of the group structure this module provides Shi's alcove
coordinates, with the length function and the coset tests read off the
stored ones, the p-dilated dot-action, the group Omega of length-zero
elements, one per class of X modulo the root lattice, and the
restricted elements with the check involution and the identity gate's
``socle_pairs``.  The factorizations of an element the engine needs are
read off its coordinates rather than searched for with products: x =
t_nu w_res, with w_res the restricted element sharing x's finite part
(``restricted_shift``), and x = t_nu u with u finite (nu = u(lam)).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul, sub

from .errors import DomainError
from .rootsys import (
    ModularContext,
    PosRoot,
    RootSystem,
    Weight,
    _Value,
    _cartan_adjugate,
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
    here closes the whole group; only ``weyl_group`` does.  ``table`` is
    the system's ``LabelTable`` of affine labels.

    The left descents of an element are read off the signs of its
    permutation at the simple roots (``left_descents``), and the table
    keeps the facts the engine reads of a finite element: ``restricted[k]``,
    the restricted element with finite part k, made when k is numbered;
    its shortlex word (``word``), made on first use; and ``w0``, the
    number of the longest element, None until ``w0_elt`` first folds it.
    """

    __slots__ = (
        "mats", "inv", "roots", "elts", "restricted", "identity", "simples", "table", "w0",
        "_sys", "_index", "_products", "_stride", "_simple_pos", "_signed_coroots", "_words",
    )

    def __init__(self, sys: RootSystem):
        self._sys = sys
        self.mats: list[Mat] = []
        self.inv: list[int] = []
        self.roots: list[tuple[int, ...]] = []
        self.elts: list[ExtWeylElt] = []
        self.restricted: list[ExtWeylElt] = []
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
        self._words: dict[int, tuple[int, ...]] = {self.identity: ()}
        self.w0: int | None = None
        self.simples = tuple(self.reflection(sys.positive_roots[j]) for j in self._simple_pos)
        self.table = LabelTable(self)

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
        self.inv += [k] if len(new) == 1 else [k + 1, k]
        for m, p in enumerate(new, k):
            self._index[p] = m
            self.roots.append(p)
            # row i is the coroot of w^-1(alpha_i), read at alpha_i's position
            self.mats.append(tuple([self._signed_coroots[p[j]] for j in self._simple_pos]))
            self.elts.append(ExtWeylElt(m, (0,) * self._sys.rank, self))
        for m in range(k, len(self.roots)):
            # u t_lam with lam = u^-1(sum of omega_i over the left descents
            # s_i of u) makes u t_lam . 0 restricted for every p > h
            lam = _mat_vec(self.mats[self.inv[m]], self.left_descents(m))
            self.restricted.append(ExtWeylElt(m, lam, self))
        return k

    def left_descents(self, m: int) -> tuple[bool, ...]:
        """Entry i - 1 is whether s_i m is shorter than m: whether
        m^-1(alpha_i) is negative, the sign with which m maps a positive
        root onto +-alpha_i."""
        return tuple([self.roots[m][j] < 0 for j in self._simple_pos])

    def word(self, m: int) -> tuple[int, ...]:
        """The shortlex reduced word (1-based) of element m: its smallest
        left descent s_i, then the word of s_i m, one product a letter."""
        w = self._words.get(m)
        if w is None:
            i = self.left_descents(m).index(True)
            w = self._words[m] = (i + 1, *self.word(self.product(self.simples[i], m)))
        return w

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
        return self.number(tuple(perm))

    def number(self, perm: tuple[int, ...]) -> int:
        """The number of a signed root permutation, numbered if it is new."""
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
            k = self._products[key] = self.number(
                tuple([rj[b] if b >= 0 else ~rj[~b] for b in self.roots[i]])
            )
        return k


@lru_cache(maxsize=None)
def finite_group(sys: RootSystem) -> FiniteWeylGroup:
    """The finite Weyl group table of ``sys``, made on first use."""
    return FiniteWeylGroup(sys)


class ExtWeylElt(_Value):
    """An element w * t_lam of the extended affine Weyl group.

    ``fin`` is the number of w in the table ``group`` of its root system,
    and ``translation`` the coordinates of lam.  Equal elements share the
    table as well as ``fin`` and the translation; the hash and the printed
    form leave out the table.  A product with an element of another
    system raises DomainError.  An element pickles as its system, the
    signed root permutation of w and the translation, and w is numbered
    again on the reading process's table.
    """

    __slots__ = ("fin", "translation", "group", "_hash")
    _fields = ("fin", "translation")

    def __init__(self, fin: int, translation: tuple[int, ...], group: FiniteWeylGroup):
        _set_fin(self, fin)
        _set_translation(self, translation)
        _set_group(self, group)
        _set_hash(self, hash((fin, translation)))

    def __reduce__(self):
        g = self.group
        return _from_roots, (g._sys, g.roots[self.fin], self.translation)

    def __eq__(self, other: object) -> bool:
        try:
            return (
                self.fin == other.fin
                and self.group is other.group
                and self.translation == other.translation
            )
        except AttributeError:
            return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "ExtWeylElt") -> "ExtWeylElt":
        # (w t_lam)(w' t_mu) = (w w') t_lam' with t_lam w' t_mu = w' t_lam'
        g = self.group
        if other.group is not g:
            raise _other_system(g._sys, other)
        return ExtWeylElt(g.product(self.fin, other.fin), _moved(self.translation, other), g)

    def inverse(self) -> "ExtWeylElt":
        # (w t_lam)^-1 = t_{-lam} w^-1
        g = self.group
        return translate(tuple([-c for c in self.translation]), g.elts[g.inv[self.fin]])

    def finite_apply(self, lam: Weight) -> Weight:
        """Apply only the finite part, linearly."""
        return Weight(_mat_vec(self.group.mats[self.fin], lam.coords))

    def act_affine(self, point: tuple) -> tuple:
        """The affine action on X tensor Q: x -> w(x + lam)."""
        shifted = tuple(p + t for p, t in zip(point, self.translation))
        return _mat_vec(self.group.mats[self.fin], shifted)


# each slot's own setter, called once per slot: object.__setattr__ would
# look the slot up by name on every call, and assignment is refused
_set_fin, _set_translation, _set_group, _set_hash = (
    ExtWeylElt.__dict__[name].__set__ for name in ExtWeylElt.__slots__
)


def _moved(lam: tuple[int, ...], x: ExtWeylElt) -> tuple[int, ...]:
    """The translation rule of the product and of ``translate``: the
    translation of t_lam x, v^-1(lam) + mu for x = v t_mu."""
    g = x.group
    return tuple([
        sum(map(mul, row, lam)) + m for row, m in zip(g.mats[g.inv[x.fin]], x.translation)
    ])


def _other_system(sys: RootSystem, x: ExtWeylElt) -> DomainError:
    return DomainError(f"an element of {x.group._sys} where one of {sys} is expected")


def _table_of(sys: RootSystem, x: ExtWeylElt) -> LabelTable:
    """The label table of x; DomainError for an element of another system."""
    other = x.group._sys
    if other is not sys and other != sys:
        raise _other_system(sys, x)
    return x.group.table


def _from_roots(sys: RootSystem, roots: tuple[int, ...], translation: tuple[int, ...]) -> ExtWeylElt:
    """The element a pickle holds, numbered on the table of ``sys``."""
    g = finite_group(sys)
    return ExtWeylElt(g.number(roots), translation, g)


class LabelTable:
    """The labels of one root system, numbered as they are met (F. du
    Cloux's encoding, Experiment. Math. 2002), and what is known of each.

    The table lives on the system's ``FiniteWeylGroup`` (``x.group.table``),
    and every ``hecke.KLComputer`` of the system keys its rows by its
    numbers, so each fact about a label is formed once per process:

    - ``elts[k]`` is the element numbered k, and ``index`` maps it back;
    - ``shi[k]`` are its Shi coordinates, computed when it is numbered;
    - ``nbrs[k][i]`` is the number of elts[k] s_i, formed the first time
      it is asked for; s_i is an involution, so that also fills the
      entry of elts[k] s_i back.  Right descents (``right_descents``)
      compare the lengths of these neighbours, and reduced words and the
      Hecke duality oracle step along them;
    - ``level[k]`` is its length once the breadth-first order of W_aff
      holds it (``depth``); no other label has an entry.

    The breadth-first order lists W_aff by length from the identity, in
    the order ``waff_elements`` returns, and grows one length at a time
    as longer elements are asked for.  The Shi coordinates of check(x)
    are kept per number once read (``check_shi``).  ``gens`` are the
    Coxeter generators s_0, s_1, ..., s_rank.
    """

    __slots__ = (
        "gens", "elts", "index", "shi", "nbrs", "level",
        "_sys", "_identity", "_checks", "_order", "_ends",
    )

    def __init__(self, group: FiniteWeylGroup):
        sys = group._sys
        theta = sys.affine_root
        self.gens = (
            ExtWeylElt(group.reflection(theta), tuple([-c for c in theta.fund]), group),
            *(group.elts[s] for s in group.simples),
        )
        self.elts: list[ExtWeylElt] = []
        self.index: dict[ExtWeylElt, int] = {}
        self.shi: list[tuple[int, ...]] = []
        self.nbrs: list[list[int | None]] = []
        self.level: dict[int, int] = {}
        self._sys = sys
        self._identity = group.elts[group.identity]
        self._checks: dict[int, tuple[int, ...]] = {}
        self._order: list[int] = []
        self._ends: list[int] = []  # _order[:_ends[L]] has length <= L

    def number(self, x: ExtWeylElt) -> int:
        """The number of x, assigned on first sight."""
        k = self.index.get(x)
        if k is None:
            if x.group is not self._identity.group:
                raise _other_system(self._sys, x)
            k = self.index[x] = len(self.elts)
            self.elts.append(x)
            self.shi.append(shi_coords(self._sys, x.fin, x.translation))
            self.nbrs.append([None] * len(self.gens))
        return k

    def coords(self, x: ExtWeylElt) -> tuple[int, ...]:
        """The Shi coordinates of x."""
        return self.shi[self.number(x)]

    def nbr(self, k: int, i: int) -> int:
        """The number of x s_i for x the element numbered k."""
        n = self.nbrs[k][i]
        if n is None:
            n = self.nbrs[k][i] = self.number(self.elts[k] * self.gens[i])
            self.nbrs[n][i] = k
        return n

    def depth(self, x: ExtWeylElt) -> int | None:
        """The length of x if the breadth-first order holds it, else None."""
        return self.level.get(self.index.get(x))

    def waff_order(self, length_bound: int) -> list[int]:
        """The numbers of the W_aff elements of length at most the bound,
        in breadth-first order from the identity: each length is listed
        once, from the neighbours of the one before it, in order."""
        order, ends, level, shi = self._order, self._ends, self.level, self.shi
        if not ends:
            k = self.number(self._identity)
            level[k] = 0
            order.append(k)
            ends.append(1)
        while len(ends) <= length_bound:
            cur = len(ends)
            for k in order[ends[-2] if cur > 1 else 0 : ends[-1]]:
                for i in range(len(self.gens)):
                    n = self.nbr(k, i)
                    if n not in level and sum(map(abs, shi[n])) == cur:
                        level[n] = cur
                        order.append(n)
            ends.append(len(order))
        return order[: ends[max(length_bound, 0)]]

    def check_shi(self, k: int) -> tuple[int, ...]:
        """The Shi coordinates of check(x) for x the element numbered k."""
        c = self._checks.get(k)
        if c is None:
            xv = check_for_system(self._sys, self.elts[k])
            c = self._checks[k] = shi_coords(self._sys, xv.fin, xv.translation)
        return c


# -- constructors -----------------------------------------------------------


def identity_elt(sys: RootSystem) -> ExtWeylElt:
    return finite_group(sys).elts[0]


def translation_elt(sys: RootSystem, lam: Weight) -> ExtWeylElt:
    g = finite_group(sys)
    return ExtWeylElt(g.identity, lam.coords, g)


def simple_reflection(sys: RootSystem, i: int) -> ExtWeylElt:
    """Coxeter generator of W_aff: i = 1..rank finite, i = 0 affine, as
    the system's label table holds it.

    The affine generator reflects in the hyperplane where the highest
    coroot pairs to 1, i.e. s_0 = t_theta s_theta for the corresponding
    root theta.
    """
    if not 0 <= i <= sys.rank:
        raise DomainError(f"no simple reflection with index {i}")
    return finite_group(sys).table.gens[i]


def translate(lam: tuple[int, ...], x: ExtWeylElt) -> ExtWeylElt:
    """t_lam x, read off coordinates by the product's translation rule:
    for x = v t_mu it is v t_{v^-1(lam) + mu}, and no product is formed."""
    return ExtWeylElt(x.fin, _moved(lam, x), x.group)


def gen_indices(sys: RootSystem) -> range:
    """Indices of S_aff: 0 (affine) followed by 1..rank."""
    return range(sys.rank + 1)


def from_word(sys: RootSystem, word: tuple[int, ...] | list[int]) -> ExtWeylElt:
    return reduce(mul, [simple_reflection(sys, i) for i in word], identity_elt(sys))


# -- Shi coordinates, length and descents ---------------------------------------


def shi_coords(sys: RootSystem, fin: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    """Shi's alcove coordinates of x = w t_lam (J.-Y. Shi, LNM 1179, 1986).

    Entry j is k_alpha for alpha the j-th positive root: the floor of
    <q, alpha^vee> at every interior point q of the alcove x(A+).  For
    each positive root beta with w(beta) = +-alpha it is <lam, beta^vee>
    on the sign +, and -<lam, beta^vee> - 1 on the sign -.  Crossing one
    wall moves exactly one coordinate by one, upward when it grows.
    """
    pair = [sum(map(mul, lam, r.coroot)) for r in sys.positive_roots]
    return tuple([
        pair[b] if b >= 0 else -1 - pair[~b] for b in finite_group(sys).roots[fin]
    ])


@lru_cache(maxsize=None)
def length(sys: RootSystem, x: ExtWeylElt) -> int:
    """The number of walls between A+ and x(A+): the sum of |k_alpha|,
    read off the Shi coordinates the label table holds."""
    return sum(map(abs, _table_of(sys, x).coords(x)))


def is_coset_maximal(sys: RootSystem, x: ExtWeylElt) -> bool:
    """Maximal in Wx: every finite simple reflection is a left descent.

    s_i x(A+) is the mirror image of x(A+) in the wall of alpha_i, which
    sends k_{alpha_i} to -1 - k_{alpha_i} and permutes the other Shi
    coordinates, so s_i x is shorter exactly when k_{alpha_i}(x) < 0.  The
    simple roots are the positive roots of height one, listed first.
    """
    k = _table_of(sys, x).coords(x)
    return all(c < 0 for c in k[: sys.rank])


def is_coset_minimal(sys: RootSystem, x: ExtWeylElt) -> bool:
    """Minimal in Wx: every finite simple reflection is a left ascent, so
    every simple Shi coordinate is >= 0."""
    k = _table_of(sys, x).coords(x)
    return all(c >= 0 for c in k[: sys.rank])


def right_descents(sys: RootSystem, x: ExtWeylElt) -> list[int]:
    """The i with x s_i shorter than x, in increasing order: x is
    numbered in the label table, and the lengths of its neighbours
    ``nbr(k, i)`` are compared, so each x s_i is formed once per process."""
    table = _table_of(sys, x)
    k, shi = table.number(x), table.shi
    lx = sum(map(abs, shi[k]))
    return [i for i in gen_indices(sys) if sum(map(abs, shi[table.nbr(k, i)])) < lx]


def reduced_word(sys: RootSystem, x: ExtWeylElt) -> tuple[int, ...]:
    """A canonical reduced word in S_aff (greedy smallest right descent),
    stepped along the label table's neighbours."""
    if not in_waff(sys, x):
        raise DomainError("reduced words are defined for W_aff elements only")
    table = x.group.table
    out: list[int] = []
    while descents := right_descents(sys, x):
        out.append(descents[0])
        x = table.elts[table.nbr(table.index[x], descents[0])]
    return tuple(reversed(out))


def in_waff(sys: RootSystem, x: ExtWeylElt) -> bool:
    """The translation lies in the root lattice, as ``in_root_lattice``
    tests it; DomainError for an element of another system."""
    _table_of(sys, x)
    d, adj = _cartan_adjugate(sys)
    return all(sum(map(mul, row, x.translation)) % d == 0 for row in adj)


# -- the finite Weyl group ----------------------------------------------------


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


def finite_word(sys: RootSystem, m: int) -> tuple[int, ...]:
    """Shortlex reduced word (1-based) of a finite Weyl group element,
    kept on the finite table (``FiniteWeylGroup.word``): its smallest
    left descent, read off the signs of its root permutation, first."""
    return finite_group(sys).word(m)


def finite_elt(sys: RootSystem, m: int) -> ExtWeylElt:
    return finite_group(sys).elts[m]


def w0_elt(sys: RootSystem) -> ExtWeylElt:
    """The longest element, whose number the finite table keeps: folded
    from finite-table products along ``sys.w0_word`` on first use."""
    g = finite_group(sys)
    if g.w0 is None:
        g.w0 = reduce(g.product, [g.simples[i - 1] for i in sys.w0_word], g.identity)
    return g.elts[g.w0]


# -- the dot-action ------------------------------------------------------------


def dot_action(ctx: ModularContext, x: ExtWeylElt, mu: Weight) -> Weight:
    """(w t_lam) . mu = w(mu + p*lam + rho) - rho."""
    sys = ctx.system
    _table_of(sys, x)
    inner = mu + ctx.p * Weight(x.translation) + sys.rho
    return x.finite_apply(inner) - sys.rho


# -- Omega: length-zero elements ------------------------------------------------


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


def waff_elements(sys: RootSystem, length_bound: int) -> tuple[ExtWeylElt, ...]:
    """All W_aff elements of length at most the bound, BFS from identity.

    A prefix of the one breadth-first order the system's label table
    holds (``LabelTable.waff_order``): the group is walked once per
    system, each length the first time a bound reaches it, so a longer
    bound extends the order a shorter one read and forms no product
    again.  Each call reads the prefix into a new tuple; the table, not
    a memo, keeps the elements.
    """
    table = finite_group(sys).table
    return tuple(map(table.elts.__getitem__, table.waff_order(length_bound)))


@lru_cache(maxsize=None)
def w0_waff_elements(
    sys: RootSystem, length_bound: int
) -> tuple[tuple[ExtWeylElt, ExtWeylElt], ...]:
    """The pairs (w0 y, y) for y in ``waff_elements(sys, length_bound)``,
    in its order, memoized beside it: w0 y is formed once per (system,
    bound), not once for each table that reads the pairs.  Both labels
    are the label table's own elements, so a lookup of either in the
    table, or in a memo the table's elements key, matches by identity."""
    w0, table = w0_elt(sys), finite_group(sys).table
    elts, number = table.elts, table.number
    return tuple([(elts[number(w0 * y)], y) for y in waff_elements(sys, length_bound)])


def elt_key(sys: RootSystem, x: ExtWeylElt):
    """Deterministic sort key: length, then canonical serialization."""
    return (length(sys, x), finite_word(sys, x.fin), x.translation)


def elt_to_json(sys: RootSystem, x: ExtWeylElt) -> dict:
    _table_of(sys, x)
    return {"w": list(finite_word(sys, x.fin)), "t": list(x.translation)}


def elt_from_json(sys: RootSystem, d: dict) -> ExtWeylElt:
    fin = from_word(sys, [int(i) for i in d["w"]])
    return ExtWeylElt(fin.fin, tuple([int(c) for c in d["t"]]), fin.group)


# -- restricted elements and the check involution --------------------------------


def restricted_element_for(sys: RootSystem, m: int) -> ExtWeylElt:
    """The unique element of W_ex^res with the given finite part.

    For u in W the recipe is u t_lam with lam = u^{-1}(sum of the
    fundamental weights indexed by the left descents s_i of u, those with
    u^{-1}(alpha_i) < 0); this makes u t_lam . 0 restricted for every
    p > h.  The finite table makes it when it numbers u
    (``FiniteWeylGroup.restricted``).
    """
    return finite_group(sys).restricted[m]


def is_restricted_elt(ctx: ModularContext, x: ExtWeylElt) -> bool:
    return is_restricted(ctx, dot_action(ctx, x, Weight.zero(ctx.system.rank)))


def restricted_shift(sys: RootSystem, x: ExtWeylElt) -> Weight:
    """The nu with x = t_nu w_res, w_res the restricted element sharing
    x's finite part: for x = w t_lam and w_res = w t_mu it is w(lam - mu)."""
    _table_of(sys, x)
    mu = restricted_element_for(sys, x.fin).translation
    return Weight(_mat_vec(x.group.mats[x.fin], tuple(map(sub, x.translation, mu))))


def check_for_system(sys: RootSystem, x: ExtWeylElt) -> ExtWeylElt:
    """The permutation x = t_nu w  ->  t_nu w0 w, where w is the
    restricted element sharing x's finite part (p-independent for p > h).

    For w = u t_mu, w0 w is (w0 u) t_mu, one finite-table product, and
    t_nu is applied to it from coordinates (``translate``), so no group
    product is formed.  ``LabelTable.check_shi`` keeps the coordinates
    of the value once per label."""
    g, nu = x.group, restricted_shift(sys, x).coords  # refuses another system's x
    w0w = ExtWeylElt(g.product(w0_elt(sys).fin, x.fin), g.restricted[x.fin].translation, g)
    return translate(nu, w0w)


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
