"""The extended affine Weyl group W ltimes X and its combinatorics.

Elements are stored as pairs (w, lam) representing w * t_lam, with the
finite part w kept as an integer matrix in the fundamental-weight basis
(together with its inverse, so that no matrix ever has to be inverted).
The multiplication rule is

    (w t_lam)(w' t_mu) = (w w') t_{w'^{-1}(lam) + mu}.

On top of the group structure this module provides Shi's alcove
coordinates and the length function read off them, the p-dilated
dot-action, the finite group Omega of length-zero elements, the
restricted elements and the check involution, the dot-stabilizers of
weights in the closure of the fundamental box, and a breadth-first
search conjugating an affine simple reflection into a finite one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, SearchError
from .rootsys import (
    ModularContext,
    PosRoot,
    RootSystem,
    Weight,
    _root_index,
    in_root_lattice,
    is_restricted,
    root_coords,
)

Mat = tuple[tuple[int, ...], ...]


def _identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_vec(m: Mat, v: tuple) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(row))) for row in m)


@dataclass(frozen=True, slots=True)
class ExtWeylElt:
    """An element w * t_lam of the extended affine Weyl group."""

    fin: Mat
    fin_inv: Mat
    translation: Weight

    def __mul__(self, other: "ExtWeylElt") -> "ExtWeylElt":
        return ExtWeylElt(
            _mat_mul(self.fin, other.fin),
            _mat_mul(other.fin_inv, self.fin_inv),
            Weight(_mat_vec(other.fin_inv, self.translation.coords)) + other.translation,
        )

    def inverse(self) -> "ExtWeylElt":
        return ExtWeylElt(
            self.fin_inv,
            self.fin,
            Weight(tuple(-c for c in _mat_vec(self.fin, self.translation.coords))),
        )

    def finite_apply(self, lam: Weight) -> Weight:
        """Apply only the finite part, linearly."""
        return Weight(_mat_vec(self.fin, lam.coords))

    def act_affine(self, point: tuple) -> tuple:
        """The affine action on X tensor Q: x -> w(x + lam)."""
        shifted = tuple(p + t for p, t in zip(point, self.translation.coords))
        return _mat_vec(self.fin, shifted)

    @property
    def rank(self) -> int:
        return len(self.fin)

    @property
    def has_trivial_finite_part(self) -> bool:
        return self.fin == _identity_mat(self.rank)

    def __str__(self) -> str:
        return f"(fin={self.fin}, t={self.translation})"


# -- constructors -----------------------------------------------------------


@lru_cache(maxsize=None)
def identity_elt(sys: RootSystem) -> ExtWeylElt:
    m = _identity_mat(sys.rank)
    return ExtWeylElt(m, m, Weight.zero(sys.rank))


def translation_elt(sys: RootSystem, lam: Weight) -> ExtWeylElt:
    m = _identity_mat(sys.rank)
    return ExtWeylElt(m, m, lam)


def reflection_mat(sys: RootSystem, root: PosRoot) -> Mat:
    n = sys.rank
    return tuple(
        tuple(
            (1 if k == j else 0) - root.fund[k] * root.coroot[j] for j in range(n)
        )
        for k in range(n)
    )


@lru_cache(maxsize=None)
def simple_reflection(sys: RootSystem, i: int) -> ExtWeylElt:
    """Coxeter generator of W_aff: i = 1..rank finite, i = 0 affine.

    The affine generator reflects in the hyperplane where the highest
    coroot pairs to 1, i.e. s_0 = t_theta s_theta for the corresponding
    root theta.
    """
    if i == 0:
        theta = sys.affine_root
        m = reflection_mat(sys, theta)
        return ExtWeylElt(m, m, -theta.as_weight())
    if not 1 <= i <= sys.rank:
        raise DomainError(f"no simple reflection with index {i}")
    root = next(r for r in sys.positive_roots if r.height == 1 and r.root[i - 1])
    m = reflection_mat(sys, root)
    return ExtWeylElt(m, m, Weight.zero(sys.rank))


def gen_indices(sys: RootSystem) -> range:
    """Indices of S_aff: 0 (affine) followed by 1..rank."""
    return range(sys.rank + 1)


def from_word(sys: RootSystem, word: tuple[int, ...] | list[int]) -> ExtWeylElt:
    x = identity_elt(sys)
    for i in word:
        x = x * simple_reflection(sys, i)
    return x


# -- Shi coordinates, length and descents ---------------------------------------


@lru_cache(maxsize=None)
def _root_images(sys: RootSystem, fin: Mat) -> tuple[tuple[int, int], ...]:
    """For each positive root beta, (j, sign) with w(beta) = sign * alpha_j,
    alpha_j the j-th positive root."""
    idx = _root_index(sys)
    position = {r: j for j, r in enumerate(sys.positive_roots)}
    out = []
    for beta in sys.positive_roots:
        alpha, sign = idx[tuple(_mat_vec(fin, beta.fund))]
        out.append((position[alpha], sign))
    return tuple(out)


def shi_coords(sys: RootSystem, fin: Mat, lam: Weight) -> tuple[int, ...]:
    """Shi's alcove coordinates of x = w t_lam (J.-Y. Shi, LNM 1179, 1986).

    Entry j is k_alpha for alpha the j-th positive root: the floor of
    <q, alpha^vee> at every interior point q of the alcove x(A+).  For
    each positive root beta with w(beta) = +-alpha it is <lam, beta^vee>
    on the sign +, and -<lam, beta^vee> - 1 on the sign -.  Crossing one
    wall moves exactly one coordinate by one, upward when it grows.
    """
    k = [0] * len(sys.positive_roots)
    for beta, (j, sign) in zip(sys.positive_roots, _root_images(sys, fin)):
        pair = sys.pairing(lam, beta)
        k[j] = pair if sign > 0 else -pair - 1
    return tuple(k)


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


@lru_cache(maxsize=None)
def finite_simple_mats(sys: RootSystem) -> tuple[Mat, ...]:
    return tuple(simple_reflection(sys, i).fin for i in range(1, sys.rank + 1))


@lru_cache(maxsize=None)
def finite_length_of(sys: RootSystem, m: Mat) -> int:
    return sum(map(abs, shi_coords(sys, m, Weight.zero(sys.rank))))


@lru_cache(maxsize=None)
def weyl_group(sys: RootSystem) -> tuple[Mat, ...]:
    """All elements of the finite Weyl group, by breadth-first closure."""
    gens = finite_simple_mats(sys)
    seen = {_identity_mat(sys.rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert len(seen) == sys.weyl_order
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def finite_word(sys: RootSystem, m: Mat) -> tuple[int, ...]:
    """Shortlex reduced word (1-based) of a finite Weyl group element."""
    word: list[int] = []
    gens = finite_simple_mats(sys)
    while m != _identity_mat(sys.rank):
        for i in range(1, sys.rank + 1):
            if finite_length_of(sys, _mat_mul(gens[i - 1], m)) < finite_length_of(sys, m):
                word.append(i)
                m = _mat_mul(gens[i - 1], m)
                break
        else:  # pragma: no cover - closure guarantees a descent
            raise AssertionError("no descent found")
    return tuple(word)


def finite_elt(sys: RootSystem, m: Mat) -> ExtWeylElt:
    word = finite_word(sys, m)
    inv = _identity_mat(sys.rank)
    gens = finite_simple_mats(sys)
    for i in reversed(word):
        inv = _mat_mul(inv, gens[i - 1])
    return ExtWeylElt(m, inv, Weight.zero(sys.rank))


@lru_cache(maxsize=None)
def w0_elt(sys: RootSystem) -> ExtWeylElt:
    x = identity_elt(sys)
    for i in sys.w0_word:
        x = x * simple_reflection(sys, i)
    return x


# -- the dot-action ------------------------------------------------------------


def dot_action(ctx: ModularContext, x: ExtWeylElt, mu: Weight) -> Weight:
    """(w t_lam) . mu = w(mu + p*lam + rho) - rho."""
    sys = ctx.system
    inner = mu + ctx.p * x.translation + sys.rho
    return x.finite_apply(inner) - sys.rho


# -- Omega: length-zero elements ------------------------------------------------


@dataclass(frozen=True, slots=True)
class OmegaElt:
    """A length-zero element of the extended affine Weyl group."""

    elt: ExtWeylElt


def lattice_class(sys: RootSystem, lam: Weight) -> tuple[int, ...]:
    """Canonical representative of lam modulo the root lattice."""
    c = root_coords(sys, lam)
    out = list(lam.coords)
    for j, x in enumerate(c):
        f = x.numerator // x.denominator
        if f:
            for k in range(sys.rank):
                out[k] -= f * sys.cartan[k][j]
    return tuple(out)


@lru_cache(maxsize=None)
def omega_group(sys: RootSystem) -> tuple[OmegaElt, ...]:
    """All length-zero elements, one per class of X modulo the root lattice.

    Each is found from t_lam, for a representative lam of its class, by
    following right descents down to length zero; right multiplication
    by S_aff stays in the class.
    """
    reps: dict[tuple[int, ...], Weight] = {lattice_class(sys, Weight.zero(sys.rank)): Weight.zero(sys.rank)}
    frontier = [Weight.zero(sys.rank)]
    fundamental = [
        Weight(tuple(1 if k == i else 0 for k in range(sys.rank)))
        for i in range(sys.rank)
    ]
    while frontier:
        nxt = []
        for lam in frontier:
            for om in fundamental:
                cls = lattice_class(sys, lam + om)
                if cls not in reps:
                    reps[cls] = Weight(cls)
                    nxt.append(Weight(cls))
        frontier = nxt

    out = []
    for lam in reps.values():
        x = translation_elt(sys, lam)
        while descents := right_descents(sys, x):
            x = x * simple_reflection(sys, descents[0])
        assert length(sys, x) == 0
        out.append(OmegaElt(x))
    out.sort(key=lambda o: elt_key(sys, o.elt))
    # conjugation by Omega permutes the Coxeter generators
    gens = [simple_reflection(sys, i) for i in gen_indices(sys)]
    gen_set = set(gens)
    for o in out:
        for s in gens:
            assert o.elt * s * o.elt.inverse() in gen_set
    return tuple(out)


@lru_cache(maxsize=None)
def _omega_by_class(sys: RootSystem) -> dict[tuple[int, ...], ExtWeylElt]:
    return {
        lattice_class(sys, o.elt.translation): o.elt for o in omega_group(sys)
    }


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
    fin = identity_elt(sys)
    for i in d["w"]:
        fin = fin * simple_reflection(sys, int(i))
    return ExtWeylElt(fin.fin, fin.fin_inv, Weight(tuple(int(c) for c in d["t"])))


# -- restricted elements and the check involution --------------------------------


@lru_cache(maxsize=None)
def restricted_element_for(sys: RootSystem, m: Mat) -> ExtWeylElt:
    """The unique element of W_ex^res with the given finite part.

    For u in W the recipe is u t_lam with lam = u^{-1}(sum of the
    fundamental weights indexed by {i : u^{-1}(alpha_i) < 0}); this makes
    u t_lam . 0 restricted for every p > h.
    """
    idx = _root_index(sys)
    inv = finite_elt(sys, m).fin_inv
    sigma = [0] * sys.rank
    for i in range(1, sys.rank + 1):
        alpha = next(r for r in sys.positive_roots if r.height == 1 and r.root[i - 1])
        image = tuple(_mat_vec(inv, alpha.fund))
        if idx[image][1] < 0:
            sigma[i - 1] = 1
    lam = Weight(_mat_vec(inv, tuple(sigma)))
    return ExtWeylElt(m, inv, lam)


def restricted_elements(ctx: ModularContext, length_bound: int) -> list[ExtWeylElt]:
    """All x in W_ex with l(x) <= bound and x . 0 restricted."""
    sys = ctx.system
    out = []
    zero = Weight.zero(sys.rank)
    for z in waff_elements(sys, length_bound):
        for om in omega_group(sys):
            x = om.elt * z
            if is_restricted(ctx, dot_action(ctx, x, zero)):
                out.append(x)
    out.sort(key=lambda x: elt_key(sys, x))
    return out


def is_restricted_elt(ctx: ModularContext, x: ExtWeylElt) -> bool:
    return is_restricted(ctx, dot_action(ctx, x, Weight.zero(ctx.system.rank)))


def check_for_system(sys: RootSystem, x: ExtWeylElt) -> ExtWeylElt:
    """The permutation x = t_lam w  ->  t_lam w0 w, where w is the
    restricted element sharing x's finite part (p-independent for p > h)."""
    w_res = restricted_element_for(sys, x.fin)
    t_part = x * w_res.inverse()
    assert t_part.has_trivial_finite_part
    return t_part * w0_elt(sys) * w_res


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
            m = reflection_mat(sys, r)
            out.append(ExtWeylElt(m, m, Weight.zero(sys.rank)))
        elif pair == ctx.p:
            m = reflection_mat(sys, r)
            out.append(ExtWeylElt(m, m, -r.as_weight()))
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
    omegas = [o.elt for o in omega_group(sys)]
    candidates = []
    for z in waff_elements(sys, radius):
        for om in omegas:
            u = om * z
            candidates.append(u)
    candidates.sort(key=lambda u: elt_key(sys, u))
    for u in candidates:
        t = u.inverse() * s * u
        if t in finite_simples:
            return u, t
    raise SearchError(f"no conjugating element within radius {radius}")


# -- formal theta elements --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ThetaPair:
    """The formal quotient H_{t_mu} (H_{t_nu})^{-1} attached to mu - nu.

    Both entries are dominant and reduced to disjoint support, so the
    pair depends only on the difference.
    """

    mu: Weight
    nu: Weight

    @staticmethod
    def from_weight(lam: Weight) -> "ThetaPair":
        mu = Weight(tuple(max(c, 0) for c in lam.coords))
        nu = Weight(tuple(max(-c, 0) for c in lam.coords))
        return ThetaPair(mu, nu)

    @property
    def weight(self) -> Weight:
        return self.mu - self.nu

    def __mul__(self, other: "ThetaPair") -> "ThetaPair":
        return ThetaPair.from_weight(self.weight + other.weight)

    def as_element(self, sys: RootSystem) -> ExtWeylElt:
        return translation_elt(sys, self.weight)
