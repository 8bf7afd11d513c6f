"""Finite crystallographic root data in the fundamental-weight basis.

Weights are integer vectors in the basis of fundamental weights for the
simply-connected lattice, so the pairing of a weight against the i-th
simple coroot is just its i-th coordinate.  Every positive root is stored
with three exact integer coordinate vectors: in fundamental weights, in
simple roots, and (for its coroot) in simple coroots; the last doubles as
the pairing functional of the coroot on the weight lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from .errors import ConfigError

_WEYL_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}

_NUM_POS_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True, slots=True)
class Weight:
    """An integral weight, as coordinates in the fundamental weights."""

    coords: tuple[int, ...]

    @staticmethod
    def zero(rank: int) -> "Weight":
        return Weight((0,) * rank)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "Weight":
        return Weight(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True, slots=True)
class PosRoot:
    """A positive root with exact coordinates in three bases.

    fund:   coordinates in fundamental weights (pairings with simple coroots)
    root:   coordinates in simple roots
    coroot: coordinates of the coroot in simple coroots; since the
            fundamental weights are dual to the simple coroots this tuple
            is also the pairing functional lam -> <lam, alpha^vee>.
    """

    fund: tuple[int, ...]
    root: tuple[int, ...]
    coroot: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.root)

    @property
    def coheight(self) -> int:
        return sum(self.coroot)

    def as_weight(self) -> Weight:
        return Weight(self.fund)


@dataclass(frozen=True, slots=True)
class RootSystem:
    """A finite root datum of simply-connected type."""

    cartan_type: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]  # cartan[i][j] = <alpha_j, alpha_i^vee>
    positive_roots: tuple[PosRoot, ...]
    w0_word: tuple[int, ...]  # 1-based indices of simple reflections
    weyl_order: int

    @property
    def rho(self) -> Weight:
        return Weight((1,) * self.rank)

    @property
    def simple_roots(self) -> tuple[Weight, ...]:
        return tuple(
            Weight(tuple(self.cartan[i][j] for i in range(self.rank)))
            for j in range(self.rank)
        )

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def coxeter_number(self) -> int:
        return 1 + max(r.coheight for r in self.positive_roots)

    @property
    def affine_root(self) -> PosRoot:
        """The positive root whose coroot is the highest coroot.

        The extra affine wall of the fundamental alcove lies on the
        hyperplane where this coroot pairs to 1.
        """
        best = max(self.positive_roots, key=lambda r: r.coheight)
        ties = [r for r in self.positive_roots if r.coheight == best.coheight]
        assert len(ties) == 1, "highest coroot must be unique"
        return best

    def __hash__(self) -> int:
        # the type and rank determine the rest of the datum
        return hash((self.cartan_type, self.rank))

    def pairing(self, lam: Weight, root: PosRoot) -> int:
        """<lam, alpha^vee> for the coroot of ``root``."""
        return sum(a * b for a, b in zip(lam.coords, root.coroot))

    def __str__(self) -> str:
        return f"{self.cartan_type}{self.rank}"


@dataclass(frozen=True, slots=True)
class ModularContext:
    """A root system together with a prime p > h."""

    system: RootSystem
    p: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ConfigError(f"p = {self.p} is not prime")
        h = self.system.coxeter_number
        if self.p <= h:
            raise ConfigError(f"p = {self.p} must exceed the Coxeter number {h}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- Cartan matrices ------------------------------------------------------


def _simply_laced(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    return c


def _cartan_matrix(cartan_type: str, n: int) -> list[list[int]]:
    """Rows pair simple roots against simple coroots: c[i][j] = <a_j, a_i^vee>."""
    path = [(i, i + 1) for i in range(n - 1)]
    if cartan_type == "A":
        return _simply_laced(n, path)
    if cartan_type == "B":
        # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
        c = _simply_laced(n, path)
        c[n - 1][n - 2] = -2
        return c
    if cartan_type == "C":
        c = _simply_laced(n, path)
        c[n - 2][n - 1] = -2
        return c
    if cartan_type == "D":
        return _simply_laced(n, path[:-2] + [(n - 3, n - 2), (n - 3, n - 1)])
    if cartan_type == "E":
        edges = [(0, 2), (2, 3), (3, 4), (1, 3), (4, 5)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        return _simply_laced(n, edges)
    if cartan_type == "F":
        c = _simply_laced(4, path)
        c[2][1] = -2  # <alpha_2, alpha_3^vee> = -2 (alpha_2 long, alpha_3 short)
        return c
    if cartan_type == "G":
        # alpha_1 short, alpha_2 long
        return [[2, -3], [-1, 2]]
    raise ConfigError(f"unknown Cartan type {cartan_type!r}")


_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@lru_cache(maxsize=None)
def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Construct the root datum for a finite Cartan type.

    Positive roots are produced by reflection closure from the simple
    roots and listed in (height, root-coordinate) order, which fixes the
    deterministic ordering used throughout the package.
    """
    cartan_type = cartan_type.upper()
    if cartan_type not in _RANK_RANGE:
        raise ConfigError(f"unknown Cartan type {cartan_type!r}")
    lo, hi = _RANK_RANGE[cartan_type]
    if rank < lo or (hi is not None and rank > hi):
        raise ConfigError(f"rank {rank} is not supported for type {cartan_type}")

    c = _cartan_matrix(cartan_type, rank)
    n = rank

    def simple(i: int) -> PosRoot:
        e = tuple(1 if k == i else 0 for k in range(n))
        return PosRoot(tuple(c[k][i] for k in range(n)), e, e)

    seen: dict[tuple[int, ...], PosRoot] = {}
    frontier = [simple(i) for i in range(n)]
    for r in frontier:
        seen[r.root] = r
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                pair_i = r.fund[i]  # <r, alpha_i^vee>
                root = list(r.root)
                root[i] -= pair_i
                if any(x < 0 for x in root):
                    continue  # reflection left the positive cone
                key = tuple(root)
                if key in seen:
                    continue
                fund = tuple(
                    r.fund[k] - pair_i * c[k][i] for k in range(n)
                )
                co_pair = sum(r.coroot[k] * c[k][i] for k in range(n))
                coroot = list(r.coroot)
                coroot[i] -= co_pair
                new = PosRoot(fund, key, tuple(coroot))
                seen[key] = new
                nxt.append(new)
        frontier = nxt

    roots = tuple(sorted(seen.values(), key=lambda r: (r.height, r.root)))
    expected = _NUM_POS_ROOTS[cartan_type](rank)
    if len(roots) != expected:
        raise ConfigError(
            f"root closure for {cartan_type}{rank} produced {len(roots)} "
            f"positive roots, expected {expected}"
        )

    w0_word = _longest_word(c, n)
    assert len(w0_word) == len(roots)

    return RootSystem(
        cartan_type=cartan_type,
        rank=rank,
        cartan=tuple(tuple(row) for row in c),
        positive_roots=roots,
        w0_word=w0_word,
        weyl_order=_WEYL_ORDER[cartan_type](rank),
    )


def _longest_word(c: list[list[int]], n: int) -> tuple[int, ...]:
    """A reduced word for the longest element, by sorting -rho to rho."""
    lam = [-1] * n
    picks = []
    while True:
        for i in range(n):
            if lam[i] < 0:
                break
        else:
            break
        picks.append(i)
        pair = lam[i]
        for k in range(n):
            lam[k] -= pair * c[k][i]
    # lam was hit by s_{i_k} ... s_{i_1}, so the product reads right to left
    return tuple(i + 1 for i in reversed(picks))


@lru_cache(maxsize=None)
def _root_index(sys: RootSystem) -> dict[tuple[int, ...], tuple[PosRoot, int]]:
    idx: dict[tuple[int, ...], tuple[PosRoot, int]] = {}
    for r in sys.positive_roots:
        idx[r.fund] = (r, 1)
        idx[tuple(-x for x in r.fund)] = (r, -1)
    return idx


# -- lattice arithmetic ----------------------------------------------------


@lru_cache(maxsize=None)
def _cartan_adjugate(sys: RootSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The determinant d > 0 of the Cartan matrix and its integer adjugate
    d C^-1: the root coordinates of lam are adj.lam / d.

    C is a positive diagonal matrix times a positive definite one, so
    every pivot of the elimination is positive and d is their product.
    """
    n = sys.rank
    a = [[Fraction(x) for x in row] for row in sys.cartan]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        scale = a[col][col]
        det *= scale
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    d = int(det)
    return d, tuple(tuple(int(x * d) for x in row) for row in inv)


def scaled_root_coords(sys: RootSystem, lam: Weight) -> tuple[int, tuple[int, ...]]:
    """d and the integers d * c, for c the root coordinates of ``lam``."""
    d, adj = _cartan_adjugate(sys)
    return d, tuple([sum(map(mul, row, lam.coords)) for row in adj])


def root_coords(sys: RootSystem, lam: Weight) -> tuple[Fraction, ...]:
    """Coordinates of ``lam`` in the simple roots (rational in general)."""
    d, c = scaled_root_coords(sys, lam)
    return tuple(Fraction(x, d) for x in c)


def in_root_lattice(sys: RootSystem, lam: Weight) -> bool:
    d, adj = _cartan_adjugate(sys)
    return all(sum(map(mul, row, lam.coords)) % d == 0 for row in adj)


def dominance_leq(sys: RootSystem, lam: Weight, mu: Weight) -> bool:
    """True iff mu - lam is a nonnegative integer combination of simple roots."""
    d, c = scaled_root_coords(sys, mu - lam)
    return all(x >= 0 and x % d == 0 for x in c)


# -- Kostant partition function --------------------------------------------


def kostant_partition(sys: RootSystem, nu: Weight, bound: int | None = None) -> int:
    """Number of ways to write nu as a sum of positive roots.

    Each positive root may be used any number of times, capped at
    ``bound`` when given (bound = p - 1 realizes the truncation relevant
    for small quantum/restricted enveloping dimensions).
    """
    d, target = scaled_root_coords(sys, nu)
    if any(x < 0 or x % d for x in target):
        return 0
    coords = tuple(x // d for x in target)
    # recurse over roots in decreasing height for aggressive pruning
    roots = tuple(r.root for r in reversed(sys.positive_roots))
    memo = _kostant_memo(sys)

    def rec(k: int, rest: tuple[int, ...]) -> int:
        if not any(rest):
            return 1
        if k >= len(roots):
            return 0
        key = (k, rest, bound)
        hit = memo.get(key)
        if hit is not None:
            return hit
        root = roots[k]
        cmax = min(rest[i] // root[i] for i in range(len(root)) if root[i])
        if bound is not None:
            cmax = min(cmax, bound)
        total = 0
        for c in range(cmax + 1):
            nxt = tuple(rest[i] - c * root[i] for i in range(len(root)))
            total += rec(k + 1, nxt)
        memo[key] = total
        return total

    return rec(0, coords)


@lru_cache(maxsize=None)
def _kostant_memo(sys: RootSystem) -> dict:
    return {}


def is_restricted(ctx: ModularContext, lam: Weight) -> bool:
    """True iff 0 <= <lam, alpha^vee> < p for every simple coroot."""
    return all(0 <= c < ctx.p for c in lam.coords)
