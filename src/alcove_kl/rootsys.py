"""Finite crystallographic root data in the fundamental-weight basis.

Weights are integer vectors in the basis of fundamental weights for the
simply-connected lattice, so the pairing of a weight against the i-th
simple coroot is just its i-th coordinate.  Every positive root is stored
with three exact integer coordinate vectors: in fundamental weights, in
simple roots, and (for its coroot) in simple coroots; the last doubles as
the pairing functional of the coroot on the weight lattice.
Kostant partition counts are read off ``partition_table``, which fills a
box of simple-root coordinates and keeps nothing between calls.

The weight multiplicities of the baby Verma of highest weight lam lie
on the box lam - c, 0 <= c <= (p - 1) 2rho in simple-root coordinates,
and ``weight_table`` reads them off Kostant partition tables of that box
(Jantzen, Representations of Algebraic Groups, II.9): capped at p - 1
for the baby Verma and, for the Verma and costandard modules on the
baby Verma's weights, uncapped.  A box of more than ``_BOX_BOUND``
weights is refused with ResourceError.

The package's value classes are plain ``__slots__`` classes on the two
bases defined here: ``_Value`` (frozen and hashable: polynomials,
weights, roots, root systems, contexts, elements, labels, table entries)
and ``_Record`` (mutable tables and check results).  A value class
declares ``_fields``, from which the base builds its ``_key`` and, unless
the class writes its own, its constructor.  This module imports no
``laurent``, whose ``LaurentPoly`` is a ``_Value``.  No module imports
``dataclasses``, whose import of ``inspect`` every child would pay.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import attrgetter, mul

from .errors import ConfigError, ResourceError

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


class _Record:
    """A plain value class: ``x._key(x)`` returns its value, the tuple of
    the attributes that ``_fields`` names, in order.  Two instances of one
    class are equal when their values are, and an instance prints as
    ``Name(field=value, ...)``.  A record is mutable, so it has no hash.
    Unless the class defines ``__init__``, its constructor takes the
    fields in order, by position or by keyword, and sets each one."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # an attrgetter reads the fields in C; it binds to no instance,
        # so it is called with the instance as its argument
        fields = cls._fields
        if len(fields) > 1:
            cls._key = attrgetter(*fields)
        elif fields:
            get = attrgetter(fields[0])
            cls._key = staticmethod(lambda x: (get(x),))
        # compiled, as namedtuple's methods are: a loop over _fields is
        # several times slower, and a one-field key builds a 1-tuple on
        # each comparison
        code = {}
        if fields and "__init__" not in vars(cls):
            body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
            code["__init__"] = f"def __init__(self, {', '.join(fields)}):{body}"
        if len(fields) == 1:
            (f,) = fields
            if "__eq__" not in vars(cls):
                code["__eq__"] = (
                    "def __eq__(self, other):\n"
                    "    if other.__class__ is not self.__class__:\n"
                    "        return NotImplemented\n"
                    f"    return self.{f} == other.{f}"
                )
            if cls.__hash__ is not None and "__hash__" not in vars(cls):
                # the hash of the 1-tuple, as the key's, so no order moves
                code["__hash__"] = f"def __hash__(self):\n    return hash((self.{f},))"
        for name, source in code.items():
            namespace = {"_set": object.__setattr__, "__name__": cls.__module__}
            exec(source, namespace)
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class _Value(_Record):
    """A frozen record: it hashes by its value, and assigning or deleting
    an attribute raises AttributeError, so a constructor sets the slots
    with ``object.__setattr__``.  The constructor takes the value's
    fields in order, which is how it is copied and pickled."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)


class Weight(_Value):
    """An integral weight, as coordinates in the fundamental weights."""

    __slots__ = _fields = ("coords",)

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


class PosRoot(_Value):
    """A positive root with exact coordinates in three bases.

    fund:   coordinates in fundamental weights (pairings with simple coroots)
    root:   coordinates in simple roots
    coroot: coordinates of the coroot in simple coroots; since the
            fundamental weights are dual to the simple coroots this tuple
            is also the pairing functional lam -> <lam, alpha^vee>.
    """

    __slots__ = _fields = ("fund", "root", "coroot")

    @property
    def height(self) -> int:
        return sum(self.root)

    @property
    def coheight(self) -> int:
        return sum(self.coroot)

    def as_weight(self) -> Weight:
        return Weight(self.fund)


class RootSystem(_Value):
    """A finite root datum of simply-connected type.

    ``cartan[i][j]`` is <alpha_j, alpha_i^vee>, and ``w0_word`` holds the
    1-based indices of the simple reflections of a reduced word for w0.
    """

    __slots__ = _fields = (
        "cartan_type", "rank", "cartan", "positive_roots", "w0_word", "weyl_order",
    )

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


class ModularContext(_Value):
    """A root system together with a prime p > h.

    One context serves a query session.  It holds two private memos, so
    that reusing it spares rebuilding what it has read: ``_memo`` holds
    the tables the query layer has finished (``repcalc.loewy_layers``),
    keyed by their arguments, and ``_values`` the periodic coefficients
    that ``periodic._waff_kl`` and the batched ``periodic._waff_batch``
    have read, keyed by the orbit key of the pair (``periodic.orbit_key``)
    and the radius; the two readers store the same key and value for a
    pair.  Neither memo is
    part of the value: equal contexts compare and hash equal and print
    alike, they share no memo, a pickled context carries none, and no
    value returned through a context depends on its memos.
    """

    __slots__ = ("system", "p", "_memo", "_values")
    _fields = ("system", "p")

    def __init__(self, system: RootSystem, p: int):
        if p >= PRIME_BOUND:
            raise ConfigError(f"p = {p} is not below the primality bound {PRIME_BOUND}")
        if not _is_prime(p):
            raise ConfigError(f"p = {p} is not prime")
        h = system.coxeter_number
        if p <= h:
            raise ConfigError(f"p = {p} must exceed the Coxeter number {h}")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_values", {})


def default_radius(sys: RootSystem) -> int:
    """The default window radius, 3 l(w0) + 4, where l(w0) is the number
    of positive roots."""
    return 3 * sys.num_positive_roots + 4


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

PRIME_BOUND = 3317044064679887385961981
"""psi_13: Miller-Rabin on the first 13 primes as bases decides every
n below it exactly (J. Sorenson and J. Webster, Math. Comp. 86, 2017)."""


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the bases ``_MR_BASES``: exact for n < PRIME_BOUND."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r d with d odd
    d = (n - 1) >> r
    for a in _MR_BASES:
        powers = [pow(a, d << k, n) for k in range(r)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
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


# -- lattice arithmetic ----------------------------------------------------


@lru_cache(maxsize=None)
def _cartan_adjugate(sys: RootSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The determinant d > 0 of the Cartan matrix and its integer adjugate
    d C^-1: the root coordinates of lam are adj.lam / d.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [C | I]: after
    the step on column k each row but the pivot row holds minors of
    order k + 1 of [C | I], so every division is exact, and the last
    step leaves d I on the left and the adjugate on the right.  The
    pivots are the leading principal minors of C, which are positive: C
    is a positive diagonal matrix times a positive definite one.
    """
    n = sys.rank
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(sys.cartan)]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(m[i], m[k])]
        prev = pivot
    return prev, tuple(tuple(row[n:]) for row in m)


def scaled_root_coords(sys: RootSystem, lam: Weight) -> tuple[int, tuple[int, ...]]:
    """d and the integers d * c, for c the root coordinates of ``lam``."""
    d, adj = _cartan_adjugate(sys)
    return d, tuple([sum(map(mul, row, lam.coords)) for row in adj])


def root_coords(sys: RootSystem, lam: Weight) -> tuple:
    """Coordinates of ``lam`` in the simple roots, a tuple of ``Fraction``
    (rational in general)."""
    # imported here: fractions loads decimal, which no command needs
    from fractions import Fraction

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


def partition_table(sys: RootSystem, top: tuple[int, ...], bound: int | None = None) -> list[int]:
    """The Kostant partition count of every point 0 <= c <= top, in
    simple-root coordinates and ``itertools.product`` order: the ways to
    write c as a sum of positive roots, each used at most ``bound``
    times when given.

    The table is prod_alpha (1 - x^((bound+1) alpha)) / (1 - x^alpha)
    on the box: for each root an ascending pass adds the value alpha
    below, and a descending pass subtracts the value (bound+1) alpha
    below.  The passes commute, and each is exact because the box is
    closed downwards.
    """
    strides = [prod(t + 1 for t in top[i + 1 :]) for i in range(len(top))]
    table = [1] + [0] * (strides[0] * (top[0] + 1) - 1)
    steps = [(r.root, 1) for r in sys.positive_roots]
    if bound is not None:
        steps += [([(bound + 1) * a for a in r.root], -1) for r in sys.positive_roots]
    for step, sign in steps:
        cells = [0]  # flat indices of the c with c - step in the box, ascending
        for lo, hi, stride in zip(step, top, strides):
            cells = [base + c * stride for base in cells for c in range(lo, hi + 1)]
        off = sum(map(mul, step, strides))
        for i in cells if sign > 0 else reversed(cells):
            table[i] += sign * table[i - off]
    return table


def kostant_partition(sys: RootSystem, nu: Weight, bound: int | None = None) -> int:
    """Number of ways to write nu as a sum of positive roots.

    Each positive root may be used any number of times, capped at
    ``bound`` when given (bound = p - 1 gives the baby Verma weight
    multiplicities).  This is the last entry of ``partition_table`` up
    to the root coordinates of nu.
    """
    d, target = scaled_root_coords(sys, nu)
    if any(x < 0 or x % d for x in target):
        return 0
    return partition_table(sys, tuple(x // d for x in target), bound)[-1]


_BOX_BOUND = 1_000_000
"""Most weights ``weight_table`` reads: the box grows like p^rank."""


def weight_table(ctx: ModularContext, lam: Weight, bound: int | None) -> dict[Weight, int]:
    """The multiplicities mu -> dim on the baby Verma support of lam (see
    the module docstring), in product order, with partition parts capped
    at ``bound``: p - 1 for the baby Verma, None for the Verma and
    costandard modules.  The support is read off the table capped at
    p - 1, and the values off the table of ``bound``, which is the same
    list when ``bound`` is p - 1."""
    sys = ctx.system
    maxima = tuple((ctx.p - 1) * sum(col) for col in zip(*(r.root for r in sys.positive_roots)))
    points = prod(m + 1 for m in maxima)
    if points > _BOX_BOUND:
        raise ResourceError(
            f"the baby Verma weight box at p = {ctx.p} holds {points} weights, "
            f"more than the bound {_BOX_BOUND}"
        )
    support = partition_table(sys, maxima, ctx.p - 1)
    dims = support if bound == ctx.p - 1 else partition_table(sys, maxima, bound)
    cells = product(*(range(m + 1) for m in maxima))
    return {
        Weight(tuple(x - sum(map(mul, row, c)) for x, row in zip(lam.coords, sys.cartan))): d
        for c, baby, d in zip(cells, support, dims) if baby
    }


def is_restricted(ctx: ModularContext, lam: Weight) -> bool:
    """True iff 0 <= <lam, alpha^vee> < p for every simple coroot."""
    return all(0 <= c < ctx.p for c in lam.coords)
