"""Exact integer Laurent polynomials in a single variable v.

Coefficients are arbitrary-precision Python integers.  A value keeps its
support in normal form: a tuple of (exponent, coefficient) pairs with
strictly increasing exponents and no zero coefficient.  Sums,
differences and ``add_scaled`` (f + c v^e g) merge the two term tuples
in one pass; a product with an integer or a monomial scales and shifts
the terms; neither sorts.
Values are immutable and hashable, so they can be used as dictionary
entries everywhere else in the package: ``LaurentPoly`` is a
``rootsys._Value`` on the one field ``terms``.  This module imports no
other layer but ``errors`` and ``rootsys``; a warm command-line run
prints stored cells and executes neither.

``PackedCodec`` packs a polynomial of v^-1 Z[v] into one integer, for
the canonical-row kernel of ``hecke.KLComputer``.
"""

from __future__ import annotations

from typing import Mapping

from .errors import DomainError, ResourceError
from .rootsys import _Value


class LaurentPoly(_Value):
    """An element of Z[v, v^-1].

    ``terms`` is a tuple of (exponent, coefficient) pairs, sorted by
    exponent, with no zero coefficients stored.  Two values are equal,
    and hash alike, when their terms are; assigning or deleting an
    attribute raises AttributeError.

    >>> v = LaurentPoly.gen()
    >>> (v + v.bar()) ** 2
    LaurentPoly('v^-2 + 2 + v^2')
    >>> ((v + v.bar()) ** 2).eval_at_one()
    4
    >>> (1 + v).add_scaled(v, -2, shift=1)
    LaurentPoly('1 + v - 2*v^2')
    """

    __slots__ = _fields = ("terms",)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_dict(coeffs: Mapping[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((e, c) for e, c in coeffs.items() if c)))

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def gen(exponent: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial ``coeff * v**exponent``."""
        if coeff == 0:
            return _ZERO
        return LaurentPoly(((exponent, coeff),))

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly.gen(0, c)

    # -- ring structure --------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return LaurentPoly(_merge(self.terms, _coerce(other).terms, 1))

    __radd__ = __add__

    def add_scaled(self, other: "LaurentPoly", c: int, shift: int = 0) -> "LaurentPoly":
        """self + c * v**shift * other, by one merge."""
        return LaurentPoly(_merge(self.terms, other.terms, c, shift))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple([(e, -c) for e, c in self.terms]))

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return LaurentPoly(_merge(self.terms, _coerce(other).terms, -1))

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return LaurentPoly(_merge(_coerce(other).terms, self.terms, -1))

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return _ZERO
            return LaurentPoly(tuple([(e, c * other) for e, c in self.terms]))
        a, b = self.terms, _coerce(other).terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:  # a monomial shifts and scales the other factor
            ((e0, c0),) = a
            return LaurentPoly(tuple([(e0 + e, c0 * c) for e, c in b]))
        acc: dict[int, int] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return LaurentPoly.from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[v, v^-1]")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- involution and extraction ---------------------------------------

    def bar(self) -> "LaurentPoly":
        """The bar involution v -> v^-1."""
        return LaurentPoly(tuple([(-e, c) for e, c in reversed(self.terms)]))

    def coeff(self, exponent: int) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    def eval_at_one(self) -> int:
        return sum(c for _, c in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def in_positive_v(self) -> bool:
        """True if the polynomial lies in v * Z[v] (zero allowed)."""
        return all(e >= 1 for e, _ in self.terms)

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for _, c in self.terms)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in self.terms}

    @staticmethod
    def from_json(d: Mapping[str, int]) -> "LaurentPoly":
        return LaurentPoly.from_dict({int(e): int(c) for e, c in d.items()})

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.terms:
            if e == 0:
                body = str(c)
            else:
                var = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = f"-{var}"
                else:
                    body = f"{c}*{var}"
            pieces.append(body)
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


_ZERO = LaurentPoly(())
_ONE = LaurentPoly(((0, 1),))


def _coerce(x: "LaurentPoly | int") -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")


def _merge(a: tuple, b: tuple, c: int, shift: int = 0) -> tuple:
    """The terms of a + c v^shift b, for the terms a and b of two normal
    forms, by one pass over both."""
    if not b or not c:
        return a
    if c != 1 or shift:
        b = tuple([(e + shift, c * x) for e, x in b])
    if not a:
        return b
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea < eb:
            out.append(a[i])
            i += 1
        elif eb < ea:
            out.append(b[j])
            j += 1
        else:
            if ca + cb:
                out.append((ea, ca + cb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class PackedCodec:
    """Polynomials of v^-1 Z[v] packed into one integer.

    Kronecker substitution v -> 2^B (Harvey, J. Symbolic Comput. 44,
    2009): sum c_e v^e is the integer sum c_e 2^(B(e+1)), one signed
    B-bit digit per power of v, the v^-1 digit lowest.  The map is a ring
    homomorphism into Z, so sums and integer multiples are integer sums
    and multiples, v is a left shift by B and v^-1 a right shift by B,
    exact when the v^-1 digit is zero (on Z[v]).  An integer determines
    its balanced digits, in [-2^(B-1), 2^(B-1)), uniquely; they are the
    coefficients of the polynomial it was formed from whenever those lie
    in that range.

    A value is *certified* when its digits for v^-1 .. v^max_degree lie
    in [-2^b, 2^b), b = BOUND_BITS, and no higher digit is set: one
    biased mask-AND over the lowest n digits, n = min(bit length // B + 1,
    max_degree + 2).  That is exact both ways: passing at any such n
    forces every digit into [-2^b, 2^b), and a certified value whose top
    digit is the k-th (from 0) exceeds 2^(Bk-1) in absolute value, so
    n > k.  A sum of certified values, each times an integer, with
    multipliers of total absolute value m has coefficients of absolute
    value at most m 2^b, so its digits are its coefficients while
    m < 2^(B-1-b) = ``sum_bound``.  Only certified values are decoded.

    >>> codec = PackedCodec(4)
    >>> p = LaurentPoly.from_dict({1: 3, 2: -1})
    >>> codec.unpack(codec.pack(p) << PackedCodec.B)
    LaurentPoly('3*v^2 - v^3')
    >>> codec.mu(codec.pack(p)), codec.in_positive_v(codec.pack(p))
    (3, True)
    """

    B = 64
    BOUND_BITS = 32

    def __init__(self, max_degree: int):
        B, b = self.B, self.BOUND_BITS
        self.max_degree = max_degree
        self.one = 1 << B
        # the bias and the mask of the lowest n digits, at index n
        self._digits = max_degree + 2
        self._bias, self._outside = [0], [-1]
        for j in range(self._digits):
            self._bias.append(self._bias[-1] + (1 << (B * j + b)))
            self._outside.append(self._outside[-1] & ~(((1 << (b + 1)) - 1) << (B * j)))
        self._low = (1 << 2 * B) - 1
        self.sum_bound = 1 << (B - 1 - b)
        half = 1 << (B - 1)
        self._mu_bias = half * (1 + (1 << B) + (1 << 2 * B))

    def pack(self, p: LaurentPoly) -> int:
        """The integer of p, which must lie in v^-1 Z[v] with coefficients
        in [-2^b, 2^b) and degree at most max_degree."""
        out = 0
        for e, c in p.terms:
            if e < -1:
                raise DomainError(f"{p} has a power of v below v^-1")
            if e > self.max_degree or not -(1 << self.BOUND_BITS) <= c < 1 << self.BOUND_BITS:
                raise ResourceError(f"{p} exceeds the bounds of the packed representation")
            out += c << (self.B * (e + 1))
        return out

    def certified(self, x: int) -> bool:
        """True if the digits of x lie in [-2^b, 2^b) up to v^max_degree and
        none is set above."""
        n = x.bit_length() // self.B + 1
        if n > self._digits:
            n = self._digits
        return not (x + self._bias[n]) & self._outside[n]

    def unpack(self, x: int) -> LaurentPoly:
        """The polynomial of a certified x; ResourceError for any other."""
        if not self.certified(x):
            raise ResourceError(
                f"a packed coefficient exceeds the certified bound 2^{self.BOUND_BITS} "
                f"or degree {self.max_degree}"
            )
        B, half, mask = self.B, 1 << (self.B - 1), (1 << self.B) - 1
        terms = []
        e = -1
        while x:
            c = ((x + half) & mask) - half
            if c:
                terms.append((e, c))
            x = (x - c) >> B
            e += 1
        return LaurentPoly(tuple(terms))

    def mu(self, x: int) -> int:
        """The balanced digit of v^1 in x (the coefficient of v when x is
        certified)."""
        return (((x + self._mu_bias) >> 2 * self.B) & ((1 << self.B) - 1)) - (1 << (self.B - 1))

    def in_positive_v(self, x: int) -> bool:
        """For x certified: True if its polynomial lies in v Z[v]."""
        return not x & self._low
