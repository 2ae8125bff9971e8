"""Exact scalar arithmetic and the combinatorial coefficient functions.

Everything in the package is computed over the Gaussian rationals: no
floating point appears anywhere, so equality checks are structural and
exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import NamedTuple


def binom(K: int, L: int) -> int:
    """Binomial coefficient, with binom(K, L) = 0 whenever K < L."""
    if K < 0 or L < 0:
        raise ValueError(f"binom requires nonnegative arguments, got ({K}, {L})")
    return math.comb(K, L)


def falling(n: int, L: int) -> int:
    """Falling factorial n(n-1)...(n-L+1); equals 1 for L = 0 and 0 for n < L."""
    if n < 0 or L < 0:
        raise ValueError(f"falling requires nonnegative arguments, got ({n}, {L})")
    return math.perm(n, L)


def count_to_str(n: int) -> str:
    """A count in decimal, or "at least 10^d" when it has too many digits for
    str (Python's integer-to-string limit), so a message can always name it."""
    try:
        return str(n)
    except ValueError:
        d = int(n.bit_length() * math.log10(2))  # the digit count or one less
        return f"at least 10^{d if n >= 10**d else d - 1}"


def epsilon(n: int, k: int) -> int:
    """Complement of the Kronecker delta: 0 when n == k, else 1."""
    return 0 if n == k else 1


def theta(L: int, n: int, k: int, N: int, K: int) -> int:
    """Coefficient of the order-L singular term in the smeared bracket.

    theta(L; n,k, N,K) =
        eps(k,0) eps(N,0) binom(k,L) falling(N,L)
      - eps(K,0) eps(n,0) binom(K,L) falling(n,L)

    Only L >= 2 is meaningful: the L = 1 contribution of the bracket is
    regular and carried separately by the smearing decomposition.
    """
    if L < 2:
        raise ValueError(f"theta is defined for L >= 2, got L={L}")
    if min(n, k, N, K) < 0:
        raise ValueError(f"theta requires nonnegative indices, got {(n, k, N, K)}")
    return epsilon(k, 0) * epsilon(N, 0) * binom(k, L) * falling(N, L) - epsilon(
        K, 0
    ) * epsilon(n, 0) * binom(K, L) * falling(n, L)


_F0 = Fraction(0)


def rational(x) -> Fraction:
    """x as a Fraction. Only exact rationals (int, Fraction) are accepted: a
    binary float would silently become a different rational."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"exact scalars take int or Fraction, got {type(x).__name__}")


class CScalar(NamedTuple("CScalar", [("re", Fraction), ("im", Fraction)])):
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ()

    def __new__(cls, re=_F0, im=_F0) -> "CScalar":
        return tuple.__new__(cls, (rational(re), rational(im)))

    @staticmethod
    def of(value) -> "CScalar":
        """Coerce an int, Fraction, or CScalar to a CScalar."""
        if isinstance(value, CScalar):
            return value
        return _cscalar(rational(value), _F0)

    def conjugate(self) -> "CScalar":
        return _cscalar(self.re, -self.im if self.im else _F0)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __neg__(self) -> "CScalar":
        return _cscalar(-self.re, -self.im if self.im else _F0)

    def __add__(self, other) -> "CScalar":
        if not isinstance(other, CScalar):
            other = CScalar.of(other)
        b, d = self.im, other.im
        return _cscalar(self.re + other.re, b + d if b or d else _F0)

    __radd__ = __add__

    def __sub__(self, other) -> "CScalar":
        if not isinstance(other, CScalar):
            other = CScalar.of(other)
        b, d = self.im, other.im
        return _cscalar(self.re - other.re, b - d if b or d else _F0)

    def __rsub__(self, other) -> "CScalar":
        return CScalar.of(other).__sub__(self)

    def __mul__(self, other) -> "CScalar":
        if isinstance(other, CScalar):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not b and not d:
                return _cscalar(a * c, _F0)
            return _cscalar(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return _cscalar(self.re * other, self.im * other if self.im else _F0)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CScalar":
        other = CScalar.of(other)
        denom = other.re * other.re + other.im * other.im
        if not denom:
            raise ZeroDivisionError("division by zero CScalar")
        return _cscalar(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _cscalar(re: Fraction, im: Fraction) -> CScalar:
    """A CScalar from parts that are already Fractions: the arithmetic's
    constructor, which skips the coercion in CScalar.__new__."""
    return tuple.__new__(CScalar, (re, im))


CS_ZERO = CScalar()
CS_ONE = CScalar(Fraction(1))
CS_I = CScalar(Fraction(0), Fraction(1))


def coeff_to_json(c: CScalar) -> list[int]:
    """The JSON form of a coefficient: [re num, re den, im num, im den]."""
    return [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]


def coeff_from_json(v: list) -> CScalar:
    return CScalar(Fraction(v[0], v[1]), Fraction(v[2], v[3]))


def rational_to_str(x: Fraction) -> str:
    """The string form of a rational in records: "p/q", or "p" when q = 1."""
    return str(x)


def rational_from_str(v) -> Fraction:
    """Inverse of rational_to_str. A JSON number or a decimal string, as
    hand-written records hold, reads as the decimal it prints as."""
    return Fraction(str(v))


class LinComb:
    """Canonical finite sum of terms with CScalar coefficients.

    A term is a tuple whose last field is its coefficient and whose other
    fields, in order, are its key. Like terms are merged, zero coefficients
    dropped and the rest sorted by key, so equal sums are equal tuples. A
    subclass also derives from a named tuple whose last field is ``terms``,
    after LinComb so that its ``+`` and ``-`` win over tuple concatenation;
    it says how keys are ordered and how a term is rebuilt from its fields.
    """

    __slots__ = ()
    terms: tuple

    order = None  # sort key over term keys; None sorts the keys themselves
    make = tuple  # a term from its fields: key fields, then the coefficient

    @classmethod
    def canonical(cls, terms, *head):
        """The sum of ``terms``; ``head`` fills the fields before ``terms``."""
        acc: dict = {}
        for t in terms:
            key, c = t[:-1], t[-1]
            old = acc.get(key)
            acc[key] = CScalar.of(c) if old is None else old + c
        order = cls.order
        items = sorted(acc.items(), key=itemgetter(0) if order is None else lambda kc: order(kc[0]))
        make = cls.make
        return cls(*head, tuple(make(key + (c,)) for key, c in items if c))

    @property
    def head(self) -> tuple:
        """The fields before ``terms`` (an Element's algebra kind); only sums
        with equal heads combine."""
        return self[:-1]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other: "LinComb", other_terms):
        if self.head != other.head:
            raise ValueError("algebra kind mismatch")
        return self.canonical(chain(self.terms, other_terms), *self.head)

    def __add__(self, other):
        return self._combine(other, other.terms)

    def __sub__(self, other):
        return self._combine(other, (t[:-1] + (-t[-1],) for t in other.terms))

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        c = CScalar.of(c)
        return self.canonical((t[:-1] + (c * t[-1],) for t in self.terms), *self.head)
