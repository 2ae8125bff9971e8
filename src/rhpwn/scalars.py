"""Exact scalar arithmetic and the combinatorial coefficient functions.

Everything in the package is computed over the Gaussian rationals: no
floating point appears anywhere, so equality checks are structural and
exact. This base module also holds what ``wick`` and ``sandwich`` words share:
their sum type ``Sum``, the per-label block canon ``canon_map`` with its
``power`` check, and the errors ``DeltaAtZeroError`` and ``SingularPartError``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence


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
    """Complex number with exact rational real and imaginary parts.

    A product with a nonzero imaginary part is built from the parts' integer
    numerators and denominators: two ``Fraction`` reductions over a common
    denominator instead of four products and two sums of ``Fraction``."""

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
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            cn, cd, dn, dd = c.numerator, c.denominator, d.numerator, d.denominator
            den = ad * bd * cd * dd
            return _cscalar(Fraction(an * cn * bd * dd - bn * dn * ad * cd, den),
                            Fraction(an * dn * bd * cd + bn * cn * ad * dd, den))
        if isinstance(other, (int, Fraction)):
            return _cscalar(self.re * other, self.im * other if self.im else _F0)
        return NotImplemented

    __rmul__ = __mul__

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


def coeff_to_json(c: CScalar) -> list[int]:
    """The JSON form of a coefficient: [re num, re den, im num, im den]."""
    return [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]


def coeff_from_json(v: list) -> CScalar:
    return CScalar(Fraction(v[0], v[1]), Fraction(v[2], v[3]))


def rational_from_str(v) -> Fraction:
    """Inverse of ``str`` of a Fraction: "p/q", or "p" when q = 1. A JSON number
    or a decimal string, as hand-written records hold, reads as the decimal it
    prints as; a decimal exponent past 4300 (Python's int-to-string digit
    limit) is refused first."""
    text = str(v)
    exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)", text)
    if exponent and int(exponent[1]) > 4300:
        raise ValueError(f"decimal exponent past 4300 in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None


class DeltaAtZeroError(ValueError):
    """A pair delta with identical labels: delta(0) is never defined here."""


class SingularPartError(ValueError):
    """A singular contribution survives because a test function has f(0) != 0."""

    def __init__(self, message: str, terms: Sequence = ()):  # noqa: D107
        super().__init__(message)
        self.terms = tuple(terms)


PowMap = tuple[tuple[str, int], ...]


def canon_map(m: Mapping | Iterable[tuple], check) -> tuple:
    """Per-label values summed, zeros dropped, sorted by label. Each value is
    read through ``check(label, value)``, which rejects or converts it."""
    out: dict = {}
    for label, v in m.items() if isinstance(m, Mapping) else m:
        v = check(label, v)
        old = out.get(label)
        out[label] = v if old is None else old + v
    return tuple(sorted((label, v) for label, v in out.items() if v))


def power(label: str, e: int) -> int:
    """A creator, annihilator or field power, which must be nonnegative."""
    if e < 0:
        raise ValueError(f"negative power {e} at label {label!r}")
    return e


class LinComb:
    """Canonical finite sum of terms with CScalar coefficients.

    A term is a tuple whose last field is its coefficient and whose other
    fields, in order, are its key. Like terms are merged, zero coefficients
    dropped and the rest sorted by key, so equal sums are equal tuples; a
    merged term keeps the type of the first term of its key. A subclass also
    derives from a named tuple whose last field is ``terms``, after LinComb so
    that its ``+`` and ``-`` win over tuple concatenation. ``scaled`` by a
    nonzero scalar keeps the keys, so it keeps the term order too.
    """

    __slots__ = ()
    terms: tuple

    @classmethod
    def canonical(cls, terms, *head):
        """The sum of ``terms``; ``head`` fills the fields before ``terms``. A
        term alone at its key with a CScalar coefficient is kept as it is."""
        acc: dict = {}
        for t in terms:
            key, c = t[:-1], t[-1]
            old = acc.get(key)
            if old is None:
                acc[key] = [t, c if type(c) is CScalar else CScalar.of(c)]
            else:
                old[1] += c
        items = sorted(acc.items(), key=itemgetter(0)) if len(acc) > 1 else acc.items()
        return cls(*head, tuple([t if c is t[-1] else tuple.__new__(type(t), key + (c,))
                                 for key, (t, c) in items if c]))

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
        return self._combine(other, (tuple.__new__(type(t), t[:-1] + (-t[-1],))
                                     for t in other.terms))

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        """The sum times ``c``: no term vanishes or merges unless c = 0."""
        c = CScalar.of(c)
        terms = [tuple.__new__(type(t), t[:-1] + (c * t[-1],)) for t in self.terms] if c else ()
        return type(self)(*self.head, tuple(terms))


class Sum(LinComb, NamedTuple("Sum", [("terms", tuple)])):
    """A sum with no head: the white-noise words of wick, the sandwich words."""

    __slots__ = ()
