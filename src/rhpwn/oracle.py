"""Single-mode polynomial-representation oracle for the commutator calculus.

The annihilator acts as d/dx and the creator as multiplication by x on the
monomial basis x^0 .. x^D, so every operator is exact integer arithmetic and
the canonical commutation relation holds algebraically on all basis vectors
whose images stay below the truncation degree. Operators act column by column:
a column is the image of one monomial x^c, a dict from degree to nonzero
coefficient, reached by stepping the ladder operators on x^c. A normally
ordered word maps each monomial to a multiple of one monomial, so its column
map, cached per word on ``build(D)``, holds (degree, coefficient) or None.
Every term of the commutator expansion maps x^c to a multiple of the same
monomial, so each guard-safe column reduces to one integer, the sum of the
terms' coefficients, and a term at any other degree fails the check. This
gives an independent brute-force check of the two-point commutator
coefficients (at coincident points, with every delta set to 1) and of the
seed identity behind the exponential exchange rules.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .scalars import binom, falling

Column = dict[int, int]
WordMap = list[Optional[tuple[int, int]]]

# [a - a^+, a + a^+] = 2: the central commutator behind the exchange seed.
PQ_COMMUTATOR = 2


def _step(col: Column, D: int, lower: int, upper: int) -> Column:
    """(lower * annihilator + upper * creator) applied to a column."""
    out: Column = {}
    for d, v in col.items():
        if lower and d:
            out[d - 1] = out.get(d - 1, 0) + lower * d * v
        if upper and d < D:
            out[d + 1] = out.get(d + 1, 0) + upper * v
    return {d: v for d, v in out.items() if v}


def _is_zero(col: Column) -> bool:
    return not any(col.values())


def _combine(*terms: tuple[int, Column]) -> Column:
    """Sum of scale * column over the terms."""
    out: Column = {}
    for scale, col in terms:
        for d, v in col.items():
            out[d] = out.get(d, 0) + scale * v
    return out


class PolyRepOps:
    """Exact ladder operators on x^0 .. x^D, applied column by column.

    The annihilator maps x^m to m x^(m-1); the creator maps x^m to x^(m+1)
    and truncates x^D to zero. Built via build(), which verifies the
    commutation relation on all guard-safe columns.
    """

    def __init__(self, D: int):
        if D < 2:
            raise ValueError(f"truncation degree must be at least 2, got {D}")
        self.D = D
        self._words: dict[tuple[int, int], WordMap] = {}
        for c in range(D):  # column D is the guard row
            x = {c: 1}
            comm = _combine(
                (1, self.annihilate(self.create(x))), (-1, self.create(self.annihilate(x)))
            )
            if not _is_zero(_combine((1, comm), (-1, x))):
                raise ValueError("ladder operators violate the commutation relation")

    def annihilate(self, col: Column) -> Column:
        return _step(col, self.D, 1, 0)

    def create(self, col: Column) -> Column:
        return _step(col, self.D, 0, 1)

    def q_power(self, m: int, col: Column) -> Column:
        """(annihilator + creator)^m applied to a column."""
        for _ in range(m):
            col = _step(col, self.D, 1, 1)
        return col

    def word(self, n: int, k: int) -> WordMap:
        """Column map of the normally ordered word creator^n annihilator^k:
        entry c is the (degree, coefficient) of its image of x^c, or None."""
        key = (n, k)
        if key not in self._words:
            cols = []
            for c in range(self.D + 1):
                col = {c: 1}
                for _ in range(k):
                    col = self.annihilate(col)
                for _ in range(n):
                    col = self.create(col)
                cols.append(next(iter(col.items()), None))
            self._words[key] = cols
        return self._words[key]


@lru_cache(maxsize=None)
def build(D: int) -> PolyRepOps:
    return PolyRepOps(D)


def _apply(words: tuple[WordMap, ...], c: int) -> Optional[tuple[int, int]]:
    """(degree, coefficient) of the image of x^c under the product of
    ``words``, the first applied first, or None where it vanishes."""
    coeff = 1
    for word in words:
        hit = word[c]
        if not hit:
            return None
        c, v = hit
        coeff *= v
    return c, coeff


def _column_bound(steps: list[tuple[int, int]], D: int) -> int:
    """The largest column whose degree path, for monomial words applied right
    to left, never exceeds D.

    Each step (k, n) lowers the degree by k then raises it by n; once the
    monomial is annihilated exactly (degree below k) nothing can overflow.
    Each of these conditions holds for every column below one that meets it,
    so the safe columns are 0..bound, and the bound follows from the steps
    alone, last step first.
    """
    bound = D
    for k, n in reversed(steps):
        bound = max(k - 1, min(D, bound) + k - n)
    return bound


def _safe_columns(n: int, k: int, N: int, K: int, D: int) -> range:
    """Columns of x^0 .. x^D whose degree paths stay within D for both
    products of the words (n, k) and (N, K).

    The expansion words (n+N-L, k+K-L) need no paths of their own: they
    annihilate x^c when c < k+K-L and otherwise land where the products do,
    at c + n+N-k-K. A column on which both products land above D is
    annihilated by one of them, so c < min(max(K, k+K-N), max(k, k+K-n)),
    which is k+K-L for the largest L of the expansion.
    """
    bound = min(_column_bound([(K, N), (k, n)], D), _column_bound([(k, n), (K, N)], D))
    return range(min(D, bound) + 1)


def check_eq1(n: int, k: int, N: int, K: int, D: int = 40) -> bool:
    """Compare the commutator of two words with the expansion

        sum_L binom(k,L) falling(N,L) word(n+N-L, k+K-L)
      - sum_L binom(K,L) falling(n,L) word(N+n-L, K+k-L)

    coefficient-exactly on every guard-safe column (those whose degree paths
    never exceed D): each term maps x^c to a multiple of x^(c + n + N - k - K),
    so the column is one integer, which must vanish, and a term landing at
    any other degree fails. This is the coincident-point shadow of the
    two-point commutator, with every delta power set to 1.
    """
    if min(n, k, N, K) < 0:
        raise ValueError("indices must be nonnegative")
    if D <= n + k + N + K:
        raise ValueError(f"guard band violated: need D > {n + k + N + K}, got {D}")
    ops = build(D)
    w1, w2 = ops.word(n, k), ops.word(N, K)
    rhs = []
    for L in range(1, min(k, N) + 1):
        rhs.append((binom(k, L) * falling(N, L), ops.word(n + N - L, k + K - L)))
    for L in range(1, min(K, n) + 1):
        rhs.append((-binom(K, L) * falling(n, L), ops.word(N + n - L, K + k - L)))
    safe_columns = _safe_columns(n, k, N, K, D)
    assert safe_columns, "guard band left no safe columns"
    # Every term maps x^c to a multiple of x^(c + shift): one integer per column.
    shift = n + N - k - K
    terms = [(1, (w2, w1)), (-1, (w1, w2)), *((-scale, (word,)) for scale, word in rhs)]
    for c in safe_columns:
        total = 0
        for scale, words in terms:
            hit = _apply(words, c)
            if hit:
                if hit[0] != c + shift:
                    return False
                total += scale * hit[1]
        if total:
            return False
    return True


def check_exchange_seed(m: int, D: int = 16) -> bool:
    """Verify [a - a^+, (a + a^+)^m] = 2m (a + a^+)^(m-1) on guard-safe columns.

    This central-commutator fact (with delta set to 1) seeds the exponential
    exchange rules: iterating it gives their full binomial form.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    if D <= m + 2:
        raise ValueError(f"guard band violated: need D > {m + 2}, got {D}")
    ops = build(D)

    def p(col: Column) -> Column:
        return _step(col, D, 1, -1)

    # Every factor raises the degree by at most one: a column c is safe when
    # c + m + 1 stays within the truncation.
    for c in range(D - m):
        x = {c: 1}
        lhs = _combine((1, p(ops.q_power(m, x))), (-1, ops.q_power(m, p(x))))
        rhs = ops.q_power(m - 1, x) if m else {}
        if not _is_zero(_combine((1, lhs), (-PQ_COMMUTATOR * m, rhs))):
            return False
    return True
