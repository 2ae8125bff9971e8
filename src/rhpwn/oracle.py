"""Single-mode polynomial-representation oracle for the commutator calculus.

The annihilator acts as d/dx and the creator as multiplication by x on the
monomial basis x^0 .. x^D, so every operator is exact integer arithmetic and
the canonical commutation relation holds algebraically on all basis vectors
whose images stay below the truncation degree. A column is the image of one
monomial x^c, a dict from degree to nonzero coefficient, reached by stepping
the ladder operators on x^c. A normally ordered word maps each monomial to a
multiple of one monomial, so it is kept, cached per word on ``build(D)``, as
two parallel int lists over the columns 0..D: degrees, and coefficients (0
where the column vanishes). Every term of the commutator expansion maps x^c
to a multiple of the same monomial, so each term is one vector over the
guard-safe columns, a product of two words is a gather, each column reduces
to one integer, the sum of the terms' coefficients, and a term at any other
degree fails the check; ``eq1_suite`` builds each word pair's products once
per grid. This gives an independent brute-force check of the two-point
commutator coefficients (at coincident points, with every delta set to 1) and
of the seed identity behind the exponential exchange rules.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count, product, repeat
from operator import add, and_, mul, ne, neg, sub, truth

from .scalars import binom, falling

Column = dict[int, int]
Word = tuple[list[int], list[int]]

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
    commutation relation on all guard-safe columns, through the words eq1 reads.
    """

    def __init__(self, D: int):
        if D < 2:
            raise ValueError(f"truncation degree must be at least 2, got {D}")
        self.D = D
        self._words: dict[tuple[int, int], Word] = {}
        # [a, a^+] = 1 on columns 0..D-1; column D is the guard row
        if _commutator(self.word(0, 1), self.word(1, 0), 0, D) != [1] * D:
            raise ValueError("ladder operators violate the commutation relation")

    def q_power(self, m: int, col: Column) -> Column:
        """(annihilator + creator)^m applied to a column."""
        for _ in range(m):
            col = _step(col, self.D, 1, 1)
        return col

    def word(self, n: int, k: int) -> Word:
        """The normally ordered word creator^n annihilator^k as (degrees,
        coefficients) over the columns 0..D: it maps x^c to coefficients[c]
        x^degrees[c], and coefficients[c] is 0 where the image vanishes (a
        column the annihilator clears stays at degree 0: no degree is negative).

        Built from word(n-1, k) with one creator step per column, or from
        word(0, k-1) with one annihilator step, so each word is stepped once."""
        key = (n, k)
        if key not in self._words:
            if n:
                deg, co = self.word(n - 1, k)
                D = self.D  # x^D truncates to zero
                co = [v if d < D else 0 for d, v in zip(deg, co)]
                self._words[key] = [d + 1 for d in deg], co
            elif k:
                deg, co = self.word(0, k - 1)
                self._words[key] = [d - 1 if d else 0 for d in deg], list(map(mul, deg, co))
            else:
                self._words[key] = list(range(self.D + 1)), [1] * (self.D + 1)
        return self._words[key]


@lru_cache(maxsize=None)
def build(D: int) -> PolyRepOps:
    return PolyRepOps(D)


def _product(first: Word, then: Word, m: int) -> Word:
    """The word ``then`` * ``first`` (``first`` applied first) over the columns
    0..m-1: two gathers through the degrees of ``first``."""
    deg, co = first
    at = deg[:m]
    return list(map(then[0].__getitem__, at)), list(map(mul, co[:m], map(then[1].__getitem__, at)))


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


def _reach(word: Word, shift: int) -> int:
    """How many leading columns ``word`` maps to zero or to degree column + shift."""
    wrong = map(and_, map(truth, word[1]), map(ne, word[0], count(shift)))
    return next(compress(count(), wrong), len(word[1]))


def _commutator(w1: Word, w2: Word, shift: int, m: int) -> list[int]:
    """w1 w2 - w2 w1 on columns 0..m-1, or [] if a word maps one outside degrees 0..D,
    where the other word is not defined, or a product maps one off degree column + shift."""
    degrees = w1[0][:m] + w2[0][:m]
    if min(degrees) < 0 or max(degrees) >= len(w1[0]):
        return []
    p12, p21 = _product(w2, w1, m), _product(w1, w2, m)
    ok = min(_reach(p12, shift), _reach(p21, shift)) == m
    return list(map(sub, p12[1], p21[1])) if ok else []


def _eq1(n: int, k: int, N: int, K: int, D: int, memo: dict) -> int:
    """check_eq1, keeping in ``memo`` by word pair the column count and
    ``_commutator`` ([] on a failure), which the swapped tuple (N, K, n, k)
    negates, and by expansion word its coefficients and ``_reach``."""
    if min(n, k, N, K) < 0:
        raise ValueError("indices must be nonnegative")
    if D <= n + k + N + K:
        raise ValueError(f"guard band violated: need D > {n + k + N + K}, got {D}")
    ops, shift = build(D), n + N - k - K
    if ((N, K), (n, k)) in memo:
        m, total = memo[(N, K), (n, k)]
        total = list(map(neg, total))
    else:
        m = len(_safe_columns(n, k, N, K, D))
        floor = m <= D - (n + k + N + K)
        total = [] if floor else _commutator(ops.word(n, k), ops.word(N, K), shift, m)
        memo[(n, k), (N, K)] = m, total
    if not total:
        return 0
    terms = [(-binom(k, L) * falling(N, L), n + N - L, k + K - L) for L in range(1, min(k, N) + 1)]
    terms += [(binom(K, L) * falling(n, L), N + n - L, K + k - L) for L in range(1, min(K, n) + 1)]
    for scale, a, b in terms:
        if (a, b) not in memo:
            memo[a, b] = ops.word(a, b)[1], _reach(ops.word(a, b), shift)
        co, reach = memo[a, b]
        if reach < m:
            return 0
        total = list(map(add, total, map(mul, repeat(scale), co)))
    return 0 if any(total) else m


def check_eq1(n: int, k: int, N: int, K: int, D: int = 40) -> int:
    """Compare the commutator of two words with the expansion

        sum_L binom(k,L) falling(N,L) word(n+N-L, k+K-L)
      - sum_L binom(K,L) falling(n,L) word(N+n-L, K+k-L)

    coefficient-exactly on every guard-safe column (those whose degree paths
    never exceed D), and return how many columns were compared, or 0 when the
    check fails. Each term is one vector over those columns and maps x^c to a
    multiple of x^(c + n + N - k - K), so the scaled sum of the vectors must
    vanish, and a nonzero coefficient at any other degree fails. So does a
    tuple comparing no more than D - (n + k + N + K) columns. This is the
    coincident-point shadow of the two-point commutator, with every delta
    power set to 1.
    """
    return _eq1(n, k, N, K, D, {})


def eq1_suite(top: int, D: int = 40) -> list[tuple[tuple[int, int, int, int], int]]:
    """(t, check_eq1(*t, D)) for t in [0, top]^4 in ``itertools.product`` order.
    Each word pair's products (650 for [0, 4]^4, not 1250) and each expansion
    word's degrees are checked once per call; nothing is kept after it."""
    memo: dict = {}
    return [(t, _eq1(*t, D, memo)) for t in product(range(top + 1), repeat=4)]


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
        if any(_combine((1, lhs), (-PQ_COMMUTATOR * m, rhs)).values()):
            return False
    return True
