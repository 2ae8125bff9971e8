"""Sandwich words and the mechanical w-infinity realization check.

A sandwich word is [left exponential block][field-power block][right
exponential block], each block a sorted tuple of (label, value) pairs, where
E_x(lam) = exp(lam (b_x - b_x^+)) and Q_x = b_x + b_x^+. The generators are

    (1/2)^(n-1) E_x(k/2) Q_x^(n-1) E_x(k/2)

smeared against a test function. Since [b_x - b_x^+, b_y - b_y^+] = 0 and
[b_x - b_x^+, Q_y] = 2 delta(x-y) is central, exponentials commute with each
other and move across field powers by a binomial exchange rule (the product
of two one-factor words, ``exchange_E_past_Q``); products of two such words
normalize back to sandwich shape with delta powers as the only residue.
Reducing the delta powers (renormalization plus test functions vanishing at
zero) turns the commutator of two generators into a single generator, which
is compared structurally against the w-infinity bracket. Every sum of words
is kept as a canonically sorted sum (scalars.LinComb).

A product or commutator of two single-label words is built in one pass, by
``_products``, the kernel of ``multiply`` and ``commutator``. Both orders
share the exponential blocks, the test functions and the product of the two
scalars, so the binomial exchange weights binom(p,j) x^(p-j) binom(q,i)
y^(q-i) of both orders add up to one weight per pair of field powers. For
generator words x and y are +-k and +-K, so the weights are integers; a real
shared scalar p/q gives each nonzero weight w its coefficient as one
Fraction(p w, q). Given a bound on the delta power, only the weights up to it
are formed; the nonzero ones above it are counted from the exchange rows'
ratio classes. The realization check builds the delta <= 1 words, the only
ones renormalization keeps, and counts the singular rest. ``reduce`` merges
delta-1 words by summing coefficients first. Generator words, exchange rows,
their ratio classes and merged test functions are cached per process
(bounded caches; a word is frozen and independent of the table).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Literal, NamedTuple, Optional

from . import lie
from .lie import DomainError
from .scalars import (CScalar, LinComb, _F0, _cscalar, binom, coeff_to_json, rational,
                      rational_to_str)
from .stepfn import (
    AnyTestFn,
    fn_product,
    fn_sort_key,
    fn_symbol,
    fn_to_json,
    fn_vanishes_at_zero,
)
from .wick import DeltaAtZeroError, PowMap, SingularPartError, canon_map, power


ParamMap = tuple[tuple[str, Fraction], ...]
FnMap = tuple[tuple[str, AnyTestFn], ...]


def _exponent(label: str, lam) -> Fraction:
    return rational(lam)


class EQTerm(NamedTuple):
    """One sandwich word with exact coefficient and delta-power bookkeeping;
    the fields before ``coeff`` are its key in EQExpr."""

    delta_L: int
    q_pow: PowMap
    left_exp: ParamMap
    right_exp: ParamMap
    testfn: FnMap
    coeff: CScalar

    def word_key(self):
        return self[:-1]


def eq_term(
    coeff,
    left_exp: Mapping[str, Fraction] | Iterable = (),
    q_pow: Mapping[str, int] | Iterable = (),
    right_exp: Mapping[str, Fraction] | Iterable = (),
    delta_L: int = 0,
    testfn: Mapping[str, AnyTestFn] | Iterable = (),
) -> EQTerm:
    if delta_L < 0:
        raise ValueError("delta exponent must be nonnegative")
    fn_items = testfn.items() if isinstance(testfn, Mapping) else testfn
    fns = tuple(sorted(fn_items, key=lambda it: it[0]))
    if len({label for label, _ in fns}) < len(fns):
        raise ValueError("a word takes one test function per label")
    coeff, left = CScalar.of(coeff), canon_map(left_exp, _exponent)
    q_pow, right = canon_map(q_pow, power), canon_map(right_exp, _exponent)
    return EQTerm(delta_L, q_pow, left, right, fns, coeff)


class EQExpr(LinComb, NamedTuple("EQExpr", [("terms", tuple)])):
    """Canonical sum of sandwich words, ordered by their fields before the
    coefficient, with test functions in stepfn's order."""

    __slots__ = ()
    make = EQTerm._make

    @staticmethod
    def order(key) -> tuple:
        return key[:4] + (tuple((l, fn_sort_key(fn)) for l, fn in key[4]),)


def eq_expr(terms: Iterable[EQTerm] = ()) -> EQExpr:
    return EQExpr.canonical(terms)


EQ_ZERO = EQExpr(())
_G, _F = fn_symbol("g"), fn_symbol("f")  # verify_theorem's default test functions
_GF = fn_product(_G, _F)


@lru_cache(maxsize=4096)
def gen_to_word(n: int, k: int, label: str = "t", fn: Optional[AnyTestFn] = None) -> EQTerm:
    """The sandwich word (1/2)^(n-1) E(k/2) Q^(n-1) E(k/2) at one label."""
    if n < 2:
        raise DomainError(f"sandwich generators need n >= 2, got n={n}")
    exp = ((label, Fraction(k, 2)),) if k else ()
    fns = () if fn is None else ((label, fn),)
    return EQTerm(0, ((label, n - 1),), exp, exp, fns, _cscalar(Fraction(1, 2 ** (n - 1)), _F0))


Direction = Literal["rightward", "leftward"]


def _twice(lam: Fraction):
    """2 lam, as an int when lam is a half-integer, so the exchange rows of a
    generator word are all ints; a Fraction otherwise."""
    den = lam.denominator
    return 2 * lam.numerator // den if den <= 2 else 2 * lam


@lru_cache(maxsize=4096)
def _exchange_row(m: int, x) -> tuple:
    """binom(m, j) x^(m-j) for j = 0..m: the weights of Q^j delta^(m-j) when an
    exponential E(lam) crosses Q^m, with x = 2 lam rightward and -2 lam leftward."""
    return tuple(binom(m, j) * x ** (m - j) for j in range(m + 1))


@lru_cache(maxsize=4096)
def _ratio_classes(xs: tuple, ws: tuple) -> tuple[int, Counter]:
    """(number of pairs (0, 0), number of pairs per ratio class) of the pairs
    (xs[u], ws[u]). The class of x : w is the reduced ratio as (numerator,
    denominator > 0), and (1, 0) for x : 0; int and Fraction rows agree."""
    classes = Counter(Fraction(x, w).as_integer_ratio() if w else (1, 0) if x else None
                      for x, w in zip(xs, ws))
    return classes.pop(None, 0), classes


def exchange_E_past_Q(
    lam, src_label: str, m: int, dst_label: str, direction: Direction
) -> EQExpr:
    """Move one exponential factor across a field power at another label.

    rightward:  E_s(lam) Q_t^m
        = sum_j binom(m,j) (2 lam)^(m-j) Q_t^j delta^(m-j)(t-s) E_s(lam)
    leftward:   Q_t^m E_s(lam)
        = E_s(lam) sum_j binom(m,j) (-2 lam)^(m-j) Q_t^j delta^(m-j)(t-s)

    Both follow from the central commutator [b_s - b_s^+, Q_t] = 2 delta(t-s),
    and both are ``multiply`` of the one-factor words E_s(lam) and Q_t^m.
    """
    if src_label == dst_label:
        raise DeltaAtZeroError("same-label exchange would create delta(0)")
    if m < 0:
        raise ValueError("field power must be nonnegative")
    field = eq_term(1, q_pow={dst_label: m})
    if direction == "rightward":
        return multiply(eq_term(1, right_exp={src_label: lam}), field)
    if direction == "leftward":
        return multiply(field, eq_term(1, left_exp={src_label: lam}))
    raise ValueError(f"unknown direction {direction!r}")


def _single_label_parts(t: EQTerm):
    """(label, left exponent, field power, right exponent) of a word at one
    label, read off its blocks; None for a word with no label."""
    label = None
    for block in (t.left_exp, t.q_pow, t.right_exp, t.testfn):
        if block:
            if len(block) > 1 or label not in (None, block[0][0]):
                raise ValueError("product factors must be single-label sandwich words")
            label = block[0][0]
    if label is None:
        return None
    left, q_pow, right = t.left_exp, t.q_pow, t.right_exp
    return (label, left[0][1] if left else _F0, q_pow[0][1] if q_pow else 0,
            right[0][1] if right else _F0)


def _products(a: EQTerm, b: EQTerm, minus_ba: bool, max_delta=None) -> tuple[EQExpr, int]:
    """(a b, or a b - b a when ``minus_ba``, renormalized to sandwich shape;
    the number of its words left out for a delta power above ``max_delta``).

    In a b, b's left exponential moves leftward across a's field block and a's
    right exponential moves rightward across b's field block; only these
    cross-label exchanges are ever needed. For field powers p and q, every
    word of either order has powers u <= p at a's label and v <= q at b's
    label and delta power p+q-u-v, so both orders add up to one weight
    x_u y_v - w_u z_v of four exchange rows: ints when every exponent is a
    half-integer, as in generator words. Only the weights of words kept,
    u + v >= p + q - ``max_delta``, are formed; with no bound, all. A real
    product p/q of the two scalars gives each nonzero weight w its
    coefficient as one Fraction(p w, q); a complex one multiplies w. The
    nonzero weights above the bound are counted from the rows' ratio classes.
    """
    if a.delta_L or b.delta_L:
        raise ValueError("product factors must not carry delta powers")
    pa = _single_label_parts(a)
    pb = _single_label_parts(b)
    base = a.coeff * b.coeff
    if pa is None or pb is None:
        # One factor is a pure scalar: both orders concatenate to the same word.
        if minus_ba:
            return EQ_ZERO, 0
        merged = eq_term(
            base,
            a.left_exp + b.left_exp,
            a.q_pow + b.q_pow,
            a.right_exp + b.right_exp,
            testfn=a.testfn + b.testfn,
        )
        return eq_expr([merged]), 0
    la, alpha_l, p, alpha_r = pa
    lb, beta_l, q, beta_r = pb
    if la == lb:
        raise DeltaAtZeroError("same-label product would create delta(0)")
    if p < 0 or q < 0:
        raise ValueError(f"negative power in a product factor: {p}, {q}")
    if not base:
        return EQ_ZERO, 0
    # a b: Q^p keeps u at a's label, Q^q keeps v at b's label; b a likewise.
    xs, ys = _exchange_row(p, -_twice(beta_l)), _exchange_row(q, _twice(alpha_r))
    if minus_ba:
        zs, ws = _exchange_row(q, -_twice(alpha_l)), _exchange_row(p, _twice(beta_r))
    else:
        zs, ws = (0,) * (q + 1), (0,) * (p + 1)
    a_first = la < lb

    def pair_map(x, y) -> tuple:
        # {la: x, lb: y} in canonical form: sorted by label, zeros dropped.
        items = ((la, x), (lb, y)) if a_first else ((lb, y), (la, x))
        return tuple(item for item in items if item[1])

    fewest = 0 if max_delta is None else max(p + q - max_delta, 0)  # least u + v built
    words = []
    for u in range(max(fewest - q, 0), p + 1):
        x, w = xs[u], ws[u]
        for v in range(max(fewest - u, 0), q + 1):
            weight = x * ys[v] - w * zs[v]
            if weight:
                words.append(((p + q - u - v, pair_map(u, v)), weight))
    over = 0
    if fewest:
        # x_u y_v - w_u z_v is 0 on rows and columns of a pair (0, 0), and
        # where the classes of x_u : w_u and z_v : y_v agree.
        zero_rows, rows = _ratio_classes(xs, ws)
        zero_cols, cols = _ratio_classes(zs, ys)
        zero = sum(n * cols[key] for key, n in rows.items())
        zero += zero_rows * (q + 1) + zero_cols * (p + 1 - zero_rows)
        over = (p + 1) * (q + 1) - zero - len(words)
    # (delta power, field block) is the EQExpr order: the other key fields are shared.
    words.sort(key=itemgetter(0))
    left_exp, right_exp = pair_map(alpha_l, beta_l), pair_map(alpha_r, beta_r)
    testfn = a.testfn + b.testfn if a_first else b.testfn + a.testfn
    if base.im:
        coeffs = [base * w for _, w in words]
    else:
        num, den = base.re.numerator, base.re.denominator
        coeffs = [_cscalar(Fraction(num * w, den), _F0) for _, w in words]
    return EQExpr(
        tuple(
            EQTerm(delta_L, q_pow, left_exp, right_exp, testfn, c)
            for ((delta_L, q_pow), _), c in zip(words, coeffs)
        )
    ), over


def multiply(a: EQTerm, b: EQTerm) -> EQExpr:
    """Product of two single-label sandwich words, renormalized to sandwich shape."""
    return _products(a, b, minus_ba=False)[0]


def commutator(a: EQTerm, b: EQTerm) -> EQExpr:
    """multiply(a, b) - multiply(b, a), canonical, accumulated in one pass."""
    return _products(a, b, minus_ba=True)[0]


@lru_cache(maxsize=4096)
def _merged_blocks(testfn: FnMap, target: str) -> FnMap:
    """A word's test functions multiplied at ``target``."""
    product = None
    for _, fn in testfn:
        product = fn if product is None else fn_product(product, fn)
    return () if product is None else ((target, product),)


def _summed_at(exp: ParamMap, target: str) -> ParamMap:
    """An exponential block's exponents summed at ``target``."""
    lam = sum((v for _, v in exp[1:]), exp[0][1]) if exp else 0
    return ((target, lam),) if lam else ()


class ReduceResult(NamedTuple):
    reduced: EQExpr
    l0_residual: EQExpr
    dropped_singular: int


def reduce(e: EQExpr) -> ReduceResult:
    """Apply the delta renormalization and the vanishing-at-zero condition.

    Words with delta power 0 are returned untouched as the residual (a
    commutator of sandwich words must cancel them pairwise). Words with
    delta power >= 2 renormalize to delta(s) delta(t-s), hence carry the
    factor g(0) f(0): they are dropped and counted when some test function
    of the word is known to vanish at zero, and raise SingularPartError
    otherwise. Words with delta power 1 have their labels identified at the
    smallest one and their blocks merged additively: their coefficients are
    first summed per group, keyed by the identity of the exponential and
    test-function blocks (the words of one product share them), the merged
    field power and the target label. Each group becomes one word, and equal
    blocks that are not identical merge in the canonical sort. The exponents
    of a group are summed for it; the test-function product is built once
    per test-function block and process, and whether a block vanishes at
    zero is asked once per call.
    """
    groups: dict = {}
    residual = []
    singular = []
    for t in e.terms:
        if t.delta_L == 0:
            residual.append(t)
        elif t.delta_L == 1:
            labels = [b[0][0] for b in (t.left_exp, t.q_pow, t.right_exp, t.testfn) if b]
            if not labels:
                raise ValueError("a delta word needs a label to merge at")
            power, target = sum(e for _, e in t.q_pow), min(labels)
            key = (id(t.left_exp), id(t.right_exp), id(t.testfn), power, target)
            groups.setdefault(key, (t, []))[1].append(t.coeff)  # t holds the blocks
        else:
            singular.append(t)
    fn_blocks = {t.testfn for t in singular}
    vanishes = {fns: any(fn_vanishes_at_zero(fn) for _, fn in fns) for fns in fn_blocks}
    offenders = [t for t in singular if not vanishes[t.testfn]]
    if offenders:
        raise SingularPartError(
            f"{len(offenders)} singular term(s) do not vanish: "
            "test functions must vanish at zero",
            offenders,
        )
    reduced = []
    for (*_, power, target), (t, coeffs) in groups.items():
        c = sum(coeffs[1:], coeffs[0])
        q_pow = ((target, power),) if power else ()
        left_exp, right_exp = _summed_at(t.left_exp, target), _summed_at(t.right_exp, target)
        reduced.append(EQTerm(0, q_pow, left_exp, right_exp, _merged_blocks(t.testfn, target), c))
    # A single word is canonical; so is the residual, a subsequence of a canonical sum.
    reduced = eq_expr(reduced) if len(reduced) > 1 else EQExpr(tuple(t for t in reduced if t.coeff))
    return ReduceResult(reduced, EQExpr(tuple(residual)), len(singular) - len(offenders))


class TheoremReport(NamedTuple):
    """Outcome of one realization check at indices (n, k, N, K)."""

    n: int
    k: int
    N: int
    K: int
    passed: bool
    expected_coeff: int
    computed: EQExpr
    l0_residual: EQExpr
    dropped_singular: int


def verify_theorem(
    n: int,
    k: int,
    N: int,
    K: int,
    g: Optional[AnyTestFn] = None,
    f: Optional[AnyTestFn] = None,
) -> TheoremReport:
    """Check the w-infinity relation for the sandwich generators.

    Builds the two generator words, expands the delta <= 1 words of their
    commutator, reduces them, and compares structurally against c times the
    generator word at (n', k'), carrying the test-function product g f, where

        [B^n_k, B^N_K] = c B^{n'}_{k'}

    is read from ``lie.structure`` (for the true table c = k (N-1) - K (n-1)
    and (n', k') = (n+N-2, k+K)), the table the Jacobi scans certify.
    Passing requires the reduced expression to equal that word exactly and
    the delta-free residual to vanish. A nonzero bracket whose target leaves
    the family n' >= 2 has no sandwich word and fails. The singular words
    (delta >= 2) all carry g and f: they are only counted, and dropped when g
    or f vanishes at zero; otherwise the full commutator is expanded and
    ``reduce`` raises SingularPartError on it.
    """
    if n < 2 or N < 2:
        raise DomainError("realization indices need n, N >= 2")
    g, f = (_G if g is None else g), (_F if f is None else f)
    a = gen_to_word(n, k, "t", g)
    b = gen_to_word(N, K, "s", f)
    comm, singular = _products(a, b, minus_ba=True, max_delta=1)
    if singular and not (fn_vanishes_at_zero(g) or fn_vanishes_at_zero(f)):
        reduce(commutator(a, b))  # raises SingularPartError on the singular words
    result = reduce(comm)
    expected_coeff, n2, k2 = lie.structure(lie.AlgebraKind.WINFINITY, n, k, N, K)
    in_family = n2 >= 2
    # reduce merges the two labels into the smaller one, "s"
    expected = EQ_ZERO
    if in_family and expected_coeff:
        word = gen_to_word(n2, k2, "s", _GF if g is _G and f is _F else fn_product(g, f))
        expected = EQExpr((word._replace(coeff=word.coeff * expected_coeff),))
    passed = (
        (in_family or not expected_coeff)
        and result.l0_residual.is_zero
        and result.reduced == expected
    )
    return TheoremReport(
        n, k, N, K, passed, expected_coeff, result.reduced, result.l0_residual, singular
    )


# -- JSON --------------------------------------------------------------------

def eq_expr_to_json(e: EQExpr) -> list[dict]:
    return [
        {
            "coeff": coeff_to_json(t.coeff),
            "left_exp": {l: rational_to_str(v) for l, v in t.left_exp},
            "q_pow": dict(t.q_pow),
            "right_exp": {l: rational_to_str(v) for l, v in t.right_exp},
            "delta_L": t.delta_L,
            "testfn": {l: fn_to_json(fn) for l, fn in t.testfn},
        }
        for t in e.terms
    ]


def theorem_report_to_json(r: TheoremReport) -> dict:
    return {
        "n": r.n,
        "k": r.k,
        "N": r.N,
        "K": r.K,
        "pass": r.passed,
        "expected_coeff": r.expected_coeff,
        "dropped_singular_count": r.dropped_singular,
        "l0_residual_terms": eq_expr_to_json(r.l0_residual),
    }
