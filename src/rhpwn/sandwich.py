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
is kept as a canonically sorted sum (scalars.Sum).

A product or commutator of two single-label words is built in one pass, by
``_products``. Both orders share the exponential blocks, the test functions
and the product of the two scalars, so the binomial exchange weights
binom(p,j) x^(p-j) binom(q,i) y^(q-i) of both orders add up to one weight per
pair of field powers, and each word's coefficient is its weight times the
scalars' product.

The realization check decides a passing tuple from a summary of each
factor's two exchange rows (``_row_pair``): the rows are mirrored, so paired
entries differ only by the sign (-1)^(m-u), and the weights and the count of
nonzero ones (pairs of opposite parity) are read off the summaries without
building a row or a word (``verify_theorem``). A failing tuple reduces the
whole commutator. Generator words, exchange rows, row summaries and merged
test functions are cached per process (bounded caches; a frozen word does not
depend on the table).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Literal, NamedTuple, Optional

from . import lie
from .lie import DomainError
from .scalars import (CScalar, DeltaAtZeroError, PowMap, SingularPartError, Sum, _F0, _cscalar,
                      binom, canon_map, coeff_to_json, power, rational)
from .stepfn import AnyTestFn, fn_product, fn_symbol, fn_to_json, fn_vanishes_at_zero


ParamMap = tuple[tuple[str, Fraction], ...]
FnMap = tuple[tuple[str, AnyTestFn], ...]
_new = tuple.__new__  # a named tuple from fields already in canonical form


def _exponent(label: str, lam) -> Fraction:
    return rational(lam)


class EQTerm(NamedTuple):
    """One sandwich word with exact coefficient and delta-power bookkeeping;
    the fields before ``coeff`` are its key in a Sum."""

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


def eq_expr(terms: Iterable[EQTerm] = ()) -> Sum:
    return Sum.canonical(terms)


EQ_ZERO = Sum(())
_G, _F = fn_symbol("g"), fn_symbol("f")  # verify_theorem's test functions, both in S0
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


@lru_cache(maxsize=4096)
def _exchange_row(m: int, x) -> tuple:
    """binom(m, j) x^(m-j) for j = 0..m: the weights of Q^j delta^(m-j) when an
    exponential E(lam) crosses Q^m, with x = 2 lam rightward and -2 lam leftward."""
    return tuple(binom(m, j) * x ** (m - j) for j in range(m + 1))


@lru_cache(maxsize=4096)
def _row_pair(m: int, x: int) -> tuple:
    """((x_m, w_m, x_(m-1), w_(m-1)), even, odd) of the mirrored rows x_u and w_u of
    ``_exchange_row`` (m, -x) and (m, x), built without the rows: x_u = (-1)^(m-u) w_u,
    and even and odd count the nonzero pairs at an even and an odd m - u. Typed, as a
    built row holds the powers of x: on the two 4300-digit-k CI tuples, reading the rows
    took 72 ms in one measurement and 124-135 ms in another, this form 0.2 and 0.04 ms,
    in-process. test_row_summaries_are_the_classes_of_the_built_rows and
    test_the_realization_grid_agrees_with_the_word_calculus tie it to the rows."""
    return (1, 1, -m * x, m * x), m // 2 + 1 if x else 1, (m + 1) // 2 if x else 0


def exchange_E_past_Q(lam, src_label: str, m: int, dst_label: str, direction: Direction) -> Sum:
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
    return (label, left[0][1] if left else 0, q_pow[0][1] if q_pow else 0,
            right[0][1] if right else 0)


def _products(a: EQTerm, b: EQTerm, minus_ba: bool) -> Sum:
    """a b, or a b - b a when ``minus_ba``, of two single-label words in sandwich shape.

    In a b, b's left exponential moves leftward across a's field block and a's
    right exponential moves rightward across b's field block; only these
    cross-label exchanges are ever needed. For field powers p and q, every
    word of either order has powers u <= p at a's label and v <= q at b's
    label and delta power p+q-u-v, so both orders add up to one weight
    x_u y_v - w_u z_v of four exchange rows, times the scalars' product.
    """
    if a.delta_L or b.delta_L:
        raise ValueError("product factors must not carry delta powers")
    pa, pb = _single_label_parts(a), _single_label_parts(b)
    base = a.coeff * b.coeff
    if pa is None or pb is None:
        # One factor is a pure scalar: both orders concatenate to the same word.
        if minus_ba:
            return EQ_ZERO
        return eq_expr([eq_term(base, a.left_exp + b.left_exp, a.q_pow + b.q_pow,
                                a.right_exp + b.right_exp, testfn=a.testfn + b.testfn)])
    la, al, p, ar = pa
    lb, bl, q, br = pb
    if la == lb:
        raise DeltaAtZeroError("same-label product would create delta(0)")
    if not base:
        return EQ_ZERO
    # a b: Q^p keeps u at a's label, Q^q keeps v at b's label; b a likewise, or rows of zeros.
    xs, ys = _exchange_row(p, -2 * bl), _exchange_row(q, 2 * ar)
    if minus_ba:
        zs, ws = _exchange_row(q, -2 * al), _exchange_row(p, 2 * br)
    else:
        zs, ws = (0,) * (q + 1), (0,) * (p + 1)
    # Each factor's other blocks hold at most one entry, at its own label, so
    # joined in label order they are canonical.
    first, second = (a, b) if la < lb else (b, a)
    left_exp = first.left_exp + second.left_exp
    right_exp, testfn = first.right_exp + second.right_exp, first.testfn + second.testfn
    words = []
    for u in range(p + 1):
        for v in range(q + 1):
            weight = xs[u] * ys[v] - ws[u] * zs[v]
            if weight:
                field = tuple(sorted(pair for pair in ((la, u), (lb, v)) if pair[1]))
                words.append(EQTerm(p + q - u - v, field, left_exp, right_exp, testfn,
                                    base * weight))
    return Sum.canonical(words)


def multiply(a: EQTerm, b: EQTerm) -> Sum:
    """Product of two single-label sandwich words, renormalized to sandwich shape."""
    return _products(a, b, False)


def commutator(a: EQTerm, b: EQTerm) -> Sum:
    """multiply(a, b) - multiply(b, a), canonical, accumulated in one pass."""
    return _products(a, b, True)


@lru_cache(maxsize=4096)
def _merged_blocks(testfn: FnMap, target: str) -> FnMap:
    """A word's test functions multiplied at ``target``."""
    product = None
    for _, fn in testfn:
        product = fn if product is None else fn_product(product, fn)
    return () if product is None else ((target, product),)


def _exp_at(block: tuple, target: str) -> tuple:
    """A field-power or exponential block's values summed at ``target``."""
    total = sum(v for _, v in block)
    return ((target, total),) if total else ()


class ReduceResult(NamedTuple):
    reduced: Sum
    l0_residual: Sum
    dropped_singular: int


def reduce(e: Sum) -> ReduceResult:
    """Apply the delta renormalization and the vanishing-at-zero condition.

    Words with delta power 0 are the residual (a commutator of sandwich words
    must cancel them pairwise). Words with delta power >= 2 renormalize to
    delta(s) delta(t-s), hence carry the factor g(0) f(0): they are dropped
    and counted when some test function of the word vanishes at zero, and
    raise SingularPartError otherwise. A word with delta power 1 is merged on
    its own: its labels are identified at the smallest one, where its field
    powers and its exponents are summed and its test functions multiplied.
    One canonical sum then adds up the merged words.
    """
    merging, residual, singular = [], [], []
    for t in e.terms:
        if t.delta_L == 1:
            labels = [block[0][0] for block in t[1:5] if block]  # each block's first label
            if not labels:
                raise ValueError("a delta word needs a label to merge at")
            merging.append((t, min(labels)))
        elif t.delta_L:
            singular.append(t)
        else:
            residual.append(t)
    offenders = [t for t in singular if not any(fn_vanishes_at_zero(fn) for _, fn in t.testfn)]
    if offenders:
        raise SingularPartError(
            f"{len(offenders)} singular term(s) do not vanish: "
            "test functions must vanish at zero",
            offenders,
        )
    merged = [EQTerm(0, _exp_at(t.q_pow, target), _exp_at(t.left_exp, target),
                     _exp_at(t.right_exp, target), _merged_blocks(t.testfn, target), t.coeff)
              for t, target in merging]
    # The residual, a subsequence of a canonical sum, is canonical.
    return ReduceResult(Sum.canonical(merged), Sum(tuple(residual)), len(singular))


class TheoremReport(NamedTuple):
    """Outcome of one realization check at indices (n, k, N, K)."""

    n: int
    k: int
    N: int
    K: int
    passed: bool
    expected_coeff: int
    computed: Sum
    l0_residual: Sum
    dropped_singular: int


def verify_theorem(n: int, k: int, N: int, K: int) -> TheoremReport:
    """Check the w-infinity relation for the sandwich generators.

    Compares the reduced commutator of the generator words at t and s with c
    times the generator word at (n', k') at s, with test function g f, where

        [B^n_k, B^N_K] = c B^{n'}_{k'}

    is read from ``lie.structure`` (for the true table c = k (N-1) - K (n-1)
    and (n', k') = (n+N-2, k+K)), the table the Jacobi scans certify.
    Passing requires the reduced expression to equal that word exactly and
    the delta-free residual to vanish. A nonzero bracket whose target leaves
    the family n' >= 2 has no sandwich word and fails.

    The commutator is read off the summaries ``_row_pair`` of its mirrored
    exchange rows, (p, K) and (q, k) for p = n - 1 and q = N - 1, before any
    row or word is built. Their top entries give the weight w0 of the
    delta-free word and the weights w1 and w2 of the two delta words, which
    merge at s into one word of coefficient (w1 + w2) / 2^(n+N-2), field
    power p + q - 1, exponents (k + K) / 2 and test function g f. A tuple
    whose w0 is 0 and whose merged word is the expected one (none when c is
    0) passes on these ints, and reports the expected word, whose
    coefficient is its one Fraction. Any other tuple reduces the whole
    commutator. The singular words (delta >= 2), counted from the summaries'
    parity counts, all carry the abstract test functions g and f of S0 (both
    vanish at zero), so they are dropped.
    """
    if n < 2 or N < 2:
        raise DomainError("realization indices need n, N >= 2")
    p, q = n - 1, N - 1
    (xp, wp, xp1, wp1), r_even, r_odd = _row_pair(p, K)
    (zq, yq, zq1, yq1), c_even, c_odd = _row_pair(q, k)
    # x_u y_v - w_u z_v, the weights of Q_t^u Q_s^v delta^(p+q-u-v), at (p, q), (p-1, q), (p, q-1)
    w0, w1, w2 = xp * yq - wp * zq, xp1 * yq - wp1 * zq, xp * yq1 - wp * zq1
    # x_u y_v - w_u z_v = w_u y_v ((-1)^(p-u) - (-1)^(q-v)): nonzero where p - u and q - v
    # differ in parity, which w0 at (p, q) never does
    singular = r_even * c_odd + r_odd * c_even - (w1 != 0) - (w2 != 0)
    fns = _merged_blocks((("s", _F), ("t", _G)), "s")
    expected_coeff, n2, k2 = lie.structure(lie.AlgebraKind.WINFINITY, n, k, N, K)
    in_family = n2 >= 2
    expected, word = EQ_ZERO, None
    if in_family and expected_coeff:
        word = gen_to_word(n2, k2, "s", _GF)
        expected = _new(Sum, ((_new(EQTerm, word[:-1] + (
            _cscalar(Fraction(expected_coeff, 1 << (n2 - 1)), _F0),)),),))
    w = w1 + w2  # the merged word's weight: w / 2^(n+N-2) = c / 2^(n'-1) when n' = n + N - 2
    if not w0 and (in_family or not expected_coeff) and (not w if word is None else (
            n2 == n + N - 2 and k2 == k + K and fns == word.testfn and w == 2 * expected_coeff)):
        return _new(TheoremReport, (n, k, N, K, True, expected_coeff, expected, EQ_ZERO, singular))
    a, b = gen_to_word(n, k, "t", _G), gen_to_word(N, K, "s", _F)
    reduced, residual, _ = reduce(commutator(a, b))
    passed = (in_family or not expected_coeff) and not residual.terms and reduced == expected
    return _new(TheoremReport, (n, k, N, K, passed, expected_coeff, reduced, residual, singular))


# -- JSON --------------------------------------------------------------------

def eq_expr_to_json(e: Sum) -> list[dict]:
    return [
        {
            "coeff": coeff_to_json(t.coeff),
            "left_exp": {l: str(v) for l, v in t.left_exp},
            "q_pow": dict(t.q_pow),
            "right_exp": {l: str(v) for l, v in t.right_exp},
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
