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
``_kernel``. Both orders share the exponential blocks, the test functions and
the product of the two scalars, so the binomial exchange weights binom(p,j)
x^(p-j) binom(q,i) y^(q-i) of both orders add up to one weight per pair of
field powers. The kernel takes each factor's parts: label, doubled left
exponent 2 lam, field power, doubled right exponent (ints for half-integer
exponents). ``_products``, for ``multiply`` and ``commutator``, reads them
off any words' blocks, with the scale (numerator, denominator) of the
scalars' product; a generator word's parts k, n - 1, k are cached beside it,
and n - 1 is its scalar's power of 1/2. Then x and y are +-k and +-K, so the
weights are ints over one scale. Words keep their weights through
``reduce``'s group sums; each word a caller sees gets one Fraction from the
scale. Exponents are summed as ints 2 lam; one cache (``_half``) makes their
Fractions, which reduced and generator words share. Given a bound on the delta
power, only the weights up to it are formed; the nonzero ones above it are
counted from the exchange rows' ratio classes. The realization check builds
the delta <= 1 words, the only ones renormalization keeps, counts the
singular rest and reduces the words at their weights, with the exponents
(k + K) / 2 from its ints. It compares the one reduced word with c times the
generator word at (n', k') as ints: equal keys and weight 2^(n'-1) =
c 2^(n+N-2). A match reports the expected word, whose coefficient is the one
Fraction the tuple builds; any other outcome is converted through the scale
and compared as Fractions. Generator words and parts, exchange rows, their
ratio classes and merged test functions are cached per process (bounded
caches; a frozen word does not depend on the table).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Literal, NamedTuple, Optional

from . import lie
from .lie import DomainError
from .scalars import (CScalar, DeltaAtZeroError, PowMap, SingularPartError, Sum, _F0, _cscalar,
                      binom, canon_map, coeff_to_json, power, rational, rational_to_str)
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
_G, _F = fn_symbol("g"), fn_symbol("f")  # verify_theorem's default test functions
_GF = fn_product(_G, _F)


@lru_cache(maxsize=4096)
def _half(twice: int) -> Fraction:
    """twice / 2, one object per value, which generator and reduced words share."""
    return Fraction(twice, 2)


@lru_cache(maxsize=4096)
def gen_to_word(n: int, k: int, label: str = "t", fn: Optional[AnyTestFn] = None) -> EQTerm:
    """The sandwich word (1/2)^(n-1) E(k/2) Q^(n-1) E(k/2) at one label."""
    if n < 2:
        raise DomainError(f"sandwich generators need n >= 2, got n={n}")
    exp = ((label, _half(k)),) if k else ()
    fns = () if fn is None else ((label, fn),)
    return EQTerm(0, ((label, n - 1),), exp, exp, fns, _cscalar(Fraction(1, 2 ** (n - 1)), _F0))


@lru_cache(maxsize=4096)
def _generator(n: int, k: int, label: str, fn: AnyTestFn) -> tuple[EQTerm, tuple]:
    """``gen_to_word(n, k, label, fn)`` and its ``_kernel`` parts: both exponents are
    k / 2, doubled k, and the field power n - 1 is also its scalar's power of 1/2."""
    return gen_to_word(n, k, label, fn), (label, k, n - 1, k)


Direction = Literal["rightward", "leftward"]


def _twice(lam: Fraction):
    """2 lam, as an int when lam is a half-integer, so the exchange rows of a
    generator word are all ints; a Fraction otherwise."""
    num, den = lam.as_integer_ratio()
    return 2 * num // den if den <= 2 else 2 * lam


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
) -> Sum:
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
    """(label, 2 left exponent, field power, 2 right exponent) of a word at one
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
    return (label, _twice(left[0][1]) if left else 0, q_pow[0][1] if q_pow else 0,
            _twice(right[0][1]) if right else 0)


def _products(a: EQTerm, b: EQTerm, minus_ba: bool, max_delta=None) -> tuple[Sum, tuple, int]:
    """``_kernel`` of two sandwich words, their parts read off their blocks and
    the scale off their scalars: p/q and r/s give (p r, q s)."""
    if a.delta_L or b.delta_L:
        raise ValueError("product factors must not carry delta powers")
    pa = _single_label_parts(a)
    pb = _single_label_parts(b)
    if pa is None or pb is None:
        # One factor is a pure scalar: both orders concatenate to the same word.
        if minus_ba:
            return EQ_ZERO, None, 0
        merged = eq_term(a.coeff * b.coeff, a.left_exp + b.left_exp, a.q_pow + b.q_pow,
                         a.right_exp + b.right_exp, testfn=a.testfn + b.testfn)
        return eq_expr([merged]), None, 0
    if a.coeff.im or b.coeff.im:
        return _kernel(a, pa, b, pb, a.coeff * b.coeff, None, minus_ba, max_delta)
    (n1, d1), (n2, d2) = a.coeff.re.as_integer_ratio(), b.coeff.re.as_integer_ratio()
    return _kernel(a, pa, b, pb, n1 * n2, (n1 * n2, d1 * d2), minus_ba, max_delta)


def _kernel(a: EQTerm, pa: tuple, b: EQTerm, pb: tuple, base, scale: Optional[tuple],
            minus_ba: bool, max_delta=None) -> tuple[Sum, Optional[tuple], int]:
    """(a b, or a b - b a when ``minus_ba``, in sandwich shape; its scale (see ``_scaled``);
    the number of its words left out for a delta power above ``max_delta``).

    a and b are single-label words with parts ``pa`` and ``pb`` (label, 2 left
    exponent, field power, 2 right exponent), and ``base`` is the product of
    their scalars: the numerator of ``scale``, or a complex product when the
    scale is None. In a b, b's left exponential moves leftward across a's
    field block and a's right exponential moves rightward across b's field
    block; only these cross-label exchanges are ever needed. For field powers
    p and q, every word of either order has powers u <= p at a's label and
    v <= q at b's label and delta power p+q-u-v, so both orders add up to one
    weight x_u y_v - w_u z_v of four exchange rows: ints when every exponent
    is a half-integer, as in generator words. Only the weights of words kept,
    u + v >= p + q - ``max_delta``, are formed; with no bound, all. Each word
    holds its weight, times ``base`` when there is no scale. The nonzero
    weights above the bound are counted from the rows' ratio classes.
    """
    la, twice_al, p, twice_ar = pa
    lb, twice_bl, q, twice_br = pb
    if la == lb:
        raise DeltaAtZeroError("same-label product would create delta(0)")
    if p < 0 or q < 0:
        raise ValueError(f"negative power in a product factor: {p}, {q}")
    if not base:
        return EQ_ZERO, None, 0
    # a b: Q^p keeps u at a's label, Q^q keeps v at b's label; b a likewise.
    xs, ys = _exchange_row(p, -twice_bl), _exchange_row(q, twice_ar)
    if minus_ba:
        zs, ws = _exchange_row(q, -twice_al), _exchange_row(p, twice_br)
    else:
        zs, ws = (0,) * (q + 1), (0,) * (p + 1)
    a_first = la < lb
    # Each factor's other blocks hold at most one entry, at its own label, so
    # joined in label order they are canonical.
    first, second = (a, b) if a_first else (b, a)
    left_exp = first.left_exp + second.left_exp
    right_exp, testfn = first.right_exp + second.right_exp, first.testfn + second.testfn

    fewest = 0 if max_delta is None else max(p + q - max_delta, 0)  # least u + v built
    words = []
    for u in range(fewest - q if fewest > q else 0, p + 1):
        x, w = xs[u], ws[u]
        for v in range(fewest - u if fewest > u else 0, q + 1):
            weight = x * ys[v] - w * zs[v]
            if weight:
                # {la: u, lb: v} in canonical form: sorted by label, zeros dropped.
                if not u:
                    field = ((lb, v),) if v else ()
                elif not v:
                    field = ((la, u),)
                else:
                    field = ((la, u), (lb, v)) if a_first else ((lb, v), (la, u))
                words.append(_new(EQTerm, (p + q - u - v, field, left_exp, right_exp,
                                           testfn, weight if scale else base * weight)))
    over = 0
    if fewest:
        # x_u y_v - w_u z_v is 0 on rows and columns of a pair (0, 0), and
        # where the classes of x_u : w_u and z_v : y_v agree.
        zero_rows, rows = _ratio_classes(xs, ws)
        zero_cols, cols = _ratio_classes(zs, ys)
        over = (p + 1 - zero_rows) * (q + 1 - zero_cols) - len(words)
        for key, n in rows.items():
            over -= n * cols.get(key, 0)
    # Words differ in (delta power, field block) and share the rest: sorted, they are
    # in a Sum's order, and the sort never compares past the field block.
    words.sort()
    return _new(Sum, (tuple(words),)), scale, over


def _scaled(e: Sum, scale: Optional[tuple]) -> Sum:
    """``e`` with the coefficient num w / den of each weight w at scale (num, den); None: as is."""
    if scale is None:
        return e
    num, den = scale
    return _new(Sum, (tuple([_new(EQTerm, t[:-1] + (_cscalar(Fraction(num * t[-1], den), _F0),))
                             for t in e.terms]),))


def multiply(a: EQTerm, b: EQTerm) -> Sum:
    """Product of two single-label sandwich words, renormalized to sandwich shape."""
    return _scaled(*_products(a, b, minus_ba=False)[:2])


def commutator(a: EQTerm, b: EQTerm) -> Sum:
    """multiply(a, b) - multiply(b, a), canonical, accumulated in one pass."""
    return _scaled(*_products(a, b, minus_ba=True)[:2])


@lru_cache(maxsize=4096)
def _merged_blocks(testfn: FnMap, target: str) -> FnMap:
    """A word's test functions multiplied at ``target``."""
    product = None
    for _, fn in testfn:
        product = fn if product is None else fn_product(product, fn)
    return () if product is None else ((target, product),)


def _doubled(exp: ParamMap):
    """The sum of an exponential block's doubled exponents."""
    twice = 0
    for _, v in exp:
        twice += _twice(v)
    return twice


def _exp_at(twice, target: str) -> ParamMap:
    """The exponential block of exponent twice / 2 at ``target``."""
    return ((target, _half(twice) if type(twice) is int else twice / 2),) if twice else ()


class ReduceResult(NamedTuple):
    reduced: Sum
    l0_residual: Sum
    dropped_singular: int


def reduce(e: Sum, scale: Optional[tuple] = None, twice: Optional[tuple] = None) -> ReduceResult:
    """Apply the delta renormalization and the vanishing-at-zero condition.

    Words with delta power 0 are returned as the residual (a
    commutator of sandwich words must cancel them pairwise). Words with
    delta power >= 2 renormalize to delta(s) delta(t-s), hence carry the
    factor g(0) f(0): they are dropped and counted when some test function
    of the word is known to vanish at zero, and raise SingularPartError
    otherwise. Words with delta power 1 have their labels identified at the
    smallest one and their blocks merged additively: their coefficients (at
    a ``scale`` of ``_kernel``, their weights) are summed per group, keyed
    by the identity of the exponential and test-function blocks (the words
    of one product share them), the merged field power and the target label.
    Each group with a nonzero sum becomes one word with a coefficient, and
    equal blocks that are not identical merge in the canonical sort. A
    group's exponents are summed for it, or read off ``twice``, the doubled
    left and right sums a ``_kernel`` caller knows for every delta word of
    ``e``; its test-function product is built once per block and process,
    and whether a block vanishes at zero is asked once per call.
    """
    groups: dict = {}
    residual = []
    singular = []
    for t in e.terms:
        delta_L, q_pow, left_exp, right_exp, testfn, c = t
        if delta_L == 1:
            target = None  # the smallest label, the least of the blocks' first ones
            for block in (left_exp, q_pow, right_exp, testfn):
                if block and (target is None or block[0][0] < target):
                    target = block[0][0]
            if target is None:
                raise ValueError("a delta word needs a label to merge at")
            power = 0
            for _, e in q_pow:
                power += e
            key = (id(left_exp), id(right_exp), id(testfn), power, target)
            group = groups.get(key)
            if group is None:
                groups[key] = [t, c]  # t holds the blocks
            else:
                group[1] += c
        elif delta_L == 0:
            residual.append(t)
        else:
            singular.append(t)
    if singular:
        fn_blocks = {t.testfn for t in singular}
        vanishes = {fns: any(fn_vanishes_at_zero(fn) for _, fn in fns) for fns in fn_blocks}
        offenders = [t for t in singular if not vanishes[t.testfn]]
        if offenders:
            raise SingularPartError(
                f"{len(offenders)} singular term(s) do not vanish: "
                "test functions must vanish at zero",
                _scaled(_new(Sum, (tuple(offenders),)), scale).terms,
            )
    reduced = []
    for (_, _, _, power, target), (t, c) in groups.items():
        testfn = _merged_blocks(t.testfn, target)  # raises if the functions do not multiply
        if c:
            q_pow = ((target, power),) if power else ()
            left, right = (_doubled(t.left_exp), _doubled(t.right_exp)) if twice is None else twice
            reduced.append(_new(EQTerm, (0, q_pow, _exp_at(left, target), _exp_at(right, target),
                                         testfn, c)))
    # A single word is canonical; so is the residual, a subsequence of a canonical sum.
    reduced = _scaled(_new(Sum, (tuple(reduced),)), scale)
    reduced = eq_expr(reduced.terms) if len(reduced.terms) > 1 else reduced
    residual = _scaled(_new(Sum, (tuple(residual),)), scale)
    return _new(ReduceResult, (reduced, residual, len(singular)))


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


def verify_theorem(n: int, k: int, N: int, K: int, g: Optional[AnyTestFn] = None,
                   f: Optional[AnyTestFn] = None) -> TheoremReport:
    """Check the w-infinity relation for the sandwich generators.

    Builds the two generator words, expands the delta <= 1 words of their
    commutator, reduces them, and compares structurally against c times the
    generator word at (n', k'), carrying the test-function product g f, where

        [B^n_k, B^N_K] = c B^{n'}_{k'}

    is read from ``lie.structure`` (for the true table c = k (N-1) - K (n-1)
    and (n', k') = (n+N-2, k+K)), the table the Jacobi scans certify.
    Passing requires the reduced expression to equal that word exactly (as
    ints, at the weights) and the delta-free residual to vanish. A nonzero
    bracket whose target leaves the family n' >= 2 has no sandwich word and
    fails. The singular words (delta >= 2) all carry g and f: they are only
    counted, and dropped when g or f vanishes at zero; otherwise the full
    commutator is expanded and ``reduce`` raises SingularPartError on it.
    """
    if n < 2 or N < 2:
        raise DomainError("realization indices need n, N >= 2")
    g, f = (_G if g is None else g), (_F if f is None else f)
    a, pa = _generator(n, k, "t", g)
    b, pb = _generator(N, K, "s", f)
    scale = (1, 1 << (n + N - 2))  # the scalars 2^-(n-1) and 2^-(N-1)
    comm, _, singular = _kernel(a, pa, b, pb, 1, scale, True, 1)
    if singular and not (fn_vanishes_at_zero(g) or fn_vanishes_at_zero(f)):
        reduce(commutator(a, b))  # raises SingularPartError on the singular words
    # Weights: every delta word merges its exponents to (k + K) / 2 on both sides,
    # at the smaller label "s", into at most one word.
    reduced, residual, _ = reduce(comm, None, (k + K, k + K))
    expected_coeff, n2, k2 = lie.structure(lie.AlgebraKind.WINFINITY, n, k, N, K)
    in_family = n2 >= 2
    expected, matched = EQ_ZERO, not reduced.terms
    if in_family and expected_coeff:
        word = gen_to_word(n2, k2, "s", _GF if g is _G and f is _F else fn_product(g, f))
        # weight / den = c / 2^(n'-1), compared as ints (the scale's numerator is 1)
        matched = (len(reduced.terms) == 1 and reduced.terms[0][:-1] == word[:-1]
                   and reduced.terms[0][-1] << (n2 - 1) == expected_coeff * scale[1])
        expected = _new(Sum, ((_new(EQTerm, word[:-1] + (
            _cscalar(Fraction(expected_coeff, 1 << (n2 - 1)), _F0),)),),))
    computed = expected
    if not matched or residual.terms:
        computed, residual = _scaled(reduced, scale), _scaled(residual, scale)
    passed = (in_family or not expected_coeff) and not residual.terms and computed == expected
    return _new(TheoremReport, (n, k, N, K, passed, expected_coeff, computed, residual, singular))


# -- JSON --------------------------------------------------------------------

def eq_expr_to_json(e: Sum) -> list[dict]:
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
