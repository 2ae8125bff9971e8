"""Normally ordered white-noise words and the two-point commutator calculus.

A word is a product of creator powers, annihilator powers, a power of the
pair delta between the two active labels, and point-evaluation delta markers
produced by renormalization. Creators commute among themselves and so do
annihilators, so per-label exponent maps represent words faithfully; every
expression is a canonically sorted sum of such words (scalars.Sum). The
smeared bracket reads both of its parts off the one commutator expansion.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, NamedTuple, Optional

from . import lie
from .scalars import (CS_ZERO, CScalar, DeltaAtZeroError, PowMap, Sum, binom, canon_map,
                      coeff_to_json, falling, power)
from .stepfn import (
    StepFn,
    AnyTestFn,
    evaluate,
    fn_product,
    fn_vanishes_at_zero,
)


class WNTerm(NamedTuple):
    """One normally ordered word with an exact complex coefficient; the
    fields before ``coeff`` are its key in a Sum. ``delta_pair`` is None
    exactly when ``delta_L`` is 0."""

    delta_L: int
    creators: PowMap
    annihilators: PowMap
    point_evals: tuple[str, ...]
    delta_pair: Optional[tuple[str, str]]
    coeff: CScalar


def wn_term(
    coeff,
    creators: Mapping[str, int] | Iterable = (),
    annihilators: Mapping[str, int] | Iterable = (),
    delta_pair: Optional[tuple[str, str]] = None,
    delta_L: int = 0,
    point_evals: Iterable[str] = (),
) -> WNTerm:
    """Canonical word constructor.

    The pair delta is symmetric, so its labels are stored sorted; identical
    labels are rejected outright because delta(0) has no meaning under the
    renormalization rule used here.
    """
    if delta_L < 0:
        raise ValueError("delta exponent must be nonnegative")
    if delta_L and delta_pair is None:
        raise ValueError("a positive delta exponent needs a label pair")
    if delta_L >= 2 and point_evals:
        raise ValueError(
            "a delta power >= 2 cannot coexist with point-evaluation markers; "
            "renormalization replaces the power outright"
        )
    if delta_pair is not None:
        a, b = delta_pair
        if a == b:
            raise DeltaAtZeroError(f"delta(0) at label {a!r}")
        delta_pair = (a, b) if a < b else (b, a)
        if delta_L == 0:
            delta_pair = None
    coeff = CScalar.of(coeff)
    creators, annihilators = canon_map(creators, power), canon_map(annihilators, power)
    return WNTerm(delta_L, creators, annihilators, tuple(sorted(point_evals)), delta_pair, coeff)


def wn_expr(terms: Iterable[WNTerm] = ()) -> Sum:
    return Sum.canonical(terms)


def monomial_commutator(
    n: int, k: int, N: int, K: int, labels: tuple[str, str] = ("t", "s")
) -> Sum:
    """Commutator of two normally ordered monomials at distinct points.

    [b_t^+^n b_t^k, b_s^+^N b_s^K] expands to

        sum_{L>=1} binom(k,L) falling(N,L)
                   b_t^+^n b_s^+^(N-L) b_t^(k-L) b_s^K  delta^L(t-s)
      - sum_{L>=1} binom(K,L) falling(n,L)
                   b_s^+^N b_t^+^(n-L) b_s^(K-L) b_t^k  delta^L(t-s)

    The sums terminate at min(k, N) and min(K, n): past that point the
    binomial/falling-factorial conventions make every summand vanish, which
    also makes the eps(k,0) eps(N,0) prefactors redundant.
    """
    if min(n, k, N, K) < 0:
        raise ValueError("monomial indices must be nonnegative")
    t, s = labels
    if t == s:
        raise DeltaAtZeroError("the commutator expansion needs two distinct labels")
    # The second sum is the first with the two monomials swapped, negated.
    sums = ((1, (t, n, k), (s, N, K)), (-1, (s, N, K), (t, n, k)))
    return wn_expr(
        wn_term(
            sign * binom(k1, L) * falling(n2, L),
            {x1: n1, x2: n2 - L},
            {x1: k1 - L, x2: k2},
            delta_pair=(t, s),
            delta_L=L,
        )
        for sign, (x1, n1, k1), (x2, n2, k2) in sums
        for L in range(1, min(k1, n2) + 1)
    )


def renormalize(e: Sum) -> Sum:
    """Apply delta^L(t-s) = delta(s) delta(t-s) to every word with L >= 2.

    The point-evaluation marker lands on the first label of the (sorted)
    pair; under the surviving delta(t-s) the two choices are equivalent.
    Words with L in {0, 1} pass through unchanged, so the map is idempotent.
    """
    return wn_expr(
        t._replace(delta_L=1, point_evals=tuple(sorted(t.point_evals + (t.delta_pair[0],))))
        if t.delta_L >= 2
        else t
        for t in e.terms
    )


def collapse_single_mode(e: Sum) -> dict[tuple[int, int], CScalar]:
    """Coincident-point shadow: identify all labels and set every delta to 1.

    Returns the map (creator power, annihilator power) -> coefficient. Only
    meaningful for expressions without point-evaluation markers.
    """
    acc: dict[tuple[int, int], CScalar] = {}
    for t in e.terms:
        if t.point_evals:
            raise ValueError("single-mode collapse is undefined for point-eval markers")
        key = sum(x for _, x in t.creators), sum(x for _, x in t.annihilators)
        old = acc.get(key)
        acc[key] = t.coeff if old is None else old + t.coeff
    return {key: c for key, c in acc.items() if c}


class SingularTerm(NamedTuple):
    """One order-L singular contribution of the smeared bracket."""

    L: int
    theta: int
    index: tuple[int, int]
    scalar: Optional[CScalar]  # None when it cannot be decided symbolically


class BracketDecomposition(NamedTuple):
    """Smeared-bracket split into a regular part and singular terms.

    The regular part is regular_coeff * B^{n'}_{k'}(g f) with (n', k') =
    regular_index; each singular term multiplies the formal word
    b_0^+^(n'') b_0^(k'') by theta * g(0) f(0), and is listed only when its
    theta coefficient is nonzero.
    """

    regular_coeff: int
    regular_index: tuple[int, int]
    regular_testfn: AnyTestFn
    singular: tuple[SingularTerm, ...]


def smear_bracket(
    n: int, k: int, g: AnyTestFn, N: int, K: int, f: AnyTestFn
) -> BracketDecomposition:
    """Decompose [B^n_k(g), B^N_K(f)] after renormalization.

    Both parts are the words of ``monomial_commutator`` with its labels
    identified (renormalization changes no coefficient and no degree); the
    order-L word has degrees (n+N-L, k+K-L). Regular part: the word at the
    RHPWN target of ``lie.structure`` (L = 1, kN - Kn; 0 if absent), with
    test function g f. Singular part: every other word, its coefficient
    theta_L, with scalar g(0) f(0).
    """
    if min(n, k, N, K) < 0:
        raise ValueError("indices must be nonnegative")
    _, n2, k2 = lie.structure(lie.AlgebraKind.RHPWN, n, k, N, K)
    coeffs = collapse_single_mode(monomial_commutator(n, k, N, K))
    regular = coeffs.pop((n2, k2), CS_ZERO)
    if isinstance(g, StepFn) and isinstance(f, StepFn):
        scalar: Optional[CScalar] = evaluate(g, 0) * evaluate(f, 0)
    elif fn_vanishes_at_zero(g) or fn_vanishes_at_zero(f):
        scalar = CS_ZERO
    else:
        scalar = None
    singular = tuple(SingularTerm(n + N - a, int(c.re), (a, b), scalar)
                     for (a, b), c in sorted(coeffs.items(), reverse=True))
    return BracketDecomposition(int(regular.re), (n2, k2), fn_product(g, f), singular)


# -- JSON rendering ----------------------------------------------------------

def wn_expr_to_json(e: Sum) -> list[dict]:
    return [
        {
            "coeff": coeff_to_json(t.coeff),
            "creators": dict(t.creators),
            "annihilators": dict(t.annihilators),
            "delta_L": t.delta_L,
            "point_evals": list(t.point_evals),
        }
        for t in e.terms
    ]
