from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cscalars, nonzero_cscalars, rationals
from rhpwn.lie import AlgebraKind, element, generator
from rhpwn.sandwich import EQTerm, eq_expr, eq_term
from rhpwn.scalars import (
    CScalar,
    binom,
    epsilon,
    falling,
    rational_from_str,
    rational_to_str,
    theta,
)
from rhpwn.stepfn import evaluate, fn_sort_key, fn_symbol, indicator, interval_set, make_step
from rhpwn.wick import WNTerm, wn_expr, wn_term


@pytest.mark.parametrize(
    "K, L, expected",
    [(3, 5, 0), (4, 0, 1), (5, 2, 10), (8, 8, 1), (0, 0, 1)],
)
def test_binom(K, L, expected):
    assert binom(K, L) == expected


@pytest.mark.parametrize(
    "n, L, expected",
    [(2, 0, 1), (1, 3, 0), (4, 2, 12), (5, 5, 120), (0, 1, 0)],
)
def test_falling(n, L, expected):
    assert falling(n, L) == expected


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        binom(-1, 2)
    with pytest.raises(ValueError):
        binom(2, -1)
    with pytest.raises(ValueError):
        falling(-3, 0)


def test_epsilon():
    assert epsilon(3, 3) == 0
    assert epsilon(0, 1) == 1
    assert epsilon(5, 0) == 1


@pytest.mark.parametrize(
    "L, n, k, N, K, expected",
    [
        (2, 2, 2, 2, 2, 0),
        (2, 2, 3, 4, 1, 36),  # 1*1*binom(3,2)*falling(4,2) - 1*1*binom(1,2)*falling(2,2)
        (3, 0, 2, 3, 0, 0),
    ],
)
def test_theta(L, n, k, N, K, expected):
    assert theta(L, n, k, N, K) == expected


def test_theta_rejects_small_L():
    with pytest.raises(ValueError):
        theta(1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        theta(2, -1, 0, 0, 0)


@given(
    st.integers(2, 8),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 8),
)
def test_theta_antisymmetry(L, n, k, N, K):
    assert theta(L, n, k, N, K) == -theta(L, N, K, n, k)


@given(st.integers(0, 12), st.integers(0, 12))
def test_binom_falling_identity(K, L):
    # binom(K,L) * L! = falling(K,L), the identity matching the two
    # coefficient conventions against each other
    assert binom(K, L) * falling(L, L) == falling(K, L)


@given(cscalars, cscalars, cscalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(cscalars)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a


@given(cscalars, cscalars)
def test_conjugate_ring_homomorphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(cscalars, nonzero_cscalars)
def test_exact_division(a, b):
    assert (a / b) * b == a


def test_coercion_and_str():
    assert CScalar.of(3) == CScalar(Fraction(3))
    assert 2 * CScalar(Fraction(1, 2)) == CScalar.of(1)
    assert str(CScalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
    assert str(CScalar(Fraction(0), Fraction(2))) == "2*i"


@given(rationals)
def test_rational_string_codec(x):
    # the one string form of rationals in step-function records and exponents
    s = rational_to_str(x)
    assert s == (f"{x.numerator}" if x.denominator == 1 else f"{x.numerator}/{x.denominator}")
    assert rational_from_str(s) == x


def test_rational_from_str_reads_decimals_as_printed():
    # hand-written records may hold JSON numbers or decimal strings
    assert rational_from_str(1.5) == rational_from_str("1.5") == Fraction(3, 2)
    assert rational_from_str(0.1) == Fraction(1, 10)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CScalar.of(0.1),
        lambda: CScalar(0.5),
        lambda: CScalar(1, 0.5),
        lambda: CScalar(1) + 0.5,
        lambda: 0.5 + CScalar(1),
        lambda: CScalar(1) - 0.5,
        lambda: 0.5 - CScalar(1),
        lambda: CScalar(1) * 0.5,
        lambda: 0.5 * CScalar(1),
        lambda: CScalar(1) / 0.5,
        lambda: CScalar.of(Decimal("0.5")),
        lambda: CScalar.of("1/2"),
        lambda: make_step([0.1, 1], [1]),
        lambda: make_step(["0", "1"], [1]),
        lambda: interval_set([(0, 0.5)]),
        lambda: indicator([(0.25, 1)]),
        lambda: 0.5 in interval_set([(0, 1)]),
        lambda: evaluate(make_step([0, 1], [1]), 0.5),
        lambda: eq_term(1, left_exp={"t": 0.5}),
        lambda: eq_term(1, right_exp=[("t", Decimal("0.5"))]),
    ],
    ids=[
        "of-float", "ctor-re", "ctor-im", "add", "radd", "sub", "rsub", "mul", "rmul",
        "div", "of-decimal", "of-str", "step-breakpoint", "step-str", "interval-end",
        "indicator", "interval-contains", "evaluate-at", "eq-left-exponent",
        "eq-right-exponent",
    ],
)
def test_inexact_values_are_rejected(make):
    # a binary float would silently become a different rational; every
    # constructor of an exact value goes through the one coercion rule
    with pytest.raises(TypeError):
        make()


_real_cscalars = st.builds(CScalar, rationals)
_operands = st.one_of(cscalars, _real_cscalars, st.integers(-9, 9), rationals)


def _parts(x):
    return (x.re, x.im) if isinstance(x, CScalar) else (Fraction(x), Fraction(0))


def _assert_built_from(result, re, im):
    # arithmetic results skip the public constructor's coercion: they must be
    # indistinguishable from a value built through it
    assert type(result) is CScalar
    assert type(result.re) is Fraction and type(result.im) is Fraction
    assert (result.re, result.im) == (re, im)
    assert result == CScalar(re, im) and hash(result) == hash(CScalar(re, im))


@given(st.one_of(cscalars, _real_cscalars), _operands)
def test_arithmetic_matches_component_formulas(x, y):
    a, b = _parts(x)
    c, d = _parts(y)
    _assert_built_from(x + y, a + c, b + d)
    _assert_built_from(y + x, a + c, b + d)
    _assert_built_from(x - y, a - c, b - d)
    _assert_built_from(y - x, c - a, d - b)
    _assert_built_from(x * y, a * c - b * d, a * d + b * c)
    _assert_built_from(y * x, a * c - b * d, a * d + b * c)
    _assert_built_from(-x, -a, -b)
    _assert_built_from(x.conjugate(), a, -b)
    _assert_built_from(CScalar.of(y), c, d)
    if c or d:
        _assert_built_from(x / y, (a * c + b * d) / (c * c + d * d), (b * c - a * d) / (c * c + d * d))


# -- the shared linear-combination core ---------------------------------------

_small_cscalars = st.builds(
    CScalar, st.integers(-2, 2).map(Fraction), st.integers(-1, 1).map(Fraction)
)
_pows = st.dictionaries(st.sampled_from(["s", "t"]), st.integers(0, 2), max_size=2)
_lams = st.dictionaries(
    st.sampled_from(["s", "t"]), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1)]),
    max_size=2,
)
_testfns = st.sampled_from(
    [fn_symbol("f"), fn_symbol("g", in_S0=False), indicator([(0, 1)]), indicator([(-1, 2)])]
)


@st.composite
def _wn_terms(draw):
    delta_L = draw(st.integers(0, 2))
    evals = draw(st.sampled_from([(), ("s",)])) if delta_L < 2 else ()
    return wn_term(draw(_small_cscalars), draw(_pows), draw(_pows), ("s", "t"), delta_L, evals)


@st.composite
def _eq_terms(draw):
    fns = draw(st.dictionaries(st.sampled_from(["s", "t"]), _testfns, max_size=2))
    return eq_term(
        draw(_small_cscalars), draw(_lams), draw(_pows), draw(_lams), draw(st.integers(0, 2)), fns
    )


_SUMS = {
    "Element": st.lists(
        st.tuples(
            st.builds(
                generator,
                st.just(AlgebraKind.RHPWN),
                st.integers(0, 2),
                st.integers(0, 2),
                st.one_of(st.none(), _testfns),
                st.just(True),
            ),
            _small_cscalars,
        ),
        max_size=6,
    ).map(lambda items: element(AlgebraKind.RHPWN, items)),
    "WNExpr": st.lists(_wn_terms(), max_size=6).map(wn_expr),
    "EQExpr": st.lists(_eq_terms(), max_size=6).map(eq_expr),
}


@pytest.mark.parametrize("name", sorted(_SUMS))
@given(data=st.data())
def test_linear_combinations_are_canonical(name, data):
    a = data.draw(_SUMS[name])
    b = data.draw(_SUMS[name])
    cls = type(a)
    keys = [t[:-1] for t in a.terms]
    ranks = [cls.order(key) if cls.order else key for key in keys]
    assert all(x < y for x, y in zip(ranks, ranks[1:]))
    assert len(set(keys)) == len(keys)
    assert all(t[-1] for t in a.terms)
    assert a - b == a + b.scaled(-1)
    assert -a == a.scaled(-1)
    assert (a - a).is_zero


def _reference_key(t):
    """The order of a sum's terms, written out field by field."""
    if isinstance(t, WNTerm):
        return (t.delta_L, t.creators, t.annihilators, t.point_evals, t.delta_pair or ())
    if isinstance(t, EQTerm):
        fns = tuple((label, fn_sort_key(fn)) for label, fn in t.testfn)
        return (t.delta_L, t.q_pow, t.left_exp, t.right_exp, fns)
    g, _ = t
    return (g.n, g.k, fn_sort_key(g.label))


@pytest.mark.parametrize("name", sorted(_SUMS))
@given(data=st.data())
def test_every_term_ends_with_its_coefficient(name, data):
    s = data.draw(_SUMS[name])
    cls = type(s)
    for t in s.terms:
        assert t[-1] is (t[1] if name == "Element" else t.coeff)
    assert list(s.terms) == sorted(s.terms, key=_reference_key)
    if not s.terms:
        assert cls.canonical((), *s.head) == s
        return
    extra = data.draw(st.sampled_from(s.terms))
    shuffled = data.draw(st.permutations(s.terms + (extra,)))
    total = cls.canonical(shuffled, *s.head)
    doubled = tuple(t[:-1] + (t[-1] * 2,) if t is extra else t for t in s.terms)
    assert total == cls(*s.head, doubled)
    assert [type(t) for t in total.terms] == [type(t) for t in s.terms]
