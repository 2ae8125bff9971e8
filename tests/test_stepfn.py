from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cscalars, rationals, s0_step_fns, step_fns
from rhpwn.scalars import CS_ONE, CS_ZERO, CScalar
from rhpwn.stepfn import (
    FnSymbol,
    ZERO_FN,
    add,
    conjugate,
    evaluate,
    fn_symbol,
    indicator,
    integrate,
    interval_set,
    is_in_S0,
    make_step,
    pointwise_product,
    scale,
    step_from_records,
    step_to_records,
    fn_conjugate,
    fn_product,
    fn_vanishes_at_zero,
)


def chi(a, b):
    return indicator([(a, b)])


def test_make_step_indicator():
    assert make_step([0, 1], [1]) == chi(0, 1)
    assert make_step([1, 2], [CScalar(Fraction(3), Fraction(2))]).pieces == (
        (Fraction(1), Fraction(2), CScalar(Fraction(3), Fraction(2))),
    )


def test_make_step_merges_equal_pieces():
    assert make_step([0, 1, 2], [5, 5]) == make_step([0, 2], [5])
    # zero-valued pieces vanish entirely
    assert make_step([0, 1, 2], [0, 0]) == ZERO_FN


def test_make_step_validates():
    with pytest.raises(ValueError):
        make_step([1, 0], [1])
    with pytest.raises(ValueError):
        make_step([0, 1], [1, 2])


def test_indicator_right_continuity():
    f = chi(1, 2)
    assert evaluate(f, 1) == CS_ONE
    assert evaluate(f, 2) == CS_ZERO
    assert not is_in_S0(indicator([(-1, 1)]))


def test_interval_set_coalesces():
    s = interval_set([(2, 3), (0, 1), (1, 2)])
    assert s.intervals == ((Fraction(0), Fraction(3)),)
    assert Fraction(1, 2) in s and Fraction(3) not in s
    with pytest.raises(ValueError):
        interval_set([(1, 1)])


def test_pointwise_product_examples():
    assert pointwise_product(chi(0, 2), chi(1, 3)) == chi(1, 2)
    f = make_step([0, 2], [CScalar(Fraction(2), Fraction(1))])
    assert pointwise_product(f, ZERO_FN) == ZERO_FN


def test_conjugate_examples():
    f = make_step([0, 1], [CScalar(Fraction(3), Fraction(2))])
    assert conjugate(f) == make_step([0, 1], [CScalar(Fraction(3), Fraction(-2))])
    assert conjugate(conjugate(f)) == f
    assert conjugate(chi(1, 2)) == chi(1, 2)


def test_evaluate_examples():
    assert evaluate(chi(1, 2), 1) == CS_ONE
    assert evaluate(indicator([(-1, 1)]), 0) == CS_ONE
    assert evaluate(chi(1, 2), 0) == CS_ZERO


def test_integrate_examples():
    assert integrate(chi(1, 3)) == CScalar.of(2)
    assert integrate(ZERO_FN) == CS_ZERO
    f = scale(CScalar(Fraction(2), Fraction(1)), chi(0, Fraction(1, 2)))
    assert integrate(f) == CScalar(Fraction(1), Fraction(1, 2))


def test_is_in_S0_examples():
    assert is_in_S0(chi(1, 2))
    assert not is_in_S0(chi(0, 1))
    assert is_in_S0(ZERO_FN)


@given(step_fns(), step_fns(), step_fns())
def test_product_commutative_associative(f, g, h):
    assert pointwise_product(f, g) == pointwise_product(g, f)
    assert pointwise_product(pointwise_product(f, g), h) == pointwise_product(
        f, pointwise_product(g, h)
    )


@given(step_fns(), step_fns(), rationals)
def test_evaluate_is_ring_homomorphism(f, g, t):
    assert evaluate(pointwise_product(f, g), t) == evaluate(f, t) * evaluate(g, t)
    assert evaluate(add(f, g), t) == evaluate(f, t) + evaluate(g, t)


@given(s0_step_fns(), s0_step_fns(), cscalars)
def test_s0_closure(f, g, c):
    assert is_in_S0(pointwise_product(f, g))
    assert is_in_S0(conjugate(f))
    assert is_in_S0(scale(c, f))
    assert is_in_S0(add(f, g))


@given(cscalars, cscalars, step_fns(), step_fns())
def test_integrate_linear(a, b, f, g):
    combo = add(scale(a, f), scale(b, g))
    assert integrate(combo) == a * integrate(f) + b * integrate(g)


@given(step_fns())
def test_records_round_trip(f):
    assert step_from_records(step_to_records(f)) == f


@pytest.mark.parametrize(
    "piece",
    [
        {"from": "2", "to": "1", "re": "1"},  # reversed
        {"from": "1", "to": "1", "re": "1"},  # empty
        {"from": "2", "to": "1", "re": "0"},  # reversed and zero-valued
    ],
)
def test_step_from_records_rejects_empty_or_reversed_pieces(piece):
    with pytest.raises(ValueError, match="empty or reversed piece"):
        step_from_records([{"from": "0", "to": "1", "re": "1"}, piece])


def test_symbol_product_and_conjugation():
    g = fn_symbol("g")
    f = fn_symbol("f", in_S0=False)
    gf = fn_product(g, f)
    assert gf == FnSymbol(("f", "g"), True)
    assert fn_conjugate(gf) == FnSymbol(("~f", "~g"), True)
    assert fn_conjugate(fn_conjugate(gf)) == gf
    assert fn_vanishes_at_zero(gf)
    assert not fn_vanishes_at_zero(f)
    with pytest.raises(TypeError):
        fn_product(g, chi(0, 1))
    with pytest.raises(ValueError):
        fn_symbol("not a name")
