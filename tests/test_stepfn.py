from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import indicator, rationals, s0_step_fns, step_fns
from rhpwn.scalars import CS_ONE, CS_ZERO, CScalar
from rhpwn.stepfn import (
    FnSymbol,
    ZERO_FN,
    evaluate,
    fn_symbol,
    is_in_S0,
    make_step,
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


def test_pointwise_product_examples():
    assert fn_product(chi(0, 2), chi(1, 3)) == chi(1, 2)
    f = make_step([0, 2], [CScalar(Fraction(2), Fraction(1))])
    assert fn_product(f, ZERO_FN) == ZERO_FN


def test_conjugate_examples():
    f = make_step([0, 1], [CScalar(Fraction(3), Fraction(2))])
    assert fn_conjugate(f) == make_step([0, 1], [CScalar(Fraction(3), Fraction(-2))])
    assert fn_conjugate(fn_conjugate(f)) == f
    assert fn_conjugate(chi(1, 2)) == chi(1, 2)


def test_evaluate_examples():
    assert evaluate(chi(1, 2), 1) == CS_ONE
    assert evaluate(indicator([(-1, 1)]), 0) == CS_ONE
    assert evaluate(chi(1, 2), 0) == CS_ZERO


def test_is_in_S0_examples():
    assert is_in_S0(chi(1, 2))
    assert not is_in_S0(chi(0, 1))
    assert is_in_S0(ZERO_FN)


@given(step_fns(), step_fns(), step_fns())
def test_product_commutative_associative(f, g, h):
    assert fn_product(f, g) == fn_product(g, f)
    assert fn_product(fn_product(f, g), h) == fn_product(f, fn_product(g, h))


@given(step_fns(), step_fns(), rationals)
def test_evaluate_is_ring_homomorphism(f, g, t):
    assert evaluate(fn_product(f, g), t) == evaluate(f, t) * evaluate(g, t)


@given(s0_step_fns(), s0_step_fns())
def test_s0_closure(f, g):
    assert is_in_S0(fn_product(f, g))
    assert is_in_S0(fn_conjugate(f))


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
