import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rhpwn.wick
from conftest import cscalars, s0_step_fns
from rhpwn.oracle import _safe_columns, build
from rhpwn.scalars import CS_ZERO, CScalar, DeltaAtZeroError, falling, theta
from rhpwn.stepfn import fn_symbol
from rhpwn.wick import (
    collapse_single_mode,
    monomial_commutator,
    renormalize,
    smear_bracket,
    wn_expr,
    wn_expr_to_json,
    wn_term,
)


def test_ccr_base_case():
    # [b_t, b_s^+] is the pair delta times the central element
    expected = wn_expr([wn_term(1, {}, {}, ("t", "s"), 1)])
    assert monomial_commutator(0, 1, 1, 0) == expected


def test_square_against_squared_creator():
    # single-mode oracle check behind it: [a^2, ad^2] = 4 ad a + 2
    expected = wn_expr(
        [
            wn_term(4, {"s": 1}, {"t": 1}, ("t", "s"), 1),
            wn_term(2, {}, {}, ("t", "s"), 2),
        ]
    )
    assert monomial_commutator(0, 2, 2, 0) == expected


def test_number_operator_pair():
    expected = wn_expr(
        [
            wn_term(1, {"t": 1}, {"s": 1}, ("t", "s"), 1),
            wn_term(-1, {"s": 1}, {"t": 1}, ("t", "s"), 1),
        ]
    )
    assert monomial_commutator(1, 1, 1, 1) == expected


def test_identical_labels_rejected():
    with pytest.raises(DeltaAtZeroError):
        monomial_commutator(1, 1, 1, 1, labels=("t", "t"))
    with pytest.raises(DeltaAtZeroError):
        wn_term(1, {}, {}, ("t", "t"), 1)
    with pytest.raises(ValueError):
        monomial_commutator(-1, 0, 0, 0)
    with pytest.raises(ValueError, match="negative power -1 at label 't'"):
        wn_term(1, {"t": -1})
    with pytest.raises(ValueError, match="delta exponent must be nonnegative"):
        wn_term(1, {}, {}, ("t", "s"), -1)
    with pytest.raises(ValueError, match="a positive delta exponent needs a label pair"):
        wn_term(1, {"t": 1}, {}, None, 1)
    with pytest.raises(ValueError, match="cannot coexist with point-evaluation markers"):
        wn_term(1, {}, {}, ("t", "s"), 2, point_evals=("s",))


def test_antisymmetry_grid():
    for n, k, N, K in itertools.product(range(6), repeat=4):
        forward = monomial_commutator(n, k, N, K, labels=("t", "s"))
        backward = monomial_commutator(N, K, n, k, labels=("s", "t"))
        assert (forward + backward).is_zero


def test_renormalize_examples():
    cubed = wn_expr([wn_term(1, {"t": 2}, {"s": 1}, ("t", "s"), 3)])
    expected = wn_expr(
        [wn_term(1, {"t": 2}, {"s": 1}, ("t", "s"), 1, point_evals=("s",))]
    )
    assert renormalize(cubed) == expected
    single = wn_expr([wn_term(5, {"t": 1}, {}, ("t", "s"), 1)])
    assert renormalize(single) == single


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_renormalize_idempotent(n, k, N, K):
    e = monomial_commutator(n, k, N, K)
    once = renormalize(e)
    assert renormalize(once) == once


@given(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), cscalars
)
def test_renormalize_commutes_with_linear_structure(n, k, N, K, c):
    e = monomial_commutator(n, k, N, K)
    other = monomial_commutator(min(n + 1, 3), k, N, K)
    assert renormalize(e.scaled(c)) == renormalize(e).scaled(c)
    assert renormalize(e + other) == renormalize(e) + renormalize(other)


def test_smear_bracket_example():
    d = smear_bracket(1, 2, fn_symbol("g"), 2, 1, fn_symbol("f"))
    assert d.regular_coeff == 3
    assert d.regular_index == (2, 2)
    assert d.regular_testfn.factors == ("f", "g")
    assert [(s.L, s.theta, s.index, s.scalar) for s in d.singular] == [
        (2, 2, (1, 1), CS_ZERO)
    ]


def test_smear_bracket_pure_creators():
    for n, N in [(0, 0), (2, 3), (4, 1)]:
        d = smear_bracket(n, 0, fn_symbol("g"), N, 0, fn_symbol("f"))
        assert d.regular_coeff == 0
        assert d.singular == ()


def test_smear_bracket_number_pair():
    d = smear_bracket(1, 1, fn_symbol("g"), 1, 1, fn_symbol("f"))
    assert d.regular_coeff == 0
    assert d.regular_index == (1, 1)
    assert d.singular == ()


def test_smear_bracket_unknown_scalar_without_s0():
    d = smear_bracket(1, 2, fn_symbol("g", in_S0=False), 2, 1, fn_symbol("f", in_S0=False))
    assert [s.scalar for s in d.singular] == [None]


def test_expansion_orders_sum_to_theta():
    # the paper's closed form theta is not what smear reads, so it checks the
    # expansion: summed per order L, the words give theta_L, and smear lists them
    for n, k, N, K in itertools.product(range(9), repeat=4):
        thetas = [(L, theta(L, n, k, N, K)) for L in range(2, 9) if theta(L, n, k, N, K)]
        sums = collapse_single_mode(monomial_commutator(n, k, N, K))
        regular = {(n + N - 1, k + K - 1): CScalar.of(k * N - K * n)} if k * N - K * n else {}
        orders = {(n + N - L, k + K - L): CScalar.of(th) for L, th in thetas}
        assert sums == {**regular, **orders}
        d = smear_bracket(n, k, fn_symbol("g"), N, K, fn_symbol("f"))
        assert [(s.L, s.theta) for s in d.singular] == thetas


def test_smear_bracket_reads_the_expansion(monkeypatch):
    # criterion 7's kN - Kn checks the expansion: an off-by-one falling
    # factorial in it moves smear's regular coefficient, 2*3 - 1*2 here
    g, f = fn_symbol("g"), fn_symbol("f")
    assert smear_bracket(1, 2, g, 2, 1, f).regular_coeff == 3
    monkeypatch.setattr(rhpwn.wick, "falling", lambda n, L: falling(n, L) + 1)
    assert smear_bracket(1, 2, g, 2, 1, f).regular_coeff == 4


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_epsilon_redundancy(n, k, N, K):
    d = smear_bracket(n, k, fn_symbol("g"), N, K, fn_symbol("f"))
    assert d.regular_coeff == k * N - K * n


@given(
    s0_step_fns(),
    s0_step_fns(),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_singular_scalars_vanish_on_s0(g, f, n, k, N, K):
    d = smear_bracket(n, k, g, N, K, f)
    assert all(s.scalar == CS_ZERO for s in d.singular)


def _nonzero(column):
    return {d: v for d, v in column.items() if v}


def _image(words, c):
    """(degree, coefficient) of the image of x^c under the product of
    ``words``, the first applied first, or None where it vanishes."""
    coeff = 1
    for deg, co in words:
        if not co[c]:
            return None
        c, coeff = deg[c], coeff * co[c]
    return c, coeff


def _oracle_column_of_collapse(ops, collapsed, c):
    """Image of x^c under the collapsed expansion, as {degree: coefficient}."""
    out = {}
    for (ncre, nann), coeff in collapsed.items():
        assert not coeff.im and coeff.re.denominator == 1
        hit = _image([ops.word(ncre, nann)], c)
        if hit:
            out[hit[0]] = out.get(hit[0], 0) + coeff.re.numerator * hit[1]
    return _nonzero(out)


@pytest.mark.parametrize(
    "n, k, N, K", list(itertools.product(range(3), repeat=4))[::7] + [(2, 2, 2, 2)]
)
def test_collapse_matches_polynomial_representation(n, k, N, K):
    # dual route: the two-point expansion, collapsed to one mode with all
    # deltas set to 1, must reproduce the oracle's commutator column by column
    D = 20
    ops = build(D)
    w1, w2 = ops.word(n, k), ops.word(N, K)
    collapsed = collapse_single_mode(monomial_commutator(n, k, N, K))
    safe = _safe_columns(n, k, N, K, D)
    assert safe
    for c in safe:
        lhs = {}
        for sign, hit in ((1, _image((w2, w1), c)), (-1, _image((w1, w2), c))):
            if hit:
                lhs[hit[0]] = lhs.get(hit[0], 0) + sign * hit[1]
        assert _nonzero(lhs) == _oracle_column_of_collapse(ops, collapsed, c)


def test_collapse_rejects_point_evals():
    e = renormalize(wn_expr([wn_term(1, {}, {}, ("t", "s"), 2)]))
    with pytest.raises(ValueError):
        collapse_single_mode(e)


def test_json_shape():
    e = renormalize(monomial_commutator(0, 3, 3, 0))
    data = wn_expr_to_json(e)
    assert data[0]["coeff"] == [6, 1, 0, 1]
    assert data[0]["creators"] == {} and data[0]["point_evals"] == ["s"]
    assert data[1]["coeff"] == [18, 1, 0, 1]
    assert data[1]["point_evals"] == ["s"]
    assert data[2]["coeff"] == [9, 1, 0, 1]
    assert data[2]["creators"] == {"s": 2}
    assert data[2]["annihilators"] == {"t": 2}
    assert all(item["delta_L"] == 1 for item in data)


def test_zero_coefficients_dropped():
    t = wn_term(1, {"t": 1}, {}, None, 0)
    assert (wn_expr([t]) - wn_expr([t])).is_zero
    assert wn_expr([wn_term(0, {"t": 1}, {})]).is_zero
