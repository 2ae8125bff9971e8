import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cscalars, fn_symbols, indicator, rationals, s0_step_fns, step_fns

import rhpwn.sandwich
from rhpwn import lie
from rhpwn.lie import DomainError
from rhpwn.sandwich import (
    _exchange_row,
    _merged_blocks,
    _row_pair,
    commutator,
    eq_expr,
    eq_term,
    exchange_E_past_Q,
    gen_to_word,
    multiply,
    reduce,
    theorem_report_to_json,
    verify_theorem,
)
from rhpwn.scalars import CScalar, DeltaAtZeroError, SingularPartError, binom
from rhpwn.stepfn import FnSymbol, fn_product, fn_symbol

lams = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def test_gen_to_word_examples():
    w = gen_to_word(2, 1, "t")
    assert w.coeff == CScalar(Fraction(1, 2))
    assert w.left_exp == (("t", Fraction(1, 2)),)
    assert w.q_pow == (("t", 1),)
    assert w.right_exp == (("t", Fraction(1, 2)),)
    w = gen_to_word(3, 0, "t")
    assert w.coeff == CScalar(Fraction(1, 4))
    assert w.left_exp == () and w.right_exp == ()
    assert w.q_pow == (("t", 2),)
    w = gen_to_word(2, -2, "s")
    assert w.left_exp == (("s", Fraction(-1)),)
    assert w.right_exp == (("s", Fraction(-1)),)
    with pytest.raises(DomainError):
        gen_to_word(1, 0, "t")


@pytest.mark.parametrize("label", ["s", "t"])
@pytest.mark.parametrize(
    "fn", [None, fn_symbol("g"), indicator([(1, 2)])], ids=["none", "symbol", "step"]
)
def test_generator_words_equal_their_eq_term_build(label, fn):
    for n, k in itertools.product(range(2, 9), range(-6, 7)):
        built = eq_term(
            Fraction(1, 2 ** (n - 1)),
            {label: Fraction(k, 2)},
            {label: n - 1},
            {label: Fraction(k, 2)},
            testfn={} if fn is None else {label: fn},
        )
        word = gen_to_word(n, k, label, fn)
        assert word == built and hash(word) == hash(built)


def test_generator_words_are_built_once_per_process():
    assert gen_to_word(3, 1, "t") is gen_to_word(3, 1, "t")
    g = indicator([(1, 2)])
    assert gen_to_word(2, -1, "s", g) is gen_to_word(2, -1, "s", indicator([(1, 2)]))
    # Both caches are bounded, and large enough for the 2916-tuple grid.
    assert gen_to_word.cache_info().maxsize >= 1024
    assert _merged_blocks.cache_info().maxsize >= 1024
    for cache in (_exchange_row, _row_pair):
        assert cache.cache_info().maxsize is not None
    for _ in range(2):  # a refused index is refused on every call
        with pytest.raises(DomainError):
            gen_to_word(1, 0, "t")


def test_exchange_rightward_example():
    result = exchange_E_past_Q(Fraction(1, 2), "s", 1, "t", "rightward")
    expected = eq_expr(
        [
            eq_term(1, {}, {"t": 1}, {"s": Fraction(1, 2)}),
            eq_term(1, {}, {}, {"s": Fraction(1, 2)}, delta_L=1),
        ]
    )
    assert result == expected


def test_exchange_empty_power():
    lam = Fraction(7, 3)
    result = exchange_E_past_Q(lam, "s", 0, "t", "rightward")
    assert result == eq_expr([eq_term(1, {}, {}, {"s": lam})])


def test_exchange_leftward_example():
    result = exchange_E_past_Q(Fraction(1), "s", 2, "t", "leftward")
    expected = eq_expr(
        [
            eq_term(1, {"s": 1}, {"t": 2}, {}),
            eq_term(-4, {"s": 1}, {"t": 1}, {}, delta_L=1),
            eq_term(4, {"s": 1}, {}, {}, delta_L=2),
        ]
    )
    assert result == expected


def test_exchange_same_label_rejected():
    with pytest.raises(DeltaAtZeroError):
        exchange_E_past_Q(Fraction(1, 2), "t", 2, "t", "rightward")


@pytest.mark.parametrize("direction", ["rightward", "leftward"])
@pytest.mark.parametrize("lam, m", [(0, 2), (Fraction(1, 2), 0), (0, 0)])
def test_exchange_same_label_rejected_without_a_factor_to_cross(lam, m, direction):
    # E(0) and Q^0 are words with no label, which multiply would concatenate
    # without a delta(0): the label check comes first.
    with pytest.raises(DeltaAtZeroError):
        exchange_E_past_Q(lam, "t", m, "t", direction)


def test_exchange_checks_power_then_direction():
    with pytest.raises(ValueError, match="nonnegative"):
        exchange_E_past_Q(Fraction(1, 2), "s", -1, "t", "upward")
    with pytest.raises(ValueError, match="unknown direction"):
        exchange_E_past_Q(Fraction(1, 2), "s", 2, "t", "upward")


@settings(max_examples=60)
@given(
    st.one_of(st.just(Fraction(0)), st.just(Fraction(1, 3)), lams),
    st.integers(0, 6),
    st.sampled_from(["rightward", "leftward"]),
)
def test_exchange_matches_the_binomial_formula(lam, m, direction):
    # E_s(lam) Q_t^m = sum_j C(m,j) (2 lam)^(m-j) Q_t^j delta^(m-j) E_s(lam), and
    # Q_t^m E_s(lam) = E_s(lam) sum_j C(m,j) (-2 lam)^(m-j) Q_t^j delta^(m-j)
    x = 2 * lam if direction == "rightward" else -2 * lam
    exp = {"s": lam}
    terms = [
        eq_term(
            binom(m, j) * x ** (m - j),
            exp if direction == "leftward" else {},
            {"t": j},
            exp if direction == "rightward" else {},
            delta_L=m - j,
        )
        for j in range(m + 1)
    ]
    assert exchange_E_past_Q(lam, "s", m, "t", direction) == eq_expr(terms)


def _reference_parities(xs: tuple, ws: tuple) -> tuple[int, int]:
    """(number of pairs other than (0, 0) at an even m - u, at an odd m - u) of the
    pairs (xs[u], ws[u]) of two built rows of length m + 1."""
    m = len(xs) - 1
    return tuple(sum((m - u) % 2 == r and (xs[u] != 0 or ws[u] != 0) for u in range(m + 1))
                 for r in (0, 1))


# Row parameters: 0, small and 300-digit ints of both signs
_row_params = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-10**300, 10**300))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), _row_params, st.integers(0, 12), _row_params)
# a generator's rows (p, -K), (p, K) against (q, -k), (q, k), of 300 digits
@example(12, 10**299 + 7, 11, -(10**299 + 7))
# zeros: x = 0 on either side, on both, and rows of one entry
@example(3, 0, 4, 7)
@example(6, 0, 2, 0)
@example(0, 0, 0, 1)
def test_row_summaries_are_the_classes_of_the_built_rows(m, x, n, y):
    # _row_pair builds no row: its tops and parity counts are those of the built
    # mirrored rows (m, -x) and (m, x), and the count of nonzero weights from two
    # summaries, pairs of opposite parity, is the count over the rows
    xs, ws = _exchange_row(m, -x), _exchange_row(m, x)
    zs, ys = _exchange_row(n, -y), _exchange_row(n, y)
    tops, even, odd = _row_pair(m, x)
    assert (even, odd) == _reference_parities(xs, ws)
    assert tops == (xs[m], ws[m], xs[m - 1] if m else 0, ws[m - 1] if m else 0)
    _, c_even, c_odd = _row_pair(n, y)
    assert (c_even, c_odd) == _reference_parities(zs, ys)
    brute = sum(xs[u] * ys[v] - ws[u] * zs[v] != 0 for u in range(m + 1) for v in range(n + 1))
    assert even * c_odd + odd * c_even == brute


@settings(max_examples=60)
@given(lams, st.integers(0, 6))
def test_exchange_round_trip_is_identity(lam, m):
    # moving the exponential rightward across the field power and then back
    # leftward must reproduce the original word exactly
    rightward = exchange_E_past_Q(lam, "s", m, "t", "rightward")
    back = []
    for t in rightward.terms:
        j = dict(t.q_pow).get("t", 0)
        for u in exchange_E_past_Q(lam, "s", j, "t", "leftward").terms:
            back.append(
                eq_term(
                    t.coeff * u.coeff,
                    u.left_exp,
                    u.q_pow,
                    {},
                    delta_L=t.delta_L + u.delta_L,
                )
            )
    assert eq_expr(back) == eq_expr([eq_term(1, {"s": lam}, {"t": m}, {})])


def test_multiply_unit():
    a = gen_to_word(3, 2, "t", fn_symbol("g"))
    identity = eq_term(1)
    assert multiply(a, identity) == eq_expr([a])
    assert multiply(identity, a) == eq_expr([a])
    # a pure scalar commutes with every word and scales it
    scalar = eq_term(CScalar(Fraction(2, 3), Fraction(-1, 5)))
    assert multiply(scalar, a) == multiply(a, scalar) == eq_expr([a]).scaled(scalar.coeff)
    assert commutator(a, scalar).is_zero and commutator(scalar, a).is_zero
    assert commutator(scalar, identity).is_zero


def test_multiply_pure_field_powers_commute():
    a = gen_to_word(3, 0, "t")
    b = gen_to_word(4, 0, "s")
    expected = eq_expr(
        [eq_term(Fraction(1, 2) ** 5, {}, {"t": 2, "s": 3}, {})]
    )
    assert multiply(a, b) == expected
    assert multiply(b, a) == expected


def test_multiply_first_power_expansion():
    # gen(2,1,t) * gen(2,1,s): one leftward and one rightward exchange
    prod = multiply(gen_to_word(2, 1, "t"), gen_to_word(2, 1, "s"))
    half = Fraction(1, 2)
    exps = {"t": half, "s": half}
    expected = eq_expr(
        [
            eq_term(Fraction(1, 4), exps, {"t": 1, "s": 1}, exps),
            eq_term(Fraction(1, 4), exps, {"t": 1}, exps, delta_L=1),
            eq_term(Fraction(-1, 4), exps, {"s": 1}, exps, delta_L=1),
            eq_term(Fraction(-1, 4), exps, {}, exps, delta_L=2),
        ]
    )
    assert prod == expected


def test_multiply_rejects_bad_inputs():
    a = gen_to_word(2, 1, "t")
    with pytest.raises(DeltaAtZeroError):
        multiply(a, gen_to_word(2, 2, "t"))
    with pytest.raises(ValueError):
        multiply(eq_term(1, {}, {"t": 1}, {}, delta_L=1), a)
    with pytest.raises(ValueError, match="single-label sandwich words"):
        multiply(eq_term(1, {}, {"t": 1, "s": 1}, {}), gen_to_word(2, 1, "u"))


def test_eq_term_rejects_two_test_functions_at_one_label():
    # multiply and eq_expr_to_json rely on one test function per label; a
    # negative delta or field power is no word either
    with pytest.raises(ValueError):
        eq_term(1, {"s": 1}, {"s": 1}, {}, testfn=[("s", fn_symbol("f")), ("s", fn_symbol("g"))])
    with pytest.raises(ValueError, match="delta exponent must be nonnegative"):
        eq_term(1, {}, {"t": 1}, {}, delta_L=-1)
    with pytest.raises(ValueError, match="negative power -1 at label 't'"):
        eq_term(1, {}, {"t": -1}, {})


def _reference_product(a, b, pa, pb):
    """The product expanded term by term through eq_term and eq_expr, as the
    binomial exchange rules state it; pa, pb are (label, left, power, right)."""
    la, alpha_l, p, alpha_r = pa
    lb, beta_l, q, beta_r = pb
    fns = dict(a.testfn)
    fns.update(b.testfn)
    terms = []
    for j in range(p + 1):
        for i in range(q + 1):
            coeff = (
                a.coeff
                * b.coeff
                * binom(p, j)
                * (-2 * beta_l) ** (p - j)
                * binom(q, i)
                * (2 * alpha_r) ** (q - i)
            )
            terms.append(
                eq_term(
                    coeff,
                    {la: alpha_l, lb: beta_l},
                    {la: j, lb: i},
                    {la: alpha_r, lb: beta_r},
                    delta_L=(p - j) + (q - i),
                    testfn=fns,
                )
            )
    return eq_expr(terms)


# Exponents: 0, the half-integers of generator words, and other denominators.
_exponents = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
)
_word_testfns = st.one_of(
    fn_symbols, step_fns(), st.sampled_from([indicator([(1, 2)]), indicator([(-3, -1)])])
)


@st.composite
def _word_parts(draw, label):
    # a test function keeps the word labelled even when the rest is trivial
    parts = (label, draw(_exponents), draw(st.integers(0, 6)), draw(_exponents))
    word = eq_term(
        draw(cscalars), {label: parts[1]}, {label: parts[2]}, {label: parts[3]},
        testfn={label: draw(_word_testfns)},
    )
    return word, parts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("s", "t"), ("t", "s"), ("u", "s")]), st.data())
def test_products_match_the_term_by_term_expansion(labels, data):
    a, pa = data.draw(_word_parts(labels[0]))
    b, pb = data.draw(_word_parts(labels[1]))
    ab = _reference_product(a, b, pa, pb)
    ba = _reference_product(b, a, pb, pa)
    assert multiply(a, b) == ab
    assert multiply(b, a) == ba
    comm = commutator(a, b)
    assert comm == ab - ba
    for t in multiply(a, b).terms + comm.terms:
        assert type(t.coeff.re) is Fraction and type(t.coeff.im) is Fraction


@given(st.integers(2, 5), st.integers(-3, 3), st.integers(2, 5), st.integers(-3, 3))
def test_commutator_swap_negates(n, k, N, K):
    a = gen_to_word(n, k, "t")
    b = gen_to_word(N, K, "s")
    assert commutator(a, b) == commutator(b, a).scaled(-1)


@given(st.integers(2, 6), st.integers(-4, 4), st.integers(2, 6), st.integers(-4, 4))
def test_commutator_delta_free_part_cancels(n, k, N, K):
    comm = commutator(gen_to_word(n, k, "t"), gen_to_word(N, K, "s"))
    assert all(t.delta_L >= 1 for t in comm.terms)


def test_reduce_merges_single_delta_words():
    a, b = Fraction(1, 3), Fraction(5, 2)
    term = eq_term(
        7,
        {"t": a, "s": b},
        {"t": 2, "s": 3},
        {"t": a, "s": b},
        delta_L=1,
        testfn={"t": fn_symbol("g"), "s": fn_symbol("f")},
    )
    result = reduce(eq_expr([term]))
    merged = eq_term(
        7,
        {"s": a + b},
        {"s": 5},
        {"s": a + b},
        testfn={"s": FnSymbol(("f", "g"), True)},
    )
    assert result.reduced == eq_expr([merged])
    assert result.l0_residual.is_zero and result.dropped_singular == 0


def test_reduce_merges_each_block_set_on_its_own():
    # delta-1 words whose block sets differ in one block each, or only in the
    # label they merge at: each word takes its own merged blocks
    third, half = Fraction(1, 3), Fraction(5, 2)
    exps, other = {"t": third, "s": half}, {"t": -third}
    symbols = {"t": fn_symbol("g"), "s": fn_symbol("f")}
    g, f = indicator([(1, 3)]), indicator([(2, 4)])
    words = [
        eq_term(7, exps, {"t": 2, "s": 3}, exps, delta_L=1, testfn=symbols),
        eq_term(-2, exps, {"t": 1}, exps, delta_L=1, testfn=symbols),
        eq_term(5, exps, {"t": 1}, exps, delta_L=1, testfn={"t": g, "s": f}),
        eq_term(6, exps, {"t": 1}, other, delta_L=1, testfn=symbols),
        eq_term(8, other, {"t": 1}, exps, delta_L=1, testfn=symbols),
        eq_term(3, exps, {"a": 1}, exps, delta_L=1, testfn=symbols),
        eq_term(4, {}, {"t": 1, "s": 1}, {}),
    ]
    result = reduce(eq_expr(words))
    fg = {"s": FnSymbol(("f", "g"), True)}
    both = {"s": third + half}
    merged = [
        eq_term(7, both, {"s": 5}, both, testfn=fg),
        eq_term(-2, both, {"s": 1}, both, testfn=fg),
        eq_term(5, both, {"s": 1}, both, testfn={"s": fn_product(g, f)}),
        eq_term(6, both, {"s": 1}, {"s": -third}, testfn=fg),
        eq_term(8, {"s": -third}, {"s": 1}, both, testfn=fg),
        eq_term(3, {"a": third + half}, {"a": 1}, {"a": third + half},
                testfn={"a": FnSymbol(("f", "g"), True)}),
    ]
    assert result.reduced == eq_expr(merged)
    assert result.l0_residual == eq_expr(words[-1:])
    assert result.dropped_singular == 0


def _reference_reduce(e):
    """reduce word by word: each delta-1 word merged on its own through
    eq_term, and the merged words summed with eq_expr."""
    merged, residual, dropped = [], [], 0
    for t in e.terms:
        if t.delta_L == 0:
            residual.append(t)
        elif t.delta_L == 1:
            target = min(label for block in t[1:4] + (t.testfn,) for label, _ in block)
            fns = [fn for _, fn in t.testfn]
            merged.append(eq_term(
                t.coeff,
                {target: sum(v for _, v in t.left_exp)},
                {target: sum(p for _, p in t.q_pow)},
                {target: sum(v for _, v in t.right_exp)},
                testfn={target: functools.reduce(fn_product, fns)} if fns else {},
            ))
        else:
            dropped += 1  # the drawn singular words all vanish at zero
    return eq_expr(merged), eq_expr(residual), dropped


@st.composite
def _block_sets(draw, labels):
    """Exponential and test-function blocks over ``labels``, with test
    functions of one kind, and a variant that differs from them in one block."""
    exps = st.dictionaries(st.sampled_from(labels), _exponents, max_size=len(labels))
    kind = draw(st.sampled_from([fn_symbols, s0_step_fns()]))
    fns = st.dictionaries(st.sampled_from(labels), kind, max_size=len(labels))
    blocks = [draw(exps), draw(exps), draw(fns)]
    variant = list(blocks)
    changed = draw(st.integers(0, 2))
    variant[changed] = draw(fns if changed == 2 else exps)
    return blocks, variant


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([("s", "t"), ("t", "u"), ("s", "t", "u")]), st.data())
def test_reduce_matches_the_word_by_word_merge(labels, data):
    # Delta-1 words that share a block set merge into one word; a pair whose
    # field powers split one total differently cancels once merged.
    block_sets = [b for _ in range(data.draw(st.integers(1, 2)))
                  for b in data.draw(_block_sets(labels))]
    pows = st.dictionaries(st.sampled_from(labels), st.integers(0, 3), min_size=1)
    words = []
    for _ in range(data.draw(st.integers(1, 8))):
        left, right, fns = data.draw(st.sampled_from(block_sets))
        delta, q = data.draw(st.sampled_from([0, 1, 1, 1, 2])), data.draw(pows)
        if not (any(left.values()) or any(right.values()) or fns or any(q.values())):
            q = {labels[-1]: 1}  # a delta word needs a label to merge at
        if delta == 2:
            fns = {**fns, labels[0]: fn_symbol("g")}  # a singular word vanishing at zero
        coeff = data.draw(st.one_of(cscalars, rationals))
        words.append(eq_term(coeff, left, q, right, delta, fns))
        if delta == 1 and data.draw(st.booleans()):
            words.append(eq_term(-coeff, left, {labels[0]: sum(q.values())}, right, 1, fns))
    e = eq_expr(words)
    result = reduce(e)
    assert (result.reduced, result.l0_residual, result.dropped_singular) == _reference_reduce(e)


def test_reduce_merges_equal_blocks_that_are_not_identical():
    # delta-1 words whose blocks are equal but built apart, so not identical,
    # still merge into one word
    def word(coeff, q_pow):
        exp = {"t": Fraction(1, 3), "s": Fraction(5, 2)}
        return eq_term(coeff, exp, q_pow, exp, delta_L=1, testfn={"t": fn_symbol("g")})

    a = word(7, {"t": 1, "s": 2})
    for coeff, total in ((Fraction(-3, 2), Fraction(11, 2)), (-7, 0)):  # summed, cancelled
        other = word(coeff, {"s": 3})
        assert a.left_exp == other.left_exp and a.left_exp is not other.left_exp
        e = eq_expr([a, other])
        result = reduce(e)
        assert (result.reduced, result.l0_residual, result.dropped_singular) == _reference_reduce(e)
        assert [t.coeff for t in result.reduced.terms] == ([CScalar.of(total)] if total else [])


def test_reduce_refuses_a_delta_word_without_a_label():
    # the label refusal comes before the singular words are looked at
    singular = eq_term(1, {}, {"t": 1}, {}, delta_L=3, testfn={"t": fn_symbol("g", in_S0=False)})
    for words in ([eq_term(1, delta_L=1)], [eq_term(1, delta_L=1), singular]):
        with pytest.raises(ValueError, match="a delta word needs a label"):
            reduce(eq_expr(words))


def test_reduce_refuses_unmultipliable_test_functions_after_the_singular_words():
    # a delta-1 pair that cancels once merged still multiplies its test
    # functions, a symbol and a step function here; a singular word that does
    # not vanish at zero is refused first
    fns = {"t": fn_symbol("g"), "s": indicator([(1, 3)])}
    pair = [eq_term(2, {}, {"t": 1, "s": 1}, {}, delta_L=1, testfn=fns),
            eq_term(-2, {}, {"s": 2}, {}, delta_L=1, testfn=fns)]
    with pytest.raises(TypeError, match="cannot multiply an abstract symbol"):
        reduce(eq_expr(pair))
    singular = eq_term(1, {}, {"t": 1}, {}, delta_L=3, testfn={"t": fn_symbol("g", in_S0=False)})
    with pytest.raises(SingularPartError):
        reduce(eq_expr(pair + [singular]))


def test_reduce_drops_singular_and_keeps_residual():
    singular = eq_term(1, {}, {"t": 1}, {}, delta_L=2, testfn={"t": fn_symbol("g")})
    plain = eq_term(3, {}, {"t": 1, "s": 1}, {})
    result = reduce(eq_expr([singular, plain]))
    assert result.dropped_singular == 1
    assert result.l0_residual == eq_expr([plain])
    assert result.reduced.is_zero


def test_reduce_strict_requires_vanishing():
    bad = eq_term(
        1, {}, {"t": 1}, {}, delta_L=3, testfn={"t": fn_symbol("g", in_S0=False)}
    )
    with pytest.raises(SingularPartError):
        reduce(eq_expr([bad]))
    concrete = eq_term(
        1, {}, {"t": 1}, {}, delta_L=2, testfn={"t": indicator([(-1, 1)])}
    )
    with pytest.raises(SingularPartError):
        reduce(eq_expr([concrete]))
    vanishing = eq_term(
        1, {}, {"t": 1}, {}, delta_L=2, testfn={"t": indicator([(1, 2)])}
    )
    assert reduce(eq_expr([vanishing])).dropped_singular == 1


def test_verify_theorem_examples():
    report = verify_theorem(2, 1, 2, -1)
    assert report.passed and report.expected_coeff == 2
    # the reduced word is 2 * gen(2, 0): the exponentials cancel at k+K = 0
    assert report.computed == eq_expr(
        [gen_to_word(2, 0, "s", FnSymbol(("f", "g"), True))]
    ).scaled(2)

    report = verify_theorem(2, 0, 2, 0)
    assert report.passed and report.expected_coeff == 0
    assert report.computed.is_zero

    report = verify_theorem(3, 2, 4, -1)
    assert report.passed and report.expected_coeff == 8


def test_the_realization_path_hashes_no_fraction(monkeypatch):
    # reduce groups words by block identity and the caches on the path take
    # int and str keys, so a checked tuple hashes no Fraction once warm
    grid = list(itertools.product(range(2, 6), range(-3, 4), repeat=2))
    for indices in grid:
        verify_theorem(*indices)
    hashed = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    assert all(verify_theorem(*indices).passed for indices in grid)
    assert len(hashed) == 0


def test_a_warm_passing_tuple_reads_no_blocks_and_builds_one_fraction(monkeypatch):
    # a passing tuple is decided from the row summaries' ints: it builds no row,
    # cold or warm, and no word, and the one Fraction built is the expected word's
    # coefficient (none when c = 0)
    grid = list(itertools.product(range(2, 8), range(-4, 5), repeat=2))
    assert any(lie.structure(lie.AlgebraKind.WINFINITY, *t)[0] == 0 for t in grid)
    assert any(k + K == 0 and k for _, k, _, K in grid)
    calls = []
    for name in ("_products", "reduce", "_single_label_parts", "_exchange_row"):
        original = getattr(rhpwn.sandwich, name)
        monkeypatch.setattr(
            rhpwn.sandwich, name,
            lambda *args, _name=name, _fn=original: calls.append(_name) or _fn(*args))
    _row_pair.cache_clear()
    for indices in grid:
        assert verify_theorem(*indices).passed
    assert calls == []
    built = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for indices in grid:
        built.clear()
        assert verify_theorem(*indices).passed
        assert len(built) <= 1, (indices, built)
    assert calls == []


def test_verify_theorem_builds_the_default_product_once(monkeypatch):
    # the symbols' product g f is built beside them, not per tuple
    grid = list(itertools.product(range(2, 5), range(-2, 3), repeat=2))
    for indices in grid:
        verify_theorem(*indices)
    products = []

    def counting_product(x, y):
        products.append((x, y))
        return fn_product(x, y)

    monkeypatch.setattr(rhpwn.sandwich, "fn_product", counting_product)
    assert all(verify_theorem(*indices).passed for indices in grid)
    assert products == []


def test_verify_theorem_rejects_small_indices():
    with pytest.raises(DomainError):
        verify_theorem(1, 0, 2, 0)


def _reference_theorem(n, k, N, K, g, f):
    """verify_theorem's fields from the full commutator, every word built and
    reduced: (computed, l0_residual, dropped_singular, passed)."""
    result = reduce(commutator(gen_to_word(n, k, "t", g), gen_to_word(N, K, "s", f)))
    c, n2, k2 = lie.structure(lie.AlgebraKind.WINFINITY, n, k, N, K)
    expected = eq_expr([])
    if n2 >= 2 and c:
        expected = eq_expr([gen_to_word(n2, k2, "s", fn_product(g, f))]).scaled(c)
    passed = (
        (n2 >= 2 or not c) and result.l0_residual.is_zero and result.reduced == expected
    )
    return result.reduced, result.l0_residual, result.dropped_singular, passed


_small_k = st.one_of(st.just(0), st.integers(-6, 6))


@st.composite
def _theorem_tuples(draw):
    n, N, k = draw(st.integers(2, 8)), draw(st.integers(2, 8)), draw(_small_k)
    K = draw(st.one_of(_small_k, st.just(-k)))  # k + K = 0 merges to no exponential
    return n, k, N, K


@settings(max_examples=200, deadline=None)
@given(_theorem_tuples())
@example((2, 0, 2, 0))
@example((3, 2, 4, -2))
@example((3, 1, 3, 2))
@example((2, 3, 5, 0))
# c = 0 with delta words
@example((4, 3, 4, 3))
# weights of many digits: a 300-digit k, and a 300-digit K with k + K = 0
@example((5, 10**299 + 7, 4, -3))
@example((3, -(10**299 + 3), 6, 10**299 + 3))
# n = 18 with a 300-digit k of either sign, the CI tuples' shape
@example((18, 10**299 + 9, 18, 10**299 + 9))
@example((18, -(10**299 + 9), 18, -(10**299 + 9)))
def test_verify_theorem_matches_the_full_reduction(indices):
    # Only the delta <= 1 words are built; the counted singular words must
    # give the same drop count.
    r = verify_theorem(*indices)
    fields = r.computed, r.l0_residual, r.dropped_singular, r.passed
    assert fields == _reference_theorem(*indices, fn_symbol("g"), fn_symbol("f"))


def test_the_kernel_matches_the_full_reduction_on_the_acceptance_grid():
    # Every tuple of verify-w --n 2..7 --k -4..4: the row summaries give the
    # fields of the whole commutator's reduction, and the commutator, with the
    # first factor's label sorting after the second's, is canonical.
    g, f = fn_symbol("g"), fn_symbol("f")
    for n, k, N, K in itertools.product(range(2, 8), range(-4, 5), repeat=2):
        r = verify_theorem(n, k, N, K)
        fields = r.computed, r.l0_residual, r.dropped_singular, r.passed
        assert fields == _reference_theorem(n, k, N, K, g, f), (n, k, N, K)
        comm = commutator(gen_to_word(n, k, "t"), gen_to_word(N, K, "s"))
        assert comm == eq_expr(comm.terms), (n, k, N, K)


# Tables that a corrupted lie.structure could give: every tuple they fail
# reduces the whole commutator, which must report what the reference does.
_CORRUPTED_TABLES = {
    "skewed": lambda c, n2, k2: (c + 1, n2, k2) if c % 2 else (c, n2, k2 + 1),
    "escaping": lambda c, n2, k2: (c, 1, k2),
    "zeroed": lambda c, n2, k2: (0, n2, k2),
}


@pytest.mark.parametrize("table", sorted(_CORRUPTED_TABLES))
def test_corrupted_tables_give_the_full_reduction_on_the_acceptance_grid(monkeypatch, table):
    true_structure, corrupt = lie.structure, _CORRUPTED_TABLES[table]
    monkeypatch.setattr(lie, "structure", lambda *args: corrupt(*true_structure(*args)))
    products, product_calls = rhpwn.sandwich._products, []
    monkeypatch.setattr(rhpwn.sandwich, "_products",
                        lambda *args: product_calls.append(args) or products(*args))
    g, f = fn_symbol("g"), fn_symbol("f")
    outcomes = set()
    for n, k, N, K in itertools.product(range(2, 8), range(-4, 5), repeat=2):
        product_calls.clear()
        r = verify_theorem(n, k, N, K)
        # a failing tuple builds its words; a passing one is decided on ints
        assert len(product_calls) == (not r.passed), (n, k, N, K)
        fields = r.computed, r.l0_residual, r.dropped_singular, r.passed
        assert fields == _reference_theorem(n, k, N, K, g, f), (n, k, N, K)
        outcomes.add(r.passed)
    assert outcomes == {True, False}


_SMALL_GRID = list(itertools.product(range(2, 6), range(-3, 4), repeat=2))


@pytest.mark.parametrize("entry", ["w0", "w1"])
def test_corrupted_rows_take_the_word_path(monkeypatch, entry):
    # The first factor's rows (p, -K) and (p, K), p = n - 1, corrupted alike in
    # the row summaries and in the rows that build words. Tops (2, 0) in place
    # of (1, 1) make the delta-free weight w0 = 2 and keep both delta-1
    # weights; x_(p-1) + 1 puts w1 off by one. No tuple may pass on ints: each
    # builds its words and reports what the reference does with the same rows.
    row, summary, products = (rhpwn.sandwich._exchange_row, rhpwn.sandwich._row_pair,
                              rhpwn.sandwich._products)
    corrupted, calls = {}, []

    def corrupt_row(m, x):
        return corrupted.get((m, x)) or row(m, x)

    def corrupt_summary(m, x):
        xs, ws = corrupt_row(m, -x), corrupt_row(m, x)
        return ((xs[m], ws[m], xs[m - 1], ws[m - 1]),) + summary(m, x)[1:]

    monkeypatch.setattr(rhpwn.sandwich, "_exchange_row", corrupt_row)
    monkeypatch.setattr(rhpwn.sandwich, "_row_pair", corrupt_summary)
    monkeypatch.setattr(rhpwn.sandwich, "_products",
                        lambda *args: calls.append(args) or products(*args))
    g, f = fn_symbol("g"), fn_symbol("f")
    for n, k, N, K in _SMALL_GRID:
        if n == N or not K:  # other rows than (p, +-K) must stay as they are
            continue
        p = n - 1
        xs, ws = list(row(p, -K)), list(row(p, K))
        if entry == "w0":
            xs[p], ws[p] = 2, 0
        else:
            xs[p - 1] += 1
        corrupted.clear()
        corrupted.update({(p, -K): tuple(xs), (p, K): tuple(ws)})
        calls.clear()
        r = verify_theorem(n, k, N, K)
        assert len(calls) == 1 and not r.passed, (n, k, N, K)
        reduced, residual, _, passed = _reference_theorem(n, k, N, K, g, f)
        assert (r.computed, r.l0_residual, r.passed) == (reduced, residual, passed), (n, k, N, K)


def test_a_wrong_merged_test_function_fails_the_tuple(monkeypatch):
    # Delta words merged with a test function other than g f: every tuple whose
    # bracket is nonzero must fail, on ints and on words alike.
    h = fn_symbol("h")
    monkeypatch.setattr(rhpwn.sandwich, "_merged_blocks", lambda fns, target: ((target, h),))
    g, f = fn_symbol("g"), fn_symbol("f")
    for indices in _SMALL_GRID:
        r = verify_theorem(*indices)
        assert r.passed == (r.expected_coeff == 0), indices
        fields = r.computed, r.l0_residual, r.dropped_singular, r.passed
        assert fields == _reference_theorem(*indices, g, f), indices


def test_dropped_singular_count_has_a_closed_form():
    # The singular words of [B^n_k, B^N_K] are the (i <= N-1, j <= n-1) with
    # i + j odd and >= 3, j = 0 or K != 0, and i = 0 or k != 0.
    for n, N in itertools.product(range(2, 9), repeat=2):
        for k, K in itertools.product(range(-5, 6), repeat=2):
            expected = sum(
                (i + j) % 2 == 1 and i + j >= 3 and (j == 0 or K != 0) and (i == 0 or k != 0)
                for i in range(N)
                for j in range(n)
            )
            assert verify_theorem(n, k, N, K).dropped_singular == expected, (n, k, N, K)


def _fraction_typed(e):
    """Every coefficient of ``e`` a CScalar of Fraction parts, every exponent a Fraction."""
    return all(
        type(t.coeff) is CScalar and type(t.coeff.re) is Fraction and type(t.coeff.im) is Fraction
        and all(type(lam) is Fraction for _, lam in t.left_exp + t.right_exp)
        for t in e.terms
    )


@settings(max_examples=60, deadline=None)
@given(_theorem_tuples(), cscalars, _exponents)
@example((4, 0, 3, 5), CScalar(Fraction(1, 3)), Fraction(0))  # k = 0
@example((3, -5, 6, 0), CScalar(Fraction(2), Fraction(-1, 2)), Fraction(1, 2))  # K = 0
@example((5, 4, 3, -4), CScalar(Fraction(-7, 2)), Fraction(5, 6))  # k + K = 0
@example((5, 10**300 + 7, 4, -(10**299)), CScalar(Fraction(1, 3)), Fraction(1, 3))  # 300 digits
def test_the_integer_weights_give_the_full_expansion(indices, c, shift):
    # verify_theorem reads the weights of generator words as ints; the products
    # of generator words, and of words with a complex coefficient or exponents
    # off the half-integers, are the term-by-term expansion
    n, k, N, K = indices
    g, f = fn_symbol("g"), fn_symbol("f")  # both vanish at zero
    a, b = gen_to_word(n, k, "t", g), gen_to_word(N, K, "s", f)
    full = reduce(commutator(a, b))
    report = verify_theorem(n, k, N, K)
    assert report.computed == full.reduced and report.dropped_singular == full.dropped_singular
    assert _fraction_typed(report.computed)
    half, lam = Fraction(k, 2), Fraction(k, 2) + shift
    x = eq_term(c, {"t": lam}, {"t": n - 1}, {"t": half}, testfn={"t": g})
    parts = {a: ("t", half, n - 1, half), b: ("s", Fraction(K, 2), N - 1, Fraction(K, 2)),
             x: ("t", lam, n - 1, half)}
    for u, v in ((a, b), (x, b), (b, x)):
        ab = _reference_product(u, v, parts[u], parts[v])
        ba = _reference_product(v, u, parts[v], parts[u])
        product, comm = multiply(u, v), commutator(u, v)
        assert product == ab and comm == ab - ba
        assert _fraction_typed(product) and _fraction_typed(comm)
        for built, expanded in ((product, ab), (comm, ab - ba)):
            reduced, residual, dropped = reduce(built)
            assert (reduced, residual, dropped) == reduce(expanded) == _reference_reduce(expanded)
            assert _fraction_typed(reduced) and _fraction_typed(residual)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(-4, 4), st.integers(2, 6), st.integers(-4, 4))
def test_exponent_bookkeeping(n, k, N, K):
    report = verify_theorem(n, k, N, K)
    assert report.passed
    for t in report.computed.terms:
        assert dict(t.q_pow) == {"s": n + N - 3}
        for _, lam in t.left_exp + t.right_exp:
            assert lam == Fraction(k + K, 2)


def test_theorem_report_json():
    data = theorem_report_to_json(verify_theorem(2, 1, 3, -2))
    assert data == {
        "n": 2,
        "k": 1,
        "N": 3,
        "K": -2,
        "pass": True,
        "expected_coeff": 1 * 2 - (-2) * 1,
        "dropped_singular_count": data["dropped_singular_count"],
        "l0_residual_terms": [],
    }
    assert data["expected_coeff"] == 4
