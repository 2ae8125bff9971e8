import itertools
import json

import pytest
from click.testing import CliRunner

import rhpwn.oracle
from rhpwn.cli import main
from rhpwn.oracle import (
    PolyRepOps,
    _column_bound,
    _safe_columns,
    build,
    check_eq1,
    check_exchange_seed,
    eq1_suite,
)
from rhpwn.scalars import binom, falling


def _hit(word, c):
    """(degree, coefficient) of the image of x^c under ``word``, or None where
    it vanishes."""
    deg, co = word
    return (deg[c], co[c]) if co[c] else None


def test_ladder_columns():
    D = 6
    ops = build(D)
    for m in range(D + 1):
        # d/dx on x^m, and x * x^m with x * x^D truncated to zero
        assert _hit(ops.word(0, 1), m) == ((m - 1, m) if m else None)
        assert _hit(ops.word(1, 0), m) == ((m + 1, 1) if m < D else None)
    with pytest.raises(ValueError):
        PolyRepOps(1)


def test_ladder_operators_that_break_the_commutation_relation_are_refused():
    class Doubled(PolyRepOps):
        """A creator that multiplies by 2 x: [a, a^+] = 2."""

        def word(self, n, k):
            deg, co = super().word(n, k)
            return (deg, [2 * v for v in co]) if (n, k) == (1, 0) else (deg, co)

    with pytest.raises(ValueError, match="commutation relation"):
        Doubled(6)


def test_number_operator_diagonal():
    ops = build(10)
    number = ops.word(1, 1)
    for m in range(11):
        # x^m is an eigenvector with eigenvalue m; x^0 is annihilated
        assert _hit(number, m) == ((m, m) if m else None)


def test_build_is_cached():
    assert build(12) is build(12)


@pytest.mark.parametrize(
    "n, k, N, K, D",
    [(0, 1, 1, 0, 8), (0, 2, 2, 0, 12), (2, 2, 2, 2, 16), (1, 3, 2, 1, 14)],
)
def test_check_eq1_examples(n, k, N, K, D):
    assert check_eq1(n, k, N, K, D)


@pytest.mark.parametrize("name, true_fn", [("binom", binom), ("falling", falling)])
def test_check_eq1_fails_on_an_off_by_one_coefficient(monkeypatch, name, true_fn):
    assert check_eq1(1, 3, 2, 1, 14)
    monkeypatch.setattr(rhpwn.oracle, name, lambda n, k: true_fn(n, k) + 1)
    assert not check_eq1(1, 3, 2, 1, 14)
    assert not check_eq1(0, 1, 1, 0, 8)


def test_check_eq1_fails_on_a_term_at_the_wrong_degree(monkeypatch):
    # creator^2 annihilator^3, the first expansion word of (1, 3, 2, 1), with
    # the right coefficients one degree too high
    ops = build(14)
    deg, co = ops.word(2, 3)
    assert check_eq1(1, 3, 2, 1, 14)
    monkeypatch.setitem(ops._words, (2, 3), ([d + 1 for d in deg], co))
    assert not check_eq1(1, 3, 2, 1, 14)


def _past_the_truncation(monkeypatch):
    """Serve D = 40 from fresh ladder operators whose word (2, 3) has every
    degree one too high, so the words built on it, such as (3, 3), map a column
    to degree 41, past the truncation."""
    ops, true_build = PolyRepOps(40), build
    deg, co = ops.word(2, 3)
    ops._words[2, 3] = [d + 1 for d in deg], co
    monkeypatch.setattr(rhpwn.oracle, "build", lambda D: ops if D == 40 else true_build(D))


def test_eq1_suite_fails_a_word_past_the_truncation(monkeypatch):
    _past_the_truncation(monkeypatch)
    results = dict(eq1_suite(4, 40))
    assert not results[1, 3, 2, 1] and not results[3, 3, 0, 1] and not results[0, 1, 3, 3]
    assert results[0, 0, 0, 0] and results[1, 1, 1, 1]


def test_check_eq1_fails_a_word_at_a_negative_degree(monkeypatch):
    # word (1, 1) with x^0 sent to x^-1: no product is defined there. Gathered
    # from the end of the lists, the creator's truncated column D would make
    # the product vanish on x^0 and the tuple pass.
    ops = PolyRepOps(12)
    deg, co = ops.word(1, 1)
    monkeypatch.setattr(rhpwn.oracle, "build", lambda D: ops)
    assert check_eq1(1, 1, 1, 0, 12) and check_eq1(1, 0, 1, 1, 12)
    ops._words[1, 1] = [-1] + deg[1:], [1] + co[1:]
    assert not check_eq1(1, 1, 1, 0, 12) and not check_eq1(1, 0, 1, 1, 12)


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_oracle_command_fails_a_word_past_the_truncation(monkeypatch, fmt):
    _past_the_truncation(monkeypatch)
    result = CliRunner().invoke(main, ["oracle", "--format", fmt])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if fmt == "text":
        assert "eq1 n=1 k=3 N=2 K=1 D=40: FAIL" in result.output.splitlines()
        assert result.output.endswith("oracle: FAIL\n")
    elif fmt == "json":
        payload = json.loads(result.output)
        assert {"n": 1, "k": 3, "N": 2, "K": 1, "D": 40, "pass": False} in payload["eq1"]
        assert payload["pass"] is False
    else:
        assert "1 & 3 & 2 & 1 & False \\\\" in result.output.splitlines()


def test_check_exchange_seed_fails_on_a_corrupted_coefficient(monkeypatch):
    monkeypatch.setattr(rhpwn.oracle, "PQ_COMMUTATOR", 3)
    assert check_exchange_seed(0, 6)  # the right-hand side vanishes at m = 0
    for m in range(1, 7):
        assert not check_exchange_seed(m, 12)


def test_check_eq1_guard():
    with pytest.raises(ValueError):
        check_eq1(2, 2, 2, 2, 8)
    with pytest.raises(ValueError):
        check_eq1(-1, 0, 0, 0, 8)


@pytest.mark.parametrize("m, D", [(1, 6), (0, 6), (4, 10), (6, 12)])
def test_check_exchange_seed_examples(m, D):
    assert check_exchange_seed(m, D)


def test_check_exchange_seed_guard():
    with pytest.raises(ValueError):
        check_exchange_seed(6, 8)
    with pytest.raises(ValueError, match="power must be nonnegative"):
        check_exchange_seed(-1)


def _path_ok(c, steps, D):
    """The step-by-step degree walk: each step (k, n) lowers the degree by k
    then raises it by n, and an exactly annihilated monomial cannot overflow."""
    d = c
    for k, n in steps:
        if d < k:
            return True
        d = d - k + n
        if d > D:
            return False
    return True


def test_degree_tracking():
    # a^k annihilates low monomials exactly, which is always safe
    assert 1 <= _column_bound([(3, 10)], 5)
    # otherwise the raised degree must stay within the truncation
    assert 3 <= _column_bound([(2, 4), (0, 0)], 5)
    assert _column_bound([(2, 4)], 5) == 3
    assert _column_bound([(0, 6)], 5) == -1


def test_safe_columns_match_the_step_by_step_walk():
    for n, k, N, K in itertools.product(range(7), repeat=4):
        steps = [(k + K - L, n + N - L) for L in range(1, min(k, N) + 1)]
        steps += [(K + k - L, N + n - L) for L in range(1, min(K, n) + 1)]
        guard = n + k + N + K
        for D in range(guard + 1, guard + 13):
            walked = [
                c
                for c in range(D + 1)
                if _path_ok(c, [(K, N), (k, n)], D)
                and _path_ok(c, [(k, n), (K, N)], D)
                and all(_path_ok(c, [step], D) for step in steps)
            ]
            assert list(_safe_columns(n, k, N, K, D)) == walked, (n, k, N, K, D)


def test_check_eq1_counts_the_compared_columns():
    # criterion 4's grid: every tuple compares its guard-safe columns
    counts = [check_eq1(*t, 40) for t in itertools.product(range(5), repeat=4)]
    assert min(counts) == 33 and max(counts) == 41 and sum(counts) == 24625
    for t in [(0, 0, 0, 0), (4, 4, 4, 4), (1, 3, 2, 1)]:
        assert check_eq1(*t, 40) == len(_safe_columns(*t, 40))


def test_check_eq1_fails_at_the_column_floor(monkeypatch):
    # a tuple comparing no more than D - (n + k + N + K) columns fails
    assert check_eq1(2, 2, 2, 2, 16) == 17
    monkeypatch.setattr(rhpwn.oracle, "_safe_columns", lambda *args: range(8))
    assert check_eq1(2, 2, 2, 2, 16) == 0
    monkeypatch.setattr(rhpwn.oracle, "_safe_columns", lambda *args: range(9))
    assert check_eq1(2, 2, 2, 2, 16) == 9


def _walk_eq1(n, k, N, K, D):
    """check_eq1 column by column: each term's image of x^c is stepped through
    its words one at a time, must land at degree c + n + N - k - K, and the
    column's images must sum to zero."""
    ops = build(D)
    w1, w2 = ops.word(n, k), ops.word(N, K)
    terms = [(1, (w2, w1)), (-1, (w1, w2))]
    for L in range(1, min(k, N) + 1):
        scale = rhpwn.oracle.binom(k, L) * rhpwn.oracle.falling(N, L)
        terms.append((-scale, (ops.word(n + N - L, k + K - L),)))
    for L in range(1, min(K, n) + 1):
        scale = rhpwn.oracle.binom(K, L) * rhpwn.oracle.falling(n, L)
        terms.append((scale, (ops.word(N + n - L, K + k - L),)))
    columns = _safe_columns(n, k, N, K, D)
    if len(columns) <= D - (n + k + N + K):
        return 0
    for c in columns:
        total = 0
        for scale, words in terms:
            d, v = c, scale
            for word in words:
                hit = _hit(word, d)
                if hit is None:
                    break
                d, v = hit[0], v * hit[1]
            else:
                if d != c + n + N - k - K:
                    return 0
                total += v
        if total:
            return 0
    return len(columns)


def _assert_walk_agrees(D=40):
    # the suite, which shares each word pair's products, agrees tuple by tuple
    suite = eq1_suite(4, D)
    assert [t for t, _ in suite] == list(itertools.product(range(5), repeat=4))
    for t, m in suite:
        assert m == check_eq1(*t, D) == _walk_eq1(*t, D), t
    return [m for _, m in suite]


def test_check_eq1_agrees_with_the_column_walk():
    assert all(_assert_walk_agrees())


@pytest.mark.parametrize("name, true_fn", [("binom", binom), ("falling", falling)])
def test_check_eq1_agrees_with_the_column_walk_off_by_one(monkeypatch, name, true_fn):
    monkeypatch.setattr(rhpwn.oracle, name, lambda n, k: true_fn(n, k) + 1)
    assert not all(_assert_walk_agrees())


def test_check_eq1_agrees_with_the_column_walk_on_a_corrupted_word(monkeypatch):
    # the number operator with one coefficient off: eigenvalue 4 on x^3
    ops = build(40)
    deg, co = ops.word(1, 1)
    monkeypatch.setitem(ops._words, (1, 1), (deg, [4 if c == 3 else v for c, v in enumerate(co)]))
    assert not all(_assert_walk_agrees())
    # [N, a^+] = a^+ fails on x^2: N a^+ x^2 = 4 x^3, a^+ N x^2 = 2 x^3
    assert check_eq1(1, 1, 1, 0, 40) == 0


def test_check_eq1_compares_its_last_column(monkeypatch):
    # [a, a^+] = 1, with the identity word off by one on the last compared column only
    ops = build(8)
    m = check_eq1(0, 1, 1, 0, 8)
    deg, co = ops.word(0, 0)
    monkeypatch.setitem(ops._words, (0, 0), (deg, [v + (c == m - 1) for c, v in enumerate(co)]))
    assert check_eq1(0, 1, 1, 0, 8) == 0
