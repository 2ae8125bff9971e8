"""Acceptance suite: every criterion runs exactly, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact arithmetic, so there are no tolerances anywhere.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from click.testing import CliRunner

import rhpwn.lie as lie
from rhpwn.cli import main
from rhpwn.dsl import evaluate as dsl_evaluate
from rhpwn.dsl import parse as dsl_parse
from rhpwn.dsl import render as dsl_render
from rhpwn.lie import AlgebraKind, basis, basis_indices, involution, star_compat_check
from rhpwn.oracle import check_eq1, check_exchange_seed
from rhpwn.sandwich import (_F, _G, commutator, eq_expr, eq_term, exchange_E_past_Q,
                            gen_to_word, reduce, verify_theorem)
from rhpwn.scalars import CScalar, binom, falling, theta
from rhpwn.stepfn import StepFn, fn_symbol, is_in_S0, make_step
from rhpwn.wick import smear_bracket

RHPWN = AlgebraKind.RHPWN
WINF = AlgebraKind.WINFINITY


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [FAIL] {description}")
        raise
    print(f"criterion {num:2d} [PASS] {description}")


def test_criterion_1_realization_grid():
    runner = CliRunner()
    with criterion(1, "verify-w --n 2..7 --k -4..4: 2916 exact tuples"):
        start = time.monotonic()
        result = runner.invoke(main, ["verify-w", "--n", "2..7", "--k", "-4..4"])
        elapsed = time.monotonic() - start
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[-1] == "verify-w: tuples=2916 failures=0 -> PASS"
        tuple_lines = [line for line in lines if line.startswith("n=")]
        assert len(tuple_lines) == 2916
        assert all(line.endswith(" PASS") for line in tuple_lines)
        assert not any("FAIL" in line for line in lines)
        assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
        print(f"  (grid ran in {elapsed:.1f}s)")


def test_the_realization_grid_agrees_with_the_word_calculus():
    # Criterion 1 decides a passing tuple on ints read off the exchange rows'
    # summaries; the word path, reduce(commutator(a, b)), must give the same
    # reduced sum, residual and singular count on every tuple of its grid.
    for n, k, N, K in itertools.product(range(2, 8), range(-4, 5), repeat=2):
        report = verify_theorem(n, k, N, K)
        words = reduce(commutator(gen_to_word(n, k, "t", _G), gen_to_word(N, K, "s", _F)))
        assert (report.computed, report.l0_residual, report.dropped_singular) == words, (n, k, N, K)


def test_criterion_2_jacobi_rhpwn():
    with criterion(2, "Jacobi defects vanish: RHPWN n,k in [0,6], n+k >= 3"):
        report = lie.jacobi_scan(RHPWN, (0, 6), (0, 6))
        assert report.triples_checked == 43**3
        assert report.failure_count == 0


def test_criterion_3_jacobi_winfinity():
    with criterion(3, "Jacobi defects vanish: w-infinity n in [2,8], k in [-6,6]"):
        report = lie.jacobi_scan(WINF, (2, 8), (-6, 6))
        assert not report.sampled  # exhaustive fits well inside the budget
        assert report.triples_checked == 91**3
        assert report.failure_count == 0


def test_criterion_4_commutator_oracle():
    with criterion(4, "polynomial oracle confirms the commutator expansion on [0,4]^4, D=40"):
        for n, k, N, K in itertools.product(range(5), repeat=4):
            assert check_eq1(n, k, N, K, 40), (n, k, N, K)


def test_criterion_5_exchange_seed_and_round_trip():
    with criterion(5, "exchange seed m in [0,8] at D=16; exchange round-trip, 100 random lambdas"):
        for m in range(9):
            assert check_exchange_seed(m, 16), m
        rng = random.Random(20260809)
        for i in range(100):
            m = i % 7
            lam = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
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


def test_criterion_6_theta_antisymmetry_and_conventions():
    with criterion(6, "theta antisymmetry and binom/falling conventions on [0,8] grids"):
        for L in range(2, 9):
            for n, k, N, K in itertools.product(range(9), repeat=4):
                assert theta(L, n, k, N, K) == -theta(L, N, K, n, k)
        for K in range(9):
            for L in range(9):
                if K < L:
                    assert binom(K, L) == 0
                    assert falling(K, L) == 0


def _random_s0_step(rng: random.Random) -> StepFn:
    count = rng.randint(2, 5)
    points = sorted(
        rng.sample([Fraction(p, 4) for p in range(-40, 41)], count)
    )
    values = [
        CScalar(Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        for _ in range(count - 1)
    ]
    f = make_step(points, values)
    f = StepFn(tuple(p for p in f.pieces if not (p[0] <= 0 < p[1])))
    assert is_in_S0(f)
    return f


def test_criterion_7_epsilon_redundancy_and_s0_vanishing():
    with criterion(7, "smeared regular coefficient is kN - Kn on [0,8]^4; "
                      "singular scalars vanish on S0"):
        g, f = fn_symbol("g"), fn_symbol("f")
        for n, k, N, K in itertools.product(range(9), repeat=4):
            d = smear_bracket(n, k, g, N, K, f)
            assert d.regular_coeff == k * N - K * n
            assert d.regular_index == (n + N - 1, k + K - 1)
        rng = random.Random(7_0_7)
        for _ in range(100):
            gs, fs = _random_s0_step(rng), _random_s0_step(rng)
            for _ in range(25):
                n, k, N, K = (rng.randint(0, 6) for _ in range(4))
                d = smear_bracket(n, k, gs, N, K, fs)
                assert all(s.scalar == CScalar.of(0) for s in d.singular)


def _random_element(rng: random.Random, kind: AlgebraKind):
    pool = (
        basis_indices(kind, (0, 6), (0, 6))
        if kind is RHPWN
        else basis_indices(kind, (2, 6), (-5, 5))
    )
    while True:
        out = lie.zero(kind)
        for _ in range(rng.randint(1, 4)):
            n, k = rng.choice(pool)
            label = None
            if rng.random() < 0.4:
                names = rng.sample(["f", "g", "h", "~f", "~g"], rng.randint(1, 2))
                from rhpwn.stepfn import FnSymbol

                label = FnSymbol(tuple(sorted(names)), True)
            coeff = CScalar(
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            )
            out = out + basis(kind, n, k, label).scaled(coeff)
        if not out.is_zero:
            return out


def test_criterion_8_star_structure():
    with criterion(8, "*-compatibility on all basis pairs; involution is an involution"):
        for n, k in basis_indices(RHPWN, (0, 6), (0, 6)):
            for N, K in basis_indices(RHPWN, (0, 6), (0, 6)):
                assert star_compat_check(
                    basis(RHPWN, n, k), basis(RHPWN, N, K)
                ).is_zero, (n, k, N, K)
        for n, k in basis_indices(WINF, (2, 6), (-4, 4)):
            for N, K in basis_indices(WINF, (2, 6), (-4, 4)):
                assert star_compat_check(
                    basis(WINF, n, k), basis(WINF, N, K)
                ).is_zero, (n, k, N, K)
        rng = random.Random(88)
        for _ in range(200):
            for kind in (RHPWN, WINF):
                x = _random_element(rng, kind)
                assert involution(involution(x)) == x


def test_criterion_9_witt_subalgebra():
    with criterion(9, "Witt relations (k-K) B^2_{k+K} for all k,K in [-10,10]"):
        for k in range(-10, 11):
            for K in range(-10, 11):
                assert lie.witt_check(k, K), (k, K)


def test_criterion_10_cli_round_trip_and_exit_codes(monkeypatch):
    runner = CliRunner()
    with criterion(10, "parse/render identity on 1000 elements; exact CLI text; exit codes"):
        rng = random.Random(0xA11CE)
        for i in range(1000):
            kind = RHPWN if i % 2 == 0 else WINF
            x = _random_element(rng, kind)
            assert dsl_evaluate(dsl_parse(dsl_render(x, "text"))) == x
            assert lie.element_from_json(json.loads(dsl_render(x, "json"))) == x

        # byte-exact bracket evaluation; the structure constants force the
        # sign: [B^1_2, B^2_1] = +3 B^2_2 while the swapped order is -3 B^2_2
        result = runner.invoke(main, ["bracket", "[B[1,2],B[2,1]]"])
        assert result.exit_code == 0 and result.output == "3*B[2,2]\n"
        result = runner.invoke(main, ["bracket", "[B[2,1],B[1,2]]"])
        assert result.exit_code == 0 and result.output == "-3*B[2,2]\n"

        # determinism: repeated invocations are byte-identical
        args = ["verify-w", "--n", "2..3", "--k", "-1..1"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

        # exit code 2 on parse errors, 1 on verification failures
        assert runner.invoke(main, ["bracket", "[B[2,1]"]).exit_code == 2
        true_structure = lie.structure

        def corrupted(kind, n, k, N, K):
            c, n2, k2 = true_structure(kind, n, k, N, K)
            if (n, k, N, K) == (2, 1, 0, 3):
                return -c, n2, k2
            return c, n2, k2

        monkeypatch.setattr(lie, "structure", corrupted)
        result = runner.invoke(
            main,
            ["jacobi", "--kind", "rhpwn", "--n-range", "0..4", "--k-range", "0..4"],
        )
        assert result.exit_code == 1
        monkeypatch.undo()
        result = runner.invoke(
            main,
            ["jacobi", "--kind", "rhpwn", "--n-range", "0..4", "--k-range", "0..4"],
        )
        assert result.exit_code == 0
