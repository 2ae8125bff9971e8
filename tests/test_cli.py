import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import rhpwn.cli
import rhpwn.dsl
import rhpwn.lie
import rhpwn.sandwich
import rhpwn.wick
from rhpwn.cli import main
from rhpwn.sandwich import eq_expr, eq_term


@pytest.fixture
def runner():
    return CliRunner()


def test_bracket_exact_output(runner):
    result = runner.invoke(main, ["bracket", "[B[1,2],B[2,1]]"])
    assert result.exit_code == 0
    assert result.output == "3*B[2,2]\n"


def test_bracket_stdin(runner):
    result = runner.invoke(
        main, ["bracket"], input="[B[1,2],B[2,1]]\nBh[3,2]^*\n"
    )
    assert result.exit_code == 0
    assert result.output == "3*B[2,2]\nBh[3,-2]\n"


def test_bracket_stdin_rows_come_before_the_error_line(runner):
    # stdout is flushed before the error line goes to stderr, so the two
    # streams, mixed in write order, keep the order of the input lines
    result = runner.invoke(main, ["bracket"], input="[B[1,2],B[2,1]]\nB[2,1]\nB[1,1]\nB[3,0]\n")
    assert result.exit_code == 2
    assert result.stdout == "3*B[2,2]\nB[2,1]\n"
    assert result.output == (
        "3*B[2,2]\nB[2,1]\n"
        "error: at byte 0: index (1, 1) outside the RHPWN family (pass --relaxed to admit it)\n"
    )


def test_bracket_parse_error_exits_2(runner):
    result = runner.invoke(main, ["bracket", "[B[2,1], B[1,2]"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["bracket", "B[1,1]"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["bracket", "--relaxed", "B[1,1]"])
    assert result.exit_code == 0 and result.output == "B[1,1]\n"


def test_bracket_json_and_latex(runner):
    result = runner.invoke(main, ["bracket", "--format", "json", "[B[1,2],B[2,1]]"])
    assert json.loads(result.output) == {
        "kind": "RHPWN",
        "terms": [{"n": 2, "k": 2, "coeff": [3, 1, 0, 1]}],
    }
    result = runner.invoke(main, ["bracket", "--format", "latex", "[B[1,2],B[2,1]]"])
    assert result.output == "3\\,B^{2}_{2}\n"


def test_theta_table(runner):
    result = runner.invoke(
        main,
        ["theta", "--L", "2..2", "--n", "2", "--k", "3", "--N", "4", "--K", "1"],
    )
    assert result.exit_code == 0
    assert result.output == "theta(L=2;n=2,k=3,N=4,K=1) = 36\n"


def test_jacobi_pass_and_determinism(runner):
    args = ["jacobi", "--kind", "rhpwn", "--n-range", "0..4", "--k-range", "0..4"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert "-> PASS" in first.output


def test_jacobi_corrupted_table_exits_1(runner, monkeypatch):
    true_structure = rhpwn.lie.structure

    def flipped(kind, n, k, N, K):
        c, n2, k2 = true_structure(kind, n, k, N, K)
        if (n, k) == (2, 1) and (N, K) == (0, 3):
            return -c, n2, k2
        return c, n2, k2

    monkeypatch.setattr(rhpwn.lie, "structure", flipped)
    result = runner.invoke(
        main, ["jacobi", "--kind", "rhpwn", "--n-range", "0..4", "--k-range", "0..4"]
    )
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_closure_and_star_check(runner):
    result = runner.invoke(
        main, ["closure", "--kind", "winfinity", "--n-range", "2..6", "--k-range", "-3..3"]
    )
    assert result.exit_code == 0 and "-> PASS" in result.output
    result = runner.invoke(
        main, ["star-check", "--kind", "witt", "--n-range", "2..2", "--k-range", "-4..4"]
    )
    assert result.exit_code == 0 and "pairs=81" in result.output


def test_verify_w_small_grid(runner):
    result = runner.invoke(main, ["verify-w", "--n", "2..3", "--k", "-2..2"])
    assert result.exit_code == 0
    assert result.output.endswith("verify-w: tuples=100 failures=0 -> PASS\n")
    as_json = runner.invoke(
        main, ["verify-w", "--n", "2..3", "--k", "-2..2", "--format", "json"]
    )
    payload = json.loads(as_json.output)
    assert payload["pass"] is True and payload["tuples"] == 100
    assert all(r["pass"] for r in payload["reports"])


def test_verify_w_text_prints_each_row_as_it_is_checked(runner, monkeypatch):
    checked = []
    verify = rhpwn.sandwich.verify_theorem

    def first_tuple_only(*indices):
        if checked:
            raise RuntimeError("second tuple")
        checked.append(verify(*indices))
        return checked[0]

    monkeypatch.setattr(rhpwn.sandwich, "verify_theorem", first_tuple_only)
    result = runner.invoke(main, ["verify-w", "--n", "2..3", "--k", "0..1"])
    assert isinstance(result.exception, RuntimeError)
    r = checked[0]
    assert (r.n, r.k, r.N, r.K) == (2, 0, 2, 0)
    assert result.output == f"n=2 k=0 N=2 K=0 coeff=0 dropped={r.dropped_singular} PASS\n"


def test_verify_w_failure_exits_1_and_reports_the_residual(runner, monkeypatch):
    verify = rhpwn.sandwich.verify_theorem
    residual = eq_expr(
        [eq_term(3, {"t": Fraction(1, 2)}, {"t": 1, "s": 1}, {"s": Fraction(-3, 2)})]
    )

    def one_failure(n, k, N, K):
        r = verify(n, k, N, K)
        if (n, k, N, K) == (2, 1, 3, 0):
            return r._replace(passed=False, l0_residual=residual)
        return r

    monkeypatch.setattr(rhpwn.sandwich, "verify_theorem", one_failure)
    argv = ["verify-w", "--n", "2..3", "--k", "0..1"]
    text = runner.invoke(main, argv)
    assert text.exit_code == 1
    dropped = verify(2, 1, 3, 0).dropped_singular
    lines = text.output.splitlines()
    assert f"n=2 k=1 N=3 K=0 coeff=2 dropped={dropped} FAIL" in lines
    assert sum(line.endswith(" FAIL") for line in lines[:-1]) == 1
    assert lines[-1] == "verify-w: tuples=16 failures=1 -> FAIL"
    as_json = runner.invoke(main, argv + ["--format", "json"])
    assert as_json.exit_code == 1
    payload = json.loads(as_json.output)
    assert payload["failures"] == 1 and payload["pass"] is False
    (failed,) = [r for r in payload["reports"] if not r["pass"]]
    assert (failed["n"], failed["k"], failed["N"], failed["K"]) == (2, 1, 3, 0)
    assert failed["l0_residual_terms"] == [
        {
            "coeff": [3, 1, 0, 1],
            "left_exp": {"t": "1/2"},
            "q_pow": {"s": 1, "t": 1},
            "right_exp": {"s": "-3/2"},
            "delta_L": 0,
            "testfn": {},
        }
    ]


def test_verify_w_checks_the_structure_table(runner, monkeypatch):
    # The realization is compared with lie.structure, the table the Jacobi
    # scans certify: a skewed table (c + 1) fails every tuple, and one whose
    # brackets from n = 2 leave the family fails the 14 nonzero ones of those
    # without a traceback.
    argv = ["verify-w", "--n", "2..3", "--k", "-1..1"]
    _skewed_structure(monkeypatch)
    result = runner.invoke(main, argv)
    lines = result.output.splitlines()
    assert result.exit_code == 1
    assert "n=2 k=1 N=3 K=0 coeff=3 dropped=0 FAIL" in lines
    assert lines[-1] == "verify-w: tuples=36 failures=36 -> FAIL"
    monkeypatch.undo()
    _escaping_structure(monkeypatch)
    result = runner.invoke(main, argv)
    lines = result.output.splitlines()
    assert result.exit_code == 1
    assert sum(line.endswith(" FAIL") for line in lines[:-1]) == 14
    assert lines[-1] == "verify-w: tuples=36 failures=14 -> FAIL"
    # Every bracket 1 * B^0_0: it fails even where the true bracket vanishes.
    monkeypatch.setattr(rhpwn.lie, "structure", lambda *t: (1, 0, 0))
    result = runner.invoke(main, argv)
    assert result.output.splitlines()[-1] == "verify-w: tuples=36 failures=36 -> FAIL"


def test_verify_w_verdicts_do_not_outlive_the_table(runner, monkeypatch):
    # Sandwich words and merged block sets are built once per process; the
    # table lookup and the verdict are made on every call.
    argv = ["verify-w", "--n", "2..3", "--k", "-1..1"]

    def last_line(exit_code):
        result = runner.invoke(main, argv)
        assert result.exit_code == exit_code
        return result.output.splitlines()[-1]

    assert last_line(0) == "verify-w: tuples=36 failures=0 -> PASS"
    _skewed_structure(monkeypatch)
    assert last_line(1) == "verify-w: tuples=36 failures=36 -> FAIL"
    monkeypatch.undo()
    assert last_line(0) == "verify-w: tuples=36 failures=0 -> PASS"


def test_smear_reads_its_coefficient_from_the_expansion(runner, monkeypatch):
    # The coefficient 3 of [B^1_2(g), B^2_1(f)] is the L = 1 word of the
    # commutator expansion; lie.structure gives only its index, so a skewed
    # table (c + 1) leaves it at 3.
    _skewed_structure(monkeypatch)
    result = runner.invoke(main, ["smear", "--n", "1", "--k", "2", "--N", "2", "--K", "1"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "regular: coeff=3 index=(2,2) testfn=f*g"


def test_smear_with_step_function_files(runner, tmp_path):
    g = [{"from": "1", "to": "2", "re": "1", "im": "0"}]
    f = [{"from": "3/2", "to": "3", "re": "1", "im": "0"}]
    g_path = tmp_path / "g.json"
    f_path = tmp_path / "f.json"
    g_path.write_text(json.dumps(g))
    f_path.write_text(json.dumps(f))
    result = runner.invoke(
        main,
        ["smear", "--n", "1", "--k", "2", "--N", "2", "--K", "1",
         "--g", str(g_path), "--f", str(f_path)],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("regular: coeff=3 index=(2,2)")
    assert "singular: L=2 theta=2 index=(1,1) scalar=0" in lines[1]


def test_smear_abstract_symbols(runner):
    result = runner.invoke(
        main, ["smear", "--n", "1", "--k", "2", "--N", "2", "--K", "1"]
    )
    assert result.exit_code == 0
    assert "testfn=f*g" in result.output


def test_smear_non_s0_function_reports_scalar(runner, tmp_path):
    # value 1 on [-1, 1): does not vanish at the origin
    g = [{"from": "-1", "to": "1", "re": "1", "im": "0"}]
    p = tmp_path / "g.json"
    p.write_text(json.dumps(g))
    result = runner.invoke(
        main,
        ["smear", "--n", "1", "--k", "2", "--N", "2", "--K", "1",
         "--g", str(p), "--f", str(p)],
    )
    assert result.exit_code == 0
    assert "scalar=1" in result.output


def test_normal_order_text_and_json(runner):
    result = runner.invoke(
        main, ["normal-order", "--n", "0", "--k", "1", "--N", "1", "--K", "0"]
    )
    assert result.exit_code == 0
    assert result.output == "(1) delta(s-t)\n"
    result = runner.invoke(
        main,
        ["normal-order", "--n", "0", "--k", "3", "--N", "3", "--K", "0",
         "--renormalize", "--format", "json"],
    )
    payload = json.loads(result.output)
    assert [t["coeff"][0] for t in payload] == [6, 18, 9]
    assert payload[0]["point_evals"] == ["s"]


_NORMAL_ORDER_TEXT = """\
(9) bd[s]^2 bd[t]^2 b[s] b[t]^2 delta(s-t)
(-2) bd[s]^3 bd[t] b[t]^3 delta(s-t)
(18) bd[s] bd[t]^2 b[s] b[t] delta^2(s-t)
(6) bd[t]^2 b[s] delta^3(s-t)
"""
_NORMAL_ORDER_TEXT_RENORMALIZED = """\
(18) bd[s] bd[t]^2 b[s] b[t] delta(s-t) delta(s)
(9) bd[s]^2 bd[t]^2 b[s] b[t]^2 delta(s-t)
(-2) bd[s]^3 bd[t] b[t]^3 delta(s-t)
(6) bd[t]^2 b[s] delta(s-t) delta(s)
"""
_NORMAL_ORDER_LATEX = (
    "(9)\\,{b_s^{\\dagger}}^{2}\\,{b_t^{\\dagger}}^{2}\\,b_s^{1}\\,b_t^{2}\\,\\delta^{1}(s-t)"
    " + (-2)\\,{b_s^{\\dagger}}^{3}\\,{b_t^{\\dagger}}^{1}\\,b_t^{3}\\,\\delta^{1}(s-t)"
    " + (18)\\,{b_s^{\\dagger}}^{1}\\,{b_t^{\\dagger}}^{2}\\,b_s^{1}\\,b_t^{1}\\,\\delta^{2}(s-t)"
    " + (6)\\,{b_t^{\\dagger}}^{2}\\,b_s^{1}\\,\\delta^{3}(s-t)\n"
)
_NORMAL_ORDER_LATEX_RENORMALIZED = (
    "(18)\\,{b_s^{\\dagger}}^{1}\\,{b_t^{\\dagger}}^{2}\\,b_s^{1}\\,b_t^{1}\\,\\delta^{1}(s-t)\\,\\delta(s)"
    " + (9)\\,{b_s^{\\dagger}}^{2}\\,{b_t^{\\dagger}}^{2}\\,b_s^{1}\\,b_t^{2}\\,\\delta^{1}(s-t)"
    " + (-2)\\,{b_s^{\\dagger}}^{3}\\,{b_t^{\\dagger}}^{1}\\,b_t^{3}\\,\\delta^{1}(s-t)"
    " + (6)\\,{b_t^{\\dagger}}^{2}\\,b_s^{1}\\,\\delta^{1}(s-t)\\,\\delta(s)\n"
)


@pytest.mark.parametrize(
    "extra, expected",
    [
        ([], _NORMAL_ORDER_TEXT),
        (["--renormalize"], _NORMAL_ORDER_TEXT_RENORMALIZED),
        (["--format", "latex"], _NORMAL_ORDER_LATEX),
        (["--format", "latex", "--renormalize"], _NORMAL_ORDER_LATEX_RENORMALIZED),
    ],
)
def test_normal_order_keeps_its_bytes(runner, extra, expected):
    # powers of 1 and above, delta^2 and delta^3, and delta(s) point evaluations
    argv = ["normal-order", "--n", "2", "--k", "3", "--N", "3", "--K", "1"]
    result = runner.invoke(main, argv + extra)
    assert result.exit_code == 0
    assert result.output == expected


def test_oracle_command(runner):
    result = runner.invoke(
        main,
        ["oracle", "--eq1-max", "1", "--eq1-trunc", "10",
         "--seed-max", "2", "--seed-trunc", "8"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "oracle: PASS"
    as_json = runner.invoke(
        main,
        ["oracle", "--eq1-max", "1", "--eq1-trunc", "10",
         "--seed-max", "2", "--seed-trunc", "8", "--format", "json"],
    )
    payload = json.loads(as_json.output)
    assert payload["pass"] is True
    assert len(payload["eq1"]) == 16 and len(payload["exchange_seed"]) == 3


@pytest.mark.parametrize("top, D", [(1, 3), (2, 5), (4, 12)])
def test_oracle_guard_refusal_names_the_first_offending_tuple(runner, top, D):
    # the eq1 suite walks [0, top]^4 in product order: the first tuple with
    # n + k + N + K >= D sums to D exactly, so its bound is D
    result = runner.invoke(main, ["oracle", "--eq1-max", str(top), "--eq1-trunc", str(D)])
    assert result.exit_code == 2
    assert result.output == f"error: guard band violated: need D > {D}, got {D}\n"


_SMEAR = ["smear", "--n", "1", "--k", "2", "--N", "2", "--K", "1"]
_HUGE = str(10**30)  # a range bound far past every walkable grid
_NINES = "9" * 4300  # the longest integer Python reads from a string
# Grids whose size has more digits than Python converts to a string, and the
# refusal each prints: it names the cap and the grid all the same.
_SIZE_PAST_THE_STRING_LIMIT = {
    ("theta", "--n", f"0..{_NINES}"):
        "at most 50000 theta row orders per run, this grid has at least 10^4301",
    ("verify-w", "--n", "2..2", "--k", f"-{_NINES}..{_NINES}"):
        "at most 80000 product words per run, this grid has at least 10^8601",
    ("jacobi", "--kind", "rhpwn", "--n-range", "0..3", "--k-range", f"0..{_NINES}"):
        "an exhaustive Jacobi scan takes at most 500 basis indices, "
        "this grid has at least 10^4300; sample it instead",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "[B[2,1]@f, B[1,2]]"],
        ["smear", "--n", "-1", "--k", "0", "--N", "1", "--K", "1"],
        ["smear", "--n", "2", "--k", "1", "--N", "1", "--K", "2", "--g", "step.json"],
        ["oracle", "--eq1-max", "1", "--eq1-trunc", "3"],
        ["oracle", "--seed-max", "2", "--seed-trunc", "2"],
        ["theta", "--n", "-1..0", "--k", "0..0", "--N", "0..0", "--K", "0..0"],
        _SMEAR + ["--g", "object.json"],
        _SMEAR + ["--g", "list.json"],
        _SMEAR + ["--g", "."],
        ["bracket", "B[\u0663,1]"],
        ["bracket", "(" * 300 + "B[2,1]" + ")" * 300],
        # 1675 basis indices, past lie.MAX_SCAN_INDICES: refused before any table is built
        ["jacobi", "--kind", "rhpwn", "--n-range", "0..40", "--k-range", "0..40"],
        # grids past cli.MAX_THETA_ORDERS and cli.MAX_EQ1_COLUMNS: refused before any row
        ["theta", "--n", "0..200", "--k", "0..200", "--N", "0..200", "--K", "0..200"],
        ["oracle", "--eq1-max", "100", "--eq1-trunc", "1000"],
        # 19999 singular orders, past cli.MAX_SMEAR_ORDERS: refused before any theta
        ["smear", "--n", "20000", "--k", "20000", "--N", "20000", "--K", "20000"],
        # 100000 commutator orders, past cli.MAX_SMEAR_ORDERS: refused before any term
        ["normal-order", "--n", "100000", "--k", "100000", "--N", "100000", "--K", "100000"],
        # 401^2 * 201^2 product words, past cli.MAX_VERIFY_WORDS
        ["verify-w", "--n", "2..20", "--k", "-100..100"],
        # 1000^2 product words, past cli.MAX_VERIFY_WORDS, each of about 1000 digits
        ["verify-w", "--n", "1000..1000", "--k", "3..3"],
        # 1600 product words of about 78000 digits each, past cli.MAX_VERIFY_DIGITS
        ["verify-w", "--n", "40..40", "--k", f"{10 ** 1000}..{10 ** 1000}"],
        ["bracket", "B[2,1]@step[0,2,1,0;1,3,1,0]"],  # overlapping pieces
        ["bracket", "B[2,1]@step[2,1,1,0]"],  # a reversed piece
        _SMEAR + ["--g", "reversed.json", "--f", "step.json"],
        # 79799 basis indices, past lie.MAX_SCAN_INDICES: refused before any pair
        ["closure", "--kind", "winfinity", "--n-range", "2..200", "--k-range", "-200..200"],
        ["star-check", "--kind", "winfinity", "--n-range", "2..200", "--k-range", "-200..200"],
        # a sample past cli.MAX_JACOBI_SAMPLE: refused before any triple
        ["jacobi", "--kind", "rhpwn", "--n-range", "0..3", "--k-range", "0..3",
         "--sample", "1000000000000"],
        # L up to 5000000, past cli.MAX_SMEAR_ORDERS + 1: refused before any row
        ["theta", "--L", "5000000..5000000", "--n", "0..0", "--k", "10000000..10000000",
         "--N", "10000000..10000000", "--K", "0..0"],
        # 100 rows of 1000 orders, past cli.MAX_THETA_ORDERS: refused before any row
        ["theta", "--L", "1000..1001", "--n", "0..0", "--k", "1500..1509",
         "--N", "1500..1504", "--K", "0..0"],
        # 30-digit range bounds: every grid is sized arithmetically and refused
        # before any range is walked
        ["verify-w", "--n", "2..2", "--k", f"-{_HUGE}..{_HUGE}"],
        ["verify-w", "--n", f"2..{_HUGE}", "--k", "0..0"],
        ["theta", "--n", f"0..{_HUGE}"],
        ["jacobi", "--kind", "winfinity", "--n-range", f"2..{_HUGE}", "--k-range", "0..0"],
        ["jacobi", "--kind", "rhpwn", "--n-range", "0..3", "--k-range", f"-{_HUGE}..{_HUGE}"],
        ["closure", "--kind", "winfinity", "--n-range", f"2..{_HUGE}", "--k-range", "0..0"],
        ["star-check", "--kind", "rhpwn", "--n-range", "0..3", "--k-range", f"-{_HUGE}..{_HUGE}"],
        # a coefficient 2 k of 4301 digits, past Python's integer-to-string
        # limit: refused before any tuple is printed
        ["verify-w", "--n", "2..4", "--k", f"{5 * 10**4299}..{5 * 10**4299}"],
        *map(list, _SIZE_PAST_THE_STRING_LIMIT),
    ],
)
def test_rejected_inputs_exit_2_with_one_error_line(runner, argv, tmp_path, monkeypatch):
    (tmp_path / "step.json").write_text(json.dumps([{"from": "1", "to": "2", "re": "1"}]))
    (tmp_path / "reversed.json").write_text(json.dumps([{"from": "2", "to": "1", "re": "1"}]))
    (tmp_path / "object.json").write_text('{"a": 1}')
    (tmp_path / "list.json").write_text("[1]")
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    # stdout and stderr together: the error line and nothing else
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    if tuple(argv) in _SIZE_PAST_THE_STRING_LIMIT:
        assert result.stdout == ""
        assert result.stderr == f"error: {_SIZE_PAST_THE_STRING_LIMIT[tuple(argv)]}\n"


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize(
    "argv",
    [
        # 1000 orders each, inside the cap; some theta or coefficient has more
        # digits than Python converts to a string, so the run is refused before
        # it prints a row or a term.
        ["smear", "--n", "1001", "--k", "1001", "--N", "1001", "--K", "1000000000"],
        ["normal-order", "--n", "1000000000000", "--k", "1000",
         "--N", "1000000000000", "--K", "1000"],
    ],
    ids=["smear", "normal-order"],
)
def test_a_number_past_the_string_limit_exits_2(runner, argv, fmt):
    result = runner.invoke(main, argv + ["--format", fmt])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.output
    assert result.stdout == ""


def _fresh_interpreter(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter that imports this rhpwn."""
    src = os.path.dirname(os.path.dirname(rhpwn.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_verify_w_through_a_pipe_writes_the_bytes_the_runner_sees(runner, fmt):
    # a real process's stdout on a pipe is block-buffered and flushed at exit
    argv = ["verify-w", "--n", "2..3", "--k", "-1..1", "--format", fmt]
    src = os.path.dirname(os.path.dirname(rhpwn.cli.__file__))
    piped = subprocess.run([sys.executable, "-m", "rhpwn.cli", *argv],
                           capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == runner.invoke(main, argv).stdout_bytes


def test_importing_the_package_root_loads_no_engine():
    code = "import rhpwn, sys; print(sorted(m for m in sys.modules if m.startswith('rhpwn.')))"
    assert _fresh_interpreter(code) == "[]\n"


def test_importing_the_cli_loads_no_dataclasses():
    # A dataclass execs its generated methods at import, about 1 ms a class in
    # every process; the value types are named tuples, built in C.
    code = "import rhpwn.cli, sys; print('dataclasses' in sys.modules)"
    assert _fresh_interpreter(code) == "False\n"


def test_bracket_nested_to_the_cap_evaluates(runner):
    # [Bh[2,0], Bh[2,1]] = -Bh[2,1], nested MAX_NESTING deep
    depth = rhpwn.dsl.MAX_NESTING
    result = runner.invoke(main, ["bracket", "[Bh[2,0], " * depth + "Bh[2,1]" + "]" * depth])
    assert result.exit_code == 0 and result.output == "Bh[2,1]\n"
    result = runner.invoke(main, ["bracket", "(" * depth + "Bh[2,1]" + ")" * depth])
    assert result.exit_code == 0 and result.output == "Bh[2,1]\n"


def test_unknown_option_exits_2(runner):
    result = runner.invoke(main, ["bracket", "--nope"])
    assert result.exit_code == 2


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_jacobi_sample_must_be_positive(runner, sample):
    result = runner.invoke(
        main,
        ["jacobi", "--kind", "rhpwn", "--n-range", "0..2", "--k-range", "0..2",
         "--sample", sample],
    )
    assert result.exit_code == 2
    # stdout and stderr together (click before 8.2 mixes them): no verdict line
    assert "triples=" not in result.output


@pytest.mark.parametrize("option", ["--eq1-max", "--seed-max"])
def test_oracle_rejects_a_negative_max(runner, option):
    # A negative max would check nothing and still report PASS.
    result = runner.invoke(main, ["oracle", option, "-1"])
    assert result.exit_code == 2
    assert "oracle:" not in result.output


def _skewed_structure(monkeypatch):
    """The true table with every coefficient one larger (c + 1)."""
    true_structure = rhpwn.lie.structure
    monkeypatch.setattr(
        rhpwn.lie, "structure", lambda *t: (true_structure(*t)[0] + 1, *true_structure(*t)[1:])
    )


def _escaping_structure(monkeypatch):
    """A corrupted table whose brackets from n = 2 leave the index family."""
    true_structure = rhpwn.lie.structure

    def escaped(kind, n, k, N, K):
        c, n2, k2 = true_structure(kind, n, k, N, K)
        return (c, -n2, k2) if n == 2 else (c, n2, k2)

    monkeypatch.setattr(rhpwn.lie, "structure", escaped)


def _json_bytes(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_JACOBI = ["jacobi", "--kind", "rhpwn", "--n-range", "0..2", "--k-range", "0..2"]
_CLOSURE = ["closure", "--kind", "witt", "--n-range", "2..2", "--k-range", "-1..1"]
_STAR = ["star-check", "--kind", "winfinity", "--n-range", "2..3", "--k-range", "0..0"]
_ORACLE = ["oracle", "--eq1-max", "0", "--eq1-trunc", "4", "--seed-max", "1", "--seed-trunc", "4"]
_ESCAPES = ["closure", "--kind", "rhpwn", "--n-range", "0..2", "--k-range", "0..2"]
_ESCAPED = [((2, 1), (1, 2), (-3, -2, 2)), ((2, 1), (2, 2), (-2, -3, 2)),
            ((2, 2), (1, 2), (-2, -2, 3)), ((2, 2), (2, 1), (2, -3, 2))]


_FAILING_JACOBI = ["jacobi", "--kind", "winfinity", "--n-range", "2..3", "--k-range", "-1..1"]
_VERIFY_W = ["verify-w", "--n", "2..5", "--k", "-3..3", "--format"]
_SAMPLED_JACOBI = ["jacobi", "--kind", "rhpwn", "--n-range", "0..3", "--k-range", "0..2",
                   "--sample", "500", "--seed", "42"]


@dataclasses.dataclass(frozen=True)
class _Digest:
    """A stdout too long to pin inline: its first line, line count and sha256."""

    head: str
    lines: int
    sha256: str


def _table(header, *rows):
    """The exact lines of a right-aligned latex tabular."""
    header_line, *row_lines = (" & ".join(row) + " \\\\\n" for row in (header, *rows))
    begin = "\\begin{tabular}{" + "r" * len(header) + "}\n"
    return begin + header_line + "\\hline\n" + "".join(row_lines) + "\\end{tabular}\n"


@pytest.mark.parametrize(
    "argv, corrupt, exit_code, expected",
    [
        (_JACOBI + ["--format", "json"], False, 0, _json_bytes({
            "failure_count": 0, "failures": [], "k_range": [0, 2], "kind": "RHPWN",
            "n_range": [0, 2], "pass": True, "sampled": False, "seed": None,
            "triples_checked": 27,
        })),
        (_JACOBI + ["--format", "latex"], False, 0,
         _table(["kind", "triples", "failures", "pass"], ["RHPWN", "27", "0", "True"])),
        (_CLOSURE + ["--format", "json"], False, 0, _json_bytes({
            "k_range": [-1, 1], "kind": "Witt", "n_range": [2, 2], "pairs_checked": 9,
            "pass": True, "violation_count": 0, "violations": [],
        })),
        (_CLOSURE + ["--format", "latex"], False, 0,
         _table(["kind", "pairs", "violations", "pass"], ["Witt", "9", "0", "True"])),
        (_STAR + ["--format", "json"], False, 0, _json_bytes({
            "failure_count": 0, "failures": [], "kind": "Winfinity", "pairs_checked": 4,
            "pass": True,
        })),
        (_STAR + ["--format", "latex"], False, 0,
         _table(["kind", "pairs", "failures", "pass"], ["Winfinity", "4", "0", "True"])),
        (_ORACLE + ["--format", "json"], False, 0, _json_bytes({
            "eq1": [{"D": 4, "K": 0, "N": 0, "k": 0, "n": 0, "pass": True}],
            "exchange_seed": [{"D": 4, "m": 0, "pass": True}, {"D": 4, "m": 1, "pass": True}],
            "pass": True,
        })),
        (_ORACLE + ["--format", "latex"], False, 0,
         _table(["n", "k", "N", "K", "pass"], ["0", "0", "0", "0", "True"])
         + _table(["m", "pass"], ["0", "True"], ["1", "True"])),
        (_ESCAPES, True, 1,
         "closure RHPWN n=0..2 k=0..2: pairs=9 violations=4 -> FAIL\n"
         "  escape at (2, 1) (1, 2): (-3, -2, 2)\n"
         "  escape at (2, 1) (2, 2): (-2, -3, 2)\n"
         "  escape at (2, 2) (1, 2): (-2, -2, 3)\n"
         "  escape at (2, 2) (2, 1): (2, -3, 2)\n"),
        (_ESCAPES + ["--format", "json"], True, 1, _json_bytes({
            "k_range": [0, 2], "kind": "RHPWN", "n_range": [0, 2], "pairs_checked": 9,
            "pass": False, "violation_count": 4,
            "violations": [{"pair": [list(p), list(q)], "result": list(r)} for p, q, r in _ESCAPED],
        })),
        (_ESCAPES + ["--format", "latex"], True, 1,
         _table(["kind", "pairs", "violations", "pass"], ["RHPWN", "9", "4", "False"])),
        # Failing scans under the escaping table: more failures than the 100 kept.
        (_FAILING_JACOBI, True, 1, _Digest(
            "jacobi Winfinity n=2..3 k=-1..1 [exhaustive]: triples=216 failures=156 -> FAIL", 101,
            "799caa3bb601aee9d850262a8a216023950cd2147e8381858e602876028c2153")),
        (_FAILING_JACOBI + ["--format", "json"], True, 1, _Digest(
            "{", 3337, "818f7522157c99ba79790887ba2b15a2a71a89611a92069e1ef444e5037bdcdb")),
        (_SAMPLED_JACOBI, True, 1, _Digest(
            "jacobi RHPWN n=0..3 k=0..2 [sampled(42)]: triples=500 failures=325 -> FAIL", 101,
            "5f7d4e8cb47503f5b8788ecc4b1c570b170123e123d75199a7b3a2825070b00f")),
        (_SAMPLED_JACOBI + ["--format", "json"], True, 1, _Digest(
            "{", 3540, "514cef97ca8afddb89b45a3d823053215b742b940f04fa6b6a85bbed4a8c44b9")),
        # The realization check, pinned before its kernel was rewritten.
        (_VERIFY_W + ["text"], False, 0, _Digest(
            "n=2 k=-3 N=2 K=-3 coeff=0 dropped=0 PASS", 785,
            "c887fb7b0a3a5b3da1ef2e8b8cdb61b9cb5199a123986791ac2953de234bb246")),
        (_VERIFY_W + ["json"], False, 0, _Digest(
            "{", 7847, "860cda022600984cf8532e0692cf6e95b4a0697703589800861e0f82fe2237a7")),
        (_VERIFY_W + ["latex"], False, 0, _Digest(
            "\\begin{tabular}{rrrrrr}", 788,
            "cf08c0d7c442993f42c144b86ee160ae2318eda8789186167c8fc053b43f3c7b")),
        (["verify-w", "--n", "2..3", "--k", "-1..1", "--format", "json"], True, 1, _Digest(
            "{", 367, "0a539fce0d862fc3c19657b62a76a86c152c7cb8c595595beb47e85b9bb38875")),
    ],
)
def test_scan_and_oracle_reports_keep_their_bytes(runner, monkeypatch, argv, corrupt, exit_code,
                                                  expected):
    if corrupt:
        _escaping_structure(monkeypatch)
    result = runner.invoke(main, argv)
    assert result.exit_code == exit_code
    if isinstance(expected, _Digest):
        out = result.stdout
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert _Digest(out.splitlines()[0], out.count("\n"), digest) == expected
    else:
        assert result.stdout == expected


@pytest.mark.parametrize(
    "cap, what, size, argv",
    [
        ("MAX_THETA_ORDERS", "theta row orders", 2,
         ["theta", "--n", "2..3", "--k", "3", "--N", "4", "--K", "1"]),
        ("MAX_EQ1_COLUMNS", "eq1 columns", 5, _ORACLE),
        # powers 0..1 at D = 4: 4 * (0 + 1) ladder steps
        ("MAX_SEED_STEPS", "exchange-seed steps", 4, _ORACLE),
        # (2 + 3)^2 sums n N over the four tuples at k = K = 0
        ("MAX_VERIFY_WORDS", "product words", 25, ["verify-w", "--n", "2..3", "--k", "0"]),
        # 25 words times 2 (3 - 1) times the two digits of 2 * 0, counted as 1 + 1
        ("MAX_VERIFY_DIGITS", "weight digits", 200, ["verify-w", "--n", "2..3", "--k", "0"]),
        # L = 2 only
        ("MAX_SMEAR_ORDERS", "singular orders", 1, _SMEAR),
        ("MAX_JACOBI_SAMPLE", "sampled triples", 20,
         ["jacobi", "--kind", "rhpwn", "--n-range", "0..3", "--k-range", "0..3", "--sample", "20"]),
        # L = 2..3: the binomial sums of two smear orders
        ("MAX_SMEAR_ORDERS", "singular orders", 2,
         ["theta", "--L", "2..3", "--n", "2", "--k", "3", "--N", "4", "--K", "1"]),
        # four rows, each up to L = 3: two orders
        ("MAX_THETA_ORDERS", "theta row orders", 8,
         ["theta", "--L", "2..3", "--n", "2..3", "--k", "3", "--N", "4", "--K", "1"]),
        # L = 1..min(k, N) = 1..2 and L = 1..min(K, n) = 1..1: two orders
        ("MAX_SMEAR_ORDERS", "commutator orders", 2,
         ["normal-order", "--n", "1", "--k", "2", "--N", "2", "--K", "1"]),
    ],
)
def test_grid_caps_are_checked_before_any_work(runner, monkeypatch, cap, what, size, argv):
    monkeypatch.setattr(rhpwn.cli, cap, size)
    assert runner.invoke(main, argv).exit_code == 0
    monkeypatch.setattr(rhpwn.cli, cap, size - 1)
    monkeypatch.setattr(rhpwn.cli, "theta_fn", None)  # any row computed would raise
    monkeypatch.setattr(rhpwn.oracle, "check_eq1", None)
    monkeypatch.setattr(rhpwn.oracle, "eq1_suite", None)
    monkeypatch.setattr(rhpwn.oracle, "check_exchange_seed", None)
    monkeypatch.setattr(rhpwn.sandwich, "verify_theorem", None)
    monkeypatch.setattr(rhpwn.wick, "smear_bracket", None)
    monkeypatch.setattr(rhpwn.wick, "monomial_commutator", None)
    monkeypatch.setattr(rhpwn.lie, "jacobi_scan", None)
    result = runner.invoke(main, argv)
    # stdout and stderr together: the error line and nothing else
    assert result.exit_code == 2
    assert result.output == f"error: at most {size - 1} {what} per run, this grid has {size}\n"


def test_theta_prints_each_row_as_it_is_computed(runner, monkeypatch):
    computed = []
    theta = rhpwn.cli.theta_fn

    def first_row_only(*indices):
        if computed:
            raise RuntimeError("second row")
        computed.append(theta(*indices))
        return computed[0]

    monkeypatch.setattr(rhpwn.cli, "theta_fn", first_row_only)
    result = runner.invoke(main, ["theta", "--n", "2..3", "--k", "3", "--N", "4", "--K", "1"])
    assert isinstance(result.exception, RuntimeError)
    assert result.output == "theta(L=2;n=2,k=3,N=4,K=1) = 36\n"


def test_verify_w_latex_prints_each_row_as_it_is_checked(runner, monkeypatch):
    checked = []
    verify = rhpwn.sandwich.verify_theorem

    def first_tuple_only(*indices):
        if checked:
            raise RuntimeError("second tuple")
        checked.append(verify(*indices))
        return checked[0]

    monkeypatch.setattr(rhpwn.sandwich, "verify_theorem", first_tuple_only)
    result = runner.invoke(main, ["verify-w", "--n", "2..3", "--k", "0..1", "--format", "latex"])
    assert isinstance(result.exception, RuntimeError)
    assert result.output == (
        "\\begin{tabular}{rrrrrr}\nn & k & N & K & c & pass \\\\\n\\hline\n"
        "2 & 0 & 2 & 0 & 0 & True \\\\\n"
    )


# -- argv fuzz ----------------------------------------------------------------

def _range_text(lo, hi, width=3):
    """An index range 'a..b' inside [lo, hi], a single index, or a malformed one."""
    valid = st.tuples(st.integers(lo, hi), st.integers(0, width)).map(
        lambda t: f"{t[0]}..{min(t[0] + t[1], hi)}"
    )
    return valid | st.integers(lo, hi).map(str) | st.sampled_from(["3..1", "a..b", "..", "1.5"])


def _argv(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


def _given(flag, values):
    return values.map(lambda v: [flag, v])


def _option(flag, values):
    """``[flag, value]`` or nothing."""
    return st.just([]) | _given(flag, values)


_fmt = _option("--format", st.sampled_from(["text", "json", "latex", "yaml"]))
_index = st.integers(-2, 8).map(str)
_scan = st.tuples(
    st.sampled_from(["rhpwn", "winfinity", "witt", "none"]), _range_text(-2, 5), _range_text(-3, 3)
).map(lambda t: ["--kind", t[0], "--n-range", t[1], "--k-range", t[2]])


_ARGV = st.one_of(
    _argv("theta", _option("--L", _range_text(1, 4)), _option("--n", _range_text(-1, 3)),
          _option("--k", _range_text(-1, 3)), _option("--N", _range_text(-1, 3)),
          _option("--K", _range_text(-1, 3)), _fmt),
    _argv("bracket", st.lists(st.text("B[]h,0123-+*@~!()^/ifgstep; ", max_size=24), max_size=2),
          st.sampled_from([[], ["--relaxed"]]), _fmt),
    _argv("jacobi", _scan,
          _option("--sample", st.integers(-1, 200).map(str)),
          _option("--seed", st.integers(0, 9).map(str)), _fmt),
    _argv("closure", _scan, _fmt),
    _argv("star-check", _scan, _fmt),
    _argv("verify-w", _option("--n", _range_text(1, 4, width=1)),
          _option("--k", _range_text(-2, 2, width=1)), _fmt),
    _argv("smear", *(_given(f, _index) for f in ("--n", "--k", "--N", "--K")), _fmt),
    _argv("normal-order", *(_given(f, _index) for f in ("--n", "--k", "--N", "--K")),
          st.sampled_from([[], ["--renormalize"]]), _fmt),
    _argv("oracle", *(_option(f, st.integers(-1, m).map(str)) for f, m in
                      (("--eq1-max", 2), ("--eq1-trunc", 8), ("--seed-max", 3),
                       ("--seed-trunc", 8))), _fmt),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_any_small_argv_exits_0_1_or_2_without_a_traceback(argv):
    result = CliRunner().invoke(main, argv, input="B[2,1]\n")
    assert result.exit_code in (0, 1, 2), (argv, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.output
