"""Command-line front end: one subcommand per verification artifact.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or parse
error. All output is deterministic: identical invocations produce identical
bytes.

Every report but ``bracket``'s, which writes one line per expression, goes
through ``_render``. A command gives it text lines, latex lines, a function
that builds the JSON payload, and a predicate, asked once the output is
written, that says whether a check failed. Text and latex lines are written as
they are produced, to one stdout stream flushed once per report and before any
``error:`` line; JSON is one sorted document. A rejected input ends in
``_rejected_input``: one ``error:`` line on stderr and exit 2.

Only the batch checks' engines (``lie``, ``oracle``, ``sandwich`` and the
``scalars`` and ``stepfn`` they use) load with this module. The expression
commands import theirs when they run: ``bracket`` the DSL (``dsl``), ``smear``
and ``normal-order`` the white-noise calculus (``wick``). So a process
compiles only the engines it runs, each once.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from contextlib import contextmanager

import click

from . import lie, oracle, sandwich
from .lie import AlgebraKind
from .scalars import coeff_to_json, count_to_str, theta as theta_fn
from .stepfn import FnSymbol, fn_symbol, fn_to_json, step_from_records, step_to_records


class RangeParam(click.ParamType):
    """Inclusive integer range 'a..b' (or a single integer 'a')."""

    name = "range"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        text = str(value)
        try:
            if ".." in text:
                lo_s, hi_s = text.split("..", 1)
                lo, hi = int(lo_s), int(hi_s)
            else:
                lo = hi = int(text)
        except ValueError:
            self.fail(f"expected 'a..b' or an integer, got {text!r}", param, ctx)
        if lo > hi:
            self.fail(f"empty range {text!r}", param, ctx)
        return lo, hi


RANGE = RangeParam()

_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "latex"]),
    default="text",
    show_default=True,
    help="Output rendering.",
)


def _ints(r: tuple[int, int]) -> range:
    return range(r[0], r[1] + 1)


def _span(r: tuple[int, int]) -> str:
    return f"{r[0]}..{r[1]}"


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _latex_table(header, rows):
    """Lines of a right-aligned tabular of str(cell); rows are consumed one
    at a time."""
    yield "\\begin{tabular}{" + "r" * len(header) + "}"
    yield " & ".join(header) + " \\\\"
    yield "\\hline"
    for row in rows:
        yield " & ".join(map(str, row)) + " \\\\"
    yield "\\end{tabular}"


def _render(fmt, text, latex, payload, failed=lambda: False) -> None:
    """Write one report in the chosen format to stdout, flushed once at its end;
    exit 1 if a check failed."""
    if fmt == "json":
        lines = [json.dumps(payload(), sort_keys=True, indent=2)]
    else:
        lines = text if fmt == "text" else latex
    out = click.get_text_stream("stdout")
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        out.flush()
    if failed():
        raise SystemExit(1)


@contextmanager
def _rejected_input(context: str = ""):
    """Turn input the engines reject into one ``error:`` line, after stdout's rows, and exit 2."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OSError) as exc:
        click.get_text_stream("stdout").flush()
        if "for integer string conversion;" in str(exc):  # int to str; str to int has ": value"
            exc = f"an output number has more than {sys.get_int_max_str_digits()} digits"
        click.echo(f"error: {context}{exc}", err=True)
        raise SystemExit(2)


def _cap_grid(size: int, cap: int, what: str) -> None:
    """Refuse a grid of more than ``cap`` ``what`` before any work."""
    if size > cap:
        with _rejected_input():
            raise ValueError(f"at most {cap} {what} per run, this grid has {count_to_str(size)}")


@click.group()
def main() -> None:
    """Exact engines for renormalized white-noise powers and w-infinity."""


# -- theta --------------------------------------------------------------------

# Largest table theta prints, counted as rows times the L_max - 1 singular
# orders of its largest L, since a row's digits grow with L: a json report
# holds every row, and at L = 1001 with k, N near 1500 a row prints about
# 3.4 kB, so about 170 kB at the cap. Every theta run in the tests and the
# benchmark counts at most 324.
MAX_THETA_ORDERS = 50_000


@main.command("theta")
@click.option("--L", "l_range", type=RANGE, default="2..2", show_default=True)
@click.option("--n", "n_range", type=RANGE, default="0..3", show_default=True)
@click.option("--k", "k_range", type=RANGE, default="0..3", show_default=True)
@click.option("--N", "nn_range", type=RANGE, default="0..3", show_default=True)
@click.option("--K", "kk_range", type=RANGE, default="0..3", show_default=True)
@_format_option
def theta_cmd(l_range, n_range, k_range, nn_range, kk_range, fmt) -> None:
    """Tabulate the singular-part coefficients theta_L(n,k;N,K)."""
    if l_range[0] < 2:
        raise click.UsageError("theta needs L >= 2")
    # theta at L = 2..L_max sums the binomials smear computes for L_max - 1 orders
    _cap_grid(l_range[1] - 1, MAX_SMEAR_ORDERS, "singular orders")
    _cap_binomial_bits((l_range[1] - 1, k_range[1], nn_range[1]),
                       (l_range[1] - 1, kk_range[1], n_range[1]))
    ranges = (l_range, n_range, k_range, nn_range, kk_range)
    orders = math.prod(hi - lo + 1 for lo, hi in ranges) * (l_range[1] - 1)
    _cap_grid(orders, MAX_THETA_ORDERS, "theta row orders")
    rows = ((*t, theta_fn(*t)) for t in itertools.product(*map(_ints, ranges)))
    names = ("L", "n", "k", "N", "K", "theta")
    with _rejected_input():
        _render(
            fmt,
            (f"theta(L={L};n={n},k={k},N={N},K={K}) = {v}" for L, n, k, N, K, v in rows),
            _latex_table([*names[:5], "\\theta_L"], rows),
            lambda: [dict(zip(names, row)) for row in rows],
        )


# -- bracket ------------------------------------------------------------------

@main.command("bracket")
@click.argument("exprs", nargs=-1)
@click.option("--relaxed", is_flag=True, help="Admit out-of-domain indices.")
@_format_option
def bracket_cmd(exprs, relaxed, fmt) -> None:
    """Evaluate DSL expressions (from arguments, or one per stdin line)."""
    from . import dsl
    lines = list(exprs)
    if not lines:
        lines = [line.strip() for line in sys.stdin if line.strip()]
    out = click.get_text_stream("stdout")
    try:
        for line in lines:
            with _rejected_input():  # a number past the string limit fails in render
                rendered = dsl.render(dsl.evaluate(dsl.parse(line, relaxed=relaxed)), fmt)
            out.write(rendered + "\n")
    finally:
        out.flush()


# -- scans --------------------------------------------------------------------

def _scan_options(func):
    func = click.option("--k-range", type=RANGE, required=True)(func)
    func = click.option("--n-range", type=RANGE, required=True)(func)
    return click.option(
        "--kind",
        type=click.Choice([kind.name.lower() for kind in AlgebraKind]),
        required=True,
        help="Algebra presentation to scan.",
    )(func)


def _render_scan(fmt, name, report, checked, labels, detail, encode, extra, mode="") -> None:
    """A scan as one verdict line plus ``detail`` of each kept failure, a
    one-row table, or a payload: ``extra`` plus the kind, the verdict, the
    counts as ``<counted>_checked`` and ``<failed, singular>_count``, and
    the kept failures under ``<failed>``, each through ``encode``."""
    counted, failed = labels
    kind, count = report.kind.value, report.failure_count
    head = (
        f"{name} {kind} n={_span(report.n_range)} k={_span(report.k_range)}{mode}: "
        f"{counted}={checked} {failed}={count} -> {_verdict(report.passed)}"
    )
    _render(
        fmt,
        itertools.chain([head], map(detail, report.failures)),
        _latex_table(["kind", counted, failed, "pass"], [[kind, checked, count, report.passed]]),
        lambda: {
            **extra,
            "kind": kind,
            f"{counted}_checked": checked,
            f"{failed[:-1]}_count": count,
            failed: [encode(f) for f in report.failures],
            "pass": report.passed,
        },
        lambda: not report.passed,
    )


# Largest sample jacobi draws: each triple costs up to six structure calls.
# At the cap a run takes about 4 s on a 2-core VM with CPython 3.11.
MAX_JACOBI_SAMPLE = 500_000


@main.command("jacobi")
@_scan_options
@click.option("--sample", type=click.IntRange(min=1), default=None,
              help="Sample size instead of the full grid.")
@click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")
@_format_option
def jacobi_cmd(kind, n_range, k_range, sample, seed, fmt) -> None:
    """Scan basis triples for Jacobi-identity defects."""
    _cap_grid(sample or 0, MAX_JACOBI_SAMPLE, "sampled triples")
    with _rejected_input():
        r = lie.jacobi_scan(AlgebraKind[kind.upper()], n_range, k_range, sample=sample, seed=seed)
    _render_scan(
        fmt, "jacobi", r, r.triples_checked, ("triples", "failures"),
        lambda f: f"  defect at {f[0]} {f[1]} {f[2]}: residual {f[3]}",
        lambda f: {"triple": [list(p) for p in f[:3]], "residual": [list(x) for x in f[3]]},
        {"n_range": list(r.n_range), "k_range": list(r.k_range),
         "sampled": r.sampled, "seed": r.seed},
        mode=f" [sampled({r.seed})]" if r.sampled else " [exhaustive]",
    )


@main.command("closure")
@_scan_options
@_format_option
def closure_cmd(kind, n_range, k_range, fmt) -> None:
    """Check that nonzero brackets of in-domain generators stay in-domain."""
    with _rejected_input():
        r = lie.closure_check(AlgebraKind[kind.upper()], n_range, k_range)
    _render_scan(
        fmt, "closure", r, r.pairs_checked, ("pairs", "violations"),
        lambda f: f"  escape at {f[0]} {f[1]}: {f[2]}",
        lambda f: {"pair": [list(f[0]), list(f[1])], "result": list(f[2])},
        {"n_range": list(r.n_range), "k_range": list(r.k_range)},
    )


@main.command("star-check")
@_scan_options
@_format_option
def star_check_cmd(kind, n_range, k_range, fmt) -> None:
    """Scan basis pairs for *-Lie compatibility: [x,y]* must equal [y*,x*]."""
    with _rejected_input():
        r = lie.star_scan(AlgebraKind[kind.upper()], n_range, k_range)
    _render_scan(
        fmt, "star-check", r, r.pairs_checked, ("pairs", "failures"),
        lambda f: f"  defect at {f[0]} {f[1]}",
        lambda f: [list(f[0]), list(f[1])],
        {},
    )


# -- verify-w -----------------------------------------------------------------

# Largest grid verify-w checks, counted as product words and as weight digits.
# A tuple (n, k, N, K) weighs a commutator of about n N words (a passing tuple
# builds none, a failing one reduces all), so a grid has (sum of n)^2 times
# (number of k)^2 words; the acceptance grid, n 2..7 and k -4..4, has 59049. A
# word's weight binom(n-1, j) binom(N-1, i) K^(n-1-j) k^(N-1-i) is at most about
# (2 max |k|)^(2 (max n - 1)), and a grid's weight digits are its words times
# the digits of that bound. The slowest runs the caps accept, on a 2-core VM
# with CPython 3.11: many tuples of small words (n 2..2, k -70..70) take about
# 0.2 s past start-up; one tuple of large weights (n = 18 with a 4300-digit k,
# the most digits Python reads) under 0.01 s, as it builds no exchange row.
MAX_VERIFY_WORDS = 80_000
MAX_VERIFY_DIGITS = 50_000_000


@main.command("verify-w")
@click.option("--n", "n_range", type=RANGE, default="2..7", show_default=True)
@click.option("--k", "k_range", type=RANGE, default="-4..4", show_default=True)
@_format_option
def verify_w_cmd(n_range, k_range, fmt) -> None:
    """Grid-check the sandwich realization of the w-infinity relations."""
    if n_range[0] < 2:
        raise click.UsageError("realization indices need n >= 2")
    tuples = ((n_range[1] - n_range[0] + 1) * (k_range[1] - k_range[0] + 1)) ** 2
    words = tuples * (n_range[0] + n_range[1]) ** 2 // 4  # (sum of n)^2 (number of k)^2
    _cap_grid(words, MAX_VERIFY_WORDS, "product words")
    k_digits = len(str(max(-k_range[0], k_range[1], 0))) + 1  # digits of 2 max |k|, at most
    _cap_grid(words * 2 * (n_range[1] - 1) * k_digits, MAX_VERIFY_DIGITS, "weight digits")
    # The largest coefficient (N-1) k - (n-1) K sits at a corner of the grid:
    # one past Python's integer-to-string limit is refused before any output.
    with _rejected_input():
        str(max(abs(lie.structure(AlgebraKind.WINFINITY, *corner)[0])
                for corner in itertools.product(n_range, k_range, repeat=2)))
    failed = []

    def checked():
        for n, k, N, K in itertools.product(_ints(n_range), _ints(k_range), repeat=2):
            r = sandwich.verify_theorem(n, k, N, K)
            if not r.passed:
                failed.append(r)
            yield r

    def text():
        for r in checked():
            yield (
                f"n={r.n} k={r.k} N={r.N} K={r.K} coeff={r.expected_coeff} "
                f"dropped={r.dropped_singular} {_verdict(r.passed)}"
            )
        yield f"verify-w: tuples={tuples} failures={len(failed)} -> {_verdict(not failed)}"

    _render(
        fmt,
        text(),
        _latex_table(
            ["n", "k", "N", "K", "c", "pass"],
            ((r.n, r.k, r.N, r.K, r.expected_coeff, r.passed) for r in checked()),
        ),
        lambda: {
            "reports": [sandwich.theorem_report_to_json(r) for r in checked()],
            "tuples": tuples,
            "failures": len(failed),
            "pass": not failed,
        },
        lambda: bool(failed),
    )


# -- smear --------------------------------------------------------------------

def _testfn_text(fn) -> str:
    if isinstance(fn, FnSymbol):
        return "*".join(fn.factors)
    return json.dumps(step_to_records(fn), sort_keys=True)


def _index_options(func):
    for flag, name in (("--K", "kk"), ("--N", "nn"), ("--k", "k"), ("--n", "n")):
        func = click.option(flag, name, type=int, required=True)(func)
    return func


# Most singular orders smear computes, and most commutator orders of each sum
# normal-order expands: each order is a big-integer binomial term. At the cap,
# smear_bracket at n = k = N = K = 1001 takes 0.16-0.21 s; normal-order at
# n = k = N = K = 1000 takes 0.7 s and writes 3.3 MB, on a 2-core VM with
# CPython 3.11.
MAX_SMEAR_ORDERS = 1000
# Most binomial bits of those sums: a sum of terms binom(k, L) falling(N, L)
# counts its orders times the bit lengths of k and N, and a theta row counts as
# smear's sums up to its largest L. smear at n = k = N = K = 1001 counts 40040
# and takes 0.5 s. Near the cap, smear and normal-order at n = N = 1001,
# k = 2^88, K = 0 are refused at the string limit after about 1.6 s, on a
# 2-core VM with CPython 3.11; a 50-digit k (177000 bits) took 4.9 s.
MAX_SMEAR_BITS = 100_000


def _cap_binomial_bits(*sums: tuple[int, int, int]) -> None:
    """Refuse sums (orders, k, N) of more than ``MAX_SMEAR_BITS`` binomial bits."""
    bits = sum(max(m, 0) * (k.bit_length() + N.bit_length()) for m, k, N in sums)
    _cap_grid(bits, MAX_SMEAR_BITS, "binomial bits")


@main.command("smear")
@_index_options
@click.option("--g", "g_path", type=click.Path(exists=True), default=None,
              help="JSON step-function records for g (default: abstract symbol).")
@click.option("--f", "f_path", type=click.Path(exists=True), default=None,
              help="JSON step-function records for f (default: abstract symbol).")
@_format_option
def smear_cmd(n, k, nn, kk, g_path, f_path, fmt) -> None:
    """Decompose the smeared commutator into regular and singular parts."""
    from . import wick
    orders = max(min(kk, n), min(k, nn)) - 1  # L = 2..max(min(K,n), min(k,N))
    _cap_grid(orders, MAX_SMEAR_ORDERS, "singular orders")
    _cap_binomial_bits((min(k, nn), k, nn), (min(kk, n), kk, n))

    def load(path, name):
        if path is None:
            return fn_symbol(name)
        with open(path, "r", encoding="utf-8") as fh:
            return step_from_records(json.load(fh))

    with _rejected_input("bad step-function file: "):
        g = load(g_path, "g")
        f = load(f_path, "f")
    with _rejected_input():
        d = wick.smear_bracket(n, k, g, nn, kk, f)
        # A theta or a step-function value past Python's integer-to-string limit
        # is refused before any output.
        testfn = _testfn_text(d.regular_testfn)
        singular = [(s, str(s.theta), str(s.scalar)) for s in d.singular]
    rn, rk = d.regular_index

    def text():
        yield f"regular: coeff={d.regular_coeff} index=({rn},{rk}) testfn={testfn}"
        if not singular:
            yield "singular: none"
        for s, theta, scalar in singular:
            yield (f"singular: L={s.L} theta={theta} index=({s.index[0]},{s.index[1]}) "
                   f"scalar={scalar}")

    latex = itertools.chain(
        [
            f"$[B^{{{n}}}_{{{k}}}(g), B^{{{nn}}}_{{{kk}}}(f)]$: regular "
            f"${d.regular_coeff}\\,B^{{{rn}}}_{{{rk}}}(gf)$"
        ],
        _latex_table(
            ["L", "\\theta_L", "n", "k", "g(0)f(0)"],
            ((s.L, theta, *s.index, scalar) for s, theta, scalar in singular),
        ),
    )
    regular = {"coeff": d.regular_coeff, "n": rn, "k": rk}
    _render(fmt, text(), latex, lambda: {
        "regular": {**regular, "testfn": fn_to_json(d.regular_testfn)},
        "singular": [
            {"L": s.L, "theta": s.theta, "n": s.index[0], "k": s.index[1],
             "scalar": coeff_to_json(s.scalar)}
            for s in d.singular
        ],
    })


# -- normal-order -------------------------------------------------------------

# Per format: how a power prints, the creator and annihilator heads, the
# delta, the product sign. Text leaves out a power of 1.
_WN_FORMS = {
    "text": (lambda e: f"^{e}" if e > 1 else "", "bd[{}]", "b[{}]", "delta", " "),
    "latex": (lambda e: f"^{{{e}}}", "{{b_{}^{{\\dagger}}}}", "b_{}", "\\delta", "\\,"),
}


def _wn_term(t, coeff: str, fmt: str) -> str:
    power, creator, annihilator, delta, times = _WN_FORMS[fmt]
    parts = [f"({coeff})"]
    parts += [creator.format(x) + power(e) for x, e in t.creators]
    parts += [annihilator.format(x) + power(e) for x, e in t.annihilators]
    if t.delta_L:
        a, b = t.delta_pair
        parts.append(f"{delta}{power(t.delta_L)}({a}-{b})")
    parts += [f"{delta}({x})" for x in t.point_evals]
    return times.join(parts)


@main.command("normal-order")
@_index_options
@click.option("--renormalize", "apply_renorm", is_flag=True,
              help="Apply delta^L(t-s) = delta(s) delta(t-s) to the result.")
@_format_option
def normal_order_cmd(n, k, nn, kk, apply_renorm, fmt) -> None:
    """Expand the two-point commutator of normally ordered monomials."""
    from . import wick
    # The expansion's two sums run over L = 1..min(k, N) and L = 1..min(K, n).
    _cap_grid(max(min(k, nn), min(kk, n)), MAX_SMEAR_ORDERS, "commutator orders")
    _cap_binomial_bits((min(k, nn), k, nn), (min(kk, n), kk, n))
    with _rejected_input():
        expr = wick.monomial_commutator(n, k, nn, kk)
        if apply_renorm:
            expr = wick.renormalize(expr)
        # A coefficient past Python's integer-to-string limit is refused before any output.
        terms = [(t, str(t.coeff)) for t in expr.terms]
    zero = ["0"] if expr.is_zero else []
    _render(
        fmt,
        itertools.chain(zero, (_wn_term(t, c, "text") for t, c in terms)),
        zero or [" + ".join(_wn_term(t, c, "latex") for t, c in terms)],
        lambda: wick.wn_expr_to_json(expr),
    )


# -- oracle -------------------------------------------------------------------

# Largest eq1 grid oracle checks, counted as tuples times the D + 1 columns of
# each, at least one even for D < 0: the default grid has 625 * 41 = 25625. At
# the cap, [0,4]^4 at D = 1599 takes about 1.5-1.8 s and [0,11]^4 at D = 47
# about 3.2 s on a 2-core VM with CPython 3.11.
MAX_EQ1_COLUMNS = 1_000_000

# Largest exchange-seed suite oracle checks, counted as ladder steps: the check
# of power m steps (a + a^+)^m on D - m columns of up to m + 1 degrees, about
# D m^2 steps, so the suite takes D M(M+1)(2M+1)/6 for powers 0..M. The
# default suite has 3264; near the cap it takes 3.5 s (M = 48, D = 120) to
# 6.3 s (M = 20, D = 1700) on a 2-core VM with CPython 3.11.
MAX_SEED_STEPS = 5_000_000


@main.command("oracle")
@click.option("--eq1-max", type=click.IntRange(min=0), default=4, show_default=True,
              help="Check the commutator expansion for all indices in [0, max]^4.")
@click.option("--eq1-trunc", type=int, default=40, show_default=True)
@click.option("--seed-max", type=click.IntRange(min=0), default=8, show_default=True,
              help="Check the exchange seed for powers in [0, max].")
@click.option("--seed-trunc", type=int, default=16, show_default=True)
@_format_option
def oracle_cmd(eq1_max, eq1_trunc, seed_max, seed_trunc, fmt) -> None:
    """Run the polynomial-representation oracle suites."""
    _cap_grid((eq1_max + 1) ** 4 * max(eq1_trunc + 1, 1), MAX_EQ1_COLUMNS, "eq1 columns")
    steps = seed_trunc * seed_max * (seed_max + 1) * (2 * seed_max + 1) // 6
    _cap_grid(steps, MAX_SEED_STEPS, "exchange-seed steps")
    # Both suites run before any output, so a rejected truncation prints nothing.
    with _rejected_input():
        eq1 = [(t, m > 0) for t, m in oracle.eq1_suite(eq1_max, eq1_trunc)]
        seeds = [(m, oracle.check_exchange_seed(m, seed_trunc)) for m in range(seed_max + 1)]
    ok = all(p for _, p in eq1) and all(p for _, p in seeds)
    _render(
        fmt,
        itertools.chain(
            (f"eq1 n={n} k={k} N={N} K={K} D={eq1_trunc}: {_verdict(p)}"
             for (n, k, N, K), p in eq1),
            (f"exchange-seed m={m} D={seed_trunc}: {_verdict(p)}" for m, p in seeds),
            [f"oracle: {_verdict(ok)}"],
        ),
        itertools.chain(
            _latex_table(["n", "k", "N", "K", "pass"], ((*t, p) for t, p in eq1)),
            _latex_table(["m", "pass"], seeds),
        ),
        lambda: {
            "eq1": [
                {"n": n, "k": k, "N": N, "K": K, "D": eq1_trunc, "pass": p}
                for (n, k, N, K), p in eq1
            ],
            "exchange_seed": [{"m": m, "D": seed_trunc, "pass": p} for m, p in seeds],
            "pass": ok,
        },
        lambda: not ok,
    )


if __name__ == "__main__":
    main()
