"""Command-line front end: one subcommand per verification artifact.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or parse
error. All output is deterministic: identical invocations produce identical
bytes.
"""

from __future__ import annotations

import json
import sys

import click

from . import dsl, lie, oracle, sandwich, wick
from .lie import AlgebraKind
from .scalars import coeff_to_json, theta as theta_fn
from .stepfn import FnSymbol, fn_symbol, fn_to_json, step_from_records, step_to_records

_KINDS = {
    "rhpwn": AlgebraKind.RHPWN,
    "winfinity": AlgebraKind.WINFINITY,
    "witt": AlgebraKind.WITT,
}


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


def _emit_json(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True, indent=2))


def _latex_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["\\begin{tabular}{" + "r" * len(header) + "}"]
    lines.append(" & ".join(header) + " \\\\")
    lines.append("\\hline")
    for row in rows:
        lines.append(" & ".join(row) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


@click.group()
def main() -> None:
    """Exact engines for renormalized white-noise powers and w-infinity."""


# -- theta --------------------------------------------------------------------

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
    rows = []
    for L in range(l_range[0], l_range[1] + 1):
        for n in range(n_range[0], n_range[1] + 1):
            for k in range(k_range[0], k_range[1] + 1):
                for N in range(nn_range[0], nn_range[1] + 1):
                    for K in range(kk_range[0], kk_range[1] + 1):
                        rows.append((L, n, k, N, K, theta_fn(L, n, k, N, K)))
    if fmt == "json":
        _emit_json(
            [
                {"L": L, "n": n, "k": k, "N": N, "K": K, "theta": v}
                for L, n, k, N, K, v in rows
            ]
        )
    elif fmt == "latex":
        click.echo(
            _latex_table(
                ["L", "n", "k", "N", "K", "\\theta_L"],
                [[str(x) for x in row] for row in rows],
            )
        )
    else:
        for L, n, k, N, K, v in rows:
            click.echo(f"theta(L={L};n={n},k={k},N={N},K={K}) = {v}")


# -- bracket ------------------------------------------------------------------

@main.command("bracket")
@click.argument("exprs", nargs=-1)
@click.option("--relaxed", is_flag=True, help="Admit out-of-domain indices.")
@_format_option
def bracket_cmd(exprs, relaxed, fmt) -> None:
    """Evaluate DSL expressions (from arguments, or one per stdin line)."""
    lines = list(exprs)
    if not lines:
        lines = [line.strip() for line in sys.stdin if line.strip()]
    for line in lines:
        try:
            result = dsl.evaluate(dsl.parse(line, relaxed=relaxed))
        except (ValueError, TypeError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)
        click.echo(dsl.render(result, fmt))


# -- scans --------------------------------------------------------------------

def _kind_option(func):
    return click.option(
        "--kind",
        type=click.Choice(sorted(_KINDS)),
        required=True,
        help="Algebra presentation to scan.",
    )(func)


@main.command("jacobi")
@_kind_option
@click.option("--n-range", type=RANGE, required=True)
@click.option("--k-range", type=RANGE, required=True)
@click.option("--sample", type=int, default=None, help="Sample size instead of the full grid.")
@click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")
@_format_option
def jacobi_cmd(kind, n_range, k_range, sample, seed, fmt) -> None:
    """Scan basis triples for Jacobi-identity defects."""
    report = lie.jacobi_scan(_KINDS[kind], n_range, k_range, sample=sample, seed=seed)
    payload = {
        "kind": report.kind.value,
        "n_range": list(report.n_range),
        "k_range": list(report.k_range),
        "triples_checked": report.triples_checked,
        "failure_count": report.failure_count,
        "failures": [
            {"triple": [list(p) for p in f[:3]], "residual": [list(r) for r in f[3]]}
            for f in report.failures
        ],
        "sampled": report.sampled,
        "seed": report.seed,
        "pass": report.passed,
    }
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "latex":
        click.echo(
            _latex_table(
                ["kind", "triples", "failures", "pass"],
                [[report.kind.value, str(report.triples_checked), str(report.failure_count), str(report.passed)]],
            )
        )
    else:
        mode = f"sampled({report.seed})" if report.sampled else "exhaustive"
        click.echo(
            f"jacobi {report.kind.value} n={n_range[0]}..{n_range[1]} "
            f"k={k_range[0]}..{k_range[1]} [{mode}]: "
            f"triples={report.triples_checked} failures={report.failure_count} "
            f"-> {'PASS' if report.passed else 'FAIL'}"
        )
        for f in report.failures:
            click.echo(f"  defect at {f[0]} {f[1]} {f[2]}: residual {f[3]}")
    if not report.passed:
        raise SystemExit(1)


@main.command("closure")
@_kind_option
@click.option("--n-range", type=RANGE, required=True)
@click.option("--k-range", type=RANGE, required=True)
@_format_option
def closure_cmd(kind, n_range, k_range, fmt) -> None:
    """Check that nonzero brackets of in-domain generators stay in-domain."""
    report = lie.closure_check(_KINDS[kind], n_range, k_range)
    payload = {
        "kind": report.kind.value,
        "n_range": list(report.n_range),
        "k_range": list(report.k_range),
        "pairs_checked": report.pairs_checked,
        "violation_count": report.violation_count,
        "violations": [
            {"pair": [list(f[0]), list(f[1])], "result": list(f[2])}
            for f in report.violations
        ],
        "pass": report.passed,
    }
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "latex":
        click.echo(
            _latex_table(
                ["kind", "pairs", "violations", "pass"],
                [[report.kind.value, str(report.pairs_checked), str(report.violation_count), str(report.passed)]],
            )
        )
    else:
        click.echo(
            f"closure {report.kind.value} n={n_range[0]}..{n_range[1]} "
            f"k={k_range[0]}..{k_range[1]}: pairs={report.pairs_checked} "
            f"violations={report.violation_count} -> {'PASS' if report.passed else 'FAIL'}"
        )
        for f in report.violations:
            click.echo(f"  escape at {f[0]} {f[1]}: {f[2]}")
    if not report.passed:
        raise SystemExit(1)


@main.command("star-check")
@_kind_option
@click.option("--n-range", type=RANGE, required=True)
@click.option("--k-range", type=RANGE, required=True)
@_format_option
def star_check_cmd(kind, n_range, k_range, fmt) -> None:
    """Scan basis pairs for *-Lie compatibility: [x,y]* must equal [y*,x*]."""
    algebra = _KINDS[kind]
    pairs = lie.basis_indices(algebra, n_range, k_range)
    failures = []
    checked = 0
    for n, k in pairs:
        for N, K in pairs:
            checked += 1
            defect = lie.star_compat_check(
                lie.basis(algebra, n, k), lie.basis(algebra, N, K)
            )
            if not defect.is_zero:
                failures.append(((n, k), (N, K)))
    payload = {
        "kind": algebra.value,
        "pairs_checked": checked,
        "failure_count": len(failures),
        "failures": [[list(a), list(b)] for a, b in failures[:100]],
        "pass": not failures,
    }
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "latex":
        click.echo(
            _latex_table(
                ["kind", "pairs", "failures", "pass"],
                [[algebra.value, str(checked), str(len(failures)), str(not failures)]],
            )
        )
    else:
        click.echo(
            f"star-check {algebra.value} n={n_range[0]}..{n_range[1]} "
            f"k={k_range[0]}..{k_range[1]}: pairs={checked} "
            f"failures={len(failures)} -> {'PASS' if not failures else 'FAIL'}"
        )
        for a, b in failures[:100]:
            click.echo(f"  defect at {a} {b}")
    if failures:
        raise SystemExit(1)


# -- verify-w -----------------------------------------------------------------

@main.command("verify-w")
@click.option("--n", "n_range", type=RANGE, default="2..7", show_default=True)
@click.option("--k", "k_range", type=RANGE, default="-4..4", show_default=True)
@_format_option
def verify_w_cmd(n_range, k_range, fmt) -> None:
    """Grid-check the sandwich realization of the w-infinity relations."""
    if n_range[0] < 2:
        raise click.UsageError("realization indices need n >= 2")
    ns = range(n_range[0], n_range[1] + 1)
    ks = range(k_range[0], k_range[1] + 1)
    reports = (
        sandwich.verify_theorem(n, k, N, K) for n in ns for k in ks for N in ns for K in ks
    )
    if fmt == "text":
        # Rows are printed as their tuples are checked.
        tuples = failures = 0
        for r in reports:
            tuples += 1
            failures += not r.passed
            click.echo(
                f"n={r.n} k={r.k} N={r.N} K={r.K} coeff={r.expected_coeff} "
                f"dropped={r.dropped_singular} "
                f"{'PASS' if r.passed else 'FAIL'}"
            )
        click.echo(
            f"verify-w: tuples={tuples} failures={failures} "
            f"-> {'PASS' if failures == 0 else 'FAIL'}"
        )
    else:
        reports = list(reports)
        failures = sum(1 for r in reports if not r.passed)
        if fmt == "json":
            _emit_json(
                {
                    "reports": [sandwich.theorem_report_to_json(r) for r in reports],
                    "tuples": len(reports),
                    "failures": failures,
                    "pass": failures == 0,
                }
            )
        else:
            rows = [
                [str(r.n), str(r.k), str(r.N), str(r.K), str(r.expected_coeff), str(r.passed)]
                for r in reports
            ]
            click.echo(_latex_table(["n", "k", "N", "K", "c", "pass"], rows))
    if failures:
        raise SystemExit(1)


# -- smear --------------------------------------------------------------------

def _testfn_text(fn) -> str:
    if isinstance(fn, FnSymbol):
        return "*".join(fn.factors)
    return json.dumps(step_to_records(fn), sort_keys=True)


@main.command("smear")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--N", "nn", type=int, required=True)
@click.option("--K", "kk", type=int, required=True)
@click.option("--g", "g_path", type=click.Path(exists=True), default=None,
              help="JSON step-function records for g (default: abstract symbol).")
@click.option("--f", "f_path", type=click.Path(exists=True), default=None,
              help="JSON step-function records for f (default: abstract symbol).")
@_format_option
def smear_cmd(n, k, nn, kk, g_path, f_path, fmt) -> None:
    """Decompose the smeared commutator into regular and singular parts."""
    def load(path, name):
        if path is None:
            return fn_symbol(name)
        with open(path, "r", encoding="utf-8") as fh:
            return step_from_records(json.load(fh))

    try:
        g = load(g_path, "g")
        f = load(f_path, "f")
    except (ValueError, KeyError) as exc:
        click.echo(f"error: bad step-function file: {exc}", err=True)
        raise SystemExit(2)
    try:
        decomp = wick.smear_bracket(n, k, g, nn, kk, f)
    except (ValueError, TypeError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(2)
    payload = {
        "regular": {
            "coeff": decomp.regular_coeff,
            "n": decomp.regular_index[0],
            "k": decomp.regular_index[1],
            "testfn": fn_to_json(decomp.regular_testfn),
        },
        "singular": [
            {
                "L": s.L,
                "theta": s.theta,
                "n": s.index[0],
                "k": s.index[1],
                "scalar": None if s.scalar is None else coeff_to_json(s.scalar),
            }
            for s in decomp.singular
        ],
    }
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "latex":
        rows = [
            [str(s.L), str(s.theta), str(s.index[0]), str(s.index[1]),
             "?" if s.scalar is None else str(s.scalar)]
            for s in decomp.singular
        ]
        click.echo(
            f"$[B^{{{n}}}_{{{k}}}(g), B^{{{nn}}}_{{{kk}}}(f)]$: regular "
            f"${decomp.regular_coeff}\\,B^{{{decomp.regular_index[0]}}}"
            f"_{{{decomp.regular_index[1]}}}(gf)$"
        )
        click.echo(_latex_table(["L", "\\theta_L", "n", "k", "g(0)f(0)"], rows))
    else:
        click.echo(
            f"regular: coeff={decomp.regular_coeff} "
            f"index=({decomp.regular_index[0]},{decomp.regular_index[1]}) "
            f"testfn={_testfn_text(decomp.regular_testfn)}"
        )
        if not decomp.singular:
            click.echo("singular: none")
        for s in decomp.singular:
            scalar = "unknown" if s.scalar is None else str(s.scalar)
            click.echo(
                f"singular: L={s.L} theta={s.theta} "
                f"index=({s.index[0]},{s.index[1]}) scalar={scalar}"
            )


# -- normal-order -------------------------------------------------------------

def _wn_term_text(t: wick.WNTerm) -> str:
    parts = [f"({t.coeff})"]
    for label, e in t.creators:
        parts.append(f"bd[{label}]" + (f"^{e}" if e > 1 else ""))
    for label, e in t.annihilators:
        parts.append(f"b[{label}]" + (f"^{e}" if e > 1 else ""))
    if t.delta_L:
        a, b = t.delta_pair
        parts.append(
            f"delta({a}-{b})" if t.delta_L == 1 else f"delta^{t.delta_L}({a}-{b})"
        )
    for label in t.point_evals:
        parts.append(f"delta({label})")
    return " ".join(parts)


@main.command("normal-order")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--N", "nn", type=int, required=True)
@click.option("--K", "kk", type=int, required=True)
@click.option("--renormalize", "apply_renorm", is_flag=True,
              help="Apply delta^L(t-s) = delta(s) delta(t-s) to the result.")
@_format_option
def normal_order_cmd(n, k, nn, kk, apply_renorm, fmt) -> None:
    """Expand the two-point commutator of normally ordered monomials."""
    try:
        expr = wick.monomial_commutator(n, k, nn, kk)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(2)
    if apply_renorm:
        expr = wick.renormalize(expr)
    if fmt == "json":
        _emit_json(wick.wn_expr_to_json(expr))
    elif fmt == "latex":
        click.echo(_latex_wn_expr(expr))
    else:
        if expr.is_zero:
            click.echo("0")
        for t in expr.terms:
            click.echo(_wn_term_text(t))


def _latex_wn_expr(expr: wick.WNExpr) -> str:
    if expr.is_zero:
        return "0"
    chunks = []
    for t in expr.terms:
        factors = [f"({t.coeff})"]
        for label, e in t.creators:
            factors.append(f"{{b_{label}^{{\\dagger}}}}^{{{e}}}")
        for label, e in t.annihilators:
            factors.append(f"b_{label}^{{{e}}}")
        if t.delta_L:
            a, b = t.delta_pair
            factors.append(f"\\delta^{{{t.delta_L}}}({a}-{b})")
        for label in t.point_evals:
            factors.append(f"\\delta({label})")
        chunks.append("\\,".join(factors))
    return " + ".join(chunks)


# -- oracle -------------------------------------------------------------------

@main.command("oracle")
@click.option("--eq1-max", type=int, default=4, show_default=True,
              help="Check the commutator expansion for all indices in [0, max]^4.")
@click.option("--eq1-trunc", type=int, default=40, show_default=True)
@click.option("--seed-max", type=int, default=8, show_default=True,
              help="Check the exchange seed for powers in [0, max].")
@click.option("--seed-trunc", type=int, default=16, show_default=True)
@_format_option
def oracle_cmd(eq1_max, eq1_trunc, seed_max, seed_trunc, fmt) -> None:
    """Run the polynomial-representation oracle suites."""
    eq1_results = []
    for n in range(eq1_max + 1):
        for k in range(eq1_max + 1):
            for N in range(eq1_max + 1):
                for K in range(eq1_max + 1):
                    eq1_results.append(
                        ((n, k, N, K), oracle.check_eq1(n, k, N, K, eq1_trunc))
                    )
    seed_results = [
        (m, oracle.check_exchange_seed(m, seed_trunc)) for m in range(seed_max + 1)
    ]
    ok = all(p for _, p in eq1_results) and all(p for _, p in seed_results)
    if fmt == "json":
        _emit_json(
            {
                "eq1": [
                    {"n": t[0], "k": t[1], "N": t[2], "K": t[3], "D": eq1_trunc, "pass": p}
                    for t, p in eq1_results
                ],
                "exchange_seed": [
                    {"m": m, "D": seed_trunc, "pass": p} for m, p in seed_results
                ],
                "pass": ok,
            }
        )
    elif fmt == "latex":
        rows = [
            [str(t[0]), str(t[1]), str(t[2]), str(t[3]), str(p)] for t, p in eq1_results
        ]
        click.echo(_latex_table(["n", "k", "N", "K", "pass"], rows))
        click.echo(
            _latex_table(["m", "pass"], [[str(m), str(p)] for m, p in seed_results])
        )
    else:
        for (n, k, N, K), p in eq1_results:
            click.echo(
                f"eq1 n={n} k={k} N={N} K={K} D={eq1_trunc}: "
                f"{'PASS' if p else 'FAIL'}"
            )
        for m, p in seed_results:
            click.echo(
                f"exchange-seed m={m} D={seed_trunc}: {'PASS' if p else 'FAIL'}"
            )
        click.echo(f"oracle: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
