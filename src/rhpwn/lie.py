"""Structure-constant presentations of the RHPWN, w-infinity, and Witt algebras.

Generators are index pairs (n, k) with an optional test-function label; all
bracket arithmetic goes through one structure-constant function so that scans
and element-level computations certify the same table.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .scalars import CScalar, LinComb, coeff_from_json, coeff_to_json
from .stepfn import (
    AnyTestFn,
    fn_conjugate,
    fn_from_json,
    fn_product,
    fn_sort_key,
    fn_to_json,
)


class DomainError(ValueError):
    """Generator index outside the algebra's admissible family."""


class AlgebraKind(enum.Enum):
    RHPWN = "RHPWN"
    WINFINITY = "Winfinity"
    WITT = "Witt"


def in_domain(kind: AlgebraKind, n: int, k: int) -> bool:
    """Admissible index families: the self-adjoint RHPWN family needs
    n, k >= 0 with n + k >= 3; w-infinity needs n >= 2; Witt is its n = 2 slice."""
    if kind is AlgebraKind.RHPWN:
        return n >= 0 and k >= 0 and n + k >= 3
    if kind is AlgebraKind.WINFINITY:
        return n >= 2
    return n == 2


@dataclass(frozen=True)
class Generator:
    """Basis symbol B^n_k, optionally smeared with a test function label."""

    kind: AlgebraKind
    n: int
    k: int
    label: Optional[AnyTestFn] = None

    @property
    def in_domain(self) -> bool:
        return in_domain(self.kind, self.n, self.k)

    def sort_key(self):
        return (self.n, self.k, fn_sort_key(self.label))


def generator(
    kind: AlgebraKind,
    n: int,
    k: int,
    label: Optional[AnyTestFn] = None,
    relaxed: bool = False,
) -> Generator:
    """Validated constructor; relaxed=True admits out-of-domain indices for
    exploratory use (such elements are not certified)."""
    if not relaxed and not in_domain(kind, n, k):
        raise DomainError(f"index ({n}, {k}) outside the {kind.value} family")
    return Generator(kind, n, k, label)


@dataclass(frozen=True)
class Element(LinComb):
    """Finite linear combination of generators of a single algebra kind.

    Terms are (generator, coefficient) pairs ordered by Generator.sort_key.
    """

    kind: AlgebraKind
    terms: tuple[tuple[Generator, CScalar], ...]

    order = staticmethod(Generator.sort_key)

    @property
    def head(self) -> tuple:
        return (self.kind,)

    @property
    def certified(self) -> bool:
        return all(g.in_domain for g, _ in self.terms)


def element(kind: AlgebraKind, items: Iterable[tuple[Generator, CScalar]]) -> Element:
    items = list(items)
    if any(g.kind is not kind for g, _ in items):
        raise ValueError("algebra kind mismatch")
    return Element.canonical(items, kind)


def zero(kind: AlgebraKind) -> Element:
    return Element(kind, ())


def basis(
    kind: AlgebraKind,
    n: int,
    k: int,
    label: Optional[AnyTestFn] = None,
    relaxed: bool = False,
) -> Element:
    g = generator(kind, n, k, label, relaxed)
    return Element(kind, ((g, CScalar.of(1)),))


def structure(kind: AlgebraKind, n: int, k: int, N: int, K: int) -> tuple[int, int, int]:
    """Structure constants: [B^n_k, B^N_K] = c * B^{n'}_{k'}.

    RHPWN:       c = kN - Kn,            (n', k') = (n+N-1, k+K-1)
    w-infinity:  c = (N-1)k - (n-1)K,    (n', k') = (n+N-2, k+K)
    Witt is the n = 2 restriction of the w-infinity table.
    """
    if kind is AlgebraKind.RHPWN:
        return k * N - K * n, n + N - 1, k + K - 1
    return (N - 1) * k - (n - 1) * K, n + N - 2, k + K


def _bracket_label(a: Optional[AnyTestFn], b: Optional[AnyTestFn]) -> Optional[AnyTestFn]:
    if a is None and b is None:
        return None
    if a is None or b is None:
        raise TypeError("cannot bracket a labeled generator with an unlabeled one")
    return fn_product(a, b)


def bracket(x: Element, y: Element) -> Element:
    """Bilinear extension of the structure-constant table."""
    if x.kind is not y.kind:
        raise ValueError("algebra kind mismatch")
    out = []
    for g1, c1 in x.terms:
        for g2, c2 in y.terms:
            c, n2, k2 = structure(x.kind, g1.n, g1.k, g2.n, g2.k)
            if not c:
                continue
            relaxed = not (g1.in_domain and g2.in_domain)
            out.append(
                (
                    generator(x.kind, n2, k2, _bracket_label(g1.label, g2.label), relaxed),
                    c1 * c2 * c,
                )
            )
    return element(x.kind, out)


def involution(x: Element) -> Element:
    """The *-map: RHPWN sends B^n_k(f) to B^k_n(conj f); w-infinity and Witt
    send B^n_k(f) to B^n_{-k}(conj f). Antilinear on coefficients."""
    out = []
    for g, c in x.terms:
        if x.kind is AlgebraKind.RHPWN:
            n2, k2 = g.k, g.n
        else:
            n2, k2 = g.n, -g.k
        label = None if g.label is None else fn_conjugate(g.label)
        out.append(
            (generator(x.kind, n2, k2, label, relaxed=not g.in_domain), c.conjugate())
        )
    return element(x.kind, out)


def jacobi_defect(x: Element, y: Element, z: Element) -> Element:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero certifies the Jacobi identity."""
    return (
        bracket(x, bracket(y, z))
        + bracket(y, bracket(z, x))
        + bracket(z, bracket(x, y))
    )


def star_compat_check(x: Element, y: Element) -> Element:
    """[x,y]* - [y*,x*]; zero certifies *-Lie compatibility."""
    return involution(bracket(x, y)) - bracket(involution(y), involution(x))


def witt_check(k: int, K: int) -> bool:
    """Whether [B^2_k, B^2_K] = (k - K) B^2_{k+K} under the w-infinity table."""
    lhs = bracket(basis(AlgebraKind.WITT, 2, k), basis(AlgebraKind.WITT, 2, K))
    rhs = basis(AlgebraKind.WITT, 2, k + K).scaled(k - K)
    return lhs == rhs


Range = tuple[int, int]


def basis_indices(kind: AlgebraKind, n_range: Range, k_range: Range) -> list[tuple[int, int]]:
    """In-domain index pairs inside the inclusive ranges, sorted."""
    return [
        (n, k)
        for n in range(n_range[0], n_range[1] + 1)
        for k in range(k_range[0], k_range[1] + 1)
        if in_domain(kind, n, k)
    ]


def _basis_jacobi_residual(kind, p1, p2, p3) -> dict[tuple[int, int], int]:
    acc: dict[tuple[int, int], int] = {}
    for x, y, z in ((p1, p2, p3), (p2, p3, p1), (p3, p1, p2)):
        c1, n1, k1 = structure(kind, y[0], y[1], z[0], z[1])
        if not c1:
            continue
        c2, n2, k2 = structure(kind, x[0], x[1], n1, k1)
        if not c2:
            continue
        key = (n2, k2)
        acc[key] = acc.get(key, 0) + c1 * c2
    return {key: v for key, v in acc.items() if v}


_FAILURE_CAP = 100


@dataclass(frozen=True)
class JacobiReport:
    kind: AlgebraKind
    n_range: Range
    k_range: Range
    triples_checked: int
    failure_count: int
    failures: tuple  # first few offending triples only
    sampled: bool
    seed: Optional[int]

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


def jacobi_scan(
    kind: AlgebraKind,
    n_range: Range,
    k_range: Range,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> JacobiReport:
    """Scan basis triples for Jacobi defects.

    Exhaustive over the in-domain grid by default; with sample=N a fixed-seed
    random sample of N triples is drawn instead (the seed is recorded in the
    report). The scan walks the same structure-constant table bracket() uses.
    """
    pairs = basis_indices(kind, n_range, k_range)
    if sample is None:
        triples = itertools.product(pairs, repeat=3)
    else:
        rng = random.Random(seed)
        triples = (
            (rng.choice(pairs), rng.choice(pairs), rng.choice(pairs))
            for _ in range(sample if pairs else 0)
        )
    checked = 0
    failure_count = 0
    failures: list = []
    for p1, p2, p3 in triples:
        checked += 1
        residual = _basis_jacobi_residual(kind, p1, p2, p3)
        if residual:
            failure_count += 1
            if len(failures) < _FAILURE_CAP:
                failures.append((p1, p2, p3, tuple(sorted(residual.items()))))
    return JacobiReport(
        kind,
        tuple(n_range),
        tuple(k_range),
        checked,
        failure_count,
        tuple(failures),
        sample is not None,
        seed if sample is not None else None,
    )


@dataclass(frozen=True)
class PairReport:
    """Outcome of a check run on every ordered pair of in-domain basis indices."""

    kind: AlgebraKind
    n_range: Range
    k_range: Range
    pairs_checked: int
    failure_count: int
    failures: tuple  # (pair, pair, detail) for the first few failures only

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


def _pair_scan(kind: AlgebraKind, n_range: Range, k_range: Range, defect) -> PairReport:
    """Ask ``defect(p, q)`` of every ordered pair; any result but None fails."""
    pairs = basis_indices(kind, n_range, k_range)
    failure_count = 0
    failures: list = []
    for p, q in itertools.product(pairs, repeat=2):
        detail = defect(p, q)
        if detail is not None:
            failure_count += 1
            if len(failures) < _FAILURE_CAP:
                failures.append((p, q, detail))
    return PairReport(
        kind, tuple(n_range), tuple(k_range), len(pairs) ** 2, failure_count, tuple(failures)
    )


def closure_check(kind: AlgebraKind, n_range: Range, k_range: Range) -> PairReport:
    """Verify every bracket with a nonzero structure constant lands in-domain.
    A failure's detail is the bracket's (c, n', k')."""

    def escape(p, q):
        c, n2, k2 = structure(kind, *p, *q)
        return (c, n2, k2) if c and not in_domain(kind, n2, k2) else None

    return _pair_scan(kind, n_range, k_range, escape)


def star_scan(kind: AlgebraKind, n_range: Range, k_range: Range) -> PairReport:
    """Check *-Lie compatibility on every pair of basis elements. A failure's
    detail is the nonzero star_compat_check defect."""
    elements = {p: basis(kind, *p) for p in basis_indices(kind, n_range, k_range)}

    def defect(p, q):
        d = star_compat_check(elements[p], elements[q])
        return None if d.is_zero else d

    return _pair_scan(kind, n_range, k_range, defect)


# -- JSON --------------------------------------------------------------------

def element_to_json(x: Element) -> dict:
    terms = []
    for g, c in x.terms:
        rec = {"n": g.n, "k": g.k, "coeff": coeff_to_json(c)}
        if g.label is not None:
            rec["label"] = fn_to_json(g.label)
        terms.append(rec)
    return {"kind": x.kind.value, "terms": terms}


def element_from_json(data: dict) -> Element:
    """Inverse of element_to_json. Generators are built relaxed, as the DSL
    evaluator builds them, so relaxed output loads again; ``certified`` still
    flags out-of-domain indices."""
    kind = AlgebraKind(data["kind"])
    items = []
    for rec in data["terms"]:
        label = rec.get("label")
        label = None if label is None else fn_from_json(label)
        g = generator(kind, rec["n"], rec["k"], label, relaxed=True)
        items.append((g, coeff_from_json(rec["coeff"])))
    return element(kind, items)
