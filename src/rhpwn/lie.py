"""Structure-constant presentations of the RHPWN, w-infinity, and Witt algebras.

Generators are index pairs (n, k) with an optional test-function label; all
bracket arithmetic goes through one structure-constant function so that scans
and element-level computations certify the same table.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import operator
import random
from itertools import repeat
from typing import Iterable, NamedTuple, Optional

from .scalars import CS_ONE, CScalar, LinComb, coeff_from_json, coeff_to_json, count_to_str
from .stepfn import (
    AnyTestFn,
    fn_conjugate,
    fn_from_json,
    fn_product,
    fn_to_json,
)


class DomainError(ValueError):
    """Generator index outside the algebra's admissible family."""


class AlgebraKind(enum.Enum):
    RHPWN = "RHPWN"
    WINFINITY = "Winfinity"
    WITT = "Witt"

    __hash__ = object.__hash__  # singletons: hashed by identity in C, not by name in Python


def in_domain(kind: AlgebraKind, n: int, k: int) -> bool:
    """Admissible index families: the self-adjoint RHPWN family needs
    n, k >= 0 with n + k >= 3; w-infinity needs n >= 2; Witt is its n = 2 slice."""
    if kind is AlgebraKind.RHPWN:
        return n >= 0 and k >= 0 and n + k >= 3
    if kind is AlgebraKind.WINFINITY:
        return n >= 2
    return n == 2


class Generator(NamedTuple):
    """Basis symbol B^n_k, optionally smeared with a test function label."""

    kind: AlgebraKind
    n: int
    k: int
    label: Optional[AnyTestFn] = None


def generator(
    kind: AlgebraKind,
    n: int,
    k: int,
    label: Optional[AnyTestFn] = None,
    relaxed: bool = False,
) -> Generator:
    """Validated constructor; relaxed=True admits out-of-domain indices for
    exploratory use."""
    if not relaxed and not in_domain(kind, n, k):
        raise DomainError(f"index ({n}, {k}) outside the {kind.value} family")
    return Generator(kind, n, k, label)


class Element(LinComb, NamedTuple("Element", [("kind", AlgebraKind), ("terms", tuple)])):
    """Finite linear combination of generators of a single algebra kind.

    Terms are (generator, coefficient) pairs ordered by (n, k, test function).
    """

    __slots__ = ()


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
    return Element(kind, ((g, CS_ONE),))


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
    """Bilinear extension of the structure-constant table, summed by one
    ``canonical``; a target is domain-checked only when both factors are in-domain."""
    kind = x.kind
    if kind is not y.kind:
        raise ValueError("algebra kind mismatch")
    ys = [(n, k, label, c, in_domain(kind, n, k)) for (_, n, k, label), c in y.terms]
    out = []
    for (_, n1, k1, label1), c1 in x.terms:
        in1 = in_domain(kind, n1, k1)
        for n, k, label, c2, in2 in ys:
            c, n2, k2 = structure(kind, n1, k1, n, k)
            if c:
                relaxed = not (in1 and in2)
                g = generator(kind, n2, k2, _bracket_label(label1, label), relaxed)
                out.append((g, c1 * c2 * c))
    return Element.canonical(out, kind)


def involution(x: Element) -> Element:
    """The *-map: RHPWN sends B^n_k(f) to B^k_n(conj f); w-infinity and Witt
    send B^n_k(f) to B^n_{-k}(conj f). Antilinear on coefficients. Each
    family is closed under it, so an image needs no domain test."""
    kind = x.kind
    rhpwn = kind is AlgebraKind.RHPWN
    out = []
    for (_, n, k, label), c in x.terms:
        label = None if label is None else fn_conjugate(label)
        out.append((Generator(kind, k, n, label) if rhpwn else Generator(kind, n, -k, label),
                    c.conjugate()))
    return Element.canonical(out, kind)


def star_compat_check(x: Element, y: Element) -> Element:
    """[x,y]* - [y*,x*]; zero certifies *-Lie compatibility."""
    return involution(bracket(x, y)) - bracket(involution(y), involution(x))


def witt_check(k: int, K: int) -> bool:
    """Whether [B^2_k, B^2_K] = (k - K) B^2_{k+K} under the w-infinity table."""
    lhs = bracket(basis(AlgebraKind.WITT, 2, k), basis(AlgebraKind.WITT, 2, K))
    rhs = basis(AlgebraKind.WITT, 2, k + K).scaled(k - K)
    return lhs == rhs


Range = tuple[int, int]


def _runs(kind: AlgebraKind, n_range: Range, k_range: Range) -> list[tuple[int, ...]]:
    """The in-domain index pairs inside the inclusive ranges, in sorted order,
    as rectangles (first n, first k, row width, size) of equal rows: the
    ranges are cut to the family without walking them. RHPWN rows n = 0, 1, 2
    start at k = 3 - n."""
    (n_lo, n_hi), (k_lo, k_hi) = n_range, k_range
    if kind is AlgebraKind.RHPWN:
        cuts = [(n, n, max(k_lo, 3 - n)) for n in range(max(n_lo, 0), min(n_hi, 2) + 1)]
        cuts.append((max(n_lo, 3), n_hi, max(k_lo, 0)))
    else:
        cuts = [(max(n_lo, 2), n_hi if kind is AlgebraKind.WINFINITY else min(n_hi, 2), k_lo)]
    return [(n0, k0, k_hi - k0 + 1, (n1 - n0 + 1) * (k_hi - k0 + 1))
            for n0, n1, k0 in cuts if n1 >= n0 and k_hi >= k0]


def _basis_at(runs: list, i: int) -> tuple[int, int]:
    """The i-th index pair of ``runs``."""
    for n0, k0, width, size in runs:
        if i < size:
            return n0 + i // width, k0 + i % width
        i -= size


def basis_indices(kind: AlgebraKind, n_range: Range, k_range: Range) -> list[tuple[int, int]]:
    """In-domain index pairs inside the inclusive ranges, sorted."""
    runs = _runs(kind, n_range, k_range)
    return [_basis_at(runs, i) for i in range(sum(run[3] for run in runs))]


def _checked_basis(kind: AlgebraKind, n_range: Range, k_range: Range, what: str, hint="") -> list:
    """basis_indices, refused with ValueError past ``MAX_SCAN_INDICES`` before any is listed."""
    size = sum(run[3] for run in _runs(kind, n_range, k_range))
    if size > MAX_SCAN_INDICES:
        raise ValueError(f"{what} takes at most {MAX_SCAN_INDICES} basis indices, "
                         f"this grid has {count_to_str(size)}{hint}")
    return basis_indices(kind, n_range, k_range)


_FAILURE_CAP = 100


class JacobiReport(NamedTuple):
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


def _jacobi_residual(kind: AlgebraKind, p1: tuple, p2: tuple, p3: tuple) -> tuple:
    """[p1, [p2, p3]] + [p2, [p3, p1]] + [p3, [p1, p2]] for three basis
    indices, from at most six ``structure`` calls: the three cyclic terms
    summed by target, as sorted nonzero ((n, k), value) pairs. Empty when the
    Jacobi identity holds for the triple."""
    acc: dict[tuple[int, int], int] = {}
    for (n, k), (m, j), (N, K) in ((p1, p2, p3), (p2, p3, p1), (p3, p1, p2)):
        c1, n1, k1 = structure(kind, m, j, N, K)
        if c1:
            c2, n2, k2 = structure(kind, n, k, n1, k1)
            if c2:
                key = n2, k2
                acc[key] = acc.get(key, 0) + c1 * c2
    if any(acc.values()):
        return tuple(sorted(item for item in acc.items() if item[1]))
    return ()


def _bracket_rows(kind: AlgebraKind, pairs: list):
    """Rows [y, z] over the basis ``pairs``: ``structure`` mapped over its coordinate lists."""
    ns, ks = [n for n, _ in pairs], [k for _, k in pairs]
    return (map(structure, repeat(kind), repeat(n), repeat(k), ns, ks) for n, k in pairs)


def _structure_tables(kind: AlgebraKind, pairs: list) -> tuple[list, list, list, list]:
    """Flat tables of ``structure`` over the basis ``pairs``, read once per
    exhaustive scan. The inner table is read from ``_bracket_rows``; an outer
    row is column j of it when its target is basis index j, else ``structure``
    mapped over the grid's coordinate lists.

    Basis index i is ``pairs[i]``. Each distinct target t of an inner bracket
    gets a row offset r = (t's id) * len(pairs), id 1 upward; with e = y*size + z:

    - ``inner_c[e]`` is the coefficient of [y, z] and ``inner_row[e]`` the
      row offset of its target;
    - ``outer_c[r + x]`` is the coefficient of [x, t] and ``outer_k[r + x]``
      an integer id of its target, equal ids for equal targets (a miss, or
      id 0, falls through ``dict.get`` to ``setdefault``, which keeps it).

    Row 0 is all zeros and is where a vanishing inner bracket points, so it
    contributes nothing downstream. Equal offsets and ids share one int.
    The orbit walk compares target ids only, so the targets themselves are
    not kept. It reads [y, z] for fixed y as the contiguous slice
    ``inner_c[y*size:(y+1)*size]`` and [z, x] for fixed x as the strided
    slice ``inner_c[x::size]``, so no transposed copy is kept: the tables
    stay at about 10 * size**2 entries.
    """
    size = len(pairs)
    rows: dict[tuple[int, int], int] = {}
    inner_c, inner_row = [0] * (size * size), [0] * (size * size)
    for e, (c, n2, k2) in enumerate(itertools.chain.from_iterable(_bracket_rows(kind, pairs))):
        if c:
            inner_c[e] = c
            inner_row[e] = rows.get((n2, k2)) or rows.setdefault((n2, k2), (len(rows) + 1) * size)
    index = {p: i for i, p in enumerate(pairs)}
    target_at = {0: (0, 0), **{offset: target for target, offset in rows.items()}}
    ns, ks = [n for n, _ in pairs], [k for _, k in pairs]
    keys: dict[tuple[int, int], int] = {}
    outer_c, outer_k = [0] * (size * (len(rows) + 1)), [0] * (size * (len(rows) + 1))
    for target, offset in rows.items():
        j = index.get(target)
        if j is None:
            row = map(structure, repeat(kind), ns, ks, repeat(target[0]), repeat(target[1]))
        else:
            row = map(operator.add, zip(inner_c[j::size]),
                      map(target_at.__getitem__, inner_row[j::size]))
        for e, (c, n2, k2) in enumerate(row, offset):
            if c:
                outer_c[e] = c
                outer_k[e] = keys.get((n2, k2)) or keys.setdefault((n2, k2), len(keys))
    return inner_c, inner_row, outer_c, outer_k


def _antisymmetric(size: int, tables: tuple) -> bool:
    """Whether [y, z] = -[z, y] on the grid of ``_structure_tables``: row y
    of ``inner_c`` negates its column y, and ``inner_row`` equals its
    transpose (both rows are 0 where the coefficient vanishes)."""
    inner_c, inner_row = tables[:2]
    return all(
        inner_c[y * size : (y + 1) * size] == [-c for c in inner_c[y::size]]
        and inner_row[y * size : (y + 1) * size] == inner_row[y::size]
        for y in range(size)
    )


def _star_order(kind: AlgebraKind, pairs: list) -> tuple[list, int]:
    """``pairs`` listed N (p < p*), F (p = p*), then N* in N's order, and
    |N|; a grid not closed under * keeps its order, with |N| = 0. The index
    p* is that of ``involution``; a scan's soundness rests on
    ``_star_compatible``, not on this order."""
    rhpwn = kind is AlgebraKind.RHPWN
    star = {(n, k): (k, n) if rhpwn else (n, -k) for n, k in pairs}
    if not all(q in star for q in star.values()):
        return pairs, 0
    low = [p for p in pairs if p < star[p]]
    return low + [p for p in pairs if p == star[p]] + [star[p] for p in low], len(low)


def _star_ids(size: int, half: int) -> list:
    """The id of each id's *-image, on a basis listed by ``_star_order`` with |N| = ``half``."""
    return [*range(size - half, size), *range(half, size - half), *range(half)]


def _star_compatible(size: int, half: int, tables: tuple) -> bool:
    """Whether [y*, z*] = -[y, z]* on ``_structure_tables`` of a basis listed
    by ``_star_order``: row y* read at the columns z* negates row y, on the
    inner table and, for each [y, z] and [y*, z*], on their targets' outer
    rows, whose target ids at nonzero coefficients map one-to-one. It reads
    a row at a time and compares entries, deriving none."""
    inner_c, inner_row, outer_c, outer_k = tables
    mid = size - half

    def starred(table, offset):
        """The row at ``offset`` read at the columns z*, z in order."""
        return (table[offset + mid : offset + size] + table[offset + half : offset + mid]
                + table[offset : offset + half])

    # * is an involution on the ids, so rows y and y* check each other, as do
    # the outer rows at r and r': each pair is read once, and its links are
    # taken both ways. Ids linked as a function are then linked one-to-one.
    rows, keys = set(), set()
    for y, y_star in enumerate(_star_ids(size, half)[:mid]):
        here, there = y * size, y_star * size
        if starred(inner_c, there) != [-c for c in inner_c[here : here + size]]:
            return False
        rows.update(zip(inner_row[here : here + size], starred(inner_row, there)))
    for here, there in {(min(link), max(link)) for link in rows}:
        coeffs = outer_c[here : here + size]
        if starred(outer_c, there) != [-c for c in coeffs]:
            return False
        keys.update(zip(itertools.compress(outer_k[here : here + size], coeffs),
                        itertools.compress(starred(outer_k, there), coeffs)))
    keys |= {(image, key) for key, image in keys}
    return len(keys) == len(dict(keys))


def _failing_orbits(size: int, half: int, tables: tuple):
    """Yield the id triples of each orbit of permutations and the *-map whose
    Jacobi residual is nonzero, from ``_structure_tables`` of ``size`` basis
    indices listed by ``_star_order`` with |N| = ``half``, antisymmetric on
    the grid (``_antisymmetric``) and, unless half = 0, *-compatible
    (``_star_compatible``).

    The rotations of (a, b, c) sum the same three terms [x, [y, z]]. A
    transposition negates each term: [b, [a, c]] = -[b, [c, a]] and so on, by
    the outer bracket's linearity in its second argument. So J(b, a, c) =
    -J(a, b, c): the residual alternates, vanishes on repeated ids, and a
    3-set a < b < c stands for its six triples. As [y*, z*] = -[y, z]*,
    J(a*, b*, c*) = J(a, b, c)*, the same coefficients at the image targets:
    a 3-set fails exactly when its image does. One 3-set of each orbit
    {S, S*} is walked, about size**3 / 12 (size**3 / 6 when half = 0):

    - a, b in N: every c > b;
    - a in N, b in F: c in F past b, or c >= a* in N*;
    - a in F: b and c in F.

    A failing 3-set yields its six triples, and its image's six when that is
    another 3-set. Each (a, b) row is walked over one or two spans of c with
    [b, c] and [c, [a, b]] read from contiguous slices and [c, a] from a
    strided one.
    """
    inner_c, inner_row, outer_c, outer_k = tables
    mid, star_ids = size - half, _star_ids(size, half)  # a* = a + mid for a in N
    for a in range(mid):
        for b in range(a + 1, mid):
            spans = ((b + 1, size if b < half else mid),)
            if a < half <= b:
                spans += ((a + mid, size),)
            ab = a * size + b
            c_ab, r_ab = inner_c[ab], inner_row[ab]
            for lo, hi in spans:
                bc, ca = b * size, lo * size + a
                row = zip(
                    inner_c[bc + lo : bc + hi], inner_row[bc + lo : bc + hi],
                    inner_c[ca : hi * size : size], inner_row[ca : hi * size : size],
                    outer_c[r_ab + lo : r_ab + hi], outer_k[r_ab + lo : r_ab + hi],
                )
                for c, (c_bc, r_bc, c_ca, r_ca, c3, k3) in enumerate(row, lo):
                    o1, o2 = r_bc + a, r_ca + b
                    v1, v2, v3 = c_bc * outer_c[o1], c_ca * outer_c[o2], c_ab * c3
                    k1, k2 = outer_k[o1], outer_k[o2]
                    # Sum terms with equal targets; a vanishing term adds 0 wherever it lands.
                    if k1 == k2 == k3:
                        failed = v1 + v2 + v3
                    elif k1 == k2:
                        failed = v1 + v2 or v3
                    elif k1 == k3:
                        failed = v1 + v3 or v2
                    elif k2 == k3:
                        failed = v2 + v3 or v1
                    else:
                        failed = v1 or v2 or v3
                    if failed:
                        orbit = list(itertools.permutations((a, b, c)))
                        if a < half and (b < half or c != a + mid):
                            orbit += itertools.permutations(map(star_ids.__getitem__, (a, b, c)))
                        yield orbit


# Largest grid an exhaustive jacobi_scan or a pair scan accepts. At the cap, on
# a 2-core VM with CPython 3.11: jacobi on w-infinity n 2..21 x k -12..12 takes
# 5.1-8.3 s (its tables 2.4 million entries, about 37 MB), star-check on Witt
# k -249..250 14.2-22.9 s, and closure 0.4 s.
MAX_SCAN_INDICES = 500


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
    report). Both modes read the structure-constant table bracket() uses.
    The exhaustive scan builds ``_structure_tables`` once, about 10 * size**2
    list entries, over the grid listed by ``_star_order``. The algebras are
    *-Lie, [x, y]* = [y*, x*], so J(x*, y*, z*) = J(x, y, z)*: a triple fails
    exactly when its *-image does. On a table antisymmetric on the grid, as
    both true tables are, ``_failing_orbits`` walks one 3-set per orbit of
    permutations and the *-map, about size**3 / 12, when the grid is closed
    under * and the tables are *-compatible (``_star_compatible``), else one
    per orbit of permutations, about size**3 / 6. A failing orbit counts its
    triples. A grid of more than ``MAX_SCAN_INDICES`` basis indices (at the
    cap about 2.4 million table entries and 37 MB, and 1.0e7 3-sets on a
    true table) raises ValueError before any work. The kept failures are the
    first ``_FAILURE_CAP`` failing triples in lexicographic order, with
    residuals from ``_jacobi_residual``. Any other table, and a sample, ask
    ``_jacobi_residual`` of one triple at a time: every triple in order, or
    N triples drawn by index from a grid never listed, so a sample's cost
    grows with N alone.
    """
    failure_count, failures, triples = 0, [], ()
    if sample is None:
        pairs = _checked_basis(kind, n_range, k_range, "an exhaustive Jacobi scan",
                               "; sample it instead")
        size = len(pairs)
        checked = size**3
        order, half = _star_order(kind, pairs)
        tables = _structure_tables(kind, order)
        if _antisymmetric(size, tables):
            if half and not _star_compatible(size, half, tables):
                half = 0

            def failing_triples():
                nonlocal failure_count
                for orbit in _failing_orbits(size, half, tables):
                    failure_count += len(orbit)
                    yield from ((order[a], order[b], order[c]) for a, b, c in orbit)

            for t in heapq.nsmallest(_FAILURE_CAP, failing_triples()):
                failures.append((*t, _jacobi_residual(kind, *t)))
        else:
            triples = itertools.product(pairs, repeat=3)
    else:
        runs = _runs(kind, n_range, k_range)
        size = sum(run[3] for run in runs)
        checked = sample if size else 0
        rng = random.Random(seed)
        # the draws of rng.choice on basis_indices, without listing them
        triples = ([_basis_at(runs, rng.randrange(size)) for _ in range(3)] for _ in range(checked))
    for p1, p2, p3 in triples:
        residual = _jacobi_residual(kind, p1, p2, p3)
        if residual:
            failure_count += 1
            if len(failures) < _FAILURE_CAP:
                failures.append((p1, p2, p3, residual))
    sampled = sample is not None
    return JacobiReport(kind, tuple(n_range), tuple(k_range), checked, failure_count,
                        tuple(failures), sampled, seed if sampled else None)


class PairReport(NamedTuple):
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


def _pair_scan(kind: AlgebraKind, n_range: Range, k_range: Range, failing) -> PairReport:
    """Report the (p, q, detail) that ``failing(pairs)`` yields, in
    ``itertools.product`` order over the basis ``pairs``. A grid of more than
    ``MAX_SCAN_INDICES`` basis indices raises ValueError before any pair."""
    pairs = _checked_basis(kind, n_range, k_range, "a pair scan")
    failed = failing(pairs)
    failures = tuple(itertools.islice(failed, _FAILURE_CAP))
    return PairReport(kind, tuple(n_range), tuple(k_range), len(pairs) ** 2,
                      len(failures) + sum(1 for _ in failed), failures)


def closure_check(kind: AlgebraKind, n_range: Range, k_range: Range) -> PairReport:
    """Verify every bracket with a nonzero structure constant lands in-domain.
    A failure's detail is the bracket's (c, n', k').

    It asks ``in_domain`` once per distinct target of ``_bracket_rows`` and
    lists a row's pairs only when one escapes. It guards against a corrupted
    table: the true one can only pass, as the scan keeps in-domain indices and
    each family is closed under its bracket (a nonzero RHPWN bracket lands at
    n', k' >= 0 with n' + k' >= 4, a w-infinity one at n' >= 2, a Witt one at n' = 2)."""

    def failing(pairs):
        seen, escaped = set(), set()
        for p, row in zip(pairs, map(list, _bracket_rows(kind, pairs))):
            targets = {(n2, k2) for c, n2, k2 in row if c}
            escaped.update(t for t in targets - seen if not in_domain(kind, *t))
            seen |= targets
            if not escaped.isdisjoint(targets):
                yield from ((p, q, hit) for q, hit in zip(pairs, row)
                            if hit[0] and hit[1:] in escaped)

    return _pair_scan(kind, n_range, k_range, failing)


def star_scan(kind: AlgebraKind, n_range: Range, k_range: Range) -> PairReport:
    """Check *-Lie compatibility on every pair of basis elements. A failure's
    detail is the nonzero star_compat_check defect. Each basis element and
    its image are built once; as both sides are canonical, they are compared
    for equality and subtracted only when they differ."""

    def failing(pairs):
        xs = [basis(kind, *p) for p in pairs]
        stars = list(map(involution, xs))
        for (p, x, x_star), (q, y, y_star) in itertools.product(zip(pairs, xs, stars), repeat=2):
            lhs, rhs = involution(bracket(x, y)), bracket(y_star, x_star)
            if lhs != rhs:
                yield p, q, lhs - rhs

    return _pair_scan(kind, n_range, k_range, failing)


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
    evaluator builds them, so relaxed output loads again."""
    kind = AlgebraKind(data["kind"])
    items = []
    for rec in data["terms"]:
        label = rec.get("label")
        label = None if label is None else fn_from_json(label)
        g = generator(kind, rec["n"], rec["k"], label, relaxed=True)
        items.append((g, coeff_from_json(rec["coeff"])))
    return element(kind, items)
