import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import rhpwn.lie
from conftest import (any_fn_symbols, certified, cscalars, elements, fn_symbols, indicator,
                      jacobi_defect, raw_terms, ref_bracket, ref_involution, ref_scaled, ref_sum,
                      step_fns)
from rhpwn.lie import (
    AlgebraKind,
    DomainError,
    basis,
    basis_indices,
    bracket,
    closure_check,
    element,
    element_from_json,
    element_to_json,
    generator,
    in_domain,
    involution,
    jacobi_scan,
    star_compat_check,
    star_scan,
    structure,
    witt_check,
    zero,
)
from rhpwn.scalars import CScalar
from rhpwn.stepfn import FnSymbol, fn_product, fn_symbol
from rhpwn.wick import smear_bracket

RHPWN = AlgebraKind.RHPWN
WINF = AlgebraKind.WINFINITY
WITT = AlgebraKind.WITT


def test_generator_domains():
    generator(RHPWN, 0, 3)
    generator(WINF, 2, -7)
    generator(WITT, 2, 100)
    for kind, n, k in [(RHPWN, 1, 1), (RHPWN, -1, 5), (WINF, 1, 0), (WITT, 3, 0)]:
        with pytest.raises(DomainError):
            generator(kind, n, k)
        assert not certified(basis(kind, n, k, relaxed=True))
    assert certified(basis(RHPWN, 2, 1))


def test_bracket_examples():
    assert bracket(basis(RHPWN, 1, 2), basis(RHPWN, 2, 1)) == basis(RHPWN, 2, 2).scaled(3)
    assert bracket(basis(WINF, 2, 1), basis(WINF, 3, -1)) == basis(WINF, 3, 0).scaled(3)
    x = basis(RHPWN, 2, 2).scaled(CScalar.of(2)) + basis(RHPWN, 0, 4)
    assert bracket(x, x).is_zero


def test_bracket_kind_mismatch():
    with pytest.raises(ValueError):
        bracket(basis(RHPWN, 2, 1), basis(WINF, 2, 1))


def test_involution_examples():
    assert involution(basis(WINF, 3, 2)) == basis(WINF, 3, -2)
    # the scans list a grid by the same index map
    for kind, n_range, k_range in [(RHPWN, (0, 3), (0, 3)), (WINF, (2, 3), (-2, 2))]:
        order, half = rhpwn.lie._star_order(kind, basis_indices(kind, n_range, k_range))
        images = [involution(basis(kind, *p)) for p in order]
        assert images == [basis(kind, *order[i]) for i in rhpwn.lie._star_ids(len(order), half)]
    f = fn_symbol("f")
    assert involution(basis(RHPWN, 2, 1, f)) == basis(
        RHPWN, 1, 2, FnSymbol(("~f",), True)
    )


@given(elements(RHPWN, labeled=True), elements(WINF, labeled=True))
def test_involution_is_involution(x, y):
    assert involution(involution(x)) == x
    assert involution(involution(y)) == y


def test_jacobi_examples():
    x, y = basis(RHPWN, 2, 1), basis(RHPWN, 1, 2)
    assert jacobi_defect(x, x, y).is_zero
    assert jacobi_defect(x, y, basis(RHPWN, 3, 0)).is_zero
    assert jacobi_defect(
        basis(WINF, 2, 1), basis(WINF, 3, 2), basis(WINF, 4, -1)
    ).is_zero


@given(
    elements(RHPWN),
    elements(RHPWN),
    elements(RHPWN),
    cscalars,
    cscalars,
)
def test_bracket_bilinear_antisymmetric(x, y, z, a, b):
    assert bracket(x.scaled(a) + y.scaled(b), z) == bracket(x, z).scaled(a) + bracket(
        y, z
    ).scaled(b)
    assert bracket(x, y) == -bracket(y, x)


@given(elements(WINF), elements(WINF), elements(WINF))
def test_winfinity_jacobi_on_random_elements(x, y, z):
    assert jacobi_defect(x, y, z).is_zero


def test_star_compat_examples():
    assert star_compat_check(basis(RHPWN, 2, 1), basis(RHPWN, 1, 2)).is_zero
    assert star_compat_check(basis(WINF, 2, 3), basis(WINF, 2, 5)).is_zero
    x = basis(RHPWN, 3, 1)
    assert star_compat_check(x, x).is_zero
    # the two sides agree on -2 * Bh[2,-8]
    lhs = involution(bracket(basis(WINF, 2, 3), basis(WINF, 2, 5)))
    assert lhs == basis(WINF, 2, -8).scaled(-2)


def test_witt_examples():
    assert witt_check(3, 5)
    assert witt_check(7, 7)
    assert witt_check(1, 0)
    assert bracket(basis(WITT, 2, 3), basis(WITT, 2, 5)) == basis(WITT, 2, 8).scaled(-2)
    assert all(witt_check(k, K) for k in range(-6, 7) for K in range(-6, 7))


def test_witt_matches_winfinity_constants():
    for k, K in itertools.product(range(-5, 6), repeat=2):
        assert structure(WITT, 2, k, 2, K) == structure(WINF, 2, k, 2, K)


def test_consistency_with_renormalized_bracket():
    # The regular part of the smeared bracket is the labelled element bracket.
    g, f = fn_symbol("g"), fn_symbol("f")
    for (n, k), (N, K) in itertools.combinations(basis_indices(RHPWN, (0, 5), (0, 5)), 2):
        d = smear_bracket(n, k, g, N, K, f)
        gf = d.regular_testfn
        regular = basis(RHPWN, *d.regular_index, gf, relaxed=True).scaled(d.regular_coeff)
        assert bracket(basis(RHPWN, n, k, g), basis(RHPWN, N, K, f)) == regular


def test_labeled_bracket_multiplies_testfns():
    f, g = fn_symbol("f"), fn_symbol("g")
    result = bracket(basis(RHPWN, 1, 2, g), basis(RHPWN, 2, 1, f))
    assert result == basis(RHPWN, 2, 2, FnSymbol(("f", "g"), True)).scaled(3)
    chi_a, chi_b = indicator([(1, 3)]), indicator([(2, 4)])
    concrete = bracket(basis(RHPWN, 1, 2, chi_a), basis(RHPWN, 2, 1, chi_b))
    assert concrete == basis(RHPWN, 2, 2, fn_product(chi_a, chi_b)).scaled(3)
    with pytest.raises(TypeError):
        bracket(basis(RHPWN, 1, 2, f), basis(RHPWN, 2, 1))
    with pytest.raises(TypeError):
        bracket(basis(RHPWN, 1, 2, f), basis(RHPWN, 2, 1, chi_a))


def test_jacobi_scan_small_grids():
    report = jacobi_scan(RHPWN, (0, 5), (0, 5))
    assert report.passed and report.triples_checked == 30**3
    report = jacobi_scan(WINF, (2, 6), (-4, 4))
    assert report.passed and report.triples_checked == 45**3
    report = jacobi_scan(RHPWN, (0, 1), (0, 1))
    assert report.passed and report.triples_checked == 0


def test_exhaustive_jacobi_scan_grid_cap(monkeypatch):
    # 30 RHPWN indices in (0..5)^2: scanned at a cap of 30, refused at 29
    monkeypatch.setattr(rhpwn.lie, "MAX_SCAN_INDICES", 30)
    assert jacobi_scan(RHPWN, (0, 5), (0, 5)).triples_checked == 30**3
    monkeypatch.setattr(rhpwn.lie, "MAX_SCAN_INDICES", 29)
    with pytest.raises(ValueError, match="at most 29 basis indices, this grid has 30"):
        jacobi_scan(RHPWN, (0, 5), (0, 5))
    # a sample is not capped: it never builds the whole grid's tables
    assert jacobi_scan(RHPWN, (0, 5), (0, 5), sample=50, seed=1).triples_checked == 50


def test_pair_scan_grid_cap(monkeypatch):
    # the same 30 indices: both pair scans run at a cap of 30 and refuse at 29
    monkeypatch.setattr(rhpwn.lie, "MAX_SCAN_INDICES", 30)
    assert closure_check(RHPWN, (0, 5), (0, 5)).pairs_checked == 30**2
    assert star_scan(RHPWN, (0, 5), (0, 5)).pairs_checked == 30**2
    monkeypatch.setattr(rhpwn.lie, "MAX_SCAN_INDICES", 29)

    def no_bracket(*args):
        raise AssertionError("a refused scan must not bracket any pair")

    monkeypatch.setattr(rhpwn.lie, "structure", no_bracket)
    for scan in (closure_check, star_scan):
        with pytest.raises(ValueError, match="at most 29 basis indices, this grid has 30"):
            scan(RHPWN, (0, 5), (0, 5))


def test_basis_indices_are_the_in_domain_pairs():
    # basis_indices cuts the ranges to each family arithmetically; in_domain
    # states the families pair by pair
    bounds = [(lo, hi) for lo in range(-4, 7) for hi in range(lo, 7)]
    for kind, n_range, k_range in itertools.product(AlgebraKind, bounds, bounds):
        assert basis_indices(kind, n_range, k_range) == [
            (n, k)
            for n in range(n_range[0], n_range[1] + 1)
            for k in range(k_range[0], k_range[1] + 1)
            if in_domain(kind, n, k)
        ]


def test_scans_cut_huge_ranges_to_the_family():
    huge = 10**30
    # Witt is the n = 2 slice of w-infinity, RHPWN needs n, k >= 0
    assert jacobi_scan(WITT, (-huge, huge), (-3, 3)).triples_checked == 7**3
    assert closure_check(RHPWN, (-huge, 2), (-huge, 1)).pairs_checked == 1
    # a sample draws from a grid it never lists
    report = jacobi_scan(WINF, (2, huge), (-huge, huge), sample=20, seed=5)
    assert report.passed and report.triples_checked == 20
    with pytest.raises(ValueError, match=f"this grid has {huge - 1}"):
        star_scan(WINF, (2, huge), (0, 0))


def test_jacobi_scan_sampling_records_seed():
    report = jacobi_scan(WINF, (2, 8), (-6, 6), sample=500, seed=42)
    assert report.sampled and report.seed == 42
    assert report.triples_checked == 500 and report.passed


def _skewed_structure(kind, n, k, N, K):
    """The true table with each bracket from B^n_k, n + k divisible by 3, off by one."""
    c, n2, k2 = structure(kind, n, k, N, K)
    return (c + 1 if (n + k) % 3 == 0 else c), n2, k2


@settings(deadline=None)
@given(st.data())
def test_scan_path_agrees_with_element_path(data):
    n0, k0 = data.draw(st.integers(2, 5)), data.draw(st.integers(-4, 3))
    n_range = (n0, n0 + data.draw(st.integers(0, 1)))
    k_range = (k0, k0 + data.draw(st.integers(0, 2)))
    sample = data.draw(st.none() | st.integers(1, 12))
    seed = data.draw(st.integers(0, 2**16))
    pairs = basis_indices(WINF, n_range, k_range)
    if sample is None:
        triples = list(itertools.product(pairs, repeat=3))
    else:
        rng = random.Random(seed)
        triples = [tuple(rng.choice(pairs) for _ in range(3)) for _ in range(sample)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rhpwn.lie, "structure", _skewed_structure)
        report = jacobi_scan(WINF, n_range, k_range, sample=sample, seed=seed)
        expected = []
        for t in triples:
            defect = jacobi_defect(*(basis(WINF, *p) for p in t))
            if not defect.is_zero:
                expected.append((*t, tuple(((g.n, g.k), c) for g, c in defect.terms)))
    assert report.triples_checked == len(triples)
    assert report.failure_count == len(expected)
    reported = [(*f[:3], tuple((key, CScalar.of(v)) for key, v in f[3])) for f in report.failures]
    assert reported == expected[:100]


def _corrupted_structure(mode, modulus, residue):
    """The true table with the brackets [B^n_k, B^N_K] whose indices hit a
    residue class skewed (c + 1), escaping (n' -> -n') or zeroed (c = 0), or
    doubled (2c): in mode "swap" where n + k + N + K hits it, a class closed
    under swapping the two generators, so that table stays antisymmetric; in
    mode "star" where n² + k² + N² + K² hits it, a class also closed under
    each kind's *-map, so that table stays *-compatible as well."""

    def table(kind, n, k, N, K):
        c, n2, k2 = structure(kind, n, k, N, K)
        if mode in ("swap", "star"):
            key = n + k + N + K if mode == "swap" else n * n + k * k + N * N + K * K
            if key % modulus == residue:
                c *= 2
        elif (n + 2 * k + 3 * N + 5 * K) % modulus == residue:
            if mode == "skew":
                c += 1
            elif mode == "escape":
                n2 = -n2
            else:
                c = 0
        return c, n2, k2

    return table


def _reference_scan(kind, n_range, k_range):
    """failure_count and kept failures of a walk over every triple."""
    failures = []
    for t in itertools.product(basis_indices(kind, n_range, k_range), repeat=3):
        residual = rhpwn.lie._jacobi_residual(kind, *t)
        if residual:
            failures.append((*t, residual))
    return len(failures), failures[: rhpwn.lie._FAILURE_CAP]


def _assert_orbit_walk_agrees(kind, n_range, k_range):
    report = jacobi_scan(kind, n_range, k_range)
    count, kept = _reference_scan(kind, n_range, k_range)
    assert report.triples_checked == len(basis_indices(kind, n_range, k_range)) ** 3
    assert report.failure_count == count
    assert list(report.failures) == kept
    return report


@seed(20060820)
@settings(deadline=None)
@given(st.data())
def test_orbit_walk_agrees_with_the_walk_over_every_triple(data):
    kind = data.draw(st.sampled_from([RHPWN, WINF, WITT]))
    n0 = data.draw(st.integers(0, 3) if kind is RHPWN else st.integers(1, 4))
    n_range = (n0, n0 + data.draw(st.integers(0, 2 if kind is WITT else 1)))
    if data.draw(st.booleans()):
        # a grid closed under the *-map: (n, k) -> (k, n), or (n, k) -> (n, -k)
        j = data.draw(st.integers(0, 2))
        k_range = n_range if kind is RHPWN else (-j, j)
    else:
        k0 = data.draw(st.integers(0, 3) if kind is RHPWN else st.integers(-3, 2))
        k_range = (k0, k0 + data.draw(st.integers(0, 3)))
    modulus = data.draw(st.integers(1, 4))
    corrupt = _corrupted_structure(
        data.draw(st.sampled_from(["skew", "escape", "zero", "swap", "star"])),
        modulus,
        data.draw(st.integers(0, modulus - 1)),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rhpwn.lie, "structure", corrupt)
        _assert_orbit_walk_agrees(kind, n_range, k_range)


@pytest.mark.parametrize("k_range, failure_count", [((0, 0), 1), ((0, 1), 7)])
def test_orbit_walk_on_one_and_two_indices(monkeypatch, k_range, failure_count):
    # Every bracket skewed: [a, [a, a]] no longer vanishes, so one-triple
    # orbits (a, a, a) fail, on two indices beside both three-triple orbits.
    monkeypatch.setattr(rhpwn.lie, "structure", _corrupted_structure("skew", 1, 0))
    report = _assert_orbit_walk_agrees(WINF, (2, 2), k_range)
    assert ((2, 0), (2, 0), (2, 0)) in [f[:3] for f in report.failures]
    assert report.failure_count == failure_count


def test_orbit_walk_keeps_rotations_among_the_first_failures(monkeypatch):
    monkeypatch.setattr(rhpwn.lie, "structure", _corrupted_structure("skew", 3, 1))
    report = _assert_orbit_walk_agrees(WINF, (2, 4), (-1, 2))
    assert report.failure_count > 100 and len(report.failures) == 100
    ids = {p: i for i, p in enumerate(basis_indices(WINF, (2, 4), (-1, 2)))}
    kept = [tuple(ids[p] for p in f[:3]) for f in report.failures]
    # kept triples that are not their orbit's representative (a <= b, a < c)
    assert [t for t in kept if t[0] > min(t[1:]) or t[0] == t[2] != t[1]]


def test_orbit_walk_fails_3_sets_whose_three_terms_land_apart(monkeypatch):
    # Targets shifted by n N mod 3, symmetric in the two generators, keep the
    # table antisymmetric but move the terms of a 3-set to three distinct
    # targets, where two nonzero terms cannot cancel: 169 3-sets of this grid.
    def shifted(kind, n, k, N, K):
        c, n2, k2 = structure(kind, n, k, N, K)
        return c, n2, k2 + n * N % 3

    monkeypatch.setattr(rhpwn.lie, "structure", shifted)
    pairs = basis_indices(WINF, (2, 5), (-2, 2))
    assert rhpwn.lie._antisymmetric(len(pairs), rhpwn.lie._structure_tables(WINF, pairs))
    assert _assert_orbit_walk_agrees(WINF, (2, 5), (-2, 2)).failure_count == 5844


@pytest.mark.parametrize(
    "kind, n_range, k_range", [(RHPWN, (0, 6), (0, 6)), (WINF, (2, 8), (-6, 6))]
)
def test_true_tables_are_antisymmetric_on_the_acceptance_grids(kind, n_range, k_range):
    # and *-compatible, so criteria 2 and 3 walk one 3-set per orbit of
    # permutations and the *-map
    order, half = rhpwn.lie._star_order(kind, basis_indices(kind, n_range, k_range))
    tables = rhpwn.lie._structure_tables(kind, order)
    assert rhpwn.lie._antisymmetric(len(order), tables)
    assert half and rhpwn.lie._star_compatible(len(order), half, tables)


@pytest.mark.parametrize(
    "kind, n_range, k_range, half, walked",
    [
        (WINF, (2, 8), (-6, 6), 42, 60907),
        (RHPWN, (0, 6), (0, 6), 19, 6223),
        (WITT, (2, 2), (-3, 3), 3, 19),
        (WINF, (2, 5), (0, 0), 0, 4),  # every index its own image
        (WINF, (2, 5), (-3, 2), 0, 2024),  # not closed under *: every a < b < c
        (RHPWN, (0, 1), (0, 1), 0, 0),  # empty
    ],
)
def test_star_walk_visits_one_3_set_per_orbit(kind, n_range, k_range, half, walked):
    # On tables where every 3-set fails, the orbits walked are the 3-sets
    # visited, and together they list each triple of distinct ids once.
    order, got = rhpwn.lie._star_order(kind, basis_indices(kind, n_range, k_range))
    size = len(order)
    assert sorted(order) == basis_indices(kind, n_range, k_range) and got == half
    failing = [1] * (size + 1) * size, [0] * (size + 1) * size
    orbits = list(rhpwn.lie._failing_orbits(size, half, failing))
    assert len(orbits) == walked
    triples = [t for orbit in orbits for t in orbit]
    assert sorted(triples) == list(itertools.permutations(range(size), 3))


@pytest.mark.parametrize(
    "kind, n_range, k_range",
    [
        (WINF, (2, 4), (-2, 2)),
        (RHPWN, (0, 3), (0, 3)),
        (WITT, (2, 2), (-4, 4)),
        (WINF, (2, 5), (0, 0)),
        (RHPWN, (0, 1), (0, 1)),
    ],
)
def test_star_walk_agrees_on_star_compatible_failing_tables(monkeypatch, kind, n_range, k_range):
    # doubled brackets on a *-invariant class keep the tables antisymmetric
    # and *-compatible, so the scan walks one 3-set per orbit of both, and Jacobi breaks
    monkeypatch.setattr(rhpwn.lie, "structure", _corrupted_structure("star", 3, 0))
    order, half = rhpwn.lie._star_order(kind, basis_indices(kind, n_range, k_range))
    assert rhpwn.lie._star_compatible(len(order), half, rhpwn.lie._structure_tables(kind, order))
    report = _assert_orbit_walk_agrees(kind, n_range, k_range)
    assert report.failure_count > 100 if half else report.failure_count == 0


@pytest.mark.parametrize("mode, k_range", [("swap", (-2, 2)), ("star", (-3, 1))])
def test_star_walk_falls_back_to_every_a_b_c(monkeypatch, mode, k_range):
    # a table that is antisymmetric but not *-compatible, and a grid not
    # closed under *, take the walk over every a < b < c
    monkeypatch.setattr(rhpwn.lie, "structure", _corrupted_structure(mode, 3, 1))
    order, half = rhpwn.lie._star_order(WINF, basis_indices(WINF, (2, 4), k_range))
    tables = rhpwn.lie._structure_tables(WINF, order)
    assert rhpwn.lie._antisymmetric(len(order), tables)
    assert not (half and rhpwn.lie._star_compatible(len(order), half, tables))
    assert _assert_orbit_walk_agrees(WINF, (2, 4), k_range).failure_count > 100


def test_star_check_compares_coefficients_and_maps_ids_one_to_one():
    order, half = rhpwn.lie._star_order(WINF, basis_indices(WINF, (2, 4), (-2, 2)))
    size, mid = len(order), len(order) - half
    coeffs, links = rhpwn.lie._structure_tables(WINF, order)
    assert rhpwn.lie._star_compatible(size, half, (coeffs, links))
    # [y, z] and [z, y] doubled, [y*, z*] kept: still antisymmetric
    y, z = 0, half
    doubled = coeffs[:]
    doubled[(z + 1) * size + y] *= 2
    doubled[(y + 1) * size + z] *= 2
    assert rhpwn.lie._antisymmetric(size, (doubled, links))
    assert not rhpwn.lie._star_compatible(size, half, (doubled, links))
    # the row of the target t = (2, -3) of [y, z] = [(2, -2), (2, -1)], past
    # the grid, doubled: [x, t] no longer negates [x*, t*]
    y, z = 0, 1
    assert (order[y], order[z]) == ((2, -2), (2, -1))
    row, row_star = links[(z + 1) * size + y], links[(z + mid + 1) * size + y + mid]
    assert min(row, row_star) >= (size + 1) * size
    target_row = coeffs[:]
    target_row[row : row + size] = [2 * c for c in coeffs[row : row + size]]
    assert not rhpwn.lie._star_compatible(size, half, (target_row, links))
    # a target that other brackets reach too given a fresh offset in either
    # row of the pair t, t*: equal targets no longer share an offset, so
    # offsets do not map one-to-one
    for r in (row, row_star):
        e = next(e for e in range(r, r + size) if coeffs[e] and links.count(links[e]) > 1)
        fresh = links[:]
        fresh[e] = max(links) + 1
        assert not rhpwn.lie._star_compatible(size, half, (coeffs, fresh))
    # a bracket of two self-adjoint indices, (2, 0) and (3, 0), made nonzero:
    # [f, f'] = -[f, f']* forces it to vanish
    f, f2 = half, half + 1
    assert (order[f], order[f2]) == ((2, 0), (3, 0))
    skewed = coeffs[:]
    skewed[(f2 + 1) * size + f], skewed[(f + 1) * size + f2] = 1, -1
    assert rhpwn.lie._antisymmetric(size, (skewed, links))
    assert not rhpwn.lie._star_compatible(size, half, (skewed, links))


def _reference_tables(kind, pairs):
    """``_structure_tables`` built one entry at a time: grid row j holds [x, pairs[j]],
    the grid brackets' other targets follow in the order the grid rows reach them,
    and a target reached only from those rows is given the next offset past the table."""
    size = len(pairs)
    rows = {p: (j + 1) * size for j, p in enumerate(pairs)}
    for u, x in itertools.product(pairs, repeat=2):
        c, n2, k2 = rhpwn.lie.structure(kind, *x, *u)
        if c:
            rows.setdefault((n2, k2), (len(rows) + 1) * size)
    coeffs, links = [0] * size, [0] * size
    for u in list(rows):
        for x in pairs:
            c, n2, k2 = rhpwn.lie.structure(kind, *x, *u)
            coeffs.append(c)
            links.append(rows.setdefault((n2, k2), (len(rows) + 1) * size) if c else 0)
    return coeffs, links


@pytest.mark.parametrize("mode", [None, "skew", "escape", "zero", "swap"])
@pytest.mark.parametrize(
    "kind, n_range, k_range", [(RHPWN, (0, 6), (0, 6)), (WINF, (2, 8), (-6, 6))]
)
def test_structure_tables_match_the_entry_by_entry_build(monkeypatch, kind, n_range, k_range,
                                                         mode):
    if mode:
        monkeypatch.setattr(rhpwn.lie, "structure", _corrupted_structure(mode, 3, 1))
    pairs = basis_indices(kind, n_range, k_range)
    assert rhpwn.lie._structure_tables(kind, pairs) == _reference_tables(kind, pairs)


@pytest.mark.parametrize(
    "kind, n_range, k_range, calls", [(RHPWN, (0, 6), (0, 6), 5891), (WINF, (2, 8), (-6, 6), 29211)]
)
def test_structure_tables_call_structure_once_per_entry(monkeypatch, kind, n_range, k_range,
                                                        calls):
    # the grid rows take size**2 calls, and each other target's row size calls
    asked = []

    def counted(*args):
        asked.append(args)
        return structure(*args)

    monkeypatch.setattr(rhpwn.lie, "structure", counted)
    rhpwn.lie._structure_tables(kind, basis_indices(kind, n_range, k_range))
    assert len(asked) == len(set(asked)) == calls


def test_escaped_targets_are_not_antisymmetric(monkeypatch):
    # escaping targets keep each [y, z] = -[z, y] in coefficient, not in
    # target, so their links differ and the scan asks every triple
    monkeypatch.setattr(rhpwn.lie, "structure", _corrupted_structure("escape", 3, 1))
    pairs = basis_indices(WINF, (2, 4), (-2, 2))
    size = len(pairs)
    coeffs, links = rhpwn.lie._structure_tables(WINF, pairs)
    grid = range(size, (size + 1) * size)
    assert all(coeffs[e] == -coeffs[(e % size + 1) * size + e // size - 1] for e in grid)
    assert not rhpwn.lie._antisymmetric(size, (coeffs, links))
    _assert_orbit_walk_agrees(WINF, (2, 4), (-2, 2))


def test_swapped_corruption_walks_a_b_c_increasing(monkeypatch):
    # doubled brackets keep the table antisymmetric but break Jacobi
    monkeypatch.setattr(rhpwn.lie, "structure", _corrupted_structure("swap", 2, 0))
    pairs = basis_indices(WINF, (2, 4), (-2, 2))
    assert rhpwn.lie._antisymmetric(len(pairs), rhpwn.lie._structure_tables(WINF, pairs))
    report = _assert_orbit_walk_agrees(WINF, (2, 4), (-2, 2))
    assert report.failure_count == 1908 and len(report.failures) == 100
    ids = {p: i for i, p in enumerate(pairs)}
    kept = [tuple(ids[p] for p in f[:3]) for f in report.failures]
    # kept triples that are not their orbit's representative (a < b < c)
    assert [t for t in kept if not t[0] < t[1] < t[2]]


def _reference_closure(kind, n_range, k_range):
    """failure_count and kept failures of a closure walk over every ordered pair."""
    failures = []
    for p, q in itertools.product(basis_indices(kind, n_range, k_range), repeat=2):
        c, n2, k2 = rhpwn.lie.structure(kind, *p, *q)
        if c and not in_domain(kind, n2, k2):
            failures.append((p, q, (c, n2, k2)))
    return len(failures), failures[: rhpwn.lie._FAILURE_CAP]


@seed(20060821)
@settings(deadline=None)
@given(st.data())
def test_closure_agrees_with_the_walk_over_every_pair(data):
    kind = data.draw(st.sampled_from([RHPWN, WINF]))
    n0 = data.draw(st.integers(0, 3) if kind is RHPWN else st.integers(1, 4))
    k0 = data.draw(st.integers(0, 3) if kind is RHPWN else st.integers(-4, 2))
    n_range = (n0, n0 + data.draw(st.integers(0, 3)))
    k_range = (k0, k0 + data.draw(st.integers(0, 6)))
    modulus = data.draw(st.integers(1, 4))
    corrupt = _corrupted_structure(
        data.draw(st.sampled_from(["skew", "escape", "zero", "swap"])),
        modulus,
        data.draw(st.integers(0, modulus - 1)),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rhpwn.lie, "structure", corrupt)
        report = closure_check(kind, n_range, k_range)
        count, kept = _reference_closure(kind, n_range, k_range)
    assert report.pairs_checked == len(basis_indices(kind, n_range, k_range)) ** 2
    assert report.failure_count == count
    assert list(report.failures) == kept


def test_closure_examples():
    assert closure_check(RHPWN, (0, 6), (0, 6)).passed
    assert closure_check(WINF, (2, 8), (-4, 4)).passed
    assert closure_check(WITT, (2, 2), (-10, 10)).passed


@pytest.mark.parametrize(
    "kind, n_range, k_range, pairs",
    [
        (RHPWN, (0, 4), (0, 4), 19 ** 2),
        (WINF, (2, 4), (-2, 2), 15 ** 2),
        (WITT, (2, 2), (-4, 4), 9 ** 2),
    ],
)
def test_star_scan_passes_on_every_kind(kind, n_range, k_range, pairs):
    report = star_scan(kind, n_range, k_range)
    assert report.passed and report.failures == ()
    assert report.pairs_checked == pairs and report.kind is kind


def test_star_scan_caps_kept_failures(monkeypatch):
    # x* = 2x breaks compatibility exactly where [x, y] != 0: the defect is 6[x, y]
    monkeypatch.setattr(rhpwn.lie, "involution", lambda x: x.scaled(2))
    report = star_scan(WITT, (2, 2), (-10, 10))
    assert not report.passed
    assert report.pairs_checked == 21 ** 2
    assert report.failure_count == 21 ** 2 - 21  # every pair with k != K
    assert len(report.failures) == 100
    p, q, defect = report.failures[0]
    assert (p, q) == ((2, -10), (2, -9))
    assert defect == bracket(basis(WITT, *p), basis(WITT, *q)).scaled(6)


def test_element_json_round_trip():
    x = basis(RHPWN, 2, 1, fn_symbol("f")).scaled(
        CScalar.of(2)
    ) + basis(RHPWN, 0, 4, FnSymbol(("g", "~h"), True)).scaled(
        CScalar(Fraction(-1, 3))
    )
    assert element_from_json(json.loads(json.dumps(element_to_json(x)))) == x
    assert element_to_json(zero(RHPWN)) == {"kind": "RHPWN", "terms": []}
    relaxed = basis(RHPWN, 0, 1, relaxed=True)
    loaded = element_from_json(json.loads(json.dumps(element_to_json(relaxed))))
    assert loaded == relaxed and not certified(loaded)


@given(st.data())
def test_step_labelled_elements_round_trip(data):
    kind = data.draw(st.sampled_from(list(AlgebraKind)))
    x = data.draw(elements(kind, labeled=True, labels=step_fns()))
    assert element_from_json(json.loads(json.dumps(element_to_json(x)))) == x
    assert involution(involution(x)) == x


def test_relaxed_bracket_allows_escapes():
    x = basis(RHPWN, 1, 1, relaxed=True)
    y = basis(RHPWN, 1, 0, relaxed=True)
    result = bracket(x, y)  # lands at (1, 0), outside the certified family
    assert not certified(result)
    assert in_domain(RHPWN, 1, 0) is False


# -- the element algebra against term-by-term references ----------------------

@st.composite
def _sums(draw, count: int):
    """``count`` relaxed elements of one kind, their labels all drawn from one
    family (symbols, conjugated ones included, or step functions) or absent."""
    kind = draw(st.sampled_from(list(AlgebraKind)))
    labels = draw(st.sampled_from([None, any_fn_symbols, step_fns()]))
    return kind, [element(kind, draw(raw_terms(kind, labels))) for _ in range(count)]


@seed(20060816)
@settings(max_examples=100, deadline=None)
@given(_sums(2), st.one_of(st.just(CScalar()), cscalars, st.integers(-2, 2)))
def test_element_algebra_matches_the_term_by_term_reference(sums, s):
    kind, (x, y) = sums
    assert bracket(x, y) == ref_bracket(x, y)
    assert involution(x) == ref_involution(x)
    assert x.scaled(s) == ref_scaled(x, s)
    assert x + y == ref_sum(kind, x.terms + y.terms)
    assert x - y == ref_sum(kind, x.terms + tuple((g, -c) for g, c in y.terms))
    assert -x == ref_scaled(x, -1)


@seed(20060817)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_matches_the_reference_sum(data):
    kind = data.draw(st.sampled_from(list(AlgebraKind)))
    items = data.draw(raw_terms(kind, data.draw(st.sampled_from([None, any_fn_symbols]))))
    x = element(kind, items)
    assert x == ref_sum(kind, items)
    assert all(type(c) is CScalar for _, c in x.terms)


def test_sums_of_two_kinds_are_rejected():
    x, y = basis(RHPWN, 2, 1), basis(WINF, 2, 1)
    for combine in (lambda: x + y, lambda: x - y, lambda: y + x, lambda: bracket(x, y),
                    lambda: element(RHPWN, [(generator(WINF, 2, 1), CScalar.of(1))])):
        with pytest.raises(ValueError, match="algebra kind mismatch"):
            combine()


def test_a_labelled_with_an_unlabelled_bracket_is_a_type_error_first(monkeypatch):
    # every target sent outside the family: a bracket of in-domain factors is a
    # DomainError, unless a labelled and an unlabelled generator meet first
    monkeypatch.setattr(rhpwn.lie, "structure", lambda kind, n, k, N, K: (1, 0, 0))
    f, g = fn_symbol("f"), fn_symbol("g")
    with pytest.raises(DomainError):
        bracket(basis(RHPWN, 2, 1, f), basis(RHPWN, 1, 2, g))
    with pytest.raises(TypeError):
        bracket(basis(RHPWN, 2, 1, f), basis(RHPWN, 1, 2))
    with pytest.raises(TypeError):
        bracket(basis(RHPWN, 2, 1), basis(RHPWN, 1, 2, g) + basis(RHPWN, 3, 0, g))
