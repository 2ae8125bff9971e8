"""Shared hypothesis strategies for the exact-algebra test suite,
term-by-term references for the element algebra, and the element-level
checks that only tests use."""

from fractions import Fraction

from hypothesis import strategies as st

from rhpwn.lie import (AlgebraKind, Element, basis_indices, bracket, element, generator,
                       in_domain, structure)
from rhpwn.scalars import CS_ONE, CS_ZERO, CScalar, rational
from rhpwn.stepfn import (FnSymbol, StepFn, canon_pieces, fn_conjugate, fn_product, is_in_S0,
                          make_step)


def indicator(intervals) -> StepFn:
    """Indicator function of a finite union of disjoint half-open intervals
    [a, b); endpoints go through the package's exact coercion."""
    return canon_pieces((rational(a), rational(b), CS_ONE) for a, b in intervals)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero_rationals = rationals.filter(bool)
cscalars = st.builds(CScalar, rationals, rationals)


@st.composite
def step_fns(draw) -> StepFn:
    bps = sorted(draw(st.lists(rationals, min_size=2, max_size=6, unique=True)))
    vals = draw(
        st.lists(cscalars, min_size=len(bps) - 1, max_size=len(bps) - 1)
    )
    return make_step(bps, vals)


@st.composite
def s0_step_fns(draw) -> StepFn:
    """Step functions vanishing at zero: the piece covering 0 is removed."""
    f = draw(step_fns())
    pieces = tuple(p for p in f.pieces if not (p[0] <= 0 < p[1]))
    f = StepFn(pieces)
    assert is_in_S0(f)
    return f


_names = st.sampled_from(["f", "g", "h", "~f", "~g"])
fn_symbols = st.builds(
    lambda factors: FnSymbol(tuple(sorted(factors)), True),
    st.lists(_names, min_size=1, max_size=2),
)
# symbols known to vanish at zero or not: the DSL reads both label forms
any_fn_symbols = st.builds(
    lambda factors, in_S0: FnSymbol(tuple(sorted(factors)), in_S0),
    st.lists(_names, min_size=1, max_size=2),
    st.booleans(),
)


def _index_pool(kind: AlgebraKind, relaxed: bool = False):
    if relaxed:
        # every index around the family, out-of-domain ones included
        return [(n, k) for n in range(-2, 7) for k in range(-5, 6)]
    if kind is AlgebraKind.RHPWN:
        return basis_indices(kind, (0, 6), (0, 6))
    return basis_indices(kind, (2, 6), (-5, 5))


@st.composite
def elements(
    draw, kind: AlgebraKind, labeled: bool = False, labels=fn_symbols, relaxed: bool = False
):
    pool = _index_pool(kind, relaxed)
    pairs = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=4))
    label_st = st.one_of(st.none(), labels) if labeled else st.none()
    items = [
        (generator(kind, n, k, draw(label_st), relaxed), draw(cscalars)) for n, k in pairs
    ]
    return element(kind, items)


@st.composite
def raw_terms(draw, kind: AlgebraKind, labels=None):
    """(generator, coefficient) items with relaxed indices, repeated keys, zero
    and int coefficients; every label is drawn from ``labels``, or none."""
    # a few indices per sum, so that keys repeat
    pool = draw(st.lists(st.sampled_from(_index_pool(kind, relaxed=True)), min_size=1, max_size=4))
    items = []
    for _ in range(draw(st.integers(0, 5))):
        n, k = draw(st.sampled_from(pool))
        label = None if labels is None else draw(labels)
        items.append((generator(kind, n, k, label, relaxed=True),
                      draw(st.one_of(cscalars, st.integers(-2, 2), st.just(CS_ZERO)))))
    return items


# -- references: every product from Fraction parts, every sum merged by hand --

def ref_mul(u, v) -> CScalar:
    u, v = CScalar.of(u), CScalar.of(v)
    return CScalar(u.re * v.re - u.im * v.im, u.re * v.im + u.im * v.re)


def ref_sum(kind: AlgebraKind, items) -> Element:
    acc = {}
    for g, c in items:
        acc[g] = acc.get(g, CS_ZERO) + c
    return Element(kind, tuple(sorted((g, c) for g, c in acc.items() if c)))


def ref_scaled(x: Element, s) -> Element:
    return ref_sum(x.kind, [(g, ref_mul(s, c)) for g, c in x.terms])


def ref_bracket(x: Element, y: Element) -> Element:
    items = []
    for g1, c1 in x.terms:
        for g2, c2 in y.terms:
            c, n, k = structure(x.kind, g1.n, g1.k, g2.n, g2.k)
            if c:
                label = None if g1.label is None else fn_product(g1.label, g2.label)
                items.append((generator(x.kind, n, k, label, relaxed=True),
                              ref_mul(ref_mul(c1, c2), c)))
    return ref_sum(x.kind, items)


def ref_involution(x: Element) -> Element:
    items = []
    for g, c in x.terms:
        n, k = (g.k, g.n) if x.kind is AlgebraKind.RHPWN else (g.n, -g.k)
        label = None if g.label is None else fn_conjugate(g.label)
        items.append((generator(x.kind, n, k, label, relaxed=True), CScalar(c.re, -c.im)))
    return ref_sum(x.kind, items)


# -- element-level checks --

def jacobi_defect(x: Element, y: Element, z: Element) -> Element:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero certifies the Jacobi identity."""
    return bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))


def certified(x: Element) -> bool:
    """Whether every generator of x lies in its family; a relaxed one may not."""
    return all(in_domain(g.kind, g.n, g.k) for g, _ in x.terms)
