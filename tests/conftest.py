"""Shared hypothesis strategies for the exact-algebra test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from rhpwn.lie import AlgebraKind, basis_indices, element, generator
from rhpwn.scalars import CScalar
from rhpwn.stepfn import FnSymbol, StepFn, is_in_S0, make_step

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
