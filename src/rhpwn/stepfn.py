"""Test functions: complex step functions on the line and abstract symbols.

The concrete space consists of right-continuous step functions with finitely
many values and compact support; the subspace of interest is the one whose
members vanish at zero. The symbolic engines mostly manipulate test functions
abstractly, so a lightweight formal-product symbol type lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .scalars import CS_ZERO, CScalar, rational, rational_from_str


class StepFn(NamedTuple):
    """Right-continuous complex step function with compact support.

    Stored as sorted disjoint pieces (a, b, v): the function equals v on
    [a, b) and 0 outside every piece. Canonical form keeps only nonzero
    values and merges contiguous equal-valued pieces, so equality of the
    tuples is equality of functions.
    """

    pieces: tuple[tuple[Fraction, Fraction, CScalar], ...]

    def __lt__(self, other) -> bool:
        return fn_sort_key(self) < fn_sort_key(other)

    def __gt__(self, other) -> bool:
        return fn_sort_key(self) > fn_sort_key(other)


ZERO_FN = StepFn(())


def canon_pieces(raw: Iterable[tuple[Fraction, Fraction, CScalar]]) -> StepFn:
    """Canonical step function of pieces (a, b, v); every piece, zero-valued
    ones included, must have a < b, and pieces may not overlap."""
    raw = list(raw)
    for a, b, _ in raw:
        if a >= b:
            raise ValueError(f"empty or reversed piece [{a}, {b})")
    pieces = sorted(piece for piece in raw if piece[2])
    out: list[tuple[Fraction, Fraction, CScalar]] = []
    for a, b, v in pieces:
        if out and a < out[-1][1]:
            raise ValueError(f"overlapping pieces at {a}")
        if out and a == out[-1][1] and v == out[-1][2]:
            out[-1] = (out[-1][0], b, v)
        else:
            out.append((a, b, v))
    return StepFn(tuple(out))


def make_step(breakpoints: Iterable, values: Iterable) -> StepFn:
    """Step function with values[i] on [breakpoints[i], breakpoints[i+1]).

    Outside [breakpoints[0], breakpoints[-1]) the function is 0, keeping the
    support compact. Breakpoints must be strictly increasing and there must
    be exactly one value per bounded piece.
    """
    bps = [rational(b) for b in breakpoints]
    vals = [CScalar.of(v) for v in values]
    if len(vals) != max(len(bps) - 1, 0):
        raise ValueError(
            f"expected {max(len(bps) - 1, 0)} values for {len(bps)} breakpoints, "
            f"got {len(vals)}"
        )
    return canon_pieces(zip(bps, bps[1:], vals))


def evaluate(f: StepFn, t) -> CScalar:
    """Value of f at t under the right-continuous convention."""
    t = rational(t)
    for a, b, v in f.pieces:
        if a <= t < b:
            return v
    return CS_ZERO


def is_in_S0(f: StepFn) -> bool:
    """Whether f belongs to the subspace vanishing at zero, f(0) = 0."""
    return not evaluate(f, 0)


# -- JSON records -----------------------------------------------------------

def step_to_records(f: StepFn) -> list[dict]:
    """Serialize as [{"from": "a/b", "to": "c/d", "re": "p/q", "im": "r/s"}]."""
    return [{"from": str(a), "to": str(b), "re": str(v.re), "im": str(v.im)}
            for a, b, v in f.pieces]


def step_from_records(records: Iterable[dict]) -> StepFn:
    return canon_pieces(
        (
            rational_from_str(r["from"]),
            rational_from_str(r["to"]),
            CScalar(rational_from_str(r.get("re", 0)), rational_from_str(r.get("im", 0))),
        )
        for r in records
    )


# -- Abstract test-function symbols -----------------------------------------

class FnSymbol(NamedTuple):
    """Formal pointwise product of named test functions.

    Factors are stored as a sorted multiset of names; a '~' prefix marks
    complex conjugation of that factor. in_S0 records whether the product is
    known to vanish at zero (true as soon as any factor does).
    """

    factors: tuple[str, ...]
    in_S0: bool = True

    __lt__ = StepFn.__lt__
    __gt__ = StepFn.__gt__


def fn_symbol(name: str, in_S0: bool = True) -> FnSymbol:
    base = name[1:] if name.startswith("~") else name
    if not base.isidentifier():
        raise ValueError(f"test-function name must be an identifier, got {name!r}")
    return FnSymbol((name,), in_S0)


AnyTestFn = Union[FnSymbol, StepFn]


def fn_product(x: AnyTestFn, y: AnyTestFn) -> AnyTestFn:
    """Pointwise product, formal for symbols and exact for step functions:
    x(t) y(t) on each piece between consecutive endpoints of x and y."""
    if isinstance(x, FnSymbol) and isinstance(y, FnSymbol):
        return FnSymbol(tuple(sorted(x.factors + y.factors)), x.in_S0 or y.in_S0)
    if isinstance(x, StepFn) and isinstance(y, StepFn):
        pts = sorted({p for h in (x, y) for a, b, _ in h.pieces for p in (a, b)})
        return canon_pieces((a, b, evaluate(x, a) * evaluate(y, a)) for a, b in zip(pts, pts[1:]))
    raise TypeError("cannot multiply an abstract symbol with a concrete step function")


def fn_conjugate(x: AnyTestFn) -> AnyTestFn:
    if isinstance(x, FnSymbol):
        toggled = tuple(f[1:] if f.startswith("~") else "~" + f for f in x.factors)
        return FnSymbol(tuple(sorted(toggled)), x.in_S0)
    return StepFn(tuple((a, b, v.conjugate()) for a, b, v in x.pieces))


def fn_vanishes_at_zero(x: AnyTestFn) -> bool:
    """Whether x is known to vanish at zero (symbols: the in_S0 flag)."""
    if isinstance(x, FnSymbol):
        return x.in_S0
    return is_in_S0(x)


def fn_sort_key(x: Optional[AnyTestFn]):
    """The one total order over test functions: none, then symbols, then
    step functions. ``<`` and ``>`` of symbols and step functions compare by
    it, so sums of words or generators sort their keys as plain tuples."""
    if x is None:
        return (0,)
    if isinstance(x, FnSymbol):
        return (1, x.factors, x.in_S0)
    return (2, tuple((a, b, v.re, v.im) for a, b, v in x.pieces))


def fn_to_json(x: AnyTestFn) -> dict:
    if isinstance(x, FnSymbol):
        return {"fn": list(x.factors), "in_S0": x.in_S0}
    return {"step": step_to_records(x)}


def fn_from_json(v: dict) -> AnyTestFn:
    if "fn" in v:
        return FnSymbol(tuple(sorted(v["fn"])), bool(v["in_S0"]))
    return step_from_records(v["step"])
