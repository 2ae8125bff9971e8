import json

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import any_fn_symbols, elements, step_fns
from rhpwn.dsl import (
    AddNode,
    AtomNode,
    BracketNode,
    MAX_NESTING,
    ParseError,
    StarNode,
    evaluate,
    parse,
    render,
)
from rhpwn.lie import AlgebraKind, Element, basis, element_from_json, involution, zero
from rhpwn.scalars import CScalar
from rhpwn import stepfn
from rhpwn.stepfn import FnSymbol, fn_symbol, indicator, step_from_records
from fractions import Fraction

RHPWN = AlgebraKind.RHPWN
WINF = AlgebraKind.WINFINITY


def test_parse_bracket_node():
    ast = parse("[B[2,1], B[1,2]]")
    assert isinstance(ast, BracketNode)
    assert ast.a == AtomNode(RHPWN, 2, 1, None)
    assert ast.b == AtomNode(RHPWN, 1, 2, None)


def test_parse_involution_postfix():
    ast = parse("Bh[3,2]^*")
    assert isinstance(ast, StarNode)
    assert evaluate(ast) == basis(WINF, 3, -2)


def test_domain_validation():
    with pytest.raises(ParseError):
        parse("B[1,1]")
    assert evaluate(parse("B[1,1]", relaxed=True)) == basis(RHPWN, 1, 1, relaxed=True)
    with pytest.raises(ParseError):
        parse("Bh[1,0]")


def test_evaluate_brackets():
    # Eq-style structure constants: [B^1_2, B^2_1] = 3 B^2_2 and its swap
    assert evaluate(parse("[B[1,2], B[2,1]]")) == basis(RHPWN, 2, 2).scaled(3)
    assert evaluate(parse("[B[2,1], B[1,2]]")) == basis(RHPWN, 2, 2).scaled(-3)
    assert evaluate(parse("[Bh[2,3], Bh[2,5]]")) == basis(WINF, 2, 8).scaled(-2)


def test_evaluate_linear_combinations():
    assert evaluate(parse("2*Bh[2,0] - Bh[2,0] - Bh[2,0]")).is_zero
    x = evaluate(parse("(1/2+3/4*i)*B[2,1]@f"))
    assert x == basis(RHPWN, 2, 1, fn_symbol("f")).scaled(
        CScalar(Fraction(1, 2), Fraction(3, 4))
    )
    assert evaluate(parse("2*i*B[2,1]")) == basis(RHPWN, 2, 1).scaled(
        CScalar(Fraction(0), Fraction(2))
    )
    assert evaluate(parse("-B[2,1] + B[2,1]")).is_zero


def test_kind_mixing_rejected():
    with pytest.raises(ValueError):
        evaluate(parse("[B[2,1], Bh[2,1]]"))
    with pytest.raises(ValueError):
        evaluate(parse("B[2,1] + Bh[2,1]"))


def test_render_examples():
    assert render(basis(RHPWN, 2, 2).scaled(3)) == "3*B[2,2]"
    assert render(zero(RHPWN), "json") == '{"kind": "RHPWN", "terms": []}'
    assert render(basis(RHPWN, 2, 2).scaled(3), "latex") == "3\\,B^{2}_{2}"
    assert (
        render(basis(WINF, 3, -2, FnSymbol(("~f",), True)), "latex")
        == "\\hat{B}^{3}_{-2}(\\overline{f})"
    )
    assert render(zero(WINF)) == "0"
    assert render(zero(RHPWN), "latex") == "0"
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        render(zero(RHPWN), "yaml")


def test_render_negative_and_complex_terms():
    x = basis(RHPWN, 2, 1).scaled(-1) + basis(RHPWN, 3, 0).scaled(
        CScalar(Fraction(0), Fraction(-1, 2))
    )
    text = render(x)
    assert text == "-B[2,1] + (-1/2*i)*B[3,0]"
    assert render(x, "latex") == "-B^{2}_{1} + (-\\tfrac{1}{2}\\,i)\\,B^{3}_{0}"
    assert evaluate(parse(text)) == x


def test_parse_error_diagnostics():
    with pytest.raises(ParseError) as err:
        parse("[B[2,1], B[1,2]")
    assert err.value.offset == 15
    assert "]" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse("B[2,1] !")
    assert err.value.offset == 7
    # tokens are ASCII: a non-ASCII digit or space is rejected where it stands
    for text, offset in (("B[\u0663,1]", 2), ("B[2,1]\u3000+\u3000!", 6)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"at byte {offset}: unexpected character {text[offset]!r}"
    with pytest.raises(ParseError):
        parse("3")  # a bare scalar is not an element
    with pytest.raises(ParseError):
        parse("1/0*B[2,1]")


def test_nesting_cap():
    depth = MAX_NESTING
    at_cap = "(" * (depth - 1) + "[B[2,1], B[1,2]]" + ")" * (depth - 1)
    assert parse(at_cap) == parse("[B[2,1], B[1,2]]")
    # [Bh[2,0], Bh[2,1]] = -Bh[2,1], nested to the cap
    nested = parse("[Bh[2,0], " * depth + "Bh[2,1]" + "]" * depth)
    assert evaluate(nested) == evaluate(parse("Bh[2,1]")).scaled((-1) ** depth)
    with pytest.raises(ParseError) as err:
        parse("(" + at_cap + ")")
    assert err.value.offset == depth and "nesting deeper than" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("[B[2,1], " * (depth + 1) + "B[1,2]" + "]" * (depth + 1))
    assert err.value.offset == 9 * depth


def test_long_flat_chains_evaluate():
    # sums, scalar factors and '^*' chains nest the AST one level per term
    n = 3000
    b21 = parse("B[2,1]")
    assert evaluate(parse(" + ".join(["B[2,1]"] * n))) == evaluate(b21).scaled(n)
    assert evaluate(parse("B[2,1]" + "^*" * (n + 1))) == involution(evaluate(b21))
    assert evaluate(parse("(-1)*" * (n + 1) + "B[2,1]")) == evaluate(b21).scaled(-1)


def test_render_fractional_scalars_and_step_labels():
    x = evaluate(parse("(1/2-3/4*i)*B[2,1] - 2/3*B[3,0]"))
    assert render(x, "latex") == (
        "(\\tfrac{1}{2}-\\tfrac{3}{4}\\,i)\\,B^{2}_{1} - \\tfrac{2}{3}\\,B^{3}_{0}"
    )
    assert render(x) == "(1/2-3/4*i)*B[2,1] - 2/3*B[3,0]"
    x = basis(WINF, 2, -1, indicator([(1, 2)])).scaled(CScalar(Fraction(0), Fraction(5, 3)))
    assert render(x, "latex") == "(\\tfrac{5}{3}\\,i)\\,\\hat{B}^{2}_{-1}(\\chi)"
    assert render(x) == "(5/3*i)*Bh[2,-1]@step[1,2,1,0]"


def test_step_labels_parse_as_rendered():
    text = "(5/3*i)*Bh[2,-1]@step[-3/2,1/2,1,-1/3;1,2,0,1]"
    ast = parse(text)
    assert ast.a.label == step_from_records(
        [{"from": "-3/2", "to": "1/2", "re": "1", "im": "-1/3"},
         {"from": "1", "to": "2", "re": "0", "im": "1"}]
    )
    assert render(evaluate(ast)) == text
    # a name 'step' without pieces is a symbol
    assert parse("B[2,1]@step").label == FnSymbol(("step",), True)
    with pytest.raises(ParseError) as err:
        parse("B[2,1]@step[0,2,1,0;1,3,1,0]")
    assert err.value.offset == 11 and "overlapping pieces" in str(err.value)
    for bad in ("B[2,1]@step[0,2,1]", "B[2,1]@step[0,2,1,0", "B[2,1]@step[0,2,1,0;]"):
        with pytest.raises(ParseError):
            parse(bad)


def test_step_labels_parse_without_string_round_trips(monkeypatch):
    reads = []
    read = stepfn.rational_from_str
    monkeypatch.setattr(stepfn, "rational_from_str", lambda v: reads.append(v) or read(v))
    label = parse("B[2,1]@step[0,1/2,1,-1/3;1/2,1,2,0]").label
    assert reads == []
    expected = step_from_records(
        [{"from": "0", "to": "1/2", "re": "1", "im": "-1/3"},
         {"from": "1/2", "to": "1", "re": "2", "im": "0"}]
    )
    assert len(reads) == 8  # the records are read through the counted function
    assert label == expected


def test_labels_outside_S0_parse_as_rendered():
    x = basis(WINF, 2, 1, fn_symbol("f", in_S0=False))
    assert render(x) == "Bh[2,1]@!f"
    assert parse("Bh[2,1]@!f").label == FnSymbol(("f",), False)
    assert evaluate(parse(render(x))) == x
    y = basis(RHPWN, 2, 1, FnSymbol(("f", "~g"), False))
    assert render(y) == "B[2,1]@!(f*~g)" and evaluate(parse(render(y))) == y
    # labels in S0 keep their bytes
    assert render(basis(WINF, 2, 1, fn_symbol("f"))) == "Bh[2,1]@f"


@given(
    st.sampled_from([RHPWN, WINF]).flatmap(
        lambda kind: elements(kind, labeled=True, labels=step_fns() | any_fn_symbols)
    )
)
def test_text_round_trip_with_step_labels(x):
    text = render(x, "text")
    if x.is_zero:
        assert text == "0"
    else:
        y = evaluate(parse(text))
        assert y == x and render(y, "text") == text


def test_parenthesized_expressions_and_scalars():
    assert parse("(B[2,1] + B[1,2])") == AddNode(
        AtomNode(RHPWN, 2, 1, None), AtomNode(RHPWN, 1, 2, None)
    )
    b21, b12 = basis(RHPWN, 2, 1), basis(RHPWN, 1, 2)
    assert evaluate(parse("(B[2,1] - B[1,2])^*")) == involution(b21 - b12)
    assert evaluate(parse("(i)*B[2,1]")) == b21.scaled(CScalar(Fraction(0), Fraction(1)))
    assert evaluate(parse("(1+i)*B[2,1]")) == b21.scaled(CScalar(Fraction(1), Fraction(1)))
    assert evaluate(parse("2*i*B[2,1]")) == evaluate(parse("(2*i)*B[2,1]"))


@given(elements(RHPWN, labeled=True, labels=any_fn_symbols))
def test_round_trip_rhpwn(x):
    if x.is_zero:
        # the text form of zero erases the kind; json keeps it
        assert render(x, "text") == "0"
    else:
        assert evaluate(parse(render(x, "text"))) == x


@given(elements(WINF, labeled=True, labels=any_fn_symbols))
def test_round_trip_winfinity(x):
    if x.is_zero:
        assert render(x, "text") == "0"
    else:
        assert evaluate(parse(render(x, "text"))) == x


@given(elements(RHPWN, labeled=True, labels=any_fn_symbols))
def test_json_round_trip(x):
    assert element_from_json(json.loads(render(x, "json"))) == x


@given(
    st.sampled_from([RHPWN, WINF]).flatmap(
        lambda kind: elements(kind, labeled=True, labels=step_fns() | any_fn_symbols, relaxed=True)
    )
)
def test_relaxed_elements_round_trip_through_text_and_json(x):
    assume(not x.is_zero)  # the text form of zero erases the kind
    text, as_json = render(x, "text"), render(x, "json")
    from_text = evaluate(parse(text, relaxed=True))
    from_json = element_from_json(json.loads(as_json))
    assert from_text == x and from_json == x
    for y in (from_text, from_json):
        assert render(y, "text") == text and render(y, "json") == as_json
    # Elements are tuples, but equal-looking ones of another kind or label still differ.
    (g, c), *_ = x.terms
    other = WINF if x.kind is RHPWN else RHPWN
    one = Element(x.kind, ((g, c),))
    assert one != Element(other, ((g._replace(kind=other), c),))
    relabeled = fn_symbol("f") if g.label is None else None
    assert one != Element(x.kind, ((g._replace(label=relabeled), c),))
    if isinstance(g.label, FnSymbol):
        flipped = g.label._replace(in_S0=not g.label.in_S0)
        assert one != Element(x.kind, ((g._replace(label=flipped), c),))
    assert zero(RHPWN) != zero(WINF)
