"""Expression DSL for algebra elements: parser, evaluator, and renderers.

Grammar (element-valued; scalars only ever multiply generator expressions):

    expr      := ['-'] term (('+'|'-') term)*
    term      := (scalar '*')* postfixed
    postfixed := primary ('^*')*
    primary   := atom | '[' expr ',' expr ']' | '(' expr ')'
    atom      := ('B'|'Bh') '[' int ',' int ']' ['@' label]
    label     := ['!'] symbol | 'step' '[' [piece (';' piece)*] ']'
    symbol    := ['~'] name | '(' ['~'] name ('*' ['~'] name)* ')'
    piece     := rational ',' rational ',' rational ',' rational
    rational  := ['-'] int ['/' int]
    scalar    := part | '(' ['-'] part (('+'|'-') part)* ')'
    part      := int ['/' int] ['*' 'i'] | 'i'

B atoms are RHPWN generators, Bh atoms are w-infinity generators, '^*' is the
involution, '[x, y]' the bracket, and '~' marks a conjugated test-function
factor. A symbol is taken to vanish at zero (in S0) unless a '!' precedes
it. A step label lists the pieces (from, to, re, im) of a step function
on [from, to), as render prints them; pieces may not overlap. A name 'step'
not followed by '[' is a symbol. Complex scalars with two parts must be
parenthesized, e.g.
(1/2-3/4*i)*B[2,1]; a parenthesized group that does not read as a scalar is
read as an expression. 'a - b' reads as 'a + (-1)*b'. Tokens are ASCII: a
non-ASCII digit or space is an unexpected character. Brackets and groups nest
at most MAX_NESTING deep; a deeper '[' or '(' is a ParseError.

The tree takes the grammar's shape: an expr of two or more terms is one
SumNode; a term's scalar factors, and the -1 of a leading or subtracted term,
multiply into one ScaleNode; an odd run of '^*' is one StarNode and an even run
none; an atom is a lie.Generator; a group is the tree of its expr.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from . import lie
from .lie import AlgebraKind, Element, Generator, element_to_json
from .scalars import _F0, CS_ONE, CScalar, _cscalar
from .stepfn import AnyTestFn, FnSymbol, StepFn, canon_pieces


class ParseError(ValueError):
    """Syntax or domain diagnostic with byte offset and expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"at byte {offset}: {message}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


# A token is '^*', an unsigned integer, a name or one punctuation mark;
# ASCII whitespace between tokens is skipped.
_TOKEN_RE = re.compile(r"\^\*|\d+|[A-Za-z_][A-Za-z0-9_]*|[\[\](),;+\-*/@~!]", re.ASCII)
# A character no token reads: not ASCII whitespace, a word character or a
# punctuation mark, or a '^' not before '*'.
_BAD_RE = re.compile(r"[^\s\w\[\](),;+\-*/@~!^]|\^(?!\*)", re.ASCII)
_PUNCT_KINDS = {**{mark: mark for mark in "[](),;+-*/@~!"}, "^*": "starpost"}


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The texts and the kinds of the tokens, "eof" last; a punctuation mark
    is its own kind. The first character no token reads is a ParseError."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    texts = _TOKEN_RE.findall(text)
    kinds = [_PUNCT_KINDS.get(t) or ("int" if t[0] <= "9" else "name") for t in texts]
    return texts + [""], kinds + ["eof"]


# -- AST ----------------------------------------------------------------------

class BracketNode(NamedTuple):
    a: "DslExpr"
    b: "DslExpr"


class StarNode(NamedTuple):
    a: "DslExpr"


class ScaleNode(NamedTuple):
    c: CScalar
    a: "DslExpr"


class SumNode(NamedTuple):
    terms: tuple["DslExpr", ...]


DslExpr = Union[Generator, BracketNode, StarNode, ScaleNode, SumNode]

_ATOM_KINDS = {"B": AlgebraKind.RHPWN, "Bh": AlgebraKind.WINFINITY}

# Deepest nesting of '[' and '(' the recursive-descent parser accepts: each
# level costs it, and evaluate, at most four Python frames, well inside the
# default recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent: ``kinds[pos]`` is the next token's kind and
    ``texts[pos]`` its text; offsets are found again for a diagnostic only."""

    def __init__(self, text: str, relaxed: bool):
        self.text = text
        self.texts, self.kinds = _tokenize(text)
        self.pos = 0
        self.relaxed = relaxed
        self.depth = 0

    def error(self, pos: int, message: Optional[str] = None, expected=()) -> ParseError:
        """``message``, by default that token ``pos`` is unexpected, at its offset."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        message = message or f"unexpected token {self.texts[pos]!r}"
        return ParseError(message, starts[pos], expected)

    def expect(self, kind: str, expected: tuple[str, ...]) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.error(pos, expected=expected)
        self.pos = pos + 1
        return self.texts[pos]

    def _is_i(self, pos: int) -> bool:
        return self.texts[pos] == "i" and self.kinds[pos] == "name"

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self) -> DslExpr:
        kinds = self.kinds
        terms = [self.parse_term(self._parse_sign())]
        while kinds[self.pos] in ("+", "-"):
            self.pos += 1
            terms.append(self.parse_term(-1 if kinds[self.pos - 1] == "-" else 1))
        return terms[0] if len(terms) == 1 else SumNode(tuple(terms))

    # term := (scalar '*')* postfixed, times ``sign``
    def parse_term(self, sign: int) -> DslExpr:
        kinds, scalars = self.kinds, [] if sign > 0 else [CScalar(-1)]
        while True:
            kind = kinds[self.pos]
            if kind == "int" or self._is_i(self.pos):
                scalars.append(self._parse_part())
            elif kind == "(" and (kinds[self.pos + 1] in ("int", "-") or self._is_i(self.pos + 1)):
                # A group that does not read as a scalar is an expression; only
                # one that opens with an integer, '-' or 'i' is tried as one.
                save = self.pos
                try:
                    scalars.append(self._parse_paren_scalar())
                except ParseError:
                    self.pos = save
                    break
            else:
                break
            self.expect("*", ("*",))
        node = self.parse_postfixed()
        return ScaleNode(math.prod(scalars, start=CS_ONE), node) if scalars else node

    def parse_postfixed(self) -> DslExpr:
        node = self.parse_primary()
        start = self.pos
        while self.kinds[self.pos] == "starpost":
            self.pos += 1
        return StarNode(node) if (self.pos - start) % 2 else node  # '^*' is an involution

    def parse_primary(self) -> DslExpr:
        kind = self.kinds[self.pos]
        if kind == "name" and self.texts[self.pos] in _ATOM_KINDS:
            return self.parse_atom()
        if kind not in ("[", "("):
            raise self.error(self.pos, expected=("B", "Bh", "[", "("))
        if self.depth == MAX_NESTING:
            raise self.error(self.pos, f"nesting deeper than {MAX_NESTING} levels")
        self.pos += 1
        self.depth += 1
        if kind == "[":
            a = self.parse_expr()
            self.expect(",", (",",))
            node = BracketNode(a, self.parse_expr())
            self.expect("]", ("]",))
        else:
            node = self.parse_expr()
            self.expect(")", (")",))
        self.depth -= 1
        return node

    def parse_atom(self) -> Generator:
        at = self.pos
        kind = _ATOM_KINDS[self.texts[at]]
        self.pos += 1
        self.expect("[", ("[",))
        n = self._parse_signed_int()
        self.expect(",", (",",))
        k = self._parse_signed_int()
        self.expect("]", ("]",))
        label = None
        if self.kinds[self.pos] == "@":
            self.pos += 1
            label = self._parse_label()
        if not self.relaxed and not lie.in_domain(kind, n, k):
            raise self.error(at, f"index ({n}, {k}) outside the {kind.value} family "
                             "(pass --relaxed to admit it)")
        return Generator(kind, n, k, label)

    def _parse_sign(self) -> int:
        if self.kinds[self.pos] == "-":
            self.pos += 1
            return -1
        return 1

    def _parse_signed_int(self) -> int:
        return self._parse_sign() * self._parse_int()

    def _parse_int(self) -> int:
        """One integer token; one too long for ``int`` is a ParseError at it."""
        text = self.expect("int", ("integer",))
        try:
            return int(text)
        except ValueError:
            raise self.error(self.pos - 1, f"integer of {len(text)} digits is too long") from None

    def _parse_label(self) -> AnyTestFn:
        kinds = self.kinds
        if self.texts[self.pos] == "step" and kinds[self.pos + 1] == "[":
            return self._parse_step()
        in_S0 = kinds[self.pos] != "!"
        if not in_S0:
            self.pos += 1
        if kinds[self.pos] == "(":
            self.pos += 1
            factors = [self._parse_label_factor()]
            while kinds[self.pos] == "*":
                self.pos += 1
                factors.append(self._parse_label_factor())
            self.expect(")", (")",))
            return FnSymbol(tuple(sorted(factors)), in_S0)
        return FnSymbol((self._parse_label_factor(),), in_S0)

    def _parse_label_factor(self) -> str:
        prefix = ""
        if self.kinds[self.pos] == "~":
            self.pos += 1
            prefix = "~"
        return prefix + self.expect("name", ("test-function name",))

    def _parse_step(self) -> StepFn:
        """'step' '[' [piece (';' piece)*] ']', each piece from,to,re,im."""
        start = self.pos + 1  # the '[': overlapping pieces are reported here
        self.pos += 2
        pieces = []
        while self.kinds[self.pos] != "]":
            if pieces:
                self.expect(";", (";", "]"))
            piece = [self._parse_rational(self._parse_sign())]
            for _ in range(3):
                self.expect(",", (",",))
                piece.append(self._parse_rational(self._parse_sign()))
            pieces.append((*piece[:2], CScalar(*piece[2:])))
        self.pos += 1
        try:
            return canon_pieces(pieces)
        except ValueError as exc:
            raise self.error(start, str(exc)) from None

    # -- scalar literals -----------------------------------------------------

    def _parse_rational(self, sign: int = 1) -> Fraction:
        num = sign * self._parse_int()
        if self.kinds[self.pos] == "/":
            self.pos += 1
            den = self._parse_int()
            if den == 0:
                raise self.error(self.pos - 1, "zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def _parse_paren_scalar(self) -> CScalar:
        self.expect("(", ("(",))
        value = self._parse_part(self._parse_sign())
        while self.kinds[self.pos] in ("+", "-"):
            sign = -1 if self.kinds[self.pos] == "-" else 1
            self.pos += 1
            part = self._parse_part(sign)
            if not part.im or (value.im and part.im):
                raise self.error(self.pos, "malformed complex literal")
            value = _cscalar(value.re, part.im)  # a real part, then an imaginary one
        self.expect(")", (")",))
        return value

    def _parse_part(self, sign: int = 1) -> CScalar:
        """A real or an imaginary literal, times ``sign``."""
        if self._is_i(self.pos):
            self.pos += 1
            return _cscalar(_F0, Fraction(sign))
        value = self._parse_rational(sign)
        if self.kinds[self.pos] == "*" and self._is_i(self.pos + 1):
            self.pos += 2
            return _cscalar(_F0, value)
        return _cscalar(value, _F0)


def parse(text: str, relaxed: bool = False) -> DslExpr:
    """Parse a DSL expression, or raise ParseError with offset diagnostics."""
    parser = _Parser(text, relaxed)
    node = parser.parse_expr()
    if parser.kinds[parser.pos] != "eof":
        raise parser.error(parser.pos, f"trailing input {parser.texts[parser.pos]!r}",
                           ("end of input",))
    return node


def evaluate(ast: DslExpr) -> Element:
    """Evaluate a tree to a canonical algebra element, recursing into each
    node's children. A parsed tree has at most four nodes per level of '[' or
    '(' (a sum, a scale, a star, and a bracket or the group's tree), and that
    nesting is capped at MAX_NESTING: it recurses about 4 * MAX_NESTING frames deep."""
    if isinstance(ast, Generator):
        return Element(ast.kind, ((ast, CS_ONE),))
    if isinstance(ast, BracketNode):
        return lie.bracket(evaluate(ast.a), evaluate(ast.b))
    if isinstance(ast, StarNode):
        return lie.involution(evaluate(ast.a))
    if isinstance(ast, ScaleNode):
        return evaluate(ast.a).scaled(ast.c)
    if isinstance(ast, SumNode):
        first, *rest = ast.terms
        x = evaluate(first)
        terms = list(x.terms)
        for term in rest:
            y = evaluate(term)
            if y.kind is not x.kind:
                raise ValueError("algebra kind mismatch")
            terms += y.terms
        return Element.canonical(terms, x.kind)
    raise TypeError(f"not a DSL node: {ast!r}")


# -- rendering ----------------------------------------------------------------

def _frac_latex(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\tfrac{{{abs(x.numerator)}}}{{{x.denominator}}}"


# Per format: how a rational prints, the imaginary unit, the product sign.
_SCALAR_FORMS = {"text": (str, "*i", "*"), "latex": (_frac_latex, "\\,i", "\\,")}


def _scalar(c: CScalar, fmt: str) -> tuple[int, str]:
    """Return (sign, body) where body multiplies a generator from the left."""
    rational, unit, times = _SCALAR_FORMS[fmt]
    if not c.im:
        mag = abs(c.re)
        return (1 if c.re > 0 else -1), "" if mag == 1 else rational(mag) + times
    if not c.re:
        return 1, f"({rational(c.im)}{unit}){times}"
    im_sign = "+" if c.im > 0 else "-"
    return 1, f"({rational(c.re)}{im_sign}{rational(abs(c.im))}{unit}){times}"


def _label_text(label) -> str:
    if label is None:
        return ""
    if isinstance(label, StepFn):
        pieces = ";".join(f"{a},{b},{v.re},{v.im}" for a, b, v in label.pieces)
        return f"@step[{pieces}]"
    mark = "@" if label.in_S0 else "@!"
    if len(label.factors) == 1:
        return mark + label.factors[0]
    return mark + "(" + "*".join(label.factors) + ")"


def _label_latex(label) -> str:
    if label is None:
        return ""
    if isinstance(label, StepFn):
        return "(\\chi)"
    rendered = [
        f"\\overline{{{f[1:]}}}" if f.startswith("~") else f for f in label.factors
    ]
    return "(" + " ".join(rendered) + ")"


def _generator(g: lie.Generator, fmt: str) -> str:
    rhpwn = g.kind is AlgebraKind.RHPWN
    if fmt == "text":
        return f"{'B' if rhpwn else 'Bh'}[{g.n},{g.k}]{_label_text(g.label)}"
    head = "B" if rhpwn else "\\hat{B}"
    return f"{head}^{{{g.n}}}_{{{g.k}}}{_label_latex(g.label)}"


def render(x: Element, fmt: str = "text") -> str:
    """Deterministic rendering of a canonical element."""
    if fmt == "json":
        return json.dumps(element_to_json(x), sort_keys=True)
    if fmt not in _SCALAR_FORMS:
        raise ValueError(f"unknown format {fmt!r}")
    if x.is_zero:
        return "0"
    chunks = []
    for idx, (g, c) in enumerate(x.terms):
        sign, body = _scalar(c, fmt)
        if idx == 0:
            lead = "-" if sign < 0 else ""
        else:
            lead = " - " if sign < 0 else " + "
        chunks.append(lead + body + _generator(g, fmt))
    return "".join(chunks)
