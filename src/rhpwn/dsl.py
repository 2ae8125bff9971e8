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
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from . import lie
from .lie import AlgebraKind, Element, element_to_json
from .scalars import _F0, CScalar, _cscalar
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

class AtomNode(NamedTuple):
    kind: AlgebraKind
    n: int
    k: int
    label: Optional[AnyTestFn]


class BracketNode(NamedTuple):
    a: "DslExpr"
    b: "DslExpr"


class StarNode(NamedTuple):
    a: "DslExpr"


class ScaleNode(NamedTuple):
    c: CScalar
    a: "DslExpr"


class AddNode(NamedTuple):
    a: "DslExpr"
    b: "DslExpr"


DslExpr = Union[AtomNode, BracketNode, StarNode, ScaleNode, AddNode]

_ATOM_KINDS = {"B": AlgebraKind.RHPWN, "Bh": AlgebraKind.WINFINITY}
_MINUS_ONE = CScalar(-1)

# Deepest nesting of '[' and '(' the recursive-descent parser accepts: each
# level costs it four Python frames, well inside the default recursion limit.
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
        if kinds[self.pos] == "-":
            self.pos += 1
            node: DslExpr = ScaleNode(_MINUS_ONE, self.parse_term())
        else:
            node = self.parse_term()
        while kinds[self.pos] in ("+", "-"):
            op = kinds[self.pos]
            self.pos += 1
            rhs = self.parse_term()
            node = AddNode(node, rhs if op == "+" else ScaleNode(_MINUS_ONE, rhs))
        return node

    # term := (scalar '*')* postfixed
    def parse_term(self) -> DslExpr:
        kinds, scalars = self.kinds, []
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
        for c in reversed(scalars):
            node = ScaleNode(c, node)
        return node

    def parse_postfixed(self) -> DslExpr:
        node = self.parse_primary()
        while self.kinds[self.pos] == "starpost":
            self.pos += 1
            node = StarNode(node)
        return node

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

    def parse_atom(self) -> AtomNode:
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
        return AtomNode(kind, n, k, label)

    def _parse_sign(self) -> int:
        if self.kinds[self.pos] == "-":
            self.pos += 1
            return -1
        return 1

    def _parse_signed_int(self) -> int:
        sign = self._parse_sign()
        return sign * int(self.expect("int", ("integer",)))

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
        num = sign * int(self.expect("int", ("integer",)))
        if self.kinds[self.pos] == "/":
            self.pos += 1
            den = int(self.expect("int", ("integer",)))
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
    """Evaluate an AST to a canonical algebra element.

    Sums, scalar factors and '^*' chains grow one AST level per term, so they
    are walked in loops; only brackets and groups recurse, and the parser
    caps their nesting.
    """
    if isinstance(ast, AtomNode):
        return lie.basis(ast.kind, ast.n, ast.k, ast.label, relaxed=True)
    if isinstance(ast, BracketNode):
        return lie.bracket(evaluate(ast.a), evaluate(ast.b))
    if isinstance(ast, AddNode):
        addends = []
        while isinstance(ast, AddNode):
            addends.append(ast.b)
            ast = ast.a
        first = evaluate(ast)
        terms = list(first.terms)
        for b in reversed(addends):
            x = evaluate(b)
            if x.kind is not first.kind:
                raise ValueError("algebra kind mismatch")
            terms += x.terms
        return Element.canonical(terms, first.kind)
    if isinstance(ast, (StarNode, ScaleNode)):
        unary = []
        while isinstance(ast, (StarNode, ScaleNode)):
            unary.append(ast)
            ast = ast.a
        x = evaluate(ast)
        for node in reversed(unary):
            x = lie.involution(x) if isinstance(node, StarNode) else x.scaled(node.c)
        return x
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
