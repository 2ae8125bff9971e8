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
from .scalars import CS_I, CScalar
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


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<starpost>\^\*)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[\[\](),;+\-*/@~!])",
    re.ASCII,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "punct" else m.group()
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


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

# Deepest nesting of '[' and '(' the recursive-descent parser accepts: each
# level costs it four Python frames, well inside the default recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, relaxed: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.relaxed = relaxed
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], expected)
        return self.advance()

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self) -> DslExpr:
        if self.peek()[0] == "-":
            self.advance()
            node: DslExpr = ScaleNode(CScalar.of(-1), self.parse_term())
        else:
            node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            node = AddNode(node, rhs if op == "+" else ScaleNode(CScalar.of(-1), rhs))
        return node

    # term := (scalar '*')* postfixed
    def parse_term(self) -> DslExpr:
        scalars = []
        while True:
            tok = self.peek()
            if tok[0] == "int" or (tok[0] == "name" and tok[1] == "i"):
                scalars.append(self._parse_part())
            elif tok[0] == "(":
                # A group that does not read as a scalar is an expression.
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
        while self.peek()[0] == "starpost":
            self.advance()
            node = StarNode(node)
        return node

    def parse_primary(self) -> DslExpr:
        tok = self.peek()
        if tok[0] == "name" and tok[1] in _ATOM_KINDS:
            return self.parse_atom()
        if tok[0] not in ("[", "("):
            raise ParseError(
                f"unexpected token {tok[1]!r}", tok[2], ("B", "Bh", "[", "(")
            )
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok[2])
        self.advance()
        self.depth += 1
        if tok[0] == "[":
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
        name_tok = self.advance()
        kind = _ATOM_KINDS[name_tok[1]]
        self.expect("[", ("[",))
        n = self._parse_signed_int()
        self.expect(",", (",",))
        k = self._parse_signed_int()
        self.expect("]", ("]",))
        label = None
        if self.peek()[0] == "@":
            self.advance()
            label = self._parse_label()
        if not self.relaxed and not lie.in_domain(kind, n, k):
            raise ParseError(
                f"index ({n}, {k}) outside the {kind.value} family "
                "(pass --relaxed to admit it)",
                name_tok[2],
            )
        return AtomNode(kind, n, k, label)

    def _parse_sign(self) -> int:
        if self.peek()[0] == "-":
            self.advance()
            return -1
        return 1

    def _parse_signed_int(self) -> int:
        sign = self._parse_sign()
        tok = self.expect("int", ("integer",))
        return sign * int(tok[1])

    def _parse_label(self) -> AnyTestFn:
        if self.peek()[1] == "step" and self.tokens[self.pos + 1][0] == "[":
            return self._parse_step()
        in_S0 = self.peek()[0] != "!"
        if not in_S0:
            self.advance()
        if self.peek()[0] == "(":
            self.advance()
            factors = [self._parse_label_factor()]
            while self.peek()[0] == "*":
                self.advance()
                factors.append(self._parse_label_factor())
            self.expect(")", (")",))
            return FnSymbol(tuple(sorted(factors)), in_S0)
        return FnSymbol((self._parse_label_factor(),), in_S0)

    def _parse_label_factor(self) -> str:
        prefix = ""
        if self.peek()[0] == "~":
            self.advance()
            prefix = "~"
        tok = self.expect("name", ("test-function name",))
        return prefix + tok[1]

    def _parse_step(self) -> StepFn:
        """'step' '[' [piece (';' piece)*] ']', each piece from,to,re,im."""
        self.advance()
        start = self.advance()[2]  # the '[': overlapping pieces are reported here
        pieces = []
        while self.peek()[0] != "]":
            if pieces:
                self.expect(";", (";", "]"))
            piece = [self._parse_sign() * self._parse_rational()]
            for _ in range(3):
                self.expect(",", (",",))
                piece.append(self._parse_sign() * self._parse_rational())
            pieces.append((*piece[:2], CScalar(*piece[2:])))
        self.advance()
        try:
            return canon_pieces(pieces)
        except ValueError as exc:
            raise ParseError(str(exc), start) from None

    # -- scalar literals -----------------------------------------------------

    def _parse_rational(self) -> Fraction:
        tok = self.expect("int", ("integer",))
        num = int(tok[1])
        if self.peek()[0] == "/":
            self.advance()
            den_tok = self.expect("int", ("integer",))
            if int(den_tok[1]) == 0:
                raise ParseError("zero denominator", den_tok[2])
            return Fraction(num, int(den_tok[1]))
        return Fraction(num)

    def _parse_paren_scalar(self) -> CScalar:
        self.expect("(", ("(",))
        value = self._parse_signed_part()
        while self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
            part = self._parse_part()
            if not part.im or (value.im and part.im):
                tok = self.peek()
                raise ParseError("malformed complex literal", tok[2])
            value = value + part * sign
        self.expect(")", (")",))
        return value

    def _parse_signed_part(self) -> CScalar:
        sign = self._parse_sign()
        return self._parse_part() * sign

    def _parse_part(self) -> CScalar:
        tok = self.peek()
        if tok[0] == "name" and tok[1] == "i":
            self.advance()
            return CS_I
        value = self._parse_rational()
        if self.peek()[0] == "*":
            save = self.pos
            self.advance()
            nxt = self.peek()
            if nxt[0] == "name" and nxt[1] == "i":
                self.advance()
                return CScalar(Fraction(0), value)
            self.pos = save
        return CScalar(value)


def parse(text: str, relaxed: bool = False) -> DslExpr:
    """Parse a DSL expression, or raise ParseError with offset diagnostics."""
    parser = _Parser(text, relaxed)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end of input",))
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
        total = evaluate(ast)
        for b in reversed(addends):
            total = total + evaluate(b)
        return total
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
