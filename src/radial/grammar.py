"""Expression grammar for CLI-supplied functions.

Evaluation happens over IEEE floats with nan/inf propagation; the final
value is converted to an extended positive value.  A negative or undefined
(nan) full-expression value is an error: clamping to zero is only ever
explicit, via the pos(...) node.  The indicator of a set takes the value
+inf inside the set and 0 outside, matching the convention under which
constraint indicators transform into gauges.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core import INF, ZERO, ExtPos
from .errors import ExpressionRangeError, ParseError
from .oracle import UNKNOWN_META, FunctionOracle
from .sets import SetOracle, ball_set, box_set, halfspace_set

GRAMMAR_EBNF = """
expr      = term { ("+" | "-") term } ;
term      = unary { ("*" | "/") unary } ;
unary     = ("-" | "+") unary | power ;
power     = atom [ "^" unary ] ;                    (* right associative *)
atom      = NUMBER | "inf" | VARIABLE | call | indicator | "(" expr ")" ;
call      = FUNC "(" expr { "," expr } ")" ;
indicator = "indicator" "(" KIND { [","] SIGNED } ")" ;
FUNC      = "sqrt" | "exp" | "abs" | "sin" | "cos" | "min" | "max" | "norm" | "pos" ;
KIND      = "ball" | "box" | "halfspace" ;
VARIABLE  = "x0" ... "x{dim-1}" ;
NUMBER    = positive literal, decimal or scientific ;
SIGNED    = [ "-" ] NUMBER ;

arity: sqrt/exp/abs/sin/cos/pos take 1 argument, min/max at least 2,
norm at least 1.  indicator(ball r) is the centered ball of radius r,
indicator(box lo hi) the per-coordinate box [lo, hi]^dim, and
indicator(halfspace a_1 .. a_dim b) the set {x : a.x <= b}.
"""

_UNARY_FUNCS = ("sqrt", "exp", "abs", "sin", "cos", "pos")
_VARIADIC_FUNCS = ("min", "max", "norm")
_INDICATOR_KINDS = ("ball", "box", "halfspace")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None or m.lastgroup is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    name: str  # only "inf"


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


@dataclass(frozen=True)
class Indicator:
    kind: str
    params: tuple[float, ...]
    region: SetOracle = field(compare=False, repr=False)


class _Parser:
    def __init__(self, text: str, dim: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            child = self.unary()
            return Neg(child) if tok.text == "-" else child
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = Bin("^", node, self.unary())
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            return self.identifier()
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def identifier(self):
        tok = self.advance()
        name = tok.text
        if name == "inf":
            return Const("inf")
        if re.fullmatch(r"x\d+", name):
            index = int(name[1:])
            if index >= self.dim:
                raise ParseError(f"variable {name} out of range for dim {self.dim}", tok.pos)
            return Var(index)
        if name == "indicator":
            return self.indicator(tok)
        if name in _UNARY_FUNCS or name in _VARIADIC_FUNCS:
            self.expect("(")
            args = [self.expr()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                args.append(self.expr())
            self.expect(")")
            if name in _UNARY_FUNCS and len(args) != 1:
                raise ParseError(f"{name} takes exactly 1 argument, got {len(args)}", tok.pos)
            if name == "norm" and len(args) < 1:
                raise ParseError("norm takes at least 1 argument", tok.pos)
            if name in ("min", "max") and len(args) < 2:
                raise ParseError(f"{name} takes at least 2 arguments, got {len(args)}", tok.pos)
            return Call(name, tuple(args))
        raise ParseError(f"unknown identifier {name!r}", tok.pos)

    def indicator(self, tok: _Token):
        self.expect("(")
        kind_tok = self.peek()
        if kind_tok.kind != "ident" or kind_tok.text not in _INDICATOR_KINDS:
            raise ParseError("indicator kind must be ball, box, or halfspace", kind_tok.pos)
        self.advance()
        params = []
        while True:
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == ",":
                self.advance()
                continue
            if nxt.kind == "op" and nxt.text == ")":
                self.advance()
                break
            params.append(self.signed_number())
        kind = kind_tok.text
        expected = {"ball": 1, "box": 2, "halfspace": self.dim + 1}[kind]
        if len(params) != expected:
            raise ParseError(
                f"indicator({kind} ...) takes {expected} numeric arguments, got {len(params)}", tok.pos
            )
        try:
            if kind == "ball":
                region = ball_set(self.dim, params[0])
            elif kind == "box":
                region = box_set(np.full(self.dim, params[0]), np.full(self.dim, params[1]))
            else:
                region = halfspace_set(np.array(params[:-1]), params[-1])
        except ValueError as exc:
            raise ParseError(f"indicator({kind} ...): {exc}", tok.pos) from exc
        return Indicator(kind, tuple(params), region)

    def signed_number(self) -> float:
        tok = self.peek()
        sign = 1.0
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1.0 if tok.text == "-" else 1.0
            tok = self.peek()
        if tok.kind != "num":
            raise ParseError("expected a numeric literal", tok.pos)
        self.advance()
        return sign * float(tok.text)


def parse(text: str, dim: int):
    """Parse an expression into its syntax tree (see GRAMMAR_EBNF)."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    if int(dim) < 1:
        raise ValueError("dim must be >= 1")
    return _Parser(text, int(dim)).parse()


def _safe_pow(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    try:
        return math.pow(a, b)
    except ValueError:
        if a == 0.0 and b < 0.0:
            return math.inf
        return math.nan
    except OverflowError:
        negative = a < 0.0 and float(b).is_integer() and int(b) % 2 == 1
        return -math.inf if negative else math.inf


def _safe_unary(func, a: float) -> float:
    try:
        return func(a)
    except ValueError:
        return math.nan
    except OverflowError:
        return math.inf


def evaluate(node, x: np.ndarray) -> float:
    """Evaluate a syntax tree at x with IEEE float semantics."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index])
    if isinstance(node, Const):
        return math.inf
    if isinstance(node, Neg):
        return -evaluate(node.child, x)
    if isinstance(node, Bin):
        a = evaluate(node.left, x)
        b = evaluate(node.right, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                if a == 0.0 or math.isnan(a):
                    return math.nan
                return math.copysign(math.inf, a)
            return a / b
        return _safe_pow(a, b)
    if isinstance(node, Call):
        vals = [evaluate(arg, x) for arg in node.args]
        f = node.func
        if f == "sqrt":
            return _safe_unary(math.sqrt, vals[0])
        if f == "exp":
            return _safe_unary(math.exp, vals[0])
        if f == "abs":
            return math.fabs(vals[0])
        if f == "sin":
            return _safe_unary(math.sin, vals[0])
        if f == "cos":
            return _safe_unary(math.cos, vals[0])
        if f == "pos":
            v = vals[0]
            return 0.0 if (math.isnan(v) or v <= 0.0) else v
        if any(math.isnan(v) for v in vals):
            return math.nan
        if f == "min":
            return min(vals)
        if f == "max":
            return max(vals)
        if f == "norm":
            return math.hypot(*vals)
        raise AssertionError(f"unhandled call {f}")
    if isinstance(node, Indicator):
        return math.inf if node.region.member(x) else 0.0
    raise AssertionError(f"unhandled node {type(node).__name__}")


def unparse(node) -> str:
    """Render a tree back to source, fully parenthesized so that reparsing
    reconstructs the identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Const):
        return "inf"
    if isinstance(node, Neg):
        return f"(-{unparse(node.child)})"
    if isinstance(node, Bin):
        return f"({unparse(node.left)} {node.op} {unparse(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(unparse(a) for a in node.args)})"
    if isinstance(node, Indicator):
        params = " ".join(repr(p) for p in node.params)
        return f"indicator({node.kind} {params})"
    raise AssertionError(f"unhandled node {type(node).__name__}")


def parse_function(text: str, dim: int) -> FunctionOracle:
    """Build a FunctionOracle from expression source.

    The oracle's gradient falls back to finite differences (no analytic
    composition is attempted) and its radiality metadata starts unknown.
    A top-level negative or nan value raises ExpressionRangeError pointing
    at pos(...) rather than clamping implicitly.
    """
    tree = parse(text, dim)
    source = unparse(tree)

    def _eval(x: np.ndarray) -> ExtPos:
        t = evaluate(tree, x)
        if math.isnan(t) or t < 0.0:
            raise ExpressionRangeError(
                f"expression evaluated to {t!r} at {x.tolist()}; wrap it in pos(...) "
                "to clamp negative/undefined values to zero"
            )
        if t == 0.0:
            return ZERO
        if math.isinf(t):
            return INF
        return ExtPos.finite(t)

    return FunctionOracle(dim, _eval, meta=UNKNOWN_META, name=source)
