"""Expression grammar for CLI-supplied functions.

A parsed tree is compiled by one emitter with two op tables, each into one
straight-line generated Python function with an assignment per node: the
scalar table (math functions on Python floats) serves eval and eval_float,
the numpy table serves eval_many on an (m, n) array of points.  Literals,
indicator regions and table callables are bound by name in the function's
namespace, so no source text reaches the generated code and expressions of
one shape share one compiled code object.  + - *, negation, division by a
constant and the scalar pos are written inline; every other op is a call
of the table's function.  Trees deeper than MAX_DEPTH, or nested deeper
than MAX_NESTING, are parse errors.
Both follow the same IEEE rules, with nan/inf propagation; where numpy's
own result differs from the scalar rule (1/-0.0, 0^negative, nan^0,
hypot(inf, nan)) the numpy table masks it back, so the two agree except for
ulp-level differences between libm and numpy in exp, pow and hypot.
Constant subtrees are folded when compiling, and each table has two entries
for a constant right operand that cannot reach those cases: "/c" (a divisor
neither zero nor nan) and "^c" (a positive exponent), the plain division
and power, bit-identical to the general rules there.

The final value is converted to an extended positive value (eval) or a
float with 0.0 and inf as the tags (eval_float, eval_many).  A negative or
undefined (nan) full-expression value is an error: clamping to zero is only
ever explicit, via the pos(...) node.  The indicator of a set takes the
value +inf inside the set and 0 outside, matching the convention under
which constraint indicators transform into gauges.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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

#: Each function with the fewest and the most arguments it takes.
_ARITY = dict.fromkeys(("sqrt", "exp", "abs", "sin", "cos", "pos"), (1, 1))
_ARITY.update(min=(2, math.inf), max=(2, math.inf), norm=(1, math.inf))
_INDICATOR_KINDS = ("ball", "box", "halfspace")
#: The deepest syntax tree parse accepts, and the deepest nesting of
#: parentheses, calls, signs and powers (up to six parser frames a level):
#: deeper input would exhaust Python's recursion limit in parse or unparse.
MAX_DEPTH = 500
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
    tokens.append(_Token("end", "", len(text)))
    return tokens


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


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
        self.nesting = 0

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
        if self.nesting == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", tok.pos)
        self.nesting += 1
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            child = self.unary()
            node = Neg(child) if tok.text == "-" else child
        else:
            node = self.power()
        self.nesting -= 1
        return node

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
            return Num(math.inf)
        if re.fullmatch(r"x\d+", name):
            index = int(name[1:])
            if index >= self.dim:
                raise ParseError(f"variable {name} out of range for dim {self.dim}", tok.pos)
            return Var(index)
        if name == "indicator":
            return self.indicator(tok)
        if name in _ARITY:
            self.expect("(")
            args = [self.expr()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                args.append(self.expr())
            self.expect(")")
            least, most = _ARITY[name]
            if len(args) > most:
                raise ParseError(f"{name} takes exactly {most} argument, got {len(args)}", tok.pos)
            if len(args) < least:
                raise ParseError(f"{name} takes at least {least} arguments, got {len(args)}", tok.pos)
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
    parser = _Parser(text, int(dim))
    tree = parser.parse()
    if len(parser.tokens) > MAX_DEPTH:  # each level of a tree has a token of its own
        _postorder(tree)
    return tree


def _safe_pow(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return _pow(a, b)


def _pow(a: float, b: float) -> float:
    """math.pow with the IEEE value where it raises.  For b != 0 a nan base
    already gives nan, so a positive constant exponent needs no nan test."""
    try:
        return math.pow(a, b)
    except ValueError:
        if a == 0.0 and b < 0.0:
            return math.inf
        return math.nan
    except OverflowError:
        negative = a < 0.0 and float(b).is_integer() and int(b) % 2 == 1
        return -math.inf if negative else math.inf


def _safe_unary(func):
    def apply(a: float) -> float:
        try:
            return func(a)
        except ValueError:
            return math.nan
        except OverflowError:
            return math.inf

    return apply


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a)
    return a / b


def _nan_if_any_nan(func):
    def apply(*vals: float) -> float:
        if any(math.isnan(v) for v in vals):
            return math.nan
        return func(*vals)

    return apply


#: Scalar rules over Python floats: math functions, with the IEEE value
#: wherever math raises.  A point arrives as a list of floats.
_MATH_OPS = {
    "var": lambda i: lambda x: x[i],
    "indicator": lambda region: lambda x: math.inf if region.member(np.array(x)) else 0.0,
    "neg": operator.neg,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _safe_div,
    "^": _safe_pow,
    "/c": operator.truediv,  # by a constant that is neither zero nor nan
    "^c": _pow,  # to a positive constant
    "sqrt": _safe_unary(math.sqrt),
    "exp": _safe_unary(math.exp),
    "abs": math.fabs,
    "sin": _safe_unary(math.sin),
    "cos": _safe_unary(math.cos),
    "pos": lambda a: a if a > 0.0 else 0.0,
    "min": _nan_if_any_nan(min),
    "max": _nan_if_any_nan(max),
    "norm": _nan_if_any_nan(math.hypot),
}


def _np_div(a, b):
    undefined = (a == 0.0) | np.isnan(a)
    return np.where(b == 0.0, np.where(undefined, np.nan, np.copysign(np.inf, a)), np.divide(a, b))


def _np_pow(a, b):
    value = np.where(np.isnan(a) | np.isnan(b), np.nan, np.power(a, b))
    return np.where((a == 0.0) & (b < 0.0), np.inf, value)


def _np_norm(*vals):
    undefined = functools.reduce(np.logical_or, [np.isnan(v) for v in vals])
    return np.where(undefined, np.nan, functools.reduce(np.hypot, vals, 0.0))


#: The same rules column-wise over an (m, n) array, evaluated under
#: np.errstate(all="ignore").  numpy's own results differ from the scalar
#: rules at 1/-0.0, 0^negative, nan^0, 1^nan and hypot(inf, nan); those
#: cases are masked back to the scalar values.  Finite results may differ
#: from math's by an ulp (numpy's exp, pow and hypot are its own).
_NUMPY_OPS = {
    "var": lambda i: lambda x: x[:, i],
    "indicator": lambda region: lambda x: np.where(
        np.fromiter(map(region.member, x), dtype=bool, count=x.shape[0]), np.inf, 0.0
    ),
    "neg": operator.neg,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _np_div,
    "^": _np_pow,
    "/c": np.divide,  # _np_div's masks change a value only where b == 0
    "^c": np.power,  # _np_pow's only where b <= 0 or b is nan
    "sqrt": np.sqrt,
    "exp": np.exp,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "pos": lambda a: np.fmax(a, 0.0),  # fmax drops nan; a zero's sign never matters
    "min": lambda *vals: functools.reduce(np.minimum, vals),
    "max": lambda *vals: functools.reduce(np.maximum, vals),
    "norm": _np_norm,
}


#: Op table entries written inline, where Python's operator is the same
#: IEEE operation as the table's callable; every other op is a call.
_INLINE = {"neg": "-{0}", "+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}", "/c": "{0} / {1}"}
_MATH_INLINE = {**_INLINE, "var": "x[{0}]", "pos": "{0} if {0} > 0.0 else 0.0"}
_NUMPY_INLINE = {**_INLINE, "var": "x[:, {0}]"}


def _postorder(tree) -> list:
    """The nodes of a tree, each after its children, left to right.  A tree
    deeper than MAX_DEPTH is a ParseError (its deepest node is a leaf)."""
    order, stack = [], [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is Bin:
            stack += (node.left, depth + 1), (node.right, depth + 1)
        elif kind is Neg:
            stack.append((node.child, depth + 1))
        elif kind is Call:
            stack += [(arg, depth + 1) for arg in node.args]
        elif depth > MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
    return order[::-1]


_compiled = functools.lru_cache(maxsize=256)(compile)  # one code object per kernel source
#: parse_function's scalar return: negative or nan raises, -0.0 is the ZERO tag.
_CHECKED = "if not {0} >= 0.0:\n        raise range_error({0}, x)\n    return {0} + 0.0"


def _kernel(nodes, ops, inline, tail="return {0}"):
    """Compile a syntax tree, given as its _postorder nodes, over one op
    table into a straight-line function of x, one assignment per node (see
    the module docstring).  A constant subtree is folded: its ops run once,
    here.  A constant right operand that cannot reach the general rule's
    special cases, a divisor neither zero nor nan or a positive exponent,
    takes the plain op ("/c", "^c"), which gives the same bits.  tail
    formats the return statement from the result's name."""
    namespace, lines = {"range_error": ExpressionRangeError}, []

    def bind(value, prefix):
        name = f"{prefix}{len(namespace)}"
        namespace[name] = value
        return name

    stack = []  # operands: a constant as its value, a computed one by name
    for node in nodes:
        kind = type(node)
        if kind is Num:
            stack.append(node.value)
            continue
        if kind is Var:
            text = inline["var"].format(node.index)
        elif kind is Indicator:
            text = f"{bind(ops['indicator'](node.region), 'f')}(x)"
        else:
            key, n = ("neg", 1) if kind is Neg else (node.op, 2) if kind is Bin else (node.func, len(node.args))
            args = stack[-n:]
            del stack[-n:]
            if (key == "/" or key == "^") and type(args[1]) is not str:
                c = args[1]
                if (c != 0.0 and c == c) if key == "/" else c > 0.0:
                    key += "c"
            if str not in map(type, args):
                with np.errstate(all="ignore"):
                    stack.append(ops[key](*args))
                continue
            names = []
            for arg in args:
                if type(arg) is not str:  # a constant, bound by name
                    name = f"c{len(namespace)}"
                    namespace[name], arg = arg, name
                names.append(arg)
            text = inline[key].format(*names) if key in inline else f"{bind(ops[key], 'f')}({', '.join(names)})"
        stack.append(f"t{len(lines)}")
        lines.append(f"    t{len(lines)} = {text}")
    (result,) = stack
    lines.append("    " + tail.format(result if type(result) is str else bind(result, "c")))
    source = "\n".join(["def kernel(x):", *lines])
    exec(_compiled(source, "<radial kernel>", "exec"), namespace)
    return namespace.pop("kernel")  # no function-globals cycle for the collector


def evaluate(node, x: np.ndarray) -> float:
    """Evaluate a syntax tree at one point x with the scalar IEEE rules."""
    return _kernel(_postorder(node), _MATH_OPS, _MATH_INLINE)(np.asarray(x, dtype=float).tolist())


def unparse(node) -> str:
    """Render a tree back to source, fully parenthesized so that reparsing
    reconstructs the identical tree (if those parentheses nest within
    MAX_NESTING: a long chain of + or * nests one level per operator)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
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


def parse_function(text: str, dim: int, grad=None, hess=None, meta=UNKNOWN_META, name=None) -> FunctionOracle:
    """Build a FunctionOracle from expression source.

    The tree is compiled twice: with the scalar rules and the range check
    into the scalar callback (FunctionOracle derives eval from it), and with
    the numpy rules for eval_many; eval_float and eval_many return floats
    with 0.0 and inf as the tags.  Without grad the gradient falls back
    to finite differences (no analytic composition is attempted); grad,
    hess, meta and name (default: the unparsed source) are attached as
    given, so a caller that knows the derivatives or the radiality of an
    expression declares them here.  A top-level negative or nan value
    raises ExpressionRangeError pointing at pos(...) rather than clamping
    implicitly; eval_many names the first offending row.
    """
    tree = parse(text, dim)
    source, nodes = unparse(tree), _postorder(tree)
    batch = _kernel(nodes, _NUMPY_OPS, _NUMPY_INLINE)

    def _eval_many(x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            # A constant expression compiles to a scalar; adding zeros also turns -0.0 into 0.0.
            t = batch(x) + np.zeros(x.shape[0])
        valid = t >= 0.0  # False for nan too
        if np.count_nonzero(valid) != t.size:
            i = int(np.argmin(valid))
            raise ExpressionRangeError(float(t[i]), x[i].tolist(), i)
        return t

    return FunctionOracle(dim, grad=grad, hess=hess, meta=meta, name=name or source, many=_eval_many, scalar=_kernel(nodes, _MATH_OPS, _MATH_INLINE, _CHECKED))
