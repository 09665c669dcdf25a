import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import expressions, overflowing_expressions
from radial import INF, ZERO, DualHandle, ExpressionRangeError, ExtPos, ParseError, grammar, parse_function
from radial import RadialError, perspective, transform
from radial.oracle import DECLARED_STRICT
from radial.transform import V_MAX, V_MIN
from radial.grammar import _MATH_OPS, _NUMPY_OPS, Bin, Call, Indicator, Neg, Num, Var, evaluate, parse, unparse

# Expressions that are total (never negative/nan at the top level) so the
# reprint round-trip can be checked by evaluation anywhere.
ROUND_TRIP_CORPUS = [
    ("pos(sqrt(1 - x0^2))", 1),
    ("exp(-abs(x0)) + 0.5", 1),
    ("(x0+1)^2 + 0.5", 1),
    ("pos(min(2 - x0, 2 + x0))", 1),
    ("max(1, min(abs(x0), 2))", 1),
    ("pos(1 - norm(x0, x1))", 2),
    ("indicator(ball 1)", 2),
    ("indicator(box -1 1)", 2),
    ("indicator(halfspace 1 2 1)", 2),
    ("2 / (1 + x0^2)", 1),
    ("x0^2 + 1e-3", 1),
    ("pos(sin(x0) + 2)", 1),
    ("pos(cos(x0) * 0.5 + 1)", 1),
    ("inf", 1),
    ("abs(x0) ^ 2 + 0.25", 1),
    ("pos(2 - (x0 - 1)^2)", 1),
    ("1e999", 1),
    ("x0 + 1e999", 1),
]


class TestParsing:
    def test_cap_example(self):
        f = parse_function("pos(sqrt(1 - x0^2))", 1)
        assert f.eval(np.array([0.0])) == ExtPos.finite(1.0)
        assert f.eval(np.array([2.0])) is ZERO

    def test_bump_example(self):
        f = parse_function("exp(-abs(x0)) + 0.5", 1)
        assert f.eval(np.array([0.0])) == ExtPos.finite(1.5)

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_function("max(", 1)
        assert exc.value.position == 4

    def test_error_positions_and_kinds(self):
        with pytest.raises(ParseError):
            parse_function("", 1)
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_function("foo(x0)", 1)
        with pytest.raises(ParseError, match="out of range"):
            parse_function("x5", 2)
        with pytest.raises(ParseError, match="at least 2"):
            parse_function("min(x0)", 1)
        with pytest.raises(ParseError, match="exactly 1"):
            parse_function("sqrt(x0, 1)", 1)
        with pytest.raises(ParseError, match="trailing"):
            parse_function("1 + 2 )", 1)
        with pytest.raises(ParseError, match="unexpected character"):
            parse_function("x0 ? 2", 1)

    @pytest.mark.parametrize(
        "source,message",
        [
            ("sqrt(x0,1)", "sqrt takes exactly 1 argument, got 2"),
            ("min(x0)", "min takes at least 2 arguments, got 1"),
            ("max(x0)", "max takes at least 2 arguments, got 1"),
            ("norm()", "unexpected token ')'"),
        ],
    )
    def test_arity_messages(self, source, message):
        with pytest.raises(ParseError) as exc:
            parse_function(source, 1)
        assert str(exc.value).startswith(message + " (at offset")

    def test_inf_is_the_overflowing_literal(self):
        assert parse("inf", 1) == parse("1e999", 1) == Num(math.inf)

    def test_precedence(self):
        f = parse_function("2 + 3 * x0 ^ 2", 1)
        assert f.eval(np.array([2.0])) == ExtPos.finite(14.0)
        g = parse_function("-x0^2 + 5", 1)  # unary minus binds below the power
        assert g.eval(np.array([2.0])) == ExtPos.finite(1.0)

    def test_indicator_validation(self):
        with pytest.raises(ParseError, match="radius"):
            parse_function("indicator(ball -1)", 1)
        with pytest.raises(ParseError, match="lo < hi"):
            parse_function("indicator(box 1 -1)", 1)
        with pytest.raises(ParseError, match="numeric arguments"):
            parse_function("indicator(halfspace 1 1)", 2)
        with pytest.raises(ParseError, match="kind"):
            parse_function("indicator(wedge 1)", 1)

    @pytest.mark.parametrize("source", ["indicator(halfspace 1 1e999)", "indicator(halfspace 1e999 1)", "indicator(halfspace -1e999 0)"])
    def test_indicator_halfspace_numbers_must_be_finite(self, source):
        with pytest.raises(ParseError, match="finite a and b"):
            parse_function(source, 1)

    @pytest.mark.parametrize(
        "source,message",
        [
            ("indicator(ball 1e999)", "radius must be finite"),
            ("indicator(box -1e999 1)", "box requires finite lo and hi"),
            ("indicator(box -1 1e999)", "box requires finite lo and hi"),
        ],
    )
    def test_indicator_ball_and_box_numbers_must_be_finite(self, source, message):
        with pytest.raises(ParseError, match=message):
            parse_function(source, 1)

    def test_indicator_accepts_commas(self):
        f = parse_function("indicator(box, -1, 1)", 1)
        assert f.eval(np.array([0.0])) is INF
        assert f.eval(np.array([3.0])) is ZERO


class TestDepth:
    @pytest.mark.parametrize(
        "source",
        [
            "(" * 300 + "x0" + ")" * 300,
            "^".join(["x0"] * 1000 + ["1"]),
            "+".join(["x0"] * 1000),
            "+".join(["x0"] * (grammar.MAX_DEPTH + 1)),
            "-" * grammar.MAX_NESTING + "x0",
            "sqrt(" * 101 + "x0" + ")" * 101,
            "(" + "+".join(["x0"] * 300) + ")*" + "+".join(["x0"] * 300),
        ],
        ids=["parentheses", "powers", "sum", "longest sum", "signs", "calls", "chains"],
    )
    def test_too_deep_is_a_parse_error(self, source):
        with pytest.raises(ParseError, match="deeper than"):
            parse(source, 1)
        with pytest.raises(ParseError, match="deeper than"):
            parse_function(source, 1)

    def test_the_deepest_accepted_input_parses_and_evaluates(self):
        """A sum of MAX_DEPTH terms and MAX_NESTING levels of signs,
        parentheses, calls and powers (two levels for each "-(") parse,
        unparse and evaluate, in both forms."""
        assert grammar.MAX_NESTING == 100
        total = "+".join(["x0"] * grammar.MAX_DEPTH)
        nested = "-(" * 24 + "+" + "abs(" * 49 + "x0^2" + ")" * 73
        for source, want in ((total, 2.0 * grammar.MAX_DEPTH), (nested, 4.0)):
            f = parse_function(source, 1)
            assert f.name == unparse(parse(source, 1))
            assert f.eval_float([2.0]) == f.eval_many(np.array([[2.0]]))[0] == want


class TestEvaluation:
    def test_infinity_constant_and_division(self):
        f = parse_function("inf", 1)
        assert f.eval(np.array([0.0])) is INF
        g = parse_function("1 / x0^2", 1)
        assert g.eval(np.array([0.0])) is INF  # pole maps to the infinity tag

    def test_negative_requires_explicit_pos(self):
        f = parse_function("1 - x0", 1)
        assert f.eval(np.array([0.5])) == ExtPos.finite(0.5)
        with pytest.raises(ExpressionRangeError, match="pos"):
            f.eval(np.array([2.0]))

    def test_undefined_requires_explicit_pos(self):
        f = parse_function("sqrt(1 - x0^2)", 1)
        with pytest.raises(ExpressionRangeError):
            f.eval(np.array([2.0]))
        clamped = parse_function("pos(sqrt(1 - x0^2))", 1)
        assert clamped.eval(np.array([2.0])) is ZERO

    def test_zero_maps_to_zero_tag(self):
        f = parse_function("pos(x0)", 1)
        assert f.eval(np.array([-3.0])) is ZERO
        assert f.eval(np.array([0.0])) is ZERO

    def test_halfspace_indicator_semantics(self):
        f = parse_function("indicator(halfspace 1 2 1)", 2)
        assert f.eval(np.array([0.0, 0.0])) is INF  # 0 <= 1: inside
        assert f.eval(np.array([1.0, 1.0])) is ZERO  # 3 > 1: outside


class TestRoundTrip:
    @pytest.mark.parametrize("source,dim", ROUND_TRIP_CORPUS)
    def test_reprint_evaluates_identically(self, source, dim):
        tree = parse(source, dim)
        reprinted = unparse(tree)
        tree2 = parse(reprinted, dim)
        assert tree2 == tree  # fully parenthesized print reconstructs the AST
        rng = np.random.default_rng(hash(source) % 2**32)
        for _ in range(1000):
            x = rng.uniform(-3.0, 3.0, size=dim)
            a, b = evaluate(tree, x), evaluate(tree2, x)
            assert (a == b) or (math.isnan(a) and math.isnan(b))

    @pytest.mark.parametrize(
        "source,name",
        [
            ("+".join(["x0"] * 150), "(" + " + ".join(["x0"] * 150) + ")"),
            ("x0 - 1 - 2/x0/3*4 + x0", "(x0 - 1.0 - (2.0 / x0 / 3.0 * 4.0) + x0)"),
            ("x0 - (1 - x0) / (2 / x0) * x0^2^3", "(x0 - ((1.0 - x0) / (2.0 / x0) * (x0 ^ (2.0 ^ 3.0))))"),
            ("-x0 * 2 - (-x0 / 2 - 1)", "(((-x0) * 2.0) - (((-x0) / 2.0) - 1.0))"),
        ],
    )
    def test_a_chain_reparses_from_its_name(self, source, name):
        """A left operand of the same precedence prints without its own
        parentheses, so a 150-term sum, longer than MAX_NESTING, and mixed
        - and / chains reparse from their names to the same tree."""
        f = parse_function(source, 1)
        assert f.name == name
        assert parse(f.name, 1) == parse(source, 1)


@given(expr=overflowing_expressions)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_reparse_reconstructs_the_tree(expr):
    """unparse prints a tree that parses back to the same tree, including
    literals that overflow to inf."""
    tree = parse(expr, 1)
    assert parse(unparse(tree), 1) == tree


# Points where numpy's own result differs from the scalar rule, with the
# value both tables must give: the numpy table masks these back.
PINNED = [
    ("1/x0", -0.0, math.inf),  # numpy: -inf; the rule takes the sign of the numerator
    ("(-x0)^-1", 0.0, math.inf),  # numpy: -inf for (-0.0)^-1
    ("pos(norm(inf, x0))", math.nan, 0.0),  # np.hypot(inf, nan) is inf, the rule gives nan
    ("pos(x0)", math.nan, 0.0),
    ("-((-x0)^3)", 1e200, math.inf),  # an odd power of a negative overflows to -inf
    ("pos((-x0)^3)", 1e200, 0.0),
    ("pos(x0^0) + 2", math.nan, 2.0),  # numpy: nan^0 = 1; the rule gives nan
    ("pos(1^x0) + 2", math.nan, 2.0),  # numpy: 1^nan = 1
]


class TestBatchEvaluation:
    @pytest.mark.parametrize("source,x,want", PINNED)
    def test_pinned_defaults(self, source, x, want):
        f = parse_function(source, 1)
        assert f.eval(np.array([x])).as_float() == want
        (got,) = f.eval_many(np.array([[x]]))
        assert got == want and not np.signbit(got)

    def test_range_error_names_first_offending_row(self):
        f = parse_function("1 - x0", 1)
        with pytest.raises(ExpressionRangeError, match=r"at \[3.0\] \(row 2\)"):
            f.eval_many(np.array([[0.5], [1.0], [3.0], [4.0]]))

    def test_range_error_row_is_structured(self):
        f = parse_function("1 - x0", 1)
        with pytest.raises(ExpressionRangeError) as raised:
            f.eval_many(np.array([[0.5], [3.0]]))
        assert (raised.value.value, raised.value.point, raised.value.row) == (-2.0, [3.0], 1)
        moved = raised.value.at_row(7)
        assert moved.row == 7 and str(moved) == str(raised.value).replace("(row 1)", "(row 7)")
        with pytest.raises(ExpressionRangeError) as scalar:
            f.eval(np.array([3.0]))
        assert scalar.value.row is None and "(row" not in str(scalar.value)

    def test_constant_and_empty_batches(self):
        f = parse_function("2", 1)
        assert f.eval_many(np.zeros((3, 1))).tolist() == [2.0, 2.0, 2.0]
        assert f.eval_many(np.zeros((0, 1))).shape == (0,)
        with pytest.raises(ValueError, match="array"):
            f.eval_many(np.zeros(3))

    def test_indicator_rows(self):
        f = parse_function("indicator(ball 1)", 2)
        got = f.eval_many(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        assert got.tolist() == [math.inf, math.inf, 0.0]

    def test_with_meta_keeps_batch_callback(self):
        f = parse_function("pos(1 - x0)", 1)
        g = f.with_meta(f.meta)
        assert g._many_fn is f._many_fn


_SPECIAL_POINTS = [0.0, -0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, -2.0, 3.0]
_points = st.lists(st.one_of(st.sampled_from(_SPECIAL_POINTS), st.floats(-1e3, 1e3)), min_size=1, max_size=6)


def _scalar_or_error(f, x):
    try:
        return f.eval(np.array([x])).as_float()
    except ExpressionRangeError:
        return None


@given(expr=expressions, xs=_points)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_eval_many_rows_match_eval(expr, xs):
    """Row i of eval_many is scalar eval at row i: the same tag class, a
    finite value within 4 ulp, and ExpressionRangeError on the same rows
    (the whole batch names the first of them)."""
    f = parse_function(expr, 1)
    xs = np.array(xs)[:, None]
    want = [_scalar_or_error(f, x[0]) for x in xs]
    for x, w in zip(xs, want):
        if w is None:
            with pytest.raises(ExpressionRangeError):
                f.eval_many(x[None])
    bad = [i for i, w in enumerate(want) if w is None]
    if bad:
        with pytest.raises(ExpressionRangeError, match=rf"\(row {bad[0]}\)"):
            f.eval_many(xs)
        return
    got = f.eval_many(xs)
    for w, g in zip(want, got.tolist()):
        assert (w == 0.0) == (g == 0.0) and (w == math.inf) == (g == math.inf), (expr, xs, want, got)
        if 0.0 < w < math.inf:
            assert abs(g - w) <= 4 * math.ulp(w), (expr, xs, want, got)


# -- compiled kernels against a walk of the general rules --------------------


def _walk(node, ops, x):
    """The tree evaluated node by node with the general op of each: no
    folding and no constant-operand entries ("/c", "^c")."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return ops["var"](node.index)(x)
    if isinstance(node, Indicator):
        return ops["indicator"](node.region)(x)
    if isinstance(node, Neg):
        return ops["neg"](_walk(node.child, ops, x))
    if isinstance(node, Bin):
        return ops[node.op](_walk(node.left, ops, x), _walk(node.right, ops, x))
    assert isinstance(node, Call)
    return ops[node.func](*[_walk(arg, ops, x) for arg in node.args])


def _walk_many(tree, xs):
    """parse_function's eval_many over the walk."""
    with np.errstate(all="ignore"):
        t = _walk(tree, _NUMPY_OPS, xs) + np.zeros(xs.shape[0])
    valid = t >= 0.0
    if np.count_nonzero(valid) != t.size:
        i = int(np.argmin(valid))
        raise ExpressionRangeError(float(t[i]), xs[i].tolist(), i)
    return t


def _walk_eval(tree, x):
    """parse_function's eval over the walk."""
    t = _walk(tree, _MATH_OPS, x.tolist())
    if not t >= 0.0:
        raise ExpressionRangeError(t, x.tolist())
    return ExtPos.from_float(t)


def _outcome(fn, *args):
    """A batch as its bytes, a value as its float's hex, an error as its
    type, message and row: nan payloads inside a kernel may differ, its
    results may not."""
    try:
        got = fn(*args)
    except ExpressionRangeError as exc:
        return type(exc), str(exc), exc.row
    return got.tobytes() if isinstance(got, np.ndarray) else got.as_float().hex()


def _rows(dim):
    return np.array(list(itertools.product(_SPECIAL_POINTS, repeat=dim)))


def _in_dim(expr, dim):
    """The expression over dim variables: in 2-D every other x0 becomes x1
    and the halfspace gains a normal coordinate."""
    if dim == 1:
        return expr
    turn = itertools.count()
    expr = re.sub(r"x0", lambda _: "x1" if next(turn) % 2 else "x0", expr)
    return expr.replace("halfspace 1 0.5", "halfspace 1 -1 0.5")


def _assert_kernels_match_walk(expr, dim):
    tree = parse(expr, dim)
    f = parse_function(expr, dim)
    xs = _rows(dim)
    assert _outcome(f.eval_many, xs) == _outcome(_walk_many, tree, xs), expr
    for x in xs:
        assert _outcome(f.eval_many, x[None]) == _outcome(_walk_many, tree, x[None]), (expr, x)
        assert _outcome(f.eval, x) == _outcome(_walk_eval, tree, x), (expr, x)


# Each constant operand the compiler specialises, and each it must not: a
# zero, -0.0 or nan divisor and a zero, negative or nan exponent keep the
# general rule.  At -0.0 an odd negative power and a division by -0.0 are
# where the plain ufuncs differ from the rule.
CONSTANT_OPERANDS = [
    ("pos(1.335*sqrt(1-(x0/0.619)^2))", 1),
    ("pos(0.947*sqrt(1-(x0^2+x1^2)/1.159^2))", 2),
    ("(x0+1)^2 + 0.5", 1),
    ("x0^2 + x1^3", 2),
    *[(f"x0^{c}", 1) for c in ("0.5", "3", "inf", "1e-300", "0", "-1", "-2", "-0.5", "-inf", "(0*inf)", "(2^-2)")],
    *[(f"x0/{c}", 1) for c in ("0.619", "-2", "inf", "0", "-0", "(0*inf)", "(1/0)", "(-(2^-2))")],
    ("2^-2 + (-x0)^1e-300 / 1e-3", 2),
]


@pytest.mark.parametrize("expr,dim", CONSTANT_OPERANDS)
def test_constant_operands_compile_bit_for_bit(expr, dim):
    _assert_kernels_match_walk(expr, dim)


@given(expr=expressions | overflowing_expressions, dim=st.sampled_from([1, 2]))
@example(expr="(x0) ^ (-(1))", dim=1).via("an odd negative power of -0.0")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_compiled_kernels_match_the_general_rules(expr, dim):
    """Folding constant subtrees and compiling constant operands to one op
    change no bit of any result: eval_many returns the walk's bytes or its
    error on the same row, and eval the same value or error, at the
    special points in 1-D and 2-D."""
    _assert_kernels_match_walk(_in_dim(expr, dim), dim)


# -- one kernel source per shape ----------------------------------------------


def _sources(monkeypatch, *exprs):
    """The oracles of exprs and the kernel sources compiled for them."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(grammar, "_compiled", spy)
    return [parse_function(expr, 1) for expr in exprs], sources


def test_kernel_source_holds_no_literal(monkeypatch):
    (f,), sources = _sources(monkeypatch, "pos(1.2345 - x0^3.75) + min(x0, 6.5e-7) / 2.5")
    assert len(sources) == 2  # the numpy and the scalar kernel
    for source in sources:
        assert not any(literal in source for literal in ("1.2345", "3.75", "6.5", "2.5", "e-07")), source
    assert f.eval_float([0.5]) == (1.2345 - 0.5**3.75) + 6.5e-7 / 2.5


def test_one_shape_shares_its_source_and_keeps_its_constants(monkeypatch):
    (f, g), sources = _sources(monkeypatch, "pos(1.2-x0^2)", "pos(1.5-x0^2)")
    assert sources[:2] == sources[2:]
    xs = np.array([[0.0], [0.5], [1.1], [1.3]])
    for x in xs.tolist():
        assert (f.eval_float(x), g.eval_float(x)) == (max(1.2 - x[0] ** 2, 0.0), max(1.5 - x[0] ** 2, 0.0))
    assert f.eval_many(xs).tolist() == [1.2, 1.2 - 0.25, 0.0, 0.0]
    assert g.eval_many(xs).tolist() == [1.5, 1.5 - 0.25, 1.5 - 1.1**2, 0.0]
    monkeypatch.undo()
    kernels = [parse_function(expr, 1)._scalar_fn for expr in ("pos(1.2-x0^2)", "pos(1.5-x0^2)")]
    assert kernels[0].__code__ is kernels[1].__code__  # one memoized compile


def test_indicators_of_one_shape_keep_their_regions(monkeypatch):
    (small, big), sources = _sources(monkeypatch, "indicator(ball 1)", "indicator(ball 2)")
    assert sources[:2] == sources[2:]
    xs = np.array([[0.5], [1.5], [2.5]])
    for x, inside_small, inside_big in zip(xs.tolist(), (True, False, False), (True, True, False)):
        assert small.eval_float(x) == (math.inf if inside_small else 0.0)
        assert big.eval_float(x) == (math.inf if inside_big else 0.0)
    assert small.eval_many(xs).tolist() == [math.inf, 0.0, 0.0]
    assert big.eval_many(xs).tolist() == [math.inf, math.inf, 0.0]


def test_a_scalar_transform_query_makes_few_python_calls():
    """A count of Python-level calls is a regression signal that does not
    depend on the machine: the README cap's 35 evaluations cost 40 calls,
    one generated profile call each (425 with the closure compiler, 180
    with a profile closure around the kernel and calls of the sqrt and pow
    rules).  Python 3.12 inlines comprehensions, so the bound is an upper
    one."""
    h = DualHandle(parse_function("pos(sqrt(1-x0^2))", 1, meta=DECLARED_STRICT))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        value = h.eval_float([0.6])
    finally:
        sys.setprofile(None)
    assert abs(value - math.sqrt(1.36)) <= 1e-9
    assert calls <= 40


# -- the scalar kernel is the perspective profile ------------------------------

#: The caps, a height below any normal product, a subnormal one, and heights
#: at which y / v overflows for the large coordinates.
_HEIGHTS = [V_MIN, V_MAX, 1e-300, 5e-324, 0.5, 1.0, 3.0]
_PROFILE_POINTS = [*_SPECIAL_POINTS, 1e300, -1e300]


def _float_or_error(fn, *args):
    """A float as its hex, an error as its type and message."""
    try:
        return fn(*args).hex()
    except (RadialError, ValueError) as exc:
        return type(exc), str(exc)


@given(expr=expressions | overflowing_expressions, dim=st.sampled_from([1, 2]), data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_the_scalar_kernel_is_the_perspective_profile(expr, dim, data):
    """The fused kernel of a parsed expression at (y, v) is perspective(f,
    y, v) as a float bit for bit, or raises the same error with the same
    message: the range check at the point y / v, the tags, and the
    OverflowRiskError of a product that leaves the finite range."""
    f = parse_function(_in_dim(expr, dim), dim)
    y = data.draw(st.lists(st.sampled_from(_PROFILE_POINTS), min_size=dim, max_size=dim))
    for v in _HEIGHTS:
        want = _float_or_error(lambda: perspective(f, y, v).as_float())
        assert _float_or_error(f._profile_fn, y, v) == want, (expr, y, v)
        assert _float_or_error(transform._float_profile(f, y), v) == want, (expr, y, v)


@given(expr=expressions | overflowing_expressions, dim=st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_eval_float_is_the_profile_at_height_one(expr, dim):
    f = parse_function(_in_dim(expr, dim), dim)
    for x in _rows(dim).tolist():
        assert _float_or_error(f.eval_float, x) == _float_or_error(f._profile_fn, x) == _float_or_error(f._profile_fn, x, 1.0), (expr, x)


def test_with_meta_keeps_the_fused_profile():
    """One scalar kernel serves eval_float and the search's profile, and
    with_meta passes it on."""
    f = parse_function("pos(1.234-x0^2)", 1)
    g = f.with_meta(DECLARED_STRICT)
    assert f._profile_fn is f._scalar_fn and g._profile_fn is f._profile_fn and g._scalar_fn is f._scalar_fn
    assert transform._float_profile(g, [0.6]).func is f._profile_fn
    assert DualHandle(g).value([0.6]) == DualHandle(f.with_meta(DECLARED_STRICT)).value_with_certificate([0.6])[0]
