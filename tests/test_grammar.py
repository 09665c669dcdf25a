import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import expressions
from radial import INF, ZERO, ExpressionRangeError, ExtPos, ParseError, parse_function
from radial.grammar import evaluate, parse, unparse

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

    def test_indicator_accepts_commas(self):
        f = parse_function("indicator(box, -1, 1)", 1)
        assert f.eval(np.array([0.0])) is INF
        assert f.eval(np.array([3.0])) is ZERO


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
