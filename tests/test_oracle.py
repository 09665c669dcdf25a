import math
import re

import numpy as np
import pytest

from radial import (
    INF,
    ZERO,
    DualHandle,
    ExpressionRangeError,
    ExtPos,
    FunctionOracle,
    NotDifferentiableError,
    OverflowRiskError,
    RadialityMeta,
    Sense,
    gradient,
    parse_function,
    perspective,
    rule_scale,
)
from radial import catalog
from radial.catalog import absval, constant, exp_bump, shifted_parabola, sqrt_cap, strict_entries, tent
from radial.grammar import evaluate, parse
from radial.transform import _perspective_many


def sqrt_cap_no_grad():
    base = sqrt_cap(1)
    return FunctionOracle(1, base._eval_fn, meta=base.meta, name="sqrt_cap[fd]")


class TestPerspective:
    def test_scaling_example(self):
        assert perspective(sqrt_cap(1), np.array([0.0]), 2.0) == ExtPos.finite(2.0)

    def test_exp_bump_scales_linearly(self):
        f = exp_bump()
        for v in (0.1, 1.0, 10.0):
            got = perspective(f, np.array([0.0]), v)
            assert math.isclose(got.value, 1.5 * v, rel_tol=1e-15)

    def test_indicator_outside_gives_zero(self):
        from radial import ball_set, indicator_oracle

        f = indicator_oracle(ball_set(1, 1.0))
        assert perspective(f, np.array([2.0]), 1.0) is ZERO
        assert perspective(f, np.array([0.5]), 1.0) is INF

    def test_identity_at_height_one(self):
        f = exp_bump()
        for t in (-2.0, 0.0, 0.7):
            y = np.array([t])
            assert perspective(f, y, 1.0) == f.eval(y)

    def test_rejects_bad_heights(self):
        with pytest.raises(ValueError):
            perspective(sqrt_cap(1), np.array([0.0]), 0.0)
        with pytest.raises(ValueError):
            perspective(sqrt_cap(1), np.array([0.0]), -1.0)


class TestGradient:
    def test_symmetry_point(self):
        g = gradient(sqrt_cap_no_grad(), np.array([0.0]))
        assert abs(g[0]) <= 1e-9

    def test_hand_value_by_differences(self):
        x = 1.0 / math.sqrt(2.0)
        g = gradient(sqrt_cap_no_grad(), np.array([x]))
        assert abs(g[0] - (-1.0)) <= 1e-6

    def test_kink_is_not_differentiable(self):
        with pytest.raises(NotDifferentiableError):
            gradient(FunctionOracle(1, absval()._eval_fn), np.array([0.0]))

    def test_catalog_callbacks_at_and_beside_their_kinks(self):
        assert tent().grad(np.array([0.5])).tolist() == [-1.0]
        assert tent().grad(np.array([-0.5])).tolist() == [1.0]
        for callback in (tent().grad, exp_bump().grad, exp_bump().hess, absval().grad):
            with pytest.raises(NotDifferentiableError, match="kink at the origin"):
                callback(np.array([0.0]))

    def test_rejects_infinite_value(self):
        from radial import ball_set, indicator_oracle

        with pytest.raises(ValueError):
            gradient(indicator_oracle(ball_set(1, 1.0)), np.array([0.5]))

    def test_names_the_first_coordinate_with_a_non_finite_probe(self):
        # Finite up to x1 = 1 and infinite past it; coordinate 0 is smooth.
        def ev(x):
            return INF if x[1] > 1.0 else ExtPos.finite(2.0 + float(x[0]))

        with pytest.raises(NotDifferentiableError, match="non-finite probe next to coordinate 1$"):
            gradient(FunctionOracle(2, ev), np.array([0.5, 1.0]))

    def test_names_the_first_coordinate_where_quotients_disagree(self):
        f = FunctionOracle(3, lambda x: ExtPos.finite(1.0 + float(x[0]) + abs(float(x[1])) + abs(float(x[2]))))
        with pytest.raises(NotDifferentiableError, match="disagree at coordinate 1: 1 vs -1$"):
            gradient(f, np.array([0.3, 0.0, 0.0]))

    def test_analytic_matches_differences_on_interior_points(self):
        rng = np.random.default_rng(2)
        for entry in strict_entries():
            f = entry.oracle
            bare = FunctionOracle(f.dim, f._eval_fn)
            hits = 0
            while hits < 25:
                x = rng.uniform(-0.9, 0.9, size=f.dim) * (0.9 if "sqrt" in entry.name else 3.0)
                if not f.eval(x).is_finite:
                    continue
                if "exp_bump" in entry.name and abs(x[0]) < 0.05:
                    continue
                try:
                    fd = gradient(bare, x)
                except NotDifferentiableError:
                    continue
                hits += 1
                analytic = np.atleast_1d(f.grad(x))
                scale = max(1.0, float(np.max(np.abs(analytic))))
                assert float(np.max(np.abs(fd - analytic))) <= 1e-6 * scale


class TestGradientPins:
    """The bits gradient gave while it read f through eval; it reads the
    float form now and must give the same ones."""

    def test_difference_path_on_parsed_oracles(self):
        cap2 = parse_function("pos(sqrt(1-x0^2-x1^2))", 2)
        bump = parse_function("exp(-abs(x0)) + 0.5", 1)
        quad = parse_function("(x0+1)^2 + 0.5", 1)
        assert gradient(cap2, [0.3, -0.4]).tolist() == [-0.34641016144476566, 0.46188021535220614]
        assert gradient(cap2, [0.0, 0.5]).tolist() == [0.0, -0.5773502692041355]
        assert gradient(cap2, [-0.6, 0.1]).tolist() == [0.7559289460501439, -0.12598815768427585]
        assert gradient(bump, [0.7]).tolist() == [-0.4965853038219059]
        assert gradient(bump, [-1.3]).tolist() == [0.2725317930218907]
        assert gradient(quad, [0.25]).tolist() == [2.4999999999053557]
        assert gradient(quad, [-3.0]).tolist() == [-4.000000000559112]

    def test_analytic_path_on_catalog_oracles(self):
        assert gradient(sqrt_cap(2), [0.3, -0.4]).tolist() == [-0.34641016151377546, 0.46188021535170065]
        assert gradient(exp_bump(), [0.7]).tolist() == [-0.4965853037914095]
        assert gradient(shifted_parabola(), [0.4]).tolist() == [1.2]


class TestMeta:
    def test_catalog_declarations(self):
        assert sqrt_cap(1).meta is RadialityMeta.STRICT
        assert absval().meta is RadialityMeta.RADIAL

    def test_eval_totality_and_tags(self):
        f = shifted_parabola()
        assert f.eval(np.array([5.0])) is ZERO  # outside the cap, no exception
        assert f.eval(np.array([1.0])) == ExtPos.finite(2.0)
        assert constant(2.0).eval(np.array([123.0])) == ExtPos.finite(2.0)

    @pytest.mark.parametrize(
        "make, grad, hess",
        [
            (lambda: sqrt_cap(1), True, True),
            (lambda: sqrt_cap(2), True, True),
            (exp_bump, True, True),
            (shifted_parabola, True, True),
            (constant, True, True),
            (absval, True, False),
            (catalog.tent, True, False),
            (catalog.lifted_cap, False, False),
            (catalog.shifted_quadratic, True, True),
        ],
    )
    def test_catalog_oracles_batch_natively(self, make, grad, hess):
        """Every catalog value is a parsed expression: eval_many is the
        numpy batch (no loop over eval), row i equals eval up to 4 ulp,
        and the analytic derivatives stay attached."""
        f = make()
        assert f._native and (f.grad is not None, f.hess is not None) == (grad, hess)
        xs = np.random.default_rng(0).uniform(-2.5, 2.5, size=(200, f.dim))
        want = [f.eval(x).as_float() for x in xs]
        for w, g in zip(want, f.eval_many(xs).tolist()):
            assert (w == 0.0) == (g == 0.0) and (w == math.inf) == (g == math.inf)
            assert w in (0.0, math.inf) or abs(g - w) <= 4 * math.ulp(w)

    def test_catalog_names_survive(self):
        names = [sqrt_cap(2).name, exp_bump().name, constant(0.5).name, catalog.lifted_cap().name]
        assert names == ["sqrt_cap[2d]", "exp_bump", "constant(0.5)", "lifted_cap"]
        with pytest.raises(ValueError):
            constant(0.0)

    def test_eval_validates_shape(self):
        with pytest.raises(ValueError):
            sqrt_cap(2).eval(np.array([1.0]))

    def test_a_scalar_is_a_vector_of_length_one_and_other_shapes_raise(self):
        """eval and perspective share eval's shape rule, with eval's message."""
        f, g = sqrt_cap(1), sqrt_cap(2)
        assert f.eval(0.5) == f.eval(np.array([0.5])) and perspective(f, 0.5, 2.0) == perspective(f, np.array([0.5]), 2.0)
        for call in (lambda: g.eval(np.zeros((1, 2))), lambda: perspective(g, np.zeros((1, 2)), 1.0)):
            with pytest.raises(ValueError, match=re.escape("expected a vector of length 2, got shape (1, 2)")):
                call()
        with pytest.raises(ValueError, match=re.escape("expected a vector of length 2, got shape (3,)")):
            perspective(g, np.zeros(3), 1.0)


class TestEvalFloat:
    @pytest.mark.parametrize("source", ["pos(sqrt(1 - x0^2))", "-(pos(x0))", "indicator(ball 1)", "exp(x0) / 0", "x0 - 1"])
    def test_parsed_scalar_form_is_eval_as_a_float(self, source):
        """eval_float is eval collapsed to a float, with the same error; a
        negative zero comes back as the ZERO tag 0.0."""
        f = parse_function(source, 1)
        for x in ([-2.0], [-0.5], [0.0], [0.5], [3.0]):
            try:
                want = f.eval(np.array(x)).as_float()
            except ExpressionRangeError as exc:
                with pytest.raises(ExpressionRangeError, match=re.escape(str(exc))):
                    f.eval_float(x)
            else:
                got = f.eval_float(x)
                assert got == want and math.copysign(1.0, got) == 1.0, (source, x)

    def test_an_oracle_without_a_scalar_callback_goes_through_eval(self):
        calls = []

        def ev(x):
            calls.append(x.tolist())
            return ExtPos.finite(1.0 + x[0] ** 2)

        f = FunctionOracle(1, ev)
        assert (f.eval_float([2.0]), calls) == (5.0, [[2.0]])

    @pytest.mark.parametrize("x", [[], [1.0, 2.0]])
    def test_checks_the_number_of_coordinates(self, x):
        for f in (parse_function("x0", 1), DualHandle(sqrt_cap(1), Sense.UPPER), FunctionOracle(1, lambda x: ZERO)):
            with pytest.raises(ValueError, match=f"expected 1 coordinates, got {len(x)}"):
                f.eval_float(x)

    def test_with_meta_keeps_the_scalar_callback(self):
        """A query on an oracle re-declared with with_meta (as solve_via_dual
        re-declares a checked objective) still runs over the scalar form."""
        calls = {"eval": 0, "scalar": 0}
        f = parse_function("pos(1 - x0^2)", 1)

        def ev(x):
            calls["eval"] += 1
            return f.eval(x)

        def scalar(x):
            calls["scalar"] += 1
            return f.eval_float(x)

        g = FunctionOracle(1, ev, scalar=scalar).with_meta(RadialityMeta.STRICT)
        want = DualHandle(f.with_meta(RadialityMeta.STRICT), Sense.UPPER).value(np.array([0.5]))
        assert DualHandle(g, Sense.UPPER).value(np.array([0.5])) == want
        assert calls["eval"] == 0 and calls["scalar"] > 30


class TestOneCallback:
    """An oracle is built from one evaluation callback; FunctionOracle
    derives the other form."""

    def test_needs_a_callback(self):
        with pytest.raises(TypeError, match="needs eval_fn, scalar or profile"):
            FunctionOracle(1)

    def test_eval_from_a_scalar_callback_keeps_the_shape_rule(self):
        f = FunctionOracle(2, scalar=lambda x: x[0] ** 2 + abs(x[1]))
        assert f.eval(np.array([3.0, -1.0])) == ExtPos.finite(10.0)
        assert f.eval([0.0, 0.0]) is ZERO and f.eval_float([1.0, 0.5]) == 1.5
        with pytest.raises(ValueError, match=re.escape("expected a vector of length 2, got shape (3,)")):
            f.eval(np.zeros(3))
        g = FunctionOracle(1, scalar=lambda x: math.inf if x[0] > 0.0 else 2.0)
        assert (g.eval(0.5), g.eval(-0.5)) == (INF, ExtPos.finite(2.0))

    def test_eval_many_from_a_scalar_callback_names_the_row(self):
        parsed = parse_function("x0 - 1", 1)
        f = FunctionOracle(1, scalar=parsed.eval_float)
        assert f.eval_many(np.array([[3.0], [1.0]])).tolist() == [2.0, 0.0]
        with pytest.raises(ExpressionRangeError, match=re.escape("(row 2)")) as info:
            f.eval_many(np.array([[2.0], [3.0], [0.5]]))
        assert info.value.row == 2

    def test_with_meta_keeps_a_scalar_callback(self):
        calls = []

        def scalar(x):
            calls.append(x)
            return 1.0 + x[0] ** 2

        plain = FunctionOracle(1, scalar=scalar)
        f = plain.with_meta(RadialityMeta.STRICT)
        assert f.meta is RadialityMeta.STRICT and f._profile_fn is plain._profile_fn
        assert (f.eval(np.array([2.0])), f.eval_float([1.0]), calls) == (ExtPos.finite(5.0), 2.0, [[2.0], [1.0]])

    def test_scalar_from_eval_keeps_the_extpos_check(self):
        f = FunctionOracle(1, lambda x: 2.0)
        for call in (lambda: f.eval(np.array([1.0])), lambda: f.eval_float([1.0])):
            with pytest.raises(TypeError, match="must return ExtPos, got float"):
                call()

    def test_a_profile_callback_serves_the_search(self):
        """A profile= callback is what a scalar search evaluates, once per
        evaluation, and with_meta keeps it; without one the profile is
        derived from the scalar callback."""
        cap = FunctionOracle(1, scalar=lambda x: max(1.0 - x[0] ** 2, 0.0), meta=RadialityMeta.STRICT)
        heights = []

        def profile(y, v=1.0):
            heights.append(v)
            return cap._profile_fn(y, v)

        f = FunctionOracle(1, scalar=cap.eval_float, profile=profile).with_meta(RadialityMeta.STRICT)
        assert f._profile_fn is profile and cap._profile_fn(_y := [0.6], 0.75) == perspective(cap, _y, 0.75).as_float()
        value, certificate = DualHandle(cap).value_with_certificate([0.6])
        assert DualHandle(f).value([0.6]) == value and len(heights) == certificate.evaluations


class TestRangeCheck:
    """A float callback's negative or nan value is refused on every path
    that reads it, with eval's ValueError and message; a parsed expression
    keeps its ExpressionRangeError."""

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "many"])
    def test_every_path_raises_evals_error(self, bad, batch):
        many = (lambda xs: np.full(len(xs), bad)) if batch else None
        g = FunctionOracle(1, scalar=lambda x: bad, many=many, meta=RadialityMeta.STRICT)
        h = DualHandle(g, Sense.UPPER)
        ys = np.array([[1.0], [2.0]])
        queries = {
            "value": lambda: h.value([1.0]),
            "values": lambda: h.values(ys),
            "value_with_certificate": lambda: h.value_with_certificate([1.0]),
            "eval": lambda: g.eval([1.0]),
            "eval_float": lambda: g.eval_float([1.0]),
            "eval_many": lambda: g.eval_many(ys),
            "gradient": lambda: gradient(g, [1.0]),
            "rule": lambda: rule_scale(2.0, g).eval([1.0]),
        }
        for name, query in queries.items():
            with pytest.raises(ValueError) as raised:
                query()
            assert (type(raised.value), str(raised.value)) == (ValueError, f"finite ExtPos requires 0 < v < inf, got {bad!r}"), name

    def test_parsed_expressions_keep_their_error(self):
        f = parse_function("x0 - 2", 1, meta=RadialityMeta.STRICT)
        h = DualHandle(f, Sense.UPPER)
        for query in (lambda: h.value([1.0]), lambda: h.values(np.array([[1.0]])), lambda: f.eval_float([1.0]), lambda: gradient(f, [1.0])):
            with pytest.raises(ExpressionRangeError, match="wrap it in pos"):
                query()


def _bits_or_error(fn):
    """A float as its hex, an error as its type and message."""
    try:
        return fn().hex()
    except (OverflowRiskError, ValueError) as exc:
        return type(exc), str(exc)


def _profile_many(f, heights):
    """_perspective_many at y = 0.5 and each of the heights, under the
    errstate its callers set."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _perspective_many(f, np.full((len(heights), 1), 0.5), np.array(heights), np.arange(len(heights)))


class TestOneProfileRule:
    """Where the product v * f(y/v) is not in (0, inf), every form of the
    profile answers by profile_tag's rule: the same float bits, or the same
    error type and message."""

    # (f(y/v), v, the expression of f where the grammar can write it, outcome)
    CASES = {
        "zero tag": (0.0, 2.0, "0", 0.0),
        "inf tag": (math.inf, 2.0, "inf", math.inf),
        "negative": (-1.0, 2.0, None, (ValueError, "finite ExtPos requires 0 < v < inf, got -1.0")),
        "nan": (math.nan, 2.0, None, (ValueError, "finite ExtPos requires 0 < v < inf, got nan")),
        "underflow": (1e-300, 1e-30, "1e-300", (OverflowRiskError, "perspective product 1e-30 * 1e-300 left the finite range")),
        "overflow": (1e308, 2.0, "1e308", (OverflowRiskError, "perspective product 2.0 * 1e+308 left the finite range")),
        "in range": (0.5, 3.0, "0.5", 1.5),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_form_gives_the_same_outcome(self, case):
        value, v, expr, outcome = self.CASES[case]
        want = outcome.hex() if isinstance(outcome, float) else outcome
        oracles = {
            # The profile of these two is profile_over's, derived from the scalar callback.
            "plain": FunctionOracle(1, scalar=lambda x: value),
            "batched": FunctionOracle(1, scalar=lambda x: value, many=lambda xs: np.full(len(xs), value)),
        }
        if expr is not None:
            oracles["parsed"] = parse_function(expr, 1)
        for name, f in oracles.items():
            forms = {
                "perspective": lambda: perspective(f, [0.5], v).as_float(),
                "profile": lambda: f._profile_fn([0.5], v),
                "many": lambda: float(_profile_many(f, [v])[0]),
            }
            for form, call in forms.items():
                assert _bits_or_error(call) == want, (name, form)

    @pytest.mark.parametrize(
        "pairs, want",
        [
            ([(1e308, 2.0), (-1.0, 2.0)], (OverflowRiskError, "perspective product 2.0 * 1e+308 left the finite range")),
            ([(-1.0, 2.0), (1e308, 2.0)], (ValueError, "finite ExtPos requires 0 < v < inf, got -1.0")),
            ([(0.5, 2.0), (1e-300, 1e-30), (math.nan, 2.0)], (OverflowRiskError, "perspective product 1e-30 * 1e-300 left the finite range")),
        ],
    )
    def test_the_first_pair_out_of_the_rule_decides_a_batch(self, pairs, want):
        f = FunctionOracle(1, scalar=lambda x: 1.0, many=lambda xs: np.array([value for value, _ in pairs]))
        assert _bits_or_error(lambda: _profile_many(f, [v for _, v in pairs])) == want
        # Without a batch form the profile runs row by row: row i is y = i + 1.
        lookup = {(i + 1) / v: value for i, (value, v) in enumerate(pairs)}
        plain = FunctionOracle(1, scalar=lambda x: lookup[x[0]])
        ys, heights = np.arange(1.0, len(pairs) + 1)[:, None], np.array([v for _, v in pairs])
        assert _bits_or_error(lambda: _perspective_many(plain, ys, heights, np.arange(len(pairs)))) == want

    def test_the_first_row_out_of_the_rule_decides_in_every_batch_form(self):
        """x0^2 - 1 at rows 2e154 and 0.5, heights 2 and 1: row 0's product
        2 * 1e308 overflows and row 1's value -0.75 is negative.  The parsed
        numpy kernel, a many= callback and a scalar= callback with no batch
        form raise for row 0, OverflowRiskError; with the rows swapped, for
        the negative value (the kernel's ExpressionRangeError names its
        row)."""
        oracles = {
            "parsed": parse_function("x0^2 - 1", 1),
            "many": FunctionOracle(1, scalar=lambda x: x[0] ** 2 - 1.0, many=lambda xs: xs[:, 0] ** 2 - 1.0),
            "scalar": FunctionOracle(1, scalar=lambda x: x[0] ** 2 - 1.0),
        }
        for name, f in oracles.items():
            with pytest.raises(OverflowRiskError, match=r"^perspective product 2\.0 \* 1(\.\d+)?e\+308 left the finite range$"):
                _perspective_many(f, np.array([[2e154], [0.5]]), np.array([2.0, 1.0]), np.arange(2))
            with pytest.raises((ValueError, ExpressionRangeError), match=r"-0\.75") as raised:
                _perspective_many(f, np.array([[0.5], [2e154]]), np.array([1.0, 2.0]), np.arange(2))
            assert getattr(raised.value, "row", 0) == 0, name

    def test_the_zero_tag_has_one_sign(self):
        """A value of -0.0 is the ZERO tag, and every form of the profile
        answers it as +0.0: perspective, the scalar profile derived from a
        float callback, the batch profile derived from a batch callback or
        from the scalar profile, and both compiled kernels (x0 * 0 is -0.0
        at a negative x0); so do the value forms, eval_float and eval_many,
        the profiles at height 1."""
        y, v = [-0.5], 2.0
        plain = FunctionOracle(1, scalar=lambda x: -0.0)
        batched = FunctionOracle(1, scalar=lambda x: -0.0, many=lambda xs: np.full(len(xs), -0.0))
        parsed = parse_function("x0 * 0", 1)
        assert math.copysign(1.0, evaluate(parse("x0 * 0", 1), [-0.25])) == -1.0
        for name, f in {"plain": plain, "batched": batched, "parsed": parsed}.items():
            forms = {
                "perspective": perspective(f, y, v).as_float(),
                "profile": f._profile_fn(y, v),
                "batch profile": float(f._profile_many_fn(np.array([y]), np.array([v]))[0]),
                "eval_float": f.eval_float(y),
                "eval_many": float(f.eval_many(np.array([y]))[0]),
            }
            for form, value in forms.items():
                assert value == 0.0 and math.copysign(1.0, value) == 1.0, (name, form)
