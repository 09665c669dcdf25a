import math

import numpy as np
import pytest

from radial import (
    INF,
    ZERO,
    ExtPos,
    FunctionOracle,
    NotDifferentiableError,
    RadialityMeta,
    gradient,
    perspective,
)
from radial import catalog
from radial.catalog import absval, constant, exp_bump, shifted_parabola, sqrt_cap, strict_entries, tent


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
        assert f._many_fn is not None and (f.grad is not None, f.hess is not None) == (grad, hess)
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
