import json
import math
from unittest import mock

import numpy as np
import pytest

from radial import (
    INF,
    ZERO,
    DualHandle,
    DualSolution,
    ExtPos,
    InfiniteValueError,
    NotStationaryError,
    PrimalSolution,
    RadialityRequiredError,
    Sense,
    SolveParams,
    ball_set,
    box_set,
    dual_gradient,
    gauge,
    map_dual_to_primal,
    map_primal_to_dual,
    map_stationary,
    optimality_product,
    parse_function,
    solve_via_dual,
)
from radial import optimize
from radial.catalog import absval, exp_bump, lifted_cap, shifted_parabola, shifted_quadratic, sqrt_cap, strict_entries
from radial.cli import main
from radial.optimize import _fd_grad
from radial.oracle import DECLARED_STRICT, FunctionOracle
from helpers import refine_max_1d, refine_max_2d, refine_min_1d, refine_min_2d

TOL = 1e-10


def dual(y, d):
    return DualSolution(np.atleast_1d(np.asarray(y, dtype=float)), d, 0, 0.0)


def primal(x, p):
    return PrimalSolution(np.atleast_1d(np.asarray(x, dtype=float)), p)


class TestSolutionMaps:
    def test_fixed_point(self):
        out = map_dual_to_primal(dual([0.0], ExtPos.finite(1.0)))
        assert out.x_star[0] == 0.0 and out.p_star == ExtPos.finite(1.0)

    def test_parabola_instance(self):
        out = map_dual_to_primal(dual([0.5], ExtPos.finite(0.5)))
        assert out.x_star[0] == 1.0 and out.p_star == ExtPos.finite(2.0)

    def test_infinite_values_rejected(self):
        with pytest.raises(InfiniteValueError):
            map_dual_to_primal(dual([0.0], ZERO))
        with pytest.raises(InfiniteValueError):
            map_primal_to_dual(primal([0.0], INF))

    def test_primal_to_dual(self):
        out = map_primal_to_dual(primal([1.0], ExtPos.finite(2.0)))
        assert out.y_star[0] == 0.5 and out.d_star == ExtPos.finite(0.5)

    def test_round_trip_identity(self):
        # Dyadic data round-trips bit exactly; generic data to 1e-12.
        p0 = primal([1.5], ExtPos.finite(2.0))
        back = map_dual_to_primal(map_primal_to_dual(p0))
        assert back.x_star[0] == p0.x_star[0] and back.p_star == p0.p_star
        p1 = primal([1.3], ExtPos.finite(0.7))
        back = map_dual_to_primal(map_primal_to_dual(p1))
        assert abs(back.x_star[0] - 1.3) <= 1e-12
        assert abs(back.p_star.value - 0.7) <= 1e-12

    def test_absval_reciprocity_with_tags(self):
        # inf |x| = 0 pairs with sup of its transform = inf: product is 1.
        f = absval()
        grid = [np.array([t]) for t in np.linspace(-2, 2, 101)]
        inf_primal = min(f.eval(x) for x in grid)
        handle = DualHandle(f, Sense.UPPER)
        sup_dual = max(handle.value(x) for x in grid)
        assert inf_primal is ZERO and sup_dual is INF
        assert optimality_product(inf_primal, sup_dual) == 1.0


class TestValueReciprocity:
    def test_catalog_products(self):
        for entry in strict_entries():
            f = entry.oracle
            handle = DualHandle(f, Sense.UPPER, tol=1e-11)
            if f.dim == 1:
                _, sup_f = refine_max_1d(lambda t: f.eval(np.array([t])).as_float(), -3, 3)
                _, inf_d = refine_min_1d(lambda t: handle.value(np.array([t])).as_float(), -3, 3, n=101)
            else:
                _, sup_f = refine_max_2d(lambda v: f.eval(v).as_float(), -1.5, 1.5, n=41, rounds=5)
                _, inf_d = refine_min_2d(lambda v: handle.value(v).as_float(), -1.5, 1.5, n=41, rounds=5)
            product = optimality_product(ExtPos.finite(sup_f), ExtPos.finite(inf_d))
            assert abs(product - 1.0) <= 5 * TOL, entry.name


class TestMapStationary:
    def test_parabola_maximizer(self):
        y, witness = map_stationary(np.array([1.0]), shifted_parabola())
        assert abs(y[0] - 0.5) <= 1e-12
        assert float(np.linalg.norm(witness)) <= 1e-6

    def test_symmetric_cap(self):
        y, witness = map_stationary(np.array([0.0]), sqrt_cap(1))
        assert y[0] == 0.0 and float(np.linalg.norm(witness)) <= 1e-12

    def test_pinned_bits(self):
        """The bits map_stationary gave while it read f through eval."""
        parabola = parse_function("pos(2-(x0-1)^2)", 1, meta=DECLARED_STRICT)
        cap2 = parse_function("pos(sqrt(1-x0^2-x1^2))", 2, meta=DECLARED_STRICT)
        for x, f, want in [
            ([1.0], shifted_parabola(), ([0.5], [0.0])),
            ([0.0], sqrt_cap(1), ([0.0], [0.0])),
            ([1.0], parabola, ([0.5], [-0.0])),
            ([0.0, 0.0], cap2, ([0.0, 0.0], [-0.0, -0.0])),
        ]:
            y, witness = map_stationary(np.array(x), f)
            assert (y.tolist(), witness.tolist()) == want
            assert [math.copysign(1.0, c) for c in witness] == [math.copysign(1.0, c) for c in want[1]]

    def test_not_stationary(self):
        with pytest.raises(NotStationaryError):
            map_stationary(np.array([0.3]), sqrt_cap(1))

    def test_requires_strict_monotonicity(self):
        with pytest.raises(RadialityRequiredError):
            map_stationary(np.array([-1.0]), shifted_quadratic())


class TestSolveViaDual:
    def test_cap_from_far_start(self):
        ds, ps = solve_via_dual(sqrt_cap(1), np.array([5.0]))
        assert ds.converged
        assert abs(ps.x_star[0]) <= 1e-6
        assert abs(ps.p_star.value - 1.0) <= 1e-6
        assert abs(ds.d_star.value - 1.0) <= 1e-6

    def test_parabola_instance(self):
        ds, ps = solve_via_dual(shifted_parabola(), np.array([5.0]))
        assert ds.converged and ds.status == "gradient"
        assert abs(ps.x_star[0] - 1.0) <= 1e-6
        assert abs(ps.p_star.value - 2.0) <= 1e-6
        # Solution invariant: the primal value matches a direct evaluation.
        direct = shifted_parabola().eval(ps.x_star)
        assert abs(direct.value - ps.p_star.value) <= 5 * TOL

    def test_quadratic_refused(self):
        with pytest.raises(RadialityRequiredError):
            solve_via_dual(shifted_quadratic(), np.array([1.0]))

    def test_unknown_meta_is_checked_first(self):
        bare = FunctionOracle(1, shifted_quadratic()._eval_fn, name="quad-unknown")
        with pytest.raises(RadialityRequiredError):
            solve_via_dual(bare, np.array([1.0]))

    def test_inconclusive_sample_is_refused(self):
        # An indicator's profile is 0 or inf on every sampled ray, so the
        # check learns nothing and the solver refuses an UNKNOWN objective.
        with pytest.raises(RadialityRequiredError, match=r"^radiality check: unknown \(0 witnesses\)$"):
            solve_via_dual(parse_function("indicator(ball 1)", 1), np.array([0.5]))

    def test_budget_exhaustion_flagged_not_raised(self):
        ds, ps = solve_via_dual(shifted_parabola(), np.array([5.0]), SolveParams(budget=3))
        assert not ds.converged and ds.status == "budget"

    def test_budget_exit_reports_the_returned_iterates_gradient_norm(self):
        # One accepted step from 0.5 lands at -0.2071; the gradient norm
        # there is 0.3827, not the 0.7071 of the start point.
        f = parse_function("pos(1-x0^2)", 1)
        ds, _ = solve_via_dual(f, np.array([0.5]), SolveParams(budget=1))
        assert ds.status == "budget" and ds.iterations == 1
        assert abs(ds.y_star[0] + 0.2071) <= 1e-4
        assert ds.grad_norm == float(np.linalg.norm(dual_gradient(f, ds.y_star, ds.d_star.value)))
        assert abs(ds.grad_norm - 0.3827) <= 1e-4

    @pytest.mark.parametrize("constrained", [False, True])
    def test_optimal_value_is_the_objective_at_the_returned_iterate(self, constrained):
        s = ball_set(1, 0.5) if constrained else None
        ds, _ = solve_via_dual(shifted_parabola(), np.array([2.0]), constraint=s)
        want = DualHandle(shifted_parabola(), Sense.UPPER).value(ds.y_star)
        if constrained:
            want = max(want, gauge(s, ds.y_star))
        assert ds.d_star == want

    @pytest.mark.parametrize("name", ["tol_grad", "tol"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerances_must_be_positive_and_finite(self, name, bad):
        # A nan tol_grad never stops the descent and an infinite one stops
        # it at y0; both are refused up front, as the CLI refuses them.
        with pytest.raises(ValueError, match=name):
            SolveParams(**{name: bad})

    def test_tol_below_float_resolution_is_refused(self):
        # Such a tol never stops a search; tol_grad has no floor.
        with pytest.raises(ValueError, match="tol must be at least"):
            SolveParams(tol=1e-17)
        assert SolveParams(tol=2**-52, tol_grad=1e-300).tol == 2**-52

    def test_formula_gradient_falls_back_to_differences(self, monkeypatch):
        """At y = 2 and at the next iterate, the mapped point y / dual(y) of
        lifted_cap lies just past the edge of its domain [-1, 1], so the
        dual gradient formula refuses it; descent continues on difference
        quotients and still reaches the peak."""
        failures = []

        def formula(f, y, f_dual_y):
            try:
                return dual_gradient(f, y, f_dual_y)
            except ValueError as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(optimize, "dual_gradient", formula)
        d, p = solve_via_dual(lifted_cap(), np.array([2.0]))
        assert len(failures) == 2
        assert (d.status, d.iterations) == ("gradient", 4)
        assert abs(p.x_star[0]) <= 1e-9 and abs(p.p_star.value - 2.0) <= 1e-9

    def test_kink_maximizer_exits_by_step_collapse(self):
        ds, ps = solve_via_dual(exp_bump(), np.array([3.0]))
        assert ds.converged and ds.status == "step"
        assert abs(ps.x_star[0]) <= 1e-4
        assert abs(ps.p_star.value - 1.5) <= 1e-4


class TestFdGrad:
    """The solver's difference quotients on closed-form objectives: the
    probes are y +- h e_i with h = max(1e-6, 1e-8 |y_i|)."""

    def test_central_quotient(self):
        g = _fd_grad(lambda y: float(y[0] ** 2 + 3.0 * y[1]), np.array([2.0, 5.0]), 9.0)
        assert abs(g[0] - 4.0) <= 1e-6 and abs(g[1] - 3.0) <= 1e-6

    def test_one_sided_when_one_probe_is_infinite(self):
        # Slope 2 left of 1 and infinite right of it: the backward quotient.
        def left(y):
            return 2.0 * float(y[0]) if y[0] <= 1.0 else math.inf

        assert abs(_fd_grad(left, np.array([1.0]), 2.0)[0] - 2.0) <= 1e-6
        # Slope -3 right of 0 and infinite left of it: the forward quotient.
        def right(y):
            return 1.0 - 3.0 * float(y[0]) if y[0] >= 0.0 else math.inf

        assert abs(_fd_grad(right, np.array([0.0]), 1.0)[0] + 3.0) <= 1e-6

    def test_both_probes_infinite_raises(self):
        def spike(y):
            return 1.0 if y[0] == 0.5 else math.inf

        with pytest.raises(ValueError, match="not finite around the iterate"):
            _fd_grad(spike, np.array([0.5]), 1.0)


class TestConstrainedPattern:
    def test_box_constrained_parabola(self):
        s = box_set(np.array([-1.0]), np.array([0.5]))
        ds, ps = solve_via_dual(shifted_parabola(), np.array([2.0]), constraint=s)
        assert abs(ps.x_star[0] - 0.5) <= 1e-3
        assert abs(ps.p_star.value - 1.75) <= 1e-3

    def test_ball_constrained_parabola(self):
        s = ball_set(1, 0.5)
        ds, ps = solve_via_dual(shifted_parabola(), np.array([2.0]), constraint=s)
        assert abs(ps.x_star[0] - 0.5) <= 1e-3

    def test_three_dimensional_ball_constraint(self):
        # Concave cap with maximizer outside the ball: the constrained
        # argmax sits on the boundary along the center direction.
        c = np.array([1.0, 0.5, 0.25])

        def ev(x):
            t = 2.0 - float((x - c) @ (x - c))
            return ExtPos.finite(t) if t > 0 else ZERO

        f = FunctionOracle(3, ev, meta=DECLARED_STRICT, name="cap3d")
        s = ball_set(3, 0.5)
        x_want = 0.5 * c / np.linalg.norm(c)
        ds, ps = solve_via_dual(f, np.array([0.4, 0.2, 0.1]), constraint=s)
        assert float(np.max(np.abs(ps.x_star - x_want))) <= 1e-3
        want_p = 2.0 - float((x_want - c) @ (x_want - c))
        assert abs(ps.p_star.value - want_p) <= 1e-3

    @pytest.mark.parametrize(
        "make_set,dim",
        [
            (lambda: ball_set(1, 0.5), 1),
            (lambda: box_set(np.array([-1.0]), np.array([0.5])), 1),
            (lambda: ball_set(2, 0.5), 2),
            (lambda: box_set(np.array([-0.4, -0.6]), np.array([0.3, 0.2])), 2),
        ],
    )
    def test_gauge_pattern_matches_dense_grid_search(self, make_set, dim):
        # Maximizing over the set equals minimizing max{transform, gauge}:
        # both sides solved by dense grid + refinement, independent of the
        # descent solver.
        s = make_set()
        if dim == 1:
            f = shifted_parabola()
        else:
            def ev(x):
                t = 2.0 - (x[0] - 1.0) ** 2 - (x[1] - 0.5) ** 2
                return ExtPos.finite(t) if t > 0 else ZERO

            f = FunctionOracle(2, ev, meta=DECLARED_STRICT, name="cap2d")
        handle = DualHandle(f, Sense.UPPER, tol=1e-11)

        def primal_obj(x):
            x = np.atleast_1d(x)
            return f.eval(x).as_float() if s.member(x) else 0.0

        def dual_obj(y):
            y = np.atleast_1d(y)
            return max(handle.value(y).as_float(), gauge(s, y, tol=1e-11).as_float())

        if dim == 1:
            x_best, p_best = refine_max_1d(lambda t: primal_obj(np.array([t])), -1.5, 1.5, n=301)
            y_best, d_best = refine_min_1d(lambda t: dual_obj(np.array([t])), -1.5, 1.5, n=101)
            x_best = np.array([x_best])
            y_best = np.array([y_best])
        else:
            x_best, p_best = refine_max_2d(primal_obj, -0.8, 0.8, n=41, rounds=6)
            y_best, d_best = refine_min_2d(dual_obj, -0.8, 0.8, n=31, rounds=6)
        assert abs(optimality_product(ExtPos.finite(p_best), ExtPos.finite(d_best)) - 1.0) <= 1e-4
        mapped = y_best / d_best
        assert float(np.max(np.abs(mapped - x_best))) <= 1e-4


    def test_box_corner_is_never_a_wrong_converged_corner(self):
        """The box's best point is its corner (0.4, 0.2), where the cap is
        2; the descent stalls on the gauge's kinks, so an exhausted budget
        is an honest exit, and a converged one must be at that corner."""
        f = parse_function("pos(3-(x0-1)^2-(x1-1)^2)", 2)
        s = box_set(np.array([-0.3, -0.3]), np.array([0.4, 0.2]))
        ds, ps = solve_via_dual(f, np.array([0.05, 0.05]), SolveParams(budget=2000), constraint=s)
        assert not ds.converged or abs(ps.p_star.value - 2.0) <= 1e-6


class TestGoldenSolves:
    """Whole CLI solves pinned to the bytes they printed when every search
    evaluated its profile through perspective; the float profile must leave
    every iterate unchanged."""

    def test_stall_solve_stdout(self, capsys):
        # Armijo accepts the full step on every iteration of this cap, so
        # the descent creeps: 2,496 iterations.
        code = main(["solve", "--f", "pos(1-x0^2)", "--dim", "1", "--y0", "5"])
        assert (code, capsys.readouterr().out) == (
            0,
            '{"converged": true, "d_star": 1.0, "grad_norm": 0.0, "iterations": 2496, "p_star": 1.0, "schema": "radial/v1", '
            '"status": "gradient", "x_star": [1.8298022911489742e-12], "y_star": [1.8298022911489742e-12]}\n',
        )

    def test_ball_constrained_solve_stdout(self, capsys, tmp_path):
        # Pinned since the ball's gauge is its closed form |y| / radius
        # (the bisected gauge took 16 iterations to p* 1.7499994158644898).
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({"schema": "radial/v1", "type": "ball", "dim": 1, "radius": 0.5}))
        code = main(["solve", "--f", "pos(2 - (x0-1)^2)", "--dim", "1", "--y0", "2", "--constraint", str(path)])
        out = capsys.readouterr().out
        assert (code, out) == (
            0,
            '{"converged": true, "d_star": 0.5714288087328896, "grad_norm": 0.18467654394616062, "iterations": 12, '
            '"p_star": 1.7499992732558274, "schema": "radial/v1", "status": "step", "x_star": [0.4999992731895839], '
            '"y_star": [0.28571398904603457]}\n',
        )
        assert abs(json.loads(out)["p_star"] - 1.75) <= 1e-6

    def test_a_parsed_solve_builds_only_its_results_extpos(self, capsys):
        """Inside the solver f is read through its float form: the whole
        solve builds two ExtPos, d_star and p_star."""
        built = []
        init = ExtPos.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        with mock.patch.object(ExtPos, "__init__", counting):
            code = main(["solve", "--f", "pos(1.234-x0^2)", "--dim", "1", "--y0", "3.7"])
        assert (code, capsys.readouterr().out) == (
            0,
            '{"converged": true, "d_star": 0.8103727714624256, "grad_norm": 8.996945094207103e-11, "iterations": 2501, '
            '"p_star": 1.2340000000189626, "schema": "radial/v1", "status": "gradient", "x_star": [-1.6473930173860446e-11], '
            '"y_star": [-1.3350024451869768e-11]}\n',
        )
        assert built == [(1, 0.8103727714624256), (1, 1.2340000000189626)]
