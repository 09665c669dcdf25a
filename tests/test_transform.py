import math

import numpy as np
import pytest

from radial import (
    INF,
    ZERO,
    DualHandle,
    ExtPos,
    NonMonotonePerspectiveError,
    Sense,
    Trilean,
    Verdict,
    check_radial,
    duality_residual,
    extpos_gap,
    parse_function,
    perspective,
)
from radial.catalog import (
    absval,
    absval_lower_dual,
    absval_upper_dual,
    constant,
    exp_bump,
    shifted_parabola,
    shifted_parabola_dual,
    shifted_quadratic,
    shifted_quadratic_upper_dual,
    sqrt_cap,
    sqrt_cap_dual,
    strict_entries,
    tent,
    tent_dual,
)

TOL = 1e-10


def upper(f, **kw):
    return DualHandle(f, Sense.UPPER, **kw)


def lower(f, **kw):
    return DualHandle(f, Sense.LOWER, **kw)


class TestUpperValue:
    def test_cap_at_one(self):
        v = upper(sqrt_cap(1)).value([1.0])
        assert abs(v.value - math.sqrt(2.0)) <= TOL * 2

    def test_bump_at_zero(self):
        v = upper(exp_bump()).value([0.0])
        assert abs(v.value - 2.0 / 3.0) <= TOL * 2

    def test_absolute_value_step(self):
        h = upper(absval())
        assert h.value([0.5]) is INF
        assert h.value([1.0]) is INF  # closed at the boundary
        assert h.value([2.0]) is ZERO


class TestLowerValue:
    def test_absolute_value_open_step(self):
        h = lower(absval())
        assert h.value([1.0]) is ZERO  # open at the boundary
        assert h.value([0.5]) is INF  # empty feasible set up to the cap
        assert h.value([2.0]) is ZERO

    def test_strictly_monotone_agrees_with_upper(self):
        v = lower(sqrt_cap(1)).value([1.0])
        assert abs(v.value - math.sqrt(2.0)) <= TOL * 2

    def test_constant(self):
        h = lower(constant(2.0))
        for t in (-3.0, 0.0, 7.0):
            assert abs(h.value([t]).value - 0.5) <= TOL * 2


CLOSED_FORMS = [
    (sqrt_cap(1), sqrt_cap_dual, np.linspace(-3, 3, 1000)),
    (shifted_parabola(), shifted_parabola_dual, np.linspace(-3, 3, 250)),
    (tent(), tent_dual, np.linspace(-2.5, 2.5, 250)),
    (constant(2.0), lambda y: ExtPos.finite(0.5), np.linspace(-3, 3, 50)),
]


class TestAgainstClosedForms:
    @pytest.mark.parametrize("f,closed,grid", CLOSED_FORMS, ids=lambda v: getattr(v, "name", ""))
    def test_bisection_matches_closed_form(self, f, closed, grid):
        # The stopping rule bounds the bracket width by tol * max(1, v).
        h = upper(f)
        for t in grid:
            y = np.array([t])
            want = closed(y)
            budget = 2 * TOL * max(1.0, want.as_float())
            assert extpos_gap(h.value(y), want) <= budget

    def test_upper_equals_lower_for_strict_catalog(self):
        for entry in strict_entries():
            hu, hl = upper(entry.oracle), lower(entry.oracle)
            for y in entry.residual_grid[:: max(1, len(entry.residual_grid) // 25)]:
                gap = extpos_gap(hu.value(y), hl.value(y))
                assert gap <= 2 * TOL * 3, entry.name

    def test_two_d_closed_form(self):
        h = upper(sqrt_cap(2))
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = rng.uniform(-2, 2, size=2)
            want = math.sqrt(1.0 + float(y @ y))
            assert abs(h.value(y).value - want) <= TOL * max(1.0, want)


class TestBracketCertificates:
    def test_monotone_envelope(self):
        # The returned height is feasible and a 4-tolerance push is not.
        for entry in strict_entries():
            h = upper(entry.oracle)
            for y in entry.residual_grid[:: max(1, len(entry.residual_grid) // 10)]:
                value = h.value(y)
                if not value.is_finite:
                    continue
                v = value.value
                assert perspective(entry.oracle, y, v) <= ExtPos.finite(1.0)
                bump = v + 4.0 * TOL * max(1.0, v)
                assert perspective(entry.oracle, y, bump) > ExtPos.finite(1.0)

    def test_certificate_fields(self):
        value, cert = upper(sqrt_cap(1)).value_with_certificate([1.0])
        assert cert.v_lo <= value.value <= cert.v_hi
        assert cert.p_lo <= 1.0 < cert.p_hi
        assert cert.mode == "monotone"
        assert cert.evaluations > 10

    def test_caps_are_never_returned(self):
        h = upper(absval())
        assert h.value([0.5]) is INF  # not 1e12
        assert h.value([2.0]) is ZERO  # not 1e-12


class TestOrderReversal:
    def test_pointwise_dominated_pairs(self):
        pairs = [(sqrt_cap(1), constant(2.0)), (tent(), constant(2.0))]
        for f, g in pairs:
            hf, hg = upper(f), upper(g)
            for t in np.linspace(-2, 2, 41):
                y = np.array([t])
                assert float(f.eval(y).as_float()) <= float(g.eval(y).as_float())
                assert hg.value(y).as_float() <= hf.value(y).as_float() + 2 * TOL


class TestComposability:
    def test_triple_transform_equals_single(self):
        for f in (sqrt_cap(1), constant(2.0), exp_bump()):
            h1 = upper(f)
            h3 = upper(upper(h1))
            for t in (-1.5, -0.3, 0.0, 0.8, 2.0):
                y = np.array([t])
                gap = extpos_gap(h3.value(y), h1.value(y))
                assert gap <= 5 * TOL * 3

    def test_nested_handles_skip_monotone_guard(self):
        # The outer profile of any transform is nondecreasing: the nested
        # evaluation must not raise even though tolerance jitter exists.
        outer = upper(upper(sqrt_cap(1)))
        assert outer.meta.upper_radial is Trilean.YES
        v = outer.value([0.5])
        want = sqrt_cap(1).eval(np.array([0.5])).value
        assert abs(v.value - want) <= 5 * TOL


class TestNonMonotone:
    def test_guard_trips_for_quadratic(self):
        with pytest.raises(NonMonotonePerspectiveError):
            upper(shifted_quadratic()).value([-3.0])

    def test_guard_trips_for_parsed_unknown_meta(self):
        f = parse_function("(x0+1)^2 + 0.5", 1)
        with pytest.raises(NonMonotonePerspectiveError):
            upper(f).value([-3.0])

    def test_witness_payload(self):
        try:
            upper(shifted_quadratic()).value([-3.0])
        except NonMonotonePerspectiveError as exc:
            y, v_lo, v_hi, p_lo, p_hi = exc.witness
            assert v_lo < v_hi
            assert p_lo.as_float() > p_hi.as_float() + 1e-9

    def test_global_scan_matches_closed_form(self):
        h = upper(shifted_quadratic(), global_scan=True)
        for t in np.linspace(-2.0, 0.15, 44):
            y = np.array([t])
            gap = extpos_gap(h.value(y), shifted_quadratic_upper_dual(y))
            assert gap <= 1e-8
        # Outside the feasible band the transform is the zero tag.
        assert h.value([-2.3]) is ZERO
        assert h.value([0.3]) is ZERO

    def test_global_mode_certificate(self):
        _, cert = upper(shifted_quadratic(), global_scan=True).value_with_certificate([-1.0])
        assert cert.mode == "global"


class TestRadialityChecker:
    def test_strictly_monotone_verdict(self):
        report = check_radial(sqrt_cap(1), rays=16, points_per_ray=32, seed=0)
        assert report.verdict is Verdict.RADIAL and report.strict

    def test_constant_is_reported_strict(self):
        report = check_radial(constant(1.0), rays=8, points_per_ray=32, seed=0)
        assert report.verdict is Verdict.RADIAL and report.strict

    def test_absolute_value_not_strict(self):
        report = check_radial(absval(), rays=16, points_per_ray=32, seed=0)
        assert report.verdict is Verdict.RADIAL and not report.strict

    def test_quadratic_not_monotone_with_witness(self):
        report = check_radial(shifted_quadratic(), rays=16, points_per_ray=32, seed=0)
        assert report.verdict is Verdict.NOT_RADIAL
        assert report.witnesses
        w = report.witnesses[0]
        assert w.v_lo < w.v_hi and w.p_lo > w.p_hi + 1e-9

    def test_inconclusive_without_informative_samples(self):
        from radial import ball_set, indicator_oracle

        probe = indicator_oracle(ball_set(1, 1.0)).with_meta(sqrt_cap(1).meta.__class__())
        report = check_radial(probe, rays=4, points_per_ray=16, seed=0)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_to_meta(self):
        meta = check_radial(sqrt_cap(1), rays=8, points_per_ray=32, seed=1).to_meta()
        assert meta.upper_radial is Trilean.YES and meta.strictly_radial is Trilean.YES
        meta = check_radial(shifted_quadratic(), rays=8, points_per_ray=32, seed=1).to_meta()
        assert meta.upper_radial is Trilean.NO


class TestDualityResidual:
    def test_strict_catalog_residuals(self):
        for entry in strict_entries():
            grid = entry.residual_grid[:: max(1, len(entry.residual_grid) // 20)]
            res = duality_residual(entry.oracle, grid)
            assert res <= 5 * TOL, entry.name

    def test_quadratic_gap_on_interval(self):
        grid = [np.array([t]) for t in np.linspace(-3.0, 1.0, 21)]
        res = duality_residual(shifted_quadratic(), grid, global_scan=True)
        assert res > 0.1

    def test_quadratic_gap_magnitude_near_minus_two(self):
        # Twice-transformed value collapses onto the ray envelope
        # 2(sqrt(1.5) - 1)|x| left of the monotonicity breakdown.
        res = duality_residual(shifted_quadratic(), [np.array([-2.0])], global_scan=True)
        want = 1.5 - 2.0 * (math.sqrt(1.5) - 1.0) * 2.0
        assert abs(res - want) <= 1e-2

    def test_propagates_guard_error(self):
        with pytest.raises(NonMonotonePerspectiveError):
            duality_residual(shifted_quadratic(), [np.array([-3.0])])

    def test_gap_semantics(self):
        assert extpos_gap(INF, INF) == 0.0
        assert extpos_gap(INF, ZERO) == math.inf
        assert extpos_gap(ZERO, ExtPos.finite(2.0)) == 2.0
        assert extpos_gap(ExtPos.finite(2.0), ExtPos.finite(2.5)) == 0.5

    def test_absval_duality_both_senses(self):
        # |x| is monotone in both senses though not strictly: each
        # transform is dual to the original, while upper and lower differ.
        f = absval()
        for t in (-2.0, -0.5, 0.5, 2.0):
            y = np.array([t])
            assert upper(f).value(y) == absval_upper_dual(y)
            assert lower(f).value(y) == absval_lower_dual(y)
