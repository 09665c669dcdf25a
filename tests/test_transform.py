import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial import (
    INF,
    ZERO,
    DualHandle,
    ExtPos,
    FunctionOracle,
    NonMonotonePerspectiveError,
    OverflowRiskError,
    Sense,
    Trilean,
    Verdict,
    check_radial,
    duality_residual,
    extpos_gap,
    parse_function,
    perspective,
)
from radial import transform
from radial.oracle import DECLARED_UPPER
from radial.transform import extpos_gap_many
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

    @pytest.mark.parametrize("expr", ["(x0+1)^2 + 0.5", "abs(x0)", "abs(x0) + 1"])
    def test_blocks_match_one_ray_at_a_time(self, expr, monkeypatch):
        """A check larger than one block evaluates at most CHECK_BLOCK_ROWS
        pairs per batch and reports what a check run one ray at a time
        reports."""
        f = parse_function(expr, 1)
        batches = []

        def recording(xs):
            batches.append(len(xs))
            return f.eval_many(xs)

        probe = FunctionOracle(1, f.eval, meta=f.meta, many=recording)
        rays, points = 70, 1000
        assert rays * points > transform.CHECK_BLOCK_ROWS
        report = check_radial(probe, rays=rays, points_per_ray=points, seed=3)
        assert len(batches) > 1 and max(batches) <= transform.CHECK_BLOCK_ROWS

        monkeypatch.setattr(transform, "CHECK_BLOCK_ROWS", 1)
        batches.clear()
        want = check_radial(probe, rays=rays, points_per_ray=points, seed=3)
        assert batches == [points] * rays
        assert (report.verdict, report.strict) == (want.verdict, want.strict)
        assert report.witness_count == want.witness_count
        assert len(report.witnesses) == len(want.witnesses)
        for got, ref in zip(report.witnesses, want.witnesses):
            assert got.y.tolist() == ref.y.tolist()
            assert (got.v_lo, got.v_hi, got.p_lo, got.p_hi) == (ref.v_lo, ref.v_hi, ref.p_lo, ref.p_hi)

    def test_keeps_the_first_witnesses_and_counts_all(self):
        """A check with many violations keeps KEPT_WITNESSES of them, the
        first in ray and height order, and counts every decrease."""
        # Without a gradient callback every witness is a sampled drop.
        probe = FunctionOracle(1, shifted_quadratic().eval, meta=shifted_quadratic().meta)
        rays, points = 40, 200
        report = check_radial(probe, rays=rays, points_per_ray=points, seed=2)
        ys = np.random.default_rng(2).uniform(-3.0, 3.0, size=(rays, 1))
        heights = np.geomspace(transform.V_MIN, transform.V_MAX, points)
        drops = []
        for y in ys:
            profile = [perspective(probe, y, v).as_float() for v in heights]
            drops += [(y[0], i) for i in range(points - 1) if profile[i] - profile[i + 1] > transform.MONOTONE_GUARD]
        assert report.verdict is Verdict.NOT_RADIAL
        assert report.witness_count == len(drops) > transform.KEPT_WITNESSES
        assert [(w.y[0], w.v_lo, w.v_hi) for w in report.witnesses] == [
            (y, heights[i], heights[i + 1]) for y, i in drops[: transform.KEPT_WITNESSES]
        ]

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


# -- lockstep search against the scalar search -----------------------------

_CATALOG = {entry.name: entry.oracle for entry in strict_entries()}
_PARSED = {
    source: parse_function(source, dim)
    for source, dim in [
        ("pos(sqrt(1 - x0^2))", 1),
        ("pos(2 - (x0 - 1)^2)", 1),
        ("pos(2 - abs(x0))", 1),
        ("exp(-abs(x0)) + 0.5", 1),
        ("abs(x0)", 1),
        ("indicator(ball 1)", 1),
        ("pos(1 - norm(x0, x1))", 2),
    ]
}
_RAY_MONOTONE = {**_CATALOG, **_PARSED, "absval": absval()}
_NOT_MONOTONE = {"(x0+1)^2 + 0.5": parse_function("(x0+1)^2 + 0.5", 1), "shifted_quadratic": shifted_quadratic()}

_coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 3.0]), st.floats(-3.0, 3.0))


def _rows(dim):
    return st.lists(st.tuples(*[_coordinate] * dim), min_size=1, max_size=4).map(lambda r: np.array(r, dtype=float))


@st.composite
def _searches(draw, families):
    name = draw(st.sampled_from(sorted(families)))
    f = families[name]
    return name, f, draw(_rows(f.dim)), draw(st.sampled_from([Sense.UPPER, Sense.LOWER])), draw(st.booleans()), draw(st.sampled_from([1e-10, 1e-6]))


def _scalar_values(h, ys):
    return np.array([h.value(y).as_float() for y in ys])


def _assert_same(got, want, tol):
    assert np.array_equal(got == 0.0, want == 0.0) and np.array_equal(got == math.inf, want == math.inf), (got, want)
    finite = (0.0 < want) & (want < math.inf)
    assert np.all(np.abs(got[finite] - want[finite]) <= tol * np.maximum(1.0, np.abs(want[finite]))), (got, want)


@given(case=_searches(_RAY_MONOTONE))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_values_match_value_on_ray_monotone_inputs(case):
    """values(Y) is [value(y) for y in Y]: identical tags, finite values
    within tol * max(1, |v|); for a bidual handle too.  And lower <= upper
    up to the two brackets' widths."""
    name, f, ys, sense, nested, tol = case
    h = DualHandle(f, sense, tol=tol)
    if nested:
        h = DualHandle(h, Sense.UPPER, tol=tol)
    _assert_same(h.values(ys), _scalar_values(h, ys), tol)
    up, lo = DualHandle(f, Sense.UPPER, tol=tol).values(ys), DualHandle(f, Sense.LOWER, tol=tol).values(ys)
    with np.errstate(invalid="ignore"):
        assert np.all((lo <= up) | (lo - up <= 2 * tol * np.maximum(1.0, up))), (name, ys, lo, up)


@given(case=_searches(_NOT_MONOTONE))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_values_raise_where_value_raises(case):
    """On a function not declared ray-monotone the lockstep search raises
    NonMonotonePerspectiveError exactly when some row's scalar search does."""
    name, f, ys, sense, _, tol = case
    h = DualHandle(f, sense, tol=tol)
    try:
        want = _scalar_values(h, ys)
    except NonMonotonePerspectiveError:
        with pytest.raises(NonMonotonePerspectiveError):
            h.values(ys)
    else:
        _assert_same(h.values(ys), want, tol)


class TestLockstep:
    def test_global_scan_rows(self):
        f = shifted_quadratic()
        h = DualHandle(f, Sense.UPPER, global_scan=True)
        ys = np.array([[-1.0], [0.0], [0.3]])
        assert h.values(ys).tolist() == _scalar_values(h, ys).tolist()

    def test_guard_witness_matches_scalar(self):
        h = DualHandle(shifted_quadratic(), Sense.UPPER)
        with pytest.raises(NonMonotonePerspectiveError) as scalar:
            h.value(np.array([-3.0]))
        with pytest.raises(NonMonotonePerspectiveError) as batch:
            h.values(np.array([[0.0], [-3.0]]))
        assert str(batch.value) == str(scalar.value)
        assert batch.value.witness[1:] == scalar.value.witness[1:]

    def test_eval_many_is_values_and_checks_shape(self):
        h = DualHandle(sqrt_cap(1), Sense.UPPER)
        ys = np.array([[0.5], [2.0]])
        assert h.eval_many(ys).tolist() == h.values(ys).tolist()
        assert h.values(np.zeros((0, 1))).shape == (0,)
        with pytest.raises(ValueError):
            h.values(np.array([1.0, 2.0]))

    def test_overflowing_product_raises_like_scalar(self):
        # Finite values whose perspective product overflows at v = 128.
        def ev(x):
            return ExtPos.finite(1e307 if abs(x[0]) < 0.01 else 1e-3)

        h = DualHandle(FunctionOracle(1, ev, meta=DECLARED_UPPER), Sense.UPPER)
        with pytest.raises(OverflowRiskError):
            h.value(np.array([1.0]))
        with pytest.raises(OverflowRiskError):
            h.values(np.array([[0.0], [1.0]]))

    def test_non_finite_tol_rejected(self):
        for tol in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="tol"):
                DualHandle(sqrt_cap(1), Sense.UPPER, tol=tol)

    def test_gap_many_matches_gap(self):
        values = [ZERO, ExtPos.finite(0.5), ExtPos.finite(2.0), INF]
        for a in values:
            for b in values:
                got = float(extpos_gap_many(np.array([a.as_float()]), np.array([b.as_float()]))[0])
                assert got == extpos_gap(a, b)
