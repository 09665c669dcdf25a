import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import expressions

from radial import (
    INF,
    ZERO,
    DualHandle,
    ExpressionRangeError,
    ExtPos,
    FunctionOracle,
    NonMonotonePerspectiveError,
    NotDifferentiableError,
    OverflowRiskError,
    RadialError,
    RadialityMeta,
    Sense,
    Verdict,
    check_radial,
    duality_residual,
    extpos_gap,
    parse_function,
    perspective,
)
from radial import transform
from radial.oracle import DECLARED_UPPER, UNKNOWN_META
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
        assert outer.meta.radial
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
            w = exc.witness
            assert w.v_lo < w.v_hi
            assert w.p_lo > w.p_hi + 1e-9

    def test_upward_guard_names_the_same_pair_in_values(self):
        """At y = 0.5 the profile of x0^2 is 0.25 / v, below 1 at v = 1, so
        the upper search expands upward and the guard trips there; the
        lockstep form names the same pair."""
        h = upper(parse_function("x0^2", 1))
        message = "perspective profile decreased from 0.25 at v=1 to 0.125 at v=2; "
        with pytest.raises(NonMonotonePerspectiveError) as scalar:
            h.value([0.5])
        assert str(scalar.value).startswith(message)
        with pytest.raises(NonMonotonePerspectiveError) as batch:
            h.values(np.array([[0.5]]))
        assert str(batch.value) == str(scalar.value)

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

    @pytest.mark.parametrize("points", [0, 1])
    def test_needs_two_heights_per_ray(self, points):
        # One height per ray compares nothing, so it could only ever
        # report a vacuous RADIAL.
        with pytest.raises(ValueError, match="points_per_ray"):
            check_radial(shifted_quadratic(), rays=16, points_per_ray=points, seed=0)

    def test_inconclusive_without_informative_samples(self):
        from radial import ball_set, indicator_oracle

        probe = indicator_oracle(ball_set(1, 1.0)).with_meta(UNKNOWN_META)
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

    @pytest.mark.parametrize("f", [sqrt_cap(1), shifted_quadratic()], ids=lambda f: f.name)
    def test_a_point_whose_gradient_raises_is_skipped(self, f):
        def raising(x):
            raise NotDifferentiableError("no gradient here")

        got = check_radial(FunctionOracle(1, f.eval, grad=raising, meta=f.meta), rays=8, points_per_ray=32, seed=1)
        want = check_radial(FunctionOracle(1, f.eval, meta=f.meta), rays=8, points_per_ray=32, seed=1)
        assert (got.verdict, got.strict, got.witness_count) == (want.verdict, want.strict, want.witness_count)
        assert [(w.y.tolist(), w.v_lo, w.v_hi, w.p_lo, w.p_hi) for w in got.witnesses] == [
            (w.y.tolist(), w.v_lo, w.v_hi, w.p_lo, w.p_hi) for w in want.witnesses
        ]

    def test_to_meta(self):
        meta = check_radial(sqrt_cap(1), rays=8, points_per_ray=32, seed=1).to_meta()
        assert meta is RadialityMeta.STRICT
        meta = check_radial(shifted_quadratic(), rays=8, points_per_ray=32, seed=1).to_meta()
        assert meta is RadialityMeta.NOT_RADIAL
        report = check_radial(parse_function("indicator(ball 1)", 1), rays=2, points_per_ray=4)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.to_meta() is UNKNOWN_META

    def test_gradient_pass_keeps_its_witnesses(self):
        """On the one sampled ray the profile of 1 + x.x rises from
        v = 1e-12 to v = 1e12, so only the gradient pass finds its fall
        near v = 1, and it keeps the confirmed pair v = 1 -> 1.0001."""
        f = FunctionOracle(1, lambda x: ExtPos.finite(1 + x @ x), grad=lambda x: 2 * x)
        report = check_radial(f, rays=1, points_per_ray=2, seed=0)
        assert report.verdict is Verdict.NOT_RADIAL and report.witness_count == 4
        first = report.witnesses[0]
        assert (first.v_lo, first.v_hi) == (1.0, 1.0 + 1e-4)
        assert first.p_lo - first.p_hi > transform.MONOTONE_GUARD
        assert first.p_lo == perspective(f, first.y, 1.0).as_float()


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

    def test_flat_grid_in_one_dimension(self):
        """A 1-D oracle takes its grid as a flat list of points."""
        flat = duality_residual(sqrt_cap(1), [0.1, 0.2])
        assert flat == duality_residual(sqrt_cap(1), [[0.1], [0.2]])
        assert flat <= 5 * TOL

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
    sense, nested, tol = draw(st.sampled_from([Sense.UPPER, Sense.LOWER])), draw(st.booleans()), draw(st.sampled_from([1e-10, 1e-6]))
    return name, f, draw(_rows(f.dim)), sense, nested, tol, draw(st.booleans())


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
    within tol * max(1, |v|); for a global-scan handle and a bidual handle
    too.  And lower <= upper up to the two brackets' widths."""
    name, f, ys, sense, nested, tol, global_scan = case
    h = DualHandle(f, sense, tol=tol, global_scan=global_scan)
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
    NonMonotonePerspectiveError exactly when some row's scalar search does.
    A global-scan handle never raises and its values are the scalar ones,
    as are those of a bidual handle over it (grid --global's bidual column)
    and duality_residual(global_scan=True)."""
    name, f, ys, sense, nested, tol, global_scan = case
    h = DualHandle(f, sense, tol=tol, global_scan=global_scan)
    if global_scan:
        _assert_same(h.values(ys), _scalar_values(h, ys), tol)
        if nested:
            bidual = DualHandle(h, Sense.UPPER, tol=tol)
            want = _scalar_values(bidual, ys)
            _assert_same(bidual.values(ys), want, tol)
            if sense is Sense.UPPER:
                gap = max(extpos_gap(f.eval(y), ExtPos.from_float(w)) for y, w in zip(ys, want))
                got = duality_residual(f, ys, tol=tol, global_scan=True)
                assert got == gap or abs(got - gap) <= tol * max(1.0, want[want < math.inf].max(initial=0.0)), (got, gap)
        return
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

    @pytest.mark.parametrize("sense", [Sense.UPPER, Sense.LOWER])
    def test_global_scan_blocks_match_one_row_at_a_time(self, sense):
        """A global scan over more rows than one block evaluates at most
        CHECK_BLOCK_ROWS pairs per batch and returns what the rows return
        one at a time."""
        f = parse_function("(x0+1)^2 + 0.5", 1)
        batches = []

        def recording(xs):
            batches.append(len(xs))
            return f.eval_many(xs)

        h = DualHandle(FunctionOracle(1, f.eval, meta=f.meta, many=recording), sense, global_scan=True)
        ys = np.linspace(-3.0, 1.0, 150)[:, None]
        assert len(ys) * transform.GLOBAL_SCAN_POINTS > transform.CHECK_BLOCK_ROWS
        got = h.values(ys)
        scans = [n for n in batches if n > len(ys)]
        assert len(scans) > 1 and max(batches) <= transform.CHECK_BLOCK_ROWS
        assert got.tolist() == [h.values(y[None])[0] for y in ys]

    def test_guard_witness_matches_scalar(self):
        h = DualHandle(shifted_quadratic(), Sense.UPPER)
        with pytest.raises(NonMonotonePerspectiveError) as scalar:
            h.value(np.array([-3.0]))
        with pytest.raises(NonMonotonePerspectiveError) as batch:
            h.values(np.array([[0.0], [-3.0]]))
        assert str(batch.value) == str(scalar.value)
        fields = ("v_lo", "v_hi", "p_lo", "p_hi")
        assert [getattr(batch.value.witness, n) for n in fields] == [getattr(scalar.value.witness, n) for n in fields]

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


# -- speculative bisection in nested handles -------------------------------


def _bidual(f, sense=Sense.UPPER, tol=TOL, global_scan=False):
    return DualHandle(DualHandle(f, sense, tol=tol, global_scan=global_scan), Sense.UPPER, tol=tol)


def _outcome(h, ys):
    try:
        return h.values(ys)
    except RadialError as exc:
        return f"{type(exc).__name__}: {exc}"


def _speculation(levels):
    """Patches the speculation budget to at most `levels` levels (1 is
    off) and counts the speculative calls on the returned spy."""
    budget = mock.patch.object(transform, "SPECULATIVE_LEVELS", levels)
    spy = mock.patch.object(DualHandle, "_speculate", autospec=True, side_effect=DualHandle._speculate)
    return budget, spy


@st.composite
def _bidual_cases(draw):
    """A catalog or parsed family (one draw in eight a generated
    expression) on up to 11 rows, all of them inside the unit box in three
    draws of four (mostly finite values, few tags); a global-scan inner
    handle on at most 3 rows."""
    if draw(st.integers(0, 7)):
        f = _RAY_MONOTONE[draw(st.sampled_from(sorted(_RAY_MONOTONE)))]
    else:
        f = parse_function(draw(expressions), 1)
    inside = st.floats(-0.95, 0.95)
    coordinate = draw(st.sampled_from([inside, inside, inside, _coordinate]))
    ys = draw(st.lists(st.tuples(*[coordinate] * f.dim), min_size=1, max_size=11).map(lambda r: np.array(r, dtype=float)))
    sense, tol, global_scan = draw(st.sampled_from([Sense.UPPER, Sense.LOWER])), draw(st.sampled_from([1e-10, 1e-6])), draw(st.booleans())
    return f, ys[:3] if global_scan else ys, sense, tol, global_scan, draw(st.sampled_from([2, 3, 4]))


@given(case=_bidual_cases())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_speculation_is_invisible(case):
    """A bidual handle's values are bit-identical with speculation off and
    on (2-4 levels), or raise the same message; over a global-scan inner
    handle nothing speculates."""
    f, ys, sense, tol, global_scan, levels = case
    h = _bidual(f, sense, tol, global_scan)
    with mock.patch.object(transform, "SPECULATIVE_LEVELS", 1):
        plain = _outcome(h, ys)
    budget, spy = _speculation(levels)
    with budget, spy as calls:
        fast = _outcome(h, ys)
    if isinstance(plain, str):
        assert fast == plain
    else:
        assert np.array_equal(fast, plain), (ys, fast, plain)
    if global_scan:
        assert not calls.called


class TestSpeculation:
    #: Finite values and one ZERO tag (1.7) for the sqrt cap's bidual.
    YS = np.array([[0.3], [-0.5], [0.8], [1.7], [-0.05]])

    @pytest.mark.parametrize("entry", strict_entries(), ids=lambda entry: entry.name)
    @pytest.mark.parametrize("sense", [Sense.UPPER, Sense.LOWER])
    def test_runs_on_batch_native_bases_with_fewer_base_calls(self, entry, sense):
        f, ys = entry.oracle, np.array(entry.residual_grid[::20] + (np.full(entry.oracle.dim, 40.0),))
        base_calls = []

        def counting(xs):
            base_calls.append(len(xs))
            return f.eval_many(xs)

        h = _bidual(FunctionOracle(f.dim, f.eval, meta=f.meta, many=counting), sense)
        with mock.patch.object(transform, "SPECULATIVE_LEVELS", 1):
            plain = h.values(ys)
        plain_calls, base_calls[:] = len(base_calls), []
        budget, spy = _speculation(transform.SPECULATIVE_LEVELS)
        with budget, spy as calls:
            assert np.array_equal(h.values(ys), plain)
        assert calls.called and len(base_calls) < plain_calls / 2

    def test_not_over_a_python_loop_base_or_a_single_level(self):
        f = sqrt_cap(1)
        loop = _bidual(FunctionOracle(1, f.eval, meta=f.meta))
        budget, spy = _speculation(transform.SPECULATIVE_LEVELS)
        with budget, spy as calls:
            loop.values(self.YS[:2])
            upper(f).values(self.YS)
        assert not calls.called

    def test_pairs_per_call_stay_within_the_budget(self):
        f = parse_function("pos(sqrt(1 - x0^2))", 1)
        widths = []

        def recording(h, ys, rows, lo, hi, levels):
            widths.append(len(ys) * ((1 << levels) - 1))
            return DualHandle._speculate(h, ys, rows, lo, hi, levels)

        ys = np.linspace(-0.9, 0.9, 40)[:, None]
        with mock.patch.object(DualHandle, "_speculate", autospec=True, side_effect=recording):
            _bidual(f).values(ys)
        assert widths and max(widths) <= transform.SPECULATIVE_PAIRS

    def _recorded_plain_run(self, f, ys):
        """The plain result and every point the plain lockstep passes to
        the leaf, in order."""
        seen = []

        def recording(xs):
            seen.extend(map(tuple, xs.tolist()))
            return f.eval_many(xs)

        with mock.patch.object(transform, "SPECULATIVE_LEVELS", 1):
            plain = _bidual(FunctionOracle(1, f.eval, meta=f.meta, many=recording)).values(ys)
        return plain, seen

    @staticmethod
    def _raising_on(f, bad):
        def many(xs):
            for i, x in enumerate(xs.tolist()):
                if bad(tuple(x)):
                    raise ExpressionRangeError(-1.0, x, i)
            return f.eval_many(xs)

        return FunctionOracle(1, f.eval, meta=f.meta, many=many)

    def test_a_failed_speculation_takes_the_plain_step(self):
        """A leaf that raises on every point the plain search never visits
        fails each speculative call; values still returns the plain
        result."""
        f = sqrt_cap(1)
        plain, seen = self._recorded_plain_run(f, self.YS)
        visited = set(seen)
        budget, spy = _speculation(transform.SPECULATIVE_LEVELS)
        with budget, spy as calls:
            got = _bidual(self._raising_on(f, lambda x: x not in visited)).values(self.YS)
        assert calls.called and np.array_equal(got, plain)

    def test_an_error_on_a_visited_point_is_the_plain_error(self):
        f = sqrt_cap(1)
        _, seen = self._recorded_plain_run(f, self.YS)
        point = seen[len(seen) * 3 // 4]  # late in the plain search
        leaf = self._raising_on(f, lambda x: x == point)
        with mock.patch.object(transform, "SPECULATIVE_LEVELS", 1), pytest.raises(ExpressionRangeError) as plain:
            _bidual(leaf).values(self.YS)
        budget, spy = _speculation(transform.SPECULATIVE_LEVELS)
        with budget, spy as calls, pytest.raises(ExpressionRangeError) as fast:
            _bidual(leaf).values(self.YS)
        assert calls.called and str(fast.value) == str(plain.value) and fast.value.row is not None


class TestErrorRows:
    def test_compacted_rows_are_named_as_the_caller_numbers_them(self):
        """Row 0 retires after a few steps; the leaf then sees row 1 as its
        row 0, and the error names row 1."""
        f = parse_function("abs(x0) + 1", 1)

        def many(xs):
            if len(xs) == 1:
                raise ExpressionRangeError(-1.0, xs[0].tolist(), 0)
            return f.eval_many(xs)

        h = DualHandle(FunctionOracle(1, f.eval, meta=DECLARED_UPPER, many=many), Sense.UPPER, tol=0.5)
        with pytest.raises(ExpressionRangeError, match=r"\(row 1\)") as raised:
            h.values(np.array([[0.0], [2.0]]))
        assert raised.value.row == 1

    def test_an_oracle_without_a_batch_callback_names_the_row(self):
        """eval_many loops over eval when no batch callback is given; the
        error still names the row, directly and through values."""
        f = FunctionOracle(1, parse_function("1 - x0", 1).eval)
        with pytest.raises(ExpressionRangeError, match=r"at \[2.0\] \(row 1\)") as raised:
            f.eval_many(np.array([[0.0], [2.0]]))
        assert raised.value.row == 1
        with pytest.raises(ExpressionRangeError, match=r"at \[3.0\] \(row 1\)"):
            upper(f).values(np.array([[0.5], [3.0]]))

    def test_a_batch_error_without_a_row_reaches_the_caller_unchanged(self):
        f = parse_function("abs(x0) + 1", 1)
        error = ExpressionRangeError(-1.0, [0.0])

        def many(xs):
            raise error

        with pytest.raises(ExpressionRangeError) as raised:
            upper(FunctionOracle(1, f.eval, meta=DECLARED_UPPER, many=many)).values(np.array([[0.0], [2.0]]))
        assert raised.value is error and raised.value.row is None

    def test_scan_pairs_are_named_by_their_row(self):
        f = parse_function("1 - x0^2", 1)
        h = DualHandle(f, Sense.UPPER, global_scan=True)
        with pytest.raises(ExpressionRangeError, match=r"\(row 2\)"):
            h.values(np.array([[0.0], [0.0], [0.5]]))

    def test_nested_rows_are_named_by_the_outer_row(self):
        f = parse_function("1 - x0^2", 1)
        h = _bidual(f, global_scan=True)
        with pytest.raises(ExpressionRangeError, match=r"\(row 1\)"):
            h.values(np.array([[0.0], [0.5]]))
