import contextlib
import functools
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ball_set,
    check_radial,
    duality_residual,
    extpos_gap,
    indicator_oracle,
    parse_function,
    perspective,
)
from radial import transform
from radial.oracle import DECLARED_UPPER, UNKNOWN_META, profile_tag
from radial.transform import MIN_TOL, extpos_gap_many
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


# Each search form at the finest tol, in a child process: value, values
# and a nested handle's, for both senses and a global scan.
_FINEST_TOL_SCRIPT = """
import json, numpy as np
from radial import DualHandle, Sense, parse_function, transform
transform.LOCKSTEP_MIN_ROWS = 0  # values runs the four rows in lockstep
f = parse_function("pos(sqrt(1 - x0^2))", 1)
ys = np.array([[0.0], [0.5], [1.0], [3.0]])
out = {}
for sense in Sense:
    for scan in (False, True):
        h = DualHandle(f, sense, tol=2**-52, global_scan=scan)
        for name, g in (("", h), ("nested ", DualHandle(h, Sense.UPPER, tol=2**-52))):
            key = f"{name}{sense.value} scan={scan}"
            out[key] = [g.values(ys).tolist(), [g.value(y).as_float() for y in ys]]
print(json.dumps(out))
"""


class TestToleranceFloor:
    """Below float resolution a search whose bracket has closed to adjacent
    floats still misses the stop rule and never returns."""

    @pytest.mark.parametrize("tol", [1e-17, 1e-300, math.nextafter(MIN_TOL, 0.0)])
    def test_finer_tol_is_refused(self, tol):
        with pytest.raises(ValueError, match="tol must be at least 2.220446049250313e-16"):
            DualHandle(sqrt_cap(1), tol=tol)

    def test_float_resolution_stops(self):
        # The timeout turns a search that never stops into a failure.
        proc = subprocess.run(
            [sys.executable, "-c", _FINEST_TOL_SCRIPT], capture_output=True, text=True, timeout=120, env=dict(os.environ)
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert len(results) == 8
        for key, (batch, single) in results.items():
            assert batch == single, key
            if key.startswith("nested"):  # the bidual of the cap is the cap
                assert abs(batch[1] - math.sqrt(0.75)) <= 1e-12, key
            else:
                assert abs(batch[2] - math.sqrt(2.0)) <= 4 * math.ulp(math.sqrt(2.0)), key


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
        with _in_lockstep(), pytest.raises(NonMonotonePerspectiveError) as batch:
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
    @pytest.mark.parametrize(
        "f, rays, points, seed, want",
        [
            (sqrt_cap(1), 16, 32, 0, ("STRICT", 0, [])),
            (sqrt_cap(1), 3, 2, 1, ("STRICT", 0, [])),
            (exp_bump(), 16, 32, 0, ("STRICT", 0, [])),
            (exp_bump(), 3, 2, 1, ("STRICT", 0, [])),
            (absval(), 16, 32, 0, ("RADIAL", 0, [])),
            (absval(), 3, 2, 1, ("RADIAL", 0, [])),
            (
                shifted_quadratic(), 16, 32, 0,
                ("NOT_RADIAL", 283, [
                    ([0.8217701239287258], 1e-12, 5.9455707085443824e-12, 675306136583.4769, 113581381787.47455),
                    ([0.8217701239287258], 5.9455707085443824e-12, 3.534981105030109e-11, 113581381787.47455, 19103528889.560513),
                    ([0.8217701239287258], 3.534981105030109e-11, 2.101748011332487e-10, 19103528889.560513, 3213068994.40874),
                    ([0.8217701239287258], 2.101748011332487e-10, 1.2496091412919892e-09, 3213068994.40874, 540413891.2887653),
                    ([0.8217701239287258], 1.2496091412919892e-09, 7.42963950759495e-09, 540413891.2887653, 90893528.29331937),
                ]),
            ),
            (
                # Two witnesses from the profile pass, then three from the
                # gradient pass (the pair 1 -> 1.0001).
                shifted_quadratic(), 3, 2, 1,
                ("NOT_RADIAL", 7, [
                    ([2.702782177955612], 1e-12, 1000000000000.0, 7305031501479.889, 1500000000005.4055),
                    ([-2.135042323682198], 1e-12, 1000000000000.0, 4558405723910.008, 1499999999995.73),
                    ([2.6918966828234634], 1.0, 1.0001, 14.130101116642892, 14.129526558323624),
                    ([1.9662155629226508], 1.0, 1.0001, 9.298434765724538, 9.298198204016721),
                    ([-2.83464532054159], 1.0, 1.0001, 3.865923452185153, 3.8652700111199327),
                ]),
            ),
        ],
        ids=["sqrt_cap", "sqrt_cap-few", "exp_bump", "exp_bump-few", "absval", "absval-few", "shifted_quadratic", "shifted_quadratic-few"],
    )
    def test_reports_are_pinned(self, f, rays, points, seed, want):
        """The reports check_radial gave while its gradient pass read f
        through eval and perspective: meta, count and kept witnesses."""
        r = check_radial(f, rays, points, seed=seed)
        got = (r.meta.name, r.witness_count, [(w.y.tolist(), w.v_lo, w.v_hi, w.p_lo, w.p_hi) for w in r.witnesses])
        assert got == want

    def test_an_indicator_the_guard_cannot_see_is_not_radial(self):
        """The search's guard compares consecutive expansion probes only, so
        eval on indicator(box 1 2) at 1.5 returns a wrong finite value; the
        sampled check is the test that catches it, as the README says."""
        report = check_radial(parse_function("indicator(box 1 2)", 1), rays=64, points_per_ray=64, seed=0)
        assert (report.meta, report.witness_count) == (RadialityMeta.NOT_RADIAL, 26)

    def test_strictly_monotone_verdict(self):
        report = check_radial(sqrt_cap(1), rays=16, points_per_ray=32, seed=0)
        assert report.meta is RadialityMeta.STRICT

    def test_constant_is_reported_strict(self):
        report = check_radial(constant(1.0), rays=8, points_per_ray=32, seed=0)
        assert report.meta is RadialityMeta.STRICT

    def test_absolute_value_not_strict(self):
        report = check_radial(absval(), rays=16, points_per_ray=32, seed=0)
        assert report.meta is RadialityMeta.RADIAL

    def test_quadratic_not_monotone_with_witness(self):
        report = check_radial(shifted_quadratic(), rays=16, points_per_ray=32, seed=0)
        assert report.meta is RadialityMeta.NOT_RADIAL
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
        assert report.meta is RadialityMeta.UNKNOWN

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
        assert report.meta is want.meta
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
        assert report.meta is RadialityMeta.NOT_RADIAL
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
        assert (got.meta, got.witness_count) == (want.meta, want.witness_count)
        assert [(w.y.tolist(), w.v_lo, w.v_hi, w.p_lo, w.p_hi) for w in got.witnesses] == [
            (w.y.tolist(), w.v_lo, w.v_hi, w.p_lo, w.p_hi) for w in want.witnesses
        ]

    def test_meta(self):
        meta = check_radial(sqrt_cap(1), rays=8, points_per_ray=32, seed=1).meta
        assert meta is RadialityMeta.STRICT
        meta = check_radial(shifted_quadratic(), rays=8, points_per_ray=32, seed=1).meta
        assert meta is RadialityMeta.NOT_RADIAL
        report = check_radial(parse_function("indicator(ball 1)", 1), rays=2, points_per_ray=4)
        assert report.meta is UNKNOWN_META

    def test_gradient_pass_keeps_its_witnesses(self):
        """On the one sampled ray the profile of 1 + x.x rises from
        v = 1e-12 to v = 1e12, so only the gradient pass finds its fall
        near v = 1, and it keeps the confirmed pair v = 1 -> 1.0001."""
        f = FunctionOracle(1, lambda x: ExtPos.finite(1 + x @ x), grad=lambda x: 2 * x)
        report = check_radial(f, rays=1, points_per_ray=2, seed=0)
        assert report.meta is RadialityMeta.NOT_RADIAL and report.witness_count == 4
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
#: x0^2 + 0.1 falls as its expansion doubles upward (the profile y^2 / v +
#: 0.1 v at y = 0.9 reads 0.91 at v = 1, 0.605 at v = 2); the others fall
#: as it halves downward.
_NOT_MONOTONE = {name: parse_function(name, 1) for name in ("(x0+1)^2 + 0.5", "x0^2 + 0.1")}
_NOT_MONOTONE["shifted_quadratic"] = shifted_quadratic()

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


def _in_lockstep():
    """Patches LOCKSTEP_MIN_ROWS to 0, so that values runs every batch in
    lockstep, however few its rows."""
    return mock.patch.object(transform, "LOCKSTEP_MIN_ROWS", 0)


def _assert_same(got, want, tol):
    assert np.array_equal(got == 0.0, want == 0.0) and np.array_equal(got == math.inf, want == math.inf), (got, want)
    finite = (0.0 < want) & (want < math.inf)
    assert np.all(np.abs(got[finite] - want[finite]) <= tol * np.maximum(1.0, np.abs(want[finite]))), (got, want)


@given(case=_searches(_RAY_MONOTONE))
@settings(max_examples=60, deadline=None, derandomize=True)
@_in_lockstep()
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
@_in_lockstep()
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


# -- the float profile against perspective ------------------------------------

#: Families whose scalar form is eval's (no scalar callback) join the parsed ones.
_EVAL_ONLY = {
    "indicator[ball]": indicator_oracle(ball_set(1, 1.0)),
    "shifted_quadratic[eval]": FunctionOracle(1, shifted_quadratic()._eval_fn),
}
_PROFILE_FAMILIES = {**_RAY_MONOTONE, **_NOT_MONOTONE, **_EVAL_ONLY}


def _recording(f):
    """f with the point of every evaluation recorded, through eval (the
    certified search's perspective) or eval_float (the float profile)."""
    points = []

    def ev(x):
        points.append(x.tolist())
        return f.eval(x)

    def scalar(x):
        points.append(list(x))
        return f.eval_float(x)

    return FunctionOracle(f.dim, ev, meta=f.meta, name=f.name, scalar=scalar), points


@st.composite
def _queries(draw):
    """One point of a catalog, parsed, eval-only or non-monotone family, or
    in one draw of four of a generated expression, under either sense, with
    or without a global scan, on a plain or a bidual handle."""
    if draw(st.integers(0, 3)):
        f = _PROFILE_FAMILIES[draw(st.sampled_from(sorted(_PROFILE_FAMILIES)))]
    else:
        f = parse_function(draw(expressions), 1)
    y = np.array(draw(st.tuples(*[_coordinate] * f.dim)), dtype=float)
    sense, tol = draw(st.sampled_from([Sense.UPPER, Sense.LOWER])), draw(st.sampled_from([1e-10, 1e-6]))
    return f, y, sense, tol, draw(st.booleans()), draw(st.booleans())


def _recorded(query, points):
    points.clear()
    try:
        outcome = query()
    except RadialError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, list(points)


@given(case=_queries())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_float_profile_matches_perspective(case):
    """value runs the search over the float profile, value_with_certificate
    over perspective.  Both evaluate the base at the same points, bit for
    bit and as many times as the certificate counts, and return the same
    value bit for bit or raise the same error with the same message."""
    f, y, sense, tol, global_scan, bidual = case
    if bidual:
        base, points = _recording(DualHandle(f, sense, tol=tol, global_scan=global_scan))
        h = DualHandle(base, Sense.UPPER, tol=tol)
    else:
        base, points = _recording(f)
        h = DualHandle(base, sense, tol=tol, global_scan=global_scan)
    fast, fast_points = _recorded(lambda: h.value(y), points)
    reference, reference_points = _recorded(lambda: h.value_with_certificate(y), points)
    assert fast_points == reference_points
    if isinstance(reference, str):
        assert fast == reference
    else:
        value, certificate = reference
        assert fast == value and len(fast_points) == certificate.evaluations, (fast, value, certificate)


def _one_loop(h, y, profile):
    """The scalar search as one loop that makes the cap tests, the choice of
    the next height and the guard's tests on every step: the reference for
    the generated search, whose bisection phase tests only the stop rule."""
    upper, guarded = h.sense is Sense.UPPER, not h.base.meta.radial
    lo, p_lo, hi, p_hi, evals = -math.inf, math.nan, math.inf, math.nan, 0
    if h.global_scan:
        profiles = np.array([[profile(v) for v in transform._SCAN_HEIGHTS.tolist()]])
        lo, p_lo, hi, p_hi = transform._scan_cells(profiles, upper)[:, 0].tolist()
        evals = transform.GLOBAL_SCAN_POINTS
    while hi - lo > h.tol * max(lo, 1.0) and lo < transform.V_MAX and hi > transform.V_MIN:
        if hi == math.inf:
            v = 1.0 if lo == -math.inf else min(2.0 * lo, transform.V_MAX)
        elif lo == -math.inf:
            v = max(0.5 * hi, transform.V_MIN)
        else:
            v = 0.5 * (lo + hi)
        p = profile(v)
        evals += 1
        if guarded and hi == math.inf and p_lo - p > transform.MONOTONE_GUARD:
            raise transform._nonmonotone(y, lo, p_lo, v, p)
        if guarded and lo == -math.inf and p - p_hi > transform.MONOTONE_GUARD:
            raise transform._nonmonotone(y, v, p, hi, p_hi)
        if p <= 1.0 if upper else p < 1.0:
            lo, p_lo = v, p
        else:
            hi, p_hi = v, p
    value = math.inf if hi == math.inf else 0.0 if lo == -math.inf else lo if upper else hi
    return value, lo, hi, p_lo, p_hi, evals


def _query_outcome(query):
    """What a query returns, as its repr, or what it raises, as its type and
    message."""
    try:
        return repr(query())
    except (RadialError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@given(case=_queries(), height=st.sampled_from([1.0, 0.5, 3.0, 1e-3]))
@example(case=(_NOT_MONOTONE["x0^2 + 0.1"], np.array([0.5]), Sense.UPPER, 1e-10, False, False), height=1.0)  # the upward guard
@settings(max_examples=120, deadline=None, derandomize=True)
def test_bisection_phase_matches_one_loop(case, height):
    """The generated search, whose probes inline a parsed base's kernel or
    call any other base's profile, takes _one_loop's decisions: at y / w its
    bracket form returns the same value, final bracket, end values and
    evaluation count, bit for bit, and the handle's profile at height w is w
    times that value by profile_tag's rule.  Where one raises, the other
    raises the same error with the same message."""
    f, y, sense, tol, global_scan, bidual = case
    h = DualHandle(f, sense, tol=tol, global_scan=global_scan)
    if bidual:
        h = DualHandle(h, Sense.UPPER, tol=tol)
    point = y.tolist() if height == 1.0 else [c / height for c in y.tolist()]
    profile = functools.partial(h.base._profile_fn, point)

    def scaled():
        value = _one_loop(h, point, profile)[0]
        s = height * value
        return s if 0.0 < s < math.inf else profile_tag(height, value)

    assert _query_outcome(lambda: h._scalar_search(h.base._profile_fn, bracket=True)(y.tolist(), height)) == _query_outcome(lambda: _one_loop(h, point, profile))
    assert _query_outcome(lambda: h._profile_fn(y.tolist(), height)) == _query_outcome(scaled)


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
        with _in_lockstep(), pytest.raises(NonMonotonePerspectiveError) as batch:
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
        with _in_lockstep(), pytest.raises(OverflowRiskError):
            h.values(np.array([[0.0], [1.0]]))

    def test_overflowing_product_raises_as_perspective_raises(self):
        # The float profile's OverflowRiskError is perspective's, word for word.
        def ev(x):
            return ExtPos.finite(1e307 if abs(x[0]) < 0.01 else 1e-3)

        h = DualHandle(FunctionOracle(1, ev, meta=DECLARED_UPPER), Sense.UPPER)
        with pytest.raises(OverflowRiskError) as fast:
            h.value(np.array([1.0]))
        with pytest.raises(OverflowRiskError) as certified:
            h.value_with_certificate(np.array([1.0]))
        assert str(fast.value) == str(certified.value) == "perspective product 128.0 * 1e+307 left the finite range"

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
@_in_lockstep()
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

    @pytest.fixture(autouse=True)
    def _every_batch_in_lockstep(self):
        """Every batch of these tests runs in lockstep, YS's five rows too."""
        with _in_lockstep():
            yield

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

    def test_the_first_tree_opens_the_bracket(self):
        """The loop opens its own bracket, so a nested values makes no start
        call: every call to the inner handle comes from _speculate, and the
        first tree's level 0 is height 1 on every row."""
        f = parse_function("pos(sqrt(1 - x0^2))", 1)
        with mock.patch.object(transform, "SPECULATIVE_LEVELS", 1):
            plain = _bidual(f).values(self.YS)
        speculate, lockstep = DualHandle._speculate, DualHandle._lockstep
        active, trees, inner_calls = [], [], []

        def recording_speculate(h, ys, rows, lo, hi, levels):
            trees.append((lo.tolist(), hi.tolist(), levels))
            active.append(h)
            try:
                return speculate(h, ys, rows, lo, hi, levels)
            finally:
                active.pop()

        def recording_lockstep(h, xs):
            if h is not outer:
                inner_calls.append((bool(active), xs.copy()))
            return lockstep(h, xs)

        with mock.patch.object(DualHandle, "_speculate", recording_speculate), mock.patch.object(DualHandle, "_lockstep", recording_lockstep):
            outer = _bidual(f)
            assert np.array_equal(outer.values(self.YS), plain)
        assert inner_calls and all(inside for inside, _ in inner_calls)
        lo, hi, levels = trees[0]
        assert lo == [-math.inf] * len(self.YS) and hi == [math.inf] * len(self.YS)
        # Each row's tree is one block of the first inner batch; level 0 is
        # the block's first height.
        assert np.array_equal(inner_calls[0][1][:: (1 << levels) - 1], self.YS / 1.0)

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


# -- small batches run the scalar search ----------------------------------------


def _counting(f):
    """f with a many= callback that counts its calls: f's own profiles, so
    only a lockstep over it calls the callback."""
    calls = []

    def many(xs):
        calls.append(len(xs))
        return f.eval_many(xs)

    return FunctionOracle(f.dim, meta=f.meta, many=many, profile=f._profile_fn), calls


class TestSmallBatches:
    @pytest.mark.parametrize("name", sorted(_RAY_MONOTONE))
    @pytest.mark.parametrize("sense", [Sense.UPPER, Sense.LOWER])
    @pytest.mark.parametrize("nested", [False, True], ids=["single", "nested"])
    def test_below_the_threshold_values_is_the_scalar_search(self, name, sense, nested):
        """Below LOCKSTEP_MIN_ROWS rows, values(ys) is [h.eval_float(y) for y
        in ys] bit for bit and never calls the base's batch callback; at
        LOCKSTEP_MIN_ROWS rows it runs the lockstep, which does."""
        f, calls = _counting(_RAY_MONOTONE[name])
        h = DualHandle(f, sense, tol=1e-6)
        if nested:
            h = DualHandle(h, Sense.UPPER, tol=1e-6)
        n = transform.LOCKSTEP_MIN_ROWS
        ys = np.random.default_rng(n).uniform(-1.5, 1.5, (n, f.dim))
        for rows in (ys[:1], ys[: n - 1]):
            got = h.values(rows)
            assert got.tobytes() == np.array([h.eval_float(y) for y in rows.tolist()]).tobytes() and not calls
        h.values(ys)
        assert calls

    def test_global_scans_stay_in_lockstep(self):
        """A global-scan handle, and a bidual over one, runs two rows in
        lockstep: one scan of both rows' heights, not a scalar search."""
        f, calls = _counting(parse_function("(x0+1)^2 + 0.5", 1))
        ys = np.array([[-1.0], [0.0]])
        for h in (upper(f, global_scan=True), _bidual(f, global_scan=True)):
            calls[:] = []
            with contextlib.ExitStack() as stack:
                handles = [h, h.base] if isinstance(h.base, DualHandle) else [h]
                searches = [stack.enter_context(mock.patch.object(g, "_profile_fn", wraps=g._profile_fn)) for g in handles]
                got = h.values(ys)
            assert not any(search.called for search in searches) and calls and max(calls) >= len(ys) * transform.GLOBAL_SCAN_POINTS
            assert got.tolist() == [h.value(y).as_float() for y in ys]

    @pytest.mark.parametrize("nested", [False, True], ids=["single", "nested"])
    def test_errors_name_the_callers_row(self, nested):
        """The scalar loop names the row that raised, as the lockstep does;
        in a batch with several failing rows the first row decides."""
        f = parse_function("1 - x0", 1)
        h = _bidual(f) if nested else upper(f)
        for ys, row in (([[0.5], [3.0]], 1), ([[5.0], [0.5], [3.0]], 0)):
            with pytest.raises(ExpressionRangeError, match=rf"\(row {row}\)") as scalar:
                h.values(np.array(ys))
            assert scalar.value.row == row
        with _in_lockstep(), pytest.raises(ExpressionRangeError, match=r"\(row 1\)") as batch:
            h.values(np.array([[0.5], [3.0]]))
        assert batch.value.row == 1


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
        with _in_lockstep(), pytest.raises(ExpressionRangeError, match=r"\(row 1\)") as raised:
            h.values(np.array([[0.0], [2.0]]))
        assert raised.value.row == 1

    def test_an_oracle_without_a_batch_callback_names_the_row(self):
        """eval_many loops over eval_float when no batch callback is given; the
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

        with _in_lockstep(), pytest.raises(ExpressionRangeError) as raised:
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
