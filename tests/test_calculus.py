import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial import (
    INF,
    ZERO,
    DegenerateNormalError,
    DualHandle,
    ExtPos,
    FunctionOracle,
    KthKind,
    LiftedPoint,
    NormalKind,
    NormalVector,
    OriginNotInSetError,
    OverflowRiskError,
    RadialityMeta,
    RadialityRequiredError,
    Sense,
    SetOracle,
    StrictnessViolatedError,
    ball_set,
    box_set,
    check_radial,
    dual_gradient,
    dual_hessian,
    dual_subgradient,
    extpos_gap,
    gauge,
    general_point_map,
    general_transform,
    halfspace_set,
    indicator_oracle,
    parse_function,
    rule_kth,
    rule_linear,
    rule_max,
    rule_min,
    rule_scale,
)
from radial.oracle import DECLARED_STRICT
from radial.catalog import (
    absval,
    constant,
    exp_bump,
    shifted_parabola,
    shifted_quadratic,
    sqrt_cap,
    sqrt_cap_dual,
    strict_entries,
    tent,
    tent_dual,
)
from helpers import central_gradient, central_hessian, relative_error

TOL = 1e-10


def upper(f, **kw):
    return DualHandle(f, Sense.UPPER, **kw)


def scaled_oracle(f, lam):
    def ev(x):
        v = f.eval(x)
        return ExtPos.finite(lam * v.value) if v.is_finite else v

    return FunctionOracle(f.dim, ev, meta=f.meta, name=f"{lam:g}*{f.name}")


def composed_oracle(f, a):
    a = np.atleast_2d(a)

    def ev(x):
        return f.eval(a @ x)

    return FunctionOracle(a.shape[1], ev, meta=f.meta, name=f"{f.name}∘A")


def pointwise_oracle(fs, combine, name):
    def ev(x):
        return combine([g.eval(x) for g in fs])

    return FunctionOracle(fs[0].dim, ev, meta=DECLARED_STRICT, name=name)


class TestScaleRule:
    def test_identity_factor(self):
        rule = rule_scale(1.0, upper(sqrt_cap(1)))
        for t in (-1.0, 0.0, 2.0):
            y = np.array([t])
            assert extpos_gap(rule.eval(y), sqrt_cap_dual(y)) <= 2 * TOL * 4

    def test_halving_example(self):
        rule = rule_scale(2.0, upper(sqrt_cap(1)))
        got = rule.eval(np.array([0.0]))
        assert abs(got.value - 0.5) <= 2 * TOL
        direct = upper(scaled_oracle(sqrt_cap(1), 2.0)).value(np.array([0.0]))
        assert abs(direct.value - 0.5) <= 2 * TOL

    def test_constant_example(self):
        rule = rule_scale(0.5, upper(constant(2.0)))
        assert abs(rule.eval(np.array([3.0])).value - 1.0) <= 2 * TOL

    def test_tags_pass_through(self):
        rule = rule_scale(2.0, upper(absval()))
        assert rule.eval(np.array([5.0])) is ZERO
        assert rule.eval(np.array([0.1])) is INF

    def test_agrees_with_direct_bisection(self):
        lam = 2.0
        rule = rule_scale(lam, upper(sqrt_cap(1), tol=1e-11))
        direct = upper(scaled_oracle(sqrt_cap(1), lam), tol=1e-11)
        for t in np.linspace(-2, 2, 100):
            y = np.array([t])
            assert extpos_gap(rule.eval(y), direct.value(y)) <= 5 * TOL


class TestLinearRule:
    def test_identity_map(self):
        rule = rule_linear(np.array([[1.0]]), upper(sqrt_cap(1)))
        y = np.array([0.7])
        assert extpos_gap(rule.eval(y), sqrt_cap_dual(y)) <= 2 * TOL

    def test_reflection_is_even(self):
        rule = rule_linear(np.array([[-1.0]]), upper(sqrt_cap(1)))
        for t in (0.5, 1.5):
            y = np.array([t])
            assert extpos_gap(rule.eval(y), sqrt_cap_dual(y)) <= 2 * TOL * 2

    def test_dilation_example(self):
        rule = rule_linear(np.array([[2.0]]), upper(sqrt_cap(1)))
        got = rule.eval(np.array([0.5]))
        assert abs(got.value - math.sqrt(2.0)) <= 2 * TOL * 2

    def test_agrees_with_direct_bisection(self):
        a = np.array([[2.0]])
        rule = rule_linear(a, upper(sqrt_cap(1), tol=1e-11))
        direct = upper(composed_oracle(sqrt_cap(1), a), tol=1e-11)
        for t in np.linspace(-1.4, 1.4, 100):
            y = np.array([t])
            assert extpos_gap(rule.eval(y), direct.value(y)) <= 5 * TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rule_linear(np.ones((2, 2)), upper(sqrt_cap(1)))


class TestMinMaxRules:
    def test_min_idempotent(self):
        f = sqrt_cap(1)
        rule = rule_min(upper(f), upper(f))
        for t in (-2.0, 0.0, 1.0):
            y = np.array([t])
            assert extpos_gap(rule.eval(y), sqrt_cap_dual(y)) <= 2 * TOL * 3

    def test_max_examples(self):
        rule = rule_max(upper(sqrt_cap(1)), upper(constant(0.5)))
        assert abs(rule.eval(np.array([0.0])).value - 1.0) <= 2 * TOL
        assert abs(rule.eval(np.array([3.0])).value - 2.0) <= 2 * TOL  # min(sqrt 10, 2)

    def test_max_requires_monotone_operands(self):
        with pytest.raises(RadialityRequiredError, match="; shifted_quadratic has radiality not-radial$"):
            rule_max(upper(sqrt_cap(1)), upper(shifted_quadratic()))

    def test_min_unconditional(self):
        rule = rule_min(upper(sqrt_cap(1)), upper(shifted_quadratic(), global_scan=True))
        assert rule.eval(np.array([0.0])).is_finite

    def test_min_max_agree_with_direct_bisection(self):
        f1, f2 = sqrt_cap(1), constant(0.5)
        rmin = rule_min(upper(f1, tol=1e-11), upper(f2, tol=1e-11))
        rmax = rule_max(upper(f1, tol=1e-11), upper(f2, tol=1e-11))
        dmin = upper(pointwise_oracle([f1, f2], min, "min"), tol=1e-11)
        dmax = upper(pointwise_oracle([f1, f2], max, "max"), tol=1e-11)
        for t in np.linspace(-2.5, 2.5, 100):
            y = np.array([t])
            assert extpos_gap(rmin.eval(y), dmin.value(y)) <= 5 * TOL
            assert extpos_gap(rmax.eval(y), dmax.value(y)) <= 5 * TOL

    def test_operands_must_be_handles(self):
        with pytest.raises(TypeError):
            rule_min(sqrt_cap(1), upper(sqrt_cap(1)))


def kth_primal(fs, kind, k):
    def combine(vals):
        s = sorted(vals)
        if kind == KthKind.KMIN:
            return s[k - 1]
        if kind == KthKind.KMAX:
            return s[len(s) - k]
        chunk = s[:k] if kind == KthKind.KMINAVG else s[len(s) - k :]
        if any(v.is_infinite for v in chunk):
            return INF
        total = sum(v.as_float() for v in chunk)
        return ExtPos.finite(total / k) if total > 0 else ZERO

    return pointwise_oracle(fs, combine, f"{kind}-primal")


class TestKthRules:
    def test_order_statistic_example(self):
        # Dual values at any point are (1, 2, 3) for these constants.
        duals = [upper(constant(1.0)), upper(constant(0.5)), upper(constant(1.0 / 3.0))]
        rule = rule_kth(KthKind.KMAX, 2, duals)
        assert abs(rule.eval(np.array([0.0])).value - 2.0) <= 4 * TOL

    def test_kmin_one_is_plain_min(self):
        duals = [upper(sqrt_cap(1)), upper(constant(0.5))]
        a = rule_kth(KthKind.KMIN, 1, duals)
        b = rule_min(*duals)
        for t in (-2.0, 0.0, 2.0):
            y = np.array([t])
            assert extpos_gap(a.eval(y), b.eval(y)) <= 4 * TOL

    @pytest.mark.parametrize("kind", list(KthKind), ids=lambda kind: kind.value)
    def test_agrees_with_direct_bisection(self, kind):
        fs = [sqrt_cap(1), constant(2.0), tent()]
        duals = [upper(f, tol=1e-11) for f in fs]
        rule = rule_kth(kind, 2, duals, tol=1e-11)
        direct = upper(kth_primal(fs, kind, 2), tol=1e-11)
        for t in np.linspace(-1.8, 1.8, 40):
            y = np.array([t])
            assert extpos_gap(rule.eval(y), direct.value(y)) <= 5 * TOL, (kind, t)

    def test_kminavg_over_an_infinite_operand(self):
        """An indicator is inf inside its set, so the subset average is inf
        there too; with k = 1 the rule is the plain min."""
        duals = [upper(indicator_oracle(ball_set(1, 1.0))), upper(sqrt_cap(1))]
        got = rule_kth(KthKind.KMINAVG, 1, duals).eval(np.array([0.5]))
        assert abs(got.value - rule_min(*duals).eval(np.array([0.5])).value) <= 4 * TOL

    def test_kminavg_values_are_pinned(self):
        """The bits the subset-average rule gave when its searches evaluated
        their profile through perspective; the float profile keeps them."""
        rule = rule_kth(KthKind.KMINAVG, 2, [upper(f) for f in (sqrt_cap(1), constant(2.0), tent())])
        got = [rule.eval(np.array([t])) for t in (0.3, -1.2, 1.7, 2.5)]
        assert got == [ExtPos.finite(v) for v in (0.7864881165442057, 1.3222983292071149, 1.7198214498348534, 2.25)]

    def test_gate(self):
        duals = [upper(sqrt_cap(1)), upper(shifted_quadratic())]
        for kind, k in ((KthKind.KMAX, 1), (KthKind.KMAXAVG, 2), (KthKind.KMIN, 2)):
            with pytest.raises(RadialityRequiredError):
                rule_kth(kind, k, duals)
        assert rule_kth(KthKind.KMIN, 1, [upper(sqrt_cap(1), global_scan=True), upper(shifted_quadratic(), global_scan=True)])

    def test_kinds_are_an_enum(self):
        assert getattr(KthKind, "KMIN") is KthKind.KMIN and KthKind("kmaxavg") is KthKind.KMAXAVG
        duals = [upper(sqrt_cap(1)), upper(constant(0.5))]
        assert rule_kth(KthKind.KMAX, 1, duals).name == "kmax[1/2]"
        with pytest.raises(ValueError):
            rule_kth("median", 1, duals)

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            rule_kth(KthKind.KMIN, 3, [upper(sqrt_cap(1)), upper(constant(2.0))])


class TestGauge:
    def test_euclidean_ball(self):
        got = gauge(ball_set(2, 1.0), np.array([3.0, 4.0]))
        assert abs(got.value - 5.0) <= TOL * 5

    def test_zero_at_origin(self):
        assert gauge(ball_set(2, 1.0), np.zeros(2)) is ZERO

    def test_box(self):
        got = gauge(box_set(np.array([-1.0, -1.0]), np.array([1.0, 1.0])), np.array([0.5, -2.0]))
        assert abs(got.value - 2.0) <= TOL * 2

    def test_requires_origin(self):
        shifted = box_set(np.array([1.0]), np.array([2.0]))
        with pytest.raises(OriginNotInSetError):
            gauge(shifted, np.array([1.5]))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(8)
        s = ball_set(2, 1.0)
        for _ in range(40):
            y = rng.uniform(-2, 2, size=2)
            t = rng.uniform(0.5, 2.0)
            a = gauge(s, t * y, tol=1e-12).as_float()
            b = t * gauge(s, y, tol=1e-12).as_float()
            assert abs(a - b) <= 2e-10

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(9)
        s = box_set(np.array([-1.0, -2.0]), np.array([2.0, 1.0]))
        for _ in range(40):
            y1, y2 = rng.uniform(-2, 2, size=(2, 2))
            lam = rng.uniform()
            mid = lam * y1 + (1 - lam) * y2
            lhs = gauge(s, mid).as_float()
            rhs = lam * gauge(s, y1).as_float() + (1 - lam) * gauge(s, y2).as_float()
            assert lhs <= rhs + 2 * TOL

    def test_unbounded_direction_is_zero(self):
        # A halfspace set is unbounded along directions into it.
        from radial import halfspace_set

        s = halfspace_set(np.array([1.0]), 1.0)
        assert gauge(s, np.array([-5.0])) is ZERO


_SIZES = st.floats(1e-3, 1e3)
_COORDINATES = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))


@st.composite
def closed_form_sets(draw):
    """(set, true_tag): a ball, a box (bounds of 0 included) or a halfspace
    (b > 0 and b = 0) in 1-3 dimensions, containing the origin, and
    true_tag(y), the exact gauge's tag at a finite point y (ZERO, INF, or
    None where it is finite and positive)."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["ball", "box", "halfspace"]))
    if kind == "ball":
        return ball_set(dim, draw(_SIZES)), lambda y: None if any(y) else ZERO
    if kind == "box":
        lo = draw(st.lists(st.one_of(st.just(0.0), _SIZES.map(lambda c: -c)), min_size=dim, max_size=dim))
        hi = [draw(_SIZES) if bound == 0.0 else draw(st.one_of(st.just(0.0), _SIZES)) for bound in lo]

        def box_tag(y):
            if any(c > 0.0 and h == 0.0 or c < 0.0 and bound == 0.0 for c, bound, h in zip(y, lo, hi)):
                return INF
            return None if any(y) else ZERO

        return box_set(np.array(lo), np.array(hi)), box_tag
    a = draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim))
    b = draw(st.one_of(st.just(0.0), _SIZES))

    def halfspace_tag(y):
        ay = sum(Fraction(c) * Fraction(d) for c, d in zip(a, y))
        return ZERO if ay <= 0 else INF if b == 0.0 else None

    return halfspace_set(np.array(a), b), halfspace_tag


def points(s):
    return st.lists(_COORDINATES, min_size=s.dim, max_size=s.dim)


class TestClosedFormGauges:
    """Balls, boxes and halfspaces answer gauge from their formulas; the
    upper transform of the indicator is the bisection they replace."""

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_bisection(self, data):
        s, true_tag = data.draw(closed_form_sets())
        y = data.draw(points(s))
        got, bisected = gauge(s, y), upper(indicator_oracle(s)).value(y)
        tag = true_tag(y)
        if tag is not None:
            assert got is tag and bisected is tag
        elif 1e-11 <= bisected.as_float() <= 1e11:
            assert got.is_finite
            assert abs(got.value - bisected.value) <= 1.01 * TOL * max(got.value, 1.0)
        else:
            assert got.is_finite

    @given(st.data(), st.sampled_from([60, -60]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exact_beyond_the_caps(self, data, k):
        """Scaling y by 2^k scales the gauge by 2^k to the bit, also where
        the bisection stops at a cap and gives a tag instead."""
        s, true_tag = data.draw(closed_form_sets())
        y = data.draw(points(s))
        g = gauge(s, y)
        far = [math.ldexp(c, k) for c in y]
        if not g.is_finite:
            assert gauge(s, far) is g
            return
        assert gauge(s, far) == ExtPos.finite(math.ldexp(g.value, k))
        if 1e-3 <= g.value <= 1e3:
            assert upper(indicator_oracle(s)).value(far) is (INF if k > 0 else ZERO)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_gauge_beyond_the_largest_float_raises(self, data):
        """At y 2^1018 (finite: |y_i| <= 10) the gauge is g 2^1018, which
        overflows for g >= 64."""
        s, _ = data.draw(closed_form_sets())
        y = data.draw(points(s))
        g = gauge(s, y)
        far = [math.ldexp(c, 1018) for c in y]
        if not g.is_finite:
            assert gauge(s, far) is g
            return
        try:
            want = math.ldexp(g.value, 1018)
        except OverflowError:
            with pytest.raises(OverflowRiskError, match="left the finite range"):
                gauge(s, far)
        else:
            assert math.isclose(gauge(s, far).value, want, rel_tol=1e-15)

    def test_a_gauge_below_the_smallest_float_raises(self):
        # The last: a.y = 1e-600 underflows to 0 in floats, which is no tag.
        for s, y in [(ball_set(1, 1e300), [1e-300]), (box_set(np.array([-1e300]), np.array([1.0])), [-1e-300]), (halfspace_set(np.array([1e-300]), 1e300), [1.0]), (halfspace_set(np.array([1e-300]), 1.0), [1e-300])]:
            with pytest.raises(OverflowRiskError, match="left the finite range"):
                gauge(s, y)

    def test_a_product_that_overflows_is_taken_exactly(self):
        # a.y = 2e308 overflows; a.y / b = 2e307 does not.
        s = halfspace_set(np.array([1e308, 1e308]), 10.0)
        assert gauge(s, [1.0, 1.0]) == ExtPos.finite(2e307)
        assert gauge(halfspace_set(np.array([1e308, -1e308]), 0.0), [1e10, 1e10]) is ZERO

    def test_a_cancelling_sum_is_taken_exactly(self):
        # In floats 1e16 + 1 - 1e16 is 0, the tag, and 1e16 + 3 - 1e16 is 4;
        # exactly they are 1 and 3.
        assert gauge(halfspace_set(np.ones(3), 1.0), [1e16, 1.0, -1e16]) == ExtPos.finite(1.0)
        assert gauge(halfspace_set(np.ones(3), 1.0), [1e16, 3.0, -1e16]) == ExtPos.finite(3.0)
        assert gauge(halfspace_set(np.ones(3), 0.0), [1e16, 1.0, -1e16]) is INF
        assert gauge(halfspace_set(np.ones(3), 1.0), [1e16, -1.0, -1e16]) is ZERO

    @given(st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_non_finite_coordinate_gets_the_bisections_answer(self, data, bad):
        s, _ = data.draw(closed_form_sets())
        y = data.draw(points(s))
        y[data.draw(st.integers(0, s.dim - 1))] = bad
        assert gauge(s, y) == upper(indicator_oracle(s)).value(y)

    def test_a_membership_only_set_is_bisected(self):
        s = SetOracle(2, ball_set(2, 1.0).member)
        assert s.gauge is None
        assert gauge(s, [3.0, 4.0]) == upper(indicator_oracle(s)).value([3.0, 4.0])

    def test_the_origin_is_checked_once(self):
        calls = []
        s = SetOracle(1, lambda x: calls.append(x) or bool(abs(x[0]) <= 1.0), lambda y: abs(y[0]))
        for y in ([0.5], [2.0], [-3.0]):
            gauge(s, y)
        assert len(calls) == 1

    def test_the_vector_shape_is_checked(self):
        with pytest.raises(ValueError, match=r"expected a vector of length 2, got shape \(3,\)"):
            gauge(ball_set(2, 1.0), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"expected a vector of length 2, got shape \(3,\)"):
            gauge(SetOracle(2, ball_set(2, 1.0).member), [1.0, 2.0, 3.0])


class TestDualGradient:
    def test_hand_value(self):
        g = dual_gradient(sqrt_cap(1), np.array([1.0]), math.sqrt(2.0))
        assert abs(g[0] - 1.0 / math.sqrt(2.0)) <= 1e-12

    def test_symmetry_point(self):
        g = dual_gradient(sqrt_cap(1), np.array([0.0]), 1.0)
        assert abs(g[0]) <= 1e-12

    def test_stationary_image(self):
        f = shifted_parabola()
        g = dual_gradient(f, np.array([0.5]), 0.5)
        assert abs(g[0]) <= 1e-12

    def test_strictness_violated(self):
        with pytest.raises(StrictnessViolatedError):
            dual_gradient(absval(), np.array([0.5]), 1.0)

    def test_matches_differences_of_transform(self):
        rng = np.random.default_rng(12)
        for entry in strict_entries():
            f = entry.oracle
            handle = upper(f, tol=1e-13)
            for _ in range(20):
                y = rng.uniform(-3.0, 3.0, size=f.dim)
                if entry.name == "exp_bump" and abs(y[0]) < 0.05:
                    continue
                val = handle.value(y)
                got = dual_gradient(f, y, val.value)
                want = central_gradient(lambda z: handle.value(z).as_float(), y, 1e-4)
                assert relative_error(got, want) <= 1e-6, entry.name


class TestDualHessian:
    def test_hand_values(self):
        h0 = dual_hessian(sqrt_cap(1), np.array([0.0]), 1.0)
        assert abs(h0[0, 0] - 1.0) <= 1e-12
        h1 = dual_hessian(sqrt_cap(1), np.array([1.0]), math.sqrt(2.0))
        assert abs(h1[0, 0] - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-12

    def test_concave_primal_gives_psd_dual_hessian(self):
        rng = np.random.default_rng(13)
        for entry in strict_entries():
            if not entry.concave:
                continue
            f = entry.oracle
            handle = upper(f, tol=1e-12)
            lo, hi = entry.smooth_box
            for _ in range(15):
                y = rng.uniform(lo, hi, size=f.dim)
                h = dual_hessian(f, y, handle.value(y).value)
                assert float(np.min(np.linalg.eigvalsh(h))) >= -1e-9, entry.name

    def test_matches_second_differences(self):
        rng = np.random.default_rng(14)
        for entry in strict_entries():
            f = entry.oracle
            handle = upper(f, tol=1e-13)
            lo, hi = entry.smooth_box
            for _ in range(8):
                y = rng.uniform(lo, hi, size=f.dim)
                got = dual_hessian(f, y, handle.value(y).value)
                want = central_hessian(lambda z: handle.value(z).as_float(), y, 1e-3)
                assert relative_error(got, want) <= 1e-5, entry.name

    def test_requires_hessian_callback(self):
        with pytest.raises(ValueError):
            dual_hessian(tent(), np.array([0.5]), 0.75)


class TestDualDerivativePins:
    """The bits the dual derivatives gave while their preamble read f
    through eval; it reads the float form now and must give the same ones."""

    def test_dual_gradient_over_differences(self):
        cap2 = parse_function("pos(sqrt(1-x0^2-x1^2))", 2)
        assert dual_gradient(cap2, [0.3, -0.4], 1.118033988692332).tolist() == [0.268328157310914, -0.3577708763649013]
        assert dual_gradient(cap2, [1.0, 0.5], 1.5).tolist() == [0.6666666666751868, 0.3333333333375934]
        bump = parse_function("exp(-abs(x0)) + 0.5", 1)
        assert dual_gradient(bump, [0.8], 1.0385570478974842).tolist() == [0.3508148893824944]

    def test_dual_gradient_and_hessian_from_callbacks(self):
        y = [0.3, -0.4]
        assert dual_gradient(sqrt_cap(2), y, 1.118033988692332).tolist() == [0.26832815731378984, -0.35777087641838645]
        assert dual_hessian(sqrt_cap(2), y, 1.118033988692332).tolist() == [
            [0.8300284332306073, 0.08586501034372836],
            [0.08586501034372836, 0.7799405105300987],
        ]
        assert dual_gradient(shifted_parabola(), [0.6], 0.5082762530073524).tolist() == [0.15079291117334487]
        assert dual_hessian(shifted_parabola(), [0.6], 0.5082762530073524).tolist() == [[1.1108039680760031]]

    def test_the_difference_gradient_reads_f_once_at_the_mapped_point(self):
        """The preamble's f(x) is the base of the difference quotients: one
        evaluation at x and two probes per coordinate."""
        cap2 = parse_function("pos(sqrt(1-x0^2-x1^2))", 2)
        points = []
        recording = FunctionOracle(2, scalar=lambda x: points.append(x) or cap2.eval_float(x))
        assert dual_gradient(recording, [0.3, -0.4], 1.118033988692332).tolist() == [0.268328157310914, -0.3577708763649013]
        assert len(points) == 5 and points[0] == (np.array([0.3, -0.4]) / 1.118033988692332).tolist()

    def test_the_pinned_dual_values(self):
        """The dual values the pins above are taken at."""
        for f, y, want in [
            (parse_function("pos(sqrt(1-x0^2-x1^2))", 2), [0.3, -0.4], 1.118033988692332),
            (parse_function("pos(sqrt(1-x0^2-x1^2))", 2), [1.0, 0.5], 1.5),
            (parse_function("exp(-abs(x0)) + 0.5", 1), [0.8], 1.0385570478974842),
            (shifted_parabola(), [0.6], 0.5082762530073524),
        ]:
            assert upper(f).eval_float(y) == want


class TestDualSubgradient:
    def test_matches_gradient_for_smooth_points(self):
        f = sqrt_cap(1)
        x = np.array([1.0 / math.sqrt(2.0)])
        n = NormalVector(-f.grad(x), 1.0, NormalKind.CONVEX, LiftedPoint(x, f.eval(x).value))
        sub = dual_subgradient(n)
        assert abs(sub[0] - 1.0 / math.sqrt(2.0)) <= 1e-12

    def test_degenerate_pairing(self):
        n = NormalVector(np.array([1.0]), -1.0, NormalKind.CONVEX, LiftedPoint(np.array([1.0]), 1.0))
        with pytest.raises(DegenerateNormalError):
            dual_subgradient(n)

    def test_tent_kink_maps_to_interval_endpoints(self):
        # Facet normals of the hypograph at the kink (0, 2): (1, 1), (-1, 1).
        # Their images are the endpoints of the dual subdifferential at 0,
        # which for the dual (1 + |y|) / 2 is [-1/2, 1/2].
        at = LiftedPoint(np.array([0.0]), 2.0)
        endpoints = set()
        for zeta in (1.0, -1.0):
            sub = dual_subgradient(NormalVector(np.array([zeta]), 1.0, NormalKind.CONVEX, at))
            endpoints.add(round(float(sub[0]), 12))
        assert endpoints == {0.5, -0.5}
        slope_right = (tent_dual(np.array([1e-3])).value - tent_dual(np.array([0.0])).value) / 1e-3
        assert abs(slope_right - 0.5) <= 1e-12


class TestGeneralTransform:
    def test_identity_reduction(self):
        rule = general_transform(np.eye(1), np.zeros(1), 1.0, upper(sqrt_cap(1)))
        y = np.array([0.8])
        assert extpos_gap(rule.eval(y), sqrt_cap_dual(y)) <= 2 * TOL

    def test_scale_halves_values(self):
        rule = general_transform(np.eye(1), np.zeros(1), 2.0, upper(sqrt_cap(1)))
        y = np.array([1.0])
        assert abs(rule.eval(y).value - math.sqrt(2.0) / 2.0) <= 2 * TOL

    def test_shift_example(self):
        rule = general_transform(np.eye(1), np.array([1.0]), 1.0, upper(sqrt_cap(1)))
        assert abs(rule.eval(np.array([1.0])).value - 1.0) <= 2 * TOL

    def test_epigraph_maps_into_hypograph(self):
        rng = np.random.default_rng(15)
        f = sqrt_cap(2)
        a = np.array([[1.0, 0.4], [-0.2, 0.9]])
        alpha = np.array([0.3, -0.1])
        d = 1.7
        rule = general_transform(a, alpha, d, upper(f))
        hits = 0
        while hits < 200:
            x = rng.uniform(-1.5, 1.5, size=2)
            u = f.eval(x).as_float() + rng.uniform(0.0, 2.0)
            if u <= 0.0:
                u = rng.uniform(0.1, 2.0)
            y, v = general_point_map(a, alpha, d, x, u)
            val = rule.eval(y)
            assert v <= val.as_float() + 1e-8
            hits += 1

    def test_singular_map_rejected(self):
        with pytest.raises(ValueError):
            general_transform(np.zeros((1, 1)), np.zeros(1), 1.0, upper(sqrt_cap(1)))

    @pytest.mark.parametrize("u", [0.0, -1.0, math.inf, math.nan])
    def test_point_map_needs_a_finite_positive_height(self, u):
        with pytest.raises(ValueError):
            general_point_map(np.eye(1), np.zeros(1), 1.0, np.array([0.5]), u)


class TestNonsmoothPrimalSmoothDual:
    """Documented case: the transform can be differentiable even where the
    base function's derivative formula breaks down, so only difference
    quotients of the transform value apply there."""

    def test_closed_form(self):
        from radial.catalog import lifted_cap, lifted_cap_dual

        h = upper(lifted_cap())
        for t in np.linspace(-2.5, 2.5, 101):
            y = np.array([t])
            assert extpos_gap(h.value(y), lifted_cap_dual(y)) <= 2 * TOL * 3

    def test_dual_differentiable_at_image_of_kink(self):
        from radial.catalog import lifted_cap
        from radial.oracle import gradient as fd_gradient

        from radial import NotDifferentiableError

        f = lifted_cap()
        h = upper(f, tol=1e-13)
        # The derivative formula's preconditions fail at x = 1 (the mapped
        # point of y = 1): the one-sided quotients of f blow up there.
        with pytest.raises((NotDifferentiableError, StrictnessViolatedError)):
            dual_gradient(f, np.array([1.0]), h.value(np.array([1.0])).value)
        # Yet the transform itself is differentiable at y = 1 with slope 1:
        # the parabolic branch y and the ray branch sign(y) agree.  The
        # second derivative jumps there, so the central difference carries
        # an O(h) curvature bias; h = 1e-6 keeps it near 2.5e-7.
        slope = central_gradient(lambda z: h.value(z).as_float(), np.array([1.0]), 1e-6)
        assert abs(slope[0] - 1.0) <= 1e-5
        # And the transform oracle's own difference-quotient gradient agrees.
        assert abs(fd_gradient(h, np.array([1.0]))[0] - 1.0) <= 1e-3


class TestTransformOfNonMonotoneIsSelfDual:
    def test_quadratic_dual_is_duality_stable(self):
        # The quadratic itself is not ray-monotone, but its transform is:
        # transforming the closed-form dual twice reproduces it.
        from radial import duality_residual
        from radial.catalog import shifted_quadratic_upper_dual
        from radial.oracle import DECLARED_UPPER

        dual_oracle = FunctionOracle(
            1, lambda x: shifted_quadratic_upper_dual(x), meta=DECLARED_UPPER, name="quad-dual"
        )
        grid = [np.array([t]) for t in np.linspace(-2.0, 0.2, 23)]
        assert duality_residual(dual_oracle, grid) <= 5 * TOL


class TestShapePreservation:
    def test_quasiconvex_sublevels_are_intervals(self):
        handle = upper(exp_bump())
        ys = np.linspace(-4, 4, 161)
        vals = np.array([handle.value(np.array([t])).as_float() for t in ys])
        for z in (0.7, 0.8, 1.0, 1.3):
            inside = vals <= z
            if inside.any():
                idx = np.flatnonzero(inside)
                assert np.all(np.diff(idx) == 1), f"sublevel at {z} not an interval"

    def test_piecewise_linear_transform_is_piecewise_linear(self):
        handle = upper(tent())
        ys = np.linspace(-2, 2, 81)
        vals = np.array([handle.value(np.array([t])).as_float() for t in ys])
        h = ys[1] - ys[0]
        second = np.abs(vals[:-2] - 2 * vals[1:-1] + vals[2:]) / h**2
        breakpoints = np.flatnonzero(second > 1e-5)
        assert len(breakpoints) <= 2  # only cells straddling the kink at 0

    def test_concave_primal_gives_convex_dual_midpoints(self):
        rng = np.random.default_rng(16)
        for entry in strict_entries():
            if not entry.concave:
                continue
            handle = upper(entry.oracle)
            for _ in range(25):
                y1, y2 = rng.uniform(-2.0, 2.0, size=(2, entry.oracle.dim))
                mid = 0.5 * (y1 + y2)
                lhs = handle.value(mid).as_float()
                rhs = 0.5 * handle.value(y1).as_float() + 0.5 * handle.value(y2).as_float()
                assert lhs <= rhs + 2 * TOL, entry.name


def at(f, points):
    return [f(np.array(p)) for p in points]


def pinned(values):
    return [ExtPos.from_float(v) for v in values]


class TestPinnedValues:
    """The bits the rules and gauges gave while their oracles answered in
    ExtPos; the float callbacks keep them."""

    A = np.array([[1.0, 0.5], [-0.25, 2.0]])
    PLANE = ([0.3, -0.4], [1.5, 2.0], [0.0, 0.0], [-3.0, 0.7])
    LINE = ([0.3], [-1.2], [1.7], [2.5])

    def operands(self):
        return [upper(f) for f in (sqrt_cap(1), constant(2.0), tent())]

    def test_scale(self):
        assert at(rule_scale(2.5, upper(sqrt_cap(1))).eval, ([0.3], [-1.2], [0.0], [4.0])) == pinned([0.5, 1.264911064039916, 0.4, 4.019950248301029])
        assert at(rule_scale(0.5, parse_function("pos(1 - x0^2)", 1)).eval, ([0.3], [-1.2], [0.0], [3.0])) == pinned([1.955, 1.28, 2.0, 0.0])
        assert at(rule_scale(2.0, upper(absval())).eval, ([0.3], [0.6], [-2.0])) == [INF, ZERO, ZERO]

    def test_linear_and_general(self):
        assert at(rule_linear(self.A, upper(sqrt_cap(2))).eval, self.PLANE) == pinned([1.3325257970718667, 4.515597966965288, 1.0, 3.5559808772522956])
        rule = general_transform(self.A, np.array([0.5, -0.25]), 1.5, upper(sqrt_cap(2)))
        assert at(rule.eval, self.PLANE) == pinned([0.6773310810094699, 1.06533942798463, 0.7553474620993559, 2.4381310241296887])

    def test_min_and_max(self):
        cap, _, tent_handle = self.operands()
        assert at(rule_min(cap, tent_handle).eval, self.LINE) == pinned([1.0440306508680806, 1.562049935106188, 1.9723082922864705, 2.692582403542474])
        assert at(rule_max(cap, tent_handle).eval, self.LINE) == pinned([0.6499999999650754, 1.099999999976717, 1.349999999976717, 1.75])

    def test_kth(self):
        duals = self.operands()
        assert at(rule_kth(KthKind.KMIN, 1, duals).eval, self.LINE) == pinned([1.0440306508680806, 1.562049935106188, 1.9723082922864705, 2.692582403542474])
        assert at(rule_kth(KthKind.KMAX, 1, duals).eval, self.LINE) == pinned([0.5] * 4)
        assert at(rule_kth(KthKind.KMAX, 2, duals).eval, self.LINE) == pinned([0.6499999999650754, 1.099999999976717, 1.349999999976717, 1.75])
        assert at(rule_kth(KthKind.KMAXAVG, 2, duals).eval, self.LINE) == pinned([0.5749999999534339, 0.7999999999883585, 0.9249999999883585, 1.0])
        rule = rule_kth(KthKind.KMAXAVG, 2, [upper(f) for f in (sqrt_cap(1), absval(), tent())])
        assert at(rule.eval, ([0.3], [-1.2], [0.9], [2.5])) == pinned([0.7864881165442057, 1.0, 1.0, 0.0])

    def test_gauges(self):
        """The indicator's upper transform keeps the bits of the bisection
        that gauge ran before these sets had closed forms, and each
        closed-form gauge lies within tol of it."""
        ball, box = ball_set(2, 1.5), box_set(np.array([-1.0, -2.0]), np.array([2.0, 1.0]))
        halfspace = halfspace_set(np.array([1.0, -2.0]), 1.5)
        cases = [
            (ball, ([3.0, 4.0], [0.1, -0.2], [0.0, 0.0], [-7.0, 1.0]), [3.333333333255723, 0.1490711984806694, 0.0, 4.714045207481831], [3.333333333333333, 0.14907119849998599, 0.0, 4.714045207910317]),
            (box, ([0.5, -2.0], [3.0, 0.25], [-0.3, 0.9]), [0.9999999999417923, 1.4999999998835847, 0.8999999999650754], [1.0, 1.5, 0.9]),
            (halfspace, ([3.0, 0.5], [-1.0, 0.2], [0.7, 0.0]), [1.3333333332557231, 0.0, 0.46666666661622], [1.3333333333333333, 0.0, 0.4666666666666666]),
        ]
        for s, points, bisected, closed in cases:
            assert at(upper(indicator_oracle(s)).value, points) == pinned(bisected)
            assert at(lambda y: gauge(s, y), points) == pinned(closed)
            assert all(abs(b - c) <= TOL * max(c, 1.0) for b, c in zip(bisected, closed))


class TestFloatCallbacks:
    @staticmethod
    def count_evals(*oracles):
        """Wrap each oracle's eval callback, as perfbench's tracer does;
        the returned list collects the names of the oracles evaluated."""
        calls = []
        for f in oracles:

            def ev(x, f=f, original=f._eval_fn):
                calls.append(f.name)
                return original(x)

            f._eval_fn = ev
        return calls

    def test_searches_over_rules_call_no_operand_eval(self):
        cap, const, tent_ = parse_function("pos(sqrt(1 - x0^2))", 1, meta=DECLARED_STRICT), constant(2.0), tent()
        cap2 = sqrt_cap(2)
        duals = [upper(f) for f in (cap, const, tent_)]
        dual2 = upper(cap2)
        line, plane = np.array([0.7]), np.array([0.3, -0.4])
        rules = [
            (rule_scale(2.5, duals[0]), line),
            (rule_scale(0.5, cap), line),
            (rule_linear(np.array([[1.0, 0.5], [-0.25, 2.0]]), dual2), plane),
            (general_transform(np.eye(2), np.array([0.5, -0.25]), 1.5, dual2), plane),
            (rule_min(duals[0], duals[2]), line),
            (rule_max(duals[0], duals[2]), line),
            *[(rule_kth(kind, 2, duals), line) for kind in KthKind],
            (indicator_oracle(ball_set(1, 1.0)), line),
        ]
        calls = self.count_evals(cap, const, tent_, cap2, *duals, dual2, *[rule for rule, _ in rules])
        for rule, y in rules:
            assert upper(rule).value(y).is_finite, rule.name
        assert calls == []

    def test_a_scaled_value_that_overflows_raises(self):
        rule = rule_scale(1e-308, upper(constant(0.5)))
        for call in (lambda: rule.eval(np.array([1.0])), lambda: rule.eval_float([1.0])):
            with pytest.raises(OverflowRiskError, match="left the finite range"):
                call()

    def test_an_average_that_overflows_raises(self):
        big = [upper(constant(1.5e308)) for _ in range(2)]
        with pytest.raises(OverflowRiskError, match="left the finite range"):
            rule_kth(KthKind.KMINAVG, 2, big).eval(np.array([1.0]))


class TestIndicator:
    @pytest.mark.parametrize("s", [ball_set(2, 1.0), box_set(np.array([-1.0, 0.0]), np.array([1.0, 2.0])), halfspace_set(np.array([1.0, 1.0]), 0.0)])
    def test_a_set_containing_the_origin_is_declared_radial(self, s):
        assert indicator_oracle(s).meta is RadialityMeta.RADIAL

    @pytest.mark.parametrize("s", [box_set(np.array([1.0]), np.array([2.0])), halfspace_set(np.array([1.0]), -1.0)])
    def test_a_set_without_the_origin_is_unknown(self, s):
        """Its profile is not ray-monotone (the sample finds it), so no rule
        that needs ray-monotone operands takes it."""
        f = indicator_oracle(s)
        assert f.meta is RadialityMeta.UNKNOWN
        assert check_radial(f, 16, 16).meta is RadialityMeta.NOT_RADIAL
        with pytest.raises(RadialityRequiredError):
            rule_kth(KthKind.KMAX, 1, [upper(f), upper(sqrt_cap(1))])
