import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial import (
    INF,
    ZERO,
    ExtPos,
    LiftedPoint,
    OverflowRiskError,
    gamma_point,
    gamma_point_many,
    optimality_product,
)


def lifted(x, u):
    return LiftedPoint(np.atleast_1d(np.asarray(x, dtype=float)), u)


class TestGammaPoint:
    def test_direct_formula(self):
        q = gamma_point(lifted([2.0], 4.0))
        assert q.x[0] == 0.5 and q.u == 0.25

    def test_height_one_fixed_point_bit_exact(self):
        p = lifted([3.0], 1.0)
        q = gamma_point(p)
        assert q.x[0] == 3.0 and q.u == 1.0

    def test_involution_round_trip(self):
        p = lifted([1.3, -2.0], 0.7)
        q = gamma_point(gamma_point(p))
        assert np.allclose(q.x, p.x, rtol=1e-15, atol=0)
        assert math.isclose(q.u, p.u, rel_tol=1e-15)

    def test_involution_bulk_million_points(self):
        rng = np.random.default_rng(7)
        m = 1_000_000
        xs = rng.uniform(-10.0, 10.0, size=(m, 3))
        us = 10.0 ** rng.uniform(-6.0, 6.0, size=m)
        ys, vs = gamma_point_many(xs, us)
        xs2, us2 = gamma_point_many(ys, vs)
        orig = np.concatenate([xs, us[:, None]], axis=1)
        back = np.concatenate([xs2, us2[:, None]], axis=1)
        rel = np.linalg.norm(back - orig, axis=1) / np.linalg.norm(orig, axis=1)
        assert float(rel.max()) <= 1e-12

    def test_height_order_reversal_on_fiber(self):
        x = np.array([0.4])
        a = gamma_point(lifted(x, 0.5))
        b = gamma_point(lifted(x, 2.0))
        assert a.u > b.u

    def test_rejects_bad_heights(self):
        with pytest.raises(ValueError):
            lifted([1.0], 0.0)
        with pytest.raises(ValueError):
            lifted([1.0], -2.0)
        with pytest.raises(ValueError):
            lifted([1.0], math.inf)
        with pytest.raises(ValueError):
            lifted([math.nan], 1.0)

    def test_overflow_guard_near_denormal_heights(self):
        with pytest.raises(OverflowRiskError):
            gamma_point(lifted([0.0], 1e-301))

    def test_overflowing_image_raises_without_a_warning(self):
        # 1e300 / 1e-10 overflows; tier-1 turns a RuntimeWarning into an error.
        with pytest.raises(OverflowRiskError, match="transformed point is not finite"):
            gamma_point(LiftedPoint(np.array([1e300]), 1e-10))

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_involution_property(self, x, u):
        p = lifted([x], u)
        q = gamma_point(gamma_point(p))
        scale = max(1.0, abs(x), u)
        assert abs(q.x[0] - x) <= 1e-12 * scale
        assert abs(q.u - u) <= 1e-12 * scale


extpos_values = st.one_of(
    st.just(ZERO),
    st.just(INF),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(ExtPos.finite),
)


class TestExtPos:
    def test_total_order(self):
        assert ZERO < ExtPos.finite(1e-9) < ExtPos.finite(3.0) < INF
        assert not ZERO > INF
        assert ExtPos.finite(2.0) == ExtPos.finite(2.0)
        assert ZERO != ExtPos.finite(1e-300)

    def test_finite_rejects_tags_as_floats(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ExtPos.finite(bad)

    def test_json_round_trip(self):
        for v in (ZERO, INF, ExtPos.finite(0.25), ExtPos.finite(1e300)):
            assert ExtPos.from_json(json.loads(json.dumps(v.to_json()))) == v
        assert ZERO.to_json() == 0
        assert INF.to_json() == "inf"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            INF.kind = 0

    @given(st.lists(extpos_values, min_size=2, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_protocol_compares_kind_then_value(self, values):
        """<, <=, ==, hash and sorted agree with comparing (kind, value) and
        with the order of as_float()."""
        a, b = values[0], values[1]
        key_a, key_b = (a.kind, a.value), (b.kind, b.value)
        assert (a < b) is (key_a < key_b) is (a.as_float() < b.as_float())
        assert (a <= b) is (key_a <= key_b) is (a.as_float() <= b.as_float())
        assert (a == b) is (key_a == key_b) is (a.as_float() == b.as_float())
        assert (a > b) is (b < a) and (a >= b) is (b <= a)
        if a == b:
            assert hash(a) == hash(b)
        assert sorted(values) == sorted(values, key=lambda e: (e.kind, e.value)) == sorted(values, key=ExtPos.as_float)

    @given(extpos_values, st.sampled_from(["kind", "value"]))
    @settings(max_examples=50, deadline=None)
    def test_assignment_raises(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        # A name that is not a field has no slot: Python 3.10 to 3.13 refuse
        # it with TypeError from the frozen dataclass's __setattr__.
        with pytest.raises((AttributeError, TypeError)):
            value.other = 1.0


class TestOptimalityProduct:
    def test_reciprocal_pair(self):
        assert optimality_product(ExtPos.finite(2.0), ExtPos.finite(0.5)) == 1.0

    def test_infinity_times_zero_is_one(self):
        assert optimality_product(INF, ZERO) == 1.0
        assert optimality_product(ZERO, INF) == 1.0

    def test_absorbing_zero(self):
        assert optimality_product(ZERO, ExtPos.finite(3.0)) == 0.0

    def test_infinity_times_finite(self):
        assert optimality_product(INF, ExtPos.finite(3.0)) == math.inf

    def test_unambiguous_limits(self):
        assert optimality_product(INF, INF) == math.inf
        assert optimality_product(ZERO, ZERO) == 0.0

    @given(st.floats(min_value=1e-150, max_value=1e150))
    @settings(max_examples=100, deadline=None)
    def test_reciprocals_multiply_to_one(self, t):
        p = optimality_product(ExtPos.finite(t), ExtPos.finite(1.0 / t))
        assert abs(p - 1.0) <= 1e-15
