import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from radial.core import HEIGHT_FLOOR

from helpers import lifted_points, plain_lifted_point


def lifted(x, u):
    return LiftedPoint(np.atleast_1d(np.asarray(x, dtype=float)), u)


def outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


def scalar_and_batch_agree(p: LiftedPoint):
    """gamma_point(p) is row 0 of the batch kernel bit for bit, or both raise
    the same error type with the same message."""
    scalar = outcome(gamma_point, p)
    batch = outcome(gamma_point_many, p.x[None], [p.u])
    if isinstance(scalar, LiftedPoint):
        ys, vs = batch
        assert scalar.x.tobytes() == ys[0].tobytes()
        assert scalar.u.hex() == float(vs[0]).hex()
    else:
        assert scalar == batch


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

    @given(lifted_points)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_scalar_path_is_the_batch_kernel_bit_for_bit(self, p):
        scalar_and_batch_agree(p)

    @pytest.mark.parametrize(
        "x,u,error",
        [
            ([1.0, -2.0], HEIGHT_FLOOR, None),
            ([0.0], HEIGHT_FLOOR, None),
            ([-0.0, 3.0], 0.7, None),
            ([1.0], math.nextafter(HEIGHT_FLOOR, 0.0), "height below"),
            ([0.0], 5e-324, "height below"),
            ([1e300], 1e-10, "transformed point is not finite"),
            ([0.5, -1e300], 1e-10, "transformed point is not finite"),
            ([1e9], HEIGHT_FLOOR, "transformed point is not finite"),
        ],
    )
    def test_scalar_path_at_the_height_floor_and_past_the_float_range(self, x, u, error):
        p = LiftedPoint(np.array(x), u)
        scalar_and_batch_agree(p)
        if error:
            with pytest.raises(OverflowRiskError, match=error):
                gamma_point(p)

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


floats_any = st.floats()  # nan and both infinities included
vectors = st.lists(floats_any, max_size=4)

#: Everything a caller may hand the constructor as x: lists, tuples, ints,
#: scalars, 0-d, 1-d and 2-d arrays of several dtypes, empty vectors, and
#: nan or infinite coordinates.
x_inputs = st.one_of(
    vectors,
    vectors.map(tuple),
    st.lists(st.integers(-(2**70), 2**70), max_size=4),
    floats_any,
    st.integers(-(10**6), 10**6),
    floats_any.map(np.array),
    vectors.map(np.array),
    st.lists(st.floats(width=32), max_size=4).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-100, 100), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.lists(floats_any, min_size=2, max_size=2), min_size=1, max_size=3).map(np.array),
)
#: Coordinates from a small set, so that equal and unequal points both occur.
few_coordinates = st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]), max_size=3)
u_inputs = st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e-310, 0, -1, 1]), floats_any, st.integers(-5, 5))


class TestLiftedPoint:
    @given(x_inputs, u_inputs)
    @settings(max_examples=600, deadline=None, derandomize=True)
    @example([1.0, 2.0], 0.0)
    @example([], 1.0)
    @example(np.zeros((2, 2)), math.nan)
    @example(np.array(math.inf), 1.0)
    @example((3, 4), math.inf)
    @example(7, 1e-310)
    @example(np.array([1.0, math.nan]), -1.0)
    def test_constructor_is_the_plain_checks(self, x, u):
        """The same stored point (x bytes, u's bits, read-only, a copy of
        its input) or the same exception type and message as the plain
        numpy form of the checks."""
        try:
            want_x, want_u = plain_lifted_point(x, u)
        except Exception as exc:  # noqa: BLE001 - compared below
            with pytest.raises(Exception) as info:
                LiftedPoint(x, u)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            return
        p = LiftedPoint(x, u)
        assert (p.x.dtype, p.x.shape, p.x.tobytes()) == (want_x.dtype, want_x.shape, want_x.tobytes())
        assert type(p.u) is float and p.u.hex() == want_u.hex()
        assert not p.x.flags.writeable
        if isinstance(x, np.ndarray):
            assert not np.shares_memory(p.x, x)

    @pytest.mark.parametrize("x", [[1.0], [1.0, 2.0]])
    def test_equality_and_hash_in_every_dimension(self, x):
        a, b = LiftedPoint(x, 1.0), LiftedPoint(np.array(x), 1)
        assert a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert a != LiftedPoint(x, 2.0)
        assert a != LiftedPoint([*x[:-1], 3.0], 1.0)
        assert a != LiftedPoint([*x, 0.0], 1.0)
        assert a != (a.x, a.u)
        zeros, negative_zeros = LiftedPoint([0.0] * len(x), 1.0), LiftedPoint([-0.0] * len(x), 1.0)
        assert zeros == negative_zeros and hash(zeros) == hash(negative_zeros)

    @given(few_coordinates, st.sampled_from([1.0, 2.0]), few_coordinates, st.sampled_from([1.0, 2.0]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equal_is_equal_coordinates_and_height(self, x, u, y, v):
        p, q = LiftedPoint(x, u), LiftedPoint(y, v)
        assert (p == q) is (x == y and u == v)
        if p == q:
            assert hash(p) == hash(q)

    def test_assignment_raises(self):
        p = LiftedPoint([1.0], 1.0)
        with pytest.raises(AttributeError):
            p.u = 2.0


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

    def test_bad_kind_raises(self):
        for kind in (-1, 3, "finite", None):
            with pytest.raises(ValueError, match="bad ExtPos kind"):
                ExtPos(kind, 1.0)

    def test_finite_value_is_a_python_float(self):
        value = ExtPos.finite(np.float64(2.0)).value
        assert type(value) is float and value == 2.0

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
