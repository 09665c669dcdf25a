import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial import (
    INF,
    ZERO,
    Ellipsoid,
    Halfspace,
    LiftedPoint,
    NormalKind,
    NormalVector,
    Polyhedron,
    SchemaError,
    ball_set,
    box_set,
    constraint_from_json,
    dual_gradient,
    gamma_point,
    halfspace_set,
    membership,
    parse_function,
    set_from_json,
    set_to_json,
    transform_ellipsoid,
    transform_halfspace,
    transform_normal,
    transform_polyhedron,
)
from radial.catalog import sqrt_cap
from radial.sets import _certified_pivots, _dual_ellipsoid_pieces, positive_definite_pivots


def lifted(x, u):
    return LiftedPoint(np.atleast_1d(np.asarray(x, dtype=float)), u)


def random_lifted(rng, n, dim, x_range=(-4.0, 4.0), u_range=(0.05, 5.0)):
    xs = rng.uniform(*x_range, size=(n, dim))
    us = rng.uniform(*u_range, size=n)
    return [lifted(xs[i], us[i]) for i in range(n)]


def assert_membership_equivalence(s, t, points):
    """t must be the image of s: membership must agree pointwise under the
    point transform, with zero mismatches."""
    mismatches = sum(membership(p, s) != membership(gamma_point(p), t) for p in points)
    assert mismatches == 0


UNIT_SQUARE = Polyhedron(
    (
        Halfspace(np.array([1.0]), 0.0, lifted([1.0], 2.0)),  # x <= 1
        Halfspace(np.array([-1.0]), 0.0, lifted([-1.0], 2.0)),  # x >= -1
        Halfspace(np.array([0.0]), 1.0, lifted([0.0], 3.0)),  # u <= 3
        Halfspace(np.array([0.0]), -1.0, lifted([0.0], 1.0)),  # u >= 1
    )
)


class TestHalfspace:
    def test_transform_example(self):
        h = Halfspace(np.array([1.0]), -1.0, lifted([0.0], 1.0))
        t = transform_halfspace(h)
        assert t.normal_x[0] == 1.0 and t.normal_u == 1.0
        assert t.anchor.x[0] == 0.0 and t.anchor.u == 1.0
        rng = np.random.default_rng(3)
        assert_membership_equivalence(h, t, random_lifted(rng, 1000, 1))

    def test_horizontal_cut_reverses(self):
        h = Halfspace(np.array([0.0]), 1.0, lifted([0.0], 1.0))  # u <= 1
        t = transform_halfspace(h)
        assert t.normal_x[0] == 0.0 and t.normal_u == -1.0  # v >= 1
        assert membership(lifted([5.0], 2.0), t)
        assert not membership(lifted([5.0], 0.5), t)

    def test_double_transform_is_identity(self):
        h = Halfspace(np.array([0.7, -1.2]), 0.4, lifted([0.3, 2.0], 1.6))
        hh = transform_halfspace(transform_halfspace(h))
        assert np.allclose(hh.normal_x, h.normal_x, rtol=1e-14)
        assert math.isclose(hh.normal_u, h.normal_u, rel_tol=1e-14)
        assert np.allclose(hh.anchor.as_array(), h.anchor.as_array(), rtol=1e-14)

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Halfspace(np.array([0.0]), 0.0, lifted([0.0], 1.0))

    def test_inclusion_preserved(self):
        rng = np.random.default_rng(11)
        pts = random_lifted(rng, 2000, 1)
        for _ in range(20):
            zeta = rng.normal(size=1)
            delta = rng.normal()
            if abs(zeta[0]) + abs(delta) < 1e-3:
                continue
            anchor = lifted(rng.uniform(-2, 2, 1), rng.uniform(0.2, 3.0))
            inner = Halfspace(zeta, delta, anchor)
            # Shift the anchor along the inward normal: a strictly larger set.
            shift = np.concatenate([zeta, [delta]])
            shift = shift / np.linalg.norm(shift)
            moved = anchor.as_array() + 0.5 * shift
            if moved[-1] <= 0.05:
                continue
            outer = Halfspace(zeta, delta, lifted(moved[:-1], moved[-1]))
            ti, to = transform_halfspace(inner), transform_halfspace(outer)
            for p in pts:
                if membership(p, inner):
                    assert membership(p, outer)  # sanity on the construction
                q = gamma_point(p)
                if membership(q, ti):
                    assert membership(q, to)


class TestEllipsoid:
    def test_derived_instance(self):
        e = Ellipsoid(lifted([0.0], 2.0), np.eye(2))
        t = transform_ellipsoid(e)
        assert abs(t.center.x[0]) <= 1e-12
        assert abs(t.center.u - 2.0 / 3.0) <= 1e-12
        assert np.max(np.abs(t.shape - np.diag([3.0, 9.0]))) <= 1e-12

    def test_boundary_points_map_to_image_boundary(self):
        e = Ellipsoid(lifted([0.0], 2.0), np.eye(2))
        t = transform_ellipsoid(e)
        for u in (1.0, 3.0):  # boundary points (0, 1) and (0, 3)
            q = gamma_point(lifted([0.0], u))
            d = q.as_array() - t.center.as_array()
            assert abs(float(d @ t.shape @ d) - 1.0) <= 1e-12

    def test_double_transform(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            h = a @ a.T + 0.5 * np.eye(3)
            center = lifted(rng.uniform(-1, 1, 2), rng.uniform(2.5, 4.0))
            try:
                e = Ellipsoid(center, h)
            except ValueError:
                continue
            tt = transform_ellipsoid(transform_ellipsoid(e))
            assert np.allclose(tt.center.as_array(), e.center.as_array(), rtol=1e-9, atol=1e-12)
            assert np.allclose(tt.shape, e.shape, rtol=1e-9, atol=1e-12)

    def test_membership_equivalence_sampling(self):
        e = Ellipsoid(lifted([0.0], 2.0), np.eye(2))
        t = transform_ellipsoid(e)
        rng = np.random.default_rng(17)
        assert_membership_equivalence(e, t, random_lifted(rng, 10_000, 1, (-3, 3), (0.1, 4.0)))

    def test_containment_invariant_enforced(self):
        # Unit shape at height 0.9 dips below zero height.
        with pytest.raises(ValueError, match="contained"):
            Ellipsoid(lifted([0.0], 0.9), np.eye(2))

    def test_dual_quadratic_definite_iff_contained(self):
        # The block matrix loses definiteness exactly at u^2 * schur = 1.
        h = np.eye(2)
        x = np.array([0.0])
        for u, expect in ((1.01, True), (0.99, False)):
            g, _, _ = _dual_ellipsoid_pieces(h, x, u)
            assert positive_definite_pivots(g) is expect

    def test_convexity_of_image_sampled(self):
        e = Ellipsoid(lifted([0.4], 2.5), np.array([[2.0, 0.3], [0.3, 1.0]]))
        t = transform_ellipsoid(e)
        rng = np.random.default_rng(23)
        inside = [p for p in random_lifted(rng, 10_000, 1, (-3, 3), (0.1, 3.0)) if membership(p, t)]
        assert len(inside) > 50
        for _ in range(300):
            i, j = rng.integers(0, len(inside), size=2)
            lam = rng.uniform()
            mid = lam * inside[i].as_array() + (1 - lam) * inside[j].as_array()
            assert membership(lifted(mid[:-1], mid[-1]), t)

    def test_shape_must_be_definite_and_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Ellipsoid(lifted([0.0], 2.0), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="definite"):
            Ellipsoid(lifted([0.0], 2.0), np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestPolyhedron:
    def test_empty_list_is_whole_slab(self):
        t = transform_polyhedron(Polyhedron(()))
        assert t.halfspaces == ()
        assert membership(lifted([9.0], 0.01), t)

    def test_square_vertices_map_into_image(self):
        t = transform_polyhedron(UNIT_SQUARE)
        assert len(t.halfspaces) == 4
        for vx in (-1.0, 1.0):
            for vu in (1.0, 3.0):
                q = gamma_point(lifted([vx], vu))
                for h in t.halfspaces:
                    gap = float(h.normal_x @ (q.x - h.anchor.x)) + h.normal_u * (q.u - h.anchor.u)
                    assert gap <= 1e-12

    def test_membership_equivalence_sampling(self):
        t = transform_polyhedron(UNIT_SQUARE)
        rng = np.random.default_rng(29)
        assert_membership_equivalence(UNIT_SQUARE, t, random_lifted(rng, 10_000, 1, (-2, 2), (0.2, 4.0)))

    def test_double_transform_same_point_set(self):
        tt = transform_polyhedron(transform_polyhedron(UNIT_SQUARE))
        rng = np.random.default_rng(31)
        for p in random_lifted(rng, 2000, 1, (-2, 2), (0.2, 4.0)):
            assert membership(p, UNIT_SQUARE) == membership(p, tt)

    def test_intersection_distributes(self):
        rng = np.random.default_rng(37)
        s = UNIT_SQUARE
        t = Polyhedron((Halfspace(np.array([1.0]), 0.5, lifted([0.0], 1.5)),))
        both = Polyhedron(s.halfspaces + t.halfspaces)
        ts, tt, tboth = (transform_polyhedron(x) for x in (s, t, both))
        for p in random_lifted(rng, 10_000, 1, (-2, 2), (0.2, 4.0)):
            q = gamma_point(p)
            assert membership(q, tboth) == (membership(q, ts) and membership(q, tt))

    def test_membership_examples(self):
        assert membership(lifted([0.0], 1.0), Ellipsoid(lifted([0.0], 2.0), np.eye(2)))
        assert membership(lifted([0.0], 0.5), Halfspace(np.array([0.0]), 1.0, lifted([0.0], 1.0)))
        assert not membership(lifted([5.0], 1.0), UNIT_SQUARE)


class TestNormalVector:
    def test_plug_in_formula(self):
        n = NormalVector(np.array([1.0]), 0.0, NormalKind.CONVEX, lifted([2.0], 1.0))
        t = transform_normal(n)
        assert t.zeta[0] == 1.0 and t.delta == -2.0
        assert t.at.x[0] == 2.0 and t.at.u == 1.0
        assert t.kind is NormalKind.CONVEX

    def test_double_transform_componentwise(self):
        n = NormalVector(np.array([0.3, -0.8]), 1.1, NormalKind.PROXIMAL, lifted([0.5, -1.0], 0.75))
        tt = transform_normal(transform_normal(n))
        assert np.all(np.abs(tt.zeta - n.zeta) <= 1e-12)
        assert abs(tt.delta - n.delta) <= 1e-12
        assert np.all(np.abs(tt.at.as_array() - n.at.as_array()) <= 1e-12)

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            NormalVector(np.array([0.0]), 0.0, NormalKind.CONVEX, lifted([0.0], 1.0))

    @pytest.mark.parametrize(
        "make,fields",
        [
            (lambda z, d, at: Halfspace(z, d, at), ("normal_x", "normal_u")),
            (lambda z, d, at: NormalVector(z, d, NormalKind.CONVEX, at), ("zeta", "delta")),
        ],
        ids=["Halfspace", "NormalVector"],
    )
    def test_one_normal_check_for_halfspaces_and_normals(self, make, fields):
        at = lifted([0.5, -1.0], 2.0)
        for zeta, delta in [([math.nan, 1.0], 0.0), ([1.0, 0.0], math.inf), ([1.0], 0.0), ([0.0, 0.0], 0.0)]:
            with pytest.raises(ValueError):
                make(np.array(zeta), delta, at)
        zeta = np.array([1.0, 2.0])
        s = make(zeta, 1, at)
        zeta[0] = 9.0
        stored, delta = (getattr(s, name) for name in fields)
        assert stored.tolist() == [1.0, 2.0] and not stored.flags.writeable
        assert type(delta) is float

    def test_image_normal_supports_image_set(self):
        # A supporting normal of the hypograph of sqrt_cap maps to a
        # supporting normal of the image (the dual's epigraph), checked via
        # membership sampling: every sampled image-set point stays on the
        # inner side of the transformed halfspace.
        f = sqrt_cap(1)
        x = np.array([0.4])
        fx = f.eval(x).value
        n = NormalVector(-f.grad(x), 1.0, NormalKind.CONVEX, lifted(x, fx))
        t = transform_normal(n)
        support = Halfspace(t.zeta, t.delta, t.at)
        rng = np.random.default_rng(41)
        for _ in range(2000):
            y = rng.uniform(-3, 3)
            v = math.sqrt(1 + y * y) + rng.uniform(0.0, 3.0)  # epigraph of the dual
            assert membership(lifted([y], v), support)

    def test_consistent_with_dual_gradient(self):
        # The epigraph's gradient normal (grad f, -1) at (x, f(x)) maps to a
        # normal of the image, which is the dual's hypograph: positively
        # parallel to (-grad dual, 1) at the transformed point.
        f = sqrt_cap(1)
        x = np.array([1.0 / math.sqrt(2.0)])
        fx = f.eval(x).value
        n = NormalVector(f.grad(x), -1.0, NormalKind.CONVEX, lifted(x, fx))
        t = transform_normal(n)
        assert np.allclose([t.zeta[0], t.delta], [-1.0, math.sqrt(2.0)], rtol=1e-12)
        g_dual = dual_gradient(f, t.at.x, t.at.u)
        image = np.concatenate([t.zeta, [t.delta]])
        expected_direction = np.concatenate([-g_dual, [1.0]])
        cross = image[0] * expected_direction[1] - image[1] * expected_direction[0]
        assert abs(cross) <= 1e-9
        assert float(image @ expected_direction) > 0  # same orientation


class TestJson:
    def test_round_trips(self):
        items = [
            Halfspace(np.array([1.0, -2.0]), 0.5, lifted([0.0, 1.0], 2.0)),
            Ellipsoid(lifted([0.0], 2.0), np.eye(2)),
            UNIT_SQUARE,
        ]
        for s in items:
            doc = json.loads(json.dumps(set_to_json(s)))
            back = set_from_json(doc)
            assert type(back) is type(s)
            assert set_to_json(back) == set_to_json(s)

    def test_schema_violations(self):
        with pytest.raises(SchemaError):
            set_from_json({"type": "halfspace"})  # missing schema tag
        with pytest.raises(SchemaError):
            set_from_json({"schema": "radial/v1", "type": "torus"})
        with pytest.raises(SchemaError):
            set_from_json({"schema": "radial/v1", "type": "ellipsoid", "center": {"x": [0.0]}})


class TestConstraintJson:
    def doc(self, **fields):
        return {"schema": "radial/v1", **fields}

    def test_ball_dim_defaults_to_given_dim(self):
        s = constraint_from_json(self.doc(type="ball", radius=0.5), 3)
        assert s.dim == 3 and s.contains_origin
        assert s.member(np.array([0.3, 0.0, -0.3]))
        assert not s.member(np.array([0.4, 0.4, 0.0]))

    def test_ball_membership_is_dot_product_test(self):
        """Verdicts are x.x <= r^2, boundary rounding included; far points,
        whose x.x overflows, are outside without an overflow warning."""
        ball = ball_set(2, 1.0)
        rng = np.random.default_rng(0)
        for x in rng.standard_normal((500, 2)) * 0.7:
            assert ball.member(x) == (float(x @ x) <= 1.0)
        assert ball.member(np.array([0.6, 0.8]))
        for far in ([1e200, 0.0], [-1e200, 1.0], [1e154, 1e154], [3e150, -3e150]):
            assert not ball.member(np.array(far))
        assert ball_set(1, 1e200).member(np.array([1e200]))

    @pytest.mark.parametrize(
        "radius,x,inside",
        [
            (1e200, 1e300, False),  # x.x and r^2 both overflow to inf
            (1e200, 0.5e200, True),
            (1e-200, 5e-200, False),  # x.x and r^2 both underflow to 0
            (1e-200, 0.5e-200, True),
            (1.0, 1e-200, True),  # x.x underflows to 0
        ],
    )
    def test_ball_membership_at_both_ends_of_the_float_range(self, radius, x, inside):
        assert ball_set(1, radius).member(np.array([x])) is inside
        indicator = parse_function(f"indicator(ball {radius!r})", 1)
        assert indicator.eval([x]) is (INF if inside else ZERO)
        assert indicator.eval_many(np.array([[x], [0.0]])).tolist() == [math.inf if inside else 0.0, math.inf]

    def test_members(self):
        box = constraint_from_json(self.doc(type="box", lo=[-1.0, 0.5], hi=[0.5, 1.0]), 2)
        assert box.member(np.array([0.0, 0.75])) and not box.member(np.array([0.0, 0.0]))
        assert not box.contains_origin
        half = constraint_from_json(self.doc(type="halfspace", a=[1.0], b=1.0), 1)
        assert half.member(np.array([1.0])) and not half.member(np.array([1.5]))
        assert half.contains_origin

    @pytest.mark.parametrize(
        "fields",
        [
            {"type": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            {"type": "halfspace", "a": [1.0, 2.0], "b": 1.0},
            {"type": "ball", "dim": 2, "radius": 1.0},
        ],
        ids=["box", "halfspace", "ball"],
    )
    def test_dimension_mismatch(self, fields):
        with pytest.raises(SchemaError, match="dimension 2, expected 1"):
            constraint_from_json(self.doc(**fields), 1)

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown constraint type"):
            constraint_from_json(self.doc(type="cone"), 1)

    def test_header_and_fields(self):
        with pytest.raises(SchemaError, match="schema"):
            constraint_from_json({"type": "ball", "radius": 1.0}, 1)
        with pytest.raises(SchemaError, match="JSON object"):
            constraint_from_json([1.0], 1)
        with pytest.raises(SchemaError, match="bad ball"):
            constraint_from_json(self.doc(type="ball", radius=-1.0), 1)
        with pytest.raises(SchemaError, match="bad box"):
            constraint_from_json(self.doc(type="box", lo=[1.0]), 1)

    @pytest.mark.parametrize(
        "a,b",
        [([math.nan], 1.0), ([math.inf], 1.0), ([1.0], math.inf), ([1.0], -math.inf), ([1.0], math.nan)],
        ids=["nan-a", "inf-a", "inf-b", "minus-inf-b", "nan-b"],
    )
    def test_halfspace_numbers_must_be_finite(self, a, b):
        # json.loads reads NaN and Infinity, so the decoder does see them.
        doc = json.loads(json.dumps(self.doc(type="halfspace", a=a, b=b)))
        with pytest.raises(SchemaError, match="bad halfspace constraint: halfspace requires finite a and b"):
            constraint_from_json(doc, 1)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"type": "ball", "radius": math.inf}, "bad ball constraint: radius must be finite"),
            ({"type": "box", "lo": [-math.inf], "hi": [1.0]}, "bad box constraint: box requires finite lo and hi"),
            ({"type": "box", "lo": [-1.0], "hi": [math.inf]}, "bad box constraint: box requires finite lo and hi"),
        ],
        ids=["inf-radius", "minus-inf-lo", "inf-hi"],
    )
    def test_ball_and_box_numbers_must_be_finite(self, fields, message):
        # An infinite radius or bound would drop the constraint.
        doc = json.loads(json.dumps(self.doc(**fields)))
        with pytest.raises(SchemaError, match=message):
            constraint_from_json(doc, 1)

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "1"], ids=["fraction", "float", "bool", "string"])
    def test_ball_dim_must_be_a_json_integer(self, bad):
        with pytest.raises(SchemaError, match='"dim" must be an integer'):
            constraint_from_json(self.doc(type="ball", dim=bad, radius=1.0), 1)


# -- properties of the moved rules ------------------------------------------

coordinates = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def boxes(draw):
    dim = draw(st.integers(1, 4))
    ends = [sorted(draw(st.lists(coordinates, min_size=2, max_size=2, unique=True))) for _ in range(dim)]
    return np.array([lo for lo, _ in ends]), np.array([hi for _, hi in ends])


class TestContainsOrigin:
    """contains_origin is membership of the origin; each case checks it
    against the rule the constructors used to store."""

    @given(st.integers(1, 6), st.floats(min_value=1e-300, max_value=1e300))
    @settings(max_examples=50, deadline=None)
    def test_ball(self, dim, radius):
        assert ball_set(dim, radius).contains_origin is True

    @given(boxes())
    @settings(max_examples=200, deadline=None)
    def test_box(self, box):
        lo, hi = box
        assert box_set(lo, hi).contains_origin is bool(np.all((lo <= 0.0) & (0.0 <= hi)))

    @given(st.lists(coordinates, min_size=1, max_size=4), coordinates)
    @settings(max_examples=200, deadline=None)
    def test_halfspace(self, a, b):
        assert halfspace_set(np.array(a), b).contains_origin is (0.0 <= b)


@st.composite
def spectra(draw, margin=1e-2, least_dim=1, definite=False):
    """A symmetric matrix with a drawn spectrum (every eigenvalue at least
    margin away from zero; all positive if definite) in a random
    orthonormal basis, and that spectrum."""
    n = draw(st.integers(least_dim, 5))
    magnitudes = draw(st.lists(st.floats(min_value=margin, max_value=1e2), min_size=n, max_size=n))
    signs = [1.0] * n if definite else draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    eigenvalues = np.array(magnitudes) * np.array(signs)
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, n)))
    m = (q * eigenvalues) @ q.T
    return 0.5 * (m + m.T), eigenvalues


#: Well-conditioned shapes of lifted ellipsoids: dimension >= 1 plus height.
shapes = spectra(margin=0.1, least_dim=2, definite=True).map(lambda case: case[0])


def schur_complement(h):
    h11, h12, h22 = h[:-1, :-1], h[:-1, -1], h[-1, -1]
    return h22 - float(h12 @ np.linalg.solve(h11, h12))


class TestPivots:
    @given(spectra())
    @settings(max_examples=200, deadline=None)
    def test_certificate_agrees_with_eigenvalues(self, case):
        m, eigenvalues = case
        assert positive_definite_pivots(m) is bool(eigenvalues.min() > 0.0)

    @given(shapes)
    @settings(max_examples=100, deadline=None)
    def test_last_pivot_is_the_schur_complement(self, h):
        assert math.isclose(_certified_pivots(h)[-1], schur_complement(h), rel_tol=1e-12)

    @given(shapes, st.sampled_from([0.5, 0.9, 1.1, 2.0]))
    @settings(max_examples=100, deadline=None)
    def test_ellipsoid_containment_reads_the_last_pivot(self, h, ratio):
        """At the center height with schur * u^2 = ratio, well away from the
        boundary 1, the ellipsoid is accepted exactly when ratio > 1."""
        center = lifted(np.zeros(h.shape[0] - 1), math.sqrt(ratio / schur_complement(h)))
        if ratio > 1.0:
            Ellipsoid(center, h)
        else:
            with pytest.raises(ValueError, match="contained"):
                Ellipsoid(center, h)
