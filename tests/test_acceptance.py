"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Search tolerances are inputs chosen per criterion; the asserted bounds are
the criteria's output tolerances, pinned here.
"""

import math
import time

import numpy as np

from radial import (
    INF,
    ZERO,
    DualHandle,
    Ellipsoid,
    ExtPos,
    Halfspace,
    KthKind,
    LiftedPoint,
    Polyhedron,
    RadialityMeta,
    Sense,
    ball_set,
    check_radial,
    dual_gradient,
    dual_hessian,
    duality_residual,
    extpos_gap,
    gamma_point,
    gauge,
    general_point_map,
    general_transform,
    membership,
    optimality_product,
    rule_kth,
    rule_linear,
    rule_max,
    rule_min,
    rule_scale,
    solve_via_dual,
    transform_ellipsoid,
    transform_halfspace,
    transform_polyhedron,
)
from radial.catalog import (
    absval,
    constant,
    shifted_parabola,
    shifted_quadratic,
    sqrt_cap,
    strict_entries,
    tent,
)
from radial.oracle import DECLARED_STRICT, FunctionOracle
from helpers import central_gradient, central_hessian, refine_max_1d, refine_max_2d, refine_min_1d, refine_min_2d, relative_error


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def lifted(x, u):
    return LiftedPoint(np.atleast_1d(np.asarray(x, dtype=float)), u)


def test_criterion_01_closed_form_dual():
    handle = DualHandle(sqrt_cap(1), Sense.UPPER)
    start = time.perf_counter()
    worst = 0.0
    for t in np.linspace(-3.0, 3.0, 601):
        y = np.array([t])
        got = handle.value(y).value
        worst = max(worst, abs(got - math.sqrt(1.0 + t * t)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"closed-form dual: max error {worst:.3e} (<= 1e-9), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_duality_on_catalog():
    start = time.perf_counter()
    worst = {}
    for entry in strict_entries():
        worst[entry.name] = duality_residual(entry.oracle, entry.residual_grid, tol=1e-11)
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v > 5e-10}
    ok = not bad and elapsed < 10.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(2, ok, f"duality residuals (<= 5e-10): {detail}; runtime {elapsed:.2f}s (< 10s)")


def test_criterion_03_non_duality_witness():
    grid = [np.array([t]) for t in np.linspace(-3.0, 1.0, 21)]
    res = duality_residual(shifted_quadratic(), grid, global_scan=True)
    ok = res > 0.1
    report(3, ok, f"shifted quadratic residual on [-3, 1]: {res:.3f} (> 0.1)")


def _grad_samples(entry, rng, n):
    lo, hi = (-2.0, 2.0) if entry.oracle.dim == 2 else (-3.0, 3.0)
    out = []
    while len(out) < n:
        y = rng.uniform(lo, hi, size=entry.oracle.dim)
        if entry.name == "exp_bump" and abs(y[0]) < 0.05:
            continue
        out.append(y)
    return out


def test_criterion_04_gradient_formula():
    rng = np.random.default_rng(42)
    worst = 0.0
    for entry in strict_entries():
        f = entry.oracle
        handle = DualHandle(f, Sense.UPPER, tol=1e-13)
        for y in _grad_samples(entry, rng, 100):
            val = handle.value(y).value
            got = dual_gradient(f, y, val)
            want = central_gradient(lambda z: handle.value(z).as_float(), y, 1e-4)
            worst = max(worst, relative_error(got, want))
    ok = worst <= 1e-6
    report(4, ok, f"dual gradient vs central differences: worst relative error {worst:.2e} (<= 1e-6)")


def test_criterion_05_hessian_formula():
    rng = np.random.default_rng(43)
    worst = 0.0
    min_eig = 0.0
    for entry in strict_entries():
        f = entry.oracle
        handle = DualHandle(f, Sense.UPPER, tol=1e-13)
        lo, hi = entry.smooth_box
        for _ in range(50):
            y = rng.uniform(lo, hi, size=f.dim)
            val = handle.value(y).value
            got = dual_hessian(f, y, val)
            want = central_hessian(lambda z: handle.value(z).as_float(), y, 1e-3)
            worst = max(worst, relative_error(got, want))
            if entry.concave:
                min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(got))))
    ok = worst <= 1e-5 and min_eig >= -1e-9
    report(
        5,
        ok,
        f"dual Hessian vs second differences: worst {worst:.2e} (<= 1e-5); "
        f"concave-primal PSD floor {min_eig:.2e} (>= -1e-9)",
    )


def test_criterion_06_ellipsoid_transform():
    e = Ellipsoid(lifted([0.0], 2.0), np.eye(2))
    t = transform_ellipsoid(e)
    center_err = max(abs(t.center.x[0]), abs(t.center.u - 2.0 / 3.0))
    shape_err = float(np.max(np.abs(t.shape - np.diag([3.0, 9.0]))))
    rng = np.random.default_rng(44)
    mismatches = 0
    for _ in range(10_000):
        p = lifted(rng.uniform(-3, 3, 1), rng.uniform(0.1, 4.0))
        if membership(p, e) != membership(gamma_point(p), t):
            mismatches += 1
    tt = transform_ellipsoid(t)
    double_err = max(
        float(np.max(np.abs(tt.center.as_array() - e.center.as_array()))),
        float(np.max(np.abs(tt.shape - e.shape))),
    )
    ok = center_err <= 1e-12 and shape_err <= 1e-12 and mismatches == 0 and double_err <= 1e-9
    report(
        6,
        ok,
        f"ellipsoid: center/shape error {max(center_err, shape_err):.2e} (<= 1e-12), "
        f"membership mismatches {mismatches}/10000 (= 0), double transform {double_err:.2e} (<= 1e-9)",
    )


def test_criterion_07_halfspace_polyhedron_membership():
    rng = np.random.default_rng(45)
    halfspace = Halfspace(np.array([0.8, -0.5]), 0.7, lifted([0.2, -0.4], 1.3))
    square = Polyhedron(
        (
            Halfspace(np.array([1.0]), 0.0, lifted([1.0], 2.0)),
            Halfspace(np.array([-1.0]), 0.0, lifted([-1.0], 2.0)),
            Halfspace(np.array([0.0]), 1.0, lifted([0.0], 3.0)),
            Halfspace(np.array([0.0]), -1.0, lifted([0.0], 1.0)),
        )
    )
    mismatches = 0
    th = transform_halfspace(halfspace)
    for _ in range(10_000):
        p = lifted(rng.uniform(-4, 4, 2), rng.uniform(0.05, 5.0))
        if membership(p, halfspace) != membership(gamma_point(p), th):
            mismatches += 1
    tp = transform_polyhedron(square)
    for _ in range(10_000):
        p = lifted(rng.uniform(-2, 2, 1), rng.uniform(0.2, 4.0))
        if membership(p, square) != membership(gamma_point(p), tp):
            mismatches += 1
    ok = mismatches == 0
    report(7, ok, f"halfspace/polyhedron membership equivalence: {mismatches}/20000 mismatches (= 0)")


def test_criterion_08_calculus_rules():
    tol = 1e-11
    f1, f2, f3 = sqrt_cap(1), constant(2.0), tent()

    def scaled(f, lam):
        def ev(x):
            v = f.eval(x)
            return ExtPos.finite(lam * v.value) if v.is_finite else v

        return FunctionOracle(f.dim, ev, meta=f.meta)

    def composed(f, a):
        return FunctionOracle(a.shape[1], lambda x: f.eval(a @ x), meta=f.meta)

    def pointwise(fs, combine):
        return FunctionOracle(fs[0].dim, lambda x: combine([g.eval(x) for g in fs]), meta=DECLARED_STRICT)

    def kth_combine(kind, k):
        def combine(vals):
            s = sorted(vals)
            if kind == KthKind.KMIN:
                return s[k - 1]
            if kind == KthKind.KMAX:
                return s[len(s) - k]
            chunk = s[:k] if kind == KthKind.KMINAVG else s[len(s) - k :]
            total = sum(v.as_float() for v in chunk)
            if math.isinf(total):
                return INF
            return ExtPos.finite(total / k) if total > 0 else ZERO

        return combine

    a = np.array([[2.0]])
    pairs = {
        "scale": (rule_scale(2.0, DualHandle(f1, Sense.UPPER, tol=tol)), scaled(f1, 2.0)),
        "linear": (rule_linear(a, DualHandle(f1, Sense.UPPER, tol=tol)), composed(f1, a)),
        "min": (
            rule_min(DualHandle(f1, Sense.UPPER, tol=tol), DualHandle(f2, Sense.UPPER, tol=tol)),
            pointwise([f1, f2], min),
        ),
        "max": (
            rule_max(DualHandle(f1, Sense.UPPER, tol=tol), DualHandle(f2, Sense.UPPER, tol=tol)),
            pointwise([f1, f2], max),
        ),
    }
    for kind in (KthKind.KMIN, KthKind.KMAX, KthKind.KMINAVG, KthKind.KMAXAVG):
        duals = [DualHandle(f, Sense.UPPER, tol=tol) for f in (f1, f2, f3)]
        pairs[kind] = (rule_kth(kind, 2, duals, tol=tol), pointwise([f1, f2, f3], kth_combine(kind, 2)))

    worst = {}
    for name, (rule, primal) in pairs.items():
        direct = DualHandle(primal, Sense.UPPER, tol=tol)
        gap = 0.0
        for t in np.linspace(-1.6, 1.6, 100):
            y = np.array([t])
            gap = max(gap, extpos_gap(rule.eval(y), direct.value(y)))
        worst[name] = gap
    bad = {k: v for k, v in worst.items() if v > 5e-10}
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(8, not bad, f"rules vs direct bisection on 100 points (<= 5e-10): {detail}")


def test_criterion_09_gauge():
    rng = np.random.default_rng(46)
    s = ball_set(2, 1.0)
    worst_norm = 0.0
    for _ in range(100):
        y = rng.uniform(-3, 3, size=2)
        worst_norm = max(worst_norm, abs(gauge(s, y).as_float() - float(np.linalg.norm(y))))
    worst_homog = 0.0
    for _ in range(100):
        y = rng.uniform(-2, 2, size=2)
        t = rng.uniform(0.5, 2.0)
        a = gauge(s, t * y, tol=1e-12).as_float()
        b = t * gauge(s, y, tol=1e-12).as_float()
        worst_homog = max(worst_homog, abs(a - b))
    ok = worst_norm <= 1e-9 and worst_homog <= 2e-10
    report(
        9,
        ok,
        f"gauge of the unit ball: norm error {worst_norm:.2e} (<= 1e-9), "
        f"homogeneity error {worst_homog:.2e} (<= 2e-10)",
    )


def test_criterion_10_optimality_correspondence():
    start = time.perf_counter()
    ds, ps = solve_via_dual(shifted_parabola(), np.array([5.0]))
    x_err = abs(ps.x_star[0] - 1.0)
    p_err = abs(ps.p_star.value - 2.0)

    worst_product = 0.0
    for entry in strict_entries():
        f = entry.oracle
        handle = DualHandle(f, Sense.UPPER, tol=1e-11)
        if f.dim == 1:
            _, sup_f = refine_max_1d(lambda t: f.eval(np.array([t])).as_float(), -3, 3)
            _, inf_d = refine_min_1d(lambda t: handle.value(np.array([t])).as_float(), -3, 3, n=101)
        else:
            _, sup_f = refine_max_2d(lambda v: f.eval(v).as_float(), -1.5, 1.5, n=31, rounds=5)
            _, inf_d = refine_min_2d(lambda v: handle.value(v).as_float(), -1.5, 1.5, n=31, rounds=5)
        product = optimality_product(ExtPos.finite(sup_f), ExtPos.finite(inf_d))
        worst_product = max(worst_product, abs(product - 1.0))
    elapsed = time.perf_counter() - start
    ok = x_err <= 1e-6 and p_err <= 1e-6 and worst_product <= 5e-10 and elapsed < 5.0
    report(
        10,
        ok,
        f"solve: |x*-1|={x_err:.1e}, |p*-2|={p_err:.1e} (<= 1e-6); "
        f"reciprocity |product-1|={worst_product:.1e} (<= 5e-10); runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_11_fractional_linear_identity():
    rng = np.random.default_rng(47)
    f = sqrt_cap(2)
    base = DualHandle(f, Sense.UPPER)
    worst_value = 0.0
    worst_hypo = 0.0
    for _ in range(5):
        # Random invertible map with condition number <= 1e3.
        q1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        q2, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        smax = rng.uniform(0.5, 2.0)
        a = q1 @ np.diag([smax, smax / rng.uniform(1.0, 1e3)]) @ q2
        alpha = rng.uniform(-1, 1, size=2)
        d = rng.uniform(0.1, 10.0)
        rule = general_transform(a, alpha, d, base)
        manual = DualHandle(f, Sense.UPPER)
        a_inv = np.linalg.inv(a)
        for _ in range(100):
            y = rng.uniform(-2, 2, size=2)
            want = manual.value(a_inv @ (y - alpha))
            want = ExtPos.finite(want.value / d) if want.is_finite else want
            worst_value = max(worst_value, extpos_gap(rule.eval(y), want))
        for _ in range(200):
            x = rng.uniform(-1.5, 1.5, size=2)
            u = f.eval(x).as_float() + rng.uniform(0.0, 2.0)
            if u <= 0.0:
                u = rng.uniform(0.1, 2.0)
            y, v = general_point_map(a, alpha, d, x, u)
            overshoot = v - rule.eval(y).as_float()
            worst_hypo = max(worst_hypo, overshoot)
    ok = worst_value <= 1e-9 and worst_hypo <= 1e-8
    report(
        11,
        ok,
        f"fractional-linear identity: pointwise gap {worst_value:.2e} (<= 1e-9), "
        f"epigraph-to-hypograph overshoot {worst_hypo:.2e} (<= 1e-8 slack)",
    )


def test_criterion_12_radiality_verdicts():
    expected = [
        (sqrt_cap(1), RadialityMeta.STRICT),
        (absval(), RadialityMeta.RADIAL),
        (shifted_quadratic(), RadialityMeta.NOT_RADIAL),
    ]
    misclassified = 0
    for seed in range(10):
        for oracle, meta in expected:
            r = check_radial(oracle, rays=32, points_per_ray=48, seed=seed)
            if r.meta is not meta:
                misclassified += 1
    ok = misclassified == 0
    report(12, ok, f"radiality verdicts over 10 seeded runs: {misclassified} misclassifications (= 0)")
