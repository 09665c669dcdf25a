"""Shared independent oracles for the test-suite.

These deliberately avoid the library's own search machinery: extremes come
from dense grids plus windowed refinement, derivatives from explicit
difference quotients.  They stay independent of the code paths they check.
The expression strategies generate grammar sources in one variable, x0;
``lifted_points`` draws points of the lifted space over the whole float range,
and ``plain_lifted_point`` is the lifted point's constructor written with
whole-array numpy checks, the reference for its float path.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from radial import LiftedPoint


def refine_min_1d(fn, lo: float, hi: float, n: int = 201, rounds: int = 7):
    """Dense-grid minimization with windowed refinement around the best cell."""
    best_x, best_v = None, None
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n)
        vals = np.array([fn(float(x)) for x in xs])
        i = int(np.argmin(vals))
        best_x, best_v = float(xs[i]), float(vals[i])
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, n - 1)])
    return best_x, best_v


def refine_max_1d(fn, lo: float, hi: float, n: int = 201, rounds: int = 7):
    x, v = refine_min_1d(lambda t: -fn(t), lo, hi, n, rounds)
    return x, -v


def refine_min_2d(fn, lo: float, hi: float, n: int = 61, rounds: int = 6):
    lo1, hi1, lo2, hi2 = lo, hi, lo, hi
    best_p, best_v = None, None
    for _ in range(rounds):
        xs = np.linspace(lo1, hi1, n)
        ys = np.linspace(lo2, hi2, n)
        vals = np.array([[fn(np.array([a, b])) for b in ys] for a in xs])
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best_p = np.array([xs[i], ys[j]])
        best_v = float(vals[i, j])
        lo1, hi1 = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, n - 1)])
        lo2, hi2 = float(ys[max(j - 1, 0)]), float(ys[min(j + 1, n - 1)])
    return best_p, best_v


def refine_max_2d(fn, lo: float, hi: float, n: int = 61, rounds: int = 6):
    p, v = refine_min_2d(lambda t: -fn(t), lo, hi, n, rounds)
    return p, -v


def central_gradient(fn, y: np.ndarray, h: float) -> np.ndarray:
    """Central difference gradient of a scalar function of a vector."""
    out = np.empty(y.shape[0])
    for i in range(y.shape[0]):
        yp = y.copy()
        yp[i] += h
        ym = y.copy()
        ym[i] -= h
        out[i] = (fn(yp) - fn(ym)) / (2.0 * h)
    return out


def central_hessian(fn, y: np.ndarray, h: float) -> np.ndarray:
    """Second central differences, mixed terms by the four-point stencil."""
    d = y.shape[0]
    out = np.empty((d, d))
    f0 = fn(y)
    for i in range(d):
        yp = y.copy()
        yp[i] += h
        ym = y.copy()
        ym[i] -= h
        out[i, i] = (fn(yp) - 2.0 * f0 + fn(ym)) / h**2
        for j in range(i + 1, d):
            ypp = y.copy()
            ypp[[i, j]] += h
            ypm = y.copy()
            ypm[i] += h
            ypm[j] -= h
            ymp = y.copy()
            ymp[i] -= h
            ymp[j] += h
            ymm = y.copy()
            ymm[[i, j]] -= h
            out[i, j] = out[j, i] = (fn(ypp) - fn(ypm) - fn(ymp) + fn(ymm)) / (4.0 * h**2)
    return out


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Error relative to max(1, |want|), so near-zero targets are judged
    absolutely."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


_LEAVES = ["x0", "0", "0.5", "1", "2", "1e-3", "1e3", "inf", "indicator(ball 1)", "indicator(box -1 2)", "indicator(halfspace 1 0.5)"]


def _compose(children):
    unary = st.tuples(st.sampled_from(["sqrt", "exp", "abs", "sin", "cos", "pos", "-"]), children).map(
        lambda t: f"-({t[1]})" if t[0] == "-" else f"{t[0]}({t[1]})"
    )
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/", "^"]), children).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})")
    variadic = st.tuples(st.sampled_from(["min", "max", "norm"]), children, children).map(lambda t: f"{t[0]}({t[1]}, {t[2]})")
    return unary | binary | variadic


expressions = st.recursive(st.sampled_from(_LEAVES), _compose, max_leaves=6)

#: The same composition with a literal that overflows to inf among the leaves.
overflowing_expressions = st.recursive(st.sampled_from([*_LEAVES, "1e999"]), _compose, max_leaves=6)

#: Lifted points with any finite coordinates and any finite height > 0:
#: subnormal heights and images that overflow are drawn too.
lifted_points = st.builds(
    lambda x, u: LiftedPoint(np.array(x), u),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


def plain_lifted_point(x, u) -> tuple[np.ndarray, float]:
    """The (x, u) a LiftedPoint stores, checked and converted with whole-array
    numpy operations in the constructor's order, or the error it raises."""
    x = np.array(np.atleast_1d(x), dtype=float, copy=True)
    x.flags.writeable = False
    if x.ndim != 1:
        raise ValueError("x must be a vector")
    if not np.isfinite(x).all():
        raise ValueError("x must have finite coordinates")
    u = float(u)
    if not math.isfinite(u) or u <= 0.0:
        raise ValueError(f"height must be finite and > 0, got {u!r}")
    return x, u
