"""Solution correspondences between maximizing f and minimizing its
transform, plus a demonstration solver.

The solver is deliberately plain backtracking gradient descent: the point
is the correspondence (maximize f by minimizing the transform, then map
the minimizer back through the point transform), not convergence rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import dual_gradient, gauge
from .core import ExtPos
from .errors import (
    InfiniteValueError,
    NotDifferentiableError,
    NotStationaryError,
    RadialityRequiredError,
    StrictnessViolatedError,
)
from .oracle import FunctionOracle, RadialityMeta, as_vector, difference_probes, gradient
from .sets import SetOracle
from .transform import DEFAULT_TOL, DualHandle, Sense, check_radial, checked_tol


@dataclass(frozen=True)
class PrimalSolution:
    x_star: np.ndarray
    p_star: ExtPos


@dataclass(frozen=True)
class DualSolution:
    y_star: np.ndarray
    d_star: ExtPos
    iterations: int
    grad_norm: float
    status: str = "gradient"  # "gradient" | "step" | "budget" | "mapped"

    @property
    def converged(self) -> bool:
        """False only after an exhausted iteration budget."""
        return self.status != "budget"


def map_dual_to_primal(s: DualSolution) -> PrimalSolution:
    """(x*, p*) = (y*/d*, 1/d*): the point transform applied to the dual
    minimizer.  Valid for ray-monotone objectives with a finite positive
    supremum; infinite or zero optimal values carry no finite pre-image."""
    if not s.d_star.is_finite:
        raise InfiniteValueError("dual optimal value must be finite and positive to map back")
    d = s.d_star.value
    return PrimalSolution(np.asarray(s.y_star, dtype=float) / d, ExtPos.finite(1.0 / d))


def map_primal_to_dual(s: PrimalSolution) -> DualSolution:
    """(y*, d*) = (x*/p*, 1/p*)."""
    if not s.p_star.is_finite:
        raise InfiniteValueError("primal optimal value must be finite and positive to map")
    p = s.p_star.value
    return DualSolution(np.asarray(s.x_star, dtype=float) / p, ExtPos.finite(1.0 / p), 0, math.nan, "mapped")


#: Gradient norms below this certify a stationary point for mapping.
STATIONARY_TOL = 1e-8


def map_stationary(x, f: FunctionOracle) -> tuple[np.ndarray, np.ndarray]:
    """Map a stationary point of f to the matching stationary point of the
    transform: y = x / f(x), certified by the dual gradient vanishing.

    Requires f strictly ray-monotone (declared or checked), f(x) finite,
    and |grad f(x)| <= 1e-8.  Returns (y, dual gradient at y).
    """
    if f.meta is not RadialityMeta.STRICT:
        raise RadialityRequiredError("map_stationary requires a strictly ray-monotone function")
    x = as_vector(x, f.dim)
    fx = f.eval_float(x.tolist())
    if not 0.0 < fx < math.inf:
        raise NotStationaryError("f(x) must be finite")
    g = gradient(f, x)
    if float(np.linalg.norm(g)) > STATIONARY_TOL:
        raise NotStationaryError(f"gradient norm {float(np.linalg.norm(g)):g} exceeds {STATIONARY_TOL:g}")
    # (y, transform value) = the point map applied to (x, f(x)).
    y = x / fx
    witness = dual_gradient(f, y, 1.0 / fx)
    return y, witness


#: Backtracking line search: sufficient-decrease constant, first step and
#: the step below which the search gives up (status "step").
ARMIJO = 1e-4
STEP_INIT = 1.0
STEP_MIN = 1e-13


@dataclass(frozen=True)
class SolveParams:
    budget: int = 10_000
    tol_grad: float = 1e-8
    tol: float = DEFAULT_TOL  # bisection tolerance for transform values

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not (0.0 < self.tol_grad < math.inf):
            raise ValueError("tol_grad must be positive and finite")
        checked_tol(self.tol)


def _fd_grad(phi, y: list, base: float) -> np.ndarray:
    """Difference quotients of the float dual objective over the probes
    oracle.gradient takes.  Unlike oracle.gradient it returns a quotient at a
    kink (an active gauge) instead of raising: descent still needs a
    direction there, so a coordinate with one infinite probe takes the
    one-sided quotient of the other."""
    out = np.empty(len(y))
    for i, h, fp, fm in difference_probes(phi, y):
        if math.isfinite(fp) and math.isfinite(fm):
            out[i] = (fp - fm) / (2.0 * h)
        elif math.isfinite(fp):
            out[i] = (fp - base) / h
        elif math.isfinite(fm):
            out[i] = (base - fm) / h
        else:
            raise ValueError("objective is not finite around the iterate")
    return out


def solve_via_dual(
    f: FunctionOracle,
    y0,
    params: SolveParams | None = None,
    constraint: SetOracle | None = None,
) -> tuple[DualSolution, PrimalSolution]:
    """Maximize f (optionally over a constraint set containing the origin)
    by descending its transform, then map the result back.

    The dual objective is the transform of f, or its pointwise max with
    the constraint's gauge when a constraint is given (intersecting in
    the primal is a pointwise min, which transforms into a max).  Descent
    uses the dual gradient formula where its preconditions hold and falls
    back to finite differences of the transform value otherwise.  Once the
    Armijo decrease falls below the bisection resolution of the objective,
    a backtracking step is instead accepted on gradient-norm contraction;
    value comparisons carry no information at that scale.  Stops on a
    small gradient, a collapsed backtracking step (the expected exit at
    nonsmooth kinks such as active gauges), or an exhausted budget; the
    budget exit is flagged by status "budget" (converged is False) rather
    than raised, and the best iterate is still returned.
    """
    params = params or SolveParams()
    if f.meta is RadialityMeta.NOT_RADIAL:
        raise RadialityRequiredError("the objective is not ray-monotone; its transform is not dual to it")
    if f.meta is RadialityMeta.UNKNOWN:
        report = check_radial(f, rays=32, points_per_ray=64, seed=0)
        if not report.meta.radial:
            raise RadialityRequiredError(f"radiality check: {report.meta.value} ({report.witness_count} witnesses)")
        f = f.with_meta(report.meta)

    handle = DualHandle(f, Sense.UPPER, tol=params.tol)
    use_gauge = constraint is not None

    def phi(y: list) -> float:
        val = handle.eval_float(y)
        if use_gauge:
            val = max(val, gauge(constraint, y, tol=params.tol).as_float())
        return val

    def grad_at(y: np.ndarray, fy: float) -> tuple[np.ndarray, bool]:
        # The formula gradient (even over a difference-quotient primal
        # gradient) is far less noisy than differencing the bisected
        # transform value, so prefer it whenever it applies.
        if not use_gauge:
            try:
                return dual_gradient(f, y, fy), True
            except (StrictnessViolatedError, NotDifferentiableError, ValueError):
                pass
        return _fd_grad(phi, y.tolist(), fy), False

    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    fy = phi(y.tolist())
    if not math.isfinite(fy) or fy <= 0.0:
        raise ValueError(f"dual objective at the start point is {fy!r}; provide a feasible y0")

    status = "budget"
    iterations = 0
    g, analytic = grad_at(y, fy)
    for iterations in range(1, params.budget + 1):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= params.tol_grad:
            status = "gradient"
            break
        noise = 2.0 * params.tol * max(1.0, abs(fy))
        step = STEP_INIT
        accepted = False
        while step >= STEP_MIN:
            cand = y - step * g
            fc = phi(cand.tolist())
            decrease = ARMIJO * step * grad_norm**2
            if math.isfinite(fc):
                if analytic and decrease <= noise:
                    # Value comparisons are below the bisection resolution;
                    # trust the formula gradient and ask for contraction.
                    gc, gc_analytic = grad_at(cand, fc)
                    if float(np.linalg.norm(gc)) <= 0.9 * grad_norm:
                        y, fy, g, analytic = cand, fc, gc, gc_analytic
                        accepted = True
                        break
                else:
                    required = decrease if analytic else max(decrease, noise)
                    if fc <= fy - required:
                        y, fy = cand, fc
                        g, analytic = grad_at(y, fy)
                        accepted = True
                        break
            step *= 0.5
        if not accepted:
            status = "step"
            break

    # Report what is held for the returned iterate: its objective value and
    # the norm of its gradient (after a budget exit, the last accepted step's).
    grad_norm = float(np.linalg.norm(g))
    dual_solution = DualSolution(y, ExtPos.from_float(fy), iterations, grad_norm, status)
    primal_solution = map_dual_to_primal(dual_solution)
    return dual_solution, primal_solution
