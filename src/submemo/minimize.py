"""Minimization: Wolfe minimum-norm point, extension descent, bound iteration.

The only function access in all three solvers is the linear oracle over the
base polytope (one memoized extreme-point sweep), plus statistic rebuilds
when a candidate set's value is needed; memoized runs never pay oracle cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import bound_rounds, chain_prefix_values, linear_oracle, tight_upper_bounds
from .core import (
    ABS_TOL,
    InputError,
    ModularFunction,
    NonConvergenceError,
    Subset,
    SubmodularFunction,
)

_COEFF_EPS = 1e-12


@dataclass
class MinimizationResult:
    minimizer_min: Subset
    minimizer_max: Subset
    value: float
    iterations: int
    counters: object
    duality_gap: float | None = None
    stats: dict = field(default_factory=dict)

    @property
    def members(self) -> list:
        return self.minimizer_min.members


def _affine_minimizer(points: np.ndarray):
    """Coefficients of the min-norm point of the affine hull of the rows.

    Normal equations with a least-squares fallback when the active set is
    ill-conditioned.
    """
    m = points.shape[0]
    gram = points @ points.T
    system = np.zeros((m + 1, m + 1))
    system[0, 1:] = 1.0
    system[1:, 0] = 1.0
    system[1:, 1:] = gram
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(system, rhs)
        coeffs = sol[1:]
        if not np.all(np.isfinite(coeffs)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        coeffs = np.linalg.lstsq(system, rhs, rcond=None)[0][1:]
    total = coeffs.sum()
    if abs(total - 1.0) > 1e-6 and abs(total) > _COEFF_EPS:
        coeffs = coeffs / total
    return coeffs, coeffs @ points


def min_norm_point(
    F: SubmodularFunction,
    tol: float | None = None,
    max_major: int | None = None,
) -> MinimizationResult:
    """Fujishige-Wolfe minimum-norm point over the base polytope.

    Returns both the minimal and maximal minimizers read off the sign
    pattern of the converged point x*.  ``tol`` bounds the Wolfe gap
    <x, x - q>; the default scales with |f(V)|.  Raises NonConvergenceError
    (carrying the best iterate) when the major-cycle cap is hit.  The
    stats hold x*, ``norm_trace`` (|x|^2 per major cycle) and
    ``coeff_sums`` (the affine coefficient sum of every minor step).
    """
    n = F.n
    start = linear_oracle(F, np.zeros(n), maximize=False)
    x = start.weights.copy()
    f_total = float(x.sum())  # telescopes to f(V)
    if tol is None:
        tol = 1e-10 * max(1.0, abs(f_total))
    if max_major is None:
        max_major = 100 * n + 200
    points = x.reshape(1, -1).copy()
    coeffs = np.ones(1)
    norm_trace = [float(np.dot(x, x))]
    coeff_sums = [1.0]
    majors = 0
    converged = False
    while majors < max_major:
        majors += 1
        q = linear_oracle(F, x, maximize=False).weights
        xx = float(np.dot(x, x))
        scale = max(1.0, xx, float(np.dot(q, q)))
        if float(np.dot(x, q)) >= xx - tol * scale:
            converged = True
            break
        if np.any(np.all(np.abs(points - q) <= 1e-12 * scale, axis=1)):
            converged = True  # oracle repeats a known vertex: numerically done
            break
        points = np.vstack([points, q])
        coeffs = np.append(coeffs, 0.0)
        while True:
            b, y = _affine_minimizer(points)
            coeff_sums.append(float(b.sum()))
            if np.all(b > _COEFF_EPS):
                coeffs, x = b, y
                break
            shrink = coeffs - b
            move = shrink > _COEFF_EPS
            if not np.any(move):
                coeffs = np.maximum(b, 0.0)
                coeffs = coeffs / coeffs.sum()
                x = coeffs @ points
                break
            theta = float(np.min(coeffs[move] / shrink[move]))
            theta = min(max(theta, 0.0), 1.0)
            coeffs = (1.0 - theta) * coeffs + theta * b
            keep = coeffs > _COEFF_EPS
            if not np.any(keep):
                keep[int(np.argmax(coeffs))] = True
            points = points[keep]
            coeffs = coeffs[keep]
            coeffs = coeffs / coeffs.sum()
            x = coeffs @ points
        norm_trace.append(float(np.dot(x, x)))
    result = _extract_minimizers(F, x, majors)
    result.stats.update(norm_trace=norm_trace, coeff_sums=coeff_sums, x_star=x)
    if not converged:
        raise NonConvergenceError(
            f"minimum-norm point did not converge in {max_major} major cycles "
            f"(gap scale {tol})",
            result,
        )
    return result


def _extract_minimizers(F: SubmodularFunction, x: np.ndarray, iterations: int) -> MinimizationResult:
    theta = 1e-8 * max(1.0, float(np.abs(x).max(initial=0.0)))
    s_min = [j for j in range(F.n) if x[j] < -theta]
    s_max = [j for j in range(F.n) if x[j] <= theta]
    v_min = F.value_at(s_min)
    v_max = F.value_at(s_max)
    value = min(v_min, v_max)
    dual = float(np.minimum(x, 0.0).sum())
    return MinimizationResult(
        minimizer_min=Subset(F.n, s_min),
        minimizer_max=Subset(F.n, s_max),
        value=value,
        iterations=iterations,
        counters=F.counters.copy(),
        duality_gap=value - dual,
    )


def lovasz_descent(
    F: SubmodularFunction,
    iterations: int | None = None,
    eps: float = 0.01,
) -> MinimizationResult:
    """Projected subgradient descent of the convex extension on the unit box.

    Tracks the best level set across every iterate: the sweep that produces
    the subgradient also yields all chain-set values, so thresholding is
    free.  Default iteration count is ceil(1/eps^2), matching the
    O(1/eps^2) rate of the method; a count below 1 is an InputError.
    """
    n = F.n
    if iterations is None:
        if not 0.0 < eps < 1.0:
            raise InputError("eps must lie in (0, 1)")
        iterations = math.ceil(1.0 / (eps * eps))
    if iterations < 1:
        raise InputError(f"iterations must be >= 1, got {iterations}")
    x = np.full(n, 0.5)
    best_members: list[int] = []
    best_value = 0.0
    grad_scale = 0.0
    radius = math.sqrt(n)
    for t in range(iterations):
        h, order, prefix = chain_prefix_values(F, x)
        best_i = int(np.argmin(prefix))
        if prefix[best_i] < best_value:
            best_value = float(prefix[best_i])
            best_members = sorted(int(j) for j in order[:best_i])
        g = h.weights
        grad_scale = max(grad_scale, float(np.linalg.norm(g)), 1e-12)
        step = radius / grad_scale / math.sqrt(t + 1.0)
        x = np.clip(x - step * g, 0.0, 1.0)
    dual = float(np.minimum(h.weights, 0.0).sum())  # h of the last sweep
    sub = Subset(n, best_members)
    return MinimizationResult(
        minimizer_min=sub,
        minimizer_max=sub.copy(),
        value=best_value,
        iterations=iterations,
        counters=F.counters.copy(),
        duality_gap=best_value - dual,
    )


@dataclass(frozen=True)
class AtLeast:
    """Feasible family: every set with at least k elements."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise InputError("cardinality floor must be >= 0")


@dataclass(frozen=True)
class ExplicitFamily:
    """Feasible family given by explicit candidate sets."""

    sets: tuple

    def __post_init__(self):
        if not self.sets:
            raise InputError("explicit family must be non-empty")
        object.__setattr__(self, "sets", tuple(tuple(sorted(s)) for s in self.sets))


def _modular_minimize(h: ModularFunction, family, n: int) -> list:
    """Exact minimization of a modular function over the family."""
    w = h.weights
    if isinstance(family, AtLeast):
        if family.k > n:
            raise InputError(f"cardinality floor {family.k} exceeds ground set {n}")
        order = sorted(range(n), key=lambda j: (w[j], j))
        chosen = [j for j in order if w[j] < 0.0]
        for j in order:
            if len(chosen) >= family.k:
                break
            if w[j] >= 0.0:
                chosen.append(j)
        return sorted(chosen)
    if isinstance(family, ExplicitFamily):
        best, best_v = None, math.inf
        for s in family.sets:
            v = h.value(s)
            if v < best_v - ABS_TOL:
                best, best_v = list(s), v
        return sorted(best)
    raise InputError(f"unsupported constraint family {family!r}")


def mmin_constrained(F: SubmodularFunction, family) -> MinimizationResult:
    """Constrained minimization by iterated tight modular upper bounds.

    Each round builds both upper bounds at the current set, minimizes each
    exactly over the family, and keeps the better candidate; the objective
    is non-increasing from the first feasible iterate on.  At most 100
    rounds.
    """

    def step(current):
        candidates = []
        for m in tight_upper_bounds(F, current):
            cand = _modular_minimize(m, family, F.n)
            candidates.append((F.value_at(cand), cand))
        return min(candidates)

    rounds, _ = bound_rounds(step, max_iters=100)
    trace = [value for value, _ in rounds]
    best_value, best_members = min(rounds, key=lambda r: r[0])
    sub = Subset(F.n, best_members)
    return MinimizationResult(
        minimizer_min=sub,
        minimizer_max=sub.copy(),
        value=best_value,
        iterations=len(trace),
        counters=F.counters.copy(),
        duality_gap=None,
        stats={"trace": trace},
    )
