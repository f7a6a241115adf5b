"""Submodular-constrained and difference-of-submodular procedures.

Each solver is a plain function of the pair (f, g) over one ground set
and one number:

- ``scsc_solve(f, g, c)``: minimize f subject to g(X) >= c;
- ``scsk_solve(f, g, b)``: maximize g subject to f(X) <= b;
- ``ds_minimize(f, g, variant)``: minimize f - g, with ``variant`` one of
  ``DS_VARIANTS``.

Both problem families are solved by iterating tight modular replacements:
cover/knapsack rounds swap the cost function for one of its two upper
bounds and keep the better outcome; difference minimization swaps one (or
both) sides per the chosen variant.  Each solver is one round function run
by ``bounds.bound_rounds``, the single iteration and convergence rule
(``max_iters``, 50 by default, must be >= 1).  All function access goes
through the bounds/maximize/minimize primitives, so memoized runs stay
oracle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import bound_rounds, subgradient_at, tight_upper_bounds
from .core import (
    ABS_TOL,
    EvalCounters,
    InputError,
    ModularFunction,
    NonConvergenceError,
    Subset,
    SubmodularFunction,
    tol_for,
)
from .functions import ModularPenaltyData, make_function
from .maximize import Knapsack, greedy_lazy, lazy_argmax, local_search_usm
from .minimize import min_norm_point

_COST_FLOOR = 1e-12
DS_VARIANTS = ("sub-sup", "sup-sub", "mod-mod")


def _check_pair(f: SubmodularFunction, g: SubmodularFunction) -> None:
    if f.n != g.n:
        raise InputError("f and g must share the ground set")


def _total(*counters: EvalCounters) -> EvalCounters:
    """Sum of the counters, each object once (f and g may be one instance)."""
    return sum({id(c): c for c in counters}.values(), EvalCounters())


@dataclass
class IterativeResult:
    """``counters`` covers f, g and every instance an inner solve built."""

    selected: Subset
    objective: float
    constraint_value: float | None
    trace: list
    iterations: int
    converged: bool
    counters: EvalCounters
    stats: dict = field(default_factory=dict)

    @property
    def members(self) -> list:
        return self.selected.members


def _floored(bounds) -> bool:
    """Whether a weight of one of ``bounds`` lies below ``_COST_FLOOR``, so
    that the round's costs floor it."""
    return any(bool((bound.weights < _COST_FLOOR).any()) for bound in bounds)


def submodular_set_cover(g: SubmodularFunction, cost, c: float) -> IterativeResult:
    """Lazy cost-ratio greedy cover: grow until g reaches the level c.

    ``cost`` is a ModularFunction or a weight array; non-positive costs are
    floored at a tiny epsilon for the ratio rule.  Requires g monotone with
    g(V) >= c (checked), so progress is always available.
    """
    n = g.n
    weights = cost.weights if isinstance(cost, ModularFunction) else np.asarray(cost, float)
    if weights.shape != (n,):
        raise InputError("need one cost per element")
    costs = np.maximum(weights, _COST_FLOOR)
    pool = list(range(n))
    total = g.value_at(pool)
    tol = tol_for(max(1.0, abs(c)))
    if total < c - tol:
        raise InputError(f"cover level {c} infeasible: g over the pool is {total}")
    covered = g.value_at(())
    # built before the level test: the heap costs one gain per pool element either way
    picks = lazy_argmax(g, pool, lambda gain, j: gain / costs[j])
    trace = []
    spent = 0.0
    if covered < c - tol:
        for j, gain, _ in picks:
            if gain <= ABS_TOL:
                continue  # zero gain cannot make progress; try the rest
            g.update(j)
            covered += gain
            spent += float(weights[j])
            trace.append((j, gain))
            if covered >= c - tol:
                break
    covered = g.memo_value()
    return IterativeResult(
        selected=g.memo.copy(),
        objective=spent,
        constraint_value=covered,
        trace=trace,
        iterations=len(trace),
        converged=covered >= c - tol,
        counters=g.counters.copy(),
        stats={"cost_floored": bool(np.any(weights < _COST_FLOOR))},
    )


def scsc_solve(
    f: SubmodularFunction, g: SubmodularFunction, c: float, max_iters: int = 50
) -> IterativeResult:
    """Minimize f subject to g(X) >= c by iterated upper-bound covers.

    Each round replaces f by both tight upper bounds at the incumbent,
    solves the resulting modular-cost cover, and keeps the better feasible
    candidate; the best feasible iterate never worsens.  Costs below
    ``_COST_FLOOR`` are floored; ``stats["cost_floored"]`` says per round
    whether a weight of its bounds was.
    """
    _check_pair(f, g)
    floored = []

    def step(current):
        candidates = []
        bounds = tight_upper_bounds(f, current)
        floored.append(_floored(bounds))
        for bound in bounds:
            cand = submodular_set_cover(g, np.maximum(bound.weights, _COST_FLOOR), c).members
            candidates.append((f.value_at(cand), cand))
        return min(candidates)

    rounds, converged = bound_rounds(step, max_iters)
    best_obj, best_members = min(rounds, key=lambda r: r[0])
    sel = Subset(f.n, best_members)
    return IterativeResult(
        selected=sel,
        objective=best_obj,
        constraint_value=g.value_at(sel.members),
        trace=[obj for obj, _ in rounds],
        iterations=len(rounds),
        converged=converged,
        counters=_total(f.counters, g.counters),
        stats={"cost_floored": floored},
    )


def scsk_solve(
    f: SubmodularFunction, g: SubmodularFunction, b: float, max_iters: int = 50
) -> IterativeResult:
    """Maximize g subject to f(X) <= b by iterated upper-bound knapsacks.

    The knapsack costs are a tight upper bound on f, so every iterate is
    feasible for the true constraint.  Returns the empty set when no single
    element fits the budget.  ``stats["cost_floored"]`` is as for
    ``scsc_solve``.
    """
    _check_pair(f, g)
    floored = []

    def step(current):
        candidates = []
        bounds = tight_upper_bounds(f, current)
        floored.append(_floored(bounds))
        for bound in bounds:
            slack = b - bound.offset
            costs = np.maximum(bound.weights, _COST_FLOOR)
            if slack <= 0 or not np.any(costs <= slack):
                candidates.append((0.0, []))
                continue
            res = greedy_lazy(g, Knapsack(tuple(costs), slack))
            candidates.append((res.value, res.members))
        return max(candidates, key=lambda t: t[0])

    rounds, converged = bound_rounds(step, max_iters)
    best_obj, best_members = max(rounds, key=lambda r: r[0])
    sel = Subset(f.n, best_members)
    return IterativeResult(
        selected=sel,
        objective=best_obj,
        constraint_value=f.value_at(sel.members),
        trace=[obj for obj, _ in rounds],
        iterations=len(rounds),
        converged=converged,
        counters=_total(f.counters, g.counters),
        stats={"cost_floored": floored},
    )


def ds_minimize(
    f: SubmodularFunction,
    g: SubmodularFunction,
    variant: str = "mod-mod",
    max_iters: int = 50,
) -> IterativeResult:
    """Difference minimization min f - g by modular replacement rounds.

    Variants: 'sub-sup' keeps f and lower-bounds g (each round is a
    submodular minimization via the norm-point solver); 'sup-sub'
    upper-bounds f and keeps g (each round is unconstrained maximization by
    local search warm-started at the incumbent); 'mod-mod' replaces both
    (exact modular minimization).  The objective never increases; hitting
    the iteration cap returns the best iterate flagged unconverged.
    """
    if variant not in DS_VARIANTS:
        raise InputError("variant must be 'sub-sup', 'sup-sub' or 'mod-mod'")
    _check_pair(f, g)
    inner = []  # the counters of each inner solve

    def objective(members) -> float:
        return f.value_at(members) - g.value_at(members)

    def candidates(current):
        if variant == "sub-sup":
            h = subgradient_at(g, current)
            shifted = make_function(f.n, ModularPenaltyData(f._spawn(), h.weights))
            try:
                res = min_norm_point(shifted, tol=1e-9)
            except NonConvergenceError as err:
                res = err.result
            inner.append(shifted.counters)
            return [res.minimizer_min.members, res.minimizer_max.members]
        if variant == "sup-sub":
            mixtures = [make_function(g.n, ModularPenaltyData(g._spawn(), bound.weights))
                        for bound in tight_upper_bounds(f, current)]
            runs = [local_search_usm(F, start=current) for F in mixtures]
            inner.extend(res.counters for res in runs)
            return [res.members for res in runs]
        h = subgradient_at(g, current)  # mod-mod
        return [
            [int(j) for j in np.flatnonzero(bound.weights - h.weights < 0.0)]
            for bound in tight_upper_bounds(f, current)
        ]

    trace = [objective([])]

    def step(current):
        obj, cand = min((objective(cand), sorted(cand)) for cand in candidates(current))
        if obj > trace[-1] + ABS_TOL:
            return None  # replacement could not improve; incumbent is locally tight
        trace.append(obj)
        return obj, cand

    rounds, converged = bound_rounds(step, max_iters)
    best_obj, best_members = min([(trace[0], [])] + rounds, key=lambda r: r[0])
    return IterativeResult(
        selected=Subset(f.n, best_members),
        objective=best_obj,
        constraint_value=None,
        trace=trace,
        iterations=len(rounds),
        converged=converged,
        counters=_total(f.counters, g.counters, *inner),
        stats={"variant": variant},
    )
