"""Polytope extreme points, modular bounds, and the convex extension.

Everything here is computed through the memoization contract, never a
from-scratch oracle call.  An extreme point is one
``SubmodularFunction.sweep``: it is charged as one rebuild plus n
gain/update pairs, and a class with a ``_chain`` hook does that work in
one call.  The tight upper bound at X costs one rebuild plus n gains.
Calls mutate the function's memo set (they sweep it), so calls on one
instance must be serialized.

``bound_rounds`` is the one iteration rule of every solver that replaces f
by a tight modular bound at its current set and re-solves (constrained
minimization, minorize-maximize, SCSC/SCSK and difference minimization).
"""

from __future__ import annotations

import numpy as np

from .core import InputError, ModularFunction, SubmodularFunction, as_subset, check_permutation


def extreme_point(F: SubmodularFunction, order) -> ModularFunction:
    """Extreme point of the submodular polyhedron for a visiting order.

    weight[order[i]] is the gain of order[i] on top of the first i elements;
    the weights telescope, so they sum to f(V).  Cost: one rebuild, n gain
    evaluations, n statistic updates, all counted as such; a class with a
    ``_chain`` hook does the work in one call, the value oracle gain by gain.
    """
    return ModularFunction(0.0, F.sweep(order))


def subgradient_at(F: SubmodularFunction, Y, tie_order=None) -> ModularFunction:
    """Tight modular lower bound at Y: extreme point with Y visited first."""
    sub = as_subset(F.n, Y)
    if tie_order is None:
        tie_order = range(F.n)
    tie_order = check_permutation(F.n, tie_order)
    inside = sub.mask[tie_order]
    return extreme_point(F, np.concatenate((tie_order[inside], tie_order[~inside])))


def supergradient_grow(F: SubmodularFunction, X) -> ModularFunction:
    """Tight modular upper bound at X built from grow-style gains.

    Inside X the weight is the member's removal gain at X; outside it is the
    singleton value.  Cost: one rebuild plus n gain evaluations.
    """
    sub = as_subset(F.n, X)
    fx = F.value_at(sub)
    weights = np.empty(F.n)
    inside_total = 0.0
    for j in range(F.n):
        if j in sub:
            weights[j] = F.gain_remove(j)
            inside_total += weights[j]
        else:
            weights[j] = F.gain_singleton(j)
    return ModularFunction(fx - inside_total, weights)


def supergradient_shrink(F: SubmodularFunction, X) -> ModularFunction:
    """The second tight modular upper bound at X (shrink-style gains).

    Inside X the weight is the member's removal gain at V; outside it is the
    add gain at X.  Costs two rebuilds (memo at X, then at V) plus n gains.
    """
    sub = as_subset(F.n, X)
    fx = F.value_at(sub)
    weights = np.empty(F.n)
    outside = np.flatnonzero(~sub.mask)
    weights[outside] = F.gains_add(outside)
    F.set_memo(range(F.n))
    inside_total = 0.0
    for j in sub.members:
        weights[j] = F.gain_remove(j)
        inside_total += weights[j]
    return ModularFunction(fx - inside_total, weights)


def tight_upper_bounds(F: SubmodularFunction, X):
    """Both tight modular upper bounds at X: (grow-style, shrink-style)."""
    return supergradient_grow(F, X), supergradient_shrink(F, X)


def bound_rounds(step, max_iters: int):
    """Iterate ``step`` from the empty set until its sets repeat.

    ``step(current)`` returns ``(value, members)`` for the round's
    candidate, or None when the candidate cannot improve on the incumbent;
    an accepted candidate becomes the next ``current``.  Stops on None, on
    an accepted set seen before (the empty start included), or after
    ``max_iters`` rounds; a cap below 1 is an InputError, so ``step`` runs
    at least once.  Returns the accepted rounds and ``converged``: True
    when None or a repeat ended the run, even on its last round.
    """
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")
    rounds = []
    current: list[int] = []
    seen = {frozenset()}
    for _ in range(max_iters):
        out = step(current)
        if out is None:
            return rounds, True
        rounds.append(out)
        current = out[1]
        key = frozenset(current)
        if key in seen:
            return rounds, True
        seen.add(key)
    return rounds, False


def _descending_order(x: np.ndarray) -> np.ndarray:
    # stable sort on -x: ties broken by ascending element id
    return np.argsort(-np.asarray(x, dtype=float), kind="stable")


def lovasz_value(F: SubmodularFunction, x) -> float:
    """Convex extension value at x (equals f at indicator vectors)."""
    x = np.asarray(x, dtype=float)
    return linear_oracle(F, x).dot(x)


def linear_oracle(F: SubmodularFunction, x, maximize: bool = True) -> ModularFunction:
    """Optimal base-polytope extreme point for a linear objective <h, x>.

    ``maximize=True`` sorts x descending (the polyhedron LP, whose answer
    is the convex extension's subgradient at x); ``False`` sorts
    ascending, the direction used inside minimum-norm-point.  Ties break by
    ascending element id either way.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (F.n,) or not np.all(np.isfinite(x)):
        raise InputError("need one finite coordinate per element")
    order = _descending_order(x) if maximize else np.argsort(x, kind="stable")
    return extreme_point(F, order)


def chain_prefix_values(F: SubmodularFunction, x):
    """Extreme point at x plus the chain-set values its sweep passes through.

    Returns (h, order, prefix): prefix[i] = f of the first i elements of
    ``order``, the descending order of x.  The chain sets are exactly the
    level sets of x, so the best threshold set is free after the sweep.
    """
    x = np.asarray(x, dtype=float)
    order = _descending_order(x)
    h = extreme_point(F, order)
    prefix = np.concatenate(([0.0], np.cumsum(h.weights[order])))
    return h, order, prefix
