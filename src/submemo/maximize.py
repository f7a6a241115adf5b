"""Maximization algorithms, all consuming gains through the memo contract.

Every argmax breaks ties toward the smallest element id, and every
randomized routine takes an explicit seed, so paired runs (lazy vs naive,
PM vs VO) are exactly reproducible.  None of the algorithms ever calls
``evaluate``: reported values come from the live statistic, so memoized
runs finish with zero oracle evaluations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import bound_rounds, subgradient_at
from .core import (
    ABS_TOL,
    EvalCounters,
    InputError,
    Subset,
    SubmodularFunction,
    check_ids,
    check_permutation,
    real_array,
)


@dataclass(frozen=True)
class Cardinality:
    """At most k elements."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"cardinality limit must be >= 1, got {self.k}")


@dataclass(frozen=True)
class Knapsack:
    """Per-element positive costs and a budget."""

    costs: tuple
    budget: float

    def __post_init__(self):
        object.__setattr__(self, "costs", real_array(self.costs, "knapsack costs", 1, values="positive"))
        budget = real_array(self.budget, "knapsack budget", 0, values="positive")
        object.__setattr__(self, "budget", float(budget))

    def cost(self, members) -> float:
        return float(self.costs[list(members)].sum())


Constraint = Cardinality | Knapsack

_USM_EPS = 1e-3


@dataclass
class MaximizationResult:
    selected: Subset
    value: float
    counters: object
    trace: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def members(self) -> list:
        return self.selected.members


def _validate_constraint(F: SubmodularFunction, c: Constraint) -> None:
    if isinstance(c, Cardinality):
        if c.k > F.n:
            raise InputError(f"cardinality {c.k} exceeds ground set size {F.n}")
    elif isinstance(c, Knapsack):
        if c.costs.shape != (F.n,):
            raise InputError("need one knapsack cost per element")
        if not np.any(c.costs <= c.budget):
            raise InputError("no element fits the knapsack budget")
    else:
        raise InputError(f"unknown constraint {c!r}")


def _result(F, trace, stats=None) -> MaximizationResult:
    return MaximizationResult(
        selected=F.memo.copy(),
        value=F.memo_value(),
        counters=F.counters.copy(),
        trace=trace,
        stats=stats or {},
    )


def _best_singleton_swap(F, c: Knapsack, pool, result: MaximizationResult) -> MaximizationResult:
    """Knapsack post-step: the better of ratio-greedy and the best feasible singleton.

    ``pool`` lists distinct ids in ascending order; the first of equal best
    singletons wins.
    """
    pool = np.asarray(pool, dtype=np.intp)
    feasible = pool[c.costs[pool] <= c.budget]
    values = F.gains_singleton(feasible)
    if feasible.size:
        best = int(np.argmax(values))
        best_j, best_v = int(feasible[best]), float(values[best])
        if best_v > result.value + ABS_TOL:
            F.set_memo([best_j])
            return _result(F, [(best_j, best_v)], result.stats)
    return result


def _pool(F: SubmodularFunction, pool) -> np.ndarray:
    """The pool's distinct checked ids in ascending order; all ids if None."""
    return np.arange(F.n, dtype=np.intp) if pool is None else np.unique(check_ids(pool, F.n))


def greedy_naive(F: SubmodularFunction, c: Constraint) -> MaximizationResult:
    """Plain greedy: add the feasible element of best gain until saturated.

    Under a knapsack the selection rule is the gain/cost ratio and the final
    answer is the better of the ratio-greedy set and the best feasible
    singleton.
    """
    _validate_constraint(F, c)
    F.set_memo(())
    trace = []
    knapsack = isinstance(c, Knapsack)
    spent = 0.0
    while True:
        if not knapsack and len(F.memo) >= c.k:
            break
        cands = np.flatnonzero(~F.memo.mask)
        if knapsack:
            cands = cands[c.costs[cands] <= c.budget - spent + ABS_TOL]
        if not cands.size:
            break
        gains = F.gains_add(cands)
        best = int(np.argmax(gains / c.costs[cands] if knapsack else gains))
        best_j, best_gain = int(cands[best]), float(gains[best])
        if best_gain <= -ABS_TOL:
            break
        F.update(best_j)
        trace.append((best_j, best_gain))
        if knapsack:
            spent += c.costs[best_j]
    res = _result(F, trace)
    if knapsack:
        res = _best_singleton_swap(F, c, range(F.n), res)
    return res


def lazy_argmax(F: SubmodularFunction, pool, key=None, skip=None):
    """Stale-bound priority queue shared by the lazy greedy loops.

    Builds the heap at call time from the pool's gains, read in one
    ``gains_add`` call, then returns an iterator over
    ``(j, gain, recomputes)``: j is the best element under the (key(gain,
    j) descending, id ascending) order, its gain is fresh at the current
    memo set, and ``recomputes`` counts the stale gains re-evaluated to
    find it.  With no ``key`` the gain itself is the key.  Entries carry
    the memo size at which their bound was computed, ``len(F.memo)`` at
    build time, so a caller may start from a non-empty memo; a recomputed
    entry is yielded at once when it still beats the next head, otherwise
    it is pushed back.  The caller either updates F with j or drops it
    before asking for the next element, and gains are read-only, so the
    memo size is read once per round: when the iterator starts and after
    each yield.  ``skip(j)`` discards a popped element before its gain is
    recomputed.
    """
    size = len(F.memo)
    gains = F.gains_add(pool).tolist()
    if key is None:
        heap = [(-g, j, size, g) for j, g in zip(pool, gains)]
    else:
        heap = [(-key(g, j), j, size, g) for j, g in zip(pool, gains)]
    heapq.heapify(heap)
    gain_add, heappop, heappush = F.gain_add, heapq.heappop, heapq.heappush

    def pops():
        size = len(F.memo)
        recomputes = 0
        while heap:
            _, j, stamp, g = heappop(heap)
            if skip is not None and skip(j):
                continue
            if stamp != size:
                g = gain_add(j)
                recomputes += 1
                entry = (-g if key is None else -key(g, j), j, size, g)
                if heap and entry >= heap[0]:
                    heappush(heap, entry)
                    continue
            yield j, g, recomputes
            recomputes = 0
            size = len(F.memo)

    return pops()


def greedy_lazy(F: SubmodularFunction, c: Constraint, pool=None) -> MaximizationResult:
    """Accelerated greedy over ``lazy_argmax``.

    Output matches greedy_naive exactly under the deterministic tie rule.
    Under a knapsack, elements that no longer fit the remaining budget are
    dropped unrecomputed: the budget only shrinks, so they never fit again.
    A repeated pool id counts once.
    """
    _validate_constraint(F, c)
    pool = _pool(F, pool).tolist()
    F.set_memo(())
    knapsack = isinstance(c, Knapsack)
    spent = 0.0
    trace = []
    if knapsack:
        picks = lazy_argmax(
            F,
            pool,
            lambda g, j: g / c.costs[j],
            skip=lambda j: c.costs[j] > c.budget - spent + ABS_TOL,
        )
    else:
        picks = lazy_argmax(F, pool)
    recomputes = [len(pool)]
    for j, g, round_recomputes in picks:
        if g <= -ABS_TOL:
            break
        F.update(j)
        trace.append((j, g))
        recomputes.append(round_recomputes)
        if knapsack:
            spent += c.costs[j]
        elif len(F.memo) >= c.k:
            break
    res = _result(F, trace, stats={"recomputes_per_round": recomputes})
    if knapsack:
        res = _best_singleton_swap(F, c, pool, res)
    return res


def greedy_stochastic(
    F: SubmodularFunction, k: int, eps: float = 0.1, seed: int = 0, pool=None
) -> MaximizationResult:
    """Lazier-than-lazy greedy: per step, best gain within a random sample.

    The sample has ceil((n/k) * ln(1/eps)) elements drawn uniformly without
    replacement from the unselected pool.  A repeated pool id counts once.
    The unselected pool is a list in ascending order, kept between steps:
    each step draws positions into it, reads their gains in position order
    (the first of equal gains wins) and pops the pick.
    """
    _validate_constraint(F, Cardinality(k))
    if not 0.0 < eps < 1.0:
        raise InputError("eps must lie in (0, 1)")
    rest = _pool(F, pool).tolist()
    rng = np.random.default_rng(seed)
    sample_size = math.ceil((F.n / k) * math.log(1.0 / eps))
    F.set_memo(())
    trace = []
    for _ in range(min(k, len(rest))):
        take = min(sample_size, len(rest))
        sample = np.sort(rng.choice(len(rest), size=take, replace=False))
        best_p, best_j, best_g = None, None, -math.inf
        for p in sample.tolist():
            j = rest[p]
            g = F.gain_add(j)
            if g > best_g:
                best_p, best_j, best_g = p, j, g
        F.update(best_j)  # None when no gain beats -inf: an InputError
        del rest[best_p]
        trace.append((best_j, best_g))
    return _result(F, trace)


def sieve_streaming(
    F: SubmodularFunction, k: int, eps: float = 0.1, stream=None
) -> MaximizationResult:
    """Single-pass streaming maximization with a geometric threshold grid.

    A fresh instance (own statistic) lives per active threshold v; element e
    joins v's set when the set is below k and the gain clears
    (v/2 - f(S_v)) / (k - |S_v|).  The grid {(1+eps)^i} tracks the running
    best singleton m within [m, 2km]; sets of pruned thresholds are dropped.
    """
    _validate_constraint(F, Cardinality(k))
    if not 0.0 < eps < 1.0:
        raise InputError("eps must lie in (0, 1)")
    order = list(range(F.n)) if stream is None else list(stream)
    prober = F._spawn()
    live: dict[int, SubmodularFunction] = {}
    retired: list[EvalCounters] = []  # counters of pruned thresholds' instances
    m = 0.0
    log1e = math.log1p(eps)

    def grid_range(m_now: float):
        lo = math.ceil(math.log(m_now) / log1e - 1e-12)
        hi = math.floor(math.log(2.0 * k * m_now) / log1e + 1e-12)
        return lo, hi

    touched = 0
    for e in order:
        sv = prober.gain_singleton(e)
        m = max(m, sv)
        if m <= 0.0:
            continue
        lo, hi = grid_range(m)
        for i in [i for i in live if i < lo or i > hi]:
            retired.append(live.pop(i).counters)
        for i in range(lo, hi + 1):
            if i not in live:
                live[i] = F._spawn()
        for i, inst in live.items():
            if len(inst.memo) >= k or e in inst.memo:
                continue
            v = (1.0 + eps) ** i
            g = inst.gain_add(e)
            touched += 1
            if g >= (v / 2.0 - inst.memo_value()) / (k - len(inst.memo)):
                inst.update(e)

    best = None
    for inst in live.values():
        if best is None or inst.memo_value() > best.memo_value():
            best = inst
    if best is None:
        best = prober
        best.set_memo(())
    res = _result(best, [])
    live_counters = [inst.counters for inst in live.values()]
    res.counters = sum([prober.counters, *retired, *live_counters], EvalCounters())
    res.stats = {"thresholds": len(live), "threshold_gains": touched}
    return res


def distributed_greedy(
    F: SubmodularFunction, k: int, machines: int, seed: int = 0
) -> MaximizationResult:
    """Two-round partition greedy: lazy greedy per partition, then on the union.

    Returns the better of the second-round solution and the best single
    partition's solution.
    """
    _validate_constraint(F, Cardinality(k))
    if machines < 1 or machines > F.n:
        raise InputError(f"machine count must lie in [1, {F.n}]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(F.n)
    parts = [sorted(int(j) for j in perm[i::machines]) for i in range(machines)]
    union = []
    best_part = None
    results = []
    for part in parts:
        res = greedy_lazy(F._spawn(), Cardinality(min(k, len(part))), pool=part)
        union.extend(res.members)
        results.append(res)
        if best_part is None or res.value > best_part.value:
            best_part = res
    second = greedy_lazy(F, Cardinality(min(k, len(union))), pool=sorted(union))
    results.append(second)
    winner = second if second.value >= best_part.value else best_part
    out = MaximizationResult(
        selected=winner.selected,
        value=winner.value,
        counters=sum((r.counters for r in results), EvalCounters()),
        trace=winner.trace,
        stats={"partitions": machines, "union_size": len(set(union))},
    )
    return out


def local_search_usm(F: SubmodularFunction, start=None) -> MaximizationResult:
    """Unconstrained local search: add/remove passes to an approximate local optimum.

    A move must improve by more than (_USM_EPS/n^2) * |current value|.  The final
    answer is the better of the local optimum and its complement, which is
    what carries the 1/3 guarantee for non-negative objectives.
    """
    n = F.n
    value = F.value_at(() if start is None else start)
    trace = []
    changed = True
    while changed:
        changed = False
        threshold = (_USM_EPS / (n * n)) * abs(value)
        for j in range(n):
            if j in F.memo:
                continue
            g = F.gain_add(j)
            if g > max(threshold, ABS_TOL):
                F.update(j)
                value += g
                trace.append((j, g))
                changed = True
        threshold = (_USM_EPS / (n * n)) * abs(value)
        for j in list(F.memo.members):
            g = F.gain_remove(j)
            if g < -max(threshold, ABS_TOL):
                F.downdate(j)
                value -= g
                trace.append((j, -g))
                changed = True
    value = F.memo_value()
    complement = [j for j in range(n) if j not in F.memo]
    twin = F._spawn()  # fresh and empty: nothing to rebuild before value_at
    comp_value = twin.value_at(complement)
    if comp_value > value:
        F.set_memo(complement)
    res = _result(F, trace)
    res.counters = res.counters + twin.counters
    res.stats = {"complement_value": comp_value, "local_value": value}
    return res


def bidirectional_greedy(F: SubmodularFunction, order=None) -> MaximizationResult:
    """Deterministic double greedy for unconstrained maximization.

    Grows A from empty and shrinks B from the full set along the given
    order, keeping whichever of the add/remove gains is larger; the two
    statistics live in detached clones.  Guarantees 1/3 of the optimum for
    non-negative objectives.
    """
    order = check_permutation(F.n, order if order is not None else range(F.n))
    grow = F.clone_detached()
    grow.set_memo(())
    shrink = F.clone_detached()
    shrink.set_memo(range(F.n))
    trace = []
    for e in order:
        e = int(e)
        a = grow.gain_add(e)
        b = -shrink.gain_remove(e)  # f(B - e) - f(B)
        if a >= b:
            grow.update(e)
            trace.append((e, a))
        else:
            shrink.downdate(e)
    res = _result(grow, trace)
    res.counters = grow.counters + shrink.counters
    return res


def randomized_greedy(F: SubmodularFunction, k: int, seed: int = 0) -> MaximizationResult:
    """Cardinality-constrained randomized greedy for non-monotone objectives.

    Each round ranks the remaining gains, pads the candidate list to k with
    zero-gain dummies (which also shield negative gains), and picks one of
    the k slots uniformly; drawing a dummy adds nothing that round.
    """
    _validate_constraint(F, Cardinality(k))
    rng = np.random.default_rng(seed)
    F.set_memo(())
    trace = []
    dummies = 0
    for _ in range(k):
        cands = np.flatnonzero(~F.memo.mask)
        gains = list(zip(F.gains_add(cands).tolist(), cands.tolist()))
        gains.sort(key=lambda t: (-t[0], t[1]))
        slots = [(g, j) for g, j in gains if g > 0.0][:k]
        pick = int(rng.integers(k))
        if pick >= len(slots):
            dummies += 1
            continue
        g, j = slots[pick]
        F.update(j)
        trace.append((j, g))
    res = _result(F, trace)
    res.stats = {"dummy_rounds": dummies}
    return res


def minorize_maximize(F: SubmodularFunction, c: Constraint, seed: int = 0) -> MaximizationResult:
    """Iterated tight-lower-bound maximization, at most 50 rounds.

    Each round builds the extreme point tight at the current set (current
    members first, then the rest, each in a fresh seeded random order),
    solves the modular problem under the constraint (``_modular_maximize``,
    a heuristic for a knapsack above n = 20), and keeps the result; the
    objective never decreases.
    """
    _validate_constraint(F, c)
    rng = np.random.default_rng(seed)

    def step(current):
        h = subgradient_at(F, current, tie_order=rng.permutation(F.n))
        candidate = _modular_maximize(h, c)
        if h.value(candidate) < h.value(current) - ABS_TOL:
            return None  # heuristic inner solve failed to improve the bound
        return F.value_at(candidate), candidate

    rounds, _ = bound_rounds(step, max_iters=50)
    trace = list(enumerate(value for value, _ in rounds))
    F.set_memo(rounds[-1][1] if rounds else [])
    res = _result(F, trace)
    res.stats = {"iterations": len(trace)}
    return res


def _modular_maximize(h, c: Constraint) -> list:
    """Modular maximization under the constraint: exact under a cardinality
    and for a knapsack up to n = 20 (all 2^n subsets); above that, ratio
    greedy or the best feasible singleton, a heuristic."""
    w = h.weights
    n = w.shape[0]
    if isinstance(c, Cardinality):
        order = sorted(range(n), key=lambda j: (-w[j], j))
        return sorted(j for j in order[: c.k] if w[j] > 0.0)
    if n <= 20:
        best, best_v = [], 0.0
        for mask in range(1 << n):
            members = [j for j in range(n) if mask >> j & 1]
            if c.cost(members) > c.budget:
                continue
            v = float(w[members].sum()) if members else 0.0
            if v > best_v + ABS_TOL:
                best, best_v = members, v
        return best
    chosen, spent = [], 0.0
    order = sorted(range(n), key=lambda j: (-(w[j] / c.costs[j]), j))
    for j in order:
        if w[j] > 0 and c.costs[j] <= c.budget - spent + ABS_TOL:
            chosen.append(j)
            spent += c.costs[j]
    singles = [j for j in range(n) if c.costs[j] <= c.budget]
    if singles:
        top = max(singles, key=lambda j: (w[j], -j))
        if w[top] > float(w[chosen].sum() if chosen else 0.0):
            return [top]
    return sorted(chosen)
