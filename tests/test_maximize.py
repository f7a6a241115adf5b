"""Maximization algorithms: worked examples, equivalences, guarantees."""

import math
from itertools import combinations

import numpy as np
import pytest

from submemo.bench import brute_force_max
from submemo.core import ABS_TOL, InputError, ModularFunction, wrap_value_oracle
from submemo.functions import (
    GraphCutData,
    ModularData,
    SetCoverData,
    make_function,
)
import submemo.maximize as maximize
from submemo.maximize import (
    Cardinality,
    Knapsack,
    bidirectional_greedy,
    distributed_greedy,
    greedy_lazy,
    greedy_naive,
    greedy_stochastic,
    local_search_usm,
    minorize_maximize,
    randomized_greedy,
    sieve_streaming,
)
from conftest import ALL_KINDS, MONOTONE_KINDS, zoo_instance

TWO_NODE_CUT = GraphCutData(np.array([[0.0, 1.0], [1.0, 0.0]]), lam=1.0)


def test_constraint_validation():
    F = zoo_instance("setcover", 5, seed=40)
    with pytest.raises(InputError):
        Cardinality(0)
    with pytest.raises(InputError):
        greedy_naive(F, Cardinality(9))
    with pytest.raises(InputError):
        Knapsack((1.0, -1.0), 2.0)
    with pytest.raises(InputError):
        greedy_naive(F, Knapsack((5.0,) * 5, 2.0))  # nothing fits


def test_greedy_worked_example_set_cover():
    F = make_function(3, SetCoverData(sets=[[0, 1], [1, 2], [2]], universe=3))
    res = greedy_naive(F, Cardinality(2))
    assert sorted(res.members) == [0, 1]
    assert res.value == pytest.approx(3.0)
    lazy = greedy_lazy(F.clone_detached(), Cardinality(2))
    assert sorted(lazy.members) == [0, 1]


def test_greedy_k1_selects_best_singleton_smallest_id():
    F = zoo_instance("faclocation", 9, seed=41)
    res = greedy_naive(F, Cardinality(1))
    singles = [F.evaluate([j]) for j in range(9)]
    best = max(singles)
    winners = [j for j, v in enumerate(singles) if v == best]
    assert res.members == [min(winners)]


def test_greedy_trace_gains_non_increasing_on_submodular(rng):
    for kind in ("faclocation", "setcover", "featurebased"):
        F = zoo_instance(kind, 14, seed=42)
        res = greedy_naive(F, Cardinality(6))
        gains = [g for _, g in res.trace]
        assert all(gains[i] >= gains[i + 1] - 1e-9 for i in range(len(gains) - 1))


def test_greedy_value_matches_evaluate_and_no_oracle(rng):
    for kind in MONOTONE_KINDS:
        F = zoo_instance(kind, 12, seed=43)
        res = greedy_lazy(F, Cardinality(4))
        assert res.value == pytest.approx(F.evaluate(res.members), rel=1e-9, abs=1e-9)
        assert res.counters.oracle_evals == 0


MONOTONE_SUBMODULAR = tuple(k for k in MONOTONE_KINDS if k != "dispsum")


def test_lazy_equals_naive_on_random_monotone_instances(rng):
    # stale bounds are only valid upper bounds under diminishing returns, so
    # the supermodular dispersion-sum class is excluded here
    for trial in range(40):
        kind = MONOTONE_SUBMODULAR[trial % len(MONOTONE_SUBMODULAR)]
        n = int(rng.integers(6, 18))
        k = int(rng.integers(1, min(6, n) + 1))
        F = zoo_instance(kind, n, seed=800 + trial)
        res_n = greedy_naive(F.clone_detached(), Cardinality(k))
        res_l = greedy_lazy(F.clone_detached(), Cardinality(k))
        assert res_n.members == res_l.members, (kind, n, k)
        assert res_l.counters.gain_evals <= res_n.counters.gain_evals


@pytest.mark.parametrize("constraint", [Cardinality(3), Knapsack(tuple(np.linspace(1, 2, 12)), 3.5)])
def test_lazy_duplicated_pool_equals_deduplicated(constraint):
    F = zoo_instance("faclocation", 12, seed=51)
    want = greedy_lazy(F.clone_detached(), constraint, pool=[1, 2, 5, 8])
    got = greedy_lazy(F.clone_detached(), constraint, pool=[1, 1, 2, 5, 8, 5])
    assert got.members == want.members and got.trace == want.trace
    assert got.counters == want.counters and got.stats == want.stats


def test_lazy_modular_recompute_pattern(rng):
    w = np.sort(rng.random(10))[::-1].copy()
    F = make_function(10, ModularData(w))
    res = greedy_lazy(F, Cardinality(4))
    # exact bounds: the first pick is accepted on its initial bound, every
    # later pick needs exactly one refresh
    pattern = res.stats["recomputes_per_round"]
    assert pattern[0] == 10
    assert pattern[1] == 0
    assert pattern[2:] == [1, 1, 1]


def _lazy_exact(res) -> tuple:
    trace = [(j, float(g).hex()) for j, g in res.trace]
    return (res.members, trace, float(res.value).hex(), res.stats["recomputes_per_round"],
            res.counters.as_dict())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lazy_greedy_without_a_key_equals_the_keyed_path(kind, monkeypatch):
    # under a cardinality greedy_lazy passes no key and the gain is the key;
    # the identity key through the keyed branch must give the same run bitwise
    runs = {}
    for seed in (0, 1, 2):
        F = zoo_instance(kind, 30, seed=seed)
        for k in (1, 7, 30):
            runs[(seed, k, "pm")] = lambda F=F, k=k: greedy_lazy(F.clone_detached(), Cardinality(k))
        runs[(seed, 5, "pool")] = lambda F=F: greedy_lazy(F.clone_detached(), Cardinality(5),
                                                          pool=range(3, 30, 2))
        runs[(seed, 7, "vo")] = lambda F=F: greedy_lazy(wrap_value_oracle(F), Cardinality(7))
    keyless = {name: _lazy_exact(run()) for name, run in runs.items()}
    lazy_argmax, keyed_calls = maximize.lazy_argmax, []

    def identity(g, j):
        keyed_calls.append(j)
        return g

    monkeypatch.setattr(maximize, "lazy_argmax",
                        lambda F, pool, key=None, skip=None: lazy_argmax(F, pool, key or identity, skip))
    for name, run in runs.items():
        assert _lazy_exact(run()) == keyless[name], (kind, name)
    assert keyed_calls


@pytest.mark.parametrize("keyed", [False, True])
@pytest.mark.parametrize("kind", ["faclocation", "featurebased", "setcover", "modular"])
def test_lazy_argmax_from_a_non_empty_memo(kind, keyed):
    # entries are stamped with the memo size at build time, so the first
    # pick of a heap built on a non-empty memo recomputes nothing
    F = zoo_instance(kind, 30, seed=4)
    F.set_memo([3, 11, 20])
    pool = [j for j in range(30) if j not in F.memo]
    scalar = F.clone_detached()
    gains = {j: scalar.gain_add(j) for j in pool}
    ranked = sorted(pool, key=lambda j: (-gains[j], j))
    key = (lambda g, j: g) if keyed else None
    before = F.counters.gain_evals
    picks = maximize.lazy_argmax(F, pool, key)
    assert next(picks) == (ranked[0], gains[ranked[0]], 0)
    assert F.counters.gain_evals - before == len(pool)
    # dropping the pick leaves the memo as it was: the runner-up's bound is fresh
    assert next(picks) == (ranked[1], gains[ranked[1]], 0)
    F.update(ranked[1])
    _, _, recomputes = next(picks)
    assert recomputes >= 1


def test_knapsack_greedy_respects_budget_and_beats_singletons(rng):
    for trial in range(15):
        n = int(rng.integers(5, 13))
        F = zoo_instance("setcover", n, seed=900 + trial)
        costs = tuple(rng.uniform(0.5, 2.0, size=n))
        budget = float(rng.uniform(1.5, 4.0))
        c = Knapsack(costs, budget)
        res = greedy_naive(F.clone_detached(), c)
        assert c.cost(res.members) <= budget + 1e-9
        best_single = max(
            (F.evaluate([j]) for j in range(n) if costs[j] <= budget), default=0.0
        )
        assert res.value >= best_single - 1e-9
        lazy = greedy_lazy(F.clone_detached(), c)
        assert sorted(lazy.members) == sorted(res.members)


def test_stochastic_degenerate_sampling_equals_naive(rng):
    # eps low enough that the sample always covers every remaining element
    F = zoo_instance("faclocation", 8, seed=44)
    res_s = greedy_stochastic(F.clone_detached(), k=3, eps=1e-9, seed=5)
    res_n = greedy_naive(F.clone_detached(), Cardinality(3))
    assert res_s.members == res_n.members


def _stochastic_by_list(F, k, eps, seed, pool):
    """greedy_stochastic's step loop written over Python lists, rescanning the
    pool for unselected ids at every step.  A repeated pool id counts once."""
    pool = list(range(F.n)) if pool is None else sorted(set(pool))
    rng = np.random.default_rng(seed)
    sample_size = math.ceil((F.n / k) * math.log(1.0 / eps))
    F.set_memo(())
    trace = []
    for _ in range(min(k, len(pool))):
        remaining = [j for j in pool if j not in F.memo]
        if not remaining:
            break
        take = min(sample_size, len(remaining))
        sample = sorted(rng.choice(len(remaining), size=take, replace=False))
        best_j, best_g = None, -math.inf
        for pos in sample:
            j = remaining[pos]
            g = F.gain_add(j)
            if g > best_g:
                best_j, best_g = j, g
        F.update(best_j)
        trace.append((best_j, best_g))
    return trace


@pytest.mark.parametrize(
    "kind,k,eps,pool",
    [
        ("faclocation", 5, 0.1, None),
        ("setcover", 12, 0.3, None),
        ("featurebased", 40, 0.05, None),
        ("logdet", 6, 0.2, range(3, 30, 2)),
        ("probsetcover", 8, 0.1, {29, 0, 17, 4, 11, 23, 8, 2, 5}),
        ("satcov", 6, 0.5, [7, 3, 3, 21, 9, 14, 0]),
    ],
)
def test_stochastic_matches_list_based_loop(kind, k, eps, pool):
    F = zoo_instance(kind, 40, seed=47)
    for seed in range(3):
        want = _stochastic_by_list(F.clone_detached(), k, eps, seed, pool)
        got = greedy_stochastic(F.clone_detached(), k, eps, seed, pool=pool)
        assert got.trace == want
        assert all(type(j) is int for j, _ in got.trace)


def _stochastic_by_mask(F, k, eps, seed, pool):
    """greedy_stochastic as it was written before it kept its pool: the
    unselected pool rebuilt from the memo's mask at every step."""
    maximize._validate_constraint(F, Cardinality(k))
    pool = maximize._pool(F, pool)
    rng = np.random.default_rng(seed)
    sample_size = math.ceil((F.n / k) * math.log(1.0 / eps))
    F.set_memo(())
    trace = []
    for _ in range(min(k, pool.size)):
        remaining = pool[~F.memo.mask[pool]]
        take = min(sample_size, remaining.size)
        sample = np.sort(rng.choice(remaining.size, size=take, replace=False))
        best_j, best_g = None, -math.inf
        for j in remaining[sample].tolist():
            g = F.gain_add(j)
            if g > best_g:
                best_j, best_g = j, g
        F.update(best_j)
        trace.append((best_j, best_g))
    return F.memo.members, trace, F.counters


def _outcome(run):
    """``run()``'s selection, trace in hex and counters, or its InputError."""
    try:
        members, trace, counters = run()
    except InputError as err:
        return ("InputError", str(err))
    return members, [(j, g.hex()) for j, g in trace], counters.as_dict()


@pytest.mark.parametrize("mode", ["pm", "vo"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stochastic_keeps_the_mask_filtered_selection(kind, mode):
    n = 18
    for k in (1, n // 3, n, n + 1):
        for pool in (None, [3, 17, 3, 0, 9, 12, 9, 5, 14]):
            for seed in (0, 1):
                def build():
                    F = zoo_instance(kind, n, seed=11)
                    return wrap_value_oracle(F) if mode == "vo" else F

                def kept():
                    G = build()
                    res = greedy_stochastic(G, k, 0.1, seed, pool=pool)
                    assert res.counters == G.counters
                    return res.members, res.trace, res.counters

                want = _outcome(lambda: _stochastic_by_mask(build(), k, 0.1, seed, pool))
                assert _outcome(kept) == want, (k, pool, seed)


def test_stochastic_without_a_finite_gain_raises_as_before():
    # no NaN gain beats -inf, so no step has a pick
    for run in (greedy_stochastic, _stochastic_by_mask):
        F = zoo_instance("setcover", 12, seed=3)
        F._gain_add = lambda j: math.nan
        with pytest.raises(InputError, match="element id must be an integer, got None"):
            run(F, 3, 0.1, 0, None)
        assert F.counters.gain_evals > 0 and F.memo.members == []


def test_stochastic_duplicated_pool_equals_deduplicated():
    F = zoo_instance("faclocation", 12, seed=0)
    want = greedy_stochastic(F.clone_detached(), k=3, seed=0, pool=[1, 2, 5, 8])
    got = greedy_stochastic(F.clone_detached(), k=3, seed=0, pool=[1, 1, 2, 5, 8, 5])
    assert got.members == want.members and got.trace == want.trace
    assert got.counters == want.counters and got.counters.gain_evals == 9


@pytest.mark.parametrize("pool", [[0, -1, 3], [2, 10], [1.0, 2.0], [1, "a"], [1, None]])
def test_stochastic_rejects_bad_pool(pool):
    # lazy greedy shares the pool rule
    F = zoo_instance("setcover", 10, seed=48)
    with pytest.raises(InputError):
        greedy_stochastic(F, k=2, pool=pool)
    with pytest.raises(InputError):
        greedy_lazy(F, Cardinality(2), pool=pool)


def test_stochastic_gain_eval_budget():
    n, k, eps = 30, 5, 0.2
    F = zoo_instance("featurebased", n, seed=45)
    res = greedy_stochastic(F, k=k, eps=eps, seed=7)
    sample = math.ceil((n / k) * math.log(1 / eps))
    assert res.counters.gain_evals <= k * sample
    assert res.counters.gain_evals >= k * min(sample, n - k)


def test_sieve_single_element_stream():
    F = zoo_instance("setcover", 6, seed=46)
    res = sieve_streaming(F, k=3, eps=0.2, stream=[4])
    assert res.members == [4]
    assert res.value == pytest.approx(F.evaluate([4]))


def test_sieve_gain_evals_bounded_by_grid(rng):
    n, k, eps = 24, 4, 0.25
    F = zoo_instance("faclocation", n, seed=47)
    res = sieve_streaming(F, k=k, eps=eps)
    # grid capacity: thresholds within [m, 2km] on a (1+eps) ladder
    cap = math.floor(math.log(2 * k) / math.log1p(eps)) + 2
    assert res.stats["threshold_gains"] <= n * cap
    assert res.counters.oracle_evals == 0


def test_distributed_single_machine_equals_lazy():
    F = zoo_instance("probsetcover", 12, seed=48)
    res_d = distributed_greedy(F.clone_detached(), k=4, machines=1, seed=3)
    res_l = greedy_lazy(F.clone_detached(), Cardinality(4))
    assert sorted(res_d.members) == sorted(res_l.members)
    assert res_d.value == pytest.approx(res_l.value)


def test_distributed_beats_every_single_partition(rng):
    F = zoo_instance("faclocation", 20, seed=49)
    k, m, seed = 4, 3, 11
    res = distributed_greedy(F.clone_detached(), k=k, machines=m, seed=seed)
    parts = [sorted(int(j) for j in np.random.default_rng(seed).permutation(20)[i::m]) for i in range(m)]
    for part in parts:
        part_res = greedy_lazy(F.clone_detached(), Cardinality(min(k, len(part))), pool=part)
        assert res.value >= part_res.value - 1e-9


def test_local_search_two_node_cut():
    F = make_function(2, TWO_NODE_CUT)
    res = local_search_usm(F)
    assert res.members == [0]
    assert res.value == pytest.approx(1.0)
    deltas = [d for _, d in res.trace]
    assert all(d >= 0 for d in deltas)


def test_local_search_modular_converges_to_positive_support(rng):
    w = rng.normal(size=10)
    F = make_function(10, ModularData(w))
    res = local_search_usm(F)
    assert sorted(res.members) == sorted(int(j) for j in np.flatnonzero(w > 0))


@pytest.mark.parametrize("kind, seed", [("graphcut", 3), ("faclocation", 5)])
def test_local_search_value_oracle_counts_every_evaluation(monkeypatch, kind, seed):
    # the complement twin must not evaluate f behind the counters' back
    F = wrap_value_oracle(zoo_instance(kind, 12, seed=seed))
    cls = type(F._inner)
    calls = []
    inner_evaluate = cls._evaluate

    def counted(self, idx):
        calls.append(len(idx))
        return inner_evaluate(self, idx)

    monkeypatch.setattr(cls, "_evaluate", counted)
    res = local_search_usm(F)
    assert len(calls) == res.counters.oracle_evals > 0


def test_bidirectional_worked_example():
    F = make_function(2, TWO_NODE_CUT)
    res = bidirectional_greedy(F, order=[0, 1])
    assert res.members == [0]
    assert res.value == pytest.approx(1.0)


def test_bidirectional_modular_positive_support(rng):
    w = rng.normal(size=9)
    F = make_function(9, ModularData(w))
    for _ in range(4):
        order = rng.permutation(9)
        res = bidirectional_greedy(F, order=order)
        assert sorted(res.members) == sorted(int(j) for j in np.flatnonzero(w > 0))


def test_randomized_greedy_k1_matches_single_greedy_step():
    F = zoo_instance("satcov", 10, seed=50)
    res = randomized_greedy(F.clone_detached(), k=1, seed=9)
    step = greedy_naive(F.clone_detached(), Cardinality(1))
    assert res.members == step.members


def test_randomized_greedy_round_cost(rng):
    n, k = 12, 4
    F = zoo_instance("faclocation", n, seed=51)
    res = randomized_greedy(F, k=k, seed=1)
    want = sum(n - t for t in range(k))
    assert res.counters.gain_evals == want


def test_minorize_maximize_modular_one_round(rng):
    w = rng.normal(size=10)
    F = make_function(10, ModularData(w))
    res = minorize_maximize(F, Cardinality(3), seed=2)
    top = sorted(range(10), key=lambda j: (-w[j], j))[:3]
    want = sorted(j for j in top if w[j] > 0)
    assert sorted(res.members) == want
    assert res.stats["iterations"] <= 2


def test_minorize_maximize_trace_non_decreasing(rng):
    for trial in range(20):
        kind = ("faclocation", "graphcut", "probsetcover")[trial % 3]
        F = zoo_instance(kind, 10, seed=1000 + trial)
        res = minorize_maximize(F, Cardinality(4), seed=trial)
        values = [v for _, v in res.trace]
        assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))


def test_minorize_maximize_per_round_counters():
    n = 25
    F = zoo_instance("satcov", n, seed=52)
    F.reset_counters()
    res = minorize_maximize(F, Cardinality(5), seed=0)
    rounds = res.stats["iterations"]
    # each round costs one extreme-point sweep: n gains + n updates
    assert F.counters.gain_evals == rounds * n
    assert F.counters.memo_updates == rounds * n
    assert F.counters.oracle_evals == 0


def _knapsack(rng, n, share=0.3):
    costs = rng.uniform(0.5, 3.0, size=n)
    return Knapsack(tuple(costs), float(share * costs.sum()))


@pytest.mark.parametrize("n", [1, 5, 9, 13])
def test_modular_knapsack_is_exact_up_to_20(rng, n):
    for trial in range(4):
        w = rng.normal(size=n)
        c = _knapsack(rng, n)
        got = maximize._modular_maximize(ModularFunction(0.0, w), c)
        feasible = (list(S) for r in range(n + 1) for S in combinations(range(n), r))
        best = max(float(w[S].sum()) if S else 0.0 for S in feasible if c.cost(S) <= c.budget)
        value = float(w[got].sum()) if got else 0.0
        assert c.cost(got) <= c.budget
        assert value == pytest.approx(best, abs=ABS_TOL)


def _ratio_greedy(w, c):
    chosen, spent = [], 0.0
    for j in sorted(range(len(w)), key=lambda j: w[j] / c.costs[j], reverse=True):
        if w[j] > 0 and spent + c.costs[j] <= c.budget:
            chosen.append(j)
            spent += c.costs[j]
    return chosen


def test_modular_knapsack_above_20_is_ratio_greedy_or_best_singleton(rng):
    n = 30
    # one cheap element of the best ratio blocks the one that is worth the budget
    w = np.full(n, -1.0)
    w[:2] = 2.0, 100.0
    c = Knapsack((1.0, 100.0) + (1.0,) * (n - 2), 100.0)
    assert maximize._modular_maximize(ModularFunction(0.0, w), c) == [1]
    for trial in range(20):
        w = rng.normal(size=n)
        c = _knapsack(rng, n, share=rng.uniform(0.02, 0.5))
        got = maximize._modular_maximize(ModularFunction(0.0, w), c)
        greedy = _ratio_greedy(w, c)
        singles = [j for j in range(n) if c.costs[j] <= c.budget]
        top = max(float(w[j]) for j in singles)
        value = float(w[got].sum()) if got else 0.0
        assert c.cost(got) <= c.budget + ABS_TOL
        assert value >= max(float(w[greedy].sum()) if greedy else 0.0, top) - ABS_TOL
        assert got == sorted(greedy) or (len(got) == 1 and w[got[0]] == top)


@pytest.mark.parametrize("n", [10, 25])  # exact and heuristic inner solves
def test_minorize_maximize_under_a_knapsack(rng, n):
    for trial in range(6):
        kind = ("faclocation", "setcover", "satcov")[trial % 3]
        F = zoo_instance(kind, n, seed=1200 + trial)
        c = _knapsack(rng, n)
        res = minorize_maximize(F, c, seed=trial)
        values = [v for _, v in res.trace]
        assert c.cost(res.members) <= c.budget + ABS_TOL
        assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))
        assert res.value == pytest.approx(F.evaluate(res.members), rel=1e-9)
        assert res.value == pytest.approx(values[-1], rel=1e-9)


def test_minorize_maximize_stops_when_the_heuristic_does_not_improve(monkeypatch):
    n = 24
    F = zoo_instance("faclocation", n, seed=0)
    costs = np.random.default_rng(0).uniform(0.5, 3.0, size=n)
    c = Knapsack(tuple(costs), float(0.25 * costs.sum()))
    solve, calls = maximize._modular_maximize, []

    def spy(h, c):
        calls.append((h, solve(h, c)))
        return calls[-1][1]

    monkeypatch.setattr(maximize, "_modular_maximize", spy)
    res = minorize_maximize(F, c, seed=0)
    # the last inner solve was refused: its bound is below the incumbent's
    assert res.stats["iterations"] >= 1
    assert len(calls) == res.stats["iterations"] + 1
    h, refused = calls[-1]
    assert h.value(refused) < h.value(res.members) - ABS_TOL
    assert res.members == sorted(calls[-2][1])


def test_algorithms_agree_between_pm_and_vo_modes():
    F = zoo_instance("faclocation", 15, seed=53)
    pm = greedy_lazy(F.clone_detached(), Cardinality(5))
    vo = greedy_lazy(wrap_value_oracle(F), Cardinality(5))
    assert pm.members == vo.members
    assert pm.value == pytest.approx(vo.value, rel=1e-9)
    assert pm.counters.oracle_evals == 0
    assert vo.counters.gain_evals == 0


def test_greedy_guarantee_against_brute_force(rng):
    for trial in range(12):
        kind = ("faclocation", "setcover", "featurebased")[trial % 3]
        n = int(rng.integers(6, 13))
        k = int(rng.integers(2, 5))
        F = zoo_instance(kind, n, seed=1100 + trial)
        _, opt = brute_force_max(F.clone_detached(), Cardinality(k))
        res = greedy_naive(F.clone_detached(), Cardinality(k))
        assert res.value >= (1 - 1 / math.e) * opt - 1e-9
