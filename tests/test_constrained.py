"""Submodular-constrained programs and difference-of-submodular minimization."""

import numpy as np
import pytest

import submemo.constrained
from submemo.bench import brute_force_min
from submemo.bounds import subgradient_at, supergradient_grow
from submemo.constrained import (
    ds_minimize,
    scsc_solve,
    scsk_solve,
    submodular_set_cover,
)
from submemo.core import InputError, NonConvergenceError, wrap_value_oracle
from submemo.functions import (
    GraphCutData,
    ModularData,
    SetCoverData,
    make_function,
)
from submemo.maximize import local_search_usm
from submemo.minimize import min_norm_point
from conftest import random_subset, zoo_instance


def test_cover_modular_unit_costs(rng):
    w = np.array([3.0, 1.0, 2.0, 0.5])
    g = make_function(4, ModularData(w))
    res = submodular_set_cover(g, np.ones(4), c=4.5)
    # picks the largest weights until the level is reached
    assert sorted(res.members) == [0, 2]
    assert res.constraint_value >= 4.5 - 1e-9


def test_cover_worked_example():
    g = make_function(3, SetCoverData(sets=[[0, 1], [1, 2], [2]], universe=3))
    res = submodular_set_cover(g, np.ones(3), c=3.0)
    assert sorted(res.members) == [0, 1]
    assert res.objective == pytest.approx(2.0)
    assert res.converged


def test_cover_always_reaches_level(rng):
    for trial in range(15):
        n = int(rng.integers(5, 14))
        g = zoo_instance("setcover", n, seed=1300 + trial)
        total = g.evaluate(range(n))
        level = float(rng.uniform(0.3, 0.95)) * total
        costs = rng.uniform(0.2, 2.0, size=n)
        res = submodular_set_cover(g, costs, c=level)
        assert res.constraint_value >= level - 1e-9 * max(1.0, level)


def test_cover_infeasible_level():
    g = make_function(3, SetCoverData(sets=[[0], [1], [2]], universe=3))
    with pytest.raises(InputError):
        submodular_set_cover(g, np.ones(3), c=10.0)


def test_scsc_modular_cost_reduces_to_single_cover(rng):
    f = make_function(4, ModularData(np.array([2.0, 1.0, 5.0, 3.0])))
    g = make_function(4, SetCoverData(sets=[[0, 1], [1, 2], [2], [0, 3]], universe=4))
    res = scsc_solve(f, g, 3.0)
    assert res.converged
    # modular f: the supergradient is exact, so round 2 repeats round 1
    assert len(res.trace) <= 2
    assert res.constraint_value >= 3.0 - 1e-9


def test_cap_on_a_repeating_round_counts_as_converged():
    # modular f: the supergradient is exact, so round 2 repeats round 1; a
    # repeat found on the last allowed round is convergence, not the cap
    f = make_function(4, ModularData(np.array([2.0, 1.0, 5.0, 3.0])))
    g = make_function(4, SetCoverData(sets=[[0, 1], [1, 2], [2], [0, 3]], universe=4))
    sc = scsc_solve(f, g, 3.0, max_iters=2)
    sk = scsk_solve(f, g, 3.5, max_iters=2)
    for res in (sc, sk):
        assert res.iterations == 2 and res.trace[0] == res.trace[1]
        assert res.converged
    assert not scsc_solve(f, g, 3.0, max_iters=1).converged


def test_scsc_best_iterate_non_increasing(rng):
    for trial in range(15):
        n = int(rng.integers(6, 13))
        f = zoo_instance("faclocation", n, seed=1400 + trial)
        g = zoo_instance("setcover", n, seed=1500 + trial)
        level = 0.6 * g.evaluate(range(n))
        res = scsc_solve(f, g, level)
        best = np.minimum.accumulate(res.trace)
        assert all(best[i + 1] <= best[i] + 1e-9 for i in range(len(best) - 1))
        assert res.constraint_value >= level - 1e-9 * max(1.0, level)


def test_scsk_modular_f_single_knapsack(rng):
    f = make_function(4, ModularData(np.array([2.0, 1.0, 5.0, 3.0])))
    g = make_function(4, SetCoverData(sets=[[0, 1], [1, 2], [2], [0, 3]], universe=4))
    res = scsk_solve(f, g, 3.5)
    assert res.converged
    assert res.constraint_value <= 3.5 + 1e-9


def test_scsk_iterates_always_feasible(rng):
    for trial in range(15):
        n = int(rng.integers(6, 13))
        f = zoo_instance("featurebased", n, seed=1600 + trial)
        g = zoo_instance("faclocation", n, seed=1700 + trial)
        budget = 0.5 * f.evaluate(range(n))
        res = scsk_solve(f, g, budget)
        assert res.constraint_value <= budget + 1e-9 * max(1.0, budget)


def test_scsk_budget_below_singletons_returns_empty():
    f = make_function(3, ModularData(np.array([5.0, 6.0, 7.0])))
    g = make_function(3, SetCoverData(sets=[[0], [1], [2]], universe=3))
    res = scsk_solve(f, g, 1.0)
    assert res.members == []


def test_pair_solver_validation():
    f = make_function(3, ModularData(np.ones(3)))
    g = make_function(3, ModularData(np.ones(3)))
    other = make_function(4, ModularData(np.ones(4)))
    for call in (
        lambda: scsc_solve(f, other, 1.0),
        lambda: scsk_solve(f, other, 1.0),
        lambda: ds_minimize(f, other),
    ):
        with pytest.raises(InputError, match="share the ground set"):
            call()
    with pytest.raises(InputError, match="variant"):
        ds_minimize(f, g, "nope")
    for call in (
        lambda: scsc_solve(f, g, 1.0, max_iters=0),
        lambda: scsk_solve(f, g, 1.0, max_iters=-1),
        lambda: ds_minimize(f, g, max_iters=0),
    ):
        with pytest.raises(InputError, match="max_iters"):
            call()


def _random_cut_pair(rng, n):
    def cut(seed_shift):
        s = rng.random((n, n))
        s = 0.5 * (s + s.T)
        np.fill_diagonal(s, 0.0)
        return make_function(n, GraphCutData(s, lam=float(rng.uniform(0.3, 0.7))))

    return cut(0), cut(1)


@pytest.mark.parametrize("variant", ["mod-mod", "sub-sup", "sup-sub"])
def test_ds_trace_non_increasing(variant, rng):
    for _ in range(10):
        n = int(rng.integers(5, 11))
        f, g = _random_cut_pair(rng, n)
        res = ds_minimize(f, g, variant)
        assert all(
            res.trace[i + 1] <= res.trace[i] + 1e-9 for i in range(len(res.trace) - 1)
        ), (variant, res.trace)
        assert res.objective <= 0.0 + 1e-12  # never worse than the empty set


def test_ds_zero_g_matches_norm_point(rng):
    n = 8
    f, _ = _random_cut_pair(rng, n)
    zero = make_function(n, ModularData(np.zeros(n)))
    res = ds_minimize(f.clone_detached(), zero, "sub-sup")
    mnp = min_norm_point(f.clone_detached())
    assert res.objective == pytest.approx(mnp.value, abs=1e-8)


def test_ds_sub_sup_uses_the_iterate_of_an_unconverged_inner_solve(monkeypatch):
    # one major cycle per inner norm-point solve, so each raises NonConvergenceError
    inner = []
    real = submemo.constrained.min_norm_point

    def one_cycle(F, tol=None):
        try:
            return real(F, tol=tol, max_major=1)
        except NonConvergenceError as err:
            inner.append((F, err.result))
            raise

    monkeypatch.setattr(submemo.constrained, "min_norm_point", one_cycle)
    f, g = zoo_instance("setcover", 10, seed=4), zoo_instance("faclocation", 10, seed=54)
    res = ds_minimize(f, g, "sub-sup")
    assert inner and res.iterations >= 1
    f0, g0 = zoo_instance("setcover", 10, seed=4), zoo_instance("faclocation", 10, seed=54)
    first = inner[0][1]
    tried = [first.minimizer_min.members, first.minimizer_max.members]
    assert res.trace[1] == pytest.approx(min(f0.evaluate(S) - g0.evaluate(S) for S in tried), abs=1e-12)
    iterates = [sorted(m) for _, r in inner for m in (r.minimizer_min.members, r.minimizer_max.members)]
    assert sorted(res.selected.members) in iterates
    # the unconverged solves' own counters are those of their iterates, and they are all summed
    assert all(F.counters == r.counters for F, r in inner)
    total = f.counters + g.counters
    for _, r in inner:
        total = total + r.counters
    assert res.counters == total


def test_ds_zero_f_matches_local_search(rng):
    n = 8
    _, g = _random_cut_pair(rng, n)
    zero = make_function(n, ModularData(np.zeros(n)))
    res = ds_minimize(zero, g.clone_detached(), "sup-sub")
    ls = local_search_usm(g.clone_detached())
    assert -res.objective == pytest.approx(ls.value, abs=1e-8)


@pytest.mark.parametrize("variant", ["mod-mod", "sub-sup", "sup-sub"])
def test_ds_value_oracle_matches_pm(variant):
    # sub-sup and sup-sub drive the value-oracle f or g through a penalty mixture's hooks
    f = zoo_instance("setcover", 14, seed=70)
    g = zoo_instance("faclocation", 14, seed=71)
    pm = ds_minimize(f.clone_detached(), g.clone_detached(), variant)
    fv, gv = wrap_value_oracle(f), wrap_value_oracle(g)
    vo = ds_minimize(fv, gv, variant)
    assert sorted(vo.selected.members) == sorted(pm.selected.members)
    assert vo.objective == pytest.approx(pm.objective, rel=1e-8, abs=1e-8)
    assert fv.counters.gain_evals == gv.counters.gain_evals == 0
    assert fv.counters.oracle_evals > 0 and gv.counters.oracle_evals > 0


@pytest.mark.parametrize("fk, gk", [("setcover", "faclocation"), ("faclocation", "featurebased"),
                                    ("probsetcover", "satcov"), ("deep2", "setcover")])
def test_sc_value_oracle_matches_pm(fk, gk):
    for seed in (0, 1):
        f, g = zoo_instance(fk, 14, seed=80 + seed), zoo_instance(gk, 14, seed=90 + seed)
        full_g, full_f = g.evaluate(range(14)), f.evaluate(range(14))
        for solve, level in ((scsc_solve, 0.6 * full_g), (scsk_solve, 0.4 * full_f)):
            fp, gp = f.clone_detached(), g.clone_detached()
            pm = solve(fp, gp, level)
            fv, gv = wrap_value_oracle(f), wrap_value_oracle(g)
            vo = solve(fv, gv, level)
            where = f"{solve.__name__} {fk}/{gk} seed={seed}"
            assert vo.selected.members == pm.selected.members, where
            assert vo.objective == pytest.approx(pm.objective, rel=1e-8, abs=1e-8), where
            assert fp.counters.oracle_evals == gp.counters.oracle_evals == 0, where
            assert fv.counters.gain_evals == gv.counters.gain_evals == 0, where


def test_ds_exact_on_small_instances(rng):
    # mod-mod is a heuristic; verify its answer is never better than the true
    # optimum and that sub-sup matches the exhaustive minimum of f - g
    from submemo.functions import ModularPenaltyData

    for _ in range(8):
        n = int(rng.integers(4, 9))
        f, g_cut = _random_cut_pair(rng, n)
        w = rng.uniform(0.0, 1.0, size=n)
        g = make_function(n, ModularData(w))
        res = ds_minimize(f.clone_detached(), g, "sub-sup")
        diff = make_function(n, ModularPenaltyData(f.clone_detached(), w))
        _, opt = brute_force_min(diff)
        # with modular g the subgradient is exact, so one round solves it
        assert res.objective == pytest.approx(opt, abs=1e-6)


def test_iteration_sandwich_bounds(rng):
    # at each iterate the lower bound <= f <= upper bound on random probes
    n = 9
    F = zoo_instance("probsetcover", n, seed=63)
    X = [1, 4, 7]
    lower = subgradient_at(F, X)
    upper = supergradient_grow(F, X)
    for _ in range(20):
        probe = random_subset(rng, n)
        val = F.evaluate(probe)
        assert lower.value(probe) <= val + 1e-9 * max(1.0, abs(val))
        assert upper.value(probe) >= val - 1e-9 * max(1.0, abs(val))


def test_all_procedures_oracle_free_in_pm_mode(rng):
    n = 8
    f, g = _random_cut_pair(rng, n)
    f.reset_counters()
    g.reset_counters()
    res = ds_minimize(f, g, "mod-mod")
    assert f.counters.oracle_evals == 0
    assert g.counters.oracle_evals == 0
    cover_g = zoo_instance("setcover", n, seed=64)
    cover_g.reset_counters()
    submodular_set_cover(cover_g, np.ones(n), c=0.5 * cover_g.evaluate(range(n)))
    assert cover_g.counters.oracle_evals == 1  # only the explicit evaluate above
