"""Minimization: Wolfe solver, extension descent, constrained bound iteration."""

import numpy as np
import pytest

from submemo.bench import brute_force_min, brute_force_min_over
from submemo.core import InputError, NonConvergenceError, wrap_value_oracle
from submemo.functions import (
    GraphCutData,
    MixtureData,
    ModularData,
    make_function,
)
from submemo.minimize import (
    AtLeast,
    ExplicitFamily,
    _affine_minimizer,
    lovasz_descent,
    min_norm_point,
    mmin_constrained,
)
from conftest import powerset, zoo_instance


def _random_cut(rng, n, lam=None):
    s = rng.random((n, n))
    s = 0.5 * (s + s.T)
    np.fill_diagonal(s, 0.0)
    lam = float(rng.uniform(0.2, 0.8)) if lam is None else lam
    return make_function(n, GraphCutData(s, lam=lam))


def test_mnp_modular_worked_example():
    F = make_function(2, ModularData(np.array([-1.0, 2.0])))
    res = min_norm_point(F)
    assert np.allclose(res.stats["x_star"], [-1.0, 2.0])
    assert res.minimizer_min.members == [0]
    assert res.value == pytest.approx(-1.0)


def test_mnp_symmetric_cut_worked_example():
    F = make_function(2, GraphCutData(np.array([[0.0, 1.0], [1.0, 0.0]]), lam=1.0))
    res = min_norm_point(F)
    assert res.minimizer_min.members == []
    assert sorted(res.minimizer_max.members) == [0, 1]
    assert res.value == pytest.approx(0.0)
    assert res.duality_gap == pytest.approx(0.0, abs=1e-8)


def test_mnp_agrees_with_brute_force_and_stays_in_base(rng):
    for trial in range(25):
        n = int(rng.integers(4, 12))
        F = _random_cut(rng, n)
        res = min_norm_point(F)
        _, opt = brute_force_min(F.clone_detached())
        assert res.value == pytest.approx(opt, abs=1e-6)
        x = res.stats["x_star"]
        assert x.sum() == pytest.approx(F.evaluate(range(n)), abs=1e-8)
        # base polytope membership on every subset
        for S in powerset(n):
            assert x[list(S)].sum() <= F.evaluate(S) + 1e-6


def test_mnp_wolfe_invariants(rng):
    F = _random_cut(rng, 10)
    res = min_norm_point(F)
    norms = res.stats["norm_trace"]
    assert all(norms[i + 1] <= norms[i] + 1e-9 for i in range(len(norms) - 1))
    assert all(abs(s - 1.0) <= 1e-6 for s in res.stats["coeff_sums"])
    assert res.minimizer_min.mask[res.minimizer_max.mask == 0].sum() == 0  # min <= max


@pytest.mark.parametrize("rows, nearest", [
    ([[1.0, 2.0], [1.0, 2.0]], [1.0, 2.0]),  # two equal rows: the hull is one point
    ([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [0.5, 0.5]),  # the third row lies on the others' line
], ids=["equal-rows", "midpoint"])
def test_affine_minimizer_of_dependent_rows_takes_the_least_squares_fallback(rows, nearest, monkeypatch):
    # the bordered normal equations are singular, so solve raises and lstsq answers
    points = np.asarray(rows)
    fallbacks = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        fallbacks.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    coeffs, y = _affine_minimizer(points)
    assert len(fallbacks) == 1
    assert coeffs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(y, coeffs @ points) and np.allclose(y, nearest)


def test_mnp_minimizers_are_lattice_ends(rng):
    F = _random_cut(rng, 9, lam=0.5)
    res = min_norm_point(F)
    v_min = F.evaluate(res.minimizer_min.members)
    v_max = F.evaluate(res.minimizer_max.members)
    assert v_min == pytest.approx(v_max, abs=1e-6)
    assert set(res.minimizer_min.members) <= set(res.minimizer_max.members)


def test_mnp_nonconvergence_carries_best_iterate(rng):
    F = _random_cut(rng, 10)
    with pytest.raises(NonConvergenceError) as err:
        min_norm_point(F, max_major=1)
    assert err.value.result is not None
    assert err.value.result.minimizer_min is not None


def test_mnp_counter_contrast_pm_vs_vo():
    n = 20
    F = zoo_instance("graphcut", n, seed=60, params={"lam": 0.5})
    F.reset_counters()
    min_norm_point(F)
    pm = F.counters
    assert pm.oracle_evals == 0
    # every linear-oracle call is one rebuild + n gains + n updates
    sweeps = pm.memo_updates // n
    assert pm.gain_evals >= sweeps * n
    vo = wrap_value_oracle(zoo_instance("graphcut", n, seed=60, params={"lam": 0.5}))
    min_norm_point(vo)
    assert vo.counters.gain_evals == 0
    assert vo.counters.oracle_evals >= sweeps * n  # Theta(n) oracle calls per sweep


def test_lovasz_descent_modular():
    F = make_function(2, ModularData(np.array([-1.0, 2.0])))
    res = lovasz_descent(F, iterations=200)
    assert res.minimizer_min.members == [0]
    assert res.value == pytest.approx(-1.0)


def test_lovasz_descent_matches_brute_force_small(rng):
    for trial in range(8):
        n = int(rng.integers(4, 9))
        F = _random_cut(rng, n)
        res = lovasz_descent(F, iterations=1500)
        _, opt = brute_force_min(F.clone_detached())
        assert res.value == pytest.approx(opt, abs=1e-6), trial


def test_lovasz_descent_default_iteration_budget():
    F = make_function(3, ModularData(np.array([1.0, -1.0, 0.5])))
    res = lovasz_descent(F, eps=0.1)
    assert res.iterations == 100  # ceil(1 / eps^2)


@pytest.mark.parametrize("iterations", [0, -3])
def test_lovasz_descent_rejects_iterations_below_one(iterations):
    F = make_function(3, ModularData(np.array([1.0, -1.0, 0.5])))
    with pytest.raises(InputError, match="iterations"):
        lovasz_descent(F, iterations=iterations)


def test_mmin_modular_exact(rng):
    from itertools import combinations

    w = rng.normal(size=8)
    F = make_function(8, ModularData(w))
    res = mmin_constrained(F, AtLeast(3))
    opt = min(
        w[list(S)].sum() for r in range(3, 9) for S in combinations(range(8), r)
    )
    assert res.value == pytest.approx(opt)
    assert len(res.minimizer_min) >= 3


def test_mmin_trace_non_increasing(rng):
    for trial in range(20):
        kind = ("clustersetcover", "graphcut", "satcov")[trial % 3]
        F = zoo_instance(kind, 12, seed=1200 + trial)
        floor = int(rng.integers(1, 5))
        res = mmin_constrained(F, AtLeast(floor))
        trace = res.stats["trace"]
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1)), (trial, trace)
        assert len(res.minimizer_min) >= floor


def test_mmin_explicit_family(rng):
    F = zoo_instance("graphcut", 8, seed=61, params={"lam": 0.4})
    family = ExplicitFamily(((0, 1), (2, 3, 4), (5,), (1, 6, 7)))
    res = mmin_constrained(F, family)
    _, opt = brute_force_min_over(F.clone_detached(), family.sets)
    assert res.value <= opt + 1e-9 or tuple(sorted(res.minimizer_min.members)) in family.sets
    assert tuple(sorted(res.minimizer_min.members)) in family.sets


def test_mmin_beats_random_feasible_sampling(rng):
    F = zoo_instance("clustersetcover", 24, seed=62)
    floor = 3
    res = mmin_constrained(F, AtLeast(floor))
    best_random = np.inf
    for _ in range(2000):
        size = int(rng.integers(floor, 25))
        members = sorted(rng.choice(24, size=size, replace=False).tolist())
        best_random = min(best_random, F.evaluate(members))
    assert res.value <= best_random + 1e-9


def test_mnp_mixture_class(rng):
    for trial in range(6):
        n = int(rng.integers(4, 10))
        s1 = rng.random((n, n)); s1 = 0.5 * (s1 + s1.T); np.fill_diagonal(s1, 0.0)
        s2 = rng.random((n, n)); s2 = 0.5 * (s2 + s2.T); np.fill_diagonal(s2, 0.0)
        mix = MixtureData([(1.0, GraphCutData(s1, lam=0.4)), (0.7, GraphCutData(s2, lam=0.6))])
        F = make_function(n, mix)
        res = min_norm_point(F)
        _, opt = brute_force_min(F.clone_detached())
        assert res.value == pytest.approx(opt, abs=1e-6)
