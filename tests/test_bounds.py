"""Extreme points, sub/supergradients, and the convex extension."""

import itertools

import numpy as np
import pytest

from submemo.bounds import (
    extreme_point,
    linear_oracle,
    lovasz_value,
    subgradient_at,
    supergradient_grow,
    supergradient_shrink,
)
from submemo.core import InputError, wrap_value_oracle
from submemo.functions import FacilityLocationData, ModularData, make_function
from conftest import all_values, powerset, random_subset, zoo_instance

S3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])


def test_extreme_point_worked_example():
    F = make_function(3, FacilityLocationData(S3))
    h = extreme_point(F, [0, 1, 2])
    # telescoping f({0}), f({0,1})-f({0}), f(V)-f({0,1}) = 1.7, 0.6, 0.7
    assert np.allclose(h.weights, [1.7, 0.6, 0.7])
    assert h.offset == 0.0


def test_extreme_point_modular_is_order_free(rng):
    w = rng.normal(size=7)
    F = make_function(7, ModularData(w))
    for _ in range(5):
        order = rng.permutation(7)
        h = extreme_point(F, order)
        assert np.allclose(h.weights, w)


def test_extreme_point_weights_sum_to_full_value(rng):
    for kind in ("faclocation", "graphcut", "probsetcover", "logdet"):
        F = zoo_instance(kind, 9, seed=21)
        total = F.evaluate(range(9))
        for _ in range(4):
            h = extreme_point(F, rng.permutation(9))
            assert h.weights.sum() == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_extreme_point_counter_recipe():
    F = zoo_instance("satcov", 30, seed=22)
    base = F.counters.copy()
    extreme_point(F, np.arange(30))
    delta = F.counters - base
    assert delta.gain_evals == 30
    assert delta.memo_updates == 30
    assert delta.oracle_evals == 0
    assert delta.memo_rebuilds == 1


def test_extreme_point_rejects_bad_order():
    F = zoo_instance("satcov", 5, seed=23)
    with pytest.raises(InputError):
        extreme_point(F, [0, 1, 2, 3])
    with pytest.raises(InputError):
        extreme_point(F, [0, 1, 2, 3, 3])


def test_subgradient_tight_and_lower_bound(rng):
    for kind in ("faclocation", "setcover", "logdet", "graphcut"):
        F = zoo_instance(kind, 8, seed=24)
        values = all_values(F)
        for trial in range(6):
            Y = tuple(random_subset(rng, 8))
            h = subgradient_at(F, Y)
            assert h.value(Y) == pytest.approx(values[Y], rel=1e-9, abs=1e-9)
            for X in powerset(8):
                assert h.value(X) <= values[X] + 1e-9 * max(1.0, abs(values[X])), (kind, Y, X)


def test_subgradient_empty_set_matches_extreme_point():
    F = zoo_instance("featurebased", 6, seed=25)
    order = [3, 1, 0, 5, 2, 4]
    h1 = subgradient_at(F, [], tie_order=order)
    h2 = extreme_point(F, order)
    assert np.allclose(h1.weights, h2.weights)


@pytest.mark.parametrize("bound_fn", [supergradient_grow, supergradient_shrink])
def test_supergradients_tight_and_upper_bound(bound_fn, rng):
    for kind in ("faclocation", "probsetcover", "graphcut", "logdet"):
        F = zoo_instance(kind, 8, seed=26)
        values = all_values(F)
        for trial in range(6):
            X = tuple(random_subset(rng, 8))
            m = bound_fn(F, X)
            assert m.value(X) == pytest.approx(values[X], rel=1e-9, abs=1e-8)
            for Y in powerset(8):
                assert m.value(Y) >= values[Y] - 1e-8 * max(1.0, abs(values[Y])), (kind, X, Y)


def test_supergradient_modular_self_bound(rng):
    w = rng.normal(size=6)
    F = make_function(6, ModularData(w))
    m1 = supergradient_grow(F, [1, 4])
    m2 = supergradient_shrink(F, [1, 4])
    for Y in powerset(6):
        want = w[list(Y)].sum() if Y else 0.0
        assert m1.value(Y) == pytest.approx(want, abs=1e-12)
        assert m2.value(Y) == pytest.approx(want, abs=1e-12)


def test_supergradient_shrink_empty_set_collapses_to_singletons():
    F = zoo_instance("satcov", 7, seed=27)
    m2 = supergradient_shrink(F, [])
    for j in range(7):
        assert m2.weights[j] == pytest.approx(F.evaluate([j]))
    assert m2.offset == pytest.approx(0.0)


def test_supergradient_counter_contract():
    n = 40
    F = zoo_instance("faclocation", n, seed=28)
    X = list(range(0, n, 3))
    F.reset_counters()
    supergradient_grow(F, X)
    d = F.counters
    assert d.memo_rebuilds == 1
    assert d.gain_evals == n
    assert d.oracle_evals == 0
    vo = wrap_value_oracle(zoo_instance("faclocation", n, seed=28))
    supergradient_grow(vo, X)
    assert vo.counters.oracle_evals == n + 1
    assert vo.counters.gain_evals == 0


def test_lovasz_worked_example_and_indicators():
    F = make_function(2, FacilityLocationData(np.array([[1.0, 0.5], [0.5, 1.0]])))
    assert lovasz_value(F, [0.5, 1.0]) == pytest.approx(1.75)
    assert lovasz_value(F, [1.0, 1.0]) == pytest.approx(F.evaluate([0, 1]))
    for kind in ("graphcut", "setcover", "logdet"):
        G = zoo_instance(kind, 6, seed=29)
        values = all_values(G)
        for S in powerset(6):
            x = np.zeros(6)
            x[list(S)] = 1.0
            assert lovasz_value(G, x) == pytest.approx(values[S], rel=1e-9, abs=1e-9), (kind, S)


def test_lovasz_subgradient_attains_value_and_convexity(rng):
    F = zoo_instance("faclocation", 7, seed=30)
    for _ in range(20):
        x = rng.random(7)
        h = linear_oracle(F, x)
        assert h.dot(x) == pytest.approx(lovasz_value(F, x), rel=1e-9, abs=1e-9)
        a, b = rng.random(7), rng.random(7)
        mid = lovasz_value(F, (a + b) / 2.0)
        assert mid <= (lovasz_value(F, a) + lovasz_value(F, b)) / 2.0 + 1e-9


def test_lovasz_subgradient_matches_set_subgradient_at_indicators():
    F = zoo_instance("probsetcover", 6, seed=31)
    S = [1, 3]
    x = np.zeros(6)
    x[S] = 1.0
    h_cont = linear_oracle(F, x)
    h_set = subgradient_at(F, S)
    assert np.allclose(h_cont.weights, h_set.weights)


def test_linear_oracle_directions(rng):
    F = zoo_instance("graphcut", 7, seed=32)
    w = rng.normal(size=7)
    Fm = make_function(7, ModularData(w))
    for x in (rng.normal(size=7), np.zeros(7)):
        assert np.allclose(linear_oracle(Fm, x).weights, w)
        assert np.allclose(linear_oracle(Fm, x, maximize=False).weights, w)
    for _ in range(10):
        x = rng.normal(size=7)
        best = linear_oracle(F, x)
        worst = linear_oracle(F, x, maximize=False)
        for _ in range(20):
            h = extreme_point(F, rng.permutation(7))
            assert best.dot(x) >= h.dot(x) - 1e-9
            assert worst.dot(x) <= h.dot(x) + 1e-9
