"""A run's reported oracle_evals equals the oracle calls it made, for every
benchmark algorithm, through a value-oracle instance alone or as the base
of a penalty mixture, from an empty or a non-empty memo; and for the pair
solvers, whose inner solves run on instances of their own."""

import numpy as np
import pytest

from submemo import ValueOracleFunction
from submemo.bench.runner import ALGORITHMS
from submemo.constrained import DS_VARIANTS, ds_minimize, scsc_solve, scsk_solve
from submemo.functions import (
    FacilityLocationFunction,
    ModularPenaltyData,
    SetCoverFunction,
    make_function,
)

from conftest import zoo_instance

N, SEED, K = 14, 71, 4


def _vo_instance(penalised: bool):
    F = zoo_instance("faclocation", N, seed=SEED)
    singletons = np.asarray([F.gain_singleton(j) for j in range(N)])
    V = ValueOracleFunction(F._spawn())
    if not penalised:
        return V
    scale = np.random.default_rng(SEED).uniform(0.0, 1.5, N)
    return make_function(N, ModularPenaltyData(V, scale * singletons))


def _count_evaluations(monkeypatch, *classes) -> list:
    """Patch ``_evaluate`` of each class to log every call; returns the log."""
    calls = []
    for cls in classes:
        inner = cls._evaluate
        monkeypatch.setattr(cls, "_evaluate",
                            lambda self, idx, inner=inner: calls.append(idx.size) or inner(self, idx))
    return calls


def _assert_counted(algorithm, penalised, memo, monkeypatch):
    F = _vo_instance(penalised)
    F.set_memo(memo)
    F.reset_counters()
    calls = _count_evaluations(monkeypatch, FacilityLocationFunction)
    res = ALGORITHMS[algorithm](F, K, SEED)
    assert res.counters.oracle_evals == len(calls) > 0


@pytest.mark.parametrize("penalised", [False, True], ids=["plain", "penalised"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_reported_oracle_evals_count_every_inner_evaluation(algorithm, penalised, monkeypatch):
    _assert_counted(algorithm, penalised, (), monkeypatch)


# bidirectional greedy builds its two statistics with clone_detached, whose
# rebuild at the caller's memo is unmetered by contract
_UNMETERED_CLONE = pytest.mark.xfail(strict=True, reason="clone_detached rebuilds unmetered")


@pytest.mark.parametrize("penalised", [False, True], ids=["plain", "penalised"])
@pytest.mark.parametrize("algorithm", [
    pytest.param(a, marks=_UNMETERED_CLONE) if a == "bidirectional-greedy" else a
    for a in sorted(ALGORITHMS)
])
def test_reported_oracle_evals_count_from_a_non_empty_memo(algorithm, penalised, monkeypatch):
    _assert_counted(algorithm, penalised, [1, 2, 3], monkeypatch)


def _vo_pair():
    f = zoo_instance("setcover", N, seed=70)
    g = zoo_instance("faclocation", N, seed=SEED)
    return ValueOracleFunction(f._spawn()), ValueOracleFunction(g._spawn())


SOLVES = {
    "scsc": lambda f, g: scsc_solve(f, g, 0.5 * g.value_at(range(N))),
    "scsk": lambda f, g: scsk_solve(f, g, 0.25 * f.value_at(range(N))),
    **{f"ds-{v}": lambda f, g, v=v: ds_minimize(f, g, v) for v in DS_VARIANTS},
}


@pytest.mark.parametrize("solve", sorted(SOLVES))
def test_pair_solvers_report_every_inner_evaluation(solve, monkeypatch):
    f, g = _vo_pair()
    calls = _count_evaluations(monkeypatch, SetCoverFunction, FacilityLocationFunction)
    res = SOLVES[solve](f, g)
    assert res.counters.oracle_evals == len(calls) > 0


def test_one_instance_as_f_and_g_is_counted_once():
    f, _ = _vo_pair()
    res = ds_minimize(f, f, "mod-mod")
    assert res.counters == f.counters and res.counters.oracle_evals > 0
