"""A run's reported oracle_evals equals the oracle calls it made, for every
benchmark algorithm, through a value-oracle instance alone or as the base
of a penalty mixture."""

import numpy as np
import pytest

from submemo import ValueOracleFunction
from submemo.bench.runner import ALGORITHMS
from submemo.functions import FacilityLocationFunction, ModularPenaltyData, make_function

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


@pytest.mark.parametrize("penalised", [False, True], ids=["plain", "penalised"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_reported_oracle_evals_count_every_inner_evaluation(algorithm, penalised, monkeypatch):
    F = _vo_instance(penalised)
    calls = []
    inner = FacilityLocationFunction._evaluate
    monkeypatch.setattr(FacilityLocationFunction, "_evaluate",
                        lambda self, idx: calls.append(idx.size) or inner(self, idx))
    res = ALGORITHMS[algorithm](F, K, SEED)
    assert res.counters.oracle_evals == len(calls) > 0
