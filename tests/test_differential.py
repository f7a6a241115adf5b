"""PM-vs-VO differential: every synthetic kind through every runner algorithm.

The memoized run (PM) and the value-oracle run (VO) of the same algorithm
on the same instance must pick the same sets and report the same values and
bound weights, up to a relative 1e-8 for floating-point reassociation.
"""

import numpy as np
import pytest

from submemo import wrap_value_oracle
from submemo.bench.runner import MAXIMIZE_ALGORITHMS, MINIMIZE_ALGORITHMS
from submemo.bench.synthetic import SYNTHETIC_KINDS
from submemo.bounds import extreme_point, supergradient_grow, supergradient_shrink
from submemo.minimize import lovasz_descent

from conftest import zoo_instance

N = 14
K = 4
SEEDS = (0, 1, 2)
REL = 1e-8

# the runner's 2000 Lovász iterations would dominate the sweep; 20 still
# exercise every chain sweep and level-set read
MINIMIZERS = dict(MINIMIZE_ALGORITHMS)
MINIMIZERS["lovasz-descent"] = lambda F, k, seed: lovasz_descent(F, iterations=20)

BOUNDS = {
    "extreme-point": lambda F, rng: extreme_point(F, rng.permutation(F.n)),
    "supergradient-grow": lambda F, rng: supergradient_grow(F, _anchor(F, rng)),
    "supergradient-shrink": lambda F, rng: supergradient_shrink(F, _anchor(F, rng)),
}

ALGORITHMS = sorted(MAXIMIZE_ALGORITHMS) + sorted(MINIMIZERS) + sorted(BOUNDS)


def _anchor(F, rng):
    return sorted(rng.choice(F.n, size=F.n // 2, replace=False).tolist())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def _run(base, mode: str, algorithm: str, seed: int):
    F = base.clone_detached()
    F.set_memo(())
    F.reset_counters()
    if mode == "vo":
        F = wrap_value_oracle(F)
    if algorithm in MAXIMIZE_ALGORITHMS:
        res = MAXIMIZE_ALGORITHMS[algorithm](F, K, seed)
        return [res.members], [res.value]
    if algorithm in MINIMIZERS:
        res = MINIMIZERS[algorithm](F, K, seed)
        return [res.minimizer_min.members, res.minimizer_max.members], [res.value]
    bound = BOUNDS[algorithm](F, np.random.default_rng(seed))
    return [], [bound.offset, *bound.weights]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_pm_and_vo_agree(kind, algorithm):
    for seed in SEEDS:
        base = zoo_instance(kind, N, seed=seed)
        pm_sets, pm_values = _run(base, "pm", algorithm, seed)
        vo_sets, vo_values = _run(base, "vo", algorithm, seed)
        where = f"{kind}/{algorithm}/seed={seed}"
        assert pm_sets == vo_sets, where
        assert len(pm_values) == len(vo_values), where
        for a, b in zip(pm_values, vo_values):
            assert _close(a, b), f"{where}: PM {a!r} vs VO {b!r}"
