"""Seeded raw inputs and their hand-off to the program's public data classes.

The benchmark owns its generators, so later changes to
``submemo.bench.synthetic`` cannot move its inputs.  ``raw_inputs`` draws
plain numpy arrays from a seed (not timed); ``build`` turns them into
``*Data`` objects and instances through ``make_function`` (timed as set-up).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from submemo import make_function, wrap_value_oracle
from submemo.functions import (
    FacilityLocationData,
    FeatureBasedData,
    ModularPenaltyData,
    SetCoverData,
)

CLASSES = ("facloc", "featbased", "setcover")

FACLOC_DIM = 16
FEATURE_NNZ = 8
# Sparse enough that coverage is not saturated at the 30% budget (at n = 1500
# it reaches roughly 0.35 / 0.74 / 0.96 of the universe); a denser system
# covers everything within a few dozen picks and leaves greedy breaking ties.
SETCOVER_DENSITY = 0.003
PENALTY_STREAM = 1000  # apart from the (seed, class) streams that workloads.py draws from
MNP_SEED = 20190226


def _facloc_raw(rng, n):
    v = rng.normal(size=(n, FACLOC_DIM))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return {"similarity": np.clip(v @ v.T, 0.0, None)}


def _featbased_raw(rng, n):
    features = 2 * n
    ids = [rng.choice(features, size=FEATURE_NNZ, replace=False) for _ in range(n)]
    vals = rng.gamma(2.0, 1.0, size=(n, FEATURE_NNZ))
    return {"lists": [(ids[j], vals[j]) for j in range(n)], "features": features}


def _setcover_raw(rng, n):
    universe = 2 * n
    sizes = np.maximum(1, rng.binomial(universe, SETCOVER_DENSITY, size=n))
    sets = [np.sort(rng.choice(universe, size=s, replace=False)) for s in sizes]
    return {"sets": sets, "universe": universe, "weights": rng.uniform(0.5, 1.5, size=universe)}


def _singletons(cls, raw, n):
    """f({j}) for every j, from the raw arrays (used to scale penalties)."""
    if cls == "facloc":
        return raw["similarity"].sum(axis=0)
    if cls == "featbased":
        return np.asarray([np.sqrt(v).sum() for _, v in raw["lists"]])
    return np.asarray([raw["weights"][s].sum() for s in raw["sets"]])


_RAW = {"facloc": _facloc_raw, "featbased": _featbased_raw, "setcover": _setcover_raw}


def _penalty(rng, cls, raw, n):
    """A seeded half of the elements pays 1.5-2.5x its singleton value, the rest 0-0.3x."""
    heavy = rng.random(n) < 0.5
    scale = np.where(heavy, rng.uniform(1.5, 2.5, size=n), rng.uniform(0.0, 0.3, size=n))
    return scale * _singletons(cls, raw, n)


def raw_inputs(seed: int, n: int, mnp_n: int | None) -> dict:
    """Raw numpy inputs per class: ``main`` at size n and, when mnp_n is set,
    penalties for ``main`` plus a second, penalised input at size mnp_n.

    ``main`` comes from its own generator, so every workload of one seed
    gets the same ``main`` instances.  The penalties make the objective
    non-monotone: the minimiser is a non-trivial set and bidirectional
    greedy removes elements from the full set.  Wolfe's method then
    converges in a few dozen to about a hundred major cycles; a uniform
    0.25-0.75x penalty made feature-based runs take 50 to 3000 cycles
    depending on the seed.  Even with the planted penalty the cycle count
    of one instance ranged 56 to 156 between seeds, and averaging four
    instances still left sweep-pm's feature-based time spreading 0.18
    over ten seeds, a measure of the seed and not of the program.  So the
    min-norm-point input is drawn from the fixed ``MNP_SEED``.
    """
    rng = np.random.default_rng(seed)
    penalties = np.random.default_rng((seed, PENALTY_STREAM))
    fixed = np.random.default_rng(MNP_SEED)
    out = {}
    for cls in CLASSES:
        entry = {"main": _RAW[cls](rng, n)}
        if mnp_n:
            entry["main_penalty"] = _penalty(penalties, cls, entry["main"], n)
            entry["mnp"] = _RAW[cls](fixed, mnp_n)
            entry["mnp_penalty"] = _penalty(fixed, cls, entry["mnp"], mnp_n)
        out[cls] = entry
    return out


def _data(cls, raw):
    if cls == "facloc":
        return FacilityLocationData(raw["similarity"])
    if cls == "featbased":
        return FeatureBasedData(raw["lists"], concave="sqrt", num_features=raw["features"])
    return SetCoverData(sets=raw["sets"], universe=raw["universe"], weights=raw["weights"])


@dataclass
class Instances:
    """Ready instances per class.

    ``main`` is the PM instance and ``vo`` its value-oracle view.
    ``penalized`` is ``main``'s data minus a modular penalty, and ``mnp`` a
    smaller penalised instance for min-norm-point.  ``data`` holds the data
    objects, under ``<class>`` and ``<class>-mnp``.
    """

    data: dict
    main: dict
    vo: dict = field(default_factory=dict)
    penalized: dict = field(default_factory=dict)
    mnp: dict = field(default_factory=dict)


def build(raw: dict, vo: bool) -> Instances:
    """Data objects plus ``make_function`` (and ``wrap_value_oracle`` when vo)."""
    inst = Instances(data={}, main={})
    for cls, entry in raw.items():
        d = inst.data[cls] = _data(cls, entry["main"])
        inst.main[cls] = make_function(d.n, d)
        if vo:
            inst.vo[cls] = wrap_value_oracle(inst.main[cls])
        if "mnp" in entry:
            spec = ModularPenaltyData(base=d, penalty=entry["main_penalty"])
            inst.penalized[cls] = make_function(d.n, spec)
            d = inst.data[f"{cls}-mnp"] = _data(cls, entry["mnp"])
            inst.mnp[cls] = make_function(d.n, ModularPenaltyData(base=d, penalty=entry["mnp_penalty"]))
    return inst


def row_bytes(data) -> float:
    """Bytes of element rows one ``_evaluate`` reads per member, from array sizes."""
    if isinstance(data, FacilityLocationData):
        return float(data.cols.shape[1] * data.cols.itemsize)
    if isinstance(data, FeatureBasedData):
        return (data.feature_ids.nbytes + data.values.nbytes) / data.n
    return data.items.nbytes / data.n


def shape(data) -> dict:
    """n, stored nonzeros and matrix bytes of one instance's data."""
    if isinstance(data, FacilityLocationData):
        nnz, nbytes = int(np.count_nonzero(data.cols)), data.cols.nbytes
    elif isinstance(data, FeatureBasedData):
        nnz = int(data.values.size)
        nbytes = data.indptr.nbytes + data.feature_ids.nbytes + data.values.nbytes
    else:
        nnz = int(data.items.size)
        nbytes = data.indptr.nbytes + data.items.nbytes + data.weights.nbytes
    return {"n": int(data.n), "nnz": nnz, "matrix_bytes": int(nbytes)}
