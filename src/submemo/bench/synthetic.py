"""Seeded synthetic instance generators, one per zoo class.

Similarity matrices come from random unit-vector dot products clipped at
zero (low ``dim`` gives flatter, more saturated gain profiles); kernels are
Gram matrices; set systems have a configurable density.  The same
(kind, n, seed, params) always yields the same data.
"""

from __future__ import annotations

import numbers

import numpy as np

from ..core import InputError
from ..functions import (
    ClusteredConcaveModularData,
    ClusteredSetCoverData,
    DeepTwoLayerData,
    DispersionData,
    FacilityLocationData,
    FeatureBasedData,
    GraphCutData,
    LogDetData,
    MixtureData,
    ModularData,
    ProbabilisticSetCoverData,
    SaturatedCoverageData,
    SetCoverData,
)

SYNTHETIC_KINDS = (
    "faclocation",
    "satcov",
    "graphcut",
    "setcover",
    "clustersetcover",
    "probsetcover",
    "featurebased",
    "clusterconcave",
    "logdet",
    "dispmin",
    "dispsum",
    "dispminsum",
    "modular",
    "mixture",
    "deep2",
)


def _unit_rows(rng, n: int, dim: int, clusters: int = 0, spread: float = 0.2) -> np.ndarray:
    if clusters > 0:
        # near-duplicate regime: points scatter tightly around a few centers
        centers = rng.normal(size=(clusters, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        v = centers[rng.integers(0, clusters, size=n)] + spread * rng.normal(size=(n, dim))
    else:
        v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _clipped_gram(rng, n: int, dim: int, clusters: int = 0, spread: float = 0.2) -> np.ndarray:
    v = _unit_rows(rng, n, dim, clusters, spread)
    s = v @ v.T
    s = 0.5 * (s + s.T)
    return np.clip(s, 0.0, None)


def _set_system(rng, n: int, universe: int, density: float):
    sets = []
    for _ in range(n):
        size = max(1, rng.binomial(universe, density))
        sets.append(sorted(rng.choice(universe, size=min(size, universe), replace=False).tolist()))
    weights = rng.uniform(0.5, 1.5, size=universe)
    return sets, weights


_CASTS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"), str: (str, "a string")}


def _cast(key: str, value, cast):
    """``value`` as ``cast`` (int, float or str); an InputError naming ``key``
    when it is not of that type (a bool is no number, a float no integer)."""
    want, name = _CASTS[cast]
    if isinstance(value, bool) or not isinstance(value, want):
        raise InputError(f"synthetic parameter {key} must be {name}, got {value!r}")
    return cast(value)


def pop_param(params: dict, key: str, default, cast=float, low=-np.inf, high=np.inf):
    """Pop ``key`` from ``params`` as a checked ``cast`` value in [low, high], or ``default``."""
    value = _cast(key, params.pop(key, default), cast)
    if cast is not str and not low <= value <= high:  # NaN too
        raise InputError(f"synthetic parameter {key} must lie in [{low}, {high}], got {value!r}")
    return value


def gen_synthetic(kind: str, n: int, seed: int = 0, params: dict | None = None):
    """Build a reproducible data object for any zoo class.

    ``params`` are class-specific knobs: ``dim`` for similarity/kernel
    ranks, ``universe``/``density`` for set systems, ``features``/``nnz``
    for feature loads, ``clusters`` for clustered classes, ``alpha_frac``,
    ``lam``, ``ridge``, ``concave`` where they apply.  A value of the wrong
    type, a size below 1, a density outside [0, 1], or a key the kind does
    not read, is an InputError.
    """
    if kind not in SYNTHETIC_KINDS:
        raise InputError(f"unknown synthetic kind {kind!r} (choose from {SYNTHETIC_KINDS})")
    if n < 1:
        raise InputError("synthetic instances need n >= 1")
    p = dict(params or {})
    data = _generate(kind, n, seed, p)
    if p:
        raise InputError(f"synthetic kind {kind!r} does not read parameter(s) {', '.join(sorted(p))}")
    return data


def _generate(kind: str, n: int, seed: int, p: dict):
    """The data object of ``kind``; pops every parameter it reads from ``p``."""
    rng = np.random.default_rng(seed)

    if kind == "faclocation":
        return FacilityLocationData(
            _clipped_gram(
                rng,
                n,
                pop_param(p, "dim", 16, int, low=1),
                pop_param(p, "clusters", 0, int, low=0),
                pop_param(p, "spread", 0.2),
            )
        )
    if kind == "satcov":
        return SaturatedCoverageData(
            _clipped_gram(rng, n, pop_param(p, "dim", 16, int, low=1)),
            alpha_fraction=pop_param(p, "alpha_frac", 0.25),
        )
    if kind == "graphcut":
        return GraphCutData(
            _clipped_gram(rng, n, pop_param(p, "dim", 16, int, low=1)), lam=pop_param(p, "lam", 0.5)
        )
    if kind == "setcover":
        universe = pop_param(p, "universe", max(4, 2 * n), int, low=1)
        sets, weights = _set_system(rng, n, universe, pop_param(p, "density", 0.1, low=0.0, high=1.0))
        return SetCoverData(sets=sets, universe=universe, weights=weights)
    if kind == "clustersetcover":
        universe = pop_param(p, "universe", max(4, 2 * n), int, low=1)
        sets, weights = _set_system(rng, n, universe, pop_param(p, "density", 0.1, low=0.0, high=1.0))
        k = pop_param(p, "clusters", max(2, universe // 8), int, low=1)
        assign = rng.integers(0, k, size=universe)
        clusters = [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]
        clusters = [c for c in clusters if c]
        if not clusters:
            clusters = [list(range(universe))]
        return ClusteredSetCoverData(
            sets=sets, universe=universe, clusters=clusters, weights=weights
        )
    if kind == "probsetcover":
        universe = pop_param(p, "universe", max(4, 2 * n), int, low=1)
        probs = rng.uniform(0.0, 1.0, size=(universe, n))
        probs[rng.random(size=probs.shape) > pop_param(p, "density", 0.25, low=0.0, high=1.0)] = 0.0
        weights = rng.uniform(0.5, 1.5, size=universe)
        return ProbabilisticSetCoverData(probs, weights)
    if kind == "featurebased":
        features = pop_param(p, "features", max(4, 2 * n), int, low=1)
        nnz = min(pop_param(p, "nnz", 8, int), features)
        ids = np.stack([rng.choice(features, size=nnz, replace=False) for _ in range(n)])
        vals = rng.gamma(2.0, 1.0, size=(n, nnz))
        lists = [(ids[j], vals[j]) for j in range(n)]
        return FeatureBasedData(
            lists, concave=pop_param(p, "concave", "sqrt", str), num_features=features
        )
    if kind == "clusterconcave":
        k = pop_param(p, "clusters", max(2, n // 4), int, low=1)
        assign = rng.integers(0, k, size=n)
        clusters, weights = [], []
        for c in range(k):
            members = np.flatnonzero(assign == c)
            if members.size == 0:
                continue
            clusters.append(members.tolist())
            weights.append(rng.gamma(2.0, 1.0, size=members.size).tolist())
        if not clusters:
            clusters, weights = [list(range(n))], [rng.gamma(2.0, 1.0, size=n).tolist()]
        return ClusteredConcaveModularData(
            clusters=clusters,
            cluster_weights=weights,
            n=n,
            concave=pop_param(p, "concave", "sqrt", str),
        )
    if kind == "logdet":
        dim = pop_param(p, "dim", n + 4, int, low=1)
        a = rng.normal(size=(n, dim)) / np.sqrt(dim)
        kernel = a @ a.T
        kernel = 0.5 * (kernel + kernel.T)
        ridge = p.pop("ridge", None)  # None: the class picks its own
        return LogDetData(kernel, ridge=None if ridge is None else _cast("ridge", ridge, float))
    if kind in ("dispmin", "dispsum", "dispminsum"):
        pts = rng.normal(size=(n, pop_param(p, "dim", 3, int, low=1)))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        return DispersionData(d, kind={"dispmin": "min", "dispsum": "sum", "dispminsum": "min-sum"}[kind])
    if kind == "modular":
        bounds = p.pop("range", (-1.0, 2.0))
        if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
            raise InputError(f"synthetic parameter range must be a (lo, hi) pair, got {bounds!r}")
        lo, hi = (_cast("range", b, float) for b in bounds)
        return ModularData(rng.uniform(lo, hi, size=n))
    if kind == "mixture":
        comps = p.pop("components", [(1.0, "graphcut"), (0.5, "faclocation")])
        sub_params = p.pop("sub_params", None)
        if not isinstance(comps, (tuple, list)) or not all(
            isinstance(c, (tuple, list)) and len(c) == 2 for c in comps
        ):
            raise InputError(f"synthetic parameter components must be (weight, kind) pairs, got {comps!r}")
        if sub_params is not None and not isinstance(sub_params, dict):
            raise InputError(f"synthetic parameter sub_params must be a dict, got {sub_params!r}")
        built = []
        for i, (w, sub_kind) in enumerate(comps):
            weight = _cast("components", w, float)
            built.append((weight, gen_synthetic(sub_kind, n, seed + 101 * (i + 1), sub_params)))
        return MixtureData(built)
    if kind == "deep2":
        f2 = pop_param(p, "inner_units", max(4, n // 2), int, low=1)
        f1 = pop_param(p, "outer_units", max(2, f2 // 2), int, low=1)
        scores = rng.gamma(2.0, 1.0, size=(f2, n))
        scores[rng.random(size=scores.shape) > pop_param(p, "density", 0.4, low=0.0, high=1.0)] = 0.0
        mix = rng.uniform(0.0, 1.0, size=(f1, f2))
        outer = rng.uniform(0.5, 1.5, size=f1)
        return DeepTwoLayerData(
            scores,
            mix,
            outer,
            concave_outer=pop_param(p, "concave_outer", "sqrt", str),
            concave_inner=pop_param(p, "concave_inner", "sqrt", str),
        )
    raise InputError(f"unhandled synthetic kind {kind!r}")  # pragma: no cover
