"""Function zoo: concrete classes, the validated factory, and the rebuild check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import InputError, SubmodularFunction, ValueOracleFunction
from .compose import (
    MixtureData,
    MixtureFunction,
    ModularData,
    ModularPenaltyData,
    ModularSetFunction,
)
from .concave import (
    ClusteredConcaveModularData,
    ClusteredConcaveModularFunction,
    DeepTwoLayerData,
    DeepTwoLayerFunction,
    FeatureBasedData,
    FeatureBasedFunction,
    make_concave,
)
from .coverage import (
    ClusteredSetCoverData,
    ProbabilisticSetCoverData,
    ProbabilisticSetCoverFunction,
    SetCoverData,
    SetCoverFunction,
)
from .dispersion import (
    DISPERSION_KINDS,
    DispersionData,
    DispersionMinFunction,
    DispersionMinSumFunction,
    DispersionSumFunction,
    make_dispersion,
)
from .graphs import (
    FacilityLocationData,
    FacilityLocationFunction,
    GraphCutData,
    GraphCutFunction,
    SaturatedCoverageData,
    SaturatedCoverageFunction,
)
from .spectral import LOGDET_REL_TOL, LogDetData, LogDetFunction

_SIMPLE_BUILDERS = {
    FacilityLocationData: FacilityLocationFunction,
    SaturatedCoverageData: SaturatedCoverageFunction,
    GraphCutData: GraphCutFunction,
    SetCoverData: SetCoverFunction,
    ClusteredSetCoverData: lambda data: SetCoverFunction(data.base),
    ProbabilisticSetCoverData: ProbabilisticSetCoverFunction,
    FeatureBasedData: FeatureBasedFunction,
    ClusteredConcaveModularData: ClusteredConcaveModularFunction,
    LogDetData: LogDetFunction,
    DeepTwoLayerData: DeepTwoLayerFunction,
    ModularData: ModularSetFunction,
    DispersionData: make_dispersion,
}


def make_function(n: int, spec) -> SubmodularFunction:
    """Build a memoized instance for ``spec`` over the ground set ``0..n-1``.

    The instance starts with an empty memo set and an empty statistic.
    Raises InputError when the data is dimensionally inconsistent with the
    ground set or violates a class invariant.
    """
    if n < 1:
        raise InputError("ground set must have at least one element")
    builder = _SIMPLE_BUILDERS.get(type(spec))
    if builder is not None:
        inst = builder(spec)
    elif isinstance(spec, MixtureData):
        inst = MixtureFunction([(w, make_function(n, sub)) for w, sub in spec.components])
    elif isinstance(spec, ModularPenaltyData):
        base = spec.base if isinstance(spec.base, SubmodularFunction) else make_function(n, spec.base)
        penalty = ModularSetFunction(ModularData(-spec.penalty))
        inst = MixtureFunction([(1.0, base), (1.0, penalty)])
    else:
        raise InputError(f"unknown function spec type {type(spec).__name__}")
    if inst.n != n:
        raise InputError(f"spec describes {inst.n} elements, ground set has {n}")
    return inst


@dataclass
class StatReport:
    """Outcome of a rebuild-and-compare statistic audit."""

    max_deviation: float
    components: dict


def verify_statistic(F: SubmodularFunction) -> StatReport:
    """Rebuild F's statistic from scratch and report the max relative deviation.

    Read-only on F: the rebuild happens in a detached twin.  Deviations are
    |live - rebuilt| / max(1, |rebuilt|) per statistic entry.
    """
    twin = F.clone_detached()
    live = F._statistic()
    fresh = twin._statistic()
    components = {}
    worst = 0.0
    for key, ref in fresh.items():
        a = np.asarray(live[key], dtype=float)
        b = np.asarray(ref, dtype=float)
        if a.shape != b.shape:
            components[key] = np.inf
            worst = np.inf
            continue
        if a.size == 0:
            components[key] = 0.0
            continue
        dev = float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max())
        components[key] = dev
        worst = max(worst, dev)
    return StatReport(max_deviation=worst, components=components)


def default_tolerance(F: SubmodularFunction) -> float:
    """Per-class agreement tolerance (log-det factors are looser)."""
    if isinstance(F, LogDetFunction):
        return LOGDET_REL_TOL
    if isinstance(F, MixtureFunction):
        return max(default_tolerance(child) for _, child in F.components)
    if isinstance(F, ValueOracleFunction):
        return default_tolerance(F._inner)
    return 1e-9


__all__ = [
    "make_concave",
    "make_function",
    "verify_statistic",
    "default_tolerance",
    "StatReport",
    "DISPERSION_KINDS",
    "LOGDET_REL_TOL",
    "FacilityLocationData",
    "FacilityLocationFunction",
    "SaturatedCoverageData",
    "SaturatedCoverageFunction",
    "GraphCutData",
    "GraphCutFunction",
    "SetCoverData",
    "SetCoverFunction",
    "ClusteredSetCoverData",
    "ProbabilisticSetCoverData",
    "ProbabilisticSetCoverFunction",
    "FeatureBasedData",
    "FeatureBasedFunction",
    "ClusteredConcaveModularData",
    "ClusteredConcaveModularFunction",
    "DeepTwoLayerData",
    "DeepTwoLayerFunction",
    "LogDetData",
    "LogDetFunction",
    "DispersionData",
    "DispersionMinFunction",
    "DispersionSumFunction",
    "DispersionMinSumFunction",
    "make_dispersion",
    "ModularData",
    "ModularSetFunction",
    "MixtureData",
    "MixtureFunction",
    "ModularPenaltyData",
]
