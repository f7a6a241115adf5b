"""Composition classes: modular functions, weighted mixtures, modular penalties.

A mixture owns full child instances and drives their internal hooks, so the
mixture's own counters meter one logical operation per call regardless of
how many components it fans out to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import InputError, SubmodularFunction


@dataclass
class ModularData:
    """Per-element weights; f(X) = sum_{j in X} w_j (normalized, no offset)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InputError("modular weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)):
            raise InputError("modular weights must be finite")
        self.weights = w

    @property
    def n(self) -> int:
        return self.weights.shape[0]


class ModularSetFunction(SubmodularFunction):
    """Trivially memoized modular function; statistic is the running sum."""

    name = "modular"

    def __init__(self, data: ModularData):
        super().__init__(data.n)
        self.data = data
        self._sum = 0.0

    def _evaluate(self, idx):
        return float(self.data.weights[idx].sum())

    def _gain_add(self, j):
        return float(self.data.weights[j])

    def _gain_remove(self, j):
        return float(self.data.weights[j])

    def _update(self, j):
        self._sum += self.data.weights[j]

    def _downdate(self, j):
        self._sum -= self.data.weights[j]

    def _rebuild(self, idx):
        self._sum = float(self.data.weights[idx].sum())

    def _value_from_statistic(self):
        return self._sum

    def _statistic(self):
        return {"sum": np.asarray([self._sum])}

    def _spawn(self):
        return ModularSetFunction(self.data)


@dataclass
class MixtureData:
    """Weighted sum of component functions: (weight >= 0, component data)."""

    components: list

    def __post_init__(self):
        if not self.components:
            raise InputError("mixture needs at least one component")
        for w, _spec in self.components:
            if not np.isfinite(w) or w < 0:
                raise InputError("mixture weights must be finite and non-negative")


class MixtureFunction(SubmodularFunction):
    """Gains, updates and rebuilds fan out to every component."""

    name = "mixture"

    def __init__(self, components: list):
        """``components``: list of (weight, SubmodularFunction instance)."""
        if not components:
            raise InputError("mixture needs at least one component")
        n = components[0][1].n
        for w, child in components:
            if child.n != n:
                raise InputError("mixture components must share the ground set")
            if not np.isfinite(w) or w < 0:
                raise InputError("mixture weights must be finite and non-negative")
        super().__init__(n)
        self.components = [(float(w), child) for w, child in components]

    def _evaluate(self, idx):
        return float(sum(w * child._evaluate(idx) for w, child in self.components))

    def _gain_add(self, j):
        return float(sum(w * child._gain_add(j) for w, child in self.components))

    def _gain_remove(self, j):
        return float(sum(w * child._gain_remove(j) for w, child in self.components))

    def _singleton(self, j):
        return float(sum(w * child._singleton(j) for w, child in self.components))

    def _update(self, j):
        for _, child in self.components:
            child._update(j)
            child.memo.add(j)

    def _downdate(self, j):
        for _, child in self.components:
            child._downdate(j)
            child.memo.remove(j)

    def _rebuild(self, idx):
        for _, child in self.components:
            child.memo = type(self.memo)(self.n, idx)
            child._rebuild(idx)

    def _value_from_statistic(self):
        return float(sum(w * child._value_from_statistic() for w, child in self.components))

    def _statistic(self):
        out = {}
        for c, (_, child) in enumerate(self.components):
            for key, arr in child._statistic().items():
                out[f"c{c}.{key}"] = arr
        return out

    def _spawn(self):
        return MixtureFunction([(w, child._spawn()) for w, child in self.components])


@dataclass
class ModularPenaltyData:
    """Base function minus a modular term: f(X) = base(X) - sum_{j in X} p_j."""

    base: object
    penalty: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.penalty, dtype=float)
        if p.ndim != 1 or not np.all(np.isfinite(p)):
            raise InputError("penalty weights must be a finite 1-d array")
        self.penalty = p


class ModularPenalizedFunction(SubmodularFunction):
    """Submodular base shifted by a (possibly signed) modular term.

    Keeps submodularity of the base; used for difference-style objectives
    f(X) - h(X) with h modular.
    """

    name = "modular-penalized"

    def __init__(self, base: SubmodularFunction, penalty: np.ndarray):
        penalty = np.asarray(penalty, dtype=float)
        if penalty.shape != (base.n,):
            raise InputError("penalty must have one weight per element")
        if not np.all(np.isfinite(penalty)):
            raise InputError("penalty weights must be finite")
        super().__init__(base.n)
        self.base = base
        self.penalty = penalty

    def _evaluate(self, idx):
        return float(self.base._evaluate(idx) - self.penalty[idx].sum())

    def _gain_add(self, j):
        return float(self.base._gain_add(j) - self.penalty[j])

    def _gains_add(self, idx):
        gains = self.base._gains_add(idx)
        return None if gains is None else gains - self.penalty[idx]

    def _chain(self, order):
        gains = self.base._chain(order)
        if gains is None:
            return None
        self.base.memo = type(self.memo)(self.n, order)
        return gains - self.penalty[order]

    def _gain_remove(self, j):
        return float(self.base._gain_remove(j) - self.penalty[j])

    def _singleton(self, j):
        return float(self.base._singleton(j) - self.penalty[j])

    def _update(self, j):
        self.base._update(j)
        self.base.memo.add(j)

    def _downdate(self, j):
        self.base._downdate(j)
        self.base.memo.remove(j)

    def _rebuild(self, idx):
        self.base.memo = type(self.memo)(self.n, idx)
        self.base._rebuild(idx)

    def _value_from_statistic(self):
        idx = self.memo.to_indices()
        return float(self.base._value_from_statistic() - self.penalty[idx].sum())

    def _statistic(self):
        return {f"base.{k}": v for k, v in self.base._statistic().items()}

    def _spawn(self):
        return ModularPenalizedFunction(self.base._spawn(), self.penalty)
