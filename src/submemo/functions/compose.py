"""Composition classes: modular functions, weighted mixtures, modular penalties.

Compositions form one function tree.  A mixture drives its components
through their hooks, and each component belongs to one mixture: its memo
and its counters are the mixture's own objects, so the tree keeps one memo
and one set of counters.  A modular penalty is not a class of its own:
f - m is the mixture of f and the modular function -m.

Every weight here is read and checked finite (a mixture weight also
non-negative) by ``core.real_array``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import InputError, SubmodularFunction, real_array


@dataclass
class ModularData:
    """Per-element weights; f(X) = sum_{j in X} w_j (normalized, no offset)."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = real_array(self.weights, "modular weights", 1)
        if self.weights.size == 0:
            raise InputError("modular weights must be a non-empty 1-d array")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


class ModularSetFunction(SubmodularFunction):
    """Modular function: the memo is its whole statistic.

    Gains are weights, and the value is the weights summed over the memo
    in member order, so there is no running sum to drift or to update.
    """

    def __init__(self, data: ModularData):
        super().__init__(data.n)
        self.data = data

    def _evaluate(self, idx):
        return float(self.data.weights[idx].sum())

    def _gain_add(self, j):
        return float(self.data.weights[j])

    def _gains_add(self, idx):
        return self.data.weights[idx]

    def _chain(self, order):
        return self.data.weights[order]

    def _gain_remove(self, j):
        return float(self.data.weights[j])

    def _gains_remove(self, idx):
        return self.data.weights[idx]

    def _singletons(self, idx):
        return self.data.weights[idx]

    def _update(self, j):
        pass

    def _downdate(self, j):
        pass

    def _rebuild(self, idx):
        pass

    def _value_from_statistic(self):
        return float(self.data.weights[self.memo.to_indices()].sum())

    def _statistic(self):
        return {}


def _mixture_weight(w) -> float:
    return float(real_array(w, "mixture weights", 0, values="non-negative"))


@dataclass
class MixtureData:
    """Weighted sum of component functions: (weight >= 0, component data)."""

    components: list

    def __post_init__(self):
        if not self.components:
            raise InputError("mixture needs at least one component")
        for w, _spec in self.components:
            _mixture_weight(w)

    @property
    def n(self) -> int:
        return self.components[0][1].n


class MixtureFunction(SubmodularFunction):
    """Weighted sum of component instances; each hook is the weighted sum
    of the components' hooks.

    One tree: a component belongs to one mixture, and its ``memo`` and
    ``counters`` are the mixture's own objects.  The mixture's public
    methods grow and shrink that one memo, and whatever a component meters
    (a value-oracle component's oracle calls) lands in the mixture's
    counters.  ``_rebuild`` points the components at the mixture's memo
    again, because ``set_memo`` and ``clone_detached`` replace it; a
    component joins at the empty set, rebuilt there.

    The per-element hooks loop explicitly (a generator ``sum`` timed
    slower).  ``_gains_add`` and ``_chain`` are vectorised when every
    component has the hook and None otherwise.  A ``_chain`` that meets a
    component without one first rebuilds the components that already
    chained, so a None leaves the statistic untouched, as the contract asks.
    """

    def __init__(self, components: list):
        """``components``: list of (weight, SubmodularFunction instance)."""
        if not components:
            raise InputError("mixture needs at least one component")
        n = components[0][1].n
        if any(child.n != n for _, child in components):
            raise InputError("mixture components must share the ground set")
        super().__init__(n)
        self.components = [(_mixture_weight(w), child) for w, child in components]
        self._rebuild(self.memo.to_indices())

    def _evaluate(self, idx):
        return float(sum(w * child._evaluate(idx) for w, child in self.components))

    def _gain_add(self, j):
        total = 0.0
        for w, child in self.components:
            total += w * child._gain_add(j)
        return float(total)

    def _gains_add(self, idx):
        return self._batched("_gains_add", idx)

    def _chain(self, order):
        total = 0.0
        for c, (w, child) in enumerate(self.components):
            gains = child._chain(order)
            if gains is None:
                for _, chained in self.components[:c]:
                    chained._rebuild(order[:0])
                return None
            total = total + w * gains
        return total

    def _gain_remove(self, j):
        total = 0.0
        for w, child in self.components:
            total += w * child._gain_remove(j)
        return float(total)

    def _gains_remove(self, idx):
        return self._batched("_gains_remove", idx)

    def _singleton(self, j):
        return float(sum(w * child._singleton(j) for w, child in self.components))

    def _singletons(self, idx):
        return self._batched("_singletons", idx)

    def _batched(self, hook: str, idx):
        """The weighted sum of the components' batched ``hook`` over ``idx``,
        added in component order from 0.0 as the scalar hooks add; None
        when a component has no batched form."""
        total = 0.0
        for w, child in self.components:
            gains = getattr(child, hook)(idx)
            if gains is None:
                return None
            total = total + w * gains
        return total

    def _update(self, j):
        for _, child in self.components:
            child._update(j)

    def _downdate(self, j):
        for _, child in self.components:
            child._downdate(j)

    def _rebuild(self, idx):
        for _, child in self.components:
            child.memo, child.counters = self.memo, self.counters
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
    """Base function minus a modular term: f(X) = base(X) - sum_{j in X} p_j.

    ``make_function`` builds the mixture of ``base`` (data, or an instance
    that becomes a component) and the modular function with weights -p.
    """

    base: object
    penalty: np.ndarray

    def __post_init__(self):
        self.penalty = real_array(self.penalty, "penalty weights", 1)

    @property
    def n(self) -> int:
        return self.base.n
