"""Dispersion objectives over a pairwise distance matrix.

Three variants share the data: the scalar minimum pairwise distance
("min", not submodular), the sum of all ordered pair distances ("sum",
supermodular), and the sum of nearest-in-set distances ("min-sum",
submodular).  Every variant is 0 on sets of fewer than two elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import InputError, SubmodularFunction
from .graphs import _RowSumFunction, _validated_square

DISPERSION_KINDS = ("min", "sum", "min-sum")


@dataclass
class DispersionData:
    """Symmetric non-negative distances with zero diagonal."""

    distance: np.ndarray
    kind: str = "min"

    def __post_init__(self):
        d = _validated_square(self.distance, True, "distance matrix")
        if np.any(np.diag(d) != 0):
            raise InputError("distance matrix must have a zero diagonal")
        self.distance = d
        if self.kind not in DISPERSION_KINDS:
            raise InputError(f"dispersion kind must be one of {DISPERSION_KINDS}")

    @property
    def n(self) -> int:
        return self.distance.shape[0]


def make_dispersion(data: DispersionData) -> SubmodularFunction:
    cls = {
        "min": DispersionMinFunction,
        "sum": DispersionSumFunction,
        "min-sum": DispersionMinSumFunction,
    }[data.kind]
    return cls(data)


class DispersionMinFunction(SubmodularFunction):
    """f(X) = min over in-set pairs of d; statistic is that single scalar.

    The scalar cannot be downdated from itself, so removals rescan the
    remaining pairs: the one statistic whose downdate costs more than its
    update.
    """

    name = "dispersion-min"

    def __init__(self, data: DispersionData):
        super().__init__(data.n)
        self.data = data
        self._min = 0.0

    def _pair_min(self, idx: np.ndarray) -> float:
        if idx.size < 2:
            return 0.0
        sub = self.data.distance[np.ix_(idx, idx)]
        return float(sub[~np.eye(idx.size, dtype=bool)].min())

    def _evaluate(self, idx):
        return self._pair_min(idx)

    def _min_to_memo(self, j) -> float:
        return float(self.data.distance[j, self.memo.to_indices()].min())

    def _gain_add(self, j):
        m = len(self.memo)
        if m == 0:
            return 0.0
        nearest = self._min_to_memo(j)
        if m == 1:
            return nearest
        return min(self._min, nearest) - self._min

    def _gain_remove(self, j):
        idx = self.memo.to_indices()
        rest = idx[idx != j]
        return self._value_from_statistic() - self._pair_min(rest)

    def _update(self, j):
        m = len(self.memo)
        if m == 0:
            return
        nearest = self._min_to_memo(j)
        self._min = nearest if m == 1 else min(self._min, nearest)

    def _downdate(self, j):
        idx = self.memo.to_indices()
        rest = idx[idx != j]
        self._min = self._pair_min(rest)

    def _rebuild(self, idx):
        self._min = self._pair_min(idx)

    def _value_from_statistic(self):
        return self._min if len(self.memo) >= 2 else 0.0

    def _statistic(self):
        return {"min": np.asarray([self._min])}

    def _spawn(self):
        return DispersionMinFunction(self.data)


class DispersionSumFunction(_RowSumFunction):
    """f(X) = sum over ordered in-set pairs; statistic = in-set row sums."""

    name = "dispersion-sum"

    def __init__(self, data: DispersionData):
        super().__init__(data, data.distance)  # rowsum[l] = sum_{k in memo} d_kl, all l

    def _evaluate(self, idx):
        if idx.size < 2:
            return 0.0
        return float(self.data.distance[np.ix_(idx, idx)].sum())

    def _gain_add(self, j):
        return float(2.0 * self._rowsum[j])

    def _gain_remove(self, j):
        return float(2.0 * self._rowsum[j])

    def _value_from_statistic(self):
        idx = self.memo.to_indices()
        return float(self._rowsum[idx].sum()) if idx.size >= 2 else 0.0


class DispersionMinSumFunction(SubmodularFunction):
    """f(X) = sum_{k in X} min_{l in X, l != k} d_kl.

    Statistic: each member's nearest in-set distance (zero outside the memo
    set and for singletons).  Removing j rescans only the members whose
    nearest neighbour was j.
    """

    name = "dispersion-min-sum"

    def __init__(self, data: DispersionData):
        super().__init__(data.n)
        self.data = data
        self._nearest = np.zeros(self.n)

    def _nearest_of(self, idx: np.ndarray) -> np.ndarray:
        sub = self.data.distance[np.ix_(idx, idx)].copy()
        np.fill_diagonal(sub, np.inf)
        return sub.min(axis=1)

    def _evaluate(self, idx):
        if idx.size < 2:
            return 0.0
        return float(self._nearest_of(idx).sum())

    def _gain_add(self, j):
        m = len(self.memo)
        if m == 0:
            return 0.0
        idx = self.memo.to_indices()
        dj = self.data.distance[j, idx]
        if m == 1:
            return float(2.0 * dj[0])
        cur = self._nearest[idx]
        return float(dj.min() + np.minimum(cur, dj).sum() - cur.sum())

    def _gain_remove(self, j):
        if len(self.memo) <= 2:
            return self._value_from_statistic()
        value_now = self._value_from_statistic()
        idx = self.memo.to_indices()
        rest = idx[idx != j]
        after = 0.0
        for i in rest.tolist():
            if self._nearest[i] < self.data.distance[i, j]:
                after += self._nearest[i]
            else:
                others = rest[rest != i]
                after += float(self.data.distance[i, others].min())
        return value_now - after

    def _update(self, j):
        m = len(self.memo)
        if m == 0:
            return
        idx = self.memo.to_indices()
        dj = self.data.distance[j, idx]
        if m == 1:
            self._nearest[idx[0]] = dj[0]
            self._nearest[j] = dj[0]
            return
        self._nearest[idx] = np.minimum(self._nearest[idx], dj)
        self._nearest[j] = float(dj.min())

    def _downdate(self, j):
        idx = self.memo.to_indices()
        rest = idx[idx != j]
        if rest.size < 2:
            self._nearest[rest] = 0.0
            self._nearest[j] = 0.0
            return
        for i in rest.tolist():
            if self._nearest[i] >= self.data.distance[i, j]:
                others = rest[rest != i]
                self._nearest[i] = float(self.data.distance[i, others].min())
        self._nearest[j] = 0.0

    def _rebuild(self, idx):
        self._nearest = np.zeros(self.n)
        if idx.size >= 2:
            self._nearest[idx] = self._nearest_of(idx)

    def _value_from_statistic(self):
        idx = self.memo.to_indices()
        return float(self._nearest[idx].sum()) if idx.size >= 2 else 0.0

    def _statistic(self):
        return {"nearest": self._nearest}

    def _spawn(self):
        return DispersionMinSumFunction(self.data)
