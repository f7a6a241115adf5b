"""Dispersion objectives over a pairwise distance matrix.

Three variants share the data: the scalar minimum pairwise distance
("min", not submodular), the sum of all ordered pair distances ("sum",
supermodular), and the sum of nearest-in-set distances ("min-sum",
submodular).  Every variant is 0 on sets of fewer than two elements.

Each move of "min" and "min-sum" is computed once, by one helper that
both its gain hook and its transition hook call: ``_min_with`` /
``_min_without`` give the pair minimum once j joins / leaves, and
``_nearest_with`` / ``_nearest_without`` give the members' nearest
distances once j joins / leaves.  A gain is the helper's answer minus
the current value; a transition stores it.
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
        d, _ = _validated_square(self.distance, True, "distance matrix")
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
    """f(X) = min over in-set pairs of d; statistic is that single scalar,
    0.0 below two members.

    The scalar cannot be downdated from itself, so removals rescan the
    remaining pairs: the one statistic whose downdate costs more than its
    update.
    """

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

    def _min_with(self, j) -> float:
        """The pair minimum once j joins the memo (0.0 below two members)."""
        m = len(self.memo)
        if m == 0:
            return 0.0
        nearest = float(self.data.distance[j, self.memo.to_indices()].min())
        return nearest if m == 1 else min(self._min, nearest)

    def _min_without(self, j) -> float:
        """The pair minimum once j leaves the memo: a rescan of the rest."""
        idx = self.memo.to_indices()
        return self._pair_min(idx[idx != j])

    def _gain_add(self, j):
        return self._min_with(j) - self._min

    def _gain_remove(self, j):
        return self._min - self._min_without(j)

    def _update(self, j):
        self._min = self._min_with(j)

    def _downdate(self, j):
        self._min = self._min_without(j)

    def _rebuild(self, idx):
        self._min = self._pair_min(idx)

    def _value_from_statistic(self):
        return self._min

    def _statistic(self):
        return {"min": np.asarray([self._min])}


class DispersionSumFunction(_RowSumFunction):
    """f(X) = sum over ordered in-set pairs; statistic = in-set row sums."""

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

    def _nearest_with(self, j):
        """(members, their nearest distances once j joins, j's nearest)."""
        idx = self.memo.to_indices()
        dj = self.data.distance[j, idx]
        if idx.size == 0:
            return idx, dj, 0.0
        if idx.size == 1:  # the lone member's nearest becomes j
            return idx, dj, dj[0]
        return idx, np.minimum(self._nearest[idx], dj), dj.min()

    def _nearest_without(self, j):
        """(members other than j, their nearest distances once j leaves);
        only the members whose nearest neighbour was j are rescanned."""
        idx = self.memo.to_indices()
        rest = idx[idx != j]
        if rest.size < 2:
            return rest, np.zeros(rest.size)
        d = self.data.distance
        out = self._nearest[rest]
        for pos in np.flatnonzero(out >= d[rest, j]).tolist():
            i = rest[pos]
            out[pos] = d[i, rest[rest != i]].min()
        return rest, out

    def _gain_add(self, j):
        idx, after, own = self._nearest_with(j)
        return float(own + after.sum() - self._nearest[idx].sum())

    def _gain_remove(self, j):
        _, out = self._nearest_without(j)
        return self._value_from_statistic() - sum(out.tolist())

    def _update(self, j):
        idx, after, own = self._nearest_with(j)
        self._nearest[idx] = after
        self._nearest[j] = own

    def _downdate(self, j):
        rest, out = self._nearest_without(j)
        self._nearest[rest] = out
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
