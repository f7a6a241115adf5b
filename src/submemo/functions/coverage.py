"""Coverage classes: set cover and probabilistic set cover.

Set systems are stored flat (CSR over elements): ``items[indptr[j]:indptr[j+1]]``
are the universe ids covered by element j, in ascending order.
``ragged.csr_from_rows`` builds them: a per-set loop keeps only each set's
type and shape test, one strict-increase test over all items finds the
sets to sort, and the duplicate and range checks run on the whole array.
The statistic is a per-item coverage count (or product of
miss-probabilities for the probabilistic variant), which makes gains
O(|S_j|).  Clustered set cover has no class of its own: its data object
folds the cluster multiplicities into the item weights of a plain set cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import InputError, SubmodularFunction
from .kept import KeptGains
from .ragged import csr_from_rows, ragged_positions, ragged_sum, row_views


def _set_rows(sets):
    """Each set's items after its type and shape test."""
    for j, s in enumerate(sets):
        arr = s if isinstance(s, np.ndarray) else np.asarray(list(s))  # one read of an iterator
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise InputError(f"set of element {j} must list integer items")
        yield arr, None


def _set_fault(j: int, check: str):
    if check == "twice":
        raise InputError(f"set of element {j} contains duplicate items")
    raise InputError(f"set of element {j} references items outside the universe")


def _validated_weights(weights, universe: int) -> np.ndarray:
    if weights is None:
        return np.ones(universe)
    w = np.asarray(weights, dtype=float)
    if w.shape != (universe,):
        raise InputError(f"need one weight per universe item ({universe}), got {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InputError("universe weights must be finite and non-negative")
    return w


@dataclass
class SetCoverData:
    """Item sets S_j over a weighted universe; f(X) = w(union of S_j, j in X).

    The sets are CSR arrays (``indptr``, ``items``).  ``item_slice(j)``
    reads S_j off a list of per-set views that its first call makes, and
    the object keeps, rather than slicing ``items`` on every read.
    """

    sets: list
    universe: int
    weights: np.ndarray | None = None
    indptr: np.ndarray = field(init=False, repr=False)
    items: np.ndarray = field(init=False, repr=False)
    _item_views = None  # each set's items as a view, made by the first item_slice

    def __post_init__(self):
        if self.universe < 0:
            raise InputError("universe size must be non-negative")
        self.universe = int(self.universe)
        self.indptr, self.items, _ = csr_from_rows(
            _set_rows(self.sets), self.universe, _set_fault, sort_rows=True
        )
        self.weights = _validated_weights(self.weights, self.universe)

    @property
    def n(self) -> int:
        return len(self.sets)

    def item_slice(self, j: int) -> np.ndarray:
        """S_j's items, a view read off a list of every set's views that the
        first call makes and this data object keeps, so every instance over
        it shares one list."""
        views = self._item_views
        if views is None:
            views = self._item_views = row_views(self.indptr, self.items)
        return views[j]


class SetCoverFunction(KeptGains):
    """Coverage counts per universe item; gains read the 0/1 count boundary.

    The scalar hooks sum with ``np.add.reduce``, the reduction
    ``ndarray.sum`` runs, without its Python frame: a set holds a few
    items, so the Python around a read costs more than its numpy work.

    The batched add gains are kept (``KeptGains``, keyed on ``count ==
    0``).  The reach rule: an add gain reads only whether its items'
    counts are 0, so a candidate is reached when one of its items crossed
    the 0 boundary since the last read; a 1 -> 2 move changes no add gain.
    ``_entries_csr`` hands the sets' items to the base class's lookup.
    """

    def __init__(self, data: SetCoverData):
        super().__init__(data.n)
        self.data = data
        self._count = np.zeros(data.universe, dtype=np.int64)

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        pos, _ = ragged_positions(self.data.indptr, idx)
        covered = np.zeros(self.data.universe, dtype=bool)
        covered[self.data.items[pos]] = True
        return float(self.data.weights[covered].sum())

    def _gain_add(self, j):
        it = self.data.item_slice(j)
        return float(np.add.reduce(self.data.weights[it[self._count[it] == 0]]))

    def _kept_key(self):
        return self._count == 0

    def _entries_csr(self):
        return self.data.indptr, self.data.items, self.data.universe

    def _gains_fresh(self, idx):
        return self._weights_covered(idx, 0)

    def _gains_remove(self, idx):
        return self._weights_covered(idx, 1)

    def _singletons(self, idx):
        # the one-member _evaluate sums the items' weights in item order, as stored
        pos, lens = ragged_positions(self.data.indptr, idx)
        return ragged_sum(self.data.weights[self.data.items[pos]], lens)

    def _weights_covered(self, idx, count: int) -> np.ndarray:
        """Per id, the summed weights of its items covered ``count`` times,
        as the scalar gains sum them."""
        pos, lens = ragged_positions(self.data.indptr, idx)
        it = self.data.items[pos]
        hit = self._count[it] == count
        row = np.repeat(np.arange(idx.size), lens)
        return ragged_sum(self.data.weights[it[hit]], np.bincount(row[hit], minlength=idx.size))

    def _chain(self, order):
        # an element gains the items it is the first in the chain to cover
        pos, lens = ragged_positions(self.data.indptr, order)
        it = self.data.items[pos]
        row = np.repeat(np.arange(order.size), lens)
        first = np.full(self.data.universe, order.size)
        np.minimum.at(first, it, row)
        free = first[it] == row
        self._count = np.bincount(it, minlength=self.data.universe)
        return ragged_sum(self.data.weights[it[free]], np.bincount(row[free], minlength=order.size))

    def _gain_remove(self, j):
        it = self.data.item_slice(j)
        return float(np.add.reduce(self.data.weights[it[self._count[it] == 1]]))

    def _update(self, j):
        self._count[self.data.item_slice(j)] += 1

    def _downdate(self, j):
        self._count[self.data.item_slice(j)] -= 1

    def _rebuild(self, idx):
        pos, _ = ragged_positions(self.data.indptr, idx)
        self._count = np.bincount(self.data.items[pos], minlength=self.data.universe)

    def _value_from_statistic(self):
        return float(self.data.weights[self._count > 0].sum())

    def _statistic(self):
        return {"count": self._count.astype(float)}


@dataclass
class ClusteredSetCoverData:
    """Set cover with universe clusters C_1..C_k; f(X) = sum_c w(cover(X) & C_c).

    Clusters may overlap; an item covered once contributes its weight to
    every cluster containing it.  Swapping the sums gives
    f(X) = sum_{u covered} w_u * m_u with m_u the number of clusters holding
    u, so ``base`` is plain set cover over the weights w * m and the factory
    builds a ``SetCoverFunction`` from it.  ``weights`` keeps the input w.
    """

    sets: list
    universe: int
    clusters: list = None
    weights: np.ndarray | None = None
    base: SetCoverData = field(init=False, repr=False)

    def __post_init__(self):
        base = SetCoverData(self.sets, self.universe, self.weights)
        self.weights = base.weights
        if not self.clusters:
            raise InputError("clustered set cover needs at least one cluster")
        u = base.universe
        multiplicity = np.zeros(u)
        for c, cluster in enumerate(self.clusters):
            seen = set()
            for item in cluster:
                if not isinstance(item, (int, np.integer)):
                    raise InputError(f"cluster {c} lists non-integer item {item!r}")
                item = int(item)
                if not 0 <= item < u:
                    raise InputError(f"cluster {c} references item {item} outside the universe")
                if item in seen:
                    raise InputError(f"cluster {c} lists item {item} twice")
                seen.add(item)
                multiplicity[item] += 1.0
        base.weights = self.weights * multiplicity
        self.base = base

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return len(self.clusters)


@dataclass
class ProbabilisticSetCoverData:
    """Per-item coverage probabilities p_uj; f(X) = sum_u w_u (1 - prod(1 - p_uj)).

    ``probs`` has one row per universe item and one column per element.
    """

    probs: np.ndarray
    weights: np.ndarray | None = None
    miss_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise InputError("probability matrix must be 2-d (items x elements)")
        if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
            raise InputError("coverage probabilities must lie in [0, 1]")
        self.probs = p
        self.weights = _validated_weights(self.weights, p.shape[0])
        # miss_cols[j] = 1 - p[:, j], contiguous per element
        self.miss_cols = np.ascontiguousarray((1.0 - p).T)

    @property
    def n(self) -> int:
        return self.probs.shape[1]

    @property
    def universe(self) -> int:
        return self.probs.shape[0]


class ProbabilisticSetCoverFunction(SubmodularFunction):
    """Statistic: per-item product of miss probabilities over the memo set.

    Products that underflow to exactly zero cannot be divided out; a
    downdate (or removal gain) then recomputes the affected entries from
    the remaining members.
    """

    def __init__(self, data: ProbabilisticSetCoverData):
        super().__init__(data.n)
        self.data = data
        self._prod = np.ones(data.universe)

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        prod = self.data.miss_cols[idx].prod(axis=0)
        return float((self.data.weights * (1.0 - prod)).sum())

    def _gain_add(self, j):
        hit = 1.0 - self.data.miss_cols[j]
        return float((self.data.weights * self._prod * hit).sum())

    def _prod_without(self, j) -> np.ndarray:
        """Product over memo-minus-j, dividing where safe, rescanning where not."""
        q = self.data.miss_cols[j]
        safe = (q > 0.0) & (self._prod > 0.0)
        out = np.empty_like(self._prod)
        out[safe] = self._prod[safe] / q[safe]
        unsafe = np.flatnonzero(~safe)
        if unsafe.size:
            idx = self.memo.to_indices()
            rest = idx[idx != j]
            if rest.size:
                out[unsafe] = self.data.miss_cols[rest][:, unsafe].prod(axis=0)
            else:
                out[unsafe] = 1.0
        return out

    def _gain_remove(self, j):
        before = self._prod_without(j)
        return float((self.data.weights * (before - self._prod)).sum())

    def _update(self, j):
        self._prod *= self.data.miss_cols[j]

    def _downdate(self, j):
        self._prod = self._prod_without(j)

    def _rebuild(self, idx):
        self._prod = self.data.miss_cols[idx].prod(axis=0)

    def _value_from_statistic(self):
        return float((self.data.weights * (1.0 - self._prod)).sum())

    def _statistic(self):
        return {"product": self._prod}
