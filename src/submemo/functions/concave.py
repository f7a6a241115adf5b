"""Concave-over-modular classes: feature based, clustered, two-layer deep.

Score tables are stored CSR over elements (``scores[indptr[j]:indptr[j+1]]``
with matching feature ids), so a gain touches only the features element j
loads.  Feature-based and clustered concave-over-modular functions keep the
same statistic (per-bucket loads) and share every hook through
``_SparseLoadFunction``; they differ only in how their data fills the CSR
arrays.  Sparse feature rows and the clusters are ``(ids, values)`` pairs
read by ``ragged.csr_from_rows``, which tests each row in one loop and
runs the cast and the range, duplicate and sign checks once on the
concatenated entries; a dense score matrix goes to ``csr_checked``.  The
id bound (``num_features``, ``n``) is read by ``core.check_size``.  Dense
inputs (a score matrix, the deep function's arrays) are read and
range-checked by ``core.real_array``.  An element's entries keep their
input order (clustered data: ascending cluster), which the hooks' sums
rely on bit for bit.  Concave shapes come from a closed, serializable
registry: ``make_concave`` returns a plain numpy function psi (psi(0) = 0,
non-decreasing, concave) that the hooks call directly; the data keeps the
shape's name in its ``concave`` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import InputError, SubmodularFunction, check_size, real_array
from .kept import KeptGains
from .ragged import (
    csr_checked,
    csr_from_rows,
    ragged_positions,
    ragged_sum,
    row_views,
    stable_order,
)


# Ids per block of the batched singletons, whose block is _SINGLETON_BLOCK x
# num_buckets floats.  At n = 1500 with 3000 features on a 2-vCPU x86-64
# host (750 ids, best of 30): 0.54 ms with 32-row blocks, 0.61 with 16,
# 0.57 with 64 and 0.71 with 128; psi over the whole block instead of the
# entries took 2.3 ms.
_SINGLETON_BLOCK = 32

_FEATURE_ROW = "feature scores: element {}"  # names element j's row in messages


def make_concave(name: str):
    """Registry lookup: 'sqrt', 'log1p', or 'pow:<p>' with p in (0, 1)."""
    if name == "sqrt":
        return np.sqrt
    if name == "log1p":
        return np.log1p
    if name.startswith("pow:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad concave spec {name!r}") from None
        if not 0.0 < p < 1.0:
            raise InputError(f"power exponent must lie in (0, 1), got {p}")
        return lambda x, _p=p: np.power(x, _p)
    raise InputError(f"unknown concave shape {name!r} (use sqrt, log1p, pow:<p>)")


class _SparseLoadFunction(KeptGains):
    """f(X) = sum_b psi(p[b]) with statistic p[b] = total score of bucket b over the memo.

    Built from a data object that carries CSR ``indptr`` and ``values`` and a
    concave ``psi``; each subclass passes the bucket ids and bucket count
    under the names its data uses.  An entry holds a few values (8 in the
    benchmark's feature-based instance), so the Python around a scalar read
    costs more than its numpy work.  The scalar hooks therefore read element
    j's ``(bucket ids, values)`` views from ``_entries``, a list made once
    per data object (the data's ``entry_views``) by the first scalar read
    (``_entry``), rather than slicing the CSR arrays on every call.  They
    sum with ``np.add.reduce``, the reduction ``ndarray.sum`` runs, without
    its Python frame.

    The extreme-point chain groups its entries by bucket in linear time
    (``stable_order``) and moves the loads one occurrence level at a time:
    one slice add per entry of the most-used bucket, 13-14 in the
    benchmark's feature-based instances and n when a bucket is in every
    element.

    The batched add gains are kept (``KeptGains``, keyed on ``_load``).
    The reach rule: an add gain reads the loads of its element's buckets,
    so a candidate is reached when one of its buckets' loads changed bits
    since the last read.  A downdate that leaves an ulp residual where the
    load was 0 counts as a move.  ``_entries_csr`` hands the elements'
    buckets to the base class's lookup.
    """

    def __init__(self, data, ids: np.ndarray, num_buckets: int):
        super().__init__(data.n)
        self.data = data
        self.num_buckets = num_buckets
        self._indptr = data.indptr
        self._entries = None  # data.entry_views, bound by the first scalar read
        self._ids = ids
        self._vals = data.values
        self._psi = data.psi
        self._load = np.zeros(num_buckets)
        self._levels = None  # the chain's level layout, built by the first chain

    def _entry(self, j: int):
        """Element j's ``(bucket ids, values)`` views, after binding
        ``_entries`` to the data's list of them, made here on first need.

        The list lives on the data object, so every instance over the data
        (spawns, clones, value-oracle inners, mixture and penalty
        components) shares it.  Once it is bound, the scalar hooks read
        ``_entries`` themselves and never call this.
        """
        data = self.data
        if data.entry_views is None:
            data.entry_views = list(zip(row_views(self._indptr, self._ids),
                                        row_views(self._indptr, self._vals)))
        self._entries = data.entry_views
        return self._entries[j]

    def _accumulate(self, idx: np.ndarray) -> np.ndarray:
        """Loads of the members ``idx``, bitwise as one ``load[ids] += vals`` each.

        ``bincount`` adds each bucket's entries in member order from 0.0,
        and an element lists a bucket at most once.  With no entries it
        returns int64 even for float weights, hence the cast.
        """
        pos, _ = ragged_positions(self._indptr, idx)
        load = np.bincount(self._ids[pos], self._vals[pos], minlength=self.num_buckets)
        return load.astype(float, copy=False)

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        return float(self._psi(self._accumulate(idx)).sum())

    def _gain_add(self, j):
        entries = self._entries
        ids, vals = entries[j] if entries is not None else self._entry(j)
        p = self._load[ids]
        psi = self._psi
        return float(np.add.reduce(psi(p + vals) - psi(p)))

    def _kept_key(self):
        return self._load

    def _entries_csr(self):
        return self._indptr, self._ids, self.num_buckets

    def _gains_fresh(self, idx):
        pos, lens = ragged_positions(self._indptr, idx)
        p = self._load[self._ids[pos]]
        return ragged_sum(self._psi(p + self._vals[pos]) - self._psi(p), lens)

    def _chain(self, order):
        # A chain lists every element once, so bucket b meets its count(b)
        # entries whatever the order.  Level k holds the k-th entry, in chain
        # order, of every bucket met more than k times: with buckets ranked
        # by count, that is a prefix of the ranking, and one slice add per
        # level moves all of their loads.  Each bucket still adds its entries
        # one by one in chain order from 0.0, as one ``load[ids] += vals``
        # per member does, so loads and gains are bitwise the same.
        ranked, slots, levels = self._levels or self._level_layout()
        pos, lens = ragged_positions(self._indptr, order)
        ids, vals = self._ids[pos], self._vals[pos]
        at = stable_order(ids, self.num_buckets)[slots]  # chain entry of each level slot
        v = vals[at]
        load = np.zeros(levels[0][1] if levels else 0)
        before = np.empty(v.size)
        for lo, m in levels:
            before[lo:lo + m] = load[:m]
            load[:m] += v[lo:lo + m]
        p = np.empty(v.size)
        p[at] = before
        self._load = np.zeros(self.num_buckets)
        self._load[ranked[:load.size]] = load
        return ragged_sum(self._psi(p + vals) - self._psi(p), lens)

    def _level_layout(self):
        """(buckets ranked by entry count, descending; ``slots``; levels).

        Level k is the pair ``(lo, m)``: its m buckets are the first m of
        the ranking, and its entries fill slots ``lo:lo + m``.  ``slots``
        maps each slot to its place in the entries grouped by bucket, where
        bucket b's k-th entry sits k after the first.  Built on the first
        chain and kept: it depends on the data only.
        """
        counts = np.bincount(self._ids, minlength=self.num_buckets)
        ranked = np.argsort(-counts, kind="stable")
        above = self.num_buckets - np.cumsum(np.bincount(counts, minlength=1))[:-1]  # m per level
        lo = np.cumsum(above) - above
        level = np.repeat(np.arange(above.size), above)
        rank = np.arange(level.size) - lo[level]
        first = np.cumsum(counts) - counts  # each bucket's first entry, grouped by bucket
        slots = first[ranked[rank]] + level
        self._levels = ranked, slots, list(zip(lo.tolist(), above.tolist()))
        return self._levels

    def _gain_remove(self, j):
        entries = self._entries
        ids, vals = entries[j] if entries is not None else self._entry(j)
        p = self._load[ids]
        psi = self._psi
        return float(np.add.reduce(psi(p) - psi(np.maximum(p - vals, 0.0))))

    def _gains_remove(self, idx):
        pos, lens = ragged_positions(self._indptr, idx)
        p = self._load[self._ids[pos]]
        psi = self._psi
        return ragged_sum(psi(p) - psi(np.maximum(p - self._vals[pos], 0.0)), lens)

    def _singletons(self, idx):
        """f({j}) of each id as the one-member ``_evaluate`` reads it: psi
        summed over every bucket, not only j's, since a pairwise sum groups
        its terms by position.  psi(0) = 0, so ``_SINGLETON_BLOCK`` ids at a
        time, each row of a zero block ``num_buckets`` wide takes psi of its
        element's entries, and the row sums are the gains.  ``bincount``
        loads a -0.0 score as +0.0 and the block keeps psi(-0.0), but a
        zero's sign does not reach a sum."""
        pos, lens = ragged_positions(self._indptr, idx)
        ids, terms = self._ids[pos], self._psi(self._vals[pos])
        row = np.repeat(np.arange(idx.size), lens)
        ends = np.concatenate(([0], np.cumsum(lens)))
        out = np.empty(idx.size)
        block = np.zeros((min(_SINGLETON_BLOCK, idx.size), self.num_buckets))
        for lo in range(0, idx.size, _SINGLETON_BLOCK):
            hi = min(lo + _SINGLETON_BLOCK, idx.size)
            at = (row[ends[lo]:ends[hi]] - lo, ids[ends[lo]:ends[hi]])
            sub = block[:hi - lo]
            sub[at] = terms[ends[lo]:ends[hi]]
            sub.sum(axis=1, out=out[lo:hi])
            sub[at] = 0.0
        return out

    def _update(self, j):
        entries = self._entries
        ids, vals = entries[j] if entries is not None else self._entry(j)
        self._load[ids] += vals

    def _downdate(self, j):
        entries = self._entries
        ids, vals = entries[j] if entries is not None else self._entry(j)
        self._load[ids] = np.maximum(self._load[ids] - vals, 0.0)

    def _rebuild(self, idx):
        self._load = self._accumulate(idx)

    def _value_from_statistic(self):
        return float(self._psi(self._load).sum())

    def _statistic(self):
        return {"load": self._load}


@dataclass
class FeatureBasedData:
    """Sparse non-negative feature scores with a concave accumulator.

    ``scores`` is either a dense (features x elements) matrix or a list of
    per-element ``(feature_ids, values)`` pairs (then ``num_features`` is
    required).  A dense matrix keeps each element's nonzeros in ascending
    feature order.
    """

    scores: object
    concave: str = "sqrt"
    num_features: int | None = None
    indptr: np.ndarray = field(init=False, repr=False)
    feature_ids: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    entry_views = None  # each element's (ids, values) views: its function's first scalar read

    def __post_init__(self):
        if isinstance(self.scores, np.ndarray) or (
            hasattr(self.scores, "ndim") and getattr(self.scores, "ndim", 0) == 2
        ):
            m = real_array(self.scores, "feature scores", 2, values="non-negative")
            self.num_features, self.n_elements = m.shape
            # the transpose's nonzeros run element by element, features ascending
            elements, features = np.nonzero(m.T)
            self.indptr, self.feature_ids, self.values = csr_checked(
                np.bincount(elements, minlength=self.n_elements), features,
                m[features, elements], self.num_features, _FEATURE_ROW, "feature scores",
            )
        else:
            if self.num_features is None:
                raise InputError("sparse feature scores need num_features")
            self.num_features = check_size(self.num_features, "num_features")
            self.indptr, self.feature_ids, self.values = csr_from_rows(
                self.scores, self.num_features, _FEATURE_ROW, "feature scores"
            )
            self.n_elements = self.indptr.size - 1
        self.psi = make_concave(self.concave)

    @property
    def n(self) -> int:
        return self.n_elements


class FeatureBasedFunction(_SparseLoadFunction):
    """f(X) = sum_e psi(m_e(X)) over feature loads m_e."""

    def __init__(self, data: FeatureBasedData):
        super().__init__(data, data.feature_ids, data.num_features)


@dataclass
class ClusteredConcaveModularData:
    """Ground-set clusters with per-cluster modular weights.

    ``clusters[c]`` lists element ids and ``cluster_weights[c]`` the matching
    modular weights m_c(e); clusters may overlap.  f(X) = sum_c psi(m_c(X & C_c)).
    """

    clusters: list
    cluster_weights: list
    n: int
    concave: str = "sqrt"
    entry_views = None  # each element's (ids, weights) views: its function's first scalar read

    def __post_init__(self):
        if len(self.clusters) != len(self.cluster_weights):
            raise InputError("clusters and cluster_weights must align")
        if not self.clusters:
            raise InputError("need at least one cluster")
        self.n = check_size(self.n, "ground set size")
        starts, members, weights = csr_from_rows(
            zip(self.clusters, self.cluster_weights), self.n, "cluster {}", "cluster weights"
        )
        # CSR over elements: a stable sort by element keeps each element's
        # clusters ascending
        by_element = stable_order(members, self.n)
        self.indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(members, minlength=self.n), out=self.indptr[1:])
        self.cluster_ids = np.repeat(np.arange(self.k, dtype=np.intp), np.diff(starts))[by_element]
        self.values = weights[by_element]
        self.psi = make_concave(self.concave)

    @property
    def k(self) -> int:
        return len(self.clusters)


class ClusteredConcaveModularFunction(_SparseLoadFunction):
    """f(X) = sum_c psi(m_c(X & C_c)); updating e touches only its clusters."""

    def __init__(self, data: ClusteredConcaveModularData):
        super().__init__(data, data.cluster_ids, data.k)


@dataclass
class DeepTwoLayerData:
    """Two-layer deep submodular function.

    f(X) = sum_{a} outer[a] * psi1( sum_{b} mix[a, b] * psi2(m_b(X)) )
    with inner modular scores m_b(j) >= 0 (``scores`` is inner-units x
    elements) and non-negative mixing/outer weights.
    """

    scores: np.ndarray
    mix: np.ndarray
    outer: np.ndarray
    concave_outer: str = "sqrt"
    concave_inner: str = "sqrt"

    def __post_init__(self):
        self.scores = real_array(self.scores, "deep function scores", 2, values="non-negative")
        self.mix = real_array(self.mix, "deep function mix", 2, values="non-negative")
        self.outer = real_array(self.outer, "deep function outer", 1, values="non-negative")
        if self.mix.shape != (self.outer.shape[0], self.scores.shape[0]):
            raise InputError(f"mix weights must be (outer x inner) = ({self.outer.shape[0]} x "
                             f"{self.scores.shape[0]}), got {self.mix.shape}")
        self.psi1 = make_concave(self.concave_outer)
        self.psi2 = make_concave(self.concave_inner)

    @property
    def n(self) -> int:
        return self.scores.shape[1]


class DeepTwoLayerFunction(SubmodularFunction):
    """Statistic: inner-unit loads m_b(X); gains re-run the O(F1*F2) head."""

    def __init__(self, data: DeepTwoLayerData):
        super().__init__(data.n)
        self.data = data
        self._load = np.zeros(data.scores.shape[0])
        self._value = None  # the head of the load, cached until the next move

    def _head(self, load: np.ndarray) -> float:
        d = self.data
        return float(np.dot(d.outer, d.psi1(d.mix @ d.psi2(load))))

    def _current_value(self) -> float:
        if self._value is None:
            self._value = self._head(self._load)
        return self._value

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        return self._head(self.data.scores[:, idx].sum(axis=1))

    def _gain_add(self, j):
        return self._head(self._load + self.data.scores[:, j]) - self._current_value()

    def _gain_remove(self, j):
        reduced = np.maximum(self._load - self.data.scores[:, j], 0.0)
        return self._current_value() - self._head(reduced)

    def _update(self, j):
        self._load += self.data.scores[:, j]
        self._value = None

    def _downdate(self, j):
        self._load = np.maximum(self._load - self.data.scores[:, j], 0.0)
        self._value = None

    def _rebuild(self, idx):
        self._load = self.data.scores[:, idx].sum(axis=1)
        self._value = None

    def _value_from_statistic(self):
        return 0.0 if len(self.memo) == 0 else self._current_value()

    def _statistic(self):
        return {"load": self._load}
