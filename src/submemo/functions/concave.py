"""Concave-over-modular classes: feature based, clustered, two-layer deep.

Score tables are stored CSR over elements (``scores[indptr[j]:indptr[j+1]]``
with matching feature ids), so a gain touches only the features element j
loads.  Feature-based and clustered concave-over-modular functions keep the
same statistic (per-bucket loads) and share every hook through
``_SparseLoadFunction``; they differ only in how their data fills the CSR
arrays.  Concave shapes come from a closed, serializable registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import InputError, SubmodularFunction
from .ragged import ragged_positions, ragged_runs, ragged_sum


class Concave:
    """Normalized (psi(0) = 0), non-decreasing concave scalar map.

    ``fn`` is the numpy function itself; hot loops call it directly and
    skip ``__call__``'s frame.
    """

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"Concave({self.name})"


def make_concave(name: str) -> Concave:
    """Registry lookup: 'sqrt', 'log1p', or 'pow:<p>' with p in (0, 1)."""
    if name == "sqrt":
        return Concave(name, np.sqrt)
    if name == "log1p":
        return Concave(name, np.log1p)
    if name.startswith("pow:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad concave spec {name!r}") from None
        if not 0.0 < p < 1.0:
            raise InputError(f"power exponent must lie in (0, 1), got {p}")
        return Concave(name, lambda x, _p=p: np.power(x, _p))
    raise InputError(f"unknown concave shape {name!r} (use sqrt, log1p, pow:<p>)")


def _to_csr(score_lists, n: int, num_buckets: int, what: str):
    """Normalize per-element (bucket_ids, values) pairs into flat CSR arrays."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    id_chunks, val_chunks = [], []
    for j, (ids, vals) in enumerate(score_lists):
        ids = np.asarray(ids, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        if ids.shape != vals.shape or ids.ndim != 1:
            raise InputError(f"{what}: element {j} has mismatched id/value arrays")
        if ids.size and (ids.min() < 0 or ids.max() >= num_buckets):
            raise InputError(f"{what}: element {j} references an id out of range")
        if len(np.unique(ids)) != ids.size:
            raise InputError(f"{what}: element {j} lists an id twice")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise InputError(f"{what}: scores must be finite and non-negative")
        id_chunks.append(ids)
        val_chunks.append(vals)
        indptr[j + 1] = indptr[j] + ids.size
    ids = np.concatenate(id_chunks) if id_chunks else np.zeros(0, dtype=np.intp)
    vals = np.concatenate(val_chunks) if val_chunks else np.zeros(0)
    return indptr, ids, vals


def _dense_to_lists(matrix: np.ndarray):
    """Columns of a (buckets x elements) matrix as sparse per-element pairs."""
    out = []
    for j in range(matrix.shape[1]):
        col = matrix[:, j]
        nz = np.flatnonzero(col)
        out.append((nz, col[nz]))
    return out


class _SparseLoadFunction(SubmodularFunction):
    """f(X) = sum_b psi(p[b]) with statistic p[b] = total score of bucket b over the memo.

    Built from a data object that carries CSR ``indptr`` and ``values`` and a
    concave ``psi``; each subclass passes the bucket ids and bucket count
    under the names its data uses.  The scalar hooks slice the CSR arrays
    with ``_ptr``, ``indptr`` as a Python list, and sum with
    ``np.add.reduce``, the reduction ``ndarray.sum`` runs, without its
    Python frame: an entry holds a few values (8 in the benchmark's
    feature-based instance), so the Python around a read costs more than
    its numpy work.
    """

    def __init__(self, data, ids: np.ndarray, num_buckets: int):
        super().__init__(data.n)
        self.data = data
        self.num_buckets = num_buckets
        self._indptr = data.indptr
        self._ptr = data.indptr.tolist()
        self._ids = ids
        self._vals = data.values
        self._psi = data.psi.fn
        self._load = np.zeros(num_buckets)

    def _entry(self, j: int):
        lo, hi = self._ptr[j], self._ptr[j + 1]
        return self._ids[lo:hi], self._vals[lo:hi]

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
        ids, vals = self._entry(j)
        p = self._load[ids]
        psi = self._psi
        return float(np.add.reduce(psi(p + vals) - psi(p)))

    def _gains_add(self, idx):
        pos, lens = ragged_positions(self._indptr, idx)
        p = self._load[self._ids[pos]]
        return ragged_sum(self._psi(p + self._vals[pos]) - self._psi(p), lens)

    def _chain(self, order):
        # every bucket's load runs through its entries in chain order
        pos, lens = ragged_positions(self._indptr, order)
        ids, vals = self._ids[pos], self._vals[pos]
        by_bucket = np.argsort(ids, kind="stable")
        before, self._load = ragged_runs(vals[by_bucket], np.bincount(ids, minlength=self.num_buckets))
        p = np.empty(pos.size)
        p[by_bucket] = before
        return ragged_sum(self._psi(p + vals) - self._psi(p), lens)

    def _gain_remove(self, j):
        ids, vals = self._entry(j)
        p = self._load[ids]
        psi = self._psi
        return float(np.add.reduce(psi(p) - psi(np.maximum(p - vals, 0.0))))

    def _update(self, j):
        ids, vals = self._entry(j)
        self._load[ids] += vals

    def _downdate(self, j):
        ids, vals = self._entry(j)
        self._load[ids] = np.maximum(self._load[ids] - vals, 0.0)

    def _rebuild(self, idx):
        self._load = self._accumulate(idx)

    def _value_from_statistic(self):
        return float(self._psi(self._load).sum())

    def _statistic(self):
        return {"load": self._load}

    def _spawn(self):
        return type(self)(self.data)


@dataclass
class FeatureBasedData:
    """Sparse non-negative feature scores with a concave accumulator.

    ``scores`` is either a dense (features x elements) matrix or a list of
    per-element ``(feature_ids, values)`` pairs (then ``num_features`` is
    required).
    """

    scores: object
    concave: str = "sqrt"
    num_features: int | None = None
    indptr: np.ndarray = field(init=False, repr=False)
    feature_ids: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.scores, np.ndarray) or (
            hasattr(self.scores, "ndim") and getattr(self.scores, "ndim", 0) == 2
        ):
            m = np.asarray(self.scores, dtype=float)
            if np.any(m < 0) or not np.all(np.isfinite(m)):
                raise InputError("feature scores must be finite and non-negative")
            self.num_features = m.shape[0]
            lists = _dense_to_lists(m)
        else:
            if self.num_features is None:
                raise InputError("sparse feature scores need num_features")
            lists = list(self.scores)
        self.n_elements = len(lists)
        self.indptr, self.feature_ids, self.values = _to_csr(
            lists, self.n_elements, self.num_features, "feature scores"
        )
        self.psi = make_concave(self.concave)

    @property
    def n(self) -> int:
        return self.n_elements


class FeatureBasedFunction(_SparseLoadFunction):
    """f(X) = sum_e psi(m_e(X)) over feature loads m_e."""

    name = "feature-based"

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

    def __post_init__(self):
        if len(self.clusters) != len(self.cluster_weights):
            raise InputError("clusters and cluster_weights must align")
        if not self.clusters:
            raise InputError("need at least one cluster")
        per_element = [[] for _ in range(self.n)]
        for c, (cl, w) in enumerate(zip(self.clusters, self.cluster_weights)):
            cl = np.asarray(cl, dtype=np.intp)
            w = np.asarray(w, dtype=float)
            if cl.shape != w.shape:
                raise InputError(f"cluster {c}: ids and weights have different lengths")
            if cl.size and (cl.min() < 0 or cl.max() >= self.n):
                raise InputError(f"cluster {c} references an element out of range")
            if len(np.unique(cl)) != cl.size:
                raise InputError(f"cluster {c} lists an element twice")
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise InputError("cluster weights must be finite and non-negative")
            for e, we in zip(cl, w):
                per_element[e].append((c, we))
        lists = [
            (np.asarray([c for c, _ in entry], dtype=np.intp), np.asarray([w for _, w in entry]))
            for entry in per_element
        ]
        self.indptr, self.cluster_ids, self.values = _to_csr(
            lists, self.n, len(self.clusters), "cluster weights"
        )
        self.psi = make_concave(self.concave)

    @property
    def k(self) -> int:
        return len(self.clusters)


class ClusteredConcaveModularFunction(_SparseLoadFunction):
    """f(X) = sum_c psi(m_c(X & C_c)); updating e touches only its clusters."""

    name = "clustered-concave-modular"

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
        self.scores = np.asarray(self.scores, dtype=float)
        self.mix = np.asarray(self.mix, dtype=float)
        self.outer = np.asarray(self.outer, dtype=float)
        if self.scores.ndim != 2 or self.mix.ndim != 2 or self.outer.ndim != 1:
            raise InputError("deep function needs 2-d scores, 2-d mix, 1-d outer weights")
        if self.mix.shape != (self.outer.shape[0], self.scores.shape[0]):
            raise InputError(
                f"mix weights must be (outer x inner) = "
                f"({self.outer.shape[0]} x {self.scores.shape[0]}), got {self.mix.shape}"
            )
        for arr, what in ((self.scores, "scores"), (self.mix, "mix"), (self.outer, "outer")):
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise InputError(f"deep function {what} must be finite and non-negative")
        self.psi1 = make_concave(self.concave_outer)
        self.psi2 = make_concave(self.concave_inner)

    @property
    def n(self) -> int:
        return self.scores.shape[1]


class DeepTwoLayerFunction(SubmodularFunction):
    """Statistic: inner-unit loads m_b(X); gains re-run the O(F1*F2) head."""

    name = "deep-two-layer"

    def __init__(self, data: DeepTwoLayerData):
        super().__init__(data.n)
        self.data = data
        self._load = np.zeros(data.scores.shape[0])
        self._head_version = -1
        self._version = 0
        self._head_value = 0.0

    def _head(self, load: np.ndarray) -> float:
        d = self.data
        return float(np.dot(d.outer, d.psi1(d.mix @ d.psi2(load))))

    def _current_value(self) -> float:
        if self._head_version != self._version:
            self._head_value = self._head(self._load)
            self._head_version = self._version
        return self._head_value

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
        self._version += 1

    def _downdate(self, j):
        self._load = np.maximum(self._load - self.data.scores[:, j], 0.0)
        self._version += 1

    def _rebuild(self, idx):
        self._load = (
            self.data.scores[:, idx].sum(axis=1) if idx.size else np.zeros(self.data.scores.shape[0])
        )
        self._version += 1

    def _value_from_statistic(self):
        return 0.0 if len(self.memo) == 0 else self._current_value()

    def _statistic(self):
        return {"load": self._load}

    def _spawn(self):
        return DeepTwoLayerFunction(self.data)
