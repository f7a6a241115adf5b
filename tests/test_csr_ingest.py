"""The whole-array CSR ingest of feature-based, clustered concave and set-cover
data against the per-element loops it replaced.

The oracles below are those loops, kept verbatim.  For valid input the new
constructors must give the same arrays bit for bit, with the same dtypes;
for faulty input the same error, with the same message: the first faulting
element in input order, and that element's first failing check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submemo.core import InputError
from submemo.functions import ClusteredConcaveModularData, FeatureBasedData, SetCoverData


# --- oracles: the per-element loops, as they were -------------------------

def _to_csr(score_lists, n: int, num_buckets: int, what: str):
    """Normalize per-element (bucket_ids, values) pairs into flat CSR arrays."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    id_chunks, val_chunks = [], []
    for j, (ids, vals) in enumerate(score_lists):
        ids = np.asarray(ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise InputError(f"{what}: element {j} has non-integer ids")
        ids = ids.astype(np.intp, copy=False)
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


def old_feature_based(scores, num_features=None):
    if isinstance(scores, np.ndarray):
        m = np.asarray(scores, dtype=float)
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise InputError("feature scores must be finite and non-negative")
        num_features = m.shape[0]
        lists = _dense_to_lists(m)
    else:
        lists = list(scores)
    return _to_csr(lists, len(lists), num_features, "feature scores")


def old_clustered(clusters, cluster_weights, n):
    if len(clusters) != len(cluster_weights):
        raise InputError("clusters and cluster_weights must align")
    if not clusters:
        raise InputError("need at least one cluster")
    per_element = [[] for _ in range(n)]
    for c, (cl, w) in enumerate(zip(clusters, cluster_weights)):
        cl = np.asarray(cl)
        if cl.size and cl.dtype.kind not in "iu":
            raise InputError(f"cluster {c} lists a non-integer element")
        cl = cl.astype(np.intp, copy=False)
        w = np.asarray(w, dtype=float)
        if cl.shape != w.shape:
            raise InputError(f"cluster {c}: ids and weights have different lengths")
        if cl.size and (cl.min() < 0 or cl.max() >= n):
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
    return _to_csr(lists, n, len(clusters), "cluster weights")


def old_flatten_sets(sets, universe: int):
    indptr = np.zeros(len(sets) + 1, dtype=np.intp)
    chunks = []
    for j, s in enumerate(sets):
        arr = s if isinstance(s, np.ndarray) else np.asarray(list(s))  # one read of an iterator
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise InputError(f"set of element {j} must list integer items")
        arr = np.sort(arr.astype(np.intp, copy=False))
        if np.any(arr[1:] == arr[:-1]):
            raise InputError(f"set of element {j} contains duplicate items")
        if arr.size and (arr[0] < 0 or arr[-1] >= universe):
            raise InputError(f"set of element {j} references items outside the universe")
        chunks.append(arr)
        indptr[j + 1] = indptr[j] + arr.size
    items = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.intp)
    return indptr, items


# --- comparison -----------------------------------------------------------

def outcome(build):
    """("ok", (dtype, shape, bytes) per array) or ("error", type, message)."""
    try:
        arrays = build()
    except Exception as err:  # raw errors must match too
        return ("error", type(err), str(err))
    return ("ok", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def assert_same(old, new):
    assert outcome(new) == outcome(old)


def new_feature_based(scores, num_features=None):
    d = FeatureBasedData(scores, num_features=num_features)
    return d.indptr, d.feature_ids, d.values


def new_clustered(clusters, weights, n):
    d = ClusteredConcaveModularData(clusters, weights, n)
    return d.indptr, d.cluster_ids, d.values


def new_set_cover(sets, universe):
    d = SetCoverData(sets, universe)
    return d.indptr, d.items


# --- inputs ---------------------------------------------------------------

ID_KINDS = ("list", "tuple", "int32", "uint64", "int64")
SET_KINDS = ID_KINDS + ("iter",)
VALUES = st.one_of(st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=True),
                   st.sampled_from([0.0, -0.0, 5e-324, 1.0]))


def made(ids, kind):
    """``ids`` as the container ``kind``; negative ids are never uint64."""
    if kind == "list":
        return list(ids)
    if kind == "tuple":
        return tuple(ids)
    if kind == "iter":
        return iter(list(ids))
    if kind == "uint64" and any(not isinstance(i, int) or i < 0 for i in ids):
        kind = "int64"
    return np.asarray(ids, dtype=kind)


@st.composite
def rows(draw, bound, max_rows):
    """Per row: distinct ids in [0, bound), in sorted, reversed or drawn order."""
    out = []
    for _ in range(draw(st.integers(0, max_rows))):
        size = draw(st.integers(0, min(bound, 6)))
        ids = draw(st.lists(st.integers(0, bound - 1), min_size=size, max_size=size, unique=True))
        order = draw(st.sampled_from(("sorted", "reversed", "drawn")))
        if order != "drawn":
            ids.sort(reverse=order == "reversed")
        out.append(ids)
    return out


ID_FAULTS = ("range-high", "range-negative", "twice", "non-integer")
VALUE_FAULTS = ("negative", "nan", "inf", "mismatch", "not-a-number")


def with_faults(draw, id_rows, value_rows, bound, kinds):
    """Put one to three faults into the rows, two or more into one row at times."""
    if not id_rows:
        return
    faulty = draw(st.lists(st.integers(0, len(id_rows) - 1), min_size=1, max_size=3))
    for r in faulty:
        fault = draw(st.sampled_from(kinds))
        ids = id_rows[r]
        vals = value_rows[r] if value_rows is not None else None
        at = draw(st.integers(0, len(ids)))
        extra = []
        if fault == "range-high":
            extra = [bound + draw(st.integers(0, 3))]
        elif fault == "range-negative":
            extra = [-1 - draw(st.integers(0, 3))]
        elif fault == "twice":
            extra = [draw(st.sampled_from(ids))] if ids else [0, 0]
        elif fault == "non-integer":
            extra = [0.5]
        ids[at:at] = extra
        if vals is not None:
            vals[at:at] = [1.0] * len(extra)
        if fault in VALUE_FAULTS:
            if not vals:
                ids.append(0)
                vals.append(1.0)
            spot = draw(st.integers(0, len(vals) - 1))
            if fault == "mismatch":
                vals.pop(spot)
            else:
                vals[spot] = {"negative": -1.0, "nan": np.nan, "inf": np.inf,
                              "not-a-number": "x"}[fault]


@st.composite
def feature_lists(draw, faults):
    bound = draw(st.integers(1, 10))
    id_rows = draw(rows(bound, 8))
    value_rows = [draw(st.lists(VALUES, min_size=len(ids), max_size=len(ids))) for ids in id_rows]
    if faults:
        with_faults(draw, id_rows, value_rows, bound, ID_FAULTS + VALUE_FAULTS)
    kinds = [draw(st.sampled_from(ID_KINDS)) for _ in id_rows]
    value_kinds = [draw(st.sampled_from(("list", "float64", "float32"))) for _ in id_rows]

    def scores():
        out = []
        for ids, kind, vals, vkind in zip(id_rows, kinds, value_rows, value_kinds):
            if any(isinstance(i, float) for i in ids):
                kind = "list"
            if vkind != "list" and all(isinstance(v, float) for v in vals):
                vals = np.asarray(vals, dtype=vkind)
            out.append((made(ids, kind), vals))
        return out

    return scores, bound


@given(feature_lists(faults=False))
@settings(max_examples=150, deadline=None)
def test_feature_lists_give_the_same_arrays(case):
    scores, bound = case
    assert outcome(lambda: new_feature_based(scores(), bound))[0] == "ok"
    assert_same(lambda: old_feature_based(scores(), bound), lambda: new_feature_based(scores(), bound))


@given(feature_lists(faults=True))
@settings(max_examples=300, deadline=None)
def test_faulty_feature_lists_give_the_same_error(case):
    scores, bound = case
    assert_same(lambda: old_feature_based(scores(), bound), lambda: new_feature_based(scores(), bound))


@given(st.integers(0, 6), st.integers(0, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_dense_features_give_the_same_arrays(features, n, data):
    cells = st.one_of(st.just(0.0), st.just(-0.0), VALUES, st.sampled_from([-1.0, np.nan, np.inf]))
    flat = data.draw(st.lists(cells, min_size=features * n, max_size=features * n))
    m = np.asarray(flat, dtype=float).reshape(features, n)
    zero_columns = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))
    if n:
        m[:, zero_columns] = 0.0
    assert_same(lambda: old_feature_based(m), lambda: new_feature_based(m))


@st.composite
def clusters(draw, faults):
    n = draw(st.integers(1, 8))
    members = draw(rows(n, 5).filter(bool))
    weights = [draw(st.lists(VALUES, min_size=len(c), max_size=len(c))) for c in members]
    if faults:
        with_faults(draw, members, weights, n, ID_FAULTS + VALUE_FAULTS)
    kinds = [draw(st.sampled_from(ID_KINDS)) for _ in members]

    def built():
        return [made(c, "list" if any(isinstance(i, float) for i in c) else kind)
                for c, kind in zip(members, kinds)], weights

    return built, n


@given(clusters(faults=False))
@settings(max_examples=150, deadline=None)
def test_overlapping_clusters_give_the_same_arrays(case):
    built, n = case
    assert outcome(lambda: new_clustered(*built(), n))[0] == "ok"
    assert_same(lambda: old_clustered(*built(), n), lambda: new_clustered(*built(), n))


@given(clusters(faults=True))
@settings(max_examples=300, deadline=None)
def test_faulty_clusters_give_the_same_error(case):
    built, n = case
    assert_same(lambda: old_clustered(*built(), n), lambda: new_clustered(*built(), n))


@st.composite
def set_systems(draw, faults):
    universe = draw(st.integers(1, 12))
    sets = draw(rows(universe, 8))
    if faults:
        with_faults(draw, sets, None, universe, ID_FAULTS)
    kinds = [draw(st.sampled_from(SET_KINDS)) for _ in sets]

    def built():
        return [made(s, "list" if any(isinstance(i, float) for i in s) else kind)
                for s, kind in zip(sets, kinds)]

    return built, universe


@given(set_systems(faults=False))
@settings(max_examples=150, deadline=None)
def test_set_systems_give_the_same_arrays(case):
    built, universe = case
    assert outcome(lambda: new_set_cover(built(), universe))[0] == "ok"
    assert_same(lambda: old_flatten_sets(built(), universe), lambda: new_set_cover(built(), universe))


@given(set_systems(faults=True))
@settings(max_examples=300, deadline=None)
def test_faulty_set_systems_give_the_same_error(case):
    built, universe = case
    assert_same(lambda: old_flatten_sets(built(), universe), lambda: new_set_cover(built(), universe))


# --- hand-made cases --------------------------------------------------------

def test_an_earlier_fault_reports_before_a_later_raw_error():
    rows_ = [([5], [1.0]), ([0], ["x"])]
    with pytest.raises(InputError, match="element 0 references an id out of range"):
        FeatureBasedData(rows_, num_features=2)
    assert_same(lambda: old_feature_based([([0], [1.0]), ([0], ["x"])], 2),
                lambda: new_feature_based([([0], [1.0]), ([0], ["x"])], 2))


@pytest.mark.parametrize("twice", [False, True])
def test_ids_too_large_for_a_row_key_are_ranked(twice):
    big = 2**62
    lists = [([big + 3, 1], [1.0, 2.0]), ([big + 3, big + 3 if twice else 0], [1.0, 1.0]), ([], [])]
    got = outcome(lambda: new_feature_based(lists, big + 10))
    assert got == outcome(lambda: old_feature_based(lists, big + 10))
    assert got[0] == ("error" if twice else "ok")


@pytest.mark.parametrize("sets", [
    [[3, 1], [2**62, -(2**62), 2**62]],  # a duplicate, then the range
    [[3, 1], [2**62, -(2**62), 0]],
    [[1, 0], np.array([2**64 - 1, 2**63, 1], dtype=np.uint64)],  # ids wrap when cast to intp
], ids=["twice", "range", "wrapped"])
def test_items_too_far_apart_for_a_row_key_are_ranked(sets):
    got = outcome(lambda: new_set_cover(sets, 4))
    assert got == outcome(lambda: old_flatten_sets(sets, 4))
    assert got[0] == "error"


@pytest.mark.parametrize("lengths", ["mixed", "one"])
def test_unsorted_sets_are_sorted_within_each_set(lengths):
    # reversed, shuffled and already sorted sets; the mixed lengths include
    # empty sets, and the one-length system takes the single-block path
    rng = np.random.default_rng(11)
    universe = 60
    sizes = rng.integers(0, 14, size=50) if lengths == "mixed" else np.full(50, 6)
    sets = []
    for r, size in enumerate(sizes.tolist()):
        s = rng.choice(universe, size=size, replace=False)
        sets.append((s[::-1], rng.permutation(s), np.sort(s))[r % 3])
    assert (sizes == 0).any() == (lengths == "mixed")
    d = SetCoverData(sets, universe)
    assert d.items.tolist() == np.concatenate([np.sort(s) for s in sets]).tolist()
    assert np.diff(d.indptr).tolist() == sizes.tolist()


@pytest.mark.parametrize("sets, bad", [
    ([[0, 1], [5, 4, 3], [2, 9, 2, 7, 1], [8, 8]], 2),  # a longer set faults first
    ([[0, 1], [5, 4, 4], [2, 9, 2, 7, 1], [8, 8]], 1),
    ([[2, 1, 0], [9, 8, 7], [3, 3, 5], [6, 6, 0]], 2),  # one length
])
def test_a_duplicate_names_the_first_bad_set(sets, bad):
    with pytest.raises(InputError, match=f"set of element {bad} contains duplicate items"):
        SetCoverData(sets, 10)
    assert_same(lambda: old_flatten_sets(sets, 10), lambda: new_set_cover(sets, 10))


def test_cluster_that_is_not_a_list_of_ids_is_refused():
    with pytest.raises(InputError, match="cluster 1 lists a non-integer element"):
        ClusteredConcaveModularData([[0], [[0, 1]]], [[1.0], [[1.0, 1.0]]], n=2)
