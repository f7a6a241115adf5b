"""The per-element view lists that the scalar hooks index: made by the first
scalar read, never at set-up, once per data object, and shared by every
instance over that data."""

import numpy as np
import pytest

from submemo.bench import gen_synthetic
from submemo.core import wrap_value_oracle
from submemo.functions import (
    ClusteredConcaveModularData,
    ClusteredSetCoverData,
    FacilityLocationData,
    FeatureBasedData,
    MixtureData,
    ModularPenaltyData,
    SetCoverData,
    make_function,
)
from submemo.functions import concave, coverage

N = 40

# data class -> the attribute that keeps its view list
VIEWS = {
    FacilityLocationData: "_col_views",
    FeatureBasedData: "entry_views",
    ClusteredConcaveModularData: "entry_views",
    SetCoverData: "_item_views",
}
KINDS = ("faclocation", "featurebased", "clusterconcave", "setcover", "clustersetcover")


def _holder(data):
    """The data object that keeps the view list: a clustered set cover's base."""
    return data.base if isinstance(data, ClusteredSetCoverData) else data


def _views(data):
    holder = _holder(data)
    return vars(holder).get(VIEWS[type(holder)])


def _forms(data):
    """Plain, penalised and a two-component mixture over one data object."""
    return {
        "plain": make_function(N, data),
        "penalised": make_function(N, ModularPenaltyData(data, np.full(N, 0.1))),
        "mixture": make_function(N, MixtureData([(1.0, data), (0.5, data)])),
    }


@pytest.fixture
def built(monkeypatch):
    """Counts the lists that ``row_views`` makes, in both modules that call it."""
    calls = []
    for module in (concave, coverage):
        real = module.row_views

        def counted(indptr, values, _real=real):
            calls.append(values)
            return _real(indptr, values)

        monkeypatch.setattr(module, "row_views", counted)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_set_up_builds_no_view_list(kind, built):
    data = gen_synthetic(kind, N, seed=3)
    for F in _forms(data).values():
        assert _views(data) is None
        F.set_memo([0, 1, 2])
        F.gains_add(range(3, N))  # batched reads read the CSR arrays
        assert _views(data) is None
    assert built == []


@pytest.mark.parametrize("kind", KINDS)
def test_the_first_scalar_read_builds_one_list_that_every_instance_shares(kind, built):
    data = gen_synthetic(kind, N, seed=4)
    F = make_function(N, data)
    want = F.gains_add(range(N)).tolist()  # bitwise the scalar hook, read off the CSR arrays
    assert _views(data) is None
    assert F.gain_add(5) == want[5]
    views = _views(data)
    assert isinstance(views, list) and len(views) == N
    # a sparse-load list pairs the views of two CSR arrays
    assert len(built) == {"faclocation": 0, "featurebased": 2, "clusterconcave": 2}.get(kind, 1)
    count = len(built)
    spawn, clone = F._spawn(), F.clone_detached()
    vo = wrap_value_oracle(F)
    forms = _forms(data)
    readers = [F, spawn, clone, vo._inner, forms["plain"], forms["penalised"].components[0][1],
               *(G for _, G in forms["mixture"].components)]
    for G in readers:  # every scalar hook that reads the list
        G.set_memo([1, 2])
        G.update(3)
        G.gain_remove(2)
        G.downdate(2)
        G.sweep(np.arange(N))  # facility location's chain reads it too
        G.set_memo([])
        assert [G.gain_add(j) for j in range(N)] == want
    for G in (forms["penalised"], forms["mixture"]):
        G.gain_add(0)
    assert _views(data) is views
    assert len(built) == count
    for G in readers:
        for name in ("_cols", "_entries"):
            if hasattr(G, name):
                assert getattr(G, name) is views


@pytest.mark.parametrize("kind", KINDS)
def test_the_views_are_the_csr_rows(kind):
    data = gen_synthetic(kind, N, seed=5)
    F = make_function(N, data)
    F.gain_add(0)
    holder = _holder(data)
    views = _views(data)
    if isinstance(holder, FacilityLocationData):
        for j, view in enumerate(views):
            assert np.shares_memory(view, holder.cols) and np.array_equal(view, holder.cols[j])
        return
    ptr = holder.indptr
    if isinstance(holder, SetCoverData):
        arrays, views = (holder.items,), [(view,) for view in views]
    else:
        ids = holder.feature_ids if isinstance(holder, FeatureBasedData) else holder.cluster_ids
        arrays = (ids, holder.values)
    for j, got in enumerate(views):
        for view, whole in zip(got, arrays, strict=True):
            assert np.shares_memory(view, whole) or view.size == 0
            assert view.tobytes() == whole[ptr[j]:ptr[j + 1]].tobytes()
