"""Benchmark harness: loaders, generators, brute force, PM/VO instances."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submemo.bench import (
    brute_force_max,
    brute_force_min,
    gen_synthetic,
    load_dense_matrix,
    load_set_system,
    load_sparse_triplets,
    save_dense_matrix,
    save_set_system,
    save_sparse_triplets,
)
from submemo.bench.runner import instance_for
from submemo.core import EvalCounters, InputError, ValueOracleFunction
from submemo.functions import (
    ClusteredSetCoverData,
    GraphCutData,
    ModularData,
    ProbabilisticSetCoverData,
    SetCoverData,
    make_function,
)
from submemo.maximize import Cardinality, Knapsack
from conftest import ALL_KINDS, zoo_instance


# ---------------------------------------------------------------------------
# dense matrix format
# ---------------------------------------------------------------------------


def test_dense_matrix_round_trip(tmp_path):
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    path = tmp_path / "m.csv"
    save_dense_matrix(path, m)
    assert path.read_text(encoding="utf-8").startswith("n=2\n")
    back = load_dense_matrix(path)
    assert np.array_equal(back, m)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_dense_matrix_round_trip_bit_exact(tmp_path_factory, values):
    m = np.asarray(values).reshape(2, 2)
    path = tmp_path_factory.mktemp("dense") / "m.csv"
    save_dense_matrix(path, m)
    assert np.array_equal(load_dense_matrix(path), m)


def test_dense_matrix_error_cases(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("2\n1,0\n0,1\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_dense_matrix(bad)
    bad.write_text("n=2\n1,0\n0\n", encoding="utf-8")  # ragged
    with pytest.raises(InputError):
        load_dense_matrix(bad)
    bad.write_text("n=2\n1,x\n0,1\n", encoding="utf-8")  # non-numeric
    with pytest.raises(InputError):
        load_dense_matrix(bad)
    bad.write_text("n=2\n1,inf\n0,1\n", encoding="utf-8")  # non-finite
    with pytest.raises(InputError):
        load_dense_matrix(bad)
    asym = tmp_path / "asym.csv"
    save_dense_matrix(asym, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InputError):
        GraphCutData(load_dense_matrix(asym))


# ---------------------------------------------------------------------------
# set systems
# ---------------------------------------------------------------------------


def test_set_system_round_trip(tmp_path):
    data = SetCoverData(sets=[[0, 1], [1, 2], [2]], universe=3)
    path = tmp_path / "sys.json"
    save_set_system(path, data)
    back = load_set_system(path)
    assert isinstance(back, SetCoverData)
    assert [back.item_slice(j).tolist() for j in range(3)] == [[0, 1], [1, 2], [2]]
    F = make_function(3, back)
    assert F.evaluate([0, 1]) == 3.0


@pytest.mark.parametrize("kind", ["probsetcover", "clustersetcover"])
def test_probabilistic_and_clustered_set_systems_round_trip(kind, tmp_path):
    data = gen_synthetic(kind, 9, seed=3)
    path = tmp_path / "sys.json"
    save_set_system(path, data)
    back = load_set_system(path)
    assert type(back) is type(data)
    F, G = make_function(9, data), make_function(9, back)
    rng = np.random.default_rng(3)
    for _ in range(8):
        X = sorted(rng.choice(9, size=int(rng.integers(10)), replace=False).tolist())
        assert G.evaluate(X) == F.evaluate(X), X


def test_set_system_class_selection(tmp_path):
    probs = tmp_path / "p.json"
    probs.write_text(
        json.dumps({"n": 2, "universe": 1, "weights": [1.0], "sets": [[], []], "probs": [[0.5, 0.5]]}),
        encoding="utf-8",
    )
    assert isinstance(load_set_system(probs), ProbabilisticSetCoverData)
    clustered = tmp_path / "c.json"
    clustered.write_text(
        json.dumps(
            {
                "n": 2,
                "universe": 3,
                "weights": [1.0, 1.0, 1.0],
                "sets": [[0, 1], [2]],
                "clusters": [[0, 2], [1]],
            }
        ),
        encoding="utf-8",
    )
    assert isinstance(load_set_system(clustered), ClusteredSetCoverData)


def test_set_system_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"n": 1, "universe": 2, "weights": [1.0, 1.0], "sets": [[5]]}),
        encoding="utf-8",
    )
    with pytest.raises(InputError):
        load_set_system(bad)
    bad.write_text(
        json.dumps(
            {
                "n": 1,
                "universe": 2,
                "weights": [1.0, 1.0],
                "sets": [[0]],
                "clusters": [[0, 7]],
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(InputError):
        load_set_system(bad)
    bad.write_text(json.dumps({"probs": [[0.5, 1.7]]}), encoding="utf-8")
    with pytest.raises(InputError):
        load_set_system(bad)
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(InputError):
        load_set_system(bad)


def test_triplet_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    trips = [(0, 0, 1.5), (2, 1, 0.25)]
    save_sparse_triplets(path, n=2, buckets=3, triplets=trips)
    n, buckets, back = load_sparse_triplets(path)
    assert (n, buckets) == (2, 3)
    assert back == trips


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_synthetic_determinism_and_validity(kind):
    a = gen_synthetic(kind, 12, seed=77)
    b = gen_synthetic(kind, 12, seed=77)
    Fa = make_function(12, a)
    Fb = make_function(12, b)
    probe = [0, 3, 7]
    assert Fa.evaluate(probe) == Fb.evaluate(probe)
    assert Fa.evaluate([]) == 0.0


def test_synthetic_large_instance_validates():
    data = gen_synthetic("faclocation", 1000, seed=1)
    F = make_function(1000, data)
    assert F.n == 1000
    assert float(data.similarity.min()) >= 0.0


def test_synthetic_gram_kernel_full_rank_no_ridge():
    data = gen_synthetic("logdet", 30, seed=2, params={"dim": 40})
    assert data.ridge == 0.0


def test_synthetic_unknown_kind():
    with pytest.raises(InputError):
        gen_synthetic("nope", 5, seed=0)


# ---------------------------------------------------------------------------
# brute force oracles
# ---------------------------------------------------------------------------


def test_brute_force_modular_answers(rng):
    w = np.array([3.0, -1.0, 2.0, 0.5])
    F = make_function(4, ModularData(w))
    sub, val = brute_force_max(F, Cardinality(2))
    assert sorted(sub.members) == [0, 2] and val == pytest.approx(5.0)
    sub, val = brute_force_min(F)
    assert sub.members == [1] and val == pytest.approx(-1.0)
    sub, val = brute_force_max(F, Knapsack((1.0, 1.0, 1.0, 1.0), 1.0))
    assert sub.members == [0]


def test_brute_force_two_node_cut():
    F = make_function(2, GraphCutData(np.array([[0.0, 1.0], [1.0, 0.0]]), lam=1.0))
    sub, val = brute_force_max(F, Cardinality(2))
    assert sub.members == [0] and val == pytest.approx(1.0)


def test_brute_force_cap():
    F = zoo_instance("modular", 21, seed=3)
    with pytest.raises(InputError):
        brute_force_max(F, Cardinality(2))


# ---------------------------------------------------------------------------
# PM/VO instances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["pm", "vo"])
def test_instance_for_is_fresh_and_leaves_the_base_alone(mode, monkeypatch):
    base = zoo_instance("faclocation", 12, seed=7)
    base.set_memo([1, 4, 6])
    counters, value = base.counters.copy(), base.memo_value()
    rebuilds = []
    rebuild = type(base)._rebuild
    monkeypatch.setattr(type(base), "_rebuild", lambda F, idx: rebuilds.append(1) or rebuild(F, idx))
    inst = instance_for(base, mode)
    assert rebuilds == []  # a spawned instance is already empty; nothing to rebuild
    assert isinstance(inst, ValueOracleFunction) == (mode == "vo")
    assert len(inst.memo) == 0 and inst.memo_value() == 0.0
    assert inst.counters == EvalCounters()
    assert base.memo.members == [1, 4, 6] and base.counters == counters
    assert base.memo_value() == value
