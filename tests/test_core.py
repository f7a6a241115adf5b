"""Core contract: subsets, counters, modular functions, the VO wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submemo.core import (
    EvalCounters,
    InputError,
    ModularFunction,
    PreconditionError,
    Subset,
    SubmodularFunction,
    ValueOracleFunction,
    as_subset,
    wrap_value_oracle,
)
from submemo.functions import ModularPenaltyData, make_function
from conftest import zoo_instance


@given(st.lists(st.integers(min_value=0, max_value=19), unique=True), st.integers(0, 19))
@settings(max_examples=60, deadline=None)
def test_subset_members_mask_consistency(members, probe):
    sub = Subset(20, members)
    assert sorted(sub.members) == sorted(members)
    assert sub.mask.sum() == len(members)
    assert (probe in sub) == (probe in members)
    if probe in sub:
        sub.remove(probe)
        assert probe not in sub and len(sub) == len(members) - 1
    else:
        sub.add(probe)
        assert probe in sub and len(sub) == len(members) + 1
    assert sub.mask.sum() == len(sub.members)


def test_subset_errors():
    sub = Subset(4, [1, 2])
    with pytest.raises(PreconditionError):
        sub.add(1)
    with pytest.raises(PreconditionError):
        sub.remove(3)
    with pytest.raises(InputError):
        sub.add(4)
    with pytest.raises(InputError):
        Subset(3, [0, 0])
    with pytest.raises(InputError):
        as_subset(3, Subset(4, [0]))


def test_subset_membership_of_a_non_id_is_false():
    sub = Subset(4, [1, 2])
    for probe in (1.5, 1.0, "x", None, -1, 4, (1,)):
        assert probe not in sub
    assert np.int64(2) in sub and True in sub  # integer ids, as a set sees them


def test_modular_function_value_checks_ids():
    m = ModularFunction(0.5, np.array([1.0, 2.0, 4.0]))
    assert m.value([0, 2]) == 5.5
    assert m.value(Subset(3, [1])) == 2.5
    for bad in ([1.7], [0, 0], [3], [-1], ["a"]):
        with pytest.raises(InputError):
            m.value(bad)
    with pytest.raises(InputError):
        m.value(Subset(4, [0]))


def test_counters_arithmetic():
    a = EvalCounters(oracle_evals=2, gain_evals=5)
    b = EvalCounters(gain_evals=1, memo_updates=3)
    s = a + b
    assert s.oracle_evals == 2 and s.gain_evals == 6 and s.memo_updates == 3
    d = s - a
    assert d.gain_evals == 1 and d.memo_updates == 3
    c = s.copy()
    c.reset()
    assert c.as_dict() == EvalCounters().as_dict()
    assert s.gain_evals == 6  # copy detached


@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=12),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_modular_function_value(weights, offset):
    m = ModularFunction(offset, np.asarray(weights))
    n = len(weights)
    members = list(range(0, n, 2))
    assert m.value(members) == pytest.approx(offset + sum(weights[j] for j in members))
    x = np.ones(n)
    assert m.dot(x) == pytest.approx(sum(weights))


def test_evaluate_and_gain_preconditions():
    F = zoo_instance("faclocation", 6, seed=1)
    F.set_memo([0, 2])
    with pytest.raises(PreconditionError):
        F.gain_add(0)
    with pytest.raises(PreconditionError):
        F.gain_remove(1)
    with pytest.raises(InputError):
        F.gain_add(17)
    with pytest.raises(InputError):
        F.evaluate([0, 99])
    with pytest.raises(PreconditionError):
        F.update(2)
    with pytest.raises(PreconditionError):
        F.downdate(3)


def test_gains_are_read_only_and_counted():
    F = zoo_instance("satcov", 8, seed=2)
    F.set_memo([1, 4])
    before = F._statistic()["rowsum"].copy()
    base = F.counters.copy()
    F.gain_add(0)
    F.gain_remove(4)
    F.gain_singleton(6)
    delta = F.counters - base
    assert delta.gain_evals == 3
    assert delta.oracle_evals == 0 and delta.memo_updates == 0
    assert np.array_equal(F._statistic()["rowsum"], before)
    assert F.memo.members == [1, 4]


def test_update_downdate_telescoping_identity():
    F = zoo_instance("probsetcover", 10, seed=3)
    F.set_memo([2, 5, 7])
    g = F.gain_add(4)
    F.update(4)
    assert F.gain_remove(4) == pytest.approx(g, rel=1e-9, abs=1e-12)
    F.downdate(4)
    assert F.memo.members == [2, 5, 7]


def test_memo_value_tracks_evaluate():
    for kind in ("faclocation", "graphcut", "logdet", "dispminsum"):
        F = zoo_instance(kind, 9, seed=4)
        F.set_memo([0, 3, 6, 8])
        assert F.memo_value() == pytest.approx(F.evaluate([0, 3, 6, 8]), rel=1e-9, abs=1e-9)


def test_empty_set_normalization_all_classes():
    from conftest import ALL_KINDS

    for kind in ALL_KINDS:
        F = zoo_instance(kind, 7, seed=5)
        assert F.evaluate([]) == 0.0, kind
        F.set_memo([])
        assert F.memo_value() == 0.0, kind


def test_clone_detached_independence():
    F = zoo_instance("setcover", 8, seed=6)
    F.set_memo([1, 2])
    clone = F.clone_detached()
    assert clone.gain_add(5) == pytest.approx(F.gain_add(5))
    clone.update(5)
    assert F.memo.members == [1, 2]
    assert clone.memo.members == [1, 2, 5]
    assert clone.counters.memo_updates == 1
    # two clones driven with disjoint sequences match independent builds
    a, b = F.clone_detached(), F.clone_detached()
    a.set_memo([0, 3])
    b.set_memo([4, 7])
    fresh_a, fresh_b = zoo_instance("setcover", 8, seed=6), zoo_instance("setcover", 8, seed=6)
    fresh_a.set_memo([0, 3])
    fresh_b.set_memo([4, 7])
    for j in (5, 6):
        assert a.gain_add(j) == pytest.approx(fresh_a.gain_add(j))
        assert b.gain_add(j) == pytest.approx(fresh_b.gain_add(j))


def test_value_oracle_wrapper_gain_parity_and_counters(rng):
    for kind in ("faclocation", "featurebased", "logdet"):
        F = zoo_instance(kind, 12, seed=7)
        X = [1, 4, 9]
        F.set_memo(X)
        vo = wrap_value_oracle(F)
        base = vo.counters.copy()
        for j in (0, 2, 6):
            assert vo.gain_add(j) == pytest.approx(F.gain_add(j), rel=1e-9, abs=1e-9)
        delta = vo.counters - base
        assert delta.gain_evals == 0
        assert delta.oracle_evals == 3  # one fresh eval per gain, f(X) cached


def test_value_oracle_sweep_costs_one_eval_per_gain():
    F = zoo_instance("satcov", 15, seed=8)
    F.set_memo([3, 7, 11])
    vo = wrap_value_oracle(F)
    base = vo.counters.copy()
    outside = [j for j in range(15) if j not in (3, 7, 11)]
    for j in outside:
        vo.gain_add(j)
    delta = vo.counters - base
    assert delta.oracle_evals == len(outside)
    assert delta.gain_evals == 0


def test_value_oracle_pending_accept_costs_nothing_extra():
    F = zoo_instance("graphcut", 10, seed=9)
    vo = wrap_value_oracle(F)
    vo.set_memo([])
    base = vo.counters.copy()
    g = vo.gain_add(4)
    vo.update(4)  # consumes the pending evaluation
    delta = vo.counters - base
    assert delta.oracle_evals == 1
    assert vo.memo_value() == pytest.approx(g)


def test_value_oracle_hooks_drive_a_penalised_wrapper():
    # the penalty mixture reaches its value-oracle component through the
    # hooks: answers match the statistic's, the component shares the
    # mixture's memo, and its oracle calls land in the mixture's counters
    F = zoo_instance("faclocation", 10, seed=11)
    w = np.linspace(0.0, 0.9, 10)
    pm = make_function(10, ModularPenaltyData(F.clone_detached(), w))
    vo = make_function(10, ModularPenaltyData(wrap_value_oracle(F.clone_detached()), w))
    for P in (pm, vo):
        P.set_memo([1, 5])
    base = vo.counters.copy()
    assert vo.gain_add(3) == pytest.approx(pm.gain_add(3), rel=1e-12)
    vo.update(3)  # accepts the pending probe: no second oracle call
    pm.update(3)
    assert vo.gain_remove(5) == pytest.approx(pm.gain_remove(5), rel=1e-12)
    assert vo.gain_singleton(7) == pytest.approx(pm.gain_singleton(7), rel=1e-12)
    vo.downdate(1)  # not the pending move: one fresh oracle call
    pm.downdate(1)
    assert vo.memo_value() == pytest.approx(pm.memo_value(), rel=1e-12)
    for _, child in vo.components:
        assert child.memo is vo.memo and child.counters is vo.counters
    delta = vo.counters - base
    assert delta.oracle_evals == 4
    assert delta.gain_evals == 3


def test_value_oracle_rebuild_is_metered_and_clones_start_at_zero():
    F = zoo_instance("faclocation", 10, seed=12)
    F.set_memo([2, 4, 8])
    vo = wrap_value_oracle(F)
    assert vo.counters == EvalCounters()  # filling the cached value is not metered
    assert vo.memo == F.memo and vo.memo_value() == F.memo_value()
    clone = vo.clone_detached()
    assert clone.counters == EvalCounters() and clone.memo_value() == F.memo_value()
    P = make_function(10, ModularPenaltyData(vo, np.ones(10)))
    P.set_memo([1, 3])  # the mixture's rebuild is the component's oracle call
    assert P.counters.as_dict() == {"oracle_evals": 1, "gain_evals": 0, "memo_updates": 0,
                                    "memo_downdates": 0, "memo_rebuilds": 1}
    assert P.clone_detached().counters == EvalCounters()


def test_memoized_sweep_counter_accounting():
    # computing all add-gains at fixed X: exactly (n - |X|) gain evals, 0 oracle
    F = zoo_instance("clusterconcave", 14, seed=10)
    X = [0, 5, 9]
    F.set_memo(X)
    base = F.counters.copy()
    for j in range(F.n):
        if j not in F.memo:
            F.gain_add(j)
    delta = F.counters - base
    assert delta.gain_evals == F.n - len(X)
    assert delta.oracle_evals == 0


def test_contract_method_surface():
    # pins the public methods, so a new contract method is a deliberate edit
    def public(cls, names=None):
        names = dir(cls) if names is None else names
        return sorted(n for n in names if not n.startswith("_") and callable(getattr(cls, n)))

    assert public(SubmodularFunction) == [
        "clone_detached", "downdate", "evaluate", "gain_add", "gain_remove", "gain_singleton",
        "gains_add", "memo_value", "reset_counters", "set_memo", "sweep", "update", "value_at",
    ]
    assert public(ValueOracleFunction) == public(SubmodularFunction)
    # the value-oracle class answers these itself
    assert public(ValueOracleFunction, vars(ValueOracleFunction)) == [
        "downdate", "gain_add", "gain_remove", "gain_singleton", "set_memo", "update",
    ]
