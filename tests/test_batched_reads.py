"""Batched removal and singleton reads: the ``_gains_remove`` and
``_singletons`` hooks, the ``gains_remove`` and ``gains_singleton``
contract, and the supergradient bounds and knapsack singleton swap that
read through them."""

import math

import numpy as np
import pytest

from submemo import (
    EvalCounters,
    InputError,
    PreconditionError,
    SubmodularFunction,
    maximize,
    wrap_value_oracle,
)
from submemo.bench import SYNTHETIC_KINDS
from submemo.bounds import supergradient_grow, supergradient_shrink
from submemo.core import ABS_TOL, ModularFunction, as_subset
from submemo.functions import (
    FeatureBasedData,
    MixtureFunction,
    ModularData,
    ModularPenaltyData,
    make_function,
)
from submemo.maximize import Knapsack, greedy_lazy, greedy_naive

from conftest import zoo_instance

FORMS = ("plain", "penalised", "mixture")
STATES = ("random", "full", "swept")
READS = {"gains_remove": "gain_remove", "gains_singleton": "gain_singleton"}
HOOKS = ("_gains_remove", "_singletons")


def _instance(kind: str, n: int, seed: int, form: str) -> SubmodularFunction:
    F = zoo_instance(kind, n, seed=seed)
    if form == "penalised":
        F = make_function(n, ModularPenaltyData(F, np.random.default_rng(seed).uniform(0.0, 2.0, n)))
    elif form == "mixture":
        F = MixtureFunction([(0.5, F), (2.0, zoo_instance("setcover", n, seed=seed))])
    return F


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _put_in(F: SubmodularFunction, state: str, seed: int) -> None:
    """The memo at a random set, at V, or at V after a sweep (facility
    location then owes its second-best and owner records)."""
    rng = np.random.default_rng(seed)
    if state == "random":
        F.set_memo(rng.permutation(F.n)[:F.n // 2].tolist())
    elif state == "full":
        F.set_memo(range(F.n))
    else:
        F.sweep(rng.permutation(F.n))


def _ids(F: SubmodularFunction, batch: str, seed: int) -> list[int]:
    """Members (removal) or all ids (singletons), shuffled, one repeated."""
    pool = F.memo.members if batch == "gains_remove" else range(F.n)
    ids = np.random.default_rng(seed).permutation(pool).tolist()
    return ids + ids[:1]


def _spy(monkeypatch) -> list:
    """Record (method, id) for every public scalar read, patched on the
    classes as the benchmark's tracer patches them."""
    calls = []
    for cls in (SubmodularFunction, *_subclasses(SubmodularFunction)):
        for name in READS.values():
            own = cls.__dict__.get(name)
            if own is not None:
                def spy(self, j, _own=own, _name=name):
                    calls.append((_name, j))
                    return _own(self, j)
                monkeypatch.setattr(cls, name, spy)
    return calls


def test_every_batched_class_is_in_the_instance_table():
    table = [_instance(kind, 12, 0, form) for kind in SYNTHETIC_KINDS for form in FORMS]
    todo = list(table)
    while todo:
        F = todo.pop()
        if isinstance(F, MixtureFunction):
            children = [child for _, child in F.components]
            table += children
            todo += children
    for hook in HOOKS:
        batched = [cls for cls in _subclasses(SubmodularFunction) if hook in cls.__dict__]
        assert batched
        for cls in batched:
            assert any(isinstance(F, cls) for F in table), f"{cls.__name__} overrides {hook} untested"


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_batches_are_the_per_id_loop_bitwise(kind, form, state, monkeypatch):
    # two twins in one state: one reads a batch, the other the scalar loop;
    # gains, counters and the public calls the tracer would count agree
    batched, looped = (_instance(kind, 24, 3, form) for _ in range(2))
    for F in (batched, looped):
        _put_in(F, state, 3)
    calls = _spy(monkeypatch)
    for batch, read in READS.items():
        ids = _ids(batched, batch, 4)
        del calls[:]
        got = getattr(batched, batch)(ids)
        booked = list(calls)
        del calls[:]
        want = [getattr(looped, read)(j) for j in ids]
        assert got.dtype == np.float64 and got.shape == (len(ids),)
        assert [g.hex() for g in got.tolist()] == [float(w).hex() for w in want], batch
        assert booked == calls == [(read, j) for j in ids]
        assert batched.counters == looped.counters
        assert not batched._booking


@pytest.mark.parametrize("kind", ("faclocation", "featurebased", "setcover", "modular"))
def test_a_batch_is_the_callers_array(kind):
    F = zoo_instance(kind, 20, seed=5)
    F.set_memo([1, 4, 9])
    for batch in READS:
        ids = [4, 9, 1]
        first = getattr(F, batch)(ids)
        want = first.copy()
        first[:] = np.nan
        again = getattr(F, batch)(ids)
        assert not np.shares_memory(first, again)
        assert again.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ("faclocation", "featurebased", "setcover", "logdet"))
def test_value_oracle_pays_one_oracle_call_per_id(kind):
    F = zoo_instance(kind, 16, seed=6)
    F.set_memo([0, 3, 5, 11])
    V, loop = wrap_value_oracle(F), wrap_value_oracle(F)
    for batch, read in READS.items():
        ids = _ids(V, batch, 7)
        before = V.counters.copy()
        got = getattr(V, batch)(ids)
        assert V.counters - before == EvalCounters(oracle_evals=len(ids))
        assert got.tolist() == [getattr(loop, read)(j) for j in ids]
        assert np.allclose(got, [getattr(F, read)(j) for j in ids], rtol=1e-9, atol=1e-12)
    assert V.counters.gain_evals == 0 and not V._booking


@pytest.mark.parametrize("form", FORMS)
def test_bad_ids_raise_and_charge_nothing(form):
    F = _instance("faclocation", 10, 1, form)
    F.set_memo([2, 6])
    before = F.counters.copy()
    cases = [("gains_remove", [2, 3], PreconditionError), ("gains_remove", [6, 2, 6, 0], PreconditionError)]
    for batch in READS:
        cases += [(batch, [2, -1], InputError), (batch, [10], InputError), (batch, [1.5], InputError),
                  (batch, np.asarray([2.0, 6.0]), InputError), (batch, ["a"], InputError)]
    for batch, ids, error in cases:
        with pytest.raises(error):
            getattr(F, batch)(ids)
        assert F.counters == before and not F._booking, (batch, ids)
    assert F.memo.members == [2, 6]


def test_empty_batches_read_nothing():
    F = zoo_instance("setcover", 12, seed=2)
    F.set_memo([3])
    before = F.counters.copy()
    for batch in READS:
        for ids in ([], np.zeros(0, dtype=np.intp), range(0)):
            got = getattr(F, batch)(ids)
            assert got.shape == (0,) and got.dtype == np.float64
    assert F.counters == before


def test_numpy_and_bool_ids_read_as_ints():
    F = zoo_instance("featurebased", 12, seed=2)
    F.set_memo([1, 2, 3])
    got = F.gains_remove([True, np.int32(2), np.uint8(3)])
    assert got.tolist() == [F.gain_remove(j) for j in (1, 2, 3)]
    got = F.gains_singleton(np.asarray([7, 0], dtype=np.uint16))
    assert got.tolist() == [F.gain_singleton(j) for j in (7, 0)]


@pytest.mark.parametrize("concave", ["sqrt", "pow:0.5", "log1p"])
@pytest.mark.parametrize("features", [1, 5])
def test_a_negative_zero_score_reads_as_the_scalar_hooks(concave, features):
    # the one-member value oracle loads a -0.0 score as +0.0 (bincount adds
    # it to 0.0); psi keeps or drops the sign, the sums must not show it
    lists = [([0], [-0.0]), ([0], [0.5]), ([], []), ([0], [0.0])]
    if features > 1:
        lists += [([4, 0, 2], [-0.0, 1.5, 0.25]), ([3], [-0.0])]
    F = make_function(len(lists), FeatureBasedData(lists, concave=concave, num_features=features))
    ids = list(range(F.n))
    singles = F.gains_singleton(ids)
    assert [g.hex() for g in singles.tolist()] == [F.gain_singleton(j).hex() for j in ids]
    for members in (ids, [0, 2], [1, 3]):
        F.set_memo(members)
        got = F.gains_remove(members)
        assert [g.hex() for g in got.tolist()] == [F.gain_remove(j).hex() for j in members]


def _grow_reference(F, X) -> ModularFunction:
    """The grow bound read one element at a time, ascending ids."""
    sub = as_subset(F.n, X)
    fx = F.value_at(sub)
    weights = np.empty(F.n)
    inside_total = 0.0
    for j in range(F.n):
        if j in sub:
            weights[j] = F.gain_remove(j)
            inside_total += weights[j]
        else:
            weights[j] = F.gain_singleton(j)
    return ModularFunction(fx - inside_total, weights)


def _shrink_reference(F, X) -> ModularFunction:
    """The shrink bound with its removal gains read one member at a time,
    in member order."""
    sub = as_subset(F.n, X)
    fx = F.value_at(sub)
    weights = np.empty(F.n)
    outside = np.flatnonzero(~sub.mask)
    weights[outside] = [F.gain_add(int(j)) for j in outside]
    F.set_memo(range(F.n))
    inside_total = 0.0
    for j in sub.members:
        weights[j] = F.gain_remove(j)
        inside_total += weights[j]
    return ModularFunction(fx - inside_total, weights)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_supergradients_are_the_per_element_loop_bitwise(kind, form):
    rng = np.random.default_rng(11)
    n = 20
    for X in ([], list(range(n)), rng.permutation(n)[:7].tolist(), rng.permutation(n)[:13].tolist()):
        for bound, reference in ((supergradient_grow, _grow_reference),
                                 (supergradient_shrink, _shrink_reference)):
            F, G = _instance(kind, n, 8, form), _instance(kind, n, 8, form)
            got, want = bound(F, X), reference(G, X)
            assert float(got.offset).hex() == float(want.offset).hex(), (bound.__name__, X)
            assert got.weights.tobytes() == want.weights.tobytes(), (bound.__name__, X)
            assert F.counters == G.counters and F.memo.members == G.memo.members


def _swap_by_loop(F, c, pool, result):
    """The knapsack singleton swap read one pool id at a time: the first
    strictly best feasible singleton in pool order."""
    best_j, best_v = None, -math.inf
    for j in pool:
        if c.costs[j] <= c.budget:
            v = F.gain_singleton(j)
            if v > best_v:
                best_j, best_v = j, v
    if best_j is not None and best_v > result.value + ABS_TOL:
        F.set_memo([best_j])
        return maximize._result(F, [(best_j, best_v)], result.stats)
    return result


def _knapsack_cases():
    # a cheap element of the best ratio blocks two tied, budget-sized ones:
    # the swap wins, and the first of the tie is kept
    w = np.asarray([2.0, 10.0, 10.0, 1.0, 0.5, 3.0])
    yield make_function(6, ModularData(w)), Knapsack((1.0, 9.5, 9.5, 1.0, 1.0, 4.0), 10.0), None
    yield make_function(6, ModularData(w)), Knapsack((1.0, 9.5, 9.5, 1.0, 1.0, 4.0), 10.0), [5, 2, 1, 0]
    rng = np.random.default_rng(21)
    for kind in ("faclocation", "featurebased", "setcover"):
        for seed in range(3):
            costs = tuple(rng.uniform(0.2, 3.0, 16))
            yield zoo_instance(kind, 16, seed=seed), Knapsack(costs, float(rng.uniform(1.0, 4.0))), None


def _exact(res) -> tuple:
    trace = [(j, float(g).hex()) for j, g in res.trace]
    return res.members, float(res.value).hex(), trace, res.counters.as_dict(), res.stats


@pytest.mark.parametrize("mode", ["pm", "vo"])
@pytest.mark.parametrize("lazy", [False, True], ids=["naive", "lazy"])
def test_knapsack_singleton_swap_is_the_loop(lazy, mode, monkeypatch):
    cases = [(wrap_value_oracle(F) if mode == "vo" else F, c, pool) for F, c, pool in _knapsack_cases()]

    def runs():
        return [_exact(greedy_lazy(F.clone_detached(), c, pool) if lazy else greedy_naive(F.clone_detached(), c))
                for F, c, pool in cases]

    got = runs()
    monkeypatch.setattr(maximize, "_best_singleton_swap", _swap_by_loop)
    assert got == runs()
    assert got[0][0] == [1]  # the first of the two tied budget-sized singletons
