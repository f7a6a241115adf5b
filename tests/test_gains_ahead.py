"""Batched add gains: ``_gains_add`` hooks, the ``gains_add`` contract, and
greedy runs with and without batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submemo import EvalCounters, InputError, PreconditionError, SubmodularFunction, wrap_value_oracle
from submemo.functions import MixtureFunction, ModularPenaltyData, make_function
from submemo.functions.ragged import ragged_positions, ragged_sum
from submemo.maximize import Cardinality, Knapsack, greedy_lazy, greedy_naive, randomized_greedy

from conftest import ALL_KINDS, zoo_instance

# one synthetic kind per batched class; each is also run under a modular penalty
BATCHED_KINDS = ("faclocation", "featurebased", "clusterconcave", "setcover")


def _instance(kind: str, n: int, seed: int, penalised: bool):
    if kind == "nested":  # a penalty over a mixture: a three-level tree
        F = MixtureFunction([(0.5, zoo_instance("faclocation", n, seed=seed)),
                             (2.0, zoo_instance("setcover", n, seed=seed))])
    else:
        F = zoo_instance(kind, n, seed=seed)
    if penalised:
        F = make_function(n, ModularPenaltyData(F, np.random.default_rng(seed).uniform(0.0, 2.0, n)))
    return F


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_batched_class_is_in_the_instance_table():
    table = [_instance(kind, 20, 0, penalised) for kind in BATCHED_KINDS for penalised in (False, True)]
    table += [child for F in table if isinstance(F, MixtureFunction) for _, child in F.components]
    batched = [cls for cls in _subclasses(SubmodularFunction) if "_gains_add" in cls.__dict__]
    assert batched
    for cls in batched:
        assert any(isinstance(F, cls) for F in table), f"{cls.__name__} overrides _gains_add untested"


def _assert_batch_is_scalar(F):
    cands = np.flatnonzero(~F.memo.mask)
    batch = F._gains_add(cands)
    scalar = np.asarray([F._gain_add(int(j)) for j in cands], dtype=float)
    assert batch is not None and batch.shape == scalar.shape
    assert np.array_equal(batch, scalar), np.abs(batch - scalar).max()


_STEPS = st.lists(
    st.tuples(st.sampled_from(("update", "downdate", "set_memo")), st.integers(0, 2**31)),
    min_size=1,
    max_size=12,
)


@given(
    st.sampled_from(BATCHED_KINDS + ("nested",)),
    st.booleans(),
    st.integers(60, 200),
    st.integers(0, 2**16),
    _STEPS,
)
@settings(max_examples=40, deadline=None)
def test_batched_gains_equal_scalar_gains_bitwise(kind, penalised, n, seed, steps):
    F = _instance(kind, n, seed, penalised)
    _assert_batch_is_scalar(F)
    for op, x in steps:
        members = F.memo.members
        if op == "update" and len(members) < n:
            outside = np.flatnonzero(~F.memo.mask)
            F.update(int(outside[x % outside.size]))
        elif op == "downdate" and members:
            F.downdate(members[x % len(members)])
        elif op == "set_memo":
            size = (0, 1, 5, n // 3, n - 1, n)[x % 6]
            F.set_memo(np.random.default_rng(x).permutation(n)[:size].tolist())
        _assert_batch_is_scalar(F)


def test_a_mixture_batches_only_when_every_component_does():
    F = MixtureFunction([(1.0, zoo_instance("faclocation", 30, seed=5)),
                         (1.0, zoo_instance("logdet", 30, seed=5))])
    F.set_memo([2, 7])
    assert F._gains_add(np.arange(10, 20)) is None
    got = F.gains_add(range(10, 20))
    assert got.tolist() == [F.clone_detached().gain_add(j) for j in range(10, 20)]
    assert not F._booking


def test_ragged_sum_is_each_segments_own_sum():
    # lengths 0-7 sum sequentially, 8-128 with 8 accumulators, 130 in blocks
    rng = np.random.default_rng(11)
    lens = np.asarray([*range(21), 130, 0, 130, 9, 1] * 3)
    rng.shuffle(lens)
    values = rng.standard_normal(lens.sum()) * 10.0 ** rng.integers(-6, 7, lens.sum())
    starts = np.cumsum(lens) - lens
    want = np.asarray([values[s:s + m].sum() for s, m in zip(starts, lens)])
    assert np.array_equal(ragged_sum(values, lens), want)
    # a left-to-right segment sum rounds differently on these values
    left_to_right = np.bincount(np.repeat(np.arange(lens.size), lens), weights=values)
    assert not np.array_equal(left_to_right, want)


def _general_ragged_sum(values, lens):
    """``ragged_sum`` through its grouping path: one extra segment of
    another length keeps the lengths from being all one."""
    odd = int(lens.max(initial=0)) + 1
    return ragged_sum(np.concatenate([values, np.ones(odd)]), np.append(lens, odd))[:-1]


@pytest.mark.parametrize("segments", [1, 2, 33, 1500])
@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 200])
def test_ragged_sum_of_one_length_is_the_general_path_bitwise(length, segments):
    # 200 is past numpy's 128-element pairwise block
    rng = np.random.default_rng(length * 7 + segments)
    lens = np.full(segments, length, dtype=np.intp)
    values = rng.standard_normal(lens.sum()) * 10.0 ** rng.integers(-6, 7, lens.sum())
    got = ragged_sum(values, lens)
    want = _general_ragged_sum(values, lens)
    assert got.shape == (segments,) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    starts = np.arange(segments) * length
    assert got.tolist() == [values[s:s + length].sum() for s in starts]


@pytest.mark.parametrize("lens", [[8] * 10 + [9], [0, 8, 8], [8, 8, 0], [1, 200], [200, 200, 7]])
def test_ragged_sum_of_mixed_lengths_falls_back(lens):
    lens = np.asarray(lens, dtype=np.intp)
    values = np.random.default_rng(lens.sum()).standard_normal(lens.sum()) * 1e3
    starts = np.cumsum(lens) - lens
    want = [values[s:s + m].sum() for s, m in zip(starts, lens)]
    assert ragged_sum(values, lens).tolist() == want
    assert ragged_sum(np.zeros(0), np.zeros(0, dtype=np.intp)).shape == (0,)


@pytest.mark.parametrize("seed", range(4))
def test_ragged_sum_pads_each_length_group_bitwise(seed):
    # segments of 0-300 terms, with the edges of numpy's 8-lane and 128-term
    # blocks, mixed signs, magnitudes 1e-12..1e12 and negative zeros, summed in
    # one call and one at a time by np.add.reduce
    rng = np.random.default_rng(seed)
    edges = [0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 300]
    lens = np.concatenate([edges * 2, rng.integers(0, 301, size=40), rng.integers(0, 24, size=200)])
    rng.shuffle(lens)
    values = rng.standard_normal(lens.sum()) * 10.0 ** rng.integers(-12, 13, lens.sum())
    values[rng.random(values.size) < 0.05] = -0.0
    ends = np.cumsum(lens)
    want = np.asarray([np.add.reduce(values[e - m:e]) for e, m in zip(ends, lens)])
    assert ragged_sum(values, lens).tobytes() == want.tobytes()
    for length in edges:  # each length with one other, so that the groups are used
        two = np.asarray([length, 3], dtype=np.intp)
        part = values[:two.sum()]
        want = [np.add.reduce(part[:length]), np.add.reduce(part[length:])]
        assert ragged_sum(part, two).tobytes() == np.asarray(want).tobytes()


def test_ragged_positions_concatenate_the_rows():
    indptr = np.asarray([0, 3, 3, 4, 9])
    pos, lens = ragged_positions(indptr, np.asarray([3, 1, 0, 2, 3]))
    assert pos.tolist() == [4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8]
    assert lens.tolist() == [5, 0, 3, 1, 5]
    # one row, empty ones included, takes its own path
    for j in range(4):
        pos, lens = ragged_positions(indptr, np.asarray([j]))
        assert pos.tolist() == list(range(indptr[j], indptr[j + 1]))
        assert lens.tolist() == [indptr[j + 1] - indptr[j]]


@pytest.mark.parametrize("seed", range(6))
def test_ragged_positions_match_a_plain_concatenation(seed):
    rng = np.random.default_rng(seed)
    n = 40
    row_lens = rng.integers(0, 6, n)
    row_lens[rng.choice(n, 10, replace=False)] = 0  # empty rows among full ones
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(row_lens, out=indptr[1:])
    for idx in ([], [int(rng.integers(n))], rng.choice(n, 2, replace=False).tolist(),
                rng.choice(n, 25, replace=False).tolist(), rng.integers(0, n, 30).tolist(),
                [7, 3, 7, 7, 0, 3]):
        want = [p for j in idx for p in range(indptr[j], indptr[j + 1])]
        pos, lens = ragged_positions(indptr, np.asarray(idx, dtype=np.intp))
        assert pos.dtype == np.intp and pos.tolist() == want
        assert lens.tolist() == [int(row_lens[j]) for j in idx]


@pytest.mark.parametrize("change", ["update", "downdate", "set_memo"])
@pytest.mark.parametrize("kind", BATCHED_KINDS)
def test_kept_gain_is_never_read_stale(kind, change):
    F = zoo_instance(kind, 40, seed=3)
    F.set_memo([1, 2, 3])
    outside = np.flatnonzero(~F.memo.mask)
    before = F.gains_add(outside)
    assert not F._booking  # nothing outlives the call
    if change == "update":
        F.update(int(outside[0]))
    elif change == "downdate":
        F.downdate(2)
    else:
        F.set_memo([5, 6])
    fresh = F.clone_detached()
    readable = np.asarray([j for j in outside if j not in F.memo])
    got = F.gains_add(readable)
    assert got.tolist() == [fresh.gain_add(int(j)) for j in readable]
    # the statistic change moved some gain, so a stale read would show
    assert not np.array_equal(before[np.isin(outside, readable)], got)


def test_gains_add_checks_ids_as_gain_add_does():
    F = zoo_instance("faclocation", 10, seed=1)
    F.set_memo([4])
    for bad, error in (([1.5], InputError), (["a"], InputError), ([-1], InputError),
                       ([10], InputError), ([4], PreconditionError), ([0, 4], PreconditionError)):
        with pytest.raises(error):
            F.gain_add(bad[-1])
        with pytest.raises(error):
            F.gains_add(bad)
        with pytest.raises(error):
            F.gains_add(np.asarray(bad))
    assert F.counters.gain_evals == 0
    assert F.gains_add([]).shape == (0,)
    got = F.gains_add([True, np.int32(2), np.uint8(3)])
    assert got.tolist() == [F.gain_add(j) for j in (1, 2, 3)]


def test_counters_move_only_on_reads():
    # gains_add is gain_add over the ids, bitwise, charged one gain per id
    # (a repeat too), with and without a batched hook
    for F in (zoo_instance("setcover", 30, seed=2), zoo_instance("logdet", 30, seed=2),
              _instance("faclocation", 30, 2, penalised=True)):
        F.set_memo([0])
        scalar = F.clone_detached()
        before = F.counters.copy()
        cands = [5, 9, 9, *range(10, 30)]
        got = F.gains_add(cands)
        assert [g.hex() for g in got.tolist()] == [scalar.gain_add(j).hex() for j in cands]
        assert F.counters - before == EvalCounters(gain_evals=len(cands))
        assert not F._booking


def _refuse_scalar_hooks(F) -> None:
    def refused(j):
        raise AssertionError(f"a booked call ran a scalar hook for {j}")
    F._gain_add = F._update = refused


@pytest.mark.parametrize("kind", ["faclocation", "featurebased", "setcover"])
def test_booking_charges_without_the_scalar_hooks(kind):
    # booked gain_add and update calls only charge: counters equal the
    # per-element loop's, and neither _gain_add nor _update runs
    F = zoo_instance(kind, 40, seed=8)
    loop = F.clone_detached()
    F.set_memo([3, 4])
    loop.set_memo([3, 4])
    cands = [j for j in range(40) if j not in F.memo] + [9]
    _refuse_scalar_hooks(F)
    want = [loop.gain_add(j) for j in cands]
    assert F.gains_add(cands).tolist() == want
    assert F.counters == loop.counters
    order = np.random.default_rng(8).permutation(40)
    loop.set_memo(())
    loop_weights = np.empty(40)
    for j in order.tolist():
        loop_weights[j] = loop.gain_add(j)
        loop.update(j)
    weights = F.sweep(order)
    assert weights.tobytes() == loop_weights.tobytes()
    assert F.counters == loop.counters and F.memo.members == loop.memo.members
    assert not F._booking


def test_a_booked_call_checks_nothing():
    # the batched reads and sweep check their ids and charge the batch
    # before they book it: a booked call returns at once, charging nothing
    F = zoo_instance("setcover", 20, seed=9)
    F.set_memo([2])
    before = F.counters.copy()
    F._booking = True
    assert F.gain_add(2) is None and F.gain_remove(5) is None and F.gain_singleton(2) is None
    F.update(2)
    F._booking = False
    assert F.counters == before and F.memo.members == [2]
    F.gains_remove([2, 2])
    F.gains_singleton([0, 1, 2])
    assert F.counters - before == EvalCounters(gain_evals=5)


def _spy_on_gain_add(monkeypatch) -> list:
    """Record (instance, id) for every public ``gain_add`` call, patched on
    the classes as the benchmark's tracer patches them."""
    calls = []
    for cls in (SubmodularFunction, *_subclasses(SubmodularFunction)):
        own = cls.__dict__.get("gain_add")
        if own is not None:
            def spy(self, j, _own=own):
                calls.append((self, j))
                return _own(self, j)
            monkeypatch.setattr(cls, "gain_add", spy)
    return calls


@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("kind", ALL_KINDS + ("nested",))
def test_gains_add_contract(kind, penalised, monkeypatch):
    F = _instance(kind, 40, 7, penalised)
    F.set_memo([2, 5, 31])
    cands = [j for j in range(40) if j not in F.memo] + [9, 9]
    scalar = F.clone_detached()
    want = [scalar.gain_add(j).hex() for j in cands]
    calls = _spy_on_gain_add(monkeypatch)
    before = F.counters.copy()
    got = F.gains_add(cands)
    # bitwise one scalar read per id, each charged and booked through one
    # public gain_add call
    assert got.dtype == np.float64 and [g.hex() for g in got.tolist()] == want
    assert F.counters - before == EvalCounters(gain_evals=len(cands))
    assert calls == [(F, j) for j in cands]
    assert not F._booking
    # the array is the caller's: a later call hands out another one, and
    # writing into it changes no later read
    again = F.gains_add(cands)
    assert not np.shares_memory(got, again)
    got[:] = np.nan
    assert [g.hex() for g in again.tolist()] == want
    assert [g.hex() for g in F.gains_add(cands).tolist()] == want
    assert [F.gain_add(j).hex() for j in cands] == want


def test_value_oracle_keeps_nothing_and_pays_per_gain(monkeypatch):
    F = zoo_instance("faclocation", 12, seed=4)
    V = wrap_value_oracle(F)
    calls = []
    inner = V._inner._evaluate
    V._inner._evaluate = lambda idx: calls.append(idx) or inner(idx)
    reads = _spy_on_gain_add(monkeypatch)
    got = V.gains_add(range(12))
    assert reads == [(V, j) for j in range(12)]
    assert V.counters.oracle_evals == 12 == len(calls) and not V._booking
    assert V.counters.gain_evals == 0
    assert np.allclose(got, [F.gain_add(j) for j in range(12)], rtol=1e-12)


def test_nothing_is_handed_on_after_a_call():
    # the chained sweep and a plain gains_add are checked where they are tested
    L = zoo_instance("logdet", 12, seed=6)
    L.sweep(range(12))  # no _chain hook: one gain at a time
    assert not L._booking
    F = zoo_instance("featurebased", 30, seed=6)
    reads = []
    F.gain_add = lambda j: reads.append(j) or (1 / 0 if len(reads) == 2 else 0.0)
    with pytest.raises(ZeroDivisionError):  # a read that raises half way
        F.gains_add(range(5))
    assert reads == [0, 1] and not F._booking
    del F.gain_add  # the next public read computes its gain again
    hook, hooked = F._gain_add, []
    F._gain_add = lambda j: hooked.append(j) or hook(j)
    assert F.gain_add(7) == F.clone_detached().gain_add(7) and hooked == [7]


def _knapsack(n: int, seed: int) -> Knapsack:
    costs = np.random.default_rng(seed).uniform(0.5, 1.5, n)
    return Knapsack(tuple(costs), 4.0)


RUNS = {
    "naive": lambda F, seed: greedy_naive(F, Cardinality(6)),
    "naive-knapsack": lambda F, seed: greedy_naive(F, _knapsack(F.n, seed)),
    "lazy": lambda F, seed: greedy_lazy(F, Cardinality(6)),
    "lazy-knapsack": lambda F, seed: greedy_lazy(F, _knapsack(F.n, seed)),
    "randomized": lambda F, seed: randomized_greedy(F, 6, seed=seed),
}


def _exact(res) -> tuple:
    trace = [(j, float(g).hex()) for j, g in res.trace]
    return res.members, float(res.value).hex(), trace, res.counters.as_dict(), res.stats


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_greedy_runs_identical_with_and_without_batching(kind, monkeypatch):
    instances = [zoo_instance(kind, 40, seed=seed) for seed in (0, 1, 2)]
    batched = {(s, name): _exact(run(F.clone_detached(), s))
               for s, F in enumerate(instances) for name, run in RUNS.items()}
    for cls in _subclasses(SubmodularFunction):
        if "_gains_add" in cls.__dict__:
            monkeypatch.setattr(cls, "_gains_add", lambda self, idx: None)
    for s, F in enumerate(instances):
        for name, run in RUNS.items():
            assert _exact(run(F.clone_detached(), s)) == batched[(s, name)], (kind, s, name)
