"""Extreme-point sweeps: ``_chain`` hooks against the scalar gain/update loop,
and the ``sweep`` contract around them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submemo import EvalCounters, SubmodularFunction, wrap_value_oracle
from submemo.bounds import _descending_order, extreme_point
from submemo.functions import (
    ClusteredConcaveModularData,
    FacilityLocationData,
    FacilityLocationFunction,
    FeatureBasedData,
    MixtureFunction,
    ModularPenaltyData,
    default_tolerance,
    make_function,
    verify_statistic,
)
from submemo.functions.graphs import _CHAIN_BLOCK
from submemo.functions.ragged import stable_order
from submemo.minimize import lovasz_descent

from conftest import zoo_instance

# one synthetic kind per chained class; each is also run under a modular penalty
CHAINED_KINDS = ("faclocation", "featurebased", "clusterconcave", "setcover")


def _sparse_facloc(n: int, seed: int, signed_zeros: bool = False):
    # mostly zero similarities: some rows end with no owner or no second owner
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 3.0 / n)
    if signed_zeros:  # every zero stored as -0.0, and one column all -0.0
        s[s == 0.0] = -0.0
        s[:, rng.integers(n)] = -0.0
    return make_function(n, FacilityLocationData(s))


def _instance(kind: str, n: int, seed: int, penalised: bool):
    if kind.endswith("-faclocation"):
        F = _sparse_facloc(n, seed, signed_zeros=kind == "signed-zero-faclocation")
    else:
        F = zoo_instance(kind, n, seed=seed)
    if penalised:
        F = make_function(n, ModularPenaltyData(F, np.random.default_rng(seed).uniform(0.0, 2.0, n)))
    return F


def _base(F):
    """The penalised function's base: the first component of its mixture."""
    return F.components[0][1] if isinstance(F, MixtureFunction) else F


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_chained_class_is_in_the_instance_table():
    table = [_instance(kind, 20, 0, penalised) for kind in CHAINED_KINDS for penalised in (False, True)]
    table += [child for F in table if isinstance(F, MixtureFunction) for _, child in F.components]
    chained = [cls for cls in _subclasses(SubmodularFunction) if "_chain" in cls.__dict__]
    assert chained
    for cls in chained:
        assert any(isinstance(F, cls) for F in table), f"{cls.__name__} overrides _chain untested"


def _order(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.permutation(n)
    if kind == "zero":  # Lovász descent at x = 0
        return _descending_order(np.zeros(n))
    grid = np.round(rng.uniform(-1.0, 1.0, n), 1)  # ties on a 0.1 grid
    if kind == "grid-descending":
        return _descending_order(grid)
    return np.argsort(grid, kind="stable")  # min-norm-point's ascending order


def _state(F) -> dict:
    out = {k: v.copy() for k, v in F._statistic().items()}
    base = _base(F)
    if hasattr(base, "_arg"):
        out["arg"], out["arg2"] = base._arg.copy(), base._arg2.copy()
    out["memo"] = list(F.memo.members)
    assert base.memo is F.memo  # a component shares its mixture's memo
    return out


def _assert_same_bits(got: dict, want: dict):
    # tobytes, not np.array_equal, which takes -0.0 for 0.0
    assert got.keys() == want.keys()
    for key in want:
        assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key


def _assert_sweep_is_loop(F, order):
    loop = F.clone_detached()
    loop._chain = lambda order: None
    assert F._chain(np.asarray(order)) is not None  # the chained path is the one tested
    F.reset_counters()
    got, want = F.sweep(order), loop.sweep(order)
    assert [float(w).hex() for w in got] == [float(w).hex() for w in want]
    if hasattr(_base(F), "_best"):  # the chained record, before a read builds the owed ones
        assert _base(F)._best.tobytes() == _base(loop)._best.tobytes()
    _assert_same_bits(_state(F), _state(loop))
    assert F.counters == loop.counters


@given(
    st.sampled_from(CHAINED_KINDS + ("sparse-faclocation",)),
    st.booleans(),
    st.integers(60, 200),
    st.integers(0, 2**16),
    st.sampled_from(("random", "zero", "grid-descending", "grid-ascending")),
)
@settings(max_examples=60, deadline=None)
def test_chained_sweep_equals_the_scalar_loop_bitwise(kind, penalised, n, seed, order_kind):
    F = _instance(kind, n, seed, penalised)
    F.set_memo(np.random.default_rng(seed).permutation(n)[: n // 3].tolist())  # a sweep starts at ∅
    _assert_sweep_is_loop(F, _order(order_kind, n, seed))


def _spy_chains(F) -> list:
    seen = []
    original = F._chain
    F._chain = lambda order: seen.append(order.size) or original(order)
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_mixture_with_an_unchained_component_sweeps_as_the_loop(seed):
    # facility location chains, log-det has no _chain: the mixture rebuilds
    # the chained component at the empty set and runs the scalar loop
    n = 40
    F = MixtureFunction([(0.7, zoo_instance("faclocation", n, seed=seed)),
                         (1.3, zoo_instance("logdet", n, seed=seed))])
    F.set_memo(np.random.default_rng(seed).permutation(n)[: n // 3].tolist())
    loop = F.clone_detached()
    loop._chain = lambda order: None
    chains = _spy_chains(F.components[0][1])
    F.reset_counters()
    order = np.random.default_rng(seed + 10).permutation(n)
    got, want = F.sweep(order), loop.sweep(order)
    assert chains == [n]  # the chained component did run, and was rolled back
    assert [float(w).hex() for w in got] == [float(w).hex() for w in want]
    assert F.counters == loop.counters
    s_got, s_want = _state(F), _state(loop)
    assert s_got.keys() == s_want.keys()
    for key in s_want:
        assert np.array_equal(s_got[key], s_want[key]), key
    for j in order[: n // 2].tolist():
        F.downdate(j)
    assert verify_statistic(F).max_deviation <= default_tolerance(F)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_penalty_over_a_mixture_sweeps_as_the_loop(seed):
    n = 60
    inner = MixtureFunction([(0.5, zoo_instance("faclocation", n, seed=seed)),
                             (2.0, zoo_instance("featurebased", n, seed=seed))])
    P = make_function(n, ModularPenaltyData(inner, np.random.default_rng(seed).uniform(0.0, 2.0, n)))
    leaves = [leaf for _, leaf in inner.components]
    P.set_memo([3, 1, 4])
    for node in [inner, *leaves]:
        assert node.memo is P.memo and node.counters is P.counters
    _assert_sweep_is_loop(P, np.random.default_rng(seed).permutation(n))
    for j in range(0, n, 3):
        P.downdate(j)
    assert verify_statistic(P).max_deviation <= default_tolerance(P)
    assert P.memo_value() == pytest.approx(P.evaluate(P.memo), rel=default_tolerance(P))


@pytest.mark.parametrize("order_kind", ["random", "grid-descending"])
@pytest.mark.parametrize("n", [1, 2, _CHAIN_BLOCK - 1, _CHAIN_BLOCK, _CHAIN_BLOCK + 1,
                               2 * _CHAIN_BLOCK, 2 * _CHAIN_BLOCK + 1])
@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("kind", ["faclocation", "sparse-faclocation", "signed-zero-faclocation"])
def test_facility_location_chain_at_block_edges(kind, penalised, n, order_kind):
    F = _instance(kind, n, n, penalised)
    order = _order(order_kind, n, n)
    _assert_sweep_is_loop(F, order)
    base = _base(F)
    assert not np.shares_memory(base._best, base._block)  # _gains_add reuses the block
    ids = sorted({int(order[0]), int(order[n // 2]), int(order[-1])})
    for j in ids:
        F.downdate(j)
    want = F.clone_detached().gains_add(ids)
    assert [g.hex() for g in F.gains_add(ids).tolist()] == [g.hex() for g in want.tolist()]


# --- sparse-load chains: a radix order and one pass per occurrence level ----


@pytest.mark.parametrize("bound", [1, 2**16 - 1, 2**16, 2**16 + 1, 2**33])
@pytest.mark.parametrize("keys", ["empty", "equal", "random"])
def test_stable_order_is_a_stable_argsort(bound, keys):
    rng = np.random.default_rng(bound % 1000)
    if keys == "empty":
        k = np.zeros(0, dtype=np.intp)
    elif keys == "equal":
        k = np.full(300, bound - 1, dtype=np.intp)
    else:  # ties at both ends, in the middle and on each side of the first digit's edge
        edges = [e for e in (0, bound // 2, bound - 1, 2**16 - 1, 2**16) if e < bound]
        k = np.concatenate((rng.integers(0, bound, 2000), rng.choice(edges, 500))).astype(np.intp)
        rng.shuffle(k)
    got = stable_order(k, bound)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(k, kind="stable"))


def _sparse_load(cls: str, case: str, n: int, seed: int):
    """A feature-based or clustered instance with each element's buckets as
    rows; ``case`` puts one bucket in every element, puts the buckets past
    2**16, or leaves element 0 with no entries."""
    rng = np.random.default_rng(seed)
    buckets = 70_000 if case == "wide" else 3 * n
    rows = [rng.choice(buckets, size=int(rng.integers(1, 6)), replace=False) for _ in range(n)]
    if case == "everywhere":
        rows = [np.union1d(r, [7]) for r in rows]
    if case == "empty":
        rows[0] = rows[0][:0]
    weights = [rng.uniform(0.0, 2.0, r.size) for r in rows]
    if cls == "featurebased":
        data = FeatureBasedData(list(zip(rows, weights)), num_features=buckets)
    else:  # the same incidence read by bucket: cluster b lists the elements that load it
        members = [[] for _ in range(buckets)]
        member_weights = [[] for _ in range(buckets)]
        for j, (r, w) in enumerate(zip(rows, weights)):
            for b, x in zip(r.tolist(), w.tolist()):
                members[b].append(j)
                member_weights[b].append(x)
        data = ClusteredConcaveModularData(members, member_weights, n)
    return make_function(n, data)


@pytest.mark.parametrize("order_kind", ["random", "grid-descending"])
@pytest.mark.parametrize("case", ["everywhere", "wide", "empty"])
@pytest.mark.parametrize("cls", ["featurebased", "clusterconcave"])
def test_sparse_load_chain_edge_cases_equal_the_scalar_loop_bitwise(cls, case, order_kind):
    n = 80
    F = _sparse_load(cls, case, n, seed=len(case))
    assert F._levels is None  # built by the first chain, not at set-up
    _assert_sweep_is_loop(F, _order(order_kind, n, 3))
    ranked, slots, levels = F._levels
    assert len(levels) == np.bincount(F._ids).max() and slots.size == F._ids.size
    if case == "everywhere":
        assert len(levels) == n
    if case == "wide":
        assert F.num_buckets > 2**16 and F._ids.max() >= 2**16
    if case == "empty":
        assert F._indptr[1] == F._indptr[0]
    F.set_memo([1, 2])  # a second chain reuses the layout
    _assert_sweep_is_loop(F, _order("random", n, 4))
    assert F._levels[1] is slots


def test_sparse_facility_location_leaves_unowned_records():
    F = _sparse_facloc(120, 3)
    F.sweep(np.random.default_rng(3).permutation(120))
    F._statistic()  # builds the records the sweep left owed
    assert (F._arg == -1).any() and (F._arg2 == -1).any()
    _assert_sweep_is_loop(F, np.random.default_rng(4).permutation(120))


def test_sweep_books_every_element_through_the_public_calls(monkeypatch):
    calls = {"gain_add": 0, "update": 0, "set_memo": 0}
    for name in calls:
        original = getattr(SubmodularFunction, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SubmodularFunction, name, counted)
    F = zoo_instance("featurebased", 70, seed=5)
    h = extreme_point(F, np.arange(70)[::-1])
    assert calls == {"gain_add": 70, "update": 70, "set_memo": 1}
    assert F.counters.as_dict() == {"oracle_evals": 0, "gain_evals": 70, "memo_updates": 70,
                                    "memo_downdates": 0, "memo_rebuilds": 1}
    assert F.memo.members == list(range(69, -1, -1))
    assert h.weights.sum() == pytest.approx(F.evaluate(range(70)))


def _spy_updates(F) -> list:
    seen = []
    original = F._update
    F._update = lambda j: seen.append(j) or original(j)
    return seen


def _fail_after_chaining(F, fail):
    chain = F._chain

    def failing(order):
        gains = chain(order)  # the statistic describes V from here on
        return fail(gains)

    F._chain = failing


def _assert_at_the_empty_set(F):
    assert len(F.memo) == 0
    assert F.memo_value() == 0.0
    assert verify_statistic(F).max_deviation == 0.0


@pytest.mark.parametrize("failure", [None, "raises", "short", "one"])
def test_update_after_a_sweep_moves_the_statistic(failure):
    F = zoo_instance("setcover", 60, seed=6)
    seen = _spy_updates(F)
    before = F.counters.copy()
    if failure == "raises":
        _fail_after_chaining(F, lambda gains: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            F.sweep(range(60))
    elif failure:  # n - 1 gains, or one gain that would broadcast over the weights
        _fail_after_chaining(F, lambda gains: gains[:-1] if failure == "short" else gains[:1])
        with pytest.raises(ValueError):
            F.sweep(range(60))
    else:
        F.sweep(range(60))
        assert seen == []
    if failure:  # nothing booked; a second, charged set_memo(()) brought the statistic back to ∅
        _assert_at_the_empty_set(F)
        assert F.counters - before == EvalCounters(memo_rebuilds=2)
    assert not F._booking
    F.set_memo([1, 2])
    F.update(7)
    assert seen == [7]
    fresh = F.clone_detached()
    assert np.array_equal(F._statistic()["count"], fresh._statistic()["count"])


def test_a_penalised_sweep_whose_component_chain_raises_ends_at_the_empty_set():
    P = _instance("faclocation", 60, 17, True)
    base = _base(P)
    _fail_after_chaining(base, lambda gains: 1 / 0)
    P.set_memo([3, 1, 4])
    with pytest.raises(ZeroDivisionError):
        P.sweep(np.random.default_rng(17).permutation(60))
    _assert_at_the_empty_set(P)
    assert base._owed is None
    assert not P._booking


def test_value_oracle_sweeps_gain_by_gain():
    F = zoo_instance("faclocation", 60, seed=8)
    V = wrap_value_oracle(F)
    order = np.random.default_rng(8).permutation(60)
    h = V.sweep(order)
    # one oracle call per gain; the update reuses it
    assert V.counters.oracle_evals == 60 and V.counters.gain_evals == 0
    assert np.allclose(h, F.sweep(order), rtol=1e-12)


# --- facility location: records a chain leaves owed -------------------------


def _records(F) -> dict:
    """The raw top-2 arrays, read without any hook building owed records."""
    return {k: getattr(_base(F), k).copy() for k in ("_best", "_second", "_arg", "_arg2")}


def _read(how: str, F):
    if how == "gain_remove":
        return [float(F.gain_remove(j)).hex() for j in range(0, F.n, 7)]
    if how == "downdate":
        for j in range(0, F.n, 5):
            F.downdate(j)
        return float(F.memo_value()).hex()
    if how == "memo_value":
        return float(F.memo_value()).hex()
    if how == "statistic":
        return {k: v.copy() for k, v in F._statistic().items()}
    if how == "clone_detached":
        return _state(F.clone_detached())
    return verify_statistic(F)


@pytest.mark.parametrize("how", ["gain_remove", "downdate", "memo_value", "statistic",
                                 "clone_detached", "verify_statistic"])
@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("kind", ["faclocation", "sparse-faclocation"])
def test_owed_records_read_as_the_loop_leaves_them(kind, penalised, how):
    F = _instance(kind, 150, 11, penalised)
    loop = F.clone_detached()
    loop._chain = lambda order: None
    order = np.random.default_rng(11).permutation(150)
    F.sweep(order)
    loop.sweep(order)
    got, want = _read(how, F), _read(how, loop)
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key
    else:
        assert got == want
    # memo_value reads only the best record, and a clone rebuilds its own
    reads_records = how not in ("memo_value", "clone_detached")
    assert (_base(F)._owed is None) == reads_records
    for key, arr in _records(loop).items():
        if reads_records or key == "_best":
            assert np.array_equal(_records(F)[key], arr), key
    assert F.counters == loop.counters
    s_got, s_want = _state(F), _state(loop)
    for key in s_want:
        assert np.array_equal(s_got[key], s_want[key]), key


def _count_record_builds(monkeypatch) -> list:
    """Record the chain length of every ``_build_owed`` call that owes records."""
    calls = []
    original = FacilityLocationFunction._build_owed

    def counted(self):
        if self._owed is not None:
            calls.append(self._owed.size)
        return original(self)

    monkeypatch.setattr(FacilityLocationFunction, "_build_owed", counted)
    return calls


def test_records_are_not_built_when_nothing_reads_them(monkeypatch):
    calls = _count_record_builds(monkeypatch)
    F = _instance("faclocation", 120, 12, False)
    F.sweep(np.random.default_rng(12).permutation(120))
    F.set_memo(())
    assert calls == []
    P = _instance("faclocation", 120, 13, True)
    lovasz_descent(P, iterations=5)
    assert calls == []
    P.sweep(np.arange(120))
    P.gain_remove(3)
    P.gain_remove(4)
    assert calls == [120]  # built once, on the first read


def test_a_sweep_does_not_keep_the_callers_order_array():
    F = _instance("faclocation", 100, 14, True)
    loop = F.clone_detached()
    loop._chain = lambda order: None
    order = np.random.default_rng(14).permutation(100)
    F.sweep(order)
    loop.sweep(order.copy())
    order.fill(0)
    s_got, s_want = _state(F), _state(loop)
    for key in s_want:
        assert np.array_equal(s_got[key], s_want[key]), key


def test_a_rebuild_after_a_sweep_drops_the_owed_records():
    F = _instance("faclocation", 100, 15, True)
    half = np.random.default_rng(15).permutation(100)[:50].tolist()
    F.sweep(np.random.default_rng(16).permutation(100))
    F.set_memo(half)
    fresh = F.clone_detached()
    assert [F.gain_remove(j) for j in half] == [fresh.gain_remove(j) for j in half]
    s_got, s_want = _state(F), _state(fresh)
    for key in s_want:
        assert np.array_equal(s_got[key], s_want[key]), key
