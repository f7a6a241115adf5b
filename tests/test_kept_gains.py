"""Kept batched add gains (``KeptGains``): facility location, set cover and
the sparse-load classes read gains bitwise equal to the scalar reads after any
interleaving of statistic moves, recompute exactly the candidates their reach
rule names, build the reach index on first need, and read through bounded
blocks; facility location's value oracle gathers into the kept block."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submemo import make_function, wrap_value_oracle
from submemo.functions import (
    FacilityLocationData,
    FeatureBasedData,
    MixtureFunction,
    ModularPenaltyData,
)
from submemo.functions.concave import _SparseLoadFunction
from submemo.functions.coverage import SetCoverFunction
from submemo.functions.graphs import _GAIN_BLOCK, FacilityLocationFunction
from submemo.maximize import Cardinality, Knapsack, greedy_naive, randomized_greedy

from conftest import zoo_instance

KEPT_CLASSES = (FacilityLocationFunction, SetCoverFunction, _SparseLoadFunction)
FACLOC_KINDS = ("plain", "penalised", "nested", "signed-zero", "f-ordered")
SPARSE_KINDS = ("setcover", "clustersetcover", "featurebased", "clusterconcave")
KINDS = (FACLOC_KINDS + SPARSE_KINDS + tuple(f"{k}-penalised" for k in SPARSE_KINDS)
         + tuple(f"{k}-mixture" for k in SPARSE_KINDS))


def _similarity(kind: str, n: int, seed: int) -> np.ndarray:
    """Non-negative, a third or more exact zeros, with values on a 1/8 grid
    as well as off it, so that entries tie row bests.  ``signed-zero`` gives each
    zero a random sign, so the matrix is asymmetric bit for bit;
    ``f-ordered`` is asymmetric in value and Fortran-ordered."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(n, n))
    s = a if kind == "f-ordered" else 0.5 * (a + a.T)
    grid = rng.random((n, n)) < 0.3
    grid |= grid.T
    s[grid] = np.round(s[grid] * 8.0) / 8.0
    s[s < 0.4] = 0.0
    if kind == "signed-zero":
        s[(s == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
    return np.asfortranarray(s) if kind == "f-ordered" else s


def _penalised(F, seed: int):
    return make_function(F.n, ModularPenaltyData(F, np.random.default_rng(seed).uniform(0.0, 2.0, F.n)))


def _partner(base: str) -> str:
    """The sparse kind that a ``<base>-mixture`` mixes ``base`` with."""
    return SPARSE_KINDS[(SPARSE_KINDS.index(base) + 1) % len(SPARSE_KINDS)]


def _instance(kind: str, n: int, seed: int):
    """A facility-location kind, a sparse kind, or ``<sparse kind>-penalised``
    or ``-mixture`` (a mixture with the next sparse kind, so both components
    keep gains)."""
    if kind in ("signed-zero", "f-ordered"):
        return make_function(n, FacilityLocationData(_similarity(kind, n, seed)))
    base, _, form = kind.partition("-")
    if base in SPARSE_KINDS:
        F = zoo_instance(base, n, seed=seed)
        if form == "mixture":
            return MixtureFunction([(0.5, F), (2.0, zoo_instance(_partner(base), n, seed=seed + 1))])
        return _penalised(F, seed) if form == "penalised" else F
    F = zoo_instance("faclocation", n, seed=seed)
    if kind == "nested":  # a penalty over a mixture: a three-level tree
        F = MixtureFunction([(0.5, F), (2.0, zoo_instance("setcover", n, seed=seed))])
    return F if kind == "plain" else _penalised(F, seed)


def _hex(values) -> list:
    return [float(g).hex() for g in values]


def _has_sparse_load(kind: str) -> bool:
    base, _, form = kind.partition("-")
    bases = {base, _partner(base)} if form == "mixture" else {base}
    return bool(bases & {"featurebased", "clusterconcave"})


def _assert_kept_is_fresh(F, kind: str, cands: np.ndarray) -> None:
    """The batched read equals the instance's own scalar reads, bit for bit,
    and, where the statistic is exact, a fresh clone's scalar reads too.

    A fresh clone is no reference for the sparse-load classes: a downdate
    can leave a load a few ulps off the clone's rebuilt one."""
    kept = _hex(F.gains_add(cands))
    assert kept == _hex(F.gain_add(int(j)) for j in cands)
    if not _has_sparse_load(kind):
        fresh = F.clone_detached()
        assert kept == _hex(fresh.gain_add(int(j)) for j in cands)


_STEPS = st.lists(
    st.tuples(st.sampled_from(("update", "downdate", "set_memo", "sweep", "gains_add")),
              st.integers(0, 2**31)),
    min_size=1,
    max_size=16,
)


@given(st.sampled_from(KINDS), st.integers(30, 90), st.integers(0, 2**16), _STEPS)
@settings(max_examples=200, deadline=None)
def test_kept_gains_equal_a_fresh_clones_scalar_gains(kind, n, seed, steps):
    F = _instance(kind, n, seed)
    for op, x in steps:
        rng = np.random.default_rng(x)
        members = F.memo.members
        outside = np.flatnonzero(~F.memo.mask)
        if op == "update" and outside.size:
            F.update(int(outside[x % outside.size]))
        elif op == "downdate" and members:  # a third of them undo the last update
            F.downdate(members[-1] if x % 3 == 0 else members[x % len(members)])
        elif op == "set_memo":
            size = (0, 1, 5, n // 3, n - 1, n)[x % 6]
            F.set_memo(rng.permutation(n)[:size].tolist())
        elif op == "sweep":
            F.sweep(rng.permutation(n))
            for j in rng.permutation(n)[:x % 7]:  # back below V, so there is something to read
                F.downdate(int(j))
        elif outside.size:  # a read of some candidates, repeats allowed
            F.gains_add(rng.choice(outside, size=1 + x % outside.size))
        # read a part of the candidates, so that gains left unread go stale
        # and are read later against an older snapshot
        outside = np.flatnonzero(~F.memo.mask)
        _assert_kept_is_fresh(F, kind, outside[rng.random(outside.size) < (0.5, 1.0)[x % 2]])


def _plain_similarity():
    # symmetric with a zero diagonal
    return np.array([[0.0, 0.9, 0.2, 0.5, 0.6],
                     [0.9, 0.0, 0.1, 0.3, 0.4],
                     [0.2, 0.1, 0.0, 0.8, 0.1],
                     [0.5, 0.3, 0.8, 0.0, 0.7],
                     [0.6, 0.4, 0.1, 0.7, 0.0]])


@pytest.mark.parametrize("moves", [
    ("set_memo", [1, 4], "downdate", 1),  # rows fall below candidates' entries
    ("set_memo", [], "update", 4, "downdate", 4),  # back where the first read was
    ("set_memo", [4], "update", 1, "downdate", 1),
])
def test_a_gain_kept_across_moves_is_the_fresh_gain(moves):
    F = make_function(5, FacilityLocationData(_plain_similarity()))
    ops = list(moves)
    while ops:
        op, arg = ops.pop(0), ops.pop(0)
        getattr(F, op)(arg)
        _assert_kept_is_fresh(F, "plain", np.flatnonzero(~F.memo.mask))


RUNS = {
    "naive": lambda F: greedy_naive(F, Cardinality(12)),
    "naive-knapsack": lambda F: greedy_naive(
        F, Knapsack(tuple(np.random.default_rng(F.n).uniform(0.5, 1.5, F.n)), 6.0)),
    "randomized": lambda F: randomized_greedy(F, 12, seed=F.n),
}


def _exact(res) -> tuple:
    trace = [(j, float(g).hex()) for j, g in res.trace]
    return res.members, float(res.value).hex(), trace, res.counters.as_dict(), res.stats


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("kind", KINDS)
def test_greedy_runs_identical_with_kept_and_fresh_gains(kind, run, monkeypatch):
    instances = [_instance(kind, n, seed) for n, seed in ((80, 0), (120, 1))]
    kept = [_exact(RUNS[run](F.clone_detached())) for F in instances]
    for cls in KEPT_CLASSES:
        monkeypatch.setattr(cls, "_gains_add", cls._gains_fresh)
    assert [_exact(RUNS[run](F.clone_detached())) for F in instances] == kept


def _spy_on_fresh(F, monkeypatch) -> list:
    """The ids of every ``_gains_fresh`` call on F's class, in order."""
    calls = []
    fresh = type(F)._gains_fresh

    def spy(self, idx):
        calls.append(idx.tolist())
        return fresh(self, idx)

    monkeypatch.setattr(type(F), "_gains_fresh", spy)
    return calls


def _moved(old: np.ndarray, new: np.ndarray) -> list:
    """Entries whose bits differ."""
    return [i for i in range(old.size) if old[i:i + 1].tobytes() != new[i:i + 1].tobytes()]


def _entries(F, j: int) -> set:
    if isinstance(F, SetCoverFunction):
        return set(F.data.item_slice(j).tolist())
    return set(F._entry(j)[0].tolist())


# Per rule, brute force: the snapshot a read takes, and the candidates that
# the moves since that snapshot reach.
RULES = {
    # a row whose best moved from b to b' reaches j when s_ij >= min(b, b')
    "facloc": (lambda F: F._best.copy(), lambda F, old, cands: [
        j for j in cands
        if any(F.data.similarity[i, j] >= min(old[i], F._best[i]) for i in _moved(old, F._best))]),
    # an item whose count crossed 0 reaches the sets that hold it
    "setcover": (lambda F: F._count == 0, lambda F, old, cands: [
        j for j in cands if _entries(F, j) & set(_moved(old, F._count == 0))]),
    # a bucket whose load changed bits reaches the elements that load it
    "sparse": (lambda F: F._load.copy(), lambda F, old, cands: [
        j for j in cands if _entries(F, j) & set(_moved(old, F._load))]),
}
REACH_KINDS = {"plain": "facloc", "signed-zero": "facloc", "f-ordered": "facloc",
               "setcover": "setcover", "clustersetcover": "setcover",
               "featurebased": "sparse", "clusterconcave": "sparse"}


@pytest.mark.parametrize("kind", sorted(REACH_KINDS))
@pytest.mark.parametrize("seed", range(4))
def test_a_read_recomputes_exactly_the_candidates_a_move_reaches(kind, seed, monkeypatch):
    # ``valid`` follows the rule by brute force: a read reaches ids from the
    # snapshot the last read took, members included, so a member that
    # leaves keeps its gain when nothing reached it since it was read
    n = 60
    F = _instance(kind, n, seed)
    snapshot, reached = RULES[REACH_KINDS[kind]]
    rng = np.random.default_rng(seed)
    calls = _spy_on_fresh(F, monkeypatch)
    valid, old = set(), snapshot(F)
    for step in range(24):
        outside = np.flatnonzero(~F.memo.mask).tolist()
        calls.clear()
        F.gains_add(outside)
        valid -= set(reached(F, old, range(n)))
        assert [j for call in calls for j in call] == [j for j in outside if j not in valid], step
        valid |= set(outside)
        calls.clear()
        F.gains_add(outside)  # nothing moved since
        assert calls == []
        old = snapshot(F)
        move = ("update", "update", "downdate", "update", "update", "set_memo")[step % 6]
        if move == "update":
            F.update(int(rng.choice(outside)))
        elif move == "downdate":
            F.downdate(F.memo.members[int(rng.integers(len(F.memo)))])
        else:
            F.set_memo(rng.permutation(n)[:int(rng.integers(1, n // 2))].tolist())
            if REACH_KINDS[kind] == "facloc":  # a rebuild drops the kept gains
                valid = set()


def test_a_zero_that_only_changes_sign_counts_as_a_move(monkeypatch):
    # column 0 is +0.0 and column 1 is -0.0 everywhere: every record of {0, 1}
    # is a zero that no member beats, so it is +0.0 and unowned, and dropping
    # 0 moves nothing.  No move leaves a -0.0 record, so the sign is flipped
    # by hand: that changes no value and must still count as a move
    S = np.random.default_rng(5).uniform(0.5, 1.0, size=(8, 8))
    S[:, 0], S[:, 1] = 0.0, -0.0
    F = make_function(8, FacilityLocationData(S))
    F.set_memo([0, 1])
    assert not np.signbit(F._best).any() and (F._arg == -1).all()
    cands = np.arange(2, 8)
    F.gains_add(cands)
    calls = _spy_on_fresh(F, monkeypatch)
    F.downdate(0)
    F.gains_add(cands)
    assert calls == []
    F._best[:] = -0.0
    F.gains_add(cands)
    assert calls == [cands.tolist()]


def test_a_downdate_residual_counts_as_a_move(monkeypatch):
    # bucket 0 is loaded by elements 0 and 1 and read by 2 and 3; adding and
    # then removing 0.1 and 0.2 leaves it at 2**-55, not 0
    lists = [([0], [0.1]), ([0], [0.2]), ([0, 1], [1.0, 1.0]), ([0], [2.0]), ([1], [3.0])]
    F = make_function(5, FeatureBasedData(lists, num_features=2))
    cands = np.arange(2, 5)
    F.gains_add(cands)
    calls = _spy_on_fresh(F, monkeypatch)
    for op, j in (("update", 0), ("update", 1), ("downdate", 0), ("downdate", 1)):
        getattr(F, op)(j)
    assert F._load.tolist() == [2.0**-55, 0.0]
    _assert_kept_is_fresh(F, "featurebased", cands)
    assert calls == [[2, 3]]
    assert F.gains_add(cands)[1] != np.sqrt(2.0)  # the residual reaches the gain


@pytest.mark.parametrize("kind", SPARSE_KINDS)
def test_the_reach_index_and_kept_gains_are_built_on_first_need(kind):
    F = _instance(kind, 60, 2)
    assert F._kept is None and F._holders is None
    F.gains_add(np.arange(60))  # nothing has moved since the snapshot it takes
    assert F._kept is not None and F._holders is None
    for G in (F._spawn(), F.clone_detached()):
        assert G._kept is None and G._holders is None
    F.update(0)
    F.gains_add(np.arange(1, 60))
    assert F._holders is not None


def test_the_staleness_read_stays_within_two_blocks():
    n = 600
    rng = np.random.default_rng(9)
    a = rng.uniform(0.0, 1.0, size=(n, n))
    F = make_function(n, FacilityLocationData(0.5 * (a + a.T)))
    F.gains_add(np.arange(n))  # the kept arrays exist from here on
    F.update(7)  # every row moves off 0
    assert (F._best > 0.0).all()
    cands = np.flatnonzero(~F.memo.mask)
    tracemalloc.start()
    try:
        F.gains_add(cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = _GAIN_BLOCK * n * 8
    assert peak < 2 * block + 32 * 8 * n, (peak, block)


def _gathered_evaluate(cols: np.ndarray, idx: np.ndarray) -> float:
    """A value-oracle call as it read with a fresh gather per block."""
    if idx.size == 0:
        return 0.0
    best = cols[idx[:_GAIN_BLOCK]].max(axis=0)
    for lo in range(_GAIN_BLOCK, idx.size, _GAIN_BLOCK):
        np.maximum(best, cols[idx[lo:lo + _GAIN_BLOCK]].max(axis=0), out=best)
    return float(best.sum())


@pytest.mark.parametrize("kind", ["plain", "signed-zero", "f-ordered"])
@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 450])
def test_a_value_oracle_call_reads_the_kept_block(kind, size):
    n = 600
    F = _instance(kind, n, size)
    idx = np.random.default_rng(size).permutation(n)[:size]
    vo = wrap_value_oracle(F)
    want = _gathered_evaluate(F.data.cols, idx)
    assert float(F.evaluate(idx)).hex() == float(vo.evaluate(idx)).hex() == want.hex()
    tracemalloc.start()
    try:
        vo.evaluate(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _GAIN_BLOCK * n * 8 // 4, peak  # a few n-float rows, no 64 x n gather
