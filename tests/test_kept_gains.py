"""Facility location's kept batched gains: bitwise the scalar reads after any
interleaving of statistic moves, recomputed exactly where a move can reach,
and read through a bounded block."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submemo import make_function
from submemo.functions import FacilityLocationData, MixtureFunction, ModularPenaltyData
from submemo.functions.graphs import _GAIN_BLOCK, FacilityLocationFunction
from submemo.maximize import Cardinality, Knapsack, greedy_naive, randomized_greedy

from conftest import zoo_instance

KINDS = ("plain", "penalised", "nested", "signed-zero", "f-ordered")


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


def _instance(kind: str, n: int, seed: int):
    if kind in ("signed-zero", "f-ordered"):
        return make_function(n, FacilityLocationData(_similarity(kind, n, seed)))
    F = zoo_instance("faclocation", n, seed=seed)
    if kind == "nested":  # a penalty over a mixture: a three-level tree
        F = MixtureFunction([(0.5, F), (2.0, zoo_instance("setcover", n, seed=seed))])
    if kind != "plain":
        F = make_function(n, ModularPenaltyData(F, np.random.default_rng(seed).uniform(0.0, 2.0, n)))
    return F


def _hex(values) -> list:
    return [float(g).hex() for g in values]


def _assert_kept_is_fresh(F, cands: np.ndarray) -> None:
    fresh = F.clone_detached()
    assert _hex(F.gains_add(cands)) == _hex(fresh.gain_add(int(j)) for j in cands)


_STEPS = st.lists(
    st.tuples(st.sampled_from(("update", "downdate", "set_memo", "sweep", "gains_add")),
              st.integers(0, 2**31)),
    min_size=1,
    max_size=16,
)


@given(st.sampled_from(KINDS), st.integers(30, 90), st.integers(0, 2**16), _STEPS)
@settings(max_examples=60, deadline=None)
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
        _assert_kept_is_fresh(F, outside[rng.random(outside.size) < (0.5, 1.0)[x % 2]])


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
        _assert_kept_is_fresh(F, np.flatnonzero(~F.memo.mask))


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
    monkeypatch.setattr(FacilityLocationFunction, "_gains_add", FacilityLocationFunction._gains_fresh)
    assert [_exact(RUNS[run](F.clone_detached())) for F in instances] == kept


def _spy_on_fresh(monkeypatch) -> list:
    """The ids of every ``_gains_fresh`` call, in order."""
    calls = []
    fresh = FacilityLocationFunction._gains_fresh

    def spy(self, idx):
        calls.append(idx.tolist())
        return fresh(self, idx)

    monkeypatch.setattr(FacilityLocationFunction, "_gains_fresh", spy)
    return calls


def _reached(S: np.ndarray, old: np.ndarray, new: np.ndarray, cands) -> list:
    """Brute force: candidates j with s_ij >= min(old_i, new_i) on some row i
    whose best changed bit for bit."""
    moved = [i for i in range(S.shape[0]) if old[i:i + 1].tobytes() != new[i:i + 1].tobytes()]
    return sorted(j for j in cands if any(S[i, j] >= min(old[i], new[i]) for i in moved))


@pytest.mark.parametrize("kind", ["plain", "signed-zero", "f-ordered"])
@pytest.mark.parametrize("seed", range(4))
def test_a_read_recomputes_exactly_the_candidates_a_move_reaches(kind, seed, monkeypatch):
    n = 60
    F = _instance(kind, n, seed)
    S = F.data.similarity
    rng = np.random.default_rng(seed)
    calls = _spy_on_fresh(monkeypatch)
    F.gains_add(np.arange(n))  # gains kept at the empty set
    move = "set_memo"
    F.set_memo(rng.permutation(n)[:n // 4].tolist())
    for step in range(16):
        outside = np.flatnonzero(~F.memo.mask)
        calls.clear()
        F.gains_add(outside)
        # after set_memo, every candidate; otherwise what the last move
        # reached, and a downdated member, whose gain was never read
        want = set(outside.tolist())
        if move != "set_memo":
            want = want - read | set(_reached(S, old, F._best, outside))
        assert sorted(j for call in calls for j in call) == sorted(want), move
        read = set(outside.tolist())
        calls.clear()
        F.gains_add(outside)  # nothing moved since
        assert calls == []
        old = F._best.copy()
        move = ("update", "update", "downdate", "update", "update", "set_memo")[step % 6]
        if move == "update":
            F.update(int(rng.choice(outside)))
        elif move == "downdate":
            F.downdate(F.memo.members[int(rng.integers(len(F.memo)))])
        else:
            F.set_memo(rng.permutation(n)[:int(rng.integers(1, n // 2))].tolist())


def test_a_zero_that_only_changes_sign_counts_as_a_move(monkeypatch):
    # column 0 is +0.0 and column 1 is -0.0 everywhere: dropping 0 from {0, 1}
    # turns every row's best from +0.0 into -0.0 and changes no value
    S = np.random.default_rng(5).uniform(0.5, 1.0, size=(8, 8))
    S[:, 0], S[:, 1] = 0.0, -0.0
    F = make_function(8, FacilityLocationData(S))
    F.set_memo([0, 1])
    cands = np.arange(2, 8)
    F.gains_add(cands)
    calls = _spy_on_fresh(monkeypatch)
    F.downdate(0)
    assert F._best.tolist() == [0.0] * 8 and np.signbit(F._best).all()
    F.gains_add(cands)
    assert calls == [cands.tolist()]


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
