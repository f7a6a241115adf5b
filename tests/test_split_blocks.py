"""Facility location's blocked reads split across a worker thread
(``graphs._split_blocks``): every gain and top-2 record is bitwise the
serial one, one usable CPU starts no thread, a forked child reads as its
parent does, and an exception in either share reaches the caller only after
the other share has finished."""

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from submemo import make_function
from submemo.functions import FacilityLocationData, MixtureFunction, ModularPenaltyData
from submemo.functions import graphs
from submemo.functions.graphs import _GAIN_BLOCK, FacilityLocationFunction, _split_blocks

SIZES = (64, 65, 128, 129, 300)
KINDS = ("plain", "penalised", "mixture")
RECORDS = ("_best", "_second", "_arg", "_arg2")


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _similarity(n: int, seed: int) -> np.ndarray:
    """Symmetric and positive, with a third of the entries on a 1/8 grid so
    that members tie on rows: every member holds a record on every row."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.05, 1.0, size=(n, n))
    s = 0.5 * (a + a.T)
    grid = rng.random((n, n)) < 0.3
    grid |= grid.T
    s[grid] = np.maximum(np.round(s[grid] * 8.0), 1.0) / 8.0
    return s


def _instance(kind: str, n: int):
    F = make_function(n, FacilityLocationData(_similarity(n, n)))
    if kind == "mixture":
        G = make_function(n, FacilityLocationData(_similarity(n, n + 1)))
        return MixtureFunction([(0.5, F), (2.0, G)])
    if kind == "penalised":
        return make_function(n, ModularPenaltyData(F, np.random.default_rng(n).uniform(0.0, 2.0, n)))
    return F


def _faclocs(F) -> list:
    if isinstance(F, FacilityLocationFunction):
        return [F]
    return [c for _, child in getattr(F, "components", ()) for c in _faclocs(child)]


def _script(F) -> list:
    """Every batched read and record build the split serves, each output
    checked against the scalar hooks; returns the outputs and the records
    after each step as bytes."""
    n, rng = F.n, np.random.default_rng(7)
    out = []

    def step(*arrays):
        out.append([a.tobytes() for a in arrays])
        out.append([getattr(G, name).tobytes() for G in _faclocs(F) for name in RECORDS])

    def read_gains():
        free = np.flatnonzero(~F.memo.mask)
        gains = F.gains_add(free)
        assert [g.hex() for g in gains.tolist()] == [F._gain_add(j).hex() for j in free.tolist()]
        step(gains)

    read_gains()  # a fresh read of every column
    singles = F.gains_singleton(np.arange(n))
    assert [g.hex() for g in singles.tolist()] == [F._singleton(j).hex() for j in range(n)]
    step(singles)
    F.set_memo(range(n))  # a full rebuild: every row, n members
    step()
    F.set_memo(rng.choice(n, n // 3, replace=False).tolist())
    read_gains()
    F.sweep(rng.permutation(n))  # records owed, built by the removal read
    members = F.memo.to_indices()[: n // 2]
    step(F.gains_remove(members))
    a, b, c = rng.choice(n, 3, replace=False).tolist()
    for kept, drop in (([a, b], a), ([a, b, c], b)):  # all rows, then scattered rows
        F.set_memo(kept)
        read_gains()
        repaired = [np.flatnonzero((G._arg == drop) | (G._arg2 == drop)).size for G in _faclocs(F)]
        if len(kept) == 2 and n > _GAIN_BLOCK:
            assert min(repaired) > _GAIN_BLOCK
        F.downdate(drop)
        step()
        F.update(int(np.flatnonzero(~F.memo.mask)[0]))
        read_gains()
    return out


def _worker_alive() -> bool:
    return any(t.name.startswith("submemo-blocks") for t in threading.enumerate())


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_split_reads_and_records_are_bitwise_the_serial_ones(kind, n, monkeypatch):
    _cpus(monkeypatch, 1)
    serial = _script(_instance(kind, n))
    _cpus(monkeypatch, 2)
    split = _script(_instance(kind, n))
    assert split == serial
    assert _worker_alive() or n <= _GAIN_BLOCK  # below two blocks nothing splits


def test_instances_driven_from_several_threads_share_the_worker(monkeypatch):
    _cpus(monkeypatch, 1)
    want = _script(_instance("mixture", 129))
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(graphs, "_pool", None)  # the threads race to make it
    got = [None] * 4

    def run(t):
        got[t] = _script(_instance("mixture", 129))

    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * len(got)


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(graphs, "_pool", None)
    F = _instance("plain", 1500)
    before = threading.active_count()
    F.gains_add(np.arange(1500))
    F.gains_singleton(np.arange(1500))
    F.set_memo(range(1500))
    assert threading.active_count() == before
    assert graphs._pool is None


def test_a_forked_child_reads_as_its_parent(monkeypatch):
    _cpus(monkeypatch, 2)
    F = _instance("plain", 300)
    want = F.gains_add(np.arange(300)).tobytes()  # the pool exists now
    assert _worker_alive()
    F.set_memo(())
    read, write = os.pipe()
    with warnings.catch_warnings():  # newer Pythons warn on a fork beside threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            signal.alarm(20)  # a child that waits on its parent's thread dies
            os.write(write, F.gains_add(np.arange(300)).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    got = b""
    with os.fdopen(read, "rb") as pipe:
        got = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == want


class _Boom(Exception):
    pass


@pytest.mark.parametrize("raiser", ["caller", "worker"])
def test_an_exception_in_either_share_waits_for_the_other(raiser, monkeypatch):
    _cpus(monkeypatch, 2)
    caller = threading.get_ident()
    done = []

    def body(lo, hi, sub):
        mine = "caller" if threading.get_ident() == caller else "worker"
        if mine == raiser:
            raise _Boom(mine)
        time.sleep(0.05)
        done.append(lo)

    with pytest.raises(_Boom, match=raiser):
        _split_blocks(4 * _GAIN_BLOCK, 3, np.empty((_GAIN_BLOCK, 3)), body)
    # the caller runs blocks 0 and 1, the worker 2 and 3; none raised in the
    # other share, which ran to its end
    other = [0, _GAIN_BLOCK] if raiser == "worker" else [2 * _GAIN_BLOCK, 3 * _GAIN_BLOCK]
    assert done == other


def test_the_shares_cover_every_block_once(monkeypatch):
    _cpus(monkeypatch, 2)
    for count in (0, 1, _GAIN_BLOCK, _GAIN_BLOCK + 1, 5 * _GAIN_BLOCK - 3):
        seen = np.zeros(count, dtype=int)
        shapes = []

        def body(lo, hi, sub):
            seen[lo:hi] += 1
            shapes.append(sub.shape == (hi - lo, 5) and sub.flags.c_contiguous)

        _split_blocks(count, 5, np.empty((_GAIN_BLOCK, 7)), body)
        assert (seen == 1).all() and all(shapes)
