"""Booked calls: a batched read or a chained sweep books one public scalar
call per charged gain only when something observes those methods."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from submemo import SubmodularFunction
from submemo.functions import ModularPenaltyData, make_function

from conftest import ALL_KINDS, zoo_instance

ROOT = Path(__file__).resolve().parents[1]
PUBLIC = ("gain_add", "gain_remove", "gain_singleton", "update")
SCALAR = {"gains_add": "gain_add", "gains_remove": "gain_remove", "gains_singleton": "gain_singleton"}


def _instance(kind: str, n: int, seed: int, penalised: bool):
    F = zoo_instance(kind, n, seed=seed)
    if penalised:
        F = make_function(n, ModularPenaltyData(F, np.random.default_rng(seed).uniform(0.0, 2.0, n)))
    return F


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _reads(F, members, order):
    """The three batched reads at ``members`` and one sweep along ``order``,
    each paired with the hook that computes it in one call."""
    outside = [j for j in range(F.n) if j not in members]
    return (
        ("gains_add", "_gains_add", outside + outside[:2]),
        ("gains_remove", "_gains_remove", members + members[:1]),
        ("gains_singleton", "_singletons", list(range(F.n))),
        ("sweep", "_chain", order),
    )


def _run(F, members, name, ids):
    F.set_memo(members)
    got = getattr(F, name)(ids)
    return [g.hex() for g in got.tolist()]


def _count_public_calls(fn):
    """``fn()`` under ``sys.setprofile``: the result, and every call of the
    public scalar methods as ``SubmodularFunction`` defines them, as
    (method, whether ``_booking`` was set) pairs.  Profiling, unlike a
    patched spy, leaves the methods in place."""
    codes = {getattr(SubmodularFunction, name).__code__: name for name in PUBLIC}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append((codes[frame.f_code], frame.f_locals["self"]._booking))

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unobserved_reads_book_nothing(kind, penalised):
    n = 24
    F = _instance(kind, n, 3, penalised)
    members = [4, 11, 2, 19]
    order = np.random.default_rng(3).permutation(n)
    for name, hook, ids in _reads(F, members, order):
        probe = F.clone_detached()
        if name == "sweep":
            probe.set_memo(())
            batched = probe._chain(np.asarray(order)) is not None
        else:
            probe.set_memo(members)
            batched = getattr(probe, hook)(np.asarray(ids, dtype=np.intp)) is not None
        scalar = F.clone_detached()
        want = _run(scalar, members, name, ids)
        before = F.counters.copy()
        got, calls = _count_public_calls(lambda: _run(F, members, name, ids))
        assert got == want
        assert F.counters - before == scalar.counters
        # a batch computed by its hook calls no public scalar method; a
        # per-id loop calls one for each id, each computing its gain
        assert not any(booked for _, booked in calls), (name, calls[:3])
        if batched:
            assert calls == [], name
        else:
            assert len(calls) == len(ids) * (2 if name == "sweep" else 1), name
        assert not F._booking


def _spy_on_public_calls(monkeypatch) -> list:
    """Record (method, id) for every public scalar call, patched on the
    classes as the benchmark's tracer patches them."""
    calls = []
    for cls in (SubmodularFunction, *_subclasses(SubmodularFunction)):
        for name in PUBLIC:
            own = cls.__dict__.get(name)
            if own is not None:
                def spy(self, j, _own=own, _name=name):
                    calls.append((_name, j))
                    return _own(self, j)
                monkeypatch.setattr(cls, name, spy)
    return calls


@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("kind", ["faclocation", "featurebased", "clusterconcave", "setcover",
                                  "logdet", "mixture"])
def test_a_spy_books_and_moves_no_counter(kind, penalised, monkeypatch):
    n = 30
    members = [0, 7, 21]
    order = np.random.default_rng(5).permutation(n)
    plain, spied = _instance(kind, n, 5, penalised), _instance(kind, n, 5, penalised)
    want = [(_run(plain, members, name, ids), plain.counters.copy())
            for name, _, ids in _reads(plain, members, order)]
    calls = _spy_on_public_calls(monkeypatch)
    got = []
    for name, _, ids in _reads(spied, members, order):
        del calls[:]
        got.append((_run(spied, members, name, ids), spied.counters.copy()))
        if name == "sweep":
            assert calls == [(m, j) for j in order.tolist() for m in ("gain_add", "update")]
        else:
            assert calls == [(SCALAR[name], j) for j in ids]
    assert got == want


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("kind", ["faclocation", "featurebased", "setcover"])
def test_the_tracer_counts_one_call_per_charge(kind, penalised):
    n = 40
    F = _instance(kind, n, 9, penalised)
    F.set_memo([3, 8, 30])
    cands = [j for j in range(n) if j not in F.memo] + [5, 5]
    order = np.random.default_rng(9).permutation(n)
    tracer = _tracer()
    tracer.install()
    try:
        for i, run in enumerate((lambda: F.gains_add(cands), lambda: F.sweep(order))):
            tracer.clear()
            before = F.counters.copy()
            tracer.solve_span(i, "read", run)
            charged = F.counters - before
            calls = tracer.summary()["op_calls"]
            assert charged.gain_evals == (len(cands) if i == 0 else n)
            assert calls.get("core.gain_add", 0) == charged.gain_evals
            assert calls.get("core.update", 0) == charged.memo_updates
    finally:
        tracer.uninstall()
    # uninstalled, the same reads book nothing again
    F.set_memo([3, 8, 30])
    _, calls = _count_public_calls(lambda: (F.gains_add(cands), F.sweep(order)))
    assert calls == []
