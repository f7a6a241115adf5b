"""The per-element contract path: every bad id or broken precondition raises
as ``_check_id`` and the memo checks say, and leaves counters, memo and
statistic untouched; ``Subset(n, members)`` builds exactly what adding the
members one by one builds."""

import pickle

import numpy as np
import pytest

from submemo.bounds import extreme_point, subgradient_at
from submemo.core import InputError, PreconditionError, Subset, _check_id, wrap_value_oracle
from submemo.maximize import bidirectional_greedy

from conftest import zoo_instance

N = 12
MEMO = [2, 5, 7]  # the memo every case starts from
BAD_IDS = (-1, N, np.int64(N), 1.0, "3", None)
OUTSIDE, INSIDE = 4, 5  # a non-memoized and a memoized id


def _instance(mode: str, kind: str):
    F = zoo_instance(kind, N, seed=3)
    if mode == "vo":
        F = wrap_value_oracle(F)
    F.set_memo(MEMO)
    F.reset_counters()
    return F


def _snapshot(F) -> dict:
    out = {f"stat.{k}": np.array(v, copy=True) for k, v in F._statistic().items()}
    out["counters"] = F.counters.as_dict()
    out["members"] = list(F.memo.members)
    out["mask"] = F.memo.mask.copy()
    return out


def _assert_same(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def _bad_id_message(j) -> str:
    with pytest.raises(InputError) as info:
        _check_id(j, N)
    return str(info.value)


# method -> (call, the id that breaks its memo precondition or None)
METHODS = {
    "gain_add": (lambda F, j: F.gain_add(j), INSIDE),
    "gain_remove": (lambda F, j: F.gain_remove(j), OUTSIDE),
    "gain_singleton": (lambda F, j: F.gain_singleton(j), None),
    "update": (lambda F, j: F.update(j), INSIDE),
    "downdate": (lambda F, j: F.downdate(j), OUTSIDE),
    # gains_add's row; its key keeps the parametrised test ids stable
    "gains_ahead": (lambda F, j: F.gains_add([OUTSIDE, j]).tolist(), INSIDE),
    "set_memo": (lambda F, j: F.set_memo([0, j]), 0),  # a repeat breaks it
    "Subset.add": (lambda F, j: F.memo.add(j), INSIDE),
    "Subset.remove": (lambda F, j: F.memo.remove(j), OUTSIDE),
}
KINDS = ("faclocation", "setcover")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["pm", "vo"])
@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("bad", range(len(BAD_IDS)))
def test_a_bad_id_raises_and_changes_nothing(kind, mode, method, bad):
    j = BAD_IDS[bad]
    F = _instance(mode, kind)
    before = _snapshot(F)
    with pytest.raises(InputError) as info:
        METHODS[method][0](F, j)
    assert type(info.value) is InputError
    assert str(info.value) == _bad_id_message(j)
    _assert_same(_snapshot(F), before)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["pm", "vo"])
@pytest.mark.parametrize("method", sorted(m for m, (_, j) in METHODS.items() if j is not None))
def test_a_broken_memo_precondition_raises_and_changes_nothing(kind, mode, method):
    call, j = METHODS[method]
    F = _instance(mode, kind)
    before = _snapshot(F)
    with pytest.raises(PreconditionError, match=f"element {j} "):
        call(F, j)
    _assert_same(_snapshot(F), before)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["pm", "vo"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_bool_and_numpy_ids_are_accepted_as_plain_ints(kind, mode, method):
    call = METHODS[method][0]
    for odd, plain in ((True, 1), (np.int64(3), 3)):
        if method in ("gain_remove", "downdate", "Subset.remove"):
            memo = MEMO + [plain]
        else:
            memo = MEMO
        got, want = _instance(mode, kind), _instance(mode, kind)
        got.set_memo(memo)
        want.set_memo(memo)
        a, b = call(got, odd), call(want, plain)
        assert a == b and (a is None or type(a) is type(b))
        _assert_same(_snapshot(got), _snapshot(want))
        assert all(type(m) is int for m in got.memo.members)


# ---------------------------------------------------------------------------
# Subset construction against the member-by-member loop
# ---------------------------------------------------------------------------


def _reference(n: int, members):
    """What adding the members one at a time gives: (members, mask) or the error."""
    out, mask = [], np.zeros(n, dtype=bool)
    for j in members:
        if not isinstance(j, (int, np.integer)):
            raise InputError(f"element id must be an integer, got {j!r}")
        if not 0 <= j < n:
            raise InputError(f"element id {j} out of range [0, {n})")
        j = int(j)
        if mask[j]:
            raise PreconditionError(f"element {j} already in subset")
        out.append(j)
        mask[j] = True
    return out, mask


SUBSET_INPUTS = {
    "list": lambda: [4, 0, 9, 3],
    "tuple": lambda: (1, 2),
    "range": lambda: range(2, 10, 3),
    "generator": lambda: (j for j in (8, 1, 5)),
    "set": lambda: {6, 2, 11},
    "empty-list": lambda: [],
    "empty-tuple": lambda: (),
    "empty-array": lambda: np.empty(0, dtype=np.intp),
    "intp-array": lambda: np.array([7, 3, 0], dtype=np.intp),
    "int32-array": lambda: np.array([11, 10, 2], dtype=np.int32),
    "uint8-array": lambda: np.array([5, 4], dtype=np.uint8),
    "numpy-ints": lambda: [np.int64(3), np.int32(1)],
    "bools": lambda: [True, False],
    "bool-array": lambda: np.array([True, False]),
    "float-array": lambda: np.array([1.0, 2.0]),
    "out-of-range-then-repeat": lambda: [3, 12, 3, 3],
    "repeat-then-out-of-range": lambda: [3, 3, 12],
    "negative-then-repeat": lambda: np.array([1, -1, 1]),
    "repeat-then-negative": lambda: np.array([1, 1, -1]),
    "repeat-then-float": lambda: [0, 0, 1.5],
    "float-then-repeat": lambda: [1.5, 0, 0],
    "repeat-then-string": lambda: (j for j in [2, 2, "3"]),
    "none": lambda: [4, None],
    "huge": lambda: [2**70],
    "beyond-int64": lambda: [1, 2**63],
    "ragged": lambda: [[1], [1, 2]],
    "nested": lambda: [[1, 2], [3, 4]],
}


def _double_greedy(F, order):
    res = bidirectional_greedy(F, order=order)
    return res.members, res.value


# calls that take a whole visiting order, each returning something comparable
ORDER_CALLS = {
    "sweep": lambda F, order: F.sweep(order).tolist(),
    "extreme_point": lambda F, order: extreme_point(F, order).weights.tolist(),
    "subgradient_at-tie-order": lambda F, order: subgradient_at(F, MEMO, tie_order=order).weights.tolist(),
    "bidirectional_greedy": _double_greedy,
}
# order -> exact message; the first two would truncate to the permutation N-1, ..., 0
NOT_A_PERMUTATION = "order must be a permutation of all element ids"
BAD_ORDERS = {
    "fractions": ([j + 0.5 for j in reversed(range(N))], "order must list integer element ids, got dtype float64"),
    "whole-floats": (np.arange(N, dtype=float), "order must list integer element ids, got dtype float64"),
    "strings": ([str(j) for j in range(N)], "order must list integer element ids, got dtype <U2"),
    "repeat": ([0] * N, NOT_A_PERMUTATION),
    "short": (list(range(N - 1)), NOT_A_PERMUTATION),
    "out-of-range": (list(range(1, N + 1)), NOT_A_PERMUTATION),
    "wrapped-uint64": (np.array([2**64 - 1] + list(range(1, N)), dtype=np.uint64), NOT_A_PERMUTATION),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["pm", "vo"])
@pytest.mark.parametrize("call", sorted(ORDER_CALLS))
@pytest.mark.parametrize("order", sorted(BAD_ORDERS))
def test_a_bad_order_raises_and_changes_nothing(kind, mode, call, order):
    bad, message = BAD_ORDERS[order]
    F = _instance(mode, kind)
    before = _snapshot(F)
    with pytest.raises(InputError) as info:
        ORDER_CALLS[call](F, bad)
    assert str(info.value) == message
    _assert_same(_snapshot(F), before)


@pytest.mark.parametrize("call", sorted(ORDER_CALLS))
def test_integer_orders_of_any_width_are_accepted(call):
    want = ORDER_CALLS[call](_instance("pm", "setcover"), list(range(N))[::-1])
    for dtype in (np.int32, np.uint8, np.uint64):
        assert ORDER_CALLS[call](_instance("pm", "setcover"), np.arange(N)[::-1].astype(dtype)) == want



@pytest.mark.parametrize("case", sorted(SUBSET_INPUTS))
def test_subset_construction_equals_adding_one_by_one(case):
    make = SUBSET_INPUTS[case]
    try:
        want = _reference(N, make())
    except InputError as e:
        with pytest.raises(type(e)) as info:
            Subset(N, make())
        assert type(info.value) is type(e) and str(info.value) == str(e)
        return
    sub = Subset(N, make())
    assert sub.members == want[0]
    assert all(type(j) is int for j in sub.members)
    assert sub.mask.dtype == bool and np.array_equal(sub.mask, want[1])
    assert sub == Subset(N, want[0])
    twin = sub.copy()
    assert twin == sub and twin.members == sub.members
    spare = next(j for j in range(N) if j not in sub)
    twin.add(spare)
    assert spare not in sub and len(sub) == len(want[0])
    twin.mask[spare] = False  # writes through the copy's mask
    if want[0]:
        twin.mask[want[0][0]] = False
    assert np.array_equal(sub.mask, want[1]) and sub == Subset(N, want[0])
    sub.add(spare)
    assert sub.mask[spare] and spare in sub  # the mask is a live view


def test_subset_survives_a_pickle_round_trip():
    sub = Subset(N, [9, 2, 4])
    back = pickle.loads(pickle.dumps(sub))
    assert back == sub and back.members == [9, 2, 4]
    back.add(0)
    assert back.mask[0] and 0 not in sub


@pytest.mark.parametrize("mode", ["pm", "vo"])
def test_set_memo_keeps_its_own_copy_of_a_subset(mode):
    F = _instance(mode, "faclocation")
    X = Subset(N, [1, 8])
    F.set_memo(X)
    X.add(3)
    X.remove(1)
    assert F.memo.members == [1, 8] and list(np.flatnonzero(F.memo.mask)) == [1, 8]
    F.update(0)
    assert X.members == [8, 3]
