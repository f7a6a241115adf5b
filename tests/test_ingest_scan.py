"""The one-pass ingest scan of a dense similarity (``graphs._scan``): its
exact-symmetry verdict is ``array_equal`` on the bits of s and s.T, -0.0 is
accepted, a NaN, an inf or a negative entry raises the message the minimum
and maximum give, and other layouts and dtypes read as before, on one usable
CPU and on two.  The tolerance test that follows a failed exact test gives
``np.allclose``'s verdict without an n x n temporary."""

import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest

from submemo.core import InputError
from submemo.functions import DispersionData, FacilityLocationData, GraphCutData
from submemo.functions import graphs
from submemo.functions.graphs import _SYM_TILE, _close_symmetric, _validated_square

SIZES = (1, 2, 127, 128, 129, 300)
WHAT = "facility location similarity"


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(graphs, "_usable_cpus", lambda: request.param)
    return request.param


def _symmetric_similarity(n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
    return 0.5 * (a + a.T)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _exact(s: np.ndarray) -> bool:
    return np.array_equal(_bits(s), _bits(s.T))


def _near_edges(n: int) -> list:
    """Rows and columns at the first band edges, the middle and the last
    partial band."""
    return sorted({0, 1, _SYM_TILE - 1, _SYM_TILE, _SYM_TILE + 1, n // 2, n - 2, n - 1} & set(range(n)))


@pytest.mark.parametrize("n", SIZES)
def test_one_flipped_bit_anywhere_gives_the_bitwise_verdict(n, cpus):
    s = _symmetric_similarity(n, seed=n)
    assert _validated_square(s, False, WHAT) == (s, True)
    assert FacilityLocationData(s).cols is s
    edges = _near_edges(n)
    for i, j in product(edges, edges):
        t = s.copy()
        t.view(np.uint64)[i, j] ^= 1
        _, exact = _validated_square(t, False, WHAT)
        assert exact == _exact(t) == (i == j)
        d = FacilityLocationData(t)
        assert (d.cols is t) == exact
        assert d.cols.tobytes() == np.ascontiguousarray(t.T).tobytes()
    t = s.copy()
    t.view(np.uint64)[n - 1, 0] ^= 1
    assert (GraphCutData(t).cols is t) == (n == 1)  # one ulp is within the tolerance


@pytest.mark.parametrize("n", [129, 300])
def test_negative_zeros_are_accepted(n, cpus):
    s = _symmetric_similarity(n, seed=1)
    s[5, 5] = -0.0
    s[3, n - 1] = s[n - 1, 3] = -0.0
    s[_SYM_TILE, 2] = s[2, _SYM_TILE] = -0.0
    for cls in (FacilityLocationData, GraphCutData):
        assert cls(s).cols is s
    s[7, n - 2], s[n - 2, 7] = -0.0, 0.0  # a -0.0 facing a 0.0
    for cls in (FacilityLocationData, GraphCutData):
        d = cls(s)
        assert not np.shares_memory(d.cols, d.similarity)
        assert d.cols.tobytes() == np.ascontiguousarray(s.T).tobytes()


NAN, NEG = (140, 30), (20, 250)  # below the diagonal, in the first band's columns; above it
# case -> (entries, message after the name); an entry given once lies on one
# side of the diagonal only, so the band that holds its mirror is asymmetric
OUT_OF_RANGE = {
    "nan": ({NAN: np.nan}, "contains non-finite entries"),
    "negative-nan": ({NAN: -np.nan}, "contains non-finite entries"),
    "+inf": ({NAN: np.inf}, "contains non-finite entries"),
    "-inf": ({NEG: -np.inf}, "contains non-finite entries"),
    "negative": ({NEG: -1.0}, "must be non-negative"),
    "negative-below-diagonal": ({NEG[::-1]: -1.0}, "must be non-negative"),
    "nan-above-diagonal": ({NAN[::-1]: np.nan}, "contains non-finite entries"),
    "tiny-negative": ({NEG: -5e-324}, "must be non-negative"),
    "nan-and-negative": ({NAN: np.nan, NEG: -1.0}, "contains non-finite entries"),
    "negative-and-nan": ({NEG: -1.0, NAN[::-1]: np.nan}, "contains non-finite entries"),
}


@pytest.mark.parametrize("symmetric", [True, False], ids=["pairs", "one-side"])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_entries_raise_the_message_of_the_minimum_and_maximum(case, symmetric, cpus):
    entries, message = OUT_OF_RANGE[case]
    s = _symmetric_similarity(300, seed=2)
    for (i, j), v in entries.items():
        s[i, j] = v
        if symmetric:
            s[j, i] = v
    for cls, what in ((FacilityLocationData, WHAT), (GraphCutData, "graph cut similarity")):
        with pytest.raises(InputError) as info:
            cls(s)
        assert str(info.value) == f"{what} {message}"
        with pytest.raises(InputError) as info:
            cls(np.asfortranarray(s))
        assert str(info.value) == f"{what} {message}"


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("layout", ["c-ordered", "f-ordered", "strided", "int", "float32"])
def test_layouts_and_dtypes_read_as_a_float64_copy_does(layout, symmetric, cpus):
    n = 300
    s = _symmetric_similarity(2 * n, seed=3)
    if layout == "int":
        s = np.round(s * 100).astype(np.int64)
    elif layout == "float32":
        s = s.astype(np.float32)
    if not symmetric:
        s[n - 1, 2] += 1
    given = {"c-ordered": s[:n, :n].copy(), "f-ordered": np.asfortranarray(s[:n, :n]),
             "strided": s[::2, ::2]}.get(layout, s[:n, :n].copy())
    want = np.array(given, dtype=float, order="C")
    for cls in (FacilityLocationData, GraphCutData):
        if cls is GraphCutData and not symmetric:
            continue
        d = cls(given)
        assert d.similarity.dtype == np.float64
        assert d.similarity.tobytes() == np.ascontiguousarray(want).tobytes()
        assert d.cols.flags.c_contiguous
        assert d.cols.tobytes() == np.ascontiguousarray(want.T).tobytes()
        assert (d.cols is d.similarity) == (symmetric and d.similarity.flags.c_contiguous)
        if layout in ("c-ordered", "f-ordered"):
            assert d.similarity is given  # a float64 array is kept
        if layout == "f-ordered":
            assert np.shares_memory(d.cols, d.similarity)  # s.T of an F-ordered s is a view


def test_shares_that_switch_often_give_the_serial_verdicts(monkeypatch):
    """Both shares clear the scan's flags while the interpreter switches
    threads every microsecond; every verdict stays the serial one."""
    monkeypatch.setattr(graphs, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(5)
    s = _symmetric_similarity(1000, seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            t = s.copy()
            i, j = (int(v) for v in rng.integers(1000, size=2))
            t[i, j] = rng.choice([np.nan, -1.0, -0.0, np.nextafter(t[i, j], 2.0)])
            bad = np.isnan(t[i, j]) or t[i, j] < 0
            if bad:
                with pytest.raises(InputError):
                    _validated_square(t, False, WHAT)
            else:
                assert _validated_square(t, False, WHAT)[1] == _exact(t)
    finally:
        sys.setswitchinterval(interval)


def test_an_empty_similarity_is_symmetric(cpus):
    s = np.zeros((0, 0))
    assert _validated_square(s, True, WHAT) == (s, True)


def _close_cases(n: int, seed: int):
    """Near-symmetric matrices, some entries negative and some near zero,
    with pairs set at, just inside and just outside the bound off either
    entry."""
    rng = np.random.default_rng(seed)
    base = _symmetric_similarity(n, seed) - 0.3
    base[rng.random((n, n)) < 0.05] = 0.0
    base = np.triu(base) + np.triu(base, 1).T
    for _ in range(40):
        t = base.copy()
        for _ in range(int(rng.integers(1, 4))):
            i, j = (int(v) for v in rng.integers(n, size=2))
            y = t[j, i]
            bound = 1e-12 + 1e-9 * abs(y)
            step = bound * rng.choice([0.5, 1.0, 1.0 + 1e-6, 2.0, 1.0 - 1e-6])
            t[i, j] = y + step * rng.choice([-1.0, 1.0])
        yield t


@pytest.mark.parametrize("n", [1, 2, 129, 300])
def test_banded_tolerance_test_is_allclose(n):
    verdicts = set()
    for t in _close_cases(n, seed=n):
        want = bool(np.allclose(t, t.T, rtol=1e-9, atol=1e-12))
        assert _close_symmetric(t) == want
        assert _close_symmetric(np.asfortranarray(t)) == want
        verdicts.add(want)
    if n > 1:
        assert verdicts == {True, False}


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cls", [GraphCutData, DispersionData], ids=lambda c: c.__name__)
def test_tolerance_fallback_makes_no_square_temporary(cls, cpus):
    n = 400
    s = _symmetric_similarity(n, seed=4)
    np.fill_diagonal(s, 0.0)
    s[0, n - 1] *= 1.0 + 1e-12
    square = s.nbytes
    assert _peak(lambda: np.allclose(s, s.T, rtol=1e-9, atol=1e-12)) > square  # what tracemalloc sees
    what = "graph cut similarity" if cls is GraphCutData else "distance matrix"
    assert _validated_square(s, True, what) == (s, False)  # any first-use import is paid here
    assert _peak(lambda: _validated_square(s, True, what)) < square
    cls(s)
