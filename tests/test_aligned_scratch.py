"""Facility location's written scratch starts on a cache line, the scalar
gain's kept zero row gives the bits of the scalar ``0.0`` form, and the
value oracle reduces into kept rows with the bits of fresh ones."""

import tracemalloc

import numpy as np
import pytest

from submemo import make_function
from submemo.functions import FacilityLocationData
from submemo.functions.graphs import _GAIN_BLOCK, _LINE, _aligned_empty

SCRATCH = ("_block", "_buf", "_row", "_zeros")


def _facloc(n: int, seed: int, signed_zeros: bool = False):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(n, n))
    s = 0.5 * (a + a.T)
    s[s < 0.4] = 0.0
    if signed_zeros:  # asymmetric bit for bit, so cols is a transposed copy
        s[(s == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
    return make_function(n, FacilityLocationData(s))


def _assert_aligned_scratch(F) -> None:
    n = F.n
    for name in SCRATCH:
        a = getattr(F, name)
        assert a.ctypes.data % _LINE == 0, name
        assert a.dtype == np.float64 and a.flags.c_contiguous, name
    assert F._block.shape == (_GAIN_BLOCK, n)  # rows are not padded
    assert F._buf.shape == F._row.shape == F._zeros.shape == (n,)
    assert not F._zeros.any() and not np.signbit(F._zeros).any()


@pytest.mark.parametrize("shape", [1, 7, 8, 1500, (1, 1), (_GAIN_BLOCK, 7), (_GAIN_BLOCK, 1500)])
def test_aligned_empty_starts_on_a_line(shape):
    # the allocator's own offset varies with what was allocated before
    keep = [np.empty(k) for k in range(1, 9)]
    for _ in range(8):
        a = _aligned_empty(shape)
        assert a.ctypes.data % _LINE == 0
        assert a.shape == np.empty(shape).shape and a.dtype == np.float64 and a.flags.c_contiguous
        keep.append(np.empty(1))


@pytest.mark.parametrize("n", [1, 7, 1500])
def test_scratch_is_aligned_after_make_spawn_and_clone(n):
    F = _facloc(n, n)
    _assert_aligned_scratch(F)
    _assert_aligned_scratch(F._spawn())
    F.set_memo(range(0, n, 3))
    _assert_aligned_scratch(F.clone_detached())


@pytest.mark.parametrize("signed_zeros", [False, True])
@pytest.mark.parametrize("n", [1, 7, 130])
def test_scalar_gain_is_the_scalar_zero_form_bitwise(n, signed_zeros):
    F = _facloc(n, 40 + n, signed_zeros)
    rng = np.random.default_rng(n)
    for members in ([], rng.choice(n, max(1, n // 4), replace=False), rng.permutation(n)[:-1]):
        F.set_memo(members.tolist() if isinstance(members, np.ndarray) else members)
        cols, best = F.data.cols, F._best
        for j in np.flatnonzero(~F.memo.mask).tolist():
            want = float(np.add.reduce(np.maximum(cols[j] - best, 0.0)))
            assert F.gain_add(j).hex() == want.hex()
    assert not F._zeros.any()  # the read-only zero row stays +0.0


def _evaluate_fresh(cols, idx) -> float:
    """The value oracle's blocked column maximum, every row freshly allocated."""
    best = None
    for lo in range(0, idx.size, _GAIN_BLOCK):
        block_max = cols[idx[lo:lo + _GAIN_BLOCK]].max(axis=0)
        best = block_max if best is None else np.maximum(best, block_max)
    return 0.0 if best is None else float(best.sum())


@pytest.mark.parametrize("signed_zeros", [False, True])
def test_value_oracle_is_the_fresh_rows_bitwise(signed_zeros):
    n = 500
    F = _facloc(n, 13, signed_zeros)
    cols = F.data.cols
    rng = np.random.default_rng(13)
    for size in (0, 1, 63, 64, 65, 450):
        for _ in range(3):
            idx = rng.permutation(n)[:size].astype(np.intp)
            want = _evaluate_fresh(cols, idx)
            assert F._evaluate(idx).hex() == want.hex(), size
            assert F.evaluate(idx.tolist()).hex() == want.hex(), size
            if not signed_zeros and size:  # a maximum is exact: one gather agrees
                assert want == float(cols[idx].max(axis=0).sum())


def test_value_oracle_allocates_no_row():
    n = 500
    F = _facloc(n, 17)
    idx = np.random.default_rng(17).permutation(n)[:450].astype(np.intp)
    want = F._evaluate(idx)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        got = F._evaluate(idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak - before < 8 * n, peak - before
