"""Similarity-graph classes: facility location, saturated coverage, graph cut.

All three work off an n-by-n non-negative similarity matrix and keep an
O(n) statistic: per-row top-2 records for facility location, per-row sums
for the other two.  The matrix is stored column-contiguously (``cols[j]``
is the similarity of every i to j) because gains and updates touch whole
columns.  Facility location's scalar hooks and its chain read column j off
``data.col_views()``, one view per row of ``cols`` in a list that the
first read makes and the data object keeps.  So no call builds a view of
its own (a gain took 2.15 against 2.25 us building ``cols[j]`` per call,
at n = 1500 on a 2-vCPU x86-64 host), and every instance over the data
reads one list.  Facility location recomputes top-2 records with one
builder, ``_retop``, which reads ``similarity`` rows in blocks and takes
the members along them: a downdate over the rows whose best or second
member left, O(|X| * |affected rows|); a rebuild, and the records a chain
left owed, over every row.  An extreme-point chain runs the best records'
running maximum in blocks of chain positions and reads a block's gains off
it with one subtract and one row sum.  After a chain only the best records
are current; the second-best and owner records are owed, and the hooks
that read them (``_gain_remove``, ``_update``, ``_downdate``,
``_statistic``) build them first.  Batched add gains are kept between
calls (``kept.KeptGains``) and recomputed only for the candidates that a
move of the best records since the last call can reach.  The reach rule: a
row whose best record's bits moved from b to b' reaches candidate j when
s_ij >= min(b, b'), found by reading the moved rows of ``similarity``.  A
value-oracle call gathers its member columns into the kept block too, so
its time does not follow the allocator's state.  The row-sum statistic
lives once, in ``_RowSumFunction``, which dispersion-sum shares over its
distance matrix.

Facility location's blocked batched reads, ``_gains_fresh`` (kept add
gains, lazy greedy's first batch, the supergradient), ``_singletons`` and
``_retop`` (rebuilds, owed records, downdates that repair more than one
block of rows), run through ``_split_blocks``: with two blocks or more and
more than one usable CPU (``os.sched_getaffinity``), the calling thread
runs the first half of the blocks and one worker thread the rest.  Each
share writes its own slice of the output or its own rows of the records,
so every result is bitwise the serial one.  The ingest scan of every dense
similarity and distance matrix (``_scan``) splits too: its ``_SYM_TILE``
bands alternate between the calling thread and the worker, so that each
reads about half of the triangle.  The worker is the one thread of a
module-level pool, so the workers never outnumber the usable CPUs minus
one, and with one usable CPU no thread starts.  ``_evaluate`` and
``_reach`` stay serial, for the reasons measured at ``_GAIN_BLOCK``.

A dense input is read once at ingest: one pass over its bands checks that
every entry is finite and non-negative and whether it equals its
transpose bit for bit (``_validated_square``).  ``cols`` *is*
``similarity`` when the similarity is C-contiguous and that verdict holds,
so each similarity is held once; otherwise it is a contiguous copy of the
transpose.  Graph cut, dispersion and log-det, which need symmetry only
within a tolerance, run the tolerance test band by band, and only when the
exact verdict is no.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from ..core import InputError, SubmodularFunction, real_array
from .kept import KeptGains
from .ragged import ragged_positions, ragged_sum, stable_order

# Rows per block of every blocked read of the similarity: a batched gain's
# candidate columns, the similarity rows whose best moved under kept batched
# gains, a value-oracle call's member columns and a top-2 rebuild's
# similarity rows.  A 64 x n block, 768 KB at n = 1500, stays in
# a 2 MB L2 cache through the arithmetic on it.  On a 2-vCPU x86-64 host at
# n = 1500 (best of 7): a 450-member value-oracle call took 650 us, against
# 800 us with 128-row blocks and 1060 us for one gather.  A full-set top-2
# rebuild with sorted members took 5.1-5.9 ms, against 4.9-6.5 ms with
# 128-row blocks, 6.7-7.1 ms with 256 and 10.2-13.0 ms reading 128-row
# column slices of ``cols``.  The block and the scalar gain's row start on a
# 64-byte cache line (``_aligned_empty``); a plain ``np.empty`` lands where
# the allocation history puts it, and every vector store into a misaligned
# output splits across two lines.  On a 2-vCPU AVX-512 x86-64 host at
# n = 1500 (best of 21, two processes), one ``_chain`` took 2.25-2.33 ms
# with the block at offset 0 and 2.70-2.71, 2.70-2.81 and 2.67 ms at
# offsets 8, 16 and 32 bytes; a scalar gain took 2.28 us with its row at
# offset 0 and 2.57 us at 16, and 2.29 us with ``_best``, which it only
# reads, at either offset.  Rows are not padded: a 1504-float row stride
# made ``_chain`` 3.40 ms, since its 2-d subtract and row sums stop
# running over contiguous memory.  ``_gains_fresh``, ``_singletons`` and
# ``_retop`` split their blocks between the calling thread and one worker
# (``_split_blocks``).  At n = 1500 on a 2-vCPU x86-64 host (seed 1, best
# of 51) a fresh read took 2.16 -> 1.19 ms at 1500 columns, 1.17 -> 0.69
# ms at 811, 0.18 -> 0.13 ms at 128 and 0.09 ms at 64 either way, and
# naive greedy at k = 75 took 107 -> 70 ms.  Two loops stay serial.  Splitting the value-oracle
# ``_evaluate`` (per-block maxima, reduced after both shares) read from
# -5% to +4% on value-oracle lazy greedy at k = 75, 225 and 450, and the
# oracle is the paper's baseline, which a statistic change should not
# move.  Splitting ``_reach`` took naive k = 75 from 70.2-70.7 to
# 69.0-69.9 ms only.
_GAIN_BLOCK = 64
# Chain positions per block of an extreme-point chain.  The running maximum
# (B + 1 rows, the first carrying the best records in) and its differences
# (B rows) share the kept _GAIN_BLOCK-row block.  At n = 1500 on a 2-vCPU
# x86-64 host (seed 7, 40 interleaved trials, median per sweep) a loop of
# three numpy calls per element took 12.5 ms, B = 16/24/31 8.5-8.7 ms, and
# B = 64 in a separate block 9.7 ms.
_CHAIN_BLOCK = (_GAIN_BLOCK - 1) // 2


# Rows per band of the ingest scan (``_scan``) and of the tolerance test.
# At n = 1500 on a 2-vCPU x86-64 host, when first measured, the exact
# symmetry test alone took 3.6 ms with 128-row bands, 4.3 ms with 512 and
# 5.3 ms for one whole-matrix array_equal(s, s.T).  On the same host later
# (seed 1, best of 31), reading the benchmark's facility-location
# similarity at ingest took 2.43 ms as a minimum, a maximum and the banded
# symmetry test, 1.70 ms as one pass that checks range and symmetry per
# band, and 0.95 ms with the bands alternating between the calling thread
# and the worker; at n = 6000, 46.6, 34.4 and 17.2 ms.
_SYM_TILE = 128
# The bits of +inf.  Every double whose bits, read as an unsigned integer,
# are below these is finite and non-negative; -0.0, a negative, an inf or a
# NaN reads at or above them.
_INF_BITS = np.float64(np.inf).view(np.uint64)

# Bytes per cache line.
_LINE = 64


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialized C-contiguous float array of ``shape`` (an int or a
    tuple) that starts on a ``_LINE``-byte boundary: 8 floats more are
    allocated and the array is the slice from the first boundary in them."""
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    raw = np.empty(size + _LINE // 8)
    skip = -raw.ctypes.data % _LINE // 8
    return raw[skip:skip + size].reshape(shape)


# The worker of ``_split_blocks``: (pid, one-thread pool), and the worker's
# scratch, kept per thread and grown only when a wider block is asked for.
_pool = None
_worker_local = threading.local()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: stay serial
        return 1


def _worker():
    """The one-thread pool, made on first need and made again when the pid
    changed, so a forked child never waits on its parent's thread.

    Two threads that race here may each make a pool: both work, and the one
    not kept ends its thread once unreferenced.  A lock instead would need
    re-initialising in a forked child that inherits it held.
    ``concurrent.futures`` is imported here, not with the module: with
    ``logging``, which it imports, it added 0.6 MB to the peak RSS of runs
    that never split."""
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="submemo-blocks"))
    return _pool[1]


def _run_blocks(lo: int, hi: int, width: int, block, body) -> None:
    """``body(a, b, sub)`` for the ``_GAIN_BLOCK`` blocks ``[a, b)`` of
    ``[lo, hi)``, ``sub`` the first ``b - a`` rows of a ``(_GAIN_BLOCK,
    width)`` view of the front of ``block``, or of this thread's scratch
    when ``block`` is None."""
    if block is None:
        block = getattr(_worker_local, "scratch", None)
        if block is None or block.size < _GAIN_BLOCK * width:
            block = _worker_local.scratch = _aligned_empty(_GAIN_BLOCK * width)
    sub = block.reshape(-1)[:_GAIN_BLOCK * width].reshape(_GAIN_BLOCK, width)
    for a in range(lo, hi, _GAIN_BLOCK):
        b = min(a + _GAIN_BLOCK, hi)
        body(a, b, sub[:b - a])


def _split_blocks(count: int, width: int, block: np.ndarray, body) -> None:
    """``body(lo, hi, sub)`` for every ``_GAIN_BLOCK`` block ``[lo, hi)`` of
    ``range(count)``, ``sub`` a ``(hi - lo, width)`` scratch block.

    The calling thread runs its blocks in ``block`` (at least ``_GAIN_BLOCK
    * width`` floats).  With two blocks or more and more than one usable
    CPU, it runs the first half of them, rounded up, and the worker the
    rest, the last partial block included; ``body`` must then write only
    what its own ``[lo, hi)`` names.  The call returns, or raises, once
    both shares have finished; the caller's exception comes first.
    """
    blocks = -(-count // _GAIN_BLOCK)
    if blocks >= 2 and _usable_cpus() > 1:
        mid = (blocks + 1) // 2 * _GAIN_BLOCK
        _in_two(lambda: _run_blocks(0, mid, width, block, body),
                lambda: _run_blocks(mid, count, width, None, body))
    else:
        _run_blocks(0, count, width, block, body)


def _in_two(here, there) -> None:
    """``there()`` on the worker and ``here()`` on the calling thread.

    Returns, or raises, once both have finished; the caller's exception
    comes first.
    """
    rest = _worker().submit(there)
    try:
        here()
    finally:
        rest.exception()  # waits for the worker's share, raised or not
    rest.result()


def _zeros_unowned(value: np.ndarray, owner: np.ndarray) -> bool:
    """Make each zero record of ``value`` +0.0 and unowned (-1) in ``owner``,
    in place; whether there was one.  ``np.count_nonzero`` tells first, in
    0.27 us against 0.75 for ``ndarray.all`` on 64 floats."""
    if np.count_nonzero(value) == value.size:
        return False
    zero = value == 0.0
    value[zero] = 0.0
    owner[zero] = -1
    return True


class _Scan:
    """What the bands of one ``_scan`` found: whether every entry read was
    finite and non-negative, and whether the matrix is still exactly
    symmetric.  Either share clears a flag; neither sets one."""

    def __init__(self):
        self.in_range = True
        self.symmetric = True


def _scan_bands(bits: np.ndarray, starts, ranged: bool, scan: _Scan) -> None:
    """Read the ``_SYM_TILE``-row bands of ``bits`` that begin at ``starts``.

    Band ``[lo, hi)`` compares its rows right of the diagonal,
    ``bits[lo:hi, lo:]``, with the column band below the diagonal,
    ``bits[lo:, lo:hi]``, bit for bit: a -0.0 facing a 0.0 is asymmetric.
    With ``ranged`` it also takes the rows' largest bit pattern, and the
    column band's where the two differ.  A double is finite and
    non-negative exactly when its bits are below those of +inf, and the
    bands' rows and columns cover the matrix.  Stops once the other share,
    or this one, has cleared what is left to learn.
    """
    for lo in starts:
        if not scan.in_range or not (ranged or scan.symmetric):
            return
        hi = lo + _SYM_TILE
        rows, cols = bits[lo:hi, lo:], bits[lo:, lo:hi].T
        if ranged and rows.max() >= _INF_BITS:
            scan.in_range = False
        elif not (scan.symmetric and np.array_equal(rows, cols)):
            scan.symmetric = False
            if ranged and cols.max() >= _INF_BITS:
                scan.in_range = False


def _scan(s: np.ndarray, ranged: bool) -> _Scan:
    """One pass over the float square ``s``: whether it equals ``s.T`` bit
    for bit and, with ``ranged``, whether every entry is finite and
    non-negative (-0.0 is not: its sign bit is set).

    The bands alternate between the calling thread and the worker when
    there are two or more and more than one usable CPU, so each share reads
    about half of the triangle.  An F-ordered ``s`` is read as ``s.T``,
    along its rows.
    """
    bits = s.view(np.uint64)
    if s.flags.f_contiguous and not s.flags.c_contiguous:
        bits = bits.T
    scan, starts = _Scan(), range(0, s.shape[0], _SYM_TILE)
    if len(starts) >= 2 and _usable_cpus() > 1:
        _in_two(lambda: _scan_bands(bits, starts[::2], ranged, scan),
                lambda: _scan_bands(bits, starts[1::2], ranged, scan))
    else:
        _scan_bands(bits, starts, ranged, scan)
    return scan


def _close_symmetric(s: np.ndarray) -> bool:
    """Whether the finite square ``s`` equals ``s.T`` within rtol 1e-9 and
    atol 1e-12: the verdict of ``np.allclose(s, s.T, rtol=1e-9,
    atol=1e-12)``, one ``_SYM_TILE``-row band at a time, so no n x n
    temporary is made.

    allclose meets each pair i != j twice, as entry (i, j) and as (j, i),
    with the same |s_ij - s_ji| and the bound taken off the other entry;
    each band tests its pairs right of the diagonal both ways.
    """
    for lo in range(0, s.shape[0], _SYM_TILE):
        hi = lo + _SYM_TILE
        rows, cols = s[lo:hi, lo:], s[lo:, lo:hi].T
        gap = rows - cols
        np.abs(gap, out=gap)
        bound = np.empty_like(gap)
        for other in (cols, rows):
            np.abs(other, out=bound)
            bound *= 1e-9
            bound += 1e-12
            if not (gap <= bound).all():
                return False
    return True


def _symmetric(s: np.ndarray) -> bool:
    """Whether the finite square ``s`` equals ``s.T`` within rtol 1e-9 and
    atol 1e-12; the exact ``_scan`` first, the tolerance test only when it
    fails."""
    return _scan(s, False).symmetric or _close_symmetric(s)


def _columns(s: np.ndarray, exact: bool) -> np.ndarray:
    """``cols`` of a validated similarity: ``cols[j]`` is ``s[:, j]`` bit for bit.

    That is ``s`` itself when it is C-contiguous and ``exact``ly symmetric,
    and a C-contiguous ``s.T`` otherwise (a view for F-ordered input, else
    a copy).
    """
    if exact and s.flags.c_contiguous:
        return s
    return np.ascontiguousarray(s.T)


def _validated_square(matrix, require_symmetric: bool, what: str) -> tuple[np.ndarray, bool]:
    """``matrix`` as a float array (``core.real_array``), checked square,
    finite and non-negative, and whether it equals its transpose bit for bit.

    One ``_scan`` reads the range and the exact symmetry.  Only when it
    finds a bit pattern at or above +inf's do the minimum and maximum
    (both NaN when any entry is) tell which message to raise, non-finite
    before negative; a matrix whose only such entries are -0.0 is
    accepted and scanned again for symmetry alone.  With
    ``require_symmetric``, the tolerance test runs when the exact one
    failed.
    """
    s = real_array(matrix, what, 2, values=None)  # the scan reads the range
    if s.shape[0] != s.shape[1]:
        raise InputError(f"{what} must be a square matrix, got shape {s.shape}")
    scan = _scan(s, True)
    if not scan.in_range:
        lo, hi = s.min(), s.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InputError(f"{what} contains non-finite entries")
        if lo < 0:
            raise InputError(f"{what} must be non-negative")
        scan = _scan(s, False)
    if require_symmetric and not (scan.symmetric or _close_symmetric(s)):
        raise InputError(f"{what} must be symmetric")
    return s, scan.symmetric


class _RowSumFunction(SubmodularFunction):
    """Statistic p[i] = sum_{j in X} rows[j][i]: one row added or removed per step.

    ``rows[j]`` must be contiguous: ``cols`` for the similarity classes
    (``similarity`` itself when that is C-contiguous and exactly symmetric),
    the symmetric ``distance`` for dispersion-sum.  Subclasses supply the
    gains and the value read off p.
    """

    def __init__(self, data, rows: np.ndarray):
        super().__init__(data.n)
        self.data = data
        self.rows = rows
        self._rowsum = np.zeros(self.n)

    def _update(self, j):
        self._rowsum += self.rows[j]

    def _downdate(self, j):
        self._rowsum -= self.rows[j]

    def _rebuild(self, idx):
        self._rowsum = self.rows[idx].sum(axis=0) if idx.size else np.zeros(self.n)

    def _statistic(self):
        return {"rowsum": self._rowsum}


@dataclass
class FacilityLocationData:
    """Non-negative similarity matrix s_ij between every pair of elements.

    ``cols[j]`` is ``similarity[:, j]``, contiguous: the gain and update hot
    path.  For a C-contiguous, exactly symmetric similarity ``cols`` is
    ``similarity`` itself; otherwise it is a transposed copy.
    """

    similarity: np.ndarray
    cols: np.ndarray = field(init=False, repr=False)
    _col_views = None  # list(cols), made by the first col_views() call

    def __post_init__(self):
        self.similarity, exact = _validated_square(self.similarity, False, "facility location similarity")
        self.cols = _columns(self.similarity, exact)

    @property
    def n(self) -> int:
        return self.similarity.shape[0]

    def col_views(self) -> list:
        """``cols`` as one row view per element, made by the first call and
        kept, so every instance over this data reads one list."""
        if self._col_views is None:
            self._col_views = list(self.cols)
        return self._col_views


class FacilityLocationFunction(KeptGains):
    """f(X) = sum_i max_{j in X} s_ij with a per-row (best, second-best) statistic.

    Adding k is a vectorized O(n) shift of the top-2 records.  Removing k
    recomputes the records only for the rows where k held the best or second
    value, over the remaining memo set: O(|X| * |affected rows|), reading just
    those rows.  A rebuild recomputes every row the same way, a block of
    consecutive rows at a time, so its temporary stays block x |X|.

    ``_chain`` runs the best records' running maximum in blocks of
    ``_CHAIN_BLOCK`` chain positions: one ``np.maximum`` per element, one
    subtract and one row sum per block.  It leaves only ``_best`` current
    and keeps the chain order as records owed.  ``_gain_remove``,
    ``_update``, ``_downdate`` and ``_statistic`` build them first
    (``_build_owed``, ``_retop`` over the chain order); ``_rebuild`` drops
    them.  The add gains and the value read ``_best`` alone, so Lovász
    descent and min-norm-point, whose next sweep starts with a rebuild,
    never build them.

    The batched add gains are kept (``KeptGains``, keyed on ``_best``) and
    recomputed with ``_gains_fresh`` only for the candidates that
    ``_reach`` finds on the rows a move of ``_best`` since the last call
    changed, so naive and randomized greedy pay per round for the rows the
    last pick moved rather than for every candidate.  ``_rebuild`` and
    ``_chain`` drop the kept gains: they move almost every row, and reading
    the rows would cost more than recomputing.
    """

    def __init__(self, data: FacilityLocationData):
        super().__init__(data.n)
        self.data = data
        n = self.n
        self._best = np.zeros(n)
        self._second = np.zeros(n)
        self._arg = np.full(n, -1, dtype=np.intp)
        self._arg2 = np.full(n, -1, dtype=np.intp)
        self._owed = None  # chain order whose records past _best are not built yet
        self._cols = None  # data.col_views(), bound by the first scalar read
        # the scalar gain's row and the row it takes the maximum with; the
        # value oracle reduces into _buf and _row
        self._buf = _aligned_empty(n)
        self._row = _aligned_empty(n)
        self._zeros = _aligned_empty(n)
        self._zeros.fill(0.0)
        # kept for the batched reads, _retop, _chain and _evaluate, not reallocated per
        # call: a fresh 768 KB block per batch raised peak RSS by 17 MB over a
        # 40 s greedy-pm benchmark run (seed 1), and a fresh gather per
        # value-oracle block made greedy-vo's time follow glibc's malloc state
        # (2.8 s, and 11-13 s with MALLOC_MMAP_THRESHOLD_=65536)
        self._block = _aligned_empty((_GAIN_BLOCK, n))

    def _evaluate(self, idx):
        # member columns gathered into the kept block with ``ndarray.take``:
        # at n = 1500 and 10-225 members on a 2-vCPU x86-64 host (10th
        # percentile of 300 calls) that took 7.2-151 us, against 7.7-160 us
        # for a fresh gather and 8.4-158 us through a generator of blocks,
        # which costs more than it saves.  Each block's column maximum goes
        # into a kept row too, so no call allocates an n-float row.
        if idx.size == 0:
            return 0.0
        cols, best, row = self.data.cols, self._buf, self._row
        for lo in range(0, idx.size, _GAIN_BLOCK):
            rows = idx[lo:lo + _GAIN_BLOCK]
            sub = self._block[:rows.size]
            cols.take(rows, axis=0, out=sub, mode="clip")
            if lo == 0:
                sub.max(axis=0, out=best)
            else:
                sub.max(axis=0, out=row)
                np.maximum(best, row, out=best)
        return float(best.sum())

    def _gain_add(self, j):
        # a kept zero row, not the scalar 0.0, which numpy converts on every
        # call (2.10 against 2.45 us a hook call at n = 1500); np.maximum
        # applies one per-element rule to both, zeros' signs included
        cols = self._cols
        if cols is None:
            cols = self._cols = self.data.col_views()
        buf = self._buf
        np.subtract(cols[j], self._best, out=buf)
        np.maximum(buf, self._zeros, out=buf)
        return float(np.add.reduce(buf))

    def _kept_key(self):
        return self._best

    def _reach(self, moved, before):
        """The candidates whose add gain a move of the rows ``moved`` of
        ``_best`` can reach, as a mask.

        A gain is the pairwise sum over rows i of max(s_ij - best_i, 0).
        Where s_ij < best_i both before and after a row's move, the
        difference is negative and the term is +0.0 both times, so a gain
        stays bitwise unless some moved row has s_ij >= min(old, new).
        Moved rows are read ``_GAIN_BLOCK`` at a time into ``_block``.
        """
        low = np.minimum(before[moved], self._best[moved])[:, None]
        hit = np.zeros(self.n, dtype=bool)
        for lo in range(0, moved.size, _GAIN_BLOCK):
            rows = moved[lo:lo + _GAIN_BLOCK]
            sub = self._block[:rows.size]
            np.take(self.data.similarity, rows, axis=0, out=sub, mode="clip")
            hit |= (sub >= low[lo:lo + rows.size]).any(axis=0)
        return hit

    def _gains_fresh(self, idx):
        """Add gains of ``idx`` off ``_best``, a block of candidate columns at a time."""
        out = np.empty(idx.size)
        cols, best = self.data.cols, self._best

        def gains(lo, hi, sub):
            np.take(cols, idx[lo:hi], axis=0, out=sub, mode="clip")
            np.subtract(sub, best, out=sub)
            np.maximum(sub, 0.0, out=sub)
            sub.sum(axis=1, out=out[lo:hi])

        _split_blocks(idx.size, self.n, self._block, gains)
        return out

    def _singletons(self, idx):
        """f({j}) of each id: the row sum of ``cols[j]``, as the one-member
        ``_evaluate`` reads it (a contiguous row's sum is the 1-d pairwise sum)."""
        out = np.empty(idx.size)
        cols = self.data.cols

        def sums(lo, hi, sub):
            np.take(cols, idx[lo:hi], axis=0, out=sub, mode="clip")
            sub.sum(axis=1, out=out[lo:hi])

        _split_blocks(idx.size, self.n, self._block, sums)
        return out

    def _chain(self, order):
        """Chain gains off the running best record, ``_CHAIN_BLOCK``
        positions at a time; the rest of the records at V stay owed.

        Row r of ``run`` is the best record after the block's first r
        elements; row 0 carries it in from the block before.  One
        ``np.maximum`` per element fills a row, from the chain's column
        views, listed once per sweep; then one ``np.subtract`` takes the
        differences of consecutive rows and one row sum reads the
        block's gains.  Each gain is ``sum(max(best, col) - best)``, bitwise
        the scalar ``sum(max(col - best, 0))``: both are ``col - best`` where
        col beats best and a zero elsewhere, a zero's sign does not reach a
        sum, and a contiguous row's sum is the 1-d pairwise sum.  The last
        row is ``_best`` at V (a max is exact), copied out of the block,
        which the batched gains reuse.  ``+ 0.0`` makes its zeros +0.0 as the
        loop leaves them, whichever zero ``np.maximum`` returns on a tie.
        ``_second``, ``_arg`` and ``_arg2`` are built by ``_build_owed``
        only when a hook reads them; a sweep followed by another sweep or a
        ``set_memo`` never builds them.
        """
        out = np.empty(order.size)
        cols = self._cols
        if cols is None:
            cols = self._cols = self.data.col_views()
        chain = [cols[j] for j in order.tolist()]
        run = self._block[:_CHAIN_BLOCK + 1]
        diff = self._block[_CHAIN_BLOCK + 1:2 * _CHAIN_BLOCK + 1]
        rows = list(run)
        rows[0].fill(0.0)
        for lo in range(0, len(chain), _CHAIN_BLOCK):
            m = min(_CHAIN_BLOCK, len(chain) - lo)
            for r, col in enumerate(chain[lo:lo + m]):
                np.maximum(rows[r], col, out=rows[r + 1])
            np.subtract(run[1:m + 1], run[:m], out=diff[:m])
            diff[:m].sum(axis=1, out=out[lo:lo + m])
            np.copyto(rows[0], rows[m])
        self._best = rows[0] + 0.0
        self._kept = None
        self._owed = order.copy()  # the caller may reuse its order array
        return out

    def _build_owed(self):
        """Build the records a chain left owed, if any, as its ``_update``
        calls leave them: ``_retop`` over the chain order gives ties to the
        earliest member."""
        if self._owed is not None:
            order, self._owed = self._owed, None
            self._retop(np.arange(self.n), order)

    def _gain_remove(self, j):
        self._build_owed()
        hit = self._arg == j
        return float(np.add.reduce(self._best[hit] - self._second[hit]))

    def _gains_remove(self, idx):
        """Removal gains of the members ``idx``: the rows each one owns,
        grouped by ``_arg`` with rows ascending in a group (``stable_order``),
        summed per member as ``_gain_remove`` sums them."""
        self._build_owed()
        owned = np.flatnonzero(self._arg >= 0)
        owner = self._arg[owned]
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=self.n), out=indptr[1:])
        pos, lens = ragged_positions(indptr, idx)
        rows = owned[stable_order(owner, self.n)[pos]]
        return ragged_sum(self._best[rows] - self._second[rows], lens)

    def _update(self, j):
        self._build_owed()
        cols = self._cols
        if cols is None:
            cols = self._cols = self.data.col_views()
        col = cols[j]
        beats1 = col > self._best
        beats2 = (col > self._second) ^ beats1  # second <= best, so beats1 implies col > second
        np.copyto(self._second, self._best, where=beats1)
        np.copyto(self._arg2, self._arg, where=beats1)
        np.copyto(self._best, col, where=beats1)
        np.copyto(self._arg, j, where=beats1)
        np.copyto(self._second, col, where=beats2)
        np.copyto(self._arg2, j, where=beats2)

    def _downdate(self, j):
        self._build_owed()
        affected = np.flatnonzero((self._arg == j) | (self._arg2 == j))
        if affected.size == 0:
            return
        members = self.memo.to_indices()
        self._retop(affected, members[members != j])

    def _retop(self, rows: np.ndarray, members: np.ndarray) -> None:
        """Recompute the top-2 records of ``rows`` (sorted, distinct) over ``members``.

        Reads ``similarity`` rows ``_GAIN_BLOCK`` at a time, a run of
        consecutive rows as one slice and other rows gathered, and takes the
        members along them into a block ``sub[r, t]`` = s(row r, member t),
        in the front of ``_block`` or the worker's scratch
        (``_split_blocks``), so both argmax passes run along contiguous
        memory (a downdate's 2 rows at 1400 members: 6 against 16 us for a
        strided ``cols`` gather).  Ties go to the earliest member, as with
        ``argmax``.  A record no member beats (0) is left as ``_update``
        calls from the empty set leave it, whatever the sign of the zeros
        read: unowned (-1) and +0.0.  So the records, and the terms that
        ``_gain_remove`` sums, do not depend on how the memo was reached.
        """
        if members.size == 0:
            self._best[rows] = 0.0
            self._second[rows] = 0.0
            self._arg[rows] = -1
            self._arg2[rows] = -1
            return
        sim = self.data.similarity

        def records(lo, hi, sub):
            blk = rows[lo:hi]
            first, last = int(blk[0]), int(blk[-1])
            read = sim[first:last + 1] if last - first + 1 == blk.size else sim[blk]
            np.take(read, members, axis=1, out=sub, mode="clip")
            self._top2(blk, sub, members)

        _split_blocks(rows.size, members.size, self._block, records)

    def _top2(self, rows, sub: np.ndarray, members: np.ndarray) -> None:
        """Set the records of ``rows`` from ``sub[r, t]`` = s(row r, member t).

        Ties go to the earliest member, as with ``argmax``, and a zero
        record is unowned and +0.0; ``sub`` is overwritten.
        """
        r = np.arange(sub.shape[0])
        top = sub.argmax(axis=1)
        best, arg = sub[r, top], members[top]
        if members.size > 1:
            sub[r, top] = -np.inf
            top2 = sub.argmax(axis=1)
            second, arg2 = sub[r, top2], members[top2]
        else:
            second, arg2 = np.zeros(r.size), np.full(r.size, -1, dtype=np.intp)
        if _zeros_unowned(second, arg2):  # best >= second: a zero best has a zero second
            _zeros_unowned(best, arg)
        self._best[rows], self._arg[rows] = best, arg
        self._second[rows], self._arg2[rows] = second, arg2

    def _rebuild(self, idx):
        n = self.n
        self._owed = None
        self._kept = None
        self._best = np.zeros(n)
        self._second = np.zeros(n)
        self._arg = np.full(n, -1, dtype=np.intp)
        self._arg2 = np.full(n, -1, dtype=np.intp)
        if idx.size:
            self._retop(np.arange(n, dtype=np.intp), idx)

    def _value_from_statistic(self):
        return float(self._best.sum())

    def _statistic(self):
        self._build_owed()
        return {"best": self._best, "second": self._second}


@dataclass
class SaturatedCoverageData:
    """Similarity matrix plus per-row saturation thresholds alpha_i.

    When ``alpha`` is omitted it defaults to ``alpha_fraction`` times each
    row sum, the usual summarization setting.
    """

    similarity: np.ndarray
    alpha: np.ndarray | None = None
    alpha_fraction: float = 0.25
    cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.similarity, exact = _validated_square(self.similarity, False, "saturated coverage similarity")
        self.cols = _columns(self.similarity, exact)
        if self.alpha is None:
            fraction = real_array(self.alpha_fraction, "alpha_fraction", 0, values="positive")
            self.alpha = fraction * self.similarity.sum(axis=1)
        self.alpha = real_array(self.alpha, "alpha", 1, values="non-negative")
        if self.alpha.shape != (self.similarity.shape[0],):
            raise InputError("alpha must have one threshold per row")

    @property
    def n(self) -> int:
        return self.similarity.shape[0]


class SaturatedCoverageFunction(_RowSumFunction):
    """f(X) = sum_i min(sum_{j in X} s_ij, alpha_i); statistic = the row sums."""

    def __init__(self, data: SaturatedCoverageData):
        super().__init__(data, data.cols)

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        return float(np.minimum(self.data.cols[idx].sum(axis=0), self.data.alpha).sum())

    def _clipped(self, rowsum):
        return np.minimum(rowsum, self.data.alpha)

    def _gain_add(self, j):
        p = self._rowsum
        return float((self._clipped(p + self.data.cols[j]) - self._clipped(p)).sum())

    def _gain_remove(self, j):
        p = self._rowsum
        return float((self._clipped(p) - self._clipped(p - self.data.cols[j])).sum())

    def _value_from_statistic(self):
        return float(self._clipped(self._rowsum).sum())


@dataclass
class GraphCutData:
    """Symmetric similarity matrix with coverage/diversity trade-off lam.

    lam = 1 is the standard cut, lam = 0 the pure redundancy penalty.
    """

    similarity: np.ndarray
    lam: float = 1.0
    cols: np.ndarray = field(init=False, repr=False)
    col_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.similarity, exact = _validated_square(self.similarity, True, "graph cut similarity")
        self.lam = float(real_array(self.lam, "graph cut lambda", 0, values="non-negative"))
        self.cols = _columns(self.similarity, exact)
        self.col_sums = self.similarity.sum(axis=0)

    @property
    def n(self) -> int:
        return self.similarity.shape[0]


class GraphCutFunction(_RowSumFunction):
    """f(X) = lam * sum_{i in V, j in X} s_ij - sum_{i,j in X} s_ij.

    Statistic: row sums p[i] = sum_{j in X} s_ij, giving O(1) gains after
    the O(n^2) column sums are fixed at construction.
    """

    def __init__(self, data: GraphCutData):
        super().__init__(data, data.cols)

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        rows = self.data.cols[idx]
        return float(self.data.lam * rows.sum() - rows[:, idx].sum())

    def _gain_add(self, j):
        d = self.data
        return float(d.lam * d.col_sums[j] - 2.0 * self._rowsum[j] - d.similarity[j, j])

    def _gain_remove(self, j):
        d = self.data
        return float(d.lam * d.col_sums[j] - 2.0 * self._rowsum[j] + d.similarity[j, j])

    def _value_from_statistic(self):
        inside = self._rowsum[self.memo.to_indices()].sum() if len(self.memo) else 0.0
        return float(self.data.lam * self._rowsum.sum() - inside)
