"""Similarity-graph classes: facility location, saturated coverage, graph cut.

All three work off an n-by-n non-negative similarity matrix and keep an
O(n) statistic: per-row top-2 records for facility location, per-row sums
for the other two.  The matrix is stored column-contiguously (``cols[j]``
is the similarity of every i to j) because gains and updates touch whole
columns.  Facility location recomputes top-2 records with one builder,
``_retop``, which reads ``similarity`` rows in blocks and takes the members
along them: a downdate over the rows whose best or second member left,
O(|X| * |affected rows|); a rebuild, and the records a chain left owed,
over every row.  An extreme-point chain runs the best records' running
maximum in blocks of chain positions and reads a block's gains off it
with one subtract and one row sum.  After a chain only the best records
are current; the second-best and owner records are owed, and the hooks
that read them (``_gain_remove``, ``_update``, ``_downdate``,
``_statistic``) build them first.  Batched add gains are kept between
calls and recomputed only for the candidates that a move of the best
records since the last call can reach, found by reading the moved rows of
``similarity``.  The row-sum statistic lives once, in ``_RowSumFunction``,
which dispersion-sum shares over its distance matrix.

``cols`` *is* ``similarity`` when the similarity is C-contiguous and
symmetric bit for bit, so each similarity is held once; otherwise it is a
contiguous copy of the transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import InputError, SubmodularFunction

# Rows per block of every blocked read of the similarity: a batched gain's
# candidate columns, the similarity rows whose best moved under kept batched
# gains, a value-oracle call's member columns and a top-2 rebuild's
# similarity rows.  A 64 x n block, 768 KB at n = 1500, stays in
# a 2 MB L2 cache through the arithmetic on it.  On a 2-vCPU x86-64 host at
# n = 1500 (best of 7): a 450-member value-oracle call took 650 us, against
# 800 us with 128-row blocks and 1060 us for one gather.  A full-set top-2
# rebuild with sorted members took 5.1-5.9 ms, against 4.9-6.5 ms with
# 128-row blocks, 6.7-7.1 ms with 256 and 10.2-13.0 ms reading 128-row
# column slices of ``cols``.
_GAIN_BLOCK = 64
# Chain positions per block of an extreme-point chain.  The running maximum
# (B + 1 rows, the first carrying the best records in) and its differences
# (B rows) share the kept _GAIN_BLOCK-row block.  At n = 1500 on a 2-vCPU
# x86-64 host (seed 7, 40 interleaved trials, median per sweep) a loop of
# three numpy calls per element took 12.5 ms, B = 16/24/31 8.5-8.7 ms, and
# B = 64 in a separate block 9.7 ms.
_CHAIN_BLOCK = (_GAIN_BLOCK - 1) // 2


# Rows per tile of the exact symmetry test.  At n = 1500 on a 2-vCPU x86-64
# host it took 3.6 ms with 128-row tiles, 4.3 ms with 512 and 5.3 ms for
# one whole-matrix array_equal(s, s.T).
_SYM_TILE = 128


def _exactly_symmetric(s: np.ndarray) -> bool:
    """Whether s equals s.T bit for bit: a -0.0 facing a 0.0 is asymmetric.

    Compares each band of rows right of the diagonal with the matching band
    of columns, so no n x n temporary is made.
    """
    bits = s.view(np.uint64)
    n = s.shape[0]
    for lo in range(0, n, _SYM_TILE):
        hi = lo + _SYM_TILE
        if not np.array_equal(bits[lo:hi, lo:], bits[lo:, lo:hi].T):
            return False
    return True


def _symmetric(s: np.ndarray) -> bool:
    """Whether s equals s.T within rtol 1e-9 and atol 1e-12.

    The exact test runs first; ``np.allclose`` and its n x n temporaries
    only when it fails.
    """
    return _exactly_symmetric(s) or np.allclose(s, s.T, rtol=1e-9, atol=1e-12)


def _columns(s: np.ndarray) -> np.ndarray:
    """``cols`` of a validated similarity: ``cols[j]`` is ``s[:, j]`` bit for bit.

    That is ``s`` itself when it is C-contiguous and exactly symmetric, and
    a C-contiguous ``s.T`` otherwise (a view for F-ordered input, else a
    copy).
    """
    if s.flags.c_contiguous and _exactly_symmetric(s):
        return s
    return np.ascontiguousarray(s.T)


def _validated_square(matrix, require_symmetric: bool, what: str) -> np.ndarray:
    """``matrix`` as a float array, checked square, finite and non-negative.

    A float64 array is kept, not copied.  Finiteness and sign are read off
    the minimum and maximum (both NaN when any entry is), with no n x n
    temporary.
    """
    s = np.asarray(matrix, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InputError(f"{what} must be a square matrix, got shape {s.shape}")
    if s.size:
        lo, hi = s.min(), s.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InputError(f"{what} contains non-finite entries")
        if lo < 0:
            raise InputError(f"{what} must be non-negative")
    if require_symmetric and not _symmetric(s):
        raise InputError(f"{what} must be symmetric")
    return s


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

    def __post_init__(self):
        self.similarity = _validated_square(self.similarity, False, "facility location similarity")
        self.cols = _columns(self.similarity)

    @property
    def n(self) -> int:
        return self.similarity.shape[0]


class FacilityLocationFunction(SubmodularFunction):
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

    ``_gains_add`` keeps its gains in ``_kept`` = (gains, valid,
    best_at_read) and recomputes, with ``_gains_fresh``, only the
    candidates whose gain a move of ``_best`` since the last call can have
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
        self._buf = np.empty(n)
        # kept for the batched gains and _chain, not reallocated per call: a fresh
        # 768 KB block per batch raised peak RSS by 17 MB over a 40 s
        # greedy-pm benchmark run (seed 1)
        self._block = np.empty((_GAIN_BLOCK, n))
        self._kept = None  # (gains, valid, best_at_read) of _gains_add

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        cols = self.data.cols
        best = cols[idx[:_GAIN_BLOCK]].max(axis=0)
        for lo in range(_GAIN_BLOCK, idx.size, _GAIN_BLOCK):
            np.maximum(best, cols[idx[lo:lo + _GAIN_BLOCK]].max(axis=0), out=best)
        return float(best.sum())

    def _gain_add(self, j):
        buf = self._buf
        np.subtract(self.data.cols[j], self._best, out=buf)
        np.maximum(buf, 0.0, out=buf)
        return float(np.add.reduce(buf))

    def _gains_add(self, idx):
        """Add gains of ``idx``, kept between calls and recomputed only where
        a move of ``_best`` since the last call can have changed them.

        A gain is the pairwise sum over rows i of max(s_ij - best_i, 0).
        Where s_ij < best_i both before and after a row's move, the
        difference is negative and the term is +0.0 both times, so a gain
        stays bitwise unless some moved row has s_ij >= min(old, new).  A row
        counts as moved when its bits differ from the snapshot taken at the
        last call, so the rule leans neither on which zero ``np.maximum``
        returns on a tie nor on a zero's sign.  Moved rows are read
        ``_GAIN_BLOCK`` at a time into ``_block``.  The returned array is
        the caller's.
        """
        if self._kept is None:
            self._kept = (np.empty(self.n), np.zeros(self.n, dtype=bool), self._best.copy())
        gains, valid, seen = self._kept
        moved = np.flatnonzero(self._best.view(np.uint64) != seen.view(np.uint64))
        if moved.size:
            low = np.minimum(seen[moved], self._best[moved])[:, None]
            for lo in range(0, moved.size, _GAIN_BLOCK):
                rows = moved[lo:lo + _GAIN_BLOCK]
                sub = self._block[:rows.size]
                np.take(self.data.similarity, rows, axis=0, out=sub, mode="clip")
                valid &= ~(sub >= low[lo:lo + rows.size]).any(axis=0)
            np.copyto(seen, self._best)
        stale = idx[~valid[idx]]
        if stale.size:
            gains[stale] = self._gains_fresh(stale)
            valid[stale] = True
        return gains[idx]

    def _gains_fresh(self, idx):
        """Add gains of ``idx`` off ``_best``, ``_GAIN_BLOCK`` candidate columns at a time."""
        out = np.empty(idx.size)
        for lo in range(0, idx.size, _GAIN_BLOCK):
            rows = idx[lo:lo + _GAIN_BLOCK]
            sub = self._block[:rows.size]
            np.take(self.data.cols, rows, axis=0, out=sub, mode="clip")
            np.subtract(sub, self._best, out=sub)
            np.maximum(sub, 0.0, out=sub)
            sub.sum(axis=1, out=out[lo:lo + rows.size])
        return out

    def _chain(self, order):
        """Chain gains off the running best record, ``_CHAIN_BLOCK``
        positions at a time; the rest of the records at V stay owed.

        Row r of ``run`` is the best record after the block's first r
        elements; row 0 carries it in from the block before.  One
        ``np.maximum`` per element fills a row, then one ``np.subtract``
        takes the differences of consecutive rows and one row sum reads the
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
        cols = self.data.cols
        run = self._block[:_CHAIN_BLOCK + 1]
        diff = self._block[_CHAIN_BLOCK + 1:2 * _CHAIN_BLOCK + 1]
        rows = list(run)
        rows[0].fill(0.0)
        ids = order.tolist()
        for lo in range(0, len(ids), _CHAIN_BLOCK):
            m = min(_CHAIN_BLOCK, len(ids) - lo)
            for r, j in enumerate(ids[lo:lo + m]):
                np.maximum(rows[r], cols[j], out=rows[r + 1])
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
        earliest member, and a record no member beats (0) stays unowned (-1)
        and +0.0, whatever the sign of the zeros read."""
        if self._owed is not None:
            order, self._owed = self._owed, None
            self._retop(np.arange(self.n), order)
            self._best += 0.0
            self._second += 0.0
            self._arg[self._best == 0.0] = -1
            self._arg2[self._second == 0.0] = -1

    def _gain_remove(self, j):
        self._build_owed()
        hit = self._arg == j
        return float(np.add.reduce(self._best[hit] - self._second[hit]))

    def _update(self, j):
        self._build_owed()
        col = self.data.cols[j]
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
        so both argmax passes run along contiguous memory (a downdate's 2
        rows at 1400 members: 6 against 16 us for a strided ``cols``
        gather).  Ties go to the earliest member, as with ``argmax``.  The
        block lives for one call: a block kept per instance stayed resident
        and raised peak RSS.
        """
        if members.size == 0:
            self._best[rows] = 0.0
            self._second[rows] = 0.0
            self._arg[rows] = -1
            self._arg2[rows] = -1
            return
        sim = self.data.similarity
        block = np.empty((min(_GAIN_BLOCK, rows.size), members.size))
        for lo in range(0, rows.size, _GAIN_BLOCK):
            blk = rows[lo:lo + _GAIN_BLOCK]
            first, last = int(blk[0]), int(blk[-1])
            read = sim[first:last + 1] if last - first + 1 == blk.size else sim[blk]
            sub = block[:blk.size]
            np.take(read, members, axis=1, out=sub, mode="clip")
            self._top2(blk, sub, members)

    def _top2(self, rows, sub: np.ndarray, members: np.ndarray) -> None:
        """Set the records of ``rows`` from ``sub[r, t]`` = s(row r, member t).

        Ties go to the earliest member, as with ``argmax``; ``sub`` is
        overwritten.
        """
        r = np.arange(sub.shape[0])
        top = sub.argmax(axis=1)
        self._best[rows] = sub[r, top]
        self._arg[rows] = members[top]
        if members.size == 1:
            self._second[rows] = 0.0
            self._arg2[rows] = -1
            return
        sub[r, top] = -np.inf
        top2 = sub.argmax(axis=1)
        self._second[rows] = sub[r, top2]
        self._arg2[rows] = members[top2]

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
        self.similarity = _validated_square(self.similarity, False, "saturated coverage similarity")
        self.cols = _columns(self.similarity)
        if self.alpha is None:
            if not 0 < self.alpha_fraction:
                raise InputError("alpha_fraction must be positive")
            self.alpha = self.alpha_fraction * self.similarity.sum(axis=1)
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (self.similarity.shape[0],):
            raise InputError("alpha must have one threshold per row")
        if np.any(self.alpha < 0) or not np.all(np.isfinite(self.alpha)):
            raise InputError("alpha thresholds must be finite and non-negative")

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
        self.similarity = _validated_square(self.similarity, True, "graph cut similarity")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise InputError("graph cut lambda must be finite and >= 0")
        self.lam = float(self.lam)
        self.cols = _columns(self.similarity)
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
