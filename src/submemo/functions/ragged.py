"""Ragged rows of CSR data: gathering the rows of some elements, summing them.

``ragged_positions`` gathers the entries of many elements at once, for
the batched gain hooks and for the value oracles.  Each consumer then
adds them in the order its scalar counterpart does, so that both agree
bitwise:

- Gains use ``ragged_sum``.  A scalar gain sums its element's entries
  with numpy's pairwise sum, and ``ragged_sum`` sums each segment the
  same way.  A ``bincount`` or ``reduceat`` form adds left to right
  instead and drifts from the scalar gain by a few ulps.
- Loads and counts use ``np.bincount`` or ``ragged_runs``.  They grow by
  one ``load[ids] += vals`` per member, which adds each bucket's entries
  left to right from 0.0.  ``bincount`` does the same in input order, and
  ``ragged_runs`` keeps the running sum before every entry.
"""

from __future__ import annotations

import numpy as np


def ragged_positions(indptr: np.ndarray, idx: np.ndarray):
    """(positions of the CSR entries of ``idx``, one row after another; row lengths)."""
    if idx.size == 1:
        # one row is one range: about 3 against 10 us for the general gather
        lo, hi = indptr[idx[0]], indptr[idx[0] + 1]
        return np.arange(lo, hi), np.asarray([hi - lo])
    lo = indptr[idx]
    lens = indptr[idx + 1] - lo
    ends = np.cumsum(lens)
    lo -= ends
    lo += lens  # row start minus its offset in the output
    pos = np.repeat(lo, lens)
    pos += np.arange(pos.size)
    return pos, lens


def ragged_sum(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum of each consecutive segment of ``values`` with the given lengths.

    Segments of one length are stacked into a 2-d block and summed along
    its rows, which runs numpy's 1-d pairwise sum on each of them.
    """
    out = np.zeros(lens.size)
    starts = np.cumsum(lens) - lens
    for length in np.unique(lens).tolist():
        if length:
            rows = np.flatnonzero(lens == length)
            out[rows] = values[starts[rows, None] + np.arange(length)].sum(axis=1)
    return out


def ragged_runs(values: np.ndarray, lens: np.ndarray):
    """(running sum before each entry, total) of each consecutive segment.

    Each segment is added left to right starting from 0.0, exactly as one
    ``+=`` per entry would: segments of one length are stacked into a 2-d
    block behind a zero column and run through a sequential ``cumsum``
    along its rows.  An empty segment totals 0.0.
    """
    before = np.empty(values.size)
    totals = np.zeros(lens.size)
    starts = np.cumsum(lens) - lens
    for length in np.unique(lens).tolist():
        if length:
            rows = np.flatnonzero(lens == length)
            at = starts[rows, None] + np.arange(length)
            run = np.zeros((rows.size, length + 1))
            run[:, 1:] = values[at]
            np.cumsum(run, axis=1, out=run)
            before[at] = run[:, :-1]
            totals[rows] = run[:, -1]
    return before, totals
