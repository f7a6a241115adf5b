"""Ragged rows of CSR data: gathering the rows of some elements, summing them.

The batched gain hooks of the CSR classes read the entries of many
elements at once.  ``ragged_sum`` sums each segment as numpy sums the
segment on its own (pairwise, in the same order), so a batched gain is
bitwise equal to the scalar one.  A ``bincount`` or ``reduceat`` form
adds the entries left to right instead and drifts by a few ulps.
"""

from __future__ import annotations

import numpy as np


def ragged_positions(indptr: np.ndarray, idx: np.ndarray):
    """(positions of the CSR entries of ``idx``, one row after another; row lengths)."""
    lo = indptr[idx]
    lens = indptr[idx + 1] - lo
    starts = np.cumsum(lens) - lens
    return np.arange(lens.sum()) + np.repeat(lo - starts, lens), lens


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
