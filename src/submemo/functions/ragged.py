"""Ragged rows of CSR data: building them, gathering the rows of some
elements, summing them, grouping their entries.

``csr_from_rows`` and ``csr_checked`` build and validate the CSR arrays
of the sparse data classes on whole arrays; see ``csr_checked`` for the
entry order they keep.

``ragged_positions`` gathers the entries of many elements at once, for
the batched gain hooks and for the value oracles.  Each consumer then
adds them in the order its scalar counterpart does, so that both agree
bitwise:

- Gains use ``ragged_sum``.  A scalar gain sums its element's entries
  with numpy's pairwise sum, and ``ragged_sum`` sums each segment the
  same way.  A ``bincount`` or ``reduceat`` form adds left to right
  instead and drifts from the scalar gain by a few ulps.
- Loads and counts grow by one ``load[ids] += vals`` per member, which
  adds each bucket's entries left to right from 0.0.  ``np.bincount``
  does the same in input order.  Where the running load before every
  entry is wanted too (a sparse-load chain), entries are grouped by
  bucket with ``stable_order``, which keeps each bucket's entries in
  input order, and added one occurrence level at a time.

``stable_order`` is ``np.argsort(kind="stable")`` for bounded
non-negative integer keys in linear time.
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


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of integer keys in ``[0, bound)``.

    numpy runs a radix sort only on keys of 16 bits or fewer, and a
    timsort on wider ones: on 12000 intp keys below 3000, 0.8 ms against
    60 us for the same keys as uint16.  So this is a least-significant-digit
    radix sort over 16-bit digits, each a stable uint16 argsort of the
    keys in the order the digits below left them; keys below 2**16 take
    one pass.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low digit
    shift = 16
    while (bound - 1) >> shift > 0:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def csr_from_rows(rows, bound, fault, sort_rows: bool = False):
    """``(indptr, ids, values)`` of the rows that ``rows`` yields, checked by ``csr_checked``.

    ``rows`` yields one ``(ids, values)`` pair of arrays per row, after the
    row's own type and shape test; values are None for id-only rows.  An
    error raised while reading a row is held until the rows before it have
    passed ``csr_checked``, then raised: the first faulting row reports.
    """
    id_rows, value_rows = [], []
    late = None
    try:
        for ids, values in rows:
            id_rows.append(ids)
            value_rows.append(values)
    except Exception as err:  # raised again below, unless an earlier row faults
        late = err
    lens = np.fromiter((ids.size for ids in id_rows), dtype=np.intp, count=len(id_rows))
    ids = np.concatenate(id_rows, dtype=np.intp, casting="unsafe") if id_rows else np.zeros(0, np.intp)
    values = None
    if not sort_rows:
        values = np.concatenate(value_rows) if value_rows else np.zeros(0)
    out = csr_checked(lens, ids, values, bound, fault, sort_rows)
    if late is not None:
        raise late
    return out


def csr_checked(lens, ids, values, bound, fault, sort_rows: bool = False):
    """CSR arrays ``(indptr, ids, values)`` from concatenated rows, checked on whole arrays.

    Row r holds the next ``lens[r]`` entries of the intp ``ids`` and the
    float ``values`` (None for id-only rows).  The checks, each in a few
    whole-array numpy calls:

    - ``"range"``: every id lies in ``[0, bound)``;
    - ``"twice"``: no row lists an id twice;
    - ``"values"``: every value is finite and non-negative.

    The first faulting row r calls ``fault(r, check)`` with its first
    failing check, in the order above; ``fault`` raises.  With
    ``sort_rows`` (sets) the ids of each row are sorted, and a duplicate is
    checked before the range.

    The order of the entries is a contract that the hooks rely on bit for
    bit, so only ``sort_rows`` changes it:

    - Values keep each row's input order.  A scalar gain sums a row's
      terms with ``np.add.reduce``, whose pairwise sum depends on their
      order, and ``bincount`` loads add each bucket's entries in the order
      they are stored.
    - Sets come out sorted, since a set-cover gain sums its items'
      weights in item order.  Only rows that are not strictly increasing
      are sorted.
    """
    n = lens.size
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(lens, out=indptr[1:])
    first = {}

    def row_of(pos) -> int:
        return int(np.searchsorted(indptr, pos, side="right")) - 1

    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        first["range"] = row_of(np.argmax((ids < 0) | (ids >= bound)))
    if sort_rows:
        order = ("twice", "range")
        rising = ids[1:] > ids[:-1]
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < ids.size)] - 1] = True  # across rows
        if not rising.all():
            row = np.repeat(np.arange(n), lens)
            unsorted = np.zeros(n, dtype=bool)
            unsorted[row[1:][~rising]] = True
            at = np.flatnonzero(unsorted[row])
            ids[at], twice = _sorted_in_rows(row[at], ids[at])
            if twice is not None:
                first["twice"] = twice
    else:
        order = ("range", "twice", "values")
        if ids.size:
            _, twice = _sorted_in_rows(np.repeat(np.arange(n), lens), ids)
            if twice is not None:
                first["twice"] = twice
        if values.size and not (values.min() >= 0 and values.max() < np.inf):
            first["values"] = row_of(np.argmax(~np.isfinite(values) | (values < 0)))
    if first:
        r = min(first.values())
        fault(r, next(check for check in order if first.get(check) == r))
    return indptr, ids, values


def _sorted_in_rows(row, ids):
    """(``ids`` sorted within each row, the first row that lists an id twice or None).

    ``row`` holds each entry's row, ascending.  One ``np.sort`` of the keys
    ``row * span + id - lo`` sorts every row at once (a ``lexsort`` of the
    pairs took several times as long); equal neighbouring keys are an id
    listed twice.  Where the keys would overflow intp, ids are replaced by
    their ranks first.
    """
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    ranked = None
    if span * (int(row[-1]) + 1) > np.iinfo(np.intp).max:
        ranked, ids = np.unique(ids, return_inverse=True)
        lo, span = 0, ranked.size
    base = row * span
    key = ids - lo
    key += base
    key.sort()
    twice = np.flatnonzero(key[1:] == key[:-1])
    key -= base  # sorting within rows leaves every entry's row in place
    if ranked is None:
        key += lo
    else:
        key = ranked[key]
    return key, (int(row[twice[0]]) if twice.size else None)
