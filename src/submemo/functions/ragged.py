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
non-negative integer keys in linear time.  ``row_views`` lists every row's
slice once, for the scalar hooks that read one element's row per call.
"""

from __future__ import annotations

import numpy as np

# numpy's pairwise sum adds up to this many terms in 8 lanes and splits
# longer runs in two (``PW_BLOCKSIZE`` in its loops).
_PAIRWISE_BLOCK = 128


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


def row_views(indptr: np.ndarray, values: np.ndarray) -> list:
    """``values[indptr[r]:indptr[r + 1]]`` of every CSR row r, as a list of
    views: made once, a scalar hook indexes the list instead of slicing."""
    ptr = indptr.tolist()
    return [values[lo:hi] for lo, hi in zip(ptr, ptr[1:])]


def ragged_sum(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum of each consecutive segment of ``values`` with the given lengths,
    bitwise ``np.add.reduce`` of each segment.

    Segments are summed as rows of 2-d blocks, which runs numpy's 1-d
    pairwise sum on each row.  That sum starts from 0.0; below
    ``_PAIRWISE_BLOCK`` terms it adds the first 8 * (L // 8) in 8 lanes and
    the rest one by one, so zeros after a row's terms leave its sum bitwise
    unchanged.  Each segment shorter than that is copied, once, into a
    zeroed array at width 8 * (L // 8) + 7, and a longer one at its own
    length, with the segments grouped by width.  Each group is then one
    block, read in place.  A block per distinct length instead costs one
    gather each: at n = 1500 (seed 1, 2-vCPU x86-64 host, best of 9) a
    set-cover chain's sum (20 lengths) took 185 against 93 us and 55 sets
    (15 lengths) 73 against 22 us.  When every segment has one length L,
    ``values`` is that block already, and its row sums are read without the
    grouping and the copy: at 1500 segments of 8, 23 against 77 us.
    """
    if lens.size == 0:
        return np.zeros(0)
    if (lens == lens[0]).all():
        length = int(lens[0])
        if length == 0:
            return np.zeros(lens.size)
        return values.reshape(lens.size, length).sum(axis=1)
    widths = np.where(lens < _PAIRWISE_BLOCK, lens | 7, lens)  # 8 * (L // 8) + 7 below the block
    order = stable_order(widths, int(widths.max()) + 1)
    w = widths[order]
    ends = np.cumsum(w)
    at = np.empty_like(ends)
    at[order] = ends - w  # each segment's start in the padded copy, grouped by width
    at -= np.cumsum(lens) - lens  # minus each segment's start in values
    padded = np.zeros(int(ends[-1]))
    padded[np.repeat(at, lens) + np.arange(values.size)] = values
    out = np.empty(lens.size)
    cuts = [0, *(np.flatnonzero(w[1:] != w[:-1]) + 1).tolist(), lens.size]
    for lo, hi in zip(cuts, cuts[1:]):
        width = int(w[lo])
        block = padded[ends[lo] - width:ends[hi - 1]].reshape(hi - lo, width)
        out[order[lo:hi]] = block.sum(axis=1)
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
            rows = np.flatnonzero(unsorted)
            ids[at], twice = _sorted_in_rows(lens[rows], ids[at])
            if twice is not None:
                first["twice"] = int(rows[twice])
    else:
        order = ("range", "twice", "values")
        _, twice = _sorted_in_rows(lens, ids)
        if twice is not None:
            first["twice"] = twice
        if values.size and not (values.min() >= 0 and values.max() < np.inf):
            first["values"] = row_of(np.argmax(~np.isfinite(values) | (values < 0)))
    if first:
        r = min(first.values())
        fault(r, next(check for check in order if first.get(check) == r))
    return indptr, ids, values


def _sorted_in_rows(lens, ids):
    """(``ids`` sorted within each row, the first row that lists an id twice or None).

    Row r holds the next ``lens[r]`` entries of ``ids``.  Rows of one
    length are one 2-d block, sorted along its rows.  Otherwise one
    ``np.sort`` of the keys ``row * span + id - lo`` sorts every row at once
    (a ``lexsort`` of the pairs took several times as long); where the keys
    would overflow intp, ids are replaced by their ranks first.  Equal
    neighbours within a row are an id listed twice.  Sorting one 2-d block
    per distinct length instead costs about 15 us a length: on reversed
    sets of mixed lengths (2-vCPU x86-64 host, best of 5) it took 300
    against 80 us at n = 1500 and 31 against 37 ms at n = 24000 (3.46M
    items).
    """
    if ids.size == 0:
        return ids, None
    if (lens == lens[0]).all():
        block = np.sort(ids.reshape(lens.size, int(lens[0])), axis=1)
        twice = np.flatnonzero((block[:, 1:] == block[:, :-1]).any(axis=1))
        return block.ravel(), (int(twice[0]) if twice.size else None)
    row = np.repeat(np.arange(lens.size), lens)
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    ranked = None
    if span * lens.size > np.iinfo(np.intp).max:
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
