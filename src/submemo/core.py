"""Core contract for memoized submodular functions.

A function instance owns three pieces of mutable state: the memoized set
(the set its statistic describes), the class-specific statistic itself, and
a bundle of operation counters.  Algorithms interact with the instance only
through the public methods below, which keeps the counter accounting exact:
``evaluate`` is the only entry point that pays full oracle cost, while
``gain_add`` / ``gain_remove`` / ``gain_singleton`` answer marginal values
from the live statistic.

``gains_add(cands)``, ``gains_remove(ids)`` and ``gains_singleton(ids)``
read the add, removal and singleton gains of many ids with one hook call
each (``_gains_add``, ``_gains_remove``, ``_singletons``) and return the
hook's array.  Ids are checked as the scalar method checks them, and the
whole batch is checked before anything is charged.  A hook may keep gains
between calls, provided they stay bitwise the scalar reads and the array
it returns is the caller's.  ``functions.kept.KeptGains`` keeps the add
gains of facility location, set cover and the sparse-load classes
(feature-based, clustered concave): a read recomputes only the candidates
that the statistic's moves since the last read can reach, by a reach rule
each class states.  The batch charges ``len(ids)`` gains in one step.
Where a class has no batched hook, the batch is the per-id public loop:
``ValueOracleFunction`` has none by design, so a value-oracle gain stays
one oracle call.

``sweep(order)`` is the extreme-point sweep: the gain of each element of
``order`` on top of the elements before it, charged as ``set_memo(())``
plus n gains and n updates; the memo ends at V in ``order``.  A ``_chain``
hook computes the whole chain and the full-set statistic in one call.
Its gains go straight into the weights, and the n gains and n updates are
charged and the memo extended in one step each: ``check_permutation`` has
checked the order, and the memo starts empty.  Without the hook each gain
is computed on the prefix, for ``ValueOracleFunction`` one oracle call
each: the baseline measured.

Booking.  When something observes the public scalar methods, a batched
read also books one public ``gain_add``, ``gain_remove`` or
``gain_singleton`` call per charged gain, and a chained ``sweep`` one
``gain_add``/``update`` pair per element, with the ``_booking`` flag set;
a booked call returns at once, without checks, charges or hooks.  The
methods count as observed when the bound method is not
``SubmodularFunction``'s own function (``_PLAIN_CALLS``): a subclass
override, a wrapper patched on the classes (the benchmark's tracer, which
counts one public call per charged gain, or a test's spy) or a callable
set on the instance.  Unobserved, nothing is booked, since a booked call
would compute nothing.  ``_booking`` is False outside the batched reads
and ``sweep``.

An instance must not be driven from two threads at once; facility
location's batched reads may run part of their work on a worker thread of
their own, and return only after it has finished.

The per-element methods (``gain_add``, ``gain_remove``, ``gain_singleton``,
``update``, ``downdate``) accept a plain ``int`` in range without calling
``_check_id``; any other id goes through it, so numpy ints and bools are
converted and everything else raises as before.  Membership is one byte
of ``Subset``'s flags, and ``update``/``downdate`` grow or shrink the memo
without checking the id again.  ``Subset`` keeps its flags in a
``bytearray`` with ``mask`` a numpy view of the same bytes; ``Subset(n,
ids)`` checks the ids as one array and replays them one by one only to
name the first bad id or repeat.

``Subset`` keeps its members twice: a Python list, which gives the order
and takes every append as ``list.append``, and an intp index of capacity
n, allocated on the first read, whose first ``_synced`` entries equal the
list's first ``_synced`` members.  A read (``to_indices``, a value-oracle
probe) catches the index up with the list.  A removal shifts the synced
prefix when the index was read since the last removal and otherwise cuts
it at the removed slot.  ``to_indices`` hands out a copy.  A value-oracle
probe passes the oracle a view instead: for an add it writes j into the
free slot after the members, for a removal it filters j out.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """Relative comparison with an absolute floor, the library-wide rule."""
    return abs(a - b) <= max(ABS_TOL, rel * max(1.0, abs(a), abs(b)))


def tol_for(value: float) -> float:
    return max(ABS_TOL, REL_TOL * abs(value))


class InputError(ValueError):
    """Malformed input: out-of-range ids, dimension mismatch, bad data."""


class PreconditionError(InputError):
    """Operation called in a state that violates its precondition."""


class NonConvergenceError(RuntimeError):
    """Iterative solver hit its iteration cap; carries the best iterate."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class Subset:
    """Ordered set of distinct element ids with an O(1) membership mask.

    The member order is meaningful: it is the order in which elements were
    added, and classes whose statistic is order-sensitive (the triangular
    factor of the log-det class, facility location's tie rule) rely on it.
    The flags live in a ``bytearray`` (one byte per id, 1 = member);
    ``mask`` is a boolean numpy view of the same bytes.

    The members are a Python list, so an append stays ``list.append``,
    beside an intp index of capacity n that readers slice.  The index is
    allocated on the first read and catches up with the list only when
    read: ``_idx[:_synced] == _members[:_synced]`` always holds.  A removal
    deletes the member from the list.  If the index was read since the
    last removal, it shifts the synced prefix over the member's slot;
    otherwise it cuts the synced prefix at that slot, so a memo that no
    hook reads pays no shift per removal.
    """

    __slots__ = ("n", "_members", "_flags", "_mask", "_idx", "_shift", "_synced", "_read")

    def __init__(self, n: int, members=()):
        if n < 1:
            raise InputError(f"subset needs a positive ground set size, got {n}")
        self.n = int(n)
        self._flags = bytearray(self.n)
        self._mask = np.frombuffer(self._flags, dtype=bool)
        self._idx = self._shift = None
        self._synced, self._read = 0, False
        if not isinstance(members, (np.ndarray, range, list, tuple)):
            members = list(members)  # a one-shot iterable is read twice on failure
        try:
            idx = check_ids(members, self.n)
        except InputError:
            idx = None
        if idx is not None:
            self._mask[idx] = True
            if np.count_nonzero(self._mask) == idx.size:
                self._members: list[int] = idx.tolist()
                return
        # a bad id or a repeat: replay the ids one by one, so the first
        # failure in input order raises, as with ``add``
        self._flags[:] = bytes(self.n)
        self._members = []
        for j in members:
            self.add(j)

    @property
    def members(self) -> list[int]:
        """Insertion-ordered member ids (do not mutate)."""
        return self._members

    @property
    def mask(self) -> np.ndarray:
        """Boolean membership mask (do not mutate)."""
        return self._mask

    def add(self, j) -> None:
        j = _check_id(j, self.n)
        if self._flags[j]:
            raise PreconditionError(f"element {j} already in subset")
        self._members.append(j)
        self._flags[j] = 1

    def remove(self, j) -> None:
        j = _check_id(j, self.n)
        if not self._flags[j]:
            raise PreconditionError(f"element {j} not in subset")
        self._drop(j)

    def _drop(self, j: int) -> None:
        """Remove the member j (checked) from the list, the index and the flags."""
        members = self._members
        pos = members.index(j)
        del members[pos]
        s = self._synced
        if pos < s:
            if self._read:  # a reader keeps up: a memoryview move, half the cost of numpy's
                self._shift[pos:s - 1] = self._shift[pos + 1:s]
                self._synced = s - 1
            else:  # unread since the last removal: the next read catches up from pos
                self._synced = pos
        self._read = False
        self._flags[j] = 0

    def _index(self) -> np.ndarray:
        """The index buffer (capacity n), its first len(self) entries synced."""
        buf = self._idx
        if buf is None:
            buf = self._idx = np.empty(self.n, dtype=np.intp)
            self._shift = memoryview(buf)
        s, k = self._synced, len(self._members)
        if s < k:
            buf[s:k] = self._members[s:]
            self._synced = k
        self._read = True
        return buf

    def to_indices(self) -> np.ndarray:
        """The members in insertion order as a fresh intp array."""
        return self._index()[:len(self._members)].copy()

    def copy(self) -> "Subset":
        c = Subset.__new__(Subset)
        c.n = self.n
        c._members = list(self._members)
        c._flags = bytearray(self._flags)
        c._mask = np.frombuffer(c._flags, dtype=bool)
        c._idx = c._shift = None
        c._synced, c._read = 0, False
        return c

    def __reduce__(self):
        # the mask is a view of the flags; rebuilding keeps it one
        return Subset, (self.n, self._members)

    def __contains__(self, j) -> bool:
        # anything but an integer id in range is not a member, as with a set
        return isinstance(j, (int, np.integer)) and 0 <= j < self.n and bool(self._flags[j])

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __eq__(self, other) -> bool:
        if isinstance(other, Subset):
            return self.n == other.n and self._flags == other._flags
        return NotImplemented

    def __repr__(self) -> str:
        return f"Subset(n={self.n}, members={self._members})"


def _check_id(j, n: int) -> int:
    if not isinstance(j, (int, np.integer)):
        raise InputError(f"element id must be an integer, got {j!r}")
    if not 0 <= j < n:
        raise InputError(f"element id {j} out of range [0, {n})")
    return int(j)


def check_permutation(n: int, order) -> np.ndarray:
    """``order`` as an intp array, refused unless it lists every id in
    ``[0, n)`` once.  Ids must have an integer dtype, as in ``check_ids``: a
    float or string order is refused, not truncated."""
    order = np.asarray(order)
    if order.size and order.dtype.kind not in "iu":
        raise InputError(f"order must list integer element ids, got dtype {order.dtype}")
    order = order.astype(np.intp, copy=False)  # a uint64 id past intp wraps negative
    if order.shape != (n,) or (n and (order.min() < 0 or order.max() >= n)):
        raise InputError("order must be a permutation of all element ids")
    seen = np.zeros(n, dtype=bool)
    seen[order] = True  # n ids in range, so all seen means none repeats
    if not seen.all():
        raise InputError("order must be a permutation of all element ids")
    return order


def check_ids(cands, n: int) -> np.ndarray:
    """``_check_id`` over a sequence of ids, as one intp array."""
    try:
        idx = np.asarray(cands)
    except ValueError:  # ragged nesting: _check_id names the first bad id
        idx = None
    if idx is None or idx.ndim != 1 or idx.dtype.kind not in "iu":
        idx = np.fromiter((_check_id(j, n) for j in cands), dtype=np.intp)
    bad = (idx < 0) | (idx >= n)
    if bad.any():
        _check_id(int(idx[bad][0]), n)
    return idx.astype(np.intp, copy=False)


def as_subset(n: int, X) -> Subset:
    """Coerce an iterable of ids (or a Subset) to a validated Subset."""
    if isinstance(X, Subset):
        if X.n != n:
            raise InputError(f"subset over ground set {X.n}, expected {n}")
        return X
    return Subset(n, X)


@dataclass
class EvalCounters:
    """Work counters distinguishing oracle cost from statistic-based cost.

    ``oracle_evals`` counts from-scratch f(X) evaluations, ``gain_evals``
    statistic-based marginal computations, ``memo_updates`` /
    ``memo_downdates`` incremental statistic transitions (kept separate
    because one class has an asymmetric downdate), and ``memo_rebuilds``
    from-scratch statistic builds.
    """

    oracle_evals: int = 0
    gain_evals: int = 0
    memo_updates: int = 0
    memo_downdates: int = 0
    memo_rebuilds: int = 0

    def copy(self) -> "EvalCounters":
        return EvalCounters(**self.as_dict())

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __add__(self, other: "EvalCounters") -> "EvalCounters":
        return EvalCounters(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def __sub__(self, other: "EvalCounters") -> "EvalCounters":
        return EvalCounters(
            **{f.name: getattr(self, f.name) - getattr(other, f.name) for f in fields(self)}
        )


@dataclass
class ModularFunction:
    """Offset plus per-element weights: m(Y) = offset + sum_{j in Y} w_j.

    Houses subgradients and the two supergradient bounds; evaluating at any
    Y is O(|Y|) and never touches the function instance again.
    """

    offset: float
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise InputError("modular weights must be a 1-d array")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def value(self, X) -> float:
        idx = as_subset(self.n, X).to_indices()
        return float(self.offset + self.weights[idx].sum())

    def dot(self, x: np.ndarray) -> float:
        return float(np.dot(self.weights, x))


class SubmodularFunction(ABC):
    """Abstract memoized set function over ``{0..n-1}``.

    Subclasses implement the underscore hooks; the public methods add
    precondition checks, memo-set bookkeeping and counter accounting.
    All classes are normalized so f(empty) = 0.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InputError(f"ground set must have at least one element, got {n}")
        self.n = int(n)
        self.memo = Subset(self.n)
        self.counters = EvalCounters()
        self._booking = False  # a batched read or sweep books its charged calls

    # ------------------------------------------------------------------
    # public contract
    # ------------------------------------------------------------------

    def evaluate(self, X) -> float:
        """From-scratch f(X).  Counts one oracle evaluation; memo untouched."""
        sub = as_subset(self.n, X)
        self.counters.oracle_evals += 1
        return self._evaluate(sub.to_indices())

    def gain_add(self, j) -> float:
        """f(memo + j) - f(memo) from the live statistic (read-only)."""
        if self._booking:  # a batch checked and charged this read
            return None
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        if self.memo._flags[j]:
            raise PreconditionError(f"gain_add: element {j} already memoized")
        self.counters.gain_evals += 1
        return self._gain_add(j)

    def gains_add(self, cands) -> np.ndarray:
        """``gain_add`` of every id in ``cands``, computed in one hook call.

        Ids are checked as ``gain_add`` checks them; see ``_batch`` for the
        charge and the booked calls.
        """
        idx = check_ids(cands, self.n)
        held = idx[self.memo.mask[idx]]
        if held.size:
            raise PreconditionError(f"gains_add: element {held[0]} already memoized")
        return self._batch(idx, self._gains_add(idx), self.gain_add)

    def gains_remove(self, ids) -> np.ndarray:
        """``gain_remove`` of every id in ``ids``, computed in one hook call."""
        idx = check_ids(ids, self.n)
        free = idx[~self.memo.mask[idx]]
        if free.size:
            raise PreconditionError(f"gains_remove: element {free[0]} not memoized")
        return self._batch(idx, self._gains_remove(idx), self.gain_remove)

    def gains_singleton(self, ids) -> np.ndarray:
        """``gain_singleton`` of every id in ``ids``, computed in one hook call."""
        idx = check_ids(ids, self.n)
        return self._batch(idx, self._singletons(idx), self.gain_singleton)

    def _batch(self, idx: np.ndarray, gains, read) -> np.ndarray:
        """The batched hook's ``gains`` of the checked ``idx``, charged as
        ``len(idx)`` gains in one step, and booked through one ``read`` (the
        public scalar method) per id when ``read`` is observed; without a
        hook (None), ``read`` of each id."""
        if gains is None:
            return np.array([read(j) for j in idx.tolist()], dtype=float)
        self.counters.gain_evals += idx.size
        if _observed(read):
            self._booking = True
            try:
                for j in idx.tolist():
                    read(j)
            finally:
                self._booking = False
        return gains

    def gain_remove(self, j) -> float:
        """f(memo) - f(memo - j) from the live statistic (read-only)."""
        if self._booking:
            return None
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        if not self.memo._flags[j]:
            raise PreconditionError(f"gain_remove: element {j} not memoized")
        self.counters.gain_evals += 1
        return self._gain_remove(j)

    def gain_singleton(self, j) -> float:
        """f({j}), the gain of j over the empty set.

        Cheap for every class (the empty statistic is trivial), so it is
        accounted as a statistic-based gain, not an oracle call.
        """
        if self._booking:
            return None
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        self.counters.gain_evals += 1
        return self._singleton(j)

    def update(self, j) -> None:
        """Transform the statistic p_X into p_{X+j} and grow the memo set."""
        if self._booking:  # sweep charged it and grew the memo
            return
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        if self.memo._flags[j]:
            raise PreconditionError(f"update: element {j} already memoized")
        self.counters.memo_updates += 1
        self._update(j)
        memo = self.memo  # j is checked: grow it without Subset.add's checks
        memo._members.append(j)
        memo._flags[j] = 1

    def downdate(self, j) -> None:
        """Transform the statistic p_X into p_{X-j} and shrink the memo set."""
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        if not self.memo._flags[j]:
            raise PreconditionError(f"downdate: element {j} not memoized")
        self.counters.memo_downdates += 1
        self._downdate(j)
        self.memo._drop(j)

    def set_memo(self, X) -> None:
        """Point the memo at X and rebuild the statistic from scratch."""
        sub = as_subset(self.n, X)
        self.counters.memo_rebuilds += 1
        self.memo = sub.copy() if sub is X else sub
        self._rebuild(self.memo.to_indices())

    def sweep(self, order) -> np.ndarray:
        """Gains along a permutation: weight[order[i]] is the gain of
        order[i] on top of the first i elements.

        Charged as ``set_memo(())`` plus n gains and n updates; the memo
        ends at V in ``order``.  A ``_chain`` hook computes the gains and
        the final statistic in one call; its gains are the weights, and the
        gains and updates are charged and the memo grown in one step each.
        When ``gain_add`` or ``update`` is observed, one pair per element,
        run with ``_booking`` set, only books them.  A chain that returns
        the wrong number of gains raises ValueError before anything is
        charged.  If anything raises after the first ``set_memo(())``, a
        second, charged ``set_memo(())`` brings the memo and the statistic
        back to ∅ together before the error propagates.
        """
        order = check_permutation(self.n, order)
        self.set_memo(())
        ids = order.tolist()
        gain_add, update = self.gain_add, self.update
        weights = np.empty(self.n)
        try:
            gains = self._chain(order)
            if gains is None:
                for j in ids:
                    weights[j] = gain_add(j)
                    update(j)
            else:
                if gains.shape != order.shape:
                    raise ValueError(f"_chain gave {gains.size} gains for {order.size} ids")
                weights[order] = gains
                self.counters.gain_evals += self.n
                self.counters.memo_updates += self.n
                memo = self.memo  # empty: the permutation is all of it
                memo._members.extend(ids)
                memo._mask[:] = True
                if _observed(gain_add, update):
                    self._booking = True
                    for j in ids:
                        gain_add(j)
                        update(j)
        except BaseException:
            self.set_memo(())
            raise
        finally:
            self._booking = False
        return weights

    def memo_value(self) -> float:
        """f(memo_set) read off the live statistic; free of oracle cost."""
        return self._value_from_statistic()

    def value_at(self, X) -> float:
        """f(X) via the statistic: point the memo at X, then read its value."""
        self.set_memo(X)
        return self.memo_value()

    def clone_detached(self) -> "SubmodularFunction":
        """Independent copy: shared immutable data, fresh memo state, zeroed
        counters (building the copy is not metered)."""
        c = self._spawn()
        c.memo = self.memo.copy()
        c._rebuild(c.memo.to_indices())
        c.counters.reset()
        return c

    def reset_counters(self) -> None:
        self.counters.reset()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} |memo|={len(self.memo)}>"

    # ------------------------------------------------------------------
    # per-class hooks (no counter or memo bookkeeping inside)
    # ------------------------------------------------------------------

    @abstractmethod
    def _evaluate(self, idx: np.ndarray) -> float:
        """From-scratch f over the given member ids (statistic unused)."""

    @abstractmethod
    def _gain_add(self, j: int) -> float:
        ...

    def _gains_add(self, idx: np.ndarray) -> np.ndarray | None:
        """``_gain_add`` of every id in ``idx`` (none memoized), bitwise
        equal to the scalar hook; None where a class has no batched form."""
        return None

    def _chain(self, order: np.ndarray) -> np.ndarray | None:
        """Gain of each id of ``order`` on top of the ids before it, from
        the empty set, leaving the statistic at the full set as one
        ``_update`` per id would; bitwise equal to that scalar loop.  None
        where a class has no chained form (then the statistic is untouched).
        """
        return None

    @abstractmethod
    def _gain_remove(self, j: int) -> float:
        ...

    def _gains_remove(self, idx: np.ndarray) -> np.ndarray | None:
        """``_gain_remove`` of every id in ``idx`` (all memoized), bitwise
        equal to the scalar hook; None where a class has no batched form."""
        return None

    def _singleton(self, j: int) -> float:
        return self._evaluate(np.asarray([j], dtype=np.intp))

    def _singletons(self, idx: np.ndarray) -> np.ndarray | None:
        """``_singleton`` of every id in ``idx``, bitwise equal to the scalar
        hook; None where a class has no batched form."""
        return None

    @abstractmethod
    def _update(self, j: int) -> None:
        """Statistic transition before j joins the memo set."""

    @abstractmethod
    def _downdate(self, j: int) -> None:
        """Statistic transition while j is still in the memo set."""

    @abstractmethod
    def _rebuild(self, idx: np.ndarray) -> None:
        """Overwrite the statistic with the from-scratch build for ``idx``."""

    @abstractmethod
    def _value_from_statistic(self) -> float:
        ...

    @abstractmethod
    def _statistic(self) -> dict:
        """Name -> float array snapshot views used by verify/rebuild checks."""

    def _spawn(self) -> "SubmodularFunction":
        """Fresh empty instance sharing this instance's immutable data.

        The default builds ``type(self)(self.data)``, which serves every
        class whose constructor takes only its data object.  A class whose
        constructor takes more than its data (a list of components, an
        inner function) overrides it.
        """
        return type(self)(self.data)


# The public scalar methods as ``SubmodularFunction`` defines them.  A
# batched read or a chained sweep books its charged calls only through a
# method that is not one of these, since one of these would return at once.
_PLAIN_CALLS = frozenset((SubmodularFunction.gain_add, SubmodularFunction.gain_remove,
                          SubmodularFunction.gain_singleton, SubmodularFunction.update))


def _observed(*calls) -> bool:
    """Whether a bound method of ``calls`` is not one of ``_PLAIN_CALLS``."""
    return any(getattr(call, "__func__", None) not in _PLAIN_CALLS for call in calls)


class ValueOracleFunction(SubmodularFunction):
    """Value-oracle baseline: the statistic degenerates to the scalar f(X).

    Every gain costs one fresh oracle evaluation against the cached f(X);
    statistic-based gain counters never move.  The most recent gain is kept
    as a pending value so that accepting that element (update/downdate)
    costs no extra oracle call, mirroring how a careful value-oracle
    implementation would run greedy-style loops.
    """

    def __init__(self, inner: SubmodularFunction):
        super().__init__(inner.n)
        self._inner = inner
        self._cached = 0.0
        self._pending = None  # (kind, j, resulting f value)

    def _oracle(self, idx: np.ndarray) -> float:
        self.counters.oracle_evals += 1
        return self._inner._evaluate(idx)

    def _probe(self, kind: str, j: int) -> float:
        """f(memo + j) for kind "add", f(memo - j) for "remove": one oracle
        call on a slice of the memo's index, kept as the pending value."""
        memo = self.memo
        buf = memo._index()
        k = len(memo)
        if kind == "add":  # j is no member, so the slot after them is free
            buf[k] = j
            idx = buf[:k + 1]  # a view, read only by this call
        else:
            idx = buf[:k]
            idx = idx[idx != j]
        fnew = self._oracle(idx)
        self._pending = (kind, j, fnew)
        return fnew

    def _move(self, kind: str, j: int) -> None:
        """Cache f after the move, reusing a pending probe of the same move."""
        p = self._pending
        self._cached = p[2] if p and p[:2] == (kind, j) else self._probe(kind, j)
        self._pending = None

    # public overrides: gains are oracle calls here, not statistic reads

    def gain_add(self, j) -> float:
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        if self.memo._flags[j]:
            raise PreconditionError(f"gain_add: element {j} already memoized")
        return self._probe("add", j) - self._cached

    def gain_remove(self, j) -> float:
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        if not self.memo._flags[j]:
            raise PreconditionError(f"gain_remove: element {j} not memoized")
        return self._cached - self._probe("remove", j)

    def gain_singleton(self, j) -> float:
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        return self._oracle(np.asarray([j], dtype=np.intp))

    def update(self, j) -> None:
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        if self.memo._flags[j]:
            raise PreconditionError(f"update: element {j} already memoized")
        self.counters.memo_updates += 1
        self._move("add", j)
        memo = self.memo
        memo._members.append(j)
        memo._flags[j] = 1

    def downdate(self, j) -> None:
        if type(j) is not int or not 0 <= j < self.n:
            j = _check_id(j, self.n)
        if not self.memo._flags[j]:
            raise PreconditionError(f"downdate: element {j} not memoized")
        self.counters.memo_downdates += 1
        self._move("remove", j)
        self.memo._drop(j)

    def set_memo(self, X) -> None:
        sub = as_subset(self.n, X)
        self.counters.memo_rebuilds += 1
        self.memo = sub.copy() if sub is X else sub
        self._pending = None
        if len(self.memo) == 0:
            self._cached = 0.0  # normalization, known without an oracle call
        else:
            self._cached = self._oracle(self.memo.to_indices())

    # hooks

    def _evaluate(self, idx: np.ndarray) -> float:
        return self._inner._evaluate(idx)

    # hooks, for wrappers that drive this instance as their base; every
    # answer still comes from a metered oracle call

    def _gain_add(self, j):
        return self._probe("add", j) - self._cached

    def _gain_remove(self, j):
        return self._cached - self._probe("remove", j)

    def _singleton(self, j):
        return self._oracle(np.asarray([j], dtype=np.intp))

    def _update(self, j):
        self._move("add", j)

    def _downdate(self, j):
        self._move("remove", j)

    def _rebuild(self, idx: np.ndarray) -> None:
        self._pending = None
        self._cached = 0.0 if idx.size == 0 else self._oracle(idx)

    def _value_from_statistic(self) -> float:
        return self._cached

    def _statistic(self) -> dict:
        return {"value": np.asarray([self._cached])}

    def _spawn(self) -> "ValueOracleFunction":
        return ValueOracleFunction(self._inner._spawn())


def wrap_value_oracle(F: SubmodularFunction) -> ValueOracleFunction:
    """Value-oracle view of ``F``: same function, oracle-only accounting.

    The wrapper starts at F's current memo set, with zeroed counters: the
    oracle call that fills its cached value is not metered.
    """
    vo = ValueOracleFunction(F._spawn())
    vo.set_memo(F.memo)
    vo.reset_counters()
    return vo
