"""Log-determinant (DPP) class with an incrementally maintained Cholesky factor.

The statistic is the lower-triangular factor of the ridged kernel restricted
to the memo set, in memo order.  Growing the set appends one factor row by
forward substitution (O(|X|^2)); shrinking deletes a row and re-triangularizes
the trailing block with plane rotations (also O(|X|^2)).

Each move is computed once.  ``_cholesky`` factors a principal submatrix
from scratch for ``_evaluate`` and ``_rebuild``; ``_extend`` gives the row
and Schur complement that j appends, for ``_gain_add`` and ``_update``.
Each holds the class's only raise of its error.  scipy is imported
by the first solve, so a process that builds no log-det instance never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import InputError, SubmodularFunction, real_array
from .graphs import _symmetric

LOGDET_REL_TOL = 1e-7
# ridge 0 is kept only when every squared pivot of the raw kernel's factor is
# at least this share of its largest diagonal entry; a rank-deficient kernel
# that factors by rounding alone has pivots many orders below it
_PIVOT_REL_TOL = 1e-10


def _ridged(k: np.ndarray, ridge: float) -> np.ndarray:
    """``k + ridge * I`` bit for bit, with one n x n allocation.

    ``k + 0.0`` turns a -0.0 into 0.0 as the off-diagonal zeros of
    ``ridge * I`` do.
    """
    out = k + 0.0
    out[np.diag_indices_from(out)] += ridge
    return out


def _solve_lower(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``factor @ y = b`` for a lower-triangular ``factor``; scipy loads
    on the first call."""
    from scipy.linalg import solve_triangular

    return solve_triangular(factor, b, lower=True, check_finite=False)


def _log_det(factor: np.ndarray) -> float:
    """log det of ``factor @ factor.T``; 0.0 for the empty factor."""
    return float(2.0 * np.log(np.diag(factor)).sum())


@dataclass
class LogDetData:
    """PSD kernel with an optional diagonal ridge.

    ``ridge=None`` tries the raw kernel first and falls back to 1e-6 when the
    kernel is rank deficient, that is when its Cholesky factorization fails
    or a squared pivot falls below ``_PIVOT_REL_TOL`` times the largest
    diagonal entry; an explicit ridge is used as given.
    """

    kernel: np.ndarray
    ridge: float | None = None
    ridged: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = real_array(self.kernel, "kernel", 2)
        if k.shape[0] != k.shape[1]:
            raise InputError(f"kernel must be square, got shape {k.shape}")
        if not _symmetric(k):
            raise InputError("kernel must be symmetric")
        self.kernel = k
        if self.ridge is None:
            floor = _PIVOT_REL_TOL * k.diagonal().max(initial=0.0)
            for eps in (0.0, 1e-6):
                try:
                    pivots = np.diag(np.linalg.cholesky(_ridged(k, eps)))
                except np.linalg.LinAlgError:
                    continue
                if eps or np.all(pivots * pivots >= floor):
                    self.ridge = eps
                    break
            else:
                raise InputError("kernel is not PSD even after the default ridge")
        else:
            self.ridge = float(real_array(self.ridge, "ridge", 0, values="non-negative"))
            try:
                np.linalg.cholesky(_ridged(k, self.ridge))
            except np.linalg.LinAlgError:
                raise InputError("kernel plus ridge failed factorization (not PSD)") from None
        self.ridged = _ridged(k, self.ridge)

    @property
    def n(self) -> int:
        return self.kernel.shape[0]


class LogDetFunction(SubmodularFunction):
    """f(X) = log det((S + ridge*I)_X) = 2 * sum(log diag of the factor)."""

    def __init__(self, data: LogDetData):
        super().__init__(data.n)
        self.data = data
        self._factor = np.zeros((0, 0))

    def _cholesky(self, idx: np.ndarray) -> np.ndarray:
        """Factor of the ridged kernel restricted to ``idx``, in that order."""
        try:
            return np.linalg.cholesky(self.data.ridged[np.ix_(idx, idx)])
        except np.linalg.LinAlgError:
            raise InputError("principal submatrix failed factorization (not PD)") from None

    def _extend(self, j: int):
        """(y, d): the factor row that j appends, and its squared diagonal,
        the Schur complement of the memo block in memo + j."""
        kr = self.data.ridged
        if len(self.memo):
            y = _solve_lower(self._factor, kr[self.memo.to_indices(), j])
            d = kr[j, j] - np.dot(y, y)
        else:
            y, d = np.zeros(0), kr[j, j]
        if d <= 0:
            raise InputError("kernel not positive definite along this extension")
        return y, d

    def _evaluate(self, idx):
        return _log_det(self._cholesky(idx))

    def _position(self, j) -> int:
        """Row of the member j in the factor: its place in the insertion order."""
        return int(np.flatnonzero(self.memo.to_indices() == j)[0])

    def _gain_add(self, j):
        return float(np.log(self._extend(j)[1]))

    def _gain_remove(self, j):
        pos = self._position(j)
        e = np.zeros(len(self.memo))
        e[pos] = 1.0
        z = _solve_lower(self._factor, e)
        return float(-np.log(np.dot(z, z)))

    def _update(self, j):
        y, d = self._extend(j)
        m = y.size
        grown = np.zeros((m + 1, m + 1))
        grown[:m, :m] = self._factor
        grown[m, :m] = y
        grown[m, m] = np.sqrt(d)
        self._factor = grown

    def _downdate(self, j):
        pos = self._position(j)
        m = self._factor.shape[0]
        trimmed = np.delete(self._factor, pos, axis=0)  # (m-1, m), lower Hessenberg
        for c in range(pos, m - 1):
            a, b = trimmed[c, c], trimmed[c, c + 1]
            r = np.hypot(a, b)
            if r == 0.0:
                continue
            cos, sin = a / r, b / r
            left = trimmed[c:, c].copy()
            right = trimmed[c:, c + 1]
            trimmed[c:, c] = cos * left + sin * right
            trimmed[c:, c + 1] = -sin * left + cos * right
        self._factor = np.ascontiguousarray(trimmed[:, : m - 1])
        neg = np.diag(self._factor) < 0
        if np.any(neg):
            self._factor[:, neg] *= -1.0

    def _rebuild(self, idx):
        self._factor = self._cholesky(idx)

    def _value_from_statistic(self):
        return _log_det(self._factor)

    def _statistic(self):
        return {"factor": self._factor.reshape(-1)}
