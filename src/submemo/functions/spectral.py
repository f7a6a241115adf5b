"""Log-determinant (DPP) class with an incrementally maintained Cholesky factor.

The statistic is the lower-triangular factor of the ridged kernel restricted
to the memo set, in memo order.  Growing the set appends one factor row by
forward substitution (O(|X|^2)); shrinking deletes a row and re-triangularizes
the trailing block with plane rotations (also O(|X|^2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from ..core import InputError, SubmodularFunction

LOGDET_REL_TOL = 1e-7


@dataclass
class LogDetData:
    """PSD kernel with an optional diagonal ridge.

    ``ridge=None`` tries the raw kernel first and falls back to 1e-6 when the
    kernel is rank deficient; an explicit ridge is used as given.
    """

    kernel: np.ndarray
    ridge: float | None = None
    ridged: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InputError(f"kernel must be square, got shape {k.shape}")
        if not np.all(np.isfinite(k)):
            raise InputError("kernel contains non-finite entries")
        if not np.allclose(k, k.T, rtol=1e-9, atol=1e-12):
            raise InputError("kernel must be symmetric")
        self.kernel = k
        if self.ridge is None:
            for eps in (0.0, 1e-6):
                try:
                    np.linalg.cholesky(k + eps * np.eye(k.shape[0]))
                    self.ridge = eps
                    break
                except np.linalg.LinAlgError:
                    continue
            else:
                raise InputError("kernel is not PSD even after the default ridge")
        else:
            self.ridge = float(self.ridge)
            if self.ridge < 0:
                raise InputError("ridge must be non-negative")
            try:
                np.linalg.cholesky(k + self.ridge * np.eye(k.shape[0]))
            except np.linalg.LinAlgError:
                raise InputError("kernel plus ridge failed factorization (not PSD)") from None
        self.ridged = k + self.ridge * np.eye(k.shape[0])

    @property
    def n(self) -> int:
        return self.kernel.shape[0]


class LogDetFunction(SubmodularFunction):
    """f(X) = log det((S + ridge*I)_X) = 2 * sum(log diag of the factor)."""

    name = "log-det"

    def __init__(self, data: LogDetData):
        super().__init__(data.n)
        self.data = data
        self._factor = np.zeros((0, 0))

    def _evaluate(self, idx):
        if idx.size == 0:
            return 0.0
        sub = self.data.ridged[np.ix_(idx, idx)]
        try:
            chol = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            raise InputError("principal submatrix failed factorization (not PD)") from None
        return float(2.0 * np.log(np.diag(chol)).sum())

    def _schur(self, j: int) -> float:
        """Schur complement of the memo block in memo + j."""
        kr = self.data.ridged
        m = len(self.memo)
        if m == 0:
            return float(kr[j, j])
        b = kr[self.memo.to_indices(), j]
        y = solve_triangular(self._factor, b, lower=True, check_finite=False)
        return float(kr[j, j] - np.dot(y, y))

    def _position(self, j) -> int:
        """Row of the member j in the factor: its place in the insertion order."""
        return int(np.flatnonzero(self.memo.to_indices() == j)[0])

    def _gain_add(self, j):
        d = self._schur(j)
        if d <= 0:
            raise InputError("kernel not positive definite along this extension")
        return float(np.log(d))

    def _gain_remove(self, j):
        pos = self._position(j)
        e = np.zeros(len(self.memo))
        e[pos] = 1.0
        z = solve_triangular(self._factor, e, lower=True, check_finite=False)
        return float(-np.log(np.dot(z, z)))

    def _update(self, j):
        kr = self.data.ridged
        m = len(self.memo)
        grown = np.zeros((m + 1, m + 1))
        if m:
            idx = self.memo.to_indices()
            b = kr[idx, j]
            y = solve_triangular(self._factor, b, lower=True, check_finite=False)
            d = kr[j, j] - np.dot(y, y)
            grown[:m, :m] = self._factor
            grown[m, :m] = y
        else:
            d = kr[j, j]
        if d <= 0:
            raise InputError("kernel not positive definite along this extension")
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
        if idx.size == 0:
            self._factor = np.zeros((0, 0))
            return
        sub = self.data.ridged[np.ix_(idx, idx)]
        try:
            self._factor = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            raise InputError("principal submatrix failed factorization (not PD)") from None

    def _value_from_statistic(self):
        if self._factor.shape[0] == 0:
            return 0.0
        return float(2.0 * np.log(np.diag(self._factor)).sum())

    def _statistic(self):
        return {"factor": self._factor.reshape(-1)}

    def _spawn(self):
        return LogDetFunction(self.data)
