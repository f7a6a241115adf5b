"""Every ``InputError`` that the square-matrix constructors raise, with its
exact message; and the near-symmetric input they accept."""

import numpy as np
import pytest

from submemo.core import InputError
from submemo.functions import (
    DispersionData,
    FacilityLocationData,
    GraphCutData,
    LogDetData,
    SaturatedCoverageData,
)

# constructor -> (what its messages call the matrix, whether it must be symmetric)
SQUARE = {
    FacilityLocationData: ("facility location similarity", False),
    SaturatedCoverageData: ("saturated coverage similarity", False),
    GraphCutData: ("graph cut similarity", True),
    DispersionData: ("distance matrix", True),
}
# symmetric, non-negative, zero diagonal: every constructor accepts it
BASE = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])


def _with(entries: dict) -> np.ndarray:
    m = BASE.copy()
    for (i, j), v in entries.items():
        m[i, j] = v
    return m


def _pair(v) -> dict:
    return {(0, 1): v, (1, 0): v}  # keeps the matrix symmetric


# case -> (matrix, message after "<what> ", whether only symmetric constructors raise)
SQUARE_CASES = {
    "not-2d": (np.zeros(3), "must be a square matrix, got shape (3,)", False),
    "not-square": (np.zeros((2, 3)), "must be a square matrix, got shape (2, 3)", False),
    "nan": (_with(_pair(np.nan)), "contains non-finite entries", False),
    "+inf": (_with(_pair(np.inf)), "contains non-finite entries", False),
    "-inf": (_with(_pair(-np.inf)), "contains non-finite entries", False),
    "nan-before-negative": (_with({**_pair(np.nan), (0, 2): -1.0, (2, 0): -1.0}),
                            "contains non-finite entries", False),
    "negative": (_with(_pair(-1.0)), "must be non-negative", False),
    "asymmetric": (_with({(0, 1): 1.5}), "must be symmetric", True),
}


@pytest.mark.parametrize("case", sorted(SQUARE_CASES))
@pytest.mark.parametrize("cls", list(SQUARE), ids=lambda c: c.__name__)
def test_square_matrix_errors(cls, case):
    matrix, message, symmetric_only = SQUARE_CASES[case]
    what, symmetric = SQUARE[cls]
    if symmetric_only and not symmetric:
        cls(matrix)  # accepted
        return
    with pytest.raises(InputError) as info:
        cls(matrix)
    assert type(info.value) is InputError
    assert str(info.value) == f"{what} {message}"


def test_symmetric_within_allclose_is_accepted_with_private_cols():
    s = _with({(0, 1): 1.0 + 1e-12})
    d = GraphCutData(s)
    assert not np.shares_memory(d.cols, d.similarity)
    assert np.array_equal(d.cols, s.T)
    DispersionData(s)
    LogDetData(s + 4.0 * np.eye(3))


INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
# case -> (kernel, ridge, message)
LOGDET_CASES = {
    "not-2d": (np.ones(3), None, "kernel must be square, got shape (3,)"),
    "not-square": (np.ones((2, 3)), None, "kernel must be square, got shape (2, 3)"),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), None, "kernel contains non-finite entries"),
    "+inf": (np.array([[np.inf, 0.0], [0.0, 1.0]]), None, "kernel contains non-finite entries"),
    "-inf": (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), None, "kernel contains non-finite entries"),
    "asymmetric": (np.array([[1.0, 0.5], [0.4, 1.0]]), None, "kernel must be symmetric"),
    "not-psd": (INDEFINITE, None, "kernel is not PSD even after the default ridge"),
    "negative-ridge": (np.eye(2), -1.0, "ridge must be finite and non-negative"),
    "inf-ridge": (np.eye(2), np.inf, "ridge must be finite and non-negative"),
    "nan-ridge": (np.eye(2), np.nan, "ridge must be finite and non-negative"),
    "ridge-too-small": (INDEFINITE, 0.5, "kernel plus ridge failed factorization (not PSD)"),
}


@pytest.mark.parametrize("case", sorted(LOGDET_CASES))
def test_log_det_kernel_errors(case):
    kernel, ridge, message = LOGDET_CASES[case]
    with pytest.raises(InputError) as info:
        LogDetData(kernel, ridge=ridge)
    assert type(info.value) is InputError
    assert str(info.value) == message


@pytest.mark.parametrize("first, ridge", [(0.0, None), (0.5, 0.0), (0.5, 1e-3)])
def test_log_det_ridged_kernel_is_kernel_plus_ridge_identity(first, ridge):
    k = np.diag([first, 1.0, 2.0, 3.0])  # a zero first entry takes the 1e-6 fallback
    k[1, 2] = k[2, 1] = 0.5
    k[0, 3] = k[3, 0] = -0.0
    d = LogDetData(k, ridge=ridge)
    assert d.ridge == (1e-6 if ridge is None else ridge)
    assert d.ridged.tobytes() == (k + d.ridge * np.eye(4)).tobytes()
