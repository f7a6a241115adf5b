"""Every ``InputError`` that the square-matrix constructors raise, with its
exact message; and the near-symmetric input they accept.  Every ``InputError``
raised in ``functions/concave.py`` and ``functions/coverage.py``, one
malformed input per ``raise``, with its exact message."""

import ast
from pathlib import Path

import numpy as np
import pytest

from submemo.core import InputError
from submemo.functions import (
    ClusteredConcaveModularData,
    ClusteredSetCoverData,
    DeepTwoLayerData,
    DispersionData,
    FacilityLocationData,
    FeatureBasedData,
    GraphCutData,
    LogDetData,
    ProbabilisticSetCoverData,
    SaturatedCoverageData,
    SetCoverData,
)
from submemo.functions.concave import make_concave

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


FUNCTIONS = Path(__file__).resolve().parents[1] / "src" / "submemo" / "functions"
TABLE_FILES = ("concave.py", "coverage.py")


def _clustered(clusters, weights, n=2):
    return ClusteredConcaveModularData(clusters, weights, n)


def _deep(scores=((1.0, 0.0, 2.0), (0.0, 1.0, 1.0)), mix=((1.0, 1.0),), outer=(1.0,)):
    return DeepTwoLayerData(np.asarray(scores), np.asarray(mix), np.asarray(outer))


# case -> (constructor call, exact message)
DATA_CASES = {
    "concave-bad-power": (lambda: make_concave("pow:abc"), "bad concave spec 'pow:abc'"),
    "concave-power-out-of-range": (lambda: make_concave("pow:1.5"),
                                   "power exponent must lie in (0, 1), got 1.5"),
    "concave-unknown": (lambda: make_concave("cube"),
                        "unknown concave shape 'cube' (use sqrt, log1p, pow:<p>)"),
    "features-mismatched": (lambda: FeatureBasedData([([0, 1], [1.0])], num_features=2),
                            "feature scores: element 0 has mismatched id/value arrays"),
    "features-id-out-of-range": (lambda: FeatureBasedData([([0], [1.0]), ([2], [1.0])], num_features=2),
                                 "feature scores: element 1 references an id out of range"),
    "features-id-twice": (lambda: FeatureBasedData([([1, 1], [1.0, 2.0])], num_features=2),
                          "feature scores: element 0 lists an id twice"),
    "features-negative-sparse": (lambda: FeatureBasedData([([0], [-1.0])], num_features=2),
                                 "feature scores: scores must be finite and non-negative"),
    "features-negative-dense": (lambda: FeatureBasedData(np.array([[1.0, -1.0]])),
                                "feature scores must be finite and non-negative"),
    "features-no-count": (lambda: FeatureBasedData([([0], [1.0])]),
                          "sparse feature scores need num_features"),
    "clusters-misaligned": (lambda: _clustered([[0]], []), "clusters and cluster_weights must align"),
    "clusters-none": (lambda: _clustered([], []), "need at least one cluster"),
    "cluster-lengths": (lambda: _clustered([[0, 1]], [[1.0]]),
                        "cluster 0: ids and weights have different lengths"),
    "cluster-out-of-range": (lambda: _clustered([[0], [0, 2]], [[1.0], [1.0, 1.0]]),
                             "cluster 1 references an element out of range"),
    "cluster-element-twice": (lambda: _clustered([[1, 1]], [[1.0, 1.0]]),
                              "cluster 0 lists an element twice"),
    "cluster-weight-nan": (lambda: _clustered([[0]], [[np.nan]]),
                           "cluster weights must be finite and non-negative"),
    "deep-1d-scores": (lambda: _deep(scores=(1.0, 2.0)),
                       "deep function needs 2-d scores, 2-d mix, 1-d outer weights"),
    "deep-mix-shape": (lambda: _deep(mix=((1.0, 1.0, 1.0),)),
                       "mix weights must be (outer x inner) = (1 x 2), got (1, 3)"),
    "deep-negative-scores": (lambda: _deep(scores=((1.0, -1.0, 0.0), (0.0, 1.0, 1.0))),
                             "deep function scores must be finite and non-negative"),
    "deep-inf-mix": (lambda: _deep(mix=((1.0, np.inf),)), "deep function mix must be finite and non-negative"),
    "deep-negative-outer": (lambda: _deep(outer=(-1.0,)),
                            "deep function outer must be finite and non-negative"),
    "cover-duplicate-item": (lambda: SetCoverData([[0], [1, 0, 1]], 2),
                             "set of element 1 contains duplicate items"),
    "cover-item-out-of-range": (lambda: SetCoverData([[2]], 2),
                                "set of element 0 references items outside the universe"),
    "cover-weight-count": (lambda: SetCoverData([[0]], 2, weights=[1.0]),
                           "need one weight per universe item (2), got (1,)"),
    "cover-weight-nan": (lambda: SetCoverData([[0]], 2, weights=[1.0, np.nan]),
                         "universe weights must be finite and non-negative"),
    "cover-negative-universe": (lambda: SetCoverData([[0]], -1), "universe size must be non-negative"),
    "clustered-cover-no-cluster": (lambda: ClusteredSetCoverData([[0]], 2, clusters=[]),
                                   "clustered set cover needs at least one cluster"),
    "clustered-cover-out-of-range": (lambda: ClusteredSetCoverData([[0]], 2, clusters=[[0], [2]]),
                                     "cluster 1 references item 2 outside the universe"),
    "clustered-cover-item-twice": (lambda: ClusteredSetCoverData([[0]], 2, clusters=[[1, 1]]),
                                   "cluster 0 lists item 1 twice"),
    "probabilistic-1d": (lambda: ProbabilisticSetCoverData(np.ones(3)),
                         "probability matrix must be 2-d (items x elements)"),
    "probabilistic-above-one": (lambda: ProbabilisticSetCoverData(np.array([[0.5, 1.5]])),
                                "coverage probabilities must lie in [0, 1]"),
    "probabilistic-weight-count": (lambda: ProbabilisticSetCoverData(np.ones((2, 1)), weights=[1.0]),
                                   "need one weight per universe item (2), got (1,)"),
}


def _raise_site(info) -> tuple[str, int]:
    """(file name, line) of the innermost frame, where the error was raised."""
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return Path(tb.tb_frame.f_code.co_filename).name, tb.tb_lineno


@pytest.mark.parametrize("case", sorted(DATA_CASES))
def test_data_constructor_errors(case):
    build, message = DATA_CASES[case]
    with pytest.raises(InputError) as info:
        build()
    assert type(info.value) is InputError
    assert str(info.value) == message
    assert _raise_site(info)[0] in TABLE_FILES


def input_error_raises(tree: ast.AST) -> list[int]:
    """Lines of the ``raise InputError(...)`` statements in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "InputError")


def test_input_error_raises_are_found():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise InputError('a')\n"
        "    raise InputError(\n"
        "        f'b {x}'\n"
        "    )\n"
        "    raise ValueError('c')\n"
    )
    assert input_error_raises(ast.parse(source)) == [3, 4]


def test_every_raise_in_the_table_files_has_a_case():
    sites = set()
    for build, _ in DATA_CASES.values():
        with pytest.raises(InputError) as info:
            build()
        sites.add(_raise_site(info))
    for name in TABLE_FILES:
        want = input_error_raises(ast.parse((FUNCTIONS / name).read_text()))
        assert want
        assert sorted(line for file, line in sites if file == name) == want, name
