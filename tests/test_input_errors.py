"""Every ``InputError`` that the square-matrix constructors raise, with its
exact message; and the near-symmetric input they accept.  Every ``InputError``
raised in ``functions/concave.py``, ``functions/coverage.py``,
``functions/graphs.py``, ``functions/dispersion.py``,
``functions/compose.py`` and ``bench/dataio.py``, one malformed input or
file per ``raise``, with its exact message."""

import ast
from pathlib import Path

import numpy as np
import pytest

from submemo.bench.dataio import (
    load_dense_matrix,
    load_set_system,
    load_sparse_triplets,
    save_dense_matrix,
    save_set_system,
)
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
    MixtureData,
    MixtureFunction,
    ModularData,
    ModularPenaltyData,
    ModularSetFunction,
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


SUBMEMO = Path(__file__).resolve().parents[1] / "src" / "submemo"
TABLE_FILES = ("functions/concave.py", "functions/coverage.py", "functions/graphs.py",
               "functions/dispersion.py", "functions/compose.py", "bench/dataio.py")


def _clustered(clusters, weights, n=2):
    return ClusteredConcaveModularData(clusters, weights, n)


def _modular(n):
    return ModularSetFunction(ModularData(np.ones(n)))


def _deep(scores=((1.0, 0.0, 2.0), (0.0, 1.0, 1.0)), mix=((1.0, 1.0),), outer=(1.0,)):
    return DeepTwoLayerData(np.asarray(scores), np.asarray(mix), np.asarray(outer))


# case -> (constructor call, exact message)
DATA_CASES = {
    "concave-bad-power": (lambda: make_concave("pow:abc"), "bad concave spec 'pow:abc'"),
    "concave-power-out-of-range": (lambda: make_concave("pow:1.5"),
                                   "power exponent must lie in (0, 1), got 1.5"),
    "concave-unknown": (lambda: make_concave("cube"),
                        "unknown concave shape 'cube' (use sqrt, log1p, pow:<p>)"),
    "features-non-integer-id": (lambda: FeatureBasedData([([0.6], [1.0])], num_features=2),
                                "feature scores: element 0 has non-integer ids"),
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
    "cluster-non-integer-element": (lambda: _clustered([[0.5]], [[1.0]]),
                                    "cluster 0 lists a non-integer element"),
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
    "cover-non-integer-item": (lambda: SetCoverData([[0.7, 1.9]], 3),
                               "set of element 0 must list integer items"),
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
    "clustered-cover-non-integer-item": (lambda: ClusteredSetCoverData([[0]], 2, clusters=[[0.5]]),
                                         "cluster 0 lists non-integer item 0.5"),
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
    "saturated-alpha-fraction": (lambda: SaturatedCoverageData(BASE, alpha_fraction=0.0),
                                 "alpha_fraction must be positive"),
    "saturated-alpha-count": (lambda: SaturatedCoverageData(BASE, alpha=[1.0, 1.0]),
                              "alpha must have one threshold per row"),
    "saturated-alpha-negative": (lambda: SaturatedCoverageData(BASE, alpha=[1.0, -1.0, 1.0]),
                                 "alpha thresholds must be finite and non-negative"),
    "graph-cut-lambda": (lambda: GraphCutData(BASE, lam=-0.5), "graph cut lambda must be finite and >= 0"),
    "dispersion-diagonal": (lambda: DispersionData(BASE + np.eye(3)),
                            "distance matrix must have a zero diagonal"),
    "dispersion-kind": (lambda: DispersionData(BASE, kind="max"),
                        "dispersion kind must be one of ('min', 'sum', 'min-sum')"),
    "modular-not-1d": (lambda: ModularData(np.ones((2, 2))), "modular weights must be a non-empty 1-d array"),
    "modular-inf": (lambda: ModularData([1.0, np.inf]), "modular weights must be finite"),
    "mixture-data-empty": (lambda: MixtureData([]), "mixture needs at least one component"),
    "mixture-data-negative-weight": (lambda: MixtureData([(-1.0, ModularData(np.ones(2)))]),
                                     "mixture weights must be finite and non-negative"),
    "mixture-empty": (lambda: MixtureFunction([]), "mixture needs at least one component"),
    "mixture-ground-sets": (lambda: MixtureFunction([(1.0, _modular(2)), (1.0, _modular(3))]),
                            "mixture components must share the ground set"),
    "mixture-nan-weight": (lambda: MixtureFunction([(np.nan, _modular(2))]),
                           "mixture weights must be finite and non-negative"),
    "penalty-not-1d": (lambda: ModularPenaltyData(ModularData(np.ones(2)), np.ones((2, 2))),
                       "penalty weights must be a finite 1-d array"),
}


def _loading(loader, text: str):
    """A case that writes ``text`` to ``input`` under a scratch directory and loads it."""
    def run(tmp_path):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        return loader(path)
    return run


# case -> (call on a scratch directory, exact message with {path} for the file read)
FILE_CASES = {
    "dense-no-header": (_loading(load_dense_matrix, "1,2\n3,4\n"),
                        "{path}: expected a 'n=<count>' header row"),
    "dense-bad-header": (_loading(load_dense_matrix, "n=two\n"), "{path}: bad header 'n=two'"),
    "dense-row-count": (_loading(load_dense_matrix, "n=2\n1,2\n"),
                        "{path}: header says 2 rows, file has 1"),
    "dense-row-cells": (_loading(load_dense_matrix, "n=2\n1,2\n3\n"),
                        "{path}: row 1 has 1 cells, expected 2"),
    "dense-non-numeric": (_loading(load_dense_matrix, "n=2\n1,2\n3,x\n"),
                          "{path}: non-numeric cell in row 1"),
    "dense-non-finite": (_loading(load_dense_matrix, "n=2\n1,nan\n3,4\n"),
                         "{path}: non-finite value in row 0"),
    "dense-save-not-square": (lambda tmp_path: save_dense_matrix(tmp_path / "input", np.zeros((2, 3))),
                              "dense format stores square matrices only"),
    "triplet-no-header": (_loading(load_sparse_triplets, "n=2\n"),
                          "{path}: expected a 'triplet n=<n> buckets=<m>' header"),
    "triplet-bad-header": (_loading(load_sparse_triplets, "triplet n=2\n"),
                           "{path}: bad triplet header 'triplet n=2'"),
    "triplet-cells": (_loading(load_sparse_triplets, "triplet n=2 buckets=1\n0,1\n"),
                      "{path}: triplet line 0 needs 3 cells"),
    "triplet-not-numeric": (_loading(load_sparse_triplets, "triplet n=2 buckets=1\n0,1,x\n"),
                            "{path}: bad triplet on line 0"),
    "triplet-out-of-range": (_loading(load_sparse_triplets, "triplet n=2 buckets=1\n0,1,1.0\n1,0,1.0\n"),
                             "{path}: triplet out of range on line 1"),
    "sets-invalid-json": (_loading(load_set_system, "[1,"),
                          "{path}: invalid JSON (Expecting value: line 1 column 4 (char 3))"),
    "sets-not-object": (_loading(load_set_system, "[1]"), "{path}: set system must be a JSON object"),
    "sets-missing-key": (_loading(load_set_system, '{"n": 1, "sets": [[0]]}'),
                         "{path}: set system is missing 'universe'"),
    "sets-count": (_loading(load_set_system, '{"n": 2, "universe": 1, "sets": [[0]]}'),
                   "{path}: 'n' is 2 but 1 sets are listed"),
    "sets-save-unknown": (lambda tmp_path: save_set_system(tmp_path / "input", ModularData(np.ones(2))),
                          "cannot serialize ModularData as a set system"),
}


def _raise_site(tb) -> tuple[str, int]:
    """(file under ``submemo/``, line) of the innermost frame of ``tb``, where
    the error was raised."""
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename)
    return f"{path.parent.name}/{path.name}", tb.tb_lineno


@pytest.mark.parametrize("case", sorted(DATA_CASES))
def test_data_constructor_errors(case):
    build, message = DATA_CASES[case]
    with pytest.raises(InputError) as info:
        build()
    assert type(info.value) is InputError
    assert str(info.value) == message
    assert _raise_site(info.tb)[0] in TABLE_FILES


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_file_format_errors(case, tmp_path):
    call, message = FILE_CASES[case]
    with pytest.raises(InputError) as info:
        call(tmp_path)
    assert type(info.value) is InputError
    assert str(info.value) == message.format(path=tmp_path / "input")
    assert _raise_site(info.tb)[0] == "bench/dataio.py"


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


def test_a_set_given_as_an_iterator_is_read_once():
    data = SetCoverData([iter([1, 0]), iter([])], 2)
    assert data.items.tolist() == [0, 1] and data.indptr.tolist() == [0, 2, 2]


def test_every_raise_in_the_table_files_has_a_case(tmp_path):
    sites = set()
    for build, _ in DATA_CASES.values():
        with pytest.raises(InputError) as info:
            build()
        sites.add(_raise_site(info.tb))
    for call, _ in FILE_CASES.values():
        with pytest.raises(InputError) as info:
            call(tmp_path)
        sites.add(_raise_site(info.tb))
    for cls, (_, symmetric) in SQUARE.items():  # these raise from graphs.py's _validated_square
        for matrix, _, symmetric_only in SQUARE_CASES.values():
            if symmetric or not symmetric_only:
                with pytest.raises(InputError) as info:
                    cls(matrix)
                sites.add(_raise_site(info.tb))
    for name in TABLE_FILES:
        want = input_error_raises(ast.parse((SUBMEMO / name).read_text()))
        assert want
        assert sorted(line for file, line in sites if file == name) == want, name
