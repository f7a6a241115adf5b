"""Every ``InputError`` that the square-matrix constructors raise, with its
exact message; and the near-symmetric input they accept.  Every ``InputError``
raised in ``core.py``, ``maximize.py``, ``functions/concave.py``,
``functions/coverage.py``, ``functions/graphs.py``,
``functions/dispersion.py``, ``functions/spectral.py``,
``functions/compose.py``, ``minimize.py`` and ``bench/dataio.py``, one
malformed input, call or file per ``raise``, with its exact message.
Strings, ragged rows and complex entries in every numeric input, array or
single number, raise ``InputError`` from ``core.real_array`` with no
warning."""

import ast
import warnings
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
from submemo.core import (
    InputError,
    ModularFunction,
    Subset,
    as_subset,
    check_ids,
    check_permutation,
)
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
    make_function,
)
from submemo.functions.concave import make_concave
from submemo.functions.graphs import GraphCutFunction
from submemo.maximize import (
    Cardinality,
    Knapsack,
    distributed_greedy,
    greedy_lazy,
    greedy_stochastic,
    sieve_streaming,
)
from submemo.minimize import AtLeast, ExplicitFamily, lovasz_descent, mmin_constrained

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
    "not-2d": (np.zeros(3), "must be a 2-d array, got shape (3,)", False),
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


# numeric input -> (constructor call on it, what its messages call it, its
# dimension: 0 for a single number)
DENSE = {
    "facility-location": (FacilityLocationData, "facility location similarity", 2),
    "saturated-coverage": (SaturatedCoverageData, "saturated coverage similarity", 2),
    "saturated-alpha": (lambda a: SaturatedCoverageData(BASE, alpha=a), "alpha", 1),
    "saturated-alpha-fraction": (lambda f: SaturatedCoverageData(BASE, alpha_fraction=f),
                                 "alpha_fraction", 0),
    "graph-cut": (GraphCutData, "graph cut similarity", 2),
    "graph-cut-lambda": (lambda lam: GraphCutData(BASE, lam=lam), "graph cut lambda", 0),
    "dispersion": (DispersionData, "distance matrix", 2),
    "log-det": (LogDetData, "kernel", 2),
    "log-det-ridge": (lambda r: LogDetData(np.eye(3), ridge=r), "ridge", 0),
    "modular": (ModularData, "modular weights", 1),
    "modular-function": (lambda w: ModularFunction(0.0, w), "modular weights", 1),
    "feature-based": (lambda m: FeatureBasedData(np.asarray(m)), "feature scores", 2),
    "feature-based-sparse": (lambda v: FeatureBasedData([(np.arange(len(v)), v)], num_features=3),
                             "feature scores", 1),
    "cluster-weights": (lambda w: ClusteredConcaveModularData([np.arange(len(w))], [w], 3),
                        "cluster weights", 1),
    "set-cover-weights": (lambda w: SetCoverData([[0]], 3, weights=w), "universe weights", 1),
    "probabilistic-cover": (ProbabilisticSetCoverData, "coverage probabilities", 2),
    "deep-scores": (lambda m: DeepTwoLayerData(m, np.ones((1, 3)), np.ones(1)), "deep function scores", 2),
    "deep-mix": (lambda m: DeepTwoLayerData(np.ones((2, 3)), m, np.ones(1)), "deep function mix", 2),
    "deep-outer": (lambda v: DeepTwoLayerData(np.ones((2, 3)), np.ones((1, 2)), v),
                   "deep function outer", 1),
    "penalty": (lambda p: ModularPenaltyData(ModularData(np.ones(3)), p), "penalty weights", 1),
    "mixture-data-weight": (lambda w: MixtureData([(w, ModularData(np.ones(2)))]), "mixture weights", 0),
    "mixture-weight": (lambda w: MixtureFunction([(w, _modular(2))]), "mixture weights", 0),
    "knapsack-costs": (lambda c: Knapsack(c, 1.0), "knapsack costs", 1),
    "knapsack-budget": (lambda b: Knapsack((1.0,), b), "knapsack budget", 0),
}
# malformed form -> (input per dimension 0, 1, 2; message after "<what> ")
MALFORMED = {
    "strings": (("a", ["1", "a"], [["0", "a"], ["a", "0"]]), "must hold real numbers"),
    "ragged": (([1.0, [2.0, 3.0]], [1.0, [2.0, 3.0]], [[0.0, 1.0], [1.0]]),
               "must be a rectangular array of numbers"),
    "complex": ((1 + 1j, np.ones(3) + 1j, BASE + 1j), "must be real, got complex entries"),
    "complex-zero-imaginary": ((1 + 0j, np.ones(3) + 0j, BASE + 0j), "must be real, got complex entries"),
}


def _malformed(target: str, form: str):
    """(the constructor call on the malformed input, the exact message)."""
    build, what, dim = DENSE[target]
    inputs, message = MALFORMED[form]
    return (lambda: build(inputs[dim])), f"{what} {message}"


# "<input>/<form>" -> (call, exact message); feature-based data reads only an
# array as dense, and numpy makes no ragged array
DENSE_CASES = {f"{target}/{form}": _malformed(target, form) for target in DENSE for form in MALFORMED
               if (target, form) != ("feature-based", "ragged")}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_malformed_dense_inputs_raise_input_error(case):
    build, message = DENSE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        with pytest.raises(InputError) as info:
            build()
    assert type(info.value) is InputError
    assert str(info.value) == message
    assert _raise_site(info.tb)[0] == "core.py"


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
    "not-2d": (np.ones(3), None, "kernel must be a 2-d array, got shape (3,)"),
    "not-square": (np.ones((2, 3)), None, "kernel must be square, got shape (2, 3)"),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), None, "kernel must be finite"),
    "+inf": (np.array([[np.inf, 0.0], [0.0, 1.0]]), None, "kernel must be finite"),
    "-inf": (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), None, "kernel must be finite"),
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
TABLE_FILES = ("core.py", "maximize.py", "functions/concave.py", "functions/coverage.py",
               "functions/graphs.py", "functions/dispersion.py", "functions/spectral.py",
               "functions/compose.py", "minimize.py", "bench/dataio.py")

# v v^T for v = (0.54, 0.48), whose entries are these decimals: singular in
# exact arithmetic, so only rounding decides each pivot's sign.  Factored in
# the order (0, 1) the last pivot is a few 1e-17 above zero, so an explicit
# ridge 0 is accepted; in the order (1, 0) it is at or below zero.
RANK_ONE = np.array([[0.2916, 0.2592], [0.2592, 0.2304]])


def _rank_one_log_det():
    return make_function(2, LogDetData(RANK_ONE, ridge=0.0))


def _rank_one_extension():
    F = _rank_one_log_det()
    F.update(1)
    return F.gain_add(0)


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
    "features-dense-not-2d": (lambda: FeatureBasedData(np.ones(3)),
                              "feature scores must be a 2-d array, got shape (3,)"),
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
                       "deep function scores must be a 2-d array, got shape (2,)"),
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
                                         "cluster 0 must list integer items"),
    "clustered-cover-out-of-range": (lambda: ClusteredSetCoverData([[0]], 2, clusters=[[0], [2]]),
                                     "cluster 1 references items outside the universe"),
    "clustered-cover-item-twice": (lambda: ClusteredSetCoverData([[0]], 2, clusters=[[1, 1]]),
                                   "cluster 0 contains duplicate items"),
    "probabilistic-1d": (lambda: ProbabilisticSetCoverData(np.ones(3)),
                         "coverage probabilities must be a 2-d array, got shape (3,)"),
    "probabilistic-above-one": (lambda: ProbabilisticSetCoverData(np.array([[0.5, 1.5]])),
                                "coverage probabilities must lie in [0, 1]"),
    "probabilistic-weight-count": (lambda: ProbabilisticSetCoverData(np.ones((2, 1)), weights=[1.0]),
                                   "need one weight per universe item (2), got (1,)"),
    "saturated-alpha-fraction": (lambda: SaturatedCoverageData(BASE, alpha_fraction=0.0),
                                 "alpha_fraction must be finite and positive"),
    "saturated-alpha-count": (lambda: SaturatedCoverageData(BASE, alpha=[1.0, 1.0]),
                              "alpha must have one threshold per row"),
    "saturated-alpha-negative": (lambda: SaturatedCoverageData(BASE, alpha=[1.0, -1.0, 1.0]),
                                 "alpha must be finite and non-negative"),
    "graph-cut-lambda": (lambda: GraphCutData(BASE, lam=-0.5),
                         "graph cut lambda must be finite and non-negative"),
    "graph-cut-lambda-not-a-number": (lambda: GraphCutData(BASE, lam=[1.0, 2.0]),
                                      "graph cut lambda must be a single number, got shape (2,)"),
    "dispersion-diagonal": (lambda: DispersionData(BASE + np.eye(3)),
                            "distance matrix must have a zero diagonal"),
    "dispersion-kind": (lambda: DispersionData(BASE, kind="max"),
                        "dispersion kind must be one of ('min', 'sum', 'min-sum')"),
    "logdet-evaluate-out-of-order": (lambda: _rank_one_log_det().evaluate([1, 0]),
                                     "principal submatrix failed factorization (not PD)"),
    "logdet-set-memo-out-of-order": (lambda: _rank_one_log_det().set_memo([1, 0]),
                                     "principal submatrix failed factorization (not PD)"),
    "logdet-extension-out-of-order": (_rank_one_extension,
                                      "kernel not positive definite along this extension"),
    "modular-not-1d": (lambda: ModularData(np.ones((2, 2))),
                       "modular weights must be a 1-d array, got shape (2, 2)"),
    "modular-empty": (lambda: ModularData(np.zeros(0)), "modular weights must be a non-empty 1-d array"),
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
                       "penalty weights must be a 1-d array, got shape (2, 2)"),
    "knapsack-zero-cost": (lambda: Knapsack((1.0, 0.0), 1.0), "knapsack costs must be finite and positive"),
    "knapsack-inf-budget": (lambda: Knapsack((1.0,), np.inf), "knapsack budget must be finite and positive"),
}


# case -> (call, exact message)
CORE_CASES = {
    "subset-empty-ground-set": (lambda: Subset(0), "subset needs a positive ground set size, got 0"),
    "id-not-an-integer": (lambda: check_ids([0.5], 3), "element id must be an integer, got 0.5"),
    "id-out-of-range": (lambda: check_ids([5], 3), "element id 5 out of range [0, 3)"),
    "order-not-integers": (lambda: check_permutation(2, [0.0, 1.0]),
                           "order must list integer element ids, got dtype float64"),
    "order-out-of-range": (lambda: check_permutation(2, [0, 2]),
                           "order must be a permutation of all element ids"),
    "order-repeats": (lambda: check_permutation(2, [0, 0]), "order must be a permutation of all element ids"),
    "subset-other-ground-set": (lambda: as_subset(3, Subset(2)), "subset over ground set 2, expected 3"),
    "function-empty-ground-set": (lambda: GraphCutFunction(GraphCutData(np.zeros((0, 0)))),
                                  "ground set must have at least one element, got 0"),
}
# case -> (call, exact message)
MAXIMIZE_CASES = {
    "cardinality-zero": (lambda: Cardinality(0), "cardinality limit must be >= 1, got 0"),
    "cardinality-above-n": (lambda: greedy_lazy(_modular(2), Cardinality(3)),
                            "cardinality 3 exceeds ground set size 2"),
    "knapsack-cost-count": (lambda: greedy_lazy(_modular(2), Knapsack((1.0,), 1.0)),
                            "need one knapsack cost per element"),
    "knapsack-nothing-fits": (lambda: greedy_lazy(_modular(2), Knapsack((2.0, 2.0), 1.0)),
                              "no element fits the knapsack budget"),
    "unknown-constraint": (lambda: greedy_lazy(_modular(2), "odd"), "unknown constraint 'odd'"),
    "stochastic-eps": (lambda: greedy_stochastic(_modular(2), 1, eps=1.0), "eps must lie in (0, 1)"),
    "sieve-eps": (lambda: sieve_streaming(_modular(2), 1, eps=0.0), "eps must lie in (0, 1)"),
    "machine-count": (lambda: distributed_greedy(_modular(2), 1, machines=0),
                      "machine count must lie in [1, 2]"),
}
# file -> its cases: each call raises in that file
CALL_CASES = {"core.py": CORE_CASES, "maximize.py": MAXIMIZE_CASES}


def _loading(loader, text: str):
    """A case that writes ``text`` to ``input`` under a scratch directory and loads it."""
    def run(tmp_path):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        return loader(path)
    return run


# case -> (call, exact message)
MINIMIZE_CASES = {
    "lovasz-eps": (lambda: lovasz_descent(_modular(2), eps=1.0), "eps must lie in (0, 1)"),
    "lovasz-iterations": (lambda: lovasz_descent(_modular(2), iterations=0),
                          "iterations must be >= 1, got 0"),
    "at-least-negative": (lambda: AtLeast(-1), "cardinality floor must be >= 0"),
    "explicit-empty": (lambda: ExplicitFamily(()), "explicit family must be non-empty"),
    "at-least-above-n": (lambda: mmin_constrained(_modular(2), AtLeast(3)),
                         "cardinality floor 3 exceeds ground set 2"),
    "unsupported-family": (lambda: mmin_constrained(_modular(2), "odd"),
                           "unsupported constraint family 'odd'"),
}


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
    "sets-n-not-integer": (_loading(load_set_system, '{"n": "abc", "universe": 1, "sets": [[0]]}'),
                           "{path}: 'n' must be an integer, got 'abc'"),
    "sets-universe-not-integer": (_loading(load_set_system, '{"n": 1, "universe": "x", "sets": [[0]]}'),
                                  "{path}: 'universe' must be an integer, got 'x'"),
    "sets-not-a-list": (_loading(load_set_system, '{"n": 1, "universe": 1, "sets": 5}'),
                        "{path}: 'sets' must be a list, got int"),
    "sets-probs-not-numbers": (_loading(load_set_system, '{"probs": [["a"]]}'),
                               "{path}: 'probs' must hold numbers only"),
    "sets-weights-not-numbers": (
        _loading(load_set_system, '{"n": 1, "universe": 1, "sets": [[0]], "weights": "x"}'),
        "{path}: 'weights' must hold numbers only"),
    "sets-save-unknown": (lambda tmp_path: save_set_system(tmp_path / "input", ModularData(np.ones(2))),
                          "cannot serialize ModularData as a set system"),
}


def _raise_site(tb) -> tuple[str, int]:
    """(file relative to ``submemo/``, line) of the innermost frame of
    ``tb``, where the error was raised."""
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename).resolve()
    return path.relative_to(SUBMEMO).as_posix(), tb.tb_lineno


@pytest.mark.parametrize("case", sorted(DATA_CASES))
def test_data_constructor_errors(case):
    build, message = DATA_CASES[case]
    with pytest.raises(InputError) as info:
        build()
    assert type(info.value) is InputError
    assert str(info.value) == message
    assert _raise_site(info.tb)[0] in TABLE_FILES


@pytest.mark.parametrize("case", sorted(MINIMIZE_CASES))
def test_minimize_errors(case):
    call, message = MINIMIZE_CASES[case]
    with pytest.raises(InputError) as info:
        call()
    assert type(info.value) is InputError
    assert str(info.value) == message
    assert _raise_site(info.tb)[0] == "minimize.py"


@pytest.mark.parametrize("file, case", [(f, c) for f, cases in CALL_CASES.items() for c in sorted(cases)])
def test_core_and_maximize_errors(file, case):
    call, message = CALL_CASES[file][case]
    with pytest.raises(InputError) as info:
        call()
    assert type(info.value) is InputError
    assert str(info.value) == message
    assert _raise_site(info.tb)[0] == file


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


def test_the_rank_one_kernel_gets_the_default_ridge_and_works_in_either_order():
    d = LogDetData(RANK_ONE)
    assert d.ridge == 1e-6
    assert np.isfinite(make_function(2, d).evaluate([1, 0]))
    F = make_function(2, d)
    F.set_memo([1, 0])
    assert np.isfinite(F.memo_value())
    F = make_function(2, d)
    F.update(1)
    assert np.isfinite(F.gain_add(0))
    F = make_function(2, d)
    F.update(0)
    F.update(1)
    assert np.isfinite(F.memo_value())


def test_every_raise_in_the_table_files_has_a_case(tmp_path):
    sites = set()
    for kernel, ridge, _ in LOGDET_CASES.values():
        with pytest.raises(InputError) as info:
            LogDetData(kernel, ridge=ridge)
        sites.add(_raise_site(info.tb))
    calls = [*DATA_CASES.values(), *MINIMIZE_CASES.values(), *CORE_CASES.values(),
             *MAXIMIZE_CASES.values(), *DENSE_CASES.values()]
    for build, _ in calls:
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
