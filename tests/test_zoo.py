"""Function classes: frozen examples, gain formulas, statistic maintenance."""

import itertools

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from submemo.bench.cli import load_function_spec
from submemo.bench.synthetic import SYNTHETIC_KINDS, gen_synthetic
from submemo.core import EvalCounters, InputError, ValueOracleFunction, close, wrap_value_oracle
from submemo.functions import (
    ClusteredConcaveModularData,
    ClusteredSetCoverData,
    DispersionData,
    FacilityLocationData,
    FeatureBasedData,
    GraphCutData,
    LogDetData,
    MixtureData,
    MixtureFunction,
    ModularData,
    ModularPenaltyData,
    ProbabilisticSetCoverData,
    SaturatedCoverageData,
    SetCoverData,
    default_tolerance,
    make_concave,
    make_function,
    verify_statistic,
)
from submemo.functions import _SIMPLE_BUILDERS
from submemo.functions.graphs import _GAIN_BLOCK
from conftest import ALL_KINDS, MONOTONE_KINDS, SUBMODULAR_KINDS, random_subset, zoo_instance

S3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])


# ---------------------------------------------------------------------------
# frozen worked examples
# ---------------------------------------------------------------------------


def test_facility_location_worked_example():
    F = make_function(3, FacilityLocationData(S3))
    assert F.evaluate([0]) == pytest.approx(1.7)
    assert F.evaluate([0, 1]) == pytest.approx(2.3)
    F.set_memo([0])
    assert F.gain_add(1) == pytest.approx(0.6)
    F.set_memo([0, 1])
    assert F.gain_remove(1) == pytest.approx(0.6)


def test_set_cover_worked_example():
    F = make_function(3, SetCoverData(sets=[[0, 1], [1, 2], [2]], universe=3))
    F.set_memo([0, 1])
    assert F.gain_add(2) == 0.0
    assert F.evaluate([0, 1]) == 3.0


def test_log_det_worked_examples():
    eye = make_function(2, LogDetData(np.eye(2), ridge=0.0))
    for S in ([], [0], [1], [0, 1]):
        assert eye.evaluate(S) == pytest.approx(0.0)
    F = make_function(2, LogDetData(np.array([[1.0, 0.5], [0.5, 1.0]]), ridge=0.0))
    assert F.evaluate([0, 1]) == pytest.approx(np.log(0.75))


def test_graph_cut_worked_example():
    F = make_function(2, GraphCutData(np.array([[0.0, 1.0], [1.0, 0.0]]), lam=1.0))
    assert F.evaluate([0]) == pytest.approx(1.0)
    assert F.evaluate([0, 1]) == pytest.approx(0.0)


def test_probabilistic_cover_worked_example():
    F = make_function(2, ProbabilisticSetCoverData(np.array([[0.5, 0.5]]), weights=[1.0]))
    assert F.evaluate([0, 1]) == pytest.approx(0.75)
    # zero probabilities leave the statistic untouched
    Z = make_function(3, ProbabilisticSetCoverData(np.zeros((4, 3)), weights=np.ones(4)))
    Z.set_memo([0])
    before = Z._statistic()["product"].copy()
    Z.update(1)
    assert np.array_equal(Z._statistic()["product"], before)


def test_feature_based_worked_example():
    F = make_function(2, FeatureBasedData(np.array([[4.0, 5.0]]), concave="sqrt"))
    assert F.evaluate([0]) == pytest.approx(2.0)
    assert F.evaluate([0, 1]) == pytest.approx(3.0)


def test_mixture_linearity():
    d1 = FacilityLocationData(S3)
    d2 = GraphCutData(S3, lam=0.7)
    mix = make_function(3, MixtureData([(2.0, d1), (3.0, d2)]))
    f1 = make_function(3, d1)
    f2 = make_function(3, d2)
    for S in ([], [0], [1, 2], [0, 1, 2]):
        assert mix.evaluate(S) == pytest.approx(2 * f1.evaluate(S) + 3 * f2.evaluate(S))
    mix.set_memo([0])
    f1.set_memo([0])
    f2.set_memo([0])
    assert mix.gain_add(2) == pytest.approx(2 * f1.gain_add(2) + 3 * f2.gain_add(2))


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------


def test_make_function_validation_errors():
    with pytest.raises(InputError):  # asymmetric where symmetry required
        GraphCutData(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InputError):  # negative similarity
        FacilityLocationData(np.array([[1.0, -0.1], [0.3, 1.0]]))
    with pytest.raises(InputError):  # probability outside [0, 1]
        ProbabilisticSetCoverData(np.array([[1.2, 0.0]]))
    with pytest.raises(InputError):  # non-PSD kernel with explicit ridge
        LogDetData(np.array([[1.0, 2.0], [2.0, 1.0]]), ridge=0.0)
    with pytest.raises(InputError):  # universe id out of range
        SetCoverData(sets=[[0, 7]], universe=3)
    with pytest.raises(InputError):  # dimension mismatch with ground set
        make_function(5, FacilityLocationData(S3))
    with pytest.raises(InputError, match="at least one element"):  # empty ground set
        make_function(0, FacilityLocationData(S3))
    with pytest.raises(InputError):  # nonzero diagonal
        DispersionData(np.array([[1.0, 2.0], [2.0, 0.0]]), kind="min")
    with pytest.raises(InputError):
        make_concave("pow:1.5")


def test_logdet_default_ridge_for_rank_deficient():
    a = np.array([[1.0], [2.0]])
    data = LogDetData(a @ a.T)  # rank-1 kernel: raw factorization fails
    assert data.ridge == pytest.approx(1e-6)
    full = np.random.default_rng(0).normal(size=(4, 6))
    assert LogDetData(full @ full.T).ridge == 0.0


# ---------------------------------------------------------------------------
# concave registry
# ---------------------------------------------------------------------------


@given(st.floats(min_value=0, max_value=50, allow_nan=False), st.floats(min_value=0, max_value=50, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_concaves_are_normalized_monotone_concave(a, b):
    lo, hi = sorted((a, b))
    for name in ("sqrt", "log1p", "pow:0.3"):
        psi = make_concave(name)
        assert psi(np.asarray(0.0)) == 0.0
        assert psi(hi) >= psi(lo) - 1e-12
        mid = psi((lo + hi) / 2.0)
        assert mid >= (psi(lo) + psi(hi)) / 2.0 - 1e-9 * max(1.0, abs(mid))


# ---------------------------------------------------------------------------
# oracle equivalence + statistic maintenance across the zoo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gain_formulas_agree_with_oracle(kind, rng):
    tol = 1e-7 if kind in ("logdet", "mixture") else 1e-9
    for trial in range(20):
        n = int(rng.integers(3, 16))
        F = zoo_instance(kind, n, seed=100 + trial)
        X = random_subset(rng, n)
        F.set_memo(X)
        outside = [j for j in range(n) if j not in F.memo]
        if outside:
            j = int(rng.choice(outside))
            want = F.evaluate(sorted(X + [j])) - F.evaluate(X)
            assert close(F.gain_add(j), want, rel=tol), (kind, X, j)
            assert close(F.gain_singleton(j), F.evaluate([j]), rel=tol)
        if X:
            i = int(rng.choice(X))
            want = F.evaluate(X) - F.evaluate([m for m in X if m != i])
            assert close(F.gain_remove(i), want, rel=tol), (kind, X, i)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_statistic_survives_random_interleaving(kind, rng):
    tol = default_tolerance(zoo_instance(kind, 4, seed=0))
    n = int(rng.integers(6, 14))
    F = zoo_instance(kind, n, seed=11)
    for step in range(150):
        roll = rng.random()
        if roll < 0.45 and len(F.memo) < n:
            outside = [j for j in range(n) if j not in F.memo]
            F.update(int(rng.choice(outside)))
        elif roll < 0.85 and len(F.memo) > 0:
            F.downdate(int(rng.choice(F.memo.members)))
        else:
            F.set_memo(random_subset(rng, n))
        report = verify_statistic(F)
        assert report.max_deviation <= tol, (kind, step, report.components)


def _underflowing_cover(n: int, seed: int):
    """Probabilistic cover whose products reach 0 both ways: certain hits
    (miss 0, no division) and miss probabilities near 1e-200, which two
    members multiply below the smallest double."""
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.0, 1.0, size=(2 * n, n))
    probs[rng.random(probs.shape) > 0.3] = 0.0
    probs[rng.random(probs.shape) < 0.05] = 1.0
    data = ProbabilisticSetCoverData(probs, rng.uniform(0.5, 1.5, 2 * n))
    # 1 - 1e-200 rounds to 1.0, so the tiny misses go into the class's own table
    tiny = rng.random(data.miss_cols.shape) < 0.1
    data.miss_cols[tiny] = 10.0 ** rng.uniform(-210.0, -190.0, int(tiny.sum()))
    return make_function(n, data)


def _interleave(F, data, check_gains: bool) -> None:
    """Random update/downdate/set_memo steps; after each, the statistic is
    within tolerance of a rebuild and (if asked) every gain within
    tolerance of a fresh clone's."""
    n, tol = F.n, default_tolerance(F)
    for step in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(["update", "update", "downdate", "downdate", "set_memo"]))
        outside = [j for j in range(n) if j not in F.memo]
        if op == "update" and outside:
            F.update(data.draw(st.sampled_from(outside)))
        elif op == "downdate" and len(F.memo):
            F.downdate(data.draw(st.sampled_from(F.memo.members)))
        else:
            F.set_memo(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))])
        report = verify_statistic(F)
        assert report.max_deviation <= tol, (step, report.components)
        if check_gains:
            fresh = F.clone_detached()
            for j in range(n):
                if j in F.memo:
                    assert close(F.gain_remove(j), fresh.gain_remove(j), rel=tol), (step, j)
                else:
                    assert close(F.gain_add(j), fresh.gain_add(j), rel=tol), (step, j)


def _inexact(kind: str, n: int, seed: int):
    return _underflowing_cover(n, seed) if kind == "probsetcover" else zoo_instance(kind, n, seed=seed)


# A downdate of a sparse load leaves a residual of a few ulps where the
# bucket's exact load is 0 (np.maximum clamps only the negative ones), and
# sqrt turns a 1e-16 residual into a gain 1e-8 off a fresh clone's.
_LOAD_RESIDUAL = pytest.mark.xfail(strict=True, reason="sparse-load downdates leave residual loads")
# A deep-2 downdate leaves inner loads within ulps of a rebuild, but sqrt has
# infinite slope at 0 and runs in both layers: a gain read after updates and
# downdates back near the empty set lands up to 6e-3 off a fresh clone's.
_DEEP_RESIDUAL = pytest.mark.xfail(strict=True, reason="sqrt in both layers amplifies downdate residuals")


@pytest.mark.parametrize("kind", [
    "logdet", "probsetcover",
    pytest.param("featurebased", marks=_LOAD_RESIDUAL),
    pytest.param("clusterconcave", marks=_LOAD_RESIDUAL),
    pytest.param("deep2", marks=_DEEP_RESIDUAL),
])
@given(data=st.data())
# no shrinking: a shrunk counterexample of an xfailed case costs half a minute
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # hypothesis' failure report imports libcst
@settings(max_examples=20, deadline=None, derandomize=True, phases=[Phase.generate])
def test_inexact_downdates_match_a_fresh_clone(kind, data):
    F = _inexact(kind, data.draw(st.integers(20, 40)), data.draw(st.integers(0, 9)))
    _interleave(F, data, check_gains=True)


@pytest.mark.parametrize("kind", ["featurebased", "clusterconcave"])
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_sparse_loads_stay_within_tolerance_of_a_rebuild(kind, data):
    F = _inexact(kind, data.draw(st.integers(20, 40)), data.draw(st.integers(0, 9)))
    _interleave(F, data, check_gains=False)


def test_verify_statistic_detects_corruption():
    F = zoo_instance("satcov", 8, seed=12)
    F.set_memo([1, 3, 5])
    assert verify_statistic(F).max_deviation == 0.0
    F._rowsum[2] += 0.5  # fault injection
    assert verify_statistic(F).max_deviation > 1e-9


# ---------------------------------------------------------------------------
# structural properties per class family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", SUBMODULAR_KINDS)
def test_submodularity_randomized(kind, rng):
    tol = 1e-7 if kind in ("logdet", "mixture") else 1e-9
    for trial in range(25):
        n = int(rng.integers(3, 12))
        F = zoo_instance(kind, n, seed=200 + trial)
        T = random_subset(rng, n, max_size=n - 1)
        outside_T = [j for j in range(n) if j not in T]
        j = int(rng.choice(outside_T))
        keep = int(rng.integers(0, len(T) + 1))
        S = sorted(rng.choice(T, size=keep, replace=False).tolist()) if keep else []
        F.set_memo(S)
        g_small = F.gain_add(j)
        F.set_memo(T)
        g_big = F.gain_add(j)
        assert g_small >= g_big - tol * max(1.0, abs(g_big)), (kind, S, T, j)


def test_dispersion_min_sum_is_not_submodular():
    # nearest-neighbour-sum dispersion violates diminishing returns even on a
    # metric; this pins the known counterexample (line points 0, 1, 2.9, 6).
    pts = np.array([0.0, 1.0, 2.9, 6.0])
    d = np.abs(pts[:, None] - pts[None, :])
    F = make_function(4, DispersionData(d, kind="min-sum"))
    gain_small = F.evaluate([0, 2, 3]) - F.evaluate([0, 3])
    gain_big = F.evaluate([0, 1, 2, 3]) - F.evaluate([0, 1, 3])
    assert gain_small < gain_big - 1e-9  # submodularity would need >=


def test_dispersion_sum_is_supermodular(rng):
    for trial in range(10):
        n = 8
        F = zoo_instance("dispsum", n, seed=300 + trial)
        T = random_subset(rng, n, max_size=n - 1)
        outside = [j for j in range(n) if j not in T]
        j = int(rng.choice(outside))
        S = T[: len(T) // 2]
        F.set_memo(S)
        g_small = F.gain_add(j)
        F.set_memo(T)
        g_big = F.gain_add(j)
        assert g_big >= g_small - 1e-9


@pytest.mark.parametrize("kind", MONOTONE_KINDS)
def test_monotone_classes_have_nonnegative_gains(kind, rng):
    for trial in range(15):
        n = int(rng.integers(3, 12))
        F = zoo_instance(kind, n, seed=400 + trial)
        X = random_subset(rng, n, max_size=n - 1)
        F.set_memo(X)
        for j in range(n):
            if j not in F.memo:
                assert F.gain_add(j) >= -1e-9, (kind, X, j)


# ---------------------------------------------------------------------------
# class-specific corners
# ---------------------------------------------------------------------------


def test_facility_location_downdate_rescans_row_maxima(rng):
    for trial in range(30):
        n = int(rng.integers(3, 12))
        F = zoo_instance("faclocation", n, seed=500 + trial)
        members = random_subset(rng, n)
        if not members:
            continue
        F.set_memo(members)
        drop = int(rng.choice(members))
        F.downdate(drop)
        rest = [j for j in members if j != drop]
        cols = F.data.cols
        want_best = cols[rest].max(axis=0) if rest else np.zeros(n)
        assert np.allclose(F._statistic()["best"], want_best, atol=1e-12)


class _Top2Reference:
    """Facility-location top-2 records kept the straightforward way: boolean
    mask updates, and re-tops that gather every member's whole row,
    ``cols[members][:, rows]``, in one unblocked pass."""

    def __init__(self, cols):
        n = cols.shape[0]
        self.cols = cols
        self.best, self.second = np.zeros(n), np.zeros(n)
        self.arg, self.arg2 = np.full(n, -1, dtype=np.intp), np.full(n, -1, dtype=np.intp)

    def retop(self, rows, members):
        if members.size == 0:
            self.best[rows], self.second[rows], self.arg[rows], self.arg2[rows] = 0.0, 0.0, -1, -1
            return
        sub = self.cols[members][:, rows]
        top = sub.argmax(axis=0)
        r = np.arange(rows.size)
        self.best[rows], self.arg[rows] = self.owned(sub[top, r], members[top])
        if members.size == 1:
            self.second[rows], self.arg2[rows] = 0.0, -1
            return
        sub[top, r] = -np.inf
        top2 = sub.argmax(axis=0)
        self.second[rows], self.arg2[rows] = self.owned(sub[top2, r], members[top2])

    @staticmethod
    def owned(value, owner):
        # a record no member beats (0) is +0.0 and unowned, as updates leave it
        return value + 0.0, np.where(value == 0.0, -1, owner)

    def update(self, j):
        col = self.cols[j]
        beats1 = col > self.best
        beats2 = ~beats1 & (col > self.second)
        self.second[beats1] = self.best[beats1]
        self.arg2[beats1] = self.arg[beats1]
        self.best[beats1] = col[beats1]
        self.arg[beats1] = j
        self.second[beats2] = col[beats2]
        self.arg2[beats2] = j

    def downdate(self, j, rest):
        affected = np.flatnonzero((self.arg == j) | (self.arg2 == j))
        if affected.size:
            self.retop(affected, np.asarray(rest, dtype=np.intp))

    def rebuild(self, members):
        self.retop(np.arange(self.cols.shape[0]), np.asarray(members, dtype=np.intp))

    def matches(self, F):
        return all(
            np.array_equal(a, b)
            for a, b in zip(
                (F._best, F._second, F._arg, F._arg2), (self.best, self.second, self.arg, self.arg2)
            )
        )


_FACLOC_STEPS = st.lists(
    st.tuples(st.sampled_from(("update", "downdate", "set_memo")), st.integers(0, 2**31)),
    max_size=30,
)


@given(st.integers(0, 2**31), _FACLOC_STEPS)
@settings(max_examples=40, deadline=None)
def test_facility_location_records_match_unblocked_reference(seed, steps):
    # rows span more than two re-top blocks; values on a 0.1 grid tie often
    n = 2 * _GAIN_BLOCK + 45
    rng = np.random.default_rng(seed)
    F = make_function(n, FacilityLocationData(np.round(rng.random((n, n)), 1)))
    ref = _Top2Reference(F.data.cols)
    a, b = (int(j) for j in rng.choice(n, size=2, replace=False))
    # |members| 2 -> 1 -> 0 through downdates: every row is re-topped each time
    F.set_memo([a, b])
    ref.rebuild([a, b])
    assert ref.matches(F)
    F.downdate(a)
    ref.downdate(a, [b])
    assert ref.matches(F)
    F.downdate(b)
    ref.downdate(b, [])
    assert ref.matches(F)
    for op, x in steps:
        members = list(F.memo.members)
        if op == "update" and len(members) < n:
            j = [i for i in range(n) if i not in F.memo][x % (n - len(members))]
            F.update(j)
            ref.update(j)
        elif op == "downdate" and members:
            j = members[x % len(members)]
            F.downdate(j)
            ref.downdate(j, [i for i in members if i != j])
        elif op == "set_memo":
            size = (0, 1, 2, 9, n // 2, n)[x % 6]
            X = [int(j) for j in np.random.default_rng(x).permutation(n)[:size]]
            F.set_memo(X)
            ref.rebuild(X)
        assert ref.matches(F), (op, x)


def _retop_rows(kind: str, n: int, rng) -> np.ndarray:
    if kind == "one":
        return np.asarray([n // 2])
    if kind == "run":
        return np.arange(7, 7 + _GAIN_BLOCK // 2)
    # a consecutive first block, read as a slice, then a scattered one, gathered
    rest = np.sort(rng.choice(np.arange(_GAIN_BLOCK + 9, n), size=_GAIN_BLOCK // 2, replace=False))
    return np.concatenate([np.arange(9, _GAIN_BLOCK + 9), rest])


@pytest.mark.parametrize("layout", ["symmetric", "asymmetric-F"])
@pytest.mark.parametrize("order", ["sorted", "insertion"])
@pytest.mark.parametrize("rows", ["one", "run", "two-blocks"])
def test_retop_matches_the_unblocked_reference_bitwise(rows, order, layout):
    # the asymmetric similarity is F-ordered, so cols is its transpose's view
    # and a builder that read cols rows in place of similarity rows would differ
    n = 2 * _GAIN_BLOCK + 45
    rng = np.random.default_rng(31)
    s = np.round(rng.random((n, n)), 1)
    s = np.maximum(s, s.T) if layout == "symmetric" else np.asfortranarray(s)
    F = make_function(n, FacilityLocationData(s))
    assert (F.data.cols is F.data.similarity) == (layout == "symmetric")
    members = rng.choice(n, size=40, replace=False)
    if order == "sorted":
        members = np.sort(members)
    rows = _retop_rows(rows, n, rng)
    ref = _Top2Reference(F.data.cols)
    F._retop(rows, members)
    ref.retop(rows, members)
    for got, want in zip((F._best, F._second, F._arg, F._arg2),
                         (ref.best, ref.second, ref.arg, ref.arg2)):
        assert got.tobytes() == want.tobytes()


def _owner_records(F) -> list:
    F._statistic()  # builds the records a chain left owed
    return [r.tobytes() for r in (F._best, F._second, F._arg, F._arg2)]


@pytest.mark.parametrize("seed", range(12))
def test_facility_location_owner_records_do_not_depend_on_history(seed):
    # a 0.1 grid ties often and has zero entries; zero rows and a -0.0 column
    # leave records that no member beats.  Whatever way the memo was reached
    # (set_memo, updates from the empty set, a sweep, downdates), the records
    # and every removal gain are bitwise those of a fresh rebuild
    n = 30
    rng = np.random.default_rng(seed)
    s = np.round(rng.random((n, n)), 1)
    s[rng.choice(n, size=4, replace=False)] = 0.0
    s[:, rng.integers(n)] = -0.0
    data = FacilityLocationData(s)
    X = [int(j) for j in rng.permutation(n)[:n // 2]]
    rebuilt = make_function(n, data)
    rebuilt.set_memo(X)
    grown = make_function(n, data)
    for j in X:
        grown.update(j)
    swept = make_function(n, data)
    swept.sweep(rng.permutation(n))
    shrunk = make_function(n, data)
    shrunk.set_memo(rng.permutation(n).tolist())
    for j in rng.permutation(n)[:n - 3].tolist():
        shrunk.downdate(j)
    grown_then_shrunk = make_function(n, data)
    for j in X:
        grown_then_shrunk.update(j)
    for j in X[::2]:
        grown_then_shrunk.downdate(j)
    assert _owner_records(rebuilt) == _owner_records(grown)
    for F in (rebuilt, grown, swept, shrunk, grown_then_shrunk):
        want = F.clone_detached()
        assert _owner_records(F) == _owner_records(want)
        assert not np.signbit(F._best).any() and not np.signbit(F._second).any()
        assert ((F._arg == -1) == (F._best == 0.0)).all()
        assert ((F._arg2 == -1) == (F._second == 0.0)).all()
        for j in F.memo.members:
            assert F.gain_remove(j).hex() == want.gain_remove(j).hex()


def test_logdet_gain_is_schur_complement(rng):
    for trial in range(10):
        n = 8
        F = zoo_instance("logdet", n, seed=600 + trial)
        X = random_subset(rng, n, max_size=n - 1) or [0]
        F.set_memo(X)
        outside = [j for j in range(n) if j not in F.memo]
        j = int(rng.choice(outside))
        kr = F.data.ridged
        idx = np.asarray(X, dtype=int)
        if idx.size:
            block = kr[np.ix_(idx, idx)]
            cross = kr[idx, j]
            schur = kr[j, j] - cross @ np.linalg.solve(block, cross)
        else:
            schur = kr[j, j]
        assert F.gain_add(j) == pytest.approx(np.log(schur), rel=1e-7)
        want = F.evaluate(sorted(X + [j])) - F.evaluate(X)
        assert F.gain_add(j) == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_probabilistic_cover_certain_coverage_downdate():
    # p = 1 drives the product statistic to an un-divisible zero; the
    # downdate must rebuild those entries from the remaining members.
    probs = np.array([[1.0, 0.4, 0.0], [0.2, 1.0, 1.0]])
    F = make_function(3, ProbabilisticSetCoverData(probs, weights=[1.0, 2.0]))
    F.set_memo([0, 1, 2])
    F.downdate(0)
    assert verify_statistic(F).max_deviation <= 1e-12
    assert F.memo_value() == pytest.approx(F.evaluate([1, 2]))


def test_dispersion_values_and_small_set_normalization(rng):
    pts = rng.normal(size=(6, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    for kind in ("min", "sum", "min-sum"):
        F = make_function(6, DispersionData(d, kind=kind))
        assert F.evaluate([2]) == 0.0
        assert F.evaluate([]) == 0.0
    Fm = make_function(6, DispersionData(d, kind="min"))
    assert Fm.evaluate([1, 4]) == pytest.approx(d[1, 4])
    Fs = make_function(6, DispersionData(d, kind="sum"))
    assert Fs.evaluate([1, 4]) == pytest.approx(2 * d[1, 4])
    Fn = make_function(6, DispersionData(d, kind="min-sum"))
    assert Fn.evaluate([1, 4]) == pytest.approx(2 * d[1, 4])


def test_modular_penalized_wrapper(rng):
    base = zoo_instance("featurebased", 8, seed=13)
    penalty = rng.normal(size=8)
    F = make_function(8, ModularPenaltyData(base, penalty))
    X = [1, 5, 6]
    fresh = zoo_instance("featurebased", 8, seed=13)
    assert F.evaluate(X) == pytest.approx(fresh.evaluate(X) - penalty[X].sum())
    F.set_memo(X)
    fresh.set_memo(X)
    assert F.gain_add(0) == pytest.approx(fresh.gain_add(0) - penalty[0])
    assert F.memo_value() == pytest.approx(F.evaluate(X))


def test_facility_location_gain_cost_independent_of_memo_size():
    # the statistic makes one gain O(n) no matter how large the memo set is
    import time

    F = zoo_instance("faclocation", 1500, seed=14)
    probes = list(range(1400, 1500))

    def gain_time():
        best = np.inf
        for _ in range(7):
            t0 = time.perf_counter()
            for j in probes:
                F.gain_add(j)
            best = min(best, time.perf_counter() - t0)
        return best

    F.set_memo([0])
    t_small = gain_time()
    F.set_memo(list(range(0, 1400)))
    t_large = gain_time()
    assert t_large < 6.0 * t_small + 1e-3


def test_modular_class_gain_identity(rng):
    w = rng.normal(size=9)
    F = make_function(9, ModularData(w))
    F.set_memo([0, 4])
    assert F.gain_add(2) == pytest.approx(w[2])
    assert F.gain_remove(4) == pytest.approx(w[4])
    assert F.evaluate([1, 2, 3]) == pytest.approx(w[[1, 2, 3]].sum())


# ---------------------------------------------------------------------------
# vectorised value oracles against per-member reference loops
# ---------------------------------------------------------------------------


def _csr_instance(kind, seed):
    """A small CSR instance with few buckets (so buckets collect many entries,
    whose sum depends on its order), some empty rows, and values spanning
    twelve decades."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    m = int(rng.integers(1, 5))
    rows = [np.flatnonzero(rng.random(m) < 0.7) if rng.random() < 0.8 else np.zeros(0, int) for _ in range(n)]
    vals = [rng.random(r.size) * 10.0 ** rng.integers(-6, 7, r.size) for r in rows]
    if kind == "featurebased":
        data = FeatureBasedData(list(zip(rows, vals)), concave="sqrt", num_features=m)
    elif kind == "clusterconcave":
        # cluster c holds the elements whose row lists c
        members = [[j for j in range(n) if c in rows[j]] for c in range(m)]
        weights = [[vals[j][list(rows[j]).index(c)] for j in cl] for c, cl in enumerate(members)]
        data = ClusteredConcaveModularData(members, weights, n)
    elif kind == "setcover":
        data = SetCoverData(rows, universe=m, weights=rng.random(m) * 10.0 ** rng.integers(-6, 7, m))
    else:
        data = ClusteredSetCoverData(rows, universe=m, clusters=[[0], list(range(m))], weights=rng.random(m))
    idx = rng.permutation(n)[: int(rng.integers(0, n + 1))].tolist()
    return make_function(n, data), idx


def _loop_loads(F, idx):
    load = np.zeros(F.num_buckets)
    for j in idx:
        lo, hi = F._indptr[j], F._indptr[j + 1]
        load[F._ids[lo:hi]] += F._vals[lo:hi]
    return load


def _loop_counts(F, idx):
    d = F.data
    count = np.zeros(d.universe, dtype=np.int64)
    for j in idx:
        count[d.items[d.indptr[j]:d.indptr[j + 1]]] += 1
    return count


@given(st.integers(0, 2**31), st.sampled_from(("featurebased", "clusterconcave")))
@settings(max_examples=150, deadline=None)
def test_load_oracle_is_bitwise_the_member_loop(seed, kind):
    F, idx = _csr_instance(kind, seed)
    want = _loop_loads(F, idx)
    value = 0.0 if not idx else float(F._psi(want).sum())
    assert F._evaluate(np.asarray(idx, dtype=np.intp)).hex() == value.hex()
    F.set_memo(idx)
    assert F._load.dtype == np.float64
    assert [x.hex() for x in F._load.tolist()] == [x.hex() for x in want.tolist()]


@given(st.integers(0, 2**31), st.sampled_from(("setcover", "clustersetcover")))
@settings(max_examples=100, deadline=None)
def test_cover_oracle_is_bitwise_the_member_loop(seed, kind):
    F, idx = _csr_instance(kind, seed)
    d = F.data
    covered = np.zeros(d.universe, dtype=bool)
    for j in idx:
        covered[d.items[d.indptr[j]:d.indptr[j + 1]]] = True
    value = 0.0 if not idx else float(d.weights[covered].sum())
    assert F._evaluate(np.asarray(idx, dtype=np.intp)).hex() == value.hex()
    F.set_memo(idx)
    assert F._count.dtype == np.int64
    assert np.array_equal(F._count, _loop_counts(F, idx))


@pytest.mark.parametrize("kind", ("featurebased", "clusterconcave", "setcover"))
def test_rebuild_of_nothing_keeps_the_statistic_dtype(kind):
    # np.bincount of no entries is int64 even with float weights
    F = zoo_instance(kind, 12, seed=4)
    F.set_memo(())
    F.update(3)
    stat = F._count if kind == "setcover" else F._load
    assert stat.dtype == (np.int64 if kind == "setcover" else np.float64)
    assert verify_statistic(F).max_deviation == 0.0


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_facility_location_blocked_oracle_is_the_whole_gather(seed):
    n = 160
    rng = np.random.default_rng(seed)
    F = make_function(n, FacilityLocationData(rng.random((n, n)) * 10.0 ** rng.integers(-6, 7, (n, n))))
    for size in (0, 1, 63, 64, 65, 129):
        idx = rng.permutation(n)[:size].astype(np.intp)
        want = float(F.data.cols[idx].max(axis=0).sum()) if size else 0.0
        assert F._evaluate(idx).hex() == want.hex(), size


# ---------------------------------------------------------------------------
# construction contract: every spec carries n, _spawn is a fresh build
# ---------------------------------------------------------------------------


def _built(form: str, spec):
    if form == "penalised":
        spec = ModularPenaltyData(spec, np.linspace(0.0, 1.0, spec.n))
    F = make_function(spec.n, spec)
    return wrap_value_oracle(F) if form == "value-oracle" else F


def _data_of(F) -> list:
    """The data objects an instance is built from, its components' and its
    inner function's included."""
    if isinstance(F, ValueOracleFunction):
        return _data_of(F._inner)
    if isinstance(F, MixtureFunction):
        return [d for _, child in F.components for d in _data_of(child)]
    return [F.data]


@pytest.mark.parametrize("form", ["plain", "penalised", "value-oracle"])
@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_spawn_is_a_fresh_build_over_the_same_data(kind, form):
    spec = gen_synthetic(kind, 9, seed=3)
    F = _built(form, spec)
    F.set_memo([0, 4, 7])
    F.gain_add(2)
    F.update(2)
    c = F._spawn()
    assert type(c) is type(F)
    mine, theirs = _data_of(c), _data_of(F)
    assert len(mine) == len(theirs) and all(a is b for a, b in zip(mine, theirs))
    assert len(c.memo) == 0 and c.counters == EvalCounters()
    got, want = c._statistic(), _built(form, spec)._statistic()
    assert list(got) == list(want)
    for key, ref in want.items():
        arr = np.asarray(got[key])
        assert arr.dtype == ref.dtype and arr.shape == ref.shape, key
        assert arr.tobytes() == np.asarray(ref).tobytes(), key


def test_every_spec_carries_its_ground_set_size():
    n = 9
    specs = [gen_synthetic(kind, n, seed=3) for kind in SYNTHETIC_KINDS]
    assert set(_SIMPLE_BUILDERS) <= {type(spec) for spec in specs}
    inner = MixtureData([(1.0, specs[0]), (0.5, specs[-1])])
    specs += [
        MixtureData([(2.0, inner), (1.0, specs[1])]),
        ModularPenaltyData(inner, np.ones(n)),
        ModularPenaltyData(make_function(n, specs[0]), np.ones(n)),
    ]
    for spec in specs:
        assert spec.n == n, type(spec).__name__
        assert make_function(spec.n, spec).n == n
    assert load_function_spec("synthetic:mixture,n=14")[1].n == 14
