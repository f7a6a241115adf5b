"""Memory and import footprint: each similarity is held once when it can be,
and only log-det loads scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from submemo.functions import (
    FacilityLocationData,
    GraphCutData,
    SaturatedCoverageData,
    make_function,
)
from submemo.maximize import Cardinality, greedy_lazy

SRC = Path(__file__).resolve().parents[1] / "src"
N = 40
SIMILARITY_CLASSES = {
    "faclocation": FacilityLocationData,
    "satcov": SaturatedCoverageData,
    "graphcut": GraphCutData,
}


def _symmetric_similarity(n=N, seed=0) -> np.ndarray:
    """Exactly symmetric, C-ordered, non-negative: a + b is b + a bit for bit."""
    a = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
    return 0.5 * (a + a.T)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("kind", sorted(SIMILARITY_CLASSES))
@pytest.mark.parametrize("layout", ["not-symmetric", "signed-zero", "f-ordered", "strided"])
def test_other_similarities_get_contiguous_transposed_cols(kind, layout):
    s = _symmetric_similarity()
    if layout == "not-symmetric":
        # graph cut needs symmetry within allclose, so its input is only nearly symmetric
        if kind == "graphcut":
            s[0, 1] *= 1.0 + 1e-12
        else:
            s = np.random.default_rng(1).uniform(0.0, 1.0, size=(N, N))
    elif layout == "signed-zero":
        s[0, 1], s[1, 0] = -0.0, 0.0
    elif layout == "f-ordered":
        s = np.asfortranarray(s)
    else:
        s = _symmetric_similarity(2 * N)[::2, ::2]
    d = SIMILARITY_CLASSES[kind](s)
    assert d.cols.flags.c_contiguous
    assert _bits(d.cols) == _bits(np.ascontiguousarray(d.similarity.T))
    if layout in ("not-symmetric", "signed-zero"):
        assert not np.shares_memory(d.cols, d.similarity)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_one_ulp_anywhere_breaks_exact_symmetry(n):
    s = _symmetric_similarity(n, seed=n)
    assert FacilityLocationData(s).cols is s
    for i, j in {(0, n - 1), (n - 1, 0), (n // 2, n // 3), (n - 1, n // 2), (n - 1, n - 1)}:
        t = s.copy()
        t[i, j] = np.nextafter(t[i, j], 2.0)
        d = FacilityLocationData(t)
        assert (d.cols is t) == (i == j)
        assert _bits(d.cols) == _bits(np.ascontiguousarray(t.T))


@pytest.mark.parametrize("kind", sorted(SIMILARITY_CLASSES))
def test_shared_and_private_cols_give_the_same_bits(kind):
    s = _symmetric_similarity(seed=2)
    shared = SIMILARITY_CLASSES[kind](s)
    private = SIMILARITY_CLASSES[kind](s.copy())
    private.cols = np.array(private.cols)
    assert shared.cols is shared.similarity
    assert np.shares_memory(shared.cols, shared.similarity)
    assert not np.shares_memory(private.cols, private.similarity)
    F, G = make_function(N, shared), make_function(N, private)
    order = np.random.default_rng(3).permutation(N)
    for memo in ([], [3], [0, 7, 19, 33]):
        F.set_memo(memo)
        G.set_memo(memo)
        cands = np.setdiff1d(np.arange(N), memo)
        assert _bits(F.gains_add(cands)) == _bits(G.gains_add(cands))
    assert _bits(F.sweep(order)) == _bits(G.sweep(order))
    a = greedy_lazy(F.clone_detached(), Cardinality(12))
    b = greedy_lazy(G.clone_detached(), Cardinality(12))
    assert a.members == b.members
    assert a.value.hex() == b.value.hex()


def _imported(*args) -> set:
    """Top-level modules a Python run with ``args`` imports, from ``-X importtime``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("import time:")]
    return {ln.rsplit("|", 1)[1].strip().split(".")[0] for ln in lines[1:]}


LOGDET_RUN = """
import numpy as np
from submemo.functions import LogDetData, make_function
a = np.random.default_rng(0).normal(size=(6, 9))
F = make_function(6, LogDetData(a @ a.T))
F.set_memo([0, 2])
assert abs(F.gain_add(4) - (F.evaluate([0, 2, 4]) - F.evaluate([0, 2]))) < 1e-9
"""


def test_only_log_det_loads_scipy():
    assert "scipy" not in _imported("-c", "import submemo")
    assert "scipy" not in _imported("-m", "submemo", "--help")
    assert "scipy" in _imported("-c", LOGDET_RUN)
