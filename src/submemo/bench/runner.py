"""The algorithm table and the seeded rules the CLI solves by.

``MAXIMIZE_ALGORITHMS`` and ``MINIMIZE_ALGORITHMS`` map each CLI algorithm
name to a call ``(F, k, seed) -> result``.  ``instance_for`` gives a fresh
PM or VO instance of a function, and ``run_gradient`` draws the seeded
sub- or supergradient; ``run_metadata`` is the git sha and versions every
CLI JSON result carries.  Wall-clock PM/VO tables are measured by
``perfbench/``, not here.
"""

from __future__ import annotations

import platform
from pathlib import Path

import numpy as np

from ..bounds import extreme_point, supergradient_grow
from ..core import ModularFunction, SubmodularFunction, ValueOracleFunction
from ..maximize import (
    Cardinality,
    bidirectional_greedy,
    distributed_greedy,
    greedy_lazy,
    greedy_naive,
    greedy_stochastic,
    local_search_usm,
    minorize_maximize,
    randomized_greedy,
    sieve_streaming,
)
from ..minimize import AtLeast, lovasz_descent, min_norm_point, mmin_constrained

MAXIMIZE_ALGORITHMS = {
    "naive-greedy": lambda F, k, seed: greedy_naive(F, Cardinality(k)),
    "lazy-greedy": lambda F, k, seed: greedy_lazy(F, Cardinality(k)),
    "stochastic-greedy": lambda F, k, seed: greedy_stochastic(F, k, seed=seed),
    "sieve-streaming": lambda F, k, seed: sieve_streaming(F, k),
    "distributed-greedy": lambda F, k, seed: distributed_greedy(F, k, machines=4, seed=seed),
    "local-search": lambda F, k, seed: local_search_usm(F),
    "bidirectional-greedy": lambda F, k, seed: bidirectional_greedy(F),
    "randomized-greedy": lambda F, k, seed: randomized_greedy(F, k, seed=seed),
    "minorize-maximize": lambda F, k, seed: minorize_maximize(F, Cardinality(k), seed=seed),
}

MINIMIZE_ALGORITHMS = {
    "min-norm-point": lambda F, k, seed: min_norm_point(F),
    "lovasz-descent": lambda F, k, seed: lovasz_descent(F, iterations=2000),
    "mmin": lambda F, k, seed: mmin_constrained(F, AtLeast(k)),
}

ALGORITHMS = {**MAXIMIZE_ALGORITHMS, **MINIMIZE_ALGORITHMS}

GRADIENT_TASKS = ("subgradient", "supergradient")


# the checkout this file runs from: src/submemo/bench/runner.py -> its root
_CHECKOUT = Path(__file__).resolve().parents[3]


def run_metadata() -> dict:
    """The git sha of the checkout this package runs from, and the numpy
    and Python versions.  The sha is read from ``.git`` directly; it is
    None outside a checkout or when HEAD names no commit."""
    git = _CHECKOUT / ".git"
    sha = None
    if (git / "HEAD").is_file():
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        ref = head[5:] if head.startswith("ref: ") else None
        if ref is None:
            sha = head
        elif (git / ref).is_file():
            sha = (git / ref).read_text(encoding="utf-8").strip()
        elif (git / "packed-refs").is_file():
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
    return {"git_sha": sha, "numpy": np.__version__, "python": platform.python_version()}


def instance_for(base: SubmodularFunction, mode: str) -> SubmodularFunction:
    """A fresh instance of ``base`` at the empty set with zeroed counters,
    behind the value oracle when ``mode`` is ``vo``.  ``base`` is untouched."""
    inst = base._spawn()
    return ValueOracleFunction(inst) if mode == "vo" else inst


def run_gradient(F: SubmodularFunction, task: str, seed: int) -> ModularFunction:
    """The seeded gradient rule: the subgradient at a random permutation, or
    the grow supergradient at a random half-size anchor set, each drawn
    from a fresh generator at ``seed``."""
    rng = np.random.default_rng(seed)
    if task == "subgradient":
        return extreme_point(F, rng.permutation(F.n))
    anchor = sorted(rng.choice(F.n, size=F.n // 2, replace=False).tolist())
    return supergradient_grow(F, anchor)
