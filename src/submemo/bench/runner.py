"""Experiment runner contrasting memoized (PM) and value-oracle (VO) runs.

A cell is one (function, algorithm, budget, mode) combination, repeated and
timed on a monotonic clock; the headline figure is the minimum wall time,
the mean is also recorded.  Reports mirror the familiar benchmark layout:
functions as rows, budgets-by-mode as columns, plus a JSON file with
per-cell counters and PM-vs-VO speedup ratios.

The kind of a run follows from the algorithm name: a name in
``MAXIMIZE_ALGORITHMS`` or ``MINIMIZE_ALGORITHMS`` runs one cell per budget
and mode, and ``gradients`` runs both ``GRADIENT_TASKS`` per mode, with no
budget.  The CLI solves through ``instance_for`` and ``run_gradient`` too,
so one command and one benchmark cell at the same seed solve the same
problem.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..bounds import extreme_point, supergradient_grow
from ..core import InputError, ModularFunction, SubmodularFunction, ValueOracleFunction
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

GRADIENTS = "gradients"
GRADIENT_TASKS = ("subgradient", "supergradient")


def kind_of(algorithm: str) -> str:
    """maximize, minimize or gradients: the kind of run an algorithm name gives."""
    if algorithm == GRADIENTS:
        return GRADIENTS
    if algorithm in MAXIMIZE_ALGORITHMS:
        return "maximize"
    if algorithm in MINIMIZE_ALGORITHMS:
        return "minimize"
    raise InputError(f"unknown algorithm {algorithm!r}")


def modes_for(mode: str) -> tuple:
    """The modes a pm | vo | both setting runs, PM first."""
    return ("pm", "vo") if mode == "both" else (mode,)


@dataclass
class ExperimentConfig:
    """One benchmark run: functions x budgets x modes for one algorithm."""

    functions: list  # [(name, SubmodularFunction), ...]
    algorithm: str = "lazy-greedy"
    mode: str = "both"  # pm | vo | both
    budgets: tuple = (0.05, 0.15, 0.30)
    repetitions: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("pm", "vo", "both"):
            raise InputError("mode must be pm, vo or both")
        if self.repetitions < 1:
            raise InputError("repetitions must be >= 1")
        for b in self.budgets:
            if not 0.0 < b <= 1.0:
                raise InputError(f"budgets must lie in (0, 1], got {b}")
        kind_of(self.algorithm)  # raises on an unknown name


@dataclass
class TimingRecord:
    function: str
    algorithm: str
    mode: str
    budget: float | None
    wall_seconds: float
    wall_mean: float
    counters: dict
    value: float | None = None
    selected_size: int | None = None
    error: str | None = None


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


def _solve(cfg: ExperimentConfig, inst, budget, task):
    """One repetition of a cell: (value, selected size), None where not defined."""
    if task is not None:
        run_gradient(inst, task, cfg.seed)
        return None, None
    k = max(1, round(budget * inst.n))
    res = ALGORITHMS[cfg.algorithm](inst, k, cfg.seed)
    return res.value, len(res.selected) if hasattr(res, "selected") else None


def _time_cell(cfg: ExperimentConfig, name: str, base, mode: str, budget, task) -> TimingRecord:
    walls = []
    value = None
    size = None
    counters: dict = {}
    algorithm = task or cfg.algorithm
    try:
        for rep in range(cfg.repetitions):
            inst = instance_for(base, mode)
            start = time.perf_counter()
            res_value, res_size = _solve(cfg, inst, budget, task)
            walls.append(time.perf_counter() - start)
            if rep == 0:
                value, size = res_value, res_size
                counters = inst.counters.as_dict()
    except Exception as err:  # cell failures are recorded, not fatal
        return TimingRecord(
            function=name,
            algorithm=algorithm,
            mode=mode,
            budget=budget,
            wall_seconds=float("nan"),
            wall_mean=float("nan"),
            counters=counters,
            error=f"{type(err).__name__}: {err}",
        )
    return TimingRecord(
        function=name,
        algorithm=algorithm,
        mode=mode,
        budget=budget,
        wall_seconds=min(walls),
        wall_mean=sum(walls) / len(walls),
        counters=counters,
        value=value,
        selected_size=size,
    )


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> list[TimingRecord]:
    """Execute every cell; optionally write report.csv / report.json."""
    modes = modes_for(cfg.mode)
    cells = []
    for name, base in cfg.functions:
        if cfg.algorithm == GRADIENTS:
            for task in GRADIENT_TASKS:
                for mode in modes:
                    cells.append((name, base, mode, None, task))
        else:
            for budget in cfg.budgets:
                for mode in modes:
                    cells.append((name, base, mode, budget, None))
    records = [_time_cell(cfg, *cell) for cell in cells]
    if out_dir is not None:
        write_reports(cfg, records, out_dir)
    return records


def speedup_ratios(records: list[TimingRecord]) -> dict:
    """vo wall / pm wall per (function, algorithm, budget) with both modes."""
    by_key: dict = {}
    for r in records:
        if r.error:
            continue
        by_key.setdefault((r.function, r.algorithm, r.budget), {})[r.mode] = r.wall_seconds
    out = {}
    for key, walls in by_key.items():
        if "pm" in walls and "vo" in walls and walls["pm"] > 0:
            label = f"{key[0]}|{key[1]}|{key[2]}"
            out[label] = walls["vo"] / walls["pm"]
    return out


def write_reports(cfg: ExperimentConfig, records: list[TimingRecord], out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "algorithm": cfg.algorithm,
        "kind": kind_of(cfg.algorithm),
        "mode": cfg.mode,
        "budgets": list(cfg.budgets),
        "repetitions": cfg.repetitions,
        "seed": cfg.seed,
        "records": [asdict(r) for r in records],
        "speedups": speedup_ratios(records),
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")

    functions = list(dict.fromkeys(r.function for r in records))
    modes = modes_for(cfg.mode)
    with open(out / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if cfg.algorithm == GRADIENTS:
            header = ["function"] + [
                f"{task}_{mode}" for task in GRADIENT_TASKS for mode in modes
            ]
            writer.writerow(header)
            for fn in functions:
                row = [fn]
                for task in GRADIENT_TASKS:
                    for mode in modes:
                        row.append(_cell_wall(records, fn, mode, None, task))
                writer.writerow(row)
        else:
            header = ["function"] + [
                f"{mode}_{int(round(100 * b))}%" for mode in modes for b in cfg.budgets
            ]
            writer.writerow(header)
            for fn in functions:
                row = [fn]
                for mode in modes:
                    for b in cfg.budgets:
                        row.append(_cell_wall(records, fn, mode, b, None))
                writer.writerow(row)


def _cell_wall(records, fn, mode, budget, task):
    for r in records:
        if r.function == fn and r.mode == mode and r.budget == budget:
            if task is None or r.algorithm == task:
                return "" if r.error else f"{r.wall_seconds:.6g}"
    return ""
