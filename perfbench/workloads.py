"""The three workloads, their output checks, and the timed passes over them.

A pass runs every solve (cell) of a workload once, in a fixed order, on
instances built once per run.  Each cell is timed on its own, with the
calibration kernel (``calibrate.py``) timed right before and right after
it.  A time metric sums over cells each cell's wall time at reference
host speed, averaged over the run's passes without the fastest and the
slowest.  Host speed on a shared 2-vCPU x86-64 virtual machine swings by
up to 1.5 times, in phases from a second to over a minute long, with CPU
time tracking wall time: the program was running but the machine was
slower.  Per-cell minima of raw wall time could not hide a slow phase
that covered a whole run; over 40-second windows they ranged 10 to 40%
of their median, and calibrated medians 4 to 8%.  Over ten seeds the
trimmed mean spread less than the median on most classes.  Raw times
stay in the results file.  Checks run between cells, outside the timed
region.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from submemo import close, verify_statistic
from submemo.bounds import supergradient_grow, supergradient_shrink
from submemo.core import ModularFunction
from submemo.functions import default_tolerance
from submemo.maximize import (
    Cardinality,
    MaximizationResult,
    bidirectional_greedy,
    greedy_lazy,
    greedy_naive,
    greedy_stochastic,
)
from submemo.minimize import MinimizationResult, lovasz_descent, min_norm_point

import calibrate
import instances
from tracing import CORE_METHODS, HOOKS, Tracer

WORKLOADS = ("greedy-pm", "greedy-vo", "sweep-pm")
BUDGETS = (0.05, 0.15, 0.30)
STOCHASTIC_EPS = 0.1
LOVASZ_ITERATIONS = 30
SETUP_PER_PASS = 2
CLASS_METRIC = {cls: f"solve_{cls}_s" for cls in instances.CLASSES}
COUNTERS = ("oracle_evals", "gain_evals", "memo_updates", "memo_downdates", "memo_rebuilds")


@dataclass(frozen=True)
class Size:
    n: int
    mnp_n: int


FULL = Size(n=1500, mnp_n=200)


@dataclass
class Cell:
    """One solve.  ``label`` is shared by the PM and VO runs of the same solve."""

    label: str
    cls: str
    algo: str
    mode: str
    F: object
    solve: object
    X: list | None = None  # the point a supergradient is taken at

    times: list = field(default_factory=list)
    kernel_times: list = field(default_factory=list)  # calibration kernel around each of ``times``
    traced_times: list = field(default_factory=list)
    outcome: dict | None = None
    failures: list = field(default_factory=list)


def budgets(n: int) -> list[int]:
    return [max(1, round(b * n)) for b in BUDGETS]


def make_cells(workload: str, inst: instances.Instances, seed: int) -> list[Cell]:
    cells = []
    for c, cls in enumerate(instances.CLASSES):
        F = inst.main[cls]
        ks = budgets(F.n)
        if workload == "greedy-pm":
            for k in ks:
                cells.append(Cell(f"{cls}/lazy/k={k}", cls, "lazy", "pm", F,
                                  lambda F=F, k=k: greedy_lazy(F, Cardinality(k))))
            for k in ks:
                cells.append(Cell(f"{cls}/stochastic/k={k}", cls, "stochastic", "pm", F,
                                  lambda F=F, k=k: greedy_stochastic(F, k, STOCHASTIC_EPS, seed)))
            cells.append(Cell(f"{cls}/naive/k={ks[0]}", cls, "naive", "pm", F,
                              lambda F=F, k=ks[0]: greedy_naive(F, Cardinality(k))))
        elif workload == "greedy-vo":
            V = inst.vo[cls]
            for k in ks:
                cells.append(Cell(f"{cls}/lazy/k={k}", cls, "lazy", "vo", V,
                                  lambda V=V, k=k: greedy_lazy(V, Cardinality(k))))
        else:
            rng = np.random.default_rng((seed, c))
            half = sorted(rng.choice(F.n, size=F.n // 2, replace=False).tolist())
            P, G = inst.penalized[cls], inst.mnp[cls]
            cells += [
                Cell(f"{cls}/lovasz", cls, "lovasz", "pm", P,
                     lambda P=P: lovasz_descent(P, iterations=LOVASZ_ITERATIONS)),
                Cell(f"{cls}/supergradient-grow", cls, "grow", "pm", F,
                     lambda F=F, X=half: supergradient_grow(F, X), X=half),
                Cell(f"{cls}/supergradient-shrink", cls, "shrink", "pm", F,
                     lambda F=F, X=half: supergradient_shrink(F, X), X=half),
                Cell(f"{cls}/bidirectional", cls, "bidirectional", "pm", P,
                     lambda P=P: bidirectional_greedy(P)),
                Cell(f"{cls}/min-norm-point", cls, "mnp", "pm", G, lambda G=G: min_norm_point(G)),
            ]
    return cells


def _outcome(cell: Cell, res) -> dict:
    if isinstance(res, ModularFunction):
        return {"counters": cell.F.counters.as_dict(), "value": res.value(cell.X)}
    out = {"counters": res.counters.as_dict(), "value": res.value}
    if isinstance(res, MaximizationResult):
        out["selection"] = list(res.members)
        if "recomputes_per_round" in res.stats:
            out["recomputes"] = res.stats["recomputes_per_round"]
    elif isinstance(res, MinimizationResult):
        out["major_cycles"] = res.iterations
        out["minimizer_size"] = len(res.minimizer_min)
    return out


def _check(cell: Cell, res, outcome: dict, reference: dict | None) -> tuple[list, list]:
    """(wrong outputs, disagreements with the recorded reference)."""
    F = cell.F
    tol = default_tolerance(F)
    wrong, differ = [], []
    if isinstance(res, MaximizationResult):
        if not close(res.value, F.evaluate(res.selected), rel=tol):
            wrong.append("returned value differs from f(selection)")
    elif isinstance(res, MinimizationResult):
        best = min(F.evaluate(res.minimizer_min), F.evaluate(res.minimizer_max))
        if not close(res.value, best, rel=tol):
            wrong.append("returned value differs from f(minimizers)")
    else:
        full = range(F.n)
        if not close(res.value(cell.X), F.evaluate(cell.X), rel=tol):
            wrong.append("supergradient not tight at X")
        f_full = F.evaluate(full)
        if res.value(full) < f_full and not close(res.value(full), f_full, rel=tol):
            wrong.append("supergradient below f(V)")
        if res.value(()) < 0.0 and not close(res.value(()), 0.0, rel=tol):
            wrong.append("supergradient below f(empty)")
    drift = verify_statistic(F).max_deviation
    if drift > tol:
        wrong.append(f"statistic drift {drift:.3g} > {tol:.3g}")
    counters = outcome["counters"]
    if cell.mode == "pm" and counters["oracle_evals"]:
        wrong.append(f"PM solve made {counters['oracle_evals']} oracle evaluations")
    if cell.mode == "vo" and counters["gain_evals"]:
        wrong.append(f"VO solve made {counters['gain_evals']} statistic gains")
    if reference is not None and cell.algo == "lazy":
        want, got = reference.get(cell.label), outcome["selection"]
        if want != got:
            step = next((i for i, (a, b) in enumerate(zip(want or [], got)) if a != b), None)
            differ.append(f"selection differs from the greedy-vo reference (first at step {step})")
    return wrong, differ


def _run_pass(cells: list[Cell], reference, tracer: Tracer | None, pass_no: int) -> None:
    gc.collect()
    for i, cell in enumerate(cells):
        cell.F.reset_counters()
        before = calibrate.sample() if tracer is None else None
        try:
            t0 = time.perf_counter()
            if tracer is None:
                res = cell.solve()
            else:
                res = tracer.solve_span(i, cell.label, cell.solve)
            elapsed = time.perf_counter() - t0
        except Exception:  # a failed solve is a reported result, not a crash
            cell.failures.append((pass_no, "wrong", traceback.format_exc(limit=3)))
            continue
        if tracer is None:
            cell.kernel_times.append(calibrate.speed(before, calibrate.sample()))
            cell.times.append(elapsed)
        else:
            cell.traced_times.append(elapsed)
        outcome = _outcome(cell, res)
        if cell.outcome is None:
            cell.outcome = outcome
        elif outcome != cell.outcome:
            cell.failures.append((pass_no, "wrong", "output differs between passes of one run"))
        wrong, differ = _check(cell, res, outcome, reference)
        cell.failures += [(pass_no, "wrong", w) for w in wrong]
        cell.failures += [(pass_no, "reference", d) for d in differ]


def _at_reference(cell: Cell) -> float:
    """The cell's time at reference host speed: the mean over passes without
    the fastest and the slowest, or the median of fewer than three."""
    t = sorted(map(calibrate.at_reference, cell.times, cell.kernel_times))
    return statistics.fmean(t[1:-1]) if len(t) > 2 else statistics.median(t)


def _solve_metrics(cells: list[Cell]) -> dict:
    """Sums over cells of each cell's time at reference host speed."""
    out = {"solve_s": 0.0, **{m: 0.0 for m in CLASS_METRIC.values()}}
    for cell in cells:
        if cell.times:
            t = _at_reference(cell)
            out["solve_s"] += t
            out[CLASS_METRIC[cell.cls]] += t
    return out


def _sum_fastest(cells: list[Cell], traced: bool) -> float:
    """Sum over cells of each cell's fastest raw wall time."""
    return sum(min(t) for t in (c.traced_times if traced else c.times for c in cells) if t)


def _counter_totals(cells: list[Cell]) -> dict:
    totals = dict.fromkeys(COUNTERS, 0)
    for cell in cells:
        if cell.outcome:
            for key in COUNTERS:
                totals[key] += cell.outcome["counters"][key]
    return totals


def _layer_metrics(summary: dict, cells: list[Cell]) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and accounting errors found in it."""
    self_ns, calls, layer = summary["op_self_ns"], summary["op_calls"], summary["layer_self_ns"]
    counters = _counter_totals(cells)
    core_calls = sum(calls.get(f"core.{m}", 0) for m in CORE_METHODS)
    m = {f"functions.{op}.s": self_ns.get(f"functions.{op}", 0) * 1e-9 for op in HOOKS.values()}
    m["functions.self_s"] = layer["functions"] * 1e-9
    m["oracle.s"] = layer["oracle"] * 1e-9
    m["oracle.calls"] = calls.get("oracle.evaluate", 0)
    m["oracle.elems"] = summary["oracle_elems"]
    m["oracle.bytes_computed"] = summary["oracle_bytes"]
    m["core.self_s"] = layer["core"] * 1e-9
    m["core.ns_per_call"] = layer["core"] / max(1, core_calls)
    m.update({f"core.{op}.calls": calls.get(f"core.{op}", 0) for op in CORE_METHODS})
    m["algo.self_s"] = layer["algo"] * 1e-9
    m.update({f"counters.{k}": v for k, v in counters.items()})
    picks = recomputed = 0
    for cell in cells:
        if cell.outcome and "recomputes" in cell.outcome:
            picks += len(cell.outcome["selection"])
            recomputed += sum(cell.outcome["recomputes"][1:])
    m["lazy.useful_ratio"] = picks / recomputed if recomputed else 0.0
    m["mnp.major_cycles"] = sum(c.outcome.get("major_cycles", 0) for c in cells if c.outcome)

    errors = []
    for solve, wall in summary["solve_wall_ns"].items():
        if summary["solve_self_sum_ns"][solve] != wall:
            errors.append(f"layer self times of solve {solve} do not add up to its wall time")
    expect = {
        "oracle.calls": counters["oracle_evals"],
        "core.update.calls": counters["memo_updates"],
        "core.downdate.calls": counters["memo_downdates"],
        "core.set_memo.calls": counters["memo_rebuilds"],
    }
    if all(c.mode == "pm" for c in cells):
        gains = sum(m[f"core.{op}.calls"] for op in ("gain_add", "gain_remove", "gain_singleton"))
        if gains != counters["gain_evals"]:
            errors.append(f"traced gain calls {gains} != counters.gain_evals")
    for key, want in expect.items():
        if m[key] != want:
            errors.append(f"traced {key} {m[key]} != exact counter {want}")
    return m, errors


@dataclass
class Run:
    """Everything one invocation measured, for printing and for the results file."""

    workload: str
    seed: int
    passes: int = 0
    traced_passes: int = 0
    setup_times: list = field(default_factory=list)
    setup_kernel_times: list = field(default_factory=list)
    shapes: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    trace_errors: list = field(default_factory=list)
    spans: dict | None = None

    @property
    def attempted(self) -> int:
        return len(self.cells) * (self.passes + self.traced_passes)

    @property
    def failed(self) -> int:
        return sum(len({p for p, _, _ in c.failures}) for c in self.cells)

    @property
    def correct(self) -> bool:
        """False when an output is wrong or the trace's accounting is off.

        A selection that differs from the recorded reference counts in
        ``failed`` but is reported as a finding, not as a wrong output.
        """
        wrong = any(kind == "wrong" for c in self.cells for _, kind, _ in c.failures)
        return not wrong and not self.trace_errors


def measure(workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
            reference: dict | None = None) -> Run:
    """Set up, run passes for at most ``seconds`` (at least one), and compute the metrics.

    Untraced runs report the end-to-end metrics.  Traced runs spend half the
    time on untraced passes and half on traced ones, and report the
    per-layer metrics of the traced passes.
    """
    run = Run(workload, seed)
    raw = instances.raw_inputs(seed, size.n, size.mnp_n if workload == "sweep-pm" else None)
    vo = workload == "greedy-vo"

    def set_up():
        # repeated before every pass, so the samples span the run as the solves do
        inst = None
        for _ in range(SETUP_PER_PASS):
            inst = None  # at most one spare copy alive, so peak memory does not depend on timing
            gc.collect()
            before = calibrate.sample()
            t0 = time.perf_counter()
            inst = instances.build(raw, vo)
            run.setup_times.append(time.perf_counter() - t0)
            run.setup_kernel_times.append(calibrate.speed(before, calibrate.sample()))
        return inst

    inst = set_up()
    run.shapes = {cls: instances.shape(d) for cls, d in inst.data.items()}
    run.cells = make_cells(workload, inst, seed)

    start = time.perf_counter()

    def time_left(until: float, since: float) -> bool:
        # start another pass only if one more, as long as the last, still fits
        now = time.perf_counter()
        return now + (now - since) <= start + until

    untraced_until = seconds / 2 if trace else seconds
    while True:
        t0 = time.perf_counter()
        if run.passes:
            set_up()
        _run_pass(run.cells, reference, None, run.passes)
        run.passes += 1
        if not time_left(untraced_until, t0):
            break
    if not trace:
        run.metrics = {
            **_solve_metrics(run.cells),
            "setup_s": statistics.median(
                map(calibrate.at_reference, run.setup_times, run.setup_kernel_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": 1.0 - run.failed / run.attempted,
        }
        return run

    tracer = Tracer()
    for d in inst.data.values():
        tracer.row_bytes[id(d)] = instances.row_bytes(d)
    per_pass = []
    tracer.install()
    try:
        while run.traced_passes == 0 or time_left(seconds, t0):
            t0 = time.perf_counter()
            tracer.clear()
            _run_pass(run.cells, reference, tracer, run.passes + run.traced_passes)
            run.traced_passes += 1
            layer, errors = _layer_metrics(tracer.summary(), run.cells)
            per_pass.append(layer)
            run.trace_errors += errors
    finally:
        tracer.uninstall()
    run.spans = tracer.arrays()
    run.metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    untraced = _sum_fastest(run.cells, traced=False)
    run.metrics["trace.overhead_frac"] = _sum_fastest(run.cells, traced=True) / untraced - 1.0
    return run


def cell_records(run: Run) -> list[dict]:
    out = []
    for c in run.cells:
        rec = {"label": c.label, "class": c.cls, "algo": c.algo, "mode": c.mode,
               "times_s": c.times, "kernel_s": c.kernel_times, "traced_times_s": c.traced_times,
               "min_s": min(c.times) if c.times else None,
               "median_s": statistics.median(c.times) if c.times else None,
               "ref_s": _at_reference(c) if c.times else None,
               "failures": [f"pass {p} {kind}: {text}" for p, kind, text in c.failures]}
        rec.update(c.outcome or {})
        out.append(rec)
    return out
