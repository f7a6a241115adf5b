"""Command-line interface for the benchmark harness.

Functions are addressed as ``synthetic:<kind>,n=...,seed=...`` strings,
``<class>:<path>`` file references, or bare paths (JSON set systems pick
their class from the file contents; bare dense CSVs default to facility
location).  Each subcommand takes only the options it reads:

- ``--seed``: ``maximize`` (for the randomized algorithms), ``gradients``
  and ``validate``;
- ``--mode``: every command but ``validate``, which audits the statistic;
- ``--k`` / ``--budget-frac``: ``maximize`` and ``minimize`` (the floor of
  ``mmin``); without either, k is 10% of n.

Every instance is built and every gradient input is drawn by
``runner.instance_for`` and ``runner.run_gradient``.  ``scsc``, ``scsk``
and ``ds-min`` call the solvers of ``submemo.constrained`` directly.  No
command times anything: PM-vs-VO cost shows in the exact counters each
result carries, and wall-clock PM/VO tables come from ``perfbench/``.
Exit codes: 0 success, 2 input error (an out-of-range ``--k`` or
``--budget-frac`` included, and a ``--max-iters`` or ``--audit-rounds``
below 1), 3 solver non-convergence, 4 a ``validate`` row FAILs.
Every JSON result carries ``runner.run_metadata()`` under ``meta``, with
n and, where the command takes one, the seed.  A ``maximize``,
``minimize``, ``scsc``, ``scsk`` or ``ds-min`` result also carries the
solver's ``stats`` (lazy greedy's recomputes per round, min-norm-point's
norm trace, the difference-of-submodular variant, the ``scsc``/``scsk``
rounds' floored-cost flags, and so on).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from ..constrained import DS_VARIANTS, ds_minimize, scsc_solve, scsk_solve
from ..core import InputError, NonConvergenceError
from ..functions import (
    DispersionData,
    FacilityLocationData,
    FeatureBasedData,
    GraphCutData,
    LogDetData,
    SaturatedCoverageData,
    default_tolerance,
    make_function,
    verify_statistic,
)
from .dataio import load_dense_matrix, load_set_system, load_sparse_triplets
from .runner import (
    ALGORITHMS,
    GRADIENT_TASKS,
    MAXIMIZE_ALGORITHMS,
    MINIMIZE_ALGORITHMS,
    instance_for,
    run_gradient,
    run_metadata,
)
from .synthetic import gen_synthetic, pop_param

EXIT_CHECK_FAILED = 4

_DENSE_CLASSES = {
    "faclocation": FacilityLocationData,
    "satcov": SaturatedCoverageData,
    "graphcut": GraphCutData,
    "logdet": LogDetData,
    "dispmin": partial(DispersionData, kind="min"),
    "dispsum": partial(DispersionData, kind="sum"),
    "dispminsum": partial(DispersionData, kind="min-sum"),
}


def _parse_params(parts) -> dict:
    params = {}
    for part in parts:
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"bad synthetic parameter {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        if key in params:
            raise InputError(f"synthetic parameter {key} given twice")
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def load_function_spec(text: str):
    """Resolve a --function argument to (name, data object)."""
    if text.startswith("synthetic:"):
        body = text[len("synthetic:") :]
        parts = body.split(",")
        kind = parts[0]
        params = _parse_params(parts[1:])
        n = pop_param(params, "n", 100, int)
        seed = pop_param(params, "seed", 0, int)
        return f"{kind}-n{n}", gen_synthetic(kind, n, seed, params)
    if ":" in text and not Path(text).exists():
        prefix, path = text.split(":", 1)
        return prefix, _load_file(path, prefix)
    return Path(text).stem, _load_file(text, None)


def _load_file(path: str, klass: str | None):
    p = Path(path)
    if not p.exists():
        raise InputError(f"function spec file not found: {path}")
    if p.suffix == ".json":
        return load_set_system(p)
    head = p.read_text(encoding="utf-8", errors="replace")[:16]
    if head.startswith("triplet"):
        n, buckets, triplets = load_sparse_triplets(p)
        by_element: dict[int, list] = {}
        for b, e, v in triplets:
            by_element.setdefault(e, []).append((b, v))
        lists = [
            (
                [b for b, _ in by_element.get(e, [])],
                [v for _, v in by_element.get(e, [])],
            )
            for e in range(n)
        ]
        return FeatureBasedData(lists, num_features=buckets)
    matrix = load_dense_matrix(p)
    klass = klass or "faclocation"
    if klass not in _DENSE_CLASSES:
        raise InputError(
            f"unknown dense function class {klass!r} (choose from {sorted(_DENSE_CLASSES)})"
        )
    return _DENSE_CLASSES[klass](matrix)


def _build(spec: str):
    """Resolve a --function argument to (name, function instance)."""
    name, data = load_function_spec(spec)
    return name, make_function(data.n, data)


def _emit(args, payload: dict, n: int) -> None:
    """Print the payload as JSON, and write it to ``--out``, with the run's
    metadata under ``meta``."""
    meta = {**run_metadata(), "n": n}
    if hasattr(args, "seed"):  # maximize and gradients take --seed
        meta["seed"] = args.seed
    payload["meta"] = meta
    text = json.dumps(payload, indent=2, default=_json_default)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(text, encoding="utf-8")
    print(text)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _resolve_k(args, n: int) -> int:
    if args.k is not None:
        if args.k < 1:
            raise InputError(f"--k must be >= 1, got {args.k}")
        return args.k
    frac = 0.1 if args.budget_frac is None else args.budget_frac
    if not 0.0 < frac <= 1.0:
        raise InputError(f"--budget-frac must lie in (0, 1], got {frac}")
    return max(1, round(frac * n))


def _cmd_solve(args) -> int:
    """maximize / minimize: one algorithm on one function."""
    name, base = _build(args.function)
    inst = instance_for(base, args.mode)
    k = _resolve_k(args, inst.n)
    seed = getattr(args, "seed", None)  # only maximize takes --seed; no minimizer reads it
    res = ALGORITHMS[args.algorithm](inst, k, seed)
    payload = {"function": name, "algorithm": args.algorithm, "mode": args.mode}
    if args.command == "maximize":
        payload.update(
            k=k,
            selected=res.members,
            value=res.value,
            counters=res.counters.as_dict(),
            stats=res.stats,
            seed=seed,
        )
    else:
        payload.update(
            minimizer_min=res.minimizer_min.members,
            minimizer_max=res.minimizer_max.members,
            value=res.value,
            iterations=res.iterations,
            duality_gap=res.duality_gap,
            counters=res.counters.as_dict(),
            stats=res.stats,
        )
    _emit(args, payload, inst.n)
    return 0


def _cmd_pair(args) -> int:
    """scsc / scsk / ds-min: one iterative solver on the pair (f, g)."""
    fname, f_base = _build(args.function)
    gname, g_base = _build(args.function_g)
    f, g = instance_for(f_base, args.mode), instance_for(g_base, args.mode)
    # f(V) and g(V) are read on throwaway instances, so each solve starts fresh
    full = range(f.n)
    payload = {"f": fname, "g": gname}
    if args.command == "ds-min":
        payload["variant"] = args.variant
        res = ds_minimize(f, g, args.variant, args.max_iters)
    elif args.command == "scsc":
        payload["direction"] = "SCSC"
        level = args.c
        if level is None:
            level = args.c_frac * instance_for(g_base, args.mode).value_at(full)
        res = scsc_solve(f, g, level, args.max_iters)
    else:
        payload["direction"] = "SCSK"
        budget = args.b
        if budget is None:
            budget = args.b_frac * instance_for(f_base, args.mode).value_at(full)
        res = scsk_solve(f, g, budget, args.max_iters)
    payload.update(selected=res.members, objective=res.objective)
    if res.constraint_value is not None:  # SCSC and SCSK
        payload["constraint_value"] = res.constraint_value
    payload.update(iterations=res.iterations, converged=res.converged, trace=res.trace,
                   counters=res.counters.as_dict(), stats=res.stats)
    _emit(args, payload, f.n)
    return 0


def _cmd_gradients(args) -> int:
    name, base = _build(args.function)
    modes = ("pm", "vo") if args.mode == "both" else (args.mode,)
    payload = {"function": name, "seed": args.seed, "runs": {}}
    weights = {}
    for mode in modes:
        counters, weights[mode] = {}, {}
        for task in GRADIENT_TASKS:
            inst = instance_for(base, mode)
            weights[mode][task] = run_gradient(inst, task, args.seed).weights.tolist()
            counters[f"{task}_counters"] = inst.counters.as_dict()
        payload["runs"][mode] = counters
    if len(modes) == 2:
        payload["weights_match"] = all(
            np.allclose(weights["pm"][task], weights["vo"][task], atol=1e-9)
            for task in GRADIENT_TASKS
        )
    payload["weights"] = weights
    _emit(args, payload, base.n)
    return 0


def _cmd_validate(args) -> int:
    if args.audit_rounds < 1:
        raise InputError(f"--audit-rounds must be >= 1, got {args.audit_rounds}")
    name, inst = _build(args.function)
    rng = np.random.default_rng(args.seed)
    rows = []
    report = verify_statistic(inst)
    tol = default_tolerance(inst)
    rows.append(("statistic-empty", report.max_deviation <= tol, f"dev={report.max_deviation:.2e}"))
    for trial in range(5):
        size = int(rng.integers(0, inst.n + 1))
        members = sorted(rng.choice(inst.n, size=size, replace=False).tolist())
        inst.set_memo(members)
        report = verify_statistic(inst)
        rows.append(
            (f"statistic-X{trial}", report.max_deviation <= tol, f"dev={report.max_deviation:.2e}")
        )
    # randomized oracle-equivalence + submodularity audit
    worst_eq = 0.0
    violations = 0
    audits = 0
    for _ in range(args.audit_rounds):
        size = int(rng.integers(0, inst.n))
        members = sorted(rng.choice(inst.n, size=size, replace=False).tolist())
        inst.set_memo(members)
        outside = [j for j in range(inst.n) if j not in inst.memo]
        if not outside:
            continue
        j = int(rng.choice(outside))
        g = inst.gain_add(j)
        ref = inst.evaluate(members + [j]) - inst.evaluate(members)
        worst_eq = max(worst_eq, abs(g - ref) / max(1.0, abs(ref)))
        if len(members) > 0:
            drop = int(rng.choice(members))
            smaller = [i for i in members if i != drop]
            inst.set_memo(smaller)
            if j != drop:
                g_small = inst.gain_add(j)
                audits += 1
                if g_small < g - 1e-9 * max(1.0, abs(g)):
                    violations += 1
    rows.append(("oracle-equivalence", worst_eq <= tol, f"max rel dev={worst_eq:.2e}"))
    rows.append(
        (
            "submodularity-audit",
            violations == 0,
            f"{violations}/{audits} diminishing-returns violations",
        )
    )
    width = max(len(r[0]) for r in rows)
    print(f"validate {name}")
    for label, ok, detail in rows:
        print(f"  {label:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return 0 if all(ok for _, ok, _ in rows) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submemo",
        description="Submodular optimization with memoized statistics (pm) or the value oracle (vo).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spec_help = "synthetic:<kind>,n=..,seed=.. | <class>:<path> | <path>"

    def command(name, fn, help_text, modes=("pm", "vo"), default_mode="pm"):
        """A subcommand over --function with --mode and --out."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--function", required=True, help=spec_help)
        p.add_argument("--mode", choices=modes, default=default_mode)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
        return p

    def pair(name, help_text):
        """A subcommand over (f, g) solved by bound rounds."""
        p = command(name, _cmd_pair, help_text)
        p.add_argument("--function-g", dest="function_g", required=True)
        p.add_argument("--max-iters", dest="max_iters", type=int, default=50)
        return p

    def budget(p):
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--budget-frac", dest="budget_frac", type=float, default=None)

    p = command("maximize", _cmd_solve, "run one maximization algorithm")
    budget(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", choices=sorted(MAXIMIZE_ALGORITHMS), default="lazy-greedy")

    p = command("minimize", _cmd_solve, "run one minimization algorithm")
    budget(p)
    p.add_argument("--algorithm", choices=sorted(MINIMIZE_ALGORITHMS), default="min-norm-point")

    p = pair("scsc", "minimize f subject to g >= c")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--c-frac", dest="c_frac", type=float, default=0.5)

    p = pair("scsk", "maximize g subject to f <= b")
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--b-frac", dest="b_frac", type=float, default=0.25)

    p = pair("ds-min", "minimize f - g")
    p.add_argument("--variant", choices=DS_VARIANTS, default="mod-mod")

    p = command(
        "gradients",
        _cmd_gradients,
        "seeded sub- and supergradients",
        modes=("pm", "vo", "both"),
        default_mode="both",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="statistic + submodularity audit")
    p.add_argument("--function", required=True, help=spec_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--audit-rounds", dest="audit_rounds", type=int, default=200)
    p.set_defaults(fn=_cmd_validate)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except NonConvergenceError as err:
        print(f"solver did not converge: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
