"""Command-line interface for the benchmark harness.

Functions are addressed as ``synthetic:<kind>,n=...,seed=...`` strings,
``<class>:<path>`` file references, or bare paths (JSON set systems pick
their class from the file contents; bare dense CSVs default to facility
location).  Exit codes: 0 success, 2 input error, 3 solver non-convergence,
4 failed check (a ``validate`` row FAILs or a ``bench`` cell errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..bounds import extreme_point, supergradient_grow
from ..constrained import DsProblem, ScProblem, ds_minimize, scsc_solve, scsk_solve
from ..core import InputError, NonConvergenceError, wrap_value_oracle
from ..functions import (
    DispersionData,
    FacilityLocationData,
    GraphCutData,
    LogDetData,
    SaturatedCoverageData,
    default_tolerance,
    make_function,
    verify_statistic,
)
from .dataio import load_dense_matrix, load_set_system, load_sparse_triplets
from .runner import (
    ExperimentConfig,
    MAXIMIZE_ALGORITHMS,
    MINIMIZE_ALGORITHMS,
    run_experiment,
)
from .synthetic import gen_synthetic
from ..functions import FeatureBasedData

EXIT_CHECK_FAILED = 4

_DENSE_CLASSES = {
    "faclocation": lambda m, p: FacilityLocationData(m),
    "satcov": lambda m, p: SaturatedCoverageData(m, alpha_fraction=float(p.get("alpha_frac", 0.25))),
    "graphcut": lambda m, p: GraphCutData(m, lam=float(p.get("lam", 1.0))),
    "logdet": lambda m, p: LogDetData(m, ridge=p.get("ridge")),
    "dispmin": lambda m, p: DispersionData(m, kind="min"),
    "dispsum": lambda m, p: DispersionData(m, kind="sum"),
    "dispminsum": lambda m, p: DispersionData(m, kind="min-sum"),
}


def _parse_params(parts) -> dict:
    params = {}
    for part in parts:
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"bad synthetic parameter {part!r} (expected key=value)")
        key, value = part.split("=", 1)
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
        n = int(params.pop("n", 100))
        seed = int(params.pop("seed", 0))
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
    return _DENSE_CLASSES[klass](matrix, {})


def _build(args, attr="function"):
    name, data = load_function_spec(getattr(args, attr))
    inst = make_function(data.n, data)
    return name, inst


def _mode_instance(inst, mode: str):
    return wrap_value_oracle(inst) if mode == "vo" else inst


def _emit(args, payload: dict) -> None:
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
    if getattr(args, "k", None):
        return int(args.k)
    frac = getattr(args, "budget_frac", None) or 0.1
    return max(1, round(frac * n))


def _cmd_maximize(args) -> int:
    name, inst = _build(args)
    inst = _mode_instance(inst, args.mode)
    k = _resolve_k(args, inst.n)
    algo = MAXIMIZE_ALGORITHMS[args.algorithm]
    res = algo(inst, k, args.seed)
    _emit(
        args,
        {
            "function": name,
            "algorithm": args.algorithm,
            "mode": args.mode,
            "k": k,
            "selected": res.members,
            "value": res.value,
            "counters": res.counters.as_dict(),
            "seed": args.seed,
        },
    )
    return 0


def _cmd_minimize(args) -> int:
    name, inst = _build(args)
    inst = _mode_instance(inst, args.mode)
    k = _resolve_k(args, inst.n)
    res = MINIMIZE_ALGORITHMS[args.algorithm](inst, k, args.seed)
    _emit(
        args,
        {
            "function": name,
            "algorithm": args.algorithm,
            "mode": args.mode,
            "minimizer_min": res.minimizer_min.members,
            "minimizer_max": res.minimizer_max.members,
            "value": res.value,
            "iterations": res.iterations,
            "duality_gap": res.duality_gap,
            "counters": res.counters.as_dict(),
        },
    )
    return 0


def _cmd_sc(args, direction: str) -> int:
    fname, f = _build(args)
    gname, g = _build(args, "function_g")
    f = _mode_instance(f, args.mode)
    g = _mode_instance(g, args.mode)
    if direction == "SCSC":
        level = args.c if args.c is not None else args.c_frac * _total(g)
        prob = ScProblem(f=f, g=g, direction="SCSC", c=level)
        res = scsc_solve(prob, max_iters=args.max_iters)
    else:
        budget = args.b if args.b is not None else args.b_frac * _total(f)
        prob = ScProblem(f=f, g=g, direction="SCSK", b=budget)
        res = scsk_solve(prob, max_iters=args.max_iters)
    _emit(
        args,
        {
            "f": fname,
            "g": gname,
            "direction": direction,
            "selected": res.members,
            "objective": res.objective,
            "constraint_value": res.constraint_value,
            "iterations": res.iterations,
            "converged": res.converged,
            "trace": res.trace,
        },
    )
    return 0


def _total(F) -> float:
    total = F.value_at(range(F.n))
    F.set_memo(())
    return total


def _cmd_ds_min(args) -> int:
    fname, f = _build(args)
    gname, g = _build(args, "function_g")
    f = _mode_instance(f, args.mode)
    g = _mode_instance(g, args.mode)
    res = ds_minimize(DsProblem(f=f, g=g, variant=args.variant), seed=args.seed, max_iters=args.max_iters)
    _emit(
        args,
        {
            "f": fname,
            "g": gname,
            "variant": args.variant,
            "selected": res.members,
            "objective": res.objective,
            "iterations": res.iterations,
            "converged": res.converged,
            "trace": res.trace,
        },
    )
    return 0


def _cmd_gradients(args) -> int:
    name, inst = _build(args)
    modes = ("pm", "vo") if args.mode == "both" else (args.mode,)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(inst.n)
    anchor = sorted(rng.choice(inst.n, size=inst.n // 2, replace=False).tolist())
    payload = {"function": name, "seed": args.seed, "runs": {}}
    weight_views = {}
    for mode in modes:
        runner = _mode_instance(inst.clone_detached(), mode)
        runner.reset_counters()
        sub = extreme_point(runner, order)
        sub_counters = runner.counters.as_dict()
        runner2 = _mode_instance(inst.clone_detached(), mode)
        runner2.reset_counters()
        sup = supergradient_grow(runner2, anchor)
        payload["runs"][mode] = {
            "subgradient_counters": sub_counters,
            "supergradient_counters": runner2.counters.as_dict(),
        }
        weight_views[mode] = {
            "subgradient": sub.weights.tolist(),
            "supergradient": sup.weights.tolist(),
        }
    if len(modes) == 2:
        payload["weights_match"] = bool(
            np.allclose(weight_views["pm"]["subgradient"], weight_views["vo"]["subgradient"], atol=1e-9)
            and np.allclose(
                weight_views["pm"]["supergradient"], weight_views["vo"]["supergradient"], atol=1e-9
            )
        )
    payload["weights"] = weight_views
    _emit(args, payload)
    return 0


def _cmd_bench(args) -> int:
    functions = []
    for spec in args.function:
        name, data = load_function_spec(spec)
        functions.append((name, make_function(data.n, data)))
    budgets = tuple(float(b) for b in args.budgets.split(","))
    cfg = ExperimentConfig(
        functions=functions,
        algorithm=args.algorithm,
        mode=args.mode,
        budgets=budgets,
        repetitions=args.reps,
        seed=args.seed,
        kind=args.kind,
    )
    out_dir = args.out or "bench-out"
    records = run_experiment(cfg, out_dir=out_dir)
    failures = [r for r in records if r.error]
    print(f"wrote {Path(out_dir) / 'report.csv'} and report.json ({len(records)} cells)")
    for r in failures:
        print(f"cell error: {r.function}/{r.mode}/{r.budget}: {r.error}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else 0


def _cmd_validate(args) -> int:
    name, inst = _build(args)
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
        description="Submodular optimization benchmarks: memoized vs value-oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, g_function=False, modes=("pm", "vo"), default_mode="pm"):
        p.add_argument("--function", required=True, help="synthetic:<kind>,n=..,seed=.. | <class>:<path> | <path>")
        if g_function:
            p.add_argument("--function-g", dest="function_g", required=True)
        p.add_argument("--mode", choices=modes, default=default_mode)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--budget-frac", dest="budget_frac", type=float, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("maximize", help="run one maximization algorithm")
    common(p)
    p.add_argument("--algorithm", choices=sorted(MAXIMIZE_ALGORITHMS), default="lazy-greedy")
    p.set_defaults(fn=_cmd_maximize)

    p = sub.add_parser("minimize", help="run one minimization algorithm")
    common(p)
    p.add_argument("--algorithm", choices=sorted(MINIMIZE_ALGORITHMS), default="min-norm-point")
    p.set_defaults(fn=_cmd_minimize)

    p = sub.add_parser("scsc", help="minimize f subject to g >= c")
    common(p, g_function=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--c-frac", dest="c_frac", type=float, default=0.5)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=50)
    p.set_defaults(fn=lambda a: _cmd_sc(a, "SCSC"))

    p = sub.add_parser("scsk", help="maximize g subject to f <= b")
    common(p, g_function=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--b-frac", dest="b_frac", type=float, default=0.25)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=50)
    p.set_defaults(fn=lambda a: _cmd_sc(a, "SCSK"))

    p = sub.add_parser("ds-min", help="minimize f - g")
    common(p, g_function=True)
    p.add_argument("--variant", choices=("sub-sup", "sup-sub", "mod-mod"), default="mod-mod")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=50)
    p.set_defaults(fn=_cmd_ds_min)

    p = sub.add_parser("gradients", help="sub/supergradient benchmark")
    common(p, modes=("pm", "vo", "both"), default_mode="both")
    p.set_defaults(fn=_cmd_gradients)

    p = sub.add_parser("bench", help="timing table: functions x budgets x modes")
    p.add_argument("--function", action="append", required=True)
    p.add_argument("--algorithm", default="lazy-greedy")
    p.add_argument("--kind", choices=("maximize", "minimize", "gradients"), default="maximize")
    p.add_argument("--mode", choices=("pm", "vo", "both"), default="both")
    p.add_argument("--budgets", default="0.05,0.15,0.30")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("validate", help="statistic + submodularity audit")
    common(p)
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
