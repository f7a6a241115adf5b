"""Dump the exact outputs of every benchmark cell and of a zoo of small instances,
for a byte-for-byte parity check.

    python3 tools/parity_dump.py ROOT OUT --seeds 0 1 2 3 [--trace]

Imports ``submemo`` from ``ROOT/src`` and the benchmark from
``ROOT/perfbench`` and writes nothing under ROOT (no bytecode either).  For
each seed it builds the benchmark's instances at its full size and runs
every cell of the ``greedy-pm``, ``greedy-vo`` and ``sweep-pm`` workloads
once, in the benchmark's order, untimed.  Per cell it records the counters,
selections, lazy recomputes, major cycles, minimizer sets and sizes, and
every value, trace gain, duality gap and supergradient weight as
``float.hex``.  With ``--trace`` the cells run under the benchmark's tracer,
and each record also holds the tracer's call counts per operation and its
oracle element and byte counts.  Per seed and workload it also digests
every data object the benchmark builds: each array attribute's sha256,
dtype and shape, each scalar attribute, and whether ``cols is similarity``
where the object has both, so that equal dumps also mean equal
construction.

A ``zoo`` section follows, untraced in both modes.  For every kind in
``SYNTHETIC_KINDS``, at n = 3, 8 and 20 and each seed, it records a seeded
script of 3n adds and removes (each step's gain, ``memo_value``, a sha256
of every ``_statistic()`` array and of the owner records ``_arg`` and
``_arg2`` where the instance has them, and any ``InputError`` message), then a
from-scratch evaluation and a rebuild at a random set and at the empty
set, and the final counters; one ``gains_remove`` batch over the members
of a random set and one ``gains_singleton`` batch over every id, with
their counters; the PM and value-oracle runs of lazy, naive and
stochastic greedy (k = max(1, n // 3), the stochastic one seeded with the
seed), local search and bidirectional greedy; and min-norm-point and 20
Lovasz descent iterations on the function minus a modular penalty of 0.3
per element.  OUT is sorted JSON, so two trees agree when their dumps do:

    python3 tools/parity_dump.py parent-checkout parent.json --seeds 0 1 2 3
    python3 tools/parity_dump.py . change.json --seeds 0 1 2 3
    cmp parent.json change.json

Each tree needs its own process, since both import a package named
``submemo``.
"""

from __future__ import annotations

import os

# One BLAS thread before numpy loads, as the benchmark pins it: the
# facility-location instance's Gram matrix depends on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("greedy-pm", "greedy-vo", "sweep-pm")
ZOO_SIZES = (3, 8, 20)
ZOO_PENALTY = 0.3  # per-element modular penalty of the minimization runs
ZOO_LOVASZ_ITERATIONS = 20


def _plain(x):
    """``x`` as JSON with every float spelled out by ``float.hex``."""
    import numpy as np

    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_plain(v) for v in x]
    raise TypeError(f"cannot dump {type(x).__name__}")


def _array_digest(value) -> dict:
    """sha256 of an array's bytes, its dtype and its shape."""
    import hashlib

    return {"sha256": hashlib.sha256(value.tobytes()).hexdigest(),
            "dtype": value.dtype.str, "shape": list(value.shape)}


def _digest(data) -> dict:
    """``_array_digest`` of each array attribute of ``data``, its scalar
    attributes, and whether ``cols is similarity``."""
    import numpy as np

    out = {}
    for name, value in sorted(vars(data).items()):
        if isinstance(value, np.ndarray):
            out[name] = _array_digest(value)
        elif value is None or isinstance(value, (bool, int, float, str)):
            out[name] = _plain(value)
    if hasattr(data, "cols") and hasattr(data, "similarity"):
        out["cols_is_similarity"] = data.cols is data.similarity
    return out


def _record(cell, res) -> dict:
    from submemo.core import ModularFunction
    from submemo.maximize import MaximizationResult
    from submemo.minimize import MinimizationResult

    if isinstance(res, ModularFunction):
        return {"counters": cell.F.counters.as_dict(), "offset": res.offset,
                "weights": res.weights, "value_at_X": res.value(cell.X)}
    rec = {"counters": res.counters.as_dict(), "value": res.value, "stats": res.stats}
    if isinstance(res, MaximizationResult):
        rec.update(selection=res.members, trace=res.trace)
    elif isinstance(res, MinimizationResult):
        rec.update(major_cycles=res.iterations, duality_gap=res.duality_gap,
                   minimizer_min=res.minimizer_min.members,
                   minimizer_max=res.minimizer_max.members,
                   minimizer_size=len(res.minimizer_min))
    else:
        raise TypeError(f"cell {cell.label} returned {type(res).__name__}")
    return rec


def _stat_digest(F) -> dict:
    """``_array_digest`` of each array of ``F``'s statistic, then of the
    owner records ``_arg`` and ``_arg2`` where ``F`` keeps them (facility
    location)."""
    out = {name: _array_digest(value) for name, value in sorted(F._statistic().items())}
    for name in ("_arg", "_arg2"):
        if hasattr(F, name):
            out[name] = _array_digest(getattr(F, name))
    return out


def _attempt(call) -> dict:
    """``{"out": call()}``, or ``{"error": message}`` if it raises InputError."""
    from submemo.core import InputError

    try:
        return {"out": call()}
    except InputError as err:
        return {"error": f"{type(err).__name__}: {err}"}


def _zoo_moves(F, rng) -> list:
    """A seeded script of 3n adds and removes on ``F``, then a from-scratch
    evaluation, a rebuild at a random set and one at the empty set; each
    step records the gain, the value, the statistic digest and any error."""
    steps = []
    for _ in range(3 * F.n):
        j = int(rng.integers(F.n))
        if j in F.memo:
            step = {"remove": j, "gain": _attempt(lambda: F.gain_remove(j)),
                    "move": _attempt(lambda: F.downdate(j))}
        else:
            step = {"add": j, "gain": _attempt(lambda: F.gain_add(j)),
                    "move": _attempt(lambda: F.update(j))}
        step.update(value=_attempt(F.memo_value), statistic=_stat_digest(F))
        steps.append(step)
    members = sorted(int(j) for j in rng.choice(F.n, size=int(rng.integers(F.n + 1)), replace=False))
    for target in (members, []):
        steps.append({"evaluate": target, "value": _attempt(lambda: F.evaluate(target))})
        steps.append({"set_memo": target, "move": _attempt(lambda: F.set_memo(target)),
                      "value": _attempt(F.memo_value), "statistic": _stat_digest(F)})
    return steps


def _zoo_batches(F, rng) -> dict:
    """A ``gains_remove`` batch over the members of a random set and a
    ``gains_singleton`` batch over every id, read on ``F``."""
    members = rng.permutation(F.n)[:int(rng.integers(F.n + 1))].tolist()
    F.set_memo(members)
    F.reset_counters()
    return {"members": members, "remove": _attempt(lambda: F.gains_remove(members)),
            "singleton": _attempt(lambda: F.gains_singleton(range(F.n))),
            "counters": F.counters.as_dict()}


def _zoo_record(kind: str, n: int, seed: int) -> dict:
    """Move script, batched reads, PM and VO maximization runs, and
    min-norm-point and Lovasz descent on the penalised function, for one
    zoo instance."""
    import numpy as np

    from submemo.bench import gen_synthetic
    from submemo.core import NonConvergenceError, wrap_value_oracle
    from submemo.functions import ModularPenaltyData, make_function
    from submemo.maximize import (
        Cardinality,
        bidirectional_greedy,
        greedy_lazy,
        greedy_naive,
        greedy_stochastic,
        local_search_usm,
    )
    from submemo.minimize import lovasz_descent, min_norm_point

    data = gen_synthetic(kind, n, seed)
    F = make_function(n, data)
    rec = {"moves": _zoo_moves(F, np.random.default_rng(seed)), "counters": F.counters.as_dict(),
           "batches": _zoo_batches(make_function(n, data), np.random.default_rng(seed))}
    k = max(1, n // 3)
    algorithms = {
        "lazy-greedy": lambda G: greedy_lazy(G, Cardinality(k)),
        "naive-greedy": lambda G: greedy_naive(G, Cardinality(k)),
        "stochastic-greedy": lambda G: greedy_stochastic(G, k, seed=seed),
        "local-search": local_search_usm,
        "bidirectional-greedy": bidirectional_greedy,
    }
    for name, run in algorithms.items():
        for mode in ("pm", "vo"):
            G = make_function(n, data)
            if mode == "vo":
                G = wrap_value_oracle(G)

            def solve():
                res = run(G)
                return {"selection": res.members, "value": res.value, "trace": res.trace,
                        "counters": res.counters.as_dict(), "stats": res.stats}

            rec[f"{name}/{mode}"] = _attempt(solve)
    penalised = ModularPenaltyData(data, np.full(n, ZOO_PENALTY))
    minimizers = {
        "min-norm-point": min_norm_point,
        "lovasz": lambda G: lovasz_descent(G, iterations=ZOO_LOVASZ_ITERATIONS),
    }
    for name, run in minimizers.items():
        G = make_function(n, penalised)

        def solve():
            try:
                res, note = run(G), None
            except NonConvergenceError as err:
                res, note = err.result, str(err)
            return {"minimizer_min": res.minimizer_min.members,
                    "minimizer_max": res.minimizer_max.members, "value": res.value,
                    "iterations": res.iterations, "duality_gap": res.duality_gap,
                    "counters": res.counters.as_dict(), "stats": res.stats,
                    "nonconvergence": note}

        rec[name] = _attempt(solve)
    return rec


def zoo(seeds) -> dict:
    """``_zoo_record`` of every synthetic kind at every zoo size and seed."""
    from submemo.bench.synthetic import SYNTHETIC_KINDS

    return {f"zoo/{kind}/n{n}/seed{seed}": _plain(_zoo_record(kind, n, seed))
            for kind in SYNTHETIC_KINDS for n in ZOO_SIZES for seed in seeds}


def dump(seeds, trace: bool) -> dict:
    import instances
    import workloads
    from tracing import Tracer

    size = workloads.FULL
    out = {}
    for seed in seeds:
        for workload in WORKLOADS:
            raw = instances.raw_inputs(seed, size.n, size.mnp_n if workload == "sweep-pm" else None)
            inst = instances.build(raw, workload == "greedy-vo")
            for name, data in inst.data.items():
                out[f"seed{seed}/{workload}/data/{name}"] = _digest(data)
            cells = workloads.make_cells(workload, inst, seed)
            tracer = None
            if trace:
                tracer = Tracer()
                for d in inst.data.values():
                    tracer.row_bytes[id(d)] = instances.row_bytes(d)
                tracer.install()
            try:
                for i, cell in enumerate(cells):
                    cell.F.reset_counters()
                    if tracer is None:
                        rec = _record(cell, cell.solve())
                    else:
                        tracer.clear()
                        rec = _record(cell, tracer.solve_span(i, cell.label, cell.solve))
                        summary = tracer.summary()
                        rec["traced"] = {"calls": summary["op_calls"],
                                         "oracle_elems": summary["oracle_elems"],
                                         "oracle_bytes": summary["oracle_bytes"]}
                    out[f"seed{seed}/{workload}/{cell.label}"] = _plain(rec)
            finally:
                if tracer is not None:
                    tracer.uninstall()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", type=Path, help="checkout whose src/ and perfbench/ are run")
    p.add_argument("out", type=Path, help="JSON file to write")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    p.add_argument("--trace", action="store_true", help="run under the tracer and add its counts")
    args = p.parse_args(argv)

    root = args.root.resolve()
    src, bench = root / "src", root / "perfbench"
    if not (src / "submemo" / "__init__.py").is_file() or not (bench / "workloads.py").is_file():
        sys.exit(f"parity_dump: {root} has no src/submemo or perfbench/workloads.py")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(bench)]
    import submemo

    if Path(submemo.__file__).resolve().parent != src / "submemo":
        sys.exit(f"parity_dump: imported submemo from {submemo.__file__}, not {src}")
    result = dump(args.seeds, args.trace)
    result.update(zoo(args.seeds))
    args.out.write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
    print(f"parity_dump: {len(result)} records (cells, data digests and zoo instances) "
          f"from {root} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
