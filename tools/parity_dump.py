"""Dump the exact outputs of every benchmark cell, for a byte-for-byte parity check.

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
construction.  OUT is sorted JSON, so two trees agree
when their dumps do:

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


def _digest(data) -> dict:
    """sha256, dtype and shape of each array attribute of ``data``, its scalar
    attributes, and whether ``cols is similarity``."""
    import hashlib

    import numpy as np

    out = {}
    for name, value in sorted(vars(data).items()):
        if isinstance(value, np.ndarray):
            out[name] = {"sha256": hashlib.sha256(value.tobytes()).hexdigest(),
                         "dtype": value.dtype.str, "shape": list(value.shape)}
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
    args.out.write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
    print(f"parity_dump: {len(result)} records (cells and data digests) from {root} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
