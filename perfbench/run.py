"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload greedy-pm --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and nowhere else; without it the run exits non-zero and prints
no result.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Per-cell
counters, times, instance shapes and run metadata go to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``, and the spans of
the last traced pass to ``.perfbench_out/spans-<workload>-seed<seed>.npz``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads OpenBLAS (its default here is
# one thread per core, up to 64).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit without a result."""
    if not (SRC / "submemo" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import submemo

    if Path(submemo.__file__).resolve().parent != SRC / "submemo":
        sys.exit(f"perfbench: imported submemo from {submemo.__file__}, not {SRC}")


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ns_per_call"):
        return "ns"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cache_sizes() -> dict:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0].lower()] = int(parts[1])
    return sizes


def metadata(args, run, size) -> dict:
    import numpy as np

    import calibrate

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256_16": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n": size.n,
        "mnp_n": size.mnp_n if args.workload == "sweep-pm" else None,
        "passes": run.passes,
        "traced_passes": run.traced_passes,
        "setup_samples": len(run.setup_times),
        "calibration_reference_s": calibrate.REFERENCE_S,
    }


def result(run) -> dict:
    """The last line of a run's output."""
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in run.metrics.items()},
    }


def load_reference(workload: str, seed: int, n: int) -> dict | None:
    """Recorded greedy-vo lazy selections, when this run matches their seed and n."""
    if workload not in ("greedy-pm", "greedy-vo"):
        return None
    ref = json.loads(REFERENCE.read_text())
    if ref["seed"] != seed or ref["n"] != n:
        return None
    return ref["selections"]


def main(argv=None) -> int:
    import_program()
    import numpy as np

    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    size = workloads.FULL
    reference = load_reference(args.workload, args.seed, size.n)
    run = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace), size, reference)
    meta = metadata(args, run, size)
    cells = workloads.cell_records(run)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"meta": meta, "instances": run.shapes, "setup_times_s": run.setup_times,
              "setup_kernel_s": run.setup_kernel_times,
              "metrics": run.metrics, "trace_errors": run.trace_errors, "cells": cells}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if run.spans is not None:
        np.savez(OUT / f"spans-{stem}.npz", **run.spans)

    print("# " + json.dumps(meta))
    for cls, shape in run.shapes.items():
        print(f"# instance {cls}: {shape}")
    for c in cells:
        ms = "-" if c["ref_s"] is None else f"{1e3 * c['ref_s']:.2f} ms"
        print(f"# {c['label']:<32} {ms:>12}  {c.get('counters')}")
        for failure in dict.fromkeys(f.split(" ", 2)[2].splitlines()[-1] for f in c["failures"]):
            print(f"# FAILED {c['label']}: {failure}")
    for err in run.trace_errors:
        print(f"# TRACE ERROR {err}")
    for name, value in run.metrics.items():
        print(f"# {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps(result(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
