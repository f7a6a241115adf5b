"""Run every workload, each in its own process, and print all their metrics.

    python3 perfbench/run_all.py [--seed 0] [--seconds 40] [--trace]

Workloads run one after another through ``perfbench/run.py``, each in a
fresh interpreter with one BLAS thread.  ``--trace`` adds the traced run of
each workload.  Afterwards the PM/VO table is printed from the matched
greedy-pm and greedy-vo lazy-greedy cells: per (class, budget), both times at
reference host speed and vo / pm.  That table is the paper's
result; it is reported as information, not as a gated metric, because a
faster oracle would rightly lower it.  Exits non-zero if a run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def speedup_rows(pm_cells: list[dict], vo_cells: list[dict]) -> list[tuple]:
    """(label, pm seconds, vo seconds, vo / pm) for each matched lazy cell."""
    pm = {c["label"]: c["ref_s"] for c in pm_cells if c["algo"] == "lazy"}
    return [
        (c["label"], pm[c["label"]], c["ref_s"], c["ref_s"] / pm[c["label"]])
        for c in vo_cells
        if c["algo"] == "lazy" and pm.get(c["label"]) and c["ref_s"] is not None
    ]


def main(argv=None) -> int:
    run.import_program()
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            for line in lines[:-1]:
                if line.startswith("# FAILED") or line.startswith("# TRACE ERROR"):
                    print(f"{workload}: {line[2:]}")
            result = json.loads(lines[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
            if not result["correct"]:
                status = 1

    stem = f"seed{args.seed}-trace0.json"
    pm_file, vo_file = run.OUT / f"greedy-pm-{stem}", run.OUT / f"greedy-vo-{stem}"
    if pm_file.is_file() and vo_file.is_file():
        pm = json.loads(pm_file.read_text())["cells"]
        vo = json.loads(vo_file.read_text())["cells"]
        print("\nPM/VO lazy greedy (trimmed mean over passes, at reference host speed)")
        print(f"  {'cell':<24} {'pm ms':>10} {'vo ms':>10} {'vo/pm':>8}")
        for label, t_pm, t_vo, ratio in speedup_rows(pm, vo):
            print(f"  {label:<24} {1e3 * t_pm:>10.2f} {1e3 * t_vo:>10.2f} {ratio:>8.2f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
