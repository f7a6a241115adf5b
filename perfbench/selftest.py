"""Fast self-test of the benchmark itself; it never asserts on time.

    python3 perfbench/selftest.py

Runs a tiny version of every workload, untraced and traced, and checks the
result line's keys and types, that the metric names and units match
``BENCHMARK.json``, that every output check
passes, that the trace accounts for every call the exact ``EvalCounters``
saw, and that the counters equal those recorded in
``selftest_expected.json`` (rewritten by ``perfbench/record.py``).
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import sys

import run

EXPECTED = run.HERE / "selftest_expected.json"
SEED = 0
EXACT_PREFIXES = ("counters.", "core.", "oracle.calls", "oracle.elems", "mnp.")


def collect() -> dict:
    """Per workload: per-cell counters and the exact per-layer counts of the tiny runs."""
    from workloads import WORKLOADS, Size, cell_records, measure

    tiny = Size(n=60, mnp_n=24)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out = {}
    for workload in WORKLOADS:
        plain = measure(workload, SEED, 0.0, False, tiny)
        traced = measure(workload, SEED, 0.0, True, tiny)
        for r, section in ((plain, "end_to_end"), (traced, "per_layer")):
            line = json.loads(json.dumps(run.result(r)))
            _expect(set(line) == {"correct", "attempted", "failed", "metrics"}
                    and all(isinstance(line[k], int) for k in ("attempted", "failed"))
                    and line["attempted"] >= 1, f"{workload}: malformed result line")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            _expect(got == want, f"{workload}: {section} metrics {got} != BENCHMARK.json {want}")
            _expect(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                    f"{workload}: non-numeric metric value")
            _expect(r.correct and r.failed == 0, f"{workload}: checks failed: "
                    + "; ".join(f for c in cell_records(r) for f in c["failures"]) + "; ".join(r.trace_errors))
        cells = {c["label"]: _exact(c) for c in cell_records(plain)}
        _expect(cells == {c["label"]: _exact(c) for c in cell_records(traced)},
                f"{workload}: traced and untraced runs disagree")
        layer = {k: v for k, v in traced.metrics.items() if k.startswith(EXACT_PREFIXES)}
        layer.pop("core.self_s")
        layer.pop("core.ns_per_call")
        if workload.endswith("-pm"):
            _expect(layer["oracle.calls"] == 0, f"{workload}: PM run made oracle calls")
        else:
            _expect(layer["counters.gain_evals"] == 0, f"{workload}: VO run made statistic gains")
        out[workload] = {"cells": cells, "per_layer": layer}
    return out


def _exact(cell: dict) -> dict:
    return {k: cell[k] for k in ("counters", "selection", "recomputes", "major_cycles") if k in cell}


def _expect(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {message}")


def main() -> int:
    run.import_program()
    got = collect()
    want = json.loads(EXPECTED.read_text())
    for workload, expected in want.items():
        _expect(got.get(workload) == expected, f"{workload}: exact counters differ from {EXPECTED.name}")
    _expect(set(got) == set(want), "workload list differs from the recorded one")
    print("selftest passed:", ", ".join(sorted(got)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
