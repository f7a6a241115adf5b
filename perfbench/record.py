"""Rewrite the benchmark's recorded files from the program at this checkout.

    python3 perfbench/record.py

- ``reference.json``: the greedy-vo lazy-greedy selections at the default
  seed and full size.  greedy-pm and greedy-vo runs with that seed compare
  their lazy selections against it.
- ``selftest_expected.json``: the exact counters of the tiny self-test runs.

Record only from a commit whose outputs are known good, and say why in the
change that rewrites them.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    import selftest
    from workloads import FULL, measure

    vo = measure("greedy-vo", selftest.SEED, 0.0, False, FULL)
    if not vo.correct or vo.failed:
        sys.exit("record: greedy-vo run failed its checks; nothing written")
    selections = {c.label: c.outcome["selection"] for c in vo.cells}
    ref = {"seed": selftest.SEED, "n": FULL.n, "selections": selections}
    run.REFERENCE.write_text(json.dumps(ref) + "\n")
    selftest.EXPECTED.write_text(json.dumps(selftest.collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE.name} and {selftest.EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
