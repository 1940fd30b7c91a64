"""Print the deterministic work counts of one traced benchmark run.

    python3 perfbench/run.py --workload hilbert --seconds 1 --trace 1 \\
        | python3 tests/bench_work.py > tests/data/bench_work_hilbert.txt

Reads the run's output on stdin and prints, sorted by name, one
``<metric> <value>`` line per per-layer metric whose unit is ``count``: the
call counts of the traced boundaries (``*.calls``) and the program's own
``search.*`` and ``oracle.*`` counts.  Timings are left out, so the lines
depend only on the work done, and CI diffs them against the recorded
``tests/data/bench_work_<workload>.txt``.  Re-record a file only when the
work is meant to change, and say how it changed.
"""

from __future__ import annotations

import json
import sys


def work_lines(result: dict) -> list:
    metrics = result["metrics"]
    return [f"{name} {m['value']}" for name, m in sorted(metrics.items()) if m["unit"] == "count"]


def main() -> int:
    lines = sys.stdin.read().splitlines()
    if not lines:
        sys.exit("bench_work: no benchmark output on stdin")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("bench_work: the run failed its correctness gate")
    print("\n".join(work_lines(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
