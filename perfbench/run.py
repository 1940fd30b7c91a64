"""The plf benchmark: one workload per invocation, in a process of its own.

    python3 perfbench/run.py --workload hilbert --seed 20260810 --seconds 25 --trace 0

Workloads: hilbert, corpus, oracle, verify (see README.md).  The arguments go
unchanged to worker.py, which runs the workload in a fresh process; this
wrapper bounds its run time and passes on its output only when the last line
is a result object.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  Run the workloads one
after another, never side by side: peak_rss_mb is a per-process high-water
mark and the timings assume an otherwise idle machine.

Exit status: 0 when every item passed its check, 1 when an item failed,
2 when the workload could not run or print a result.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def is_result(line: str) -> bool:
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def main(argv) -> int:
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv],
                              stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the workload did not finish in {TIMEOUT_S} s", file=sys.stderr)
        return 2
    lines = proc.stdout.splitlines()
    if not lines or not is_result(lines[-1]) or proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: the worker exited with {proc.returncode} without a result",
              file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
