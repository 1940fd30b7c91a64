"""Record the oracle workload's known answers in data/oracle_known.json.

    python3 perfbench/record_oracle.py

The digests are of the canonical derived sets, so they do not depend on
--seed.  Run this only when the oracle workload's inputs change, never to make
a failing check pass: the oracle is the ground truth the checks rely on.
"""

from __future__ import annotations

import json

import workloads
from worker import import_plf, load


def main():
    plf = import_plf()
    wl = workloads.oracle(plf, workloads.CORPUS_SEED, known={})
    systems = load(plf, wl.texts)
    known = {item.key: wl.judge(plf, systems, item, wl.run(plf, systems, item)).digest
             for item in wl.items}
    path = workloads.DATA / "oracle_known.json"
    path.write_text(json.dumps(known, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(known)} digests in {path}")


if __name__ == "__main__":
    main()
