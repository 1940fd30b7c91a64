"""Run one benchmark workload in this process and print its result.

run.py starts this file in a fresh process per workload, so peak_rss_mb is
the high-water mark of that workload alone.  Output, on stdout:

* ``inputs ...``: the workload, seed, item count and a digest of the inputs;
* ``item <key> <verdict> <digest>`` for each item of the first pass, where the
  digest is that of the proof text (search), of the derived set (oracle) or of
  the proof file read (verify), all in canonical names;
* summary lines, then the result object as the last line.

The metric names and units are those of BENCHMARK.json at the checkout root:
``--trace 0`` reports its end_to_end metrics, ``--trace 1`` its per_layer
metrics, computed from spans (tracer.py) and from the program's own counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SECONDS = 1.0


def import_plf():
    package = SRC / "plf"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: plf sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import plf

    if Path(plf.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported plf from {plf.__file__}, not from {package}")
    return plf


def load(plf, texts):
    return [plf.system.load_system(text) for text in texts]


def setup(plf, wl):
    """Load the workload's systems repeatedly, for about SETUP_SECONDS and at
    least five times; the median load time is setup_s."""
    gc.collect()
    times = []
    while len(times) < 5 or sum(times) < SETUP_SECONDS:
        started = time.perf_counter()
        systems = load(plf, wl.texts)
        times.append(time.perf_counter() - started)
    return systems, statistics.median(times)


class Tally:
    """Outcomes and latencies of every item run, over all passes."""

    def __init__(self):
        self.attempted = self.failed = self.positive = self.decided = 0
        self.latencies = {}  # item key -> latency of each run
        self.walls = []

    def add(self, wl, item, judgement, latency):
        self.attempted += 1
        self.failed += not judgement.ok
        self.positive += judgement.verdict == wl.positive
        self.decided += judgement.verdict in wl.decided
        self.latencies.setdefault(item.key, []).append(latency)


def add_counts(totals, counts):
    for key, value in counts.items():
        previous = totals.get(key, 0)
        totals[key] = None if value is None or previous is None else previous + value


def run_pass(plf, wl, systems, tally, tracer=None, report=False):
    """Run every item once in a closed loop; return the summed latency and
    the program's counts, summed over the items."""
    gc.collect()
    wall = 0.0
    counts = {}
    for index, item in enumerate(wl.items):
        if tracer is not None:
            tracer.item = index
        started = time.perf_counter()
        try:
            result = wl.run(plf, systems, item)
        except Exception:  # an item that raises is a failed item; keep going
            result, error = None, traceback.format_exc(limit=4)
        else:
            error = None
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.item = None
        if error is None:
            try:
                judgement = wl.judge(plf, systems, item, result)
            except Exception:
                judgement = workloads.Judgement("error", "-", False,
                                                note=traceback.format_exc(limit=4))
        else:
            judgement = workloads.Judgement("error", "-", False, note=error)
        tally.add(wl, item, judgement, latency)
        add_counts(counts, judgement.counts)
        wall += latency
        if report:
            print(f"item {item.key} {judgement.verdict} {judgement.digest}")
        if not judgement.ok:
            print(f"perfbench: {item.key} failed: {judgement.note}", file=sys.stderr)
    tally.walls.append(wall)
    return wall, counts


def tail(latencies):
    """The highest whole percentile with at least ten values beyond it, and
    its value; the largest value when there are fewer than twenty."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return 100, ordered[-1]
    p = min(99, math.floor(100 * (n - 10) / n))
    return p, ordered[math.ceil(p / 100 * n) - 1]


def end_to_end(tally, setup_s):
    per_item = [statistics.median(runs) for runs in tally.latencies.values()]
    p, tail_s = tail(per_item)
    print(f"item_tail_s is p{p} of {len(per_item)} items (each the median of its "
          f"{len(tally.walls)} runs); failed_share {tally.failed}/{tally.attempted}; "
          "pass walls " + " ".join(f"{w:.3f}" for w in tally.walls))
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(tally.walls),
        "item_p50_s": statistics.median(per_item),
        "item_tail_s": tail_s,
        "proved_share": tally.positive / tally.attempted,
        "decided_share": tally.decided / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def sloc():
    """Physical lines per file of src/plf, as wc -l counts them."""
    out = {}
    for path in sorted((SRC / "plf").glob("*.py")):
        out[f"{path.stem.strip('_')}.sloc"] = len(path.read_text(encoding="utf-8").splitlines())
    out["plf.sloc"] = sum(out.values())
    return out


def per_layer(tracer, counts, overhead_s):
    values = dict(counts)
    for name, total in tracer.totals().items():
        if name not in tracer.installed:
            continue
        values[f"{name}.calls"] = total["calls"]
        values[f"{name}.s"] = total["s"]
        values[f"{name}.self_s"] = total["self_s"]
        values[f"{name}.amount"] = total["amount"]
    if "grammar.parse_any_kind.s" in values:
        seconds = values["grammar.parse_any_kind.s"]
        amount = values["grammar.parse_any_kind.amount"]
        values["grammar.parse_any_kind.tokens_per_s"] = amount / seconds if seconds else 0.0
    values["proof.serialize_proof.bytes"] = values.get("proof.serialize_proof.amount")
    tested = values.get("search.tuples_tested", 0)
    unified = values.get("search.tuples_unified", 0)
    if tested is None or unified is None:
        values["search.unify_ratio"] = None
    else:
        values["search.unify_ratio"] = unified / tested if tested else 0.0
    values["trace.overhead_s"] = overhead_s
    values.update(sloc())
    selfs = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    top = max(selfs, key=selfs.get)
    print(f"trace: top self time {top} {selfs[top]:.4f} s of "
          f"{sum(selfs.values()):.4f} s traced self time")
    if tracer.absent:
        print("trace: absent boundaries " + " ".join(tracer.absent))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.CORPUS_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    plf = import_plf()
    wl = workloads.WORKLOADS[args.workload](plf, args.seed)
    print(f"inputs {wl.name} seed={args.seed} items={len(wl.items)} "
          f"sha256={wl.inputs_digest()}")
    systems, setup_s = setup(plf, wl)
    passes = max(1, int(args.seconds / wl.pass_seconds))
    tally = Tally()

    if not args.trace:
        for n in range(passes):
            run_pass(plf, wl, systems, tally, report=n == 0)
        values = end_to_end(tally, setup_s)
        wanted = spec["end_to_end"]
    else:
        for n in range(max(1, passes // 2)):
            run_pass(plf, wl, systems, tally, report=n == 0)
        untraced = statistics.median(tally.walls)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.item = -1  # the traced set-up
            systems = load(plf, wl.texts)
            tracer.item = None
            traced, counts = run_pass(plf, wl, systems, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        values = per_layer(tracer, counts, traced - untraced)
        tracer.write(OUT / f"{wl.name}.spans.csv.gz")
        wanted = spec["per_layer"]

    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"], 0)  # 0: nothing of the kind ran
        if value is None:
            print(f"perfbench: {metric['name']} absent on this workload")
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
