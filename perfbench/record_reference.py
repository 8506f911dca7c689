"""Record the outputs that the analyze workloads are checked against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

For analyze-named and for analyze-random at its default seed this runs the
layer sequence on every pair, edge and vertex, and writes every exact value
and every float eigenvalue field to ``perfbench/reference/``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostclock  # noqa: E402
import workloads  # noqa: E402


def record(workload):
    workload.reference = None
    gc = workloads.load_gcurv()
    state = workload.setup(gc, full=True)
    ops = workloads.Ops(gc)
    records = workload.run(gc, state, ops)
    texts = workload.run_classify(gc, state, ops, hostclock.HostClock())[0]
    workload.check(state, records, texts, ops)
    if ops.failed:
        raise SystemExit("refusing to record failed outputs: " + "; ".join(ops.failures[:5]))
    path = workload.reference_path()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({item[0]: workloads.full_record(rec) for item, rec in zip(state, records)},
                  fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    record(workloads.AnalyzeNamed(workloads.DEFAULT_SEED))
    record(workloads.AnalyzeRandom(workloads.DEFAULT_SEED))
