"""gcurv benchmark: one workload per process, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-named --seed 1 --seconds 35 --trace 0

A run imports gcurv from ``src/`` and repeats passes of its workload, each on
freshly built graphs, for about ``--seconds`` seconds (at least one pass, or
one untraced plus one traced pass with ``--trace 1``).  Timings are medians
over passes, in reference seconds: ``hostclock.HostClock`` probes the host's
speed all through the run and every timed region is rescaled by the speed
measured while it ran, so bursts of load from other tenants of a shared host
cancel out.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics, taken
from traced passes that alternate with untraced ones so the tracing overhead
can be measured.  Every pass checks its outputs; ``failed`` counts wrong or
crashed operations.  ``--tiny`` shrinks every workload for smoke tests.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXTRA_SETUPS = 16


def timed_setup(workload, clock, tracer=None):
    """Import gcurv (and trace it) and set the workload up.

    Returns (gcurv modules, state, clock region).
    """
    gc.collect()
    begin = clock.mark()
    gcurv = workloads.load_gcurv()
    if tracer is not None:
        tracer.install(gcurv)
    state = workload.setup(gcurv)
    return gcurv, state, clock.region(begin, clock.mark())


def one_pass(workload, clock, tracer):
    """Set up, run and check one pass; returns its clock regions and ops."""
    start = perf_counter()
    try:
        gcurv, state, setup = timed_setup(workload, clock, tracer)
        ops = workloads.Ops(gcurv)
        begin = clock.mark()
        result = workload.run(gcurv, state, ops, tracer)
        wall = clock.region(begin, clock.mark())
        texts, classify = workload.run_classify(gcurv, state, ops, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.check(state, result, texts, ops)
    return {"setup": setup, "wall": wall, "classify": classify, "ops": ops,
            "elapsed": perf_counter() - start}


def layer_metrics(tracer, workload):
    checks = getattr(workload, "checks", None) or []
    tracer.counts["verify.checks_run"] = len(checks)
    tracer.counts["verify.checks_failed"] = sum(1 for c in checks if not c["passed"])
    return tracer.summary()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gcurv", "__init__.py")):
        print(f"perfbench: no gcurv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    clock = hostclock.HostClock()
    clock.start()
    try:
        setups = [timed_setup(workload, clock)[2] for _ in range(EXTRA_SETUPS)]
        plain, traced, layers = [], [], []
        start = perf_counter()
        while True:
            tracer = (tracing.Tracer(clock.work_time)
                      if args.trace and len(plain) > len(traced) else None)
            result = one_pass(workload, clock, tracer)
            if tracer is None:
                plain.append(result)
                setups.append(result["setup"])
            else:
                traced.append(result)
                layers.append((layer_metrics(tracer, workload), result))
                last_tracer = tracer
            done = plain and (traced or not args.trace)
            longest = max(r["elapsed"] for r in plain + traced)
            if done and perf_counter() - start + longest > args.seconds:
                break
    finally:
        clock.stop()

    # every time below is in reference seconds (see hostclock.py)
    for r in plain + traced:
        r["wall_s"] = clock.seconds(r["wall"])
        r["classify_s"] = statistics.median(clock.seconds(c) for c in r["classify"])
    setup_s = [clock.seconds(region) for region in setups]
    probes = [seconds for _, seconds in clock.probes]

    attempted = sum(r["ops"].attempted for r in plain + traced)
    failed = sum(r["ops"].failed for r in plain + traced)
    for r in plain + traced:
        for message in r["ops"].failures[:10]:
            print(f"FAILED: {message}")

    def med(key, runs):
        return statistics.median(r[key] for r in runs)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes")
    print("  setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_s))
    for key in ("wall_s", "classify_s"):
        print(f"  {key} samples: " + " ".join(f"{r[key]:.4f}" for r in plain))
    print("  raw wall seconds: " + " ".join(f"{r['wall'][0]:.4f}" for r in plain))
    print(f"  host.calib_s {statistics.fmean(probes):.6f} s (mean of {len(probes)} probes; "
          f"median {statistics.median(probes):.6f}, max {max(probes):.6f})")
    print(f"  error_rate {failed / attempted:.6f} ({failed} failed of {attempted} operations)")

    if args.trace:
        exact = [{k: m[k] for k in tracing.COUNT_METRICS} for m, _ in layers]
        if any(c != exact[0] for c in exact):
            print("FAILED: work counts differ between traced passes of one seed")
            failed += 1
        for m, r in layers:
            # rescale span times by the host speed over their whole pass
            scale = clock.scale((None, r["setup"][1], r["classify"][-1][2]))
            for name in m:
                if tracing.unit_of(name) == "s":
                    m[name] *= scale
        metrics = {}
        for name in layers[0][0]:
            unit = tracing.unit_of(name)
            value = (statistics.median(m[name] for m, _ in layers) if unit == "s"
                     else layers[0][0][name])
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": med("wall_s", traced) / med("wall_s", plain) - 1, "unit": "ratio"}
        metrics["host.calib_s"] = {"value": statistics.fmean(probes), "unit": "s"}
        os.makedirs(workloads.WORK_DIR, exist_ok=True)
        last_tracer.write(os.path.join(
            workloads.WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "wall_s": {"value": med("wall_s", plain), "unit": "s"},
            "classify_s": {"value": med("classify_s", plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
