"""Smoke tests of the benchmark itself (not part of the Tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_tracer_restores_every_binding():
    gc = workloads.load_gcurv()
    before = dict(vars(gc.ollivier))
    dist_rows = gc.graphs.Graph.__dict__["dist_rows"]
    workload = workloads.AnalyzeNamed(seed=1, tiny=True)
    tracer = tracing.Tracer()
    tracer.install(gc)
    assert tracing.wrapped_names()
    state = workload.setup(gc)
    workload.run(gc, state, workloads.Ops(gc))
    tracer.uninstall()
    assert tracing.wrapped_names() == []
    assert dict(vars(gc.ollivier)) == before
    assert gc.graphs.Graph.__dict__["dist_rows"] is dist_rows
    assert tracer.summary()["ollivier.edge_lp_solves"] > 0


def test_untraced_pass_after_traced_pass_records_no_spans():
    workload = workloads.AnalyzeNamed(seed=1, tiny=True)
    clock = hostclock.HostClock()
    tracer = tracing.Tracer()
    run.one_pass(workload, clock, tracer)
    spans = len(tracer.spans)
    result = run.one_pass(workload, clock, None)
    assert len(tracer.spans) == spans
    assert result["ops"].failed == 0
    assert tracing.wrapped_names() == []


def test_reference_check_reports_a_changed_value():
    ref = {"n": 3, "m": 2, "diam_eff": "8/9", "kappa_min": ["1", True, [0, 1], None],
           "reflective": [False, [0, 1]], "orbit": None, "factors": [[3, [[0, 1], [1, 2]]]],
           "laplacian": [0.0, 1.0, 3.0], "adjacency": [1.4142135, 0.0, -1.4142135],
           "distance_regular": None, "kappa": ["1", "1/2", "1"], "be": [0.5, 1.0, 0.5],
           "classify": json.dumps({"lambda": 1.0, "n": 3})}
    rec = dict(ref, kappa={"1": "1/2"}, be={"0": 0.5 + 1e-9},
               laplacian=[0.0, 1.0 + 1e-9, 3.0])
    assert workloads.check_record(rec, ref) == []
    assert workloads.check_record(dict(rec, kappa={"1": "1/3"}), ref) == ["kappa[1]"]
    assert workloads.check_record(dict(rec, laplacian=[0.0, 1.001, 3.0]), ref) == ["laplacian"]
    changed = dict(rec, classify=json.dumps({"lambda": 1.0, "n": 4}))
    assert workloads.check_record(changed, ref) == ["classify"]


def test_host_clock_leaves_probe_time_out_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock()
    clock.start()
    begin = clock.mark()
    deadline = perf_counter() + 0.3
    while perf_counter() < deadline:
        pass
    end = clock.mark()
    clock.stop()
    region = clock.region(begin, end)
    assert len(clock.probes) >= 5
    assert region[0] == pytest.approx((end[0] - begin[0]) - (end[1] - begin[1]))
    assert region[0] < end[0] - begin[0]
    assert clock.seconds(region) > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
