"""Benchmark of the synergy_es closed loop: one command, every metric.

    python3 perfbench/run.py --workload greybox-mc --seed 1 --seconds 24 --trace 0

Runs from the root of a checkout: builds nothing, imports the package from
the checkout's ``src/``, checks the workload's reference outputs, then runs
ops of the workload back to back in this one process (a closed loop with
one client; no worker pool) for ``--seconds``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
processes), ops per second, median and 90th-percentile op time and peak
resident memory. ``--trace 1`` reports the per-layer metrics instead: a
fixed number of ops runs under the span wrappers of ``tracer.py``, then
untraced ops fill the rest of the run and give the tracing overhead.

Op times are normalized to machine speed. On a shared machine the same op
takes from 1x to 2x as long, in phases of seconds, so raw medians of
separate runs spread by about 30%. A fixed calibration loop runs before
the first op and after every op; each op's wall time is scaled by
``CAL_NOMINAL_S`` over the mean of the two calibration times around it,
which gives the time the op would take on a machine where the loop takes
exactly ``CAL_NOMINAL_S``. Raw wall times are printed too, for reference.

Every metric is printed as ``name: value unit``, then the environment, then
the last line: one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. A reference mismatch exits with code 1 and no result.
"""

import bootstrap

bootstrap.prepare()  # pins BLAS threads, so it runs before numpy loads

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import reference
import tracer
from workloads import make_workloads

SETUP_RUNS = 3
TRACE_OPS = 24  # traced ops per traced run: a count, so traced counts repeat
MIN_TIMED_OPS = 100  # ten samples beyond op_ms_p90, even past --seconds
CAL_ITERS = 1500
CAL_NOMINAL_S = 0.010
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import synergy_es
synergy_es.subject_a(), synergy_es.subject_b(), synergy_es.Personalizer()
print(time.perf_counter() - t0)
"""


def measure_setup_s():
    """Median time for a fresh process to import the package and build
    subjects A and B and the first Personalizer (interpreter start excluded)."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(bootstrap.SRC)],
                              cwd=bootstrap.ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_commit():
    """HEAD of the checkout read from .git, or a note when there is none."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "git_commit": git_commit(),
            "blas_threads": {v: os.environ[v] for v in bootstrap.BLAS_THREAD_VARS}}


def calibration_s():
    """Wall time of a fixed loop of small numpy and float operations, the
    mix the package's per-iteration code runs; the machine-speed probe."""
    x, m, acc = np.zeros(2), np.full((2, 2), 0.25), 0.0
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        x = m @ x + 1.0
        acc += float(np.clip(x[0], 0.0, 5.0))
    return time.perf_counter() - t0


def run_ops(workload, seed, min_ops, deadline=0.0, trace=None):
    """Run ops 0, 1, ... until at least min_ops ran and the deadline passed.

    Returns (normalized op times, raw op wall times, ops attempted, ops
    failed), times in seconds. An op fails when it raises or its output
    check fails; a failed op that raised has no time.
    """
    times, raw, failed, k = [], [], 0, 0
    cal_before = calibration_s()
    while k < min_ops or time.perf_counter() < deadline:
        inp = workload.inputs(seed, k)
        try:
            t0 = time.perf_counter()
            if trace is None:
                out = workload.run(inp)
            else:
                out = trace.run_op(k, workload.run, inp)
            raw.append(time.perf_counter() - t0)
            ok = workload.check(inp, out)
        except Exception:  # a failing op is counted, the run goes on
            traceback.print_exc()
            ok = False
        finally:
            workload.cleanup(inp)
        cal_after = calibration_s()
        if len(raw) > len(times):
            times.append(raw[-1] * 2 * CAL_NOMINAL_S / (cal_before + cal_after))
        cal_before = cal_after
        failed += not ok
        k += 1
    if not times:
        sys.exit(f"perfbench: all {k} ops of {workload.name} failed")
    return times, raw, k, failed


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload, seed, seconds):
    setup_s = measure_setup_s()
    run_ops(workload, seed, 1)  # warm-up: caches and lazy set-up
    gc.collect()
    times, raw, attempted, failed = run_ops(workload, seed, MIN_TIMED_OPS,
                                            time.perf_counter() + seconds)
    ms, raw_ms = 1e3 * np.asarray(times), 1e3 * np.asarray(raw)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(times) / np.sum(times), "1/s"),
        "op_ms_p50": metric(np.median(ms), "ms"),
        "op_ms_p90": metric(np.percentile(ms, 90), "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = (f"{len(times)} timed ops; raw wall op_ms_p50 "
            f"{np.median(raw_ms):.6g} ms, op_ms_p90 {np.percentile(raw_ms, 90):.6g} ms")
    return metrics, attempted, failed, note


def per_layer(workload, seed, seconds):
    start = time.perf_counter()
    run_ops(workload, seed, 1)  # warm-up: caches and lazy set-up
    spans = tracer.Tracer()
    gc.collect()
    spans.install()
    try:
        traced, _, attempted, failed = run_ops(workload, seed, TRACE_OPS,
                                               trace=spans)
    finally:
        spans.uninstall()
    gc.collect()
    times, _, more, more_failed = run_ops(workload, seed, TRACE_OPS,
                                          start + seconds)
    metrics = spans.layer_metrics(float(np.median(traced)),
                                  float(np.median(times)))
    spans.save(bootstrap.WORK / f"spans-{workload.name}.npz",
               environment=json.dumps(environment()))
    return (metrics, attempted + more, failed + more_failed,
            f"{TRACE_OPS} traced ops, {len(times)} untraced ops")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    bootstrap.WORK.mkdir(exist_ok=True)
    scratch = bootstrap.WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        workloads = make_workloads(scratch)
        args = parse_args(argv, list(workloads))
        mismatches = reference.check(reference.PARTS[args.workload])
        if mismatches:
            print("reference check failed:", *mismatches[:20], sep="\n  ",
                  file=sys.stderr)
            return 1
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, note = measure(
            workloads[args.workload], args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}: {note}, "
          f"{attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print("environment:", json.dumps(environment()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
