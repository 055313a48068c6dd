"""Reference outputs, checked before any timing.

``reference.json`` holds outputs recorded from the package and the
tolerance they are compared at: floats match within ``rtol``/``atol``;
integers, booleans, ``None`` and list lengths match exactly. Each
workload checks the parts that exercise its layers (``PARTS``).

Record the file again, only after a deliberate change of results, with:

    python3 perfbench/reference.py --write
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()

from synergy_es import harness, sysid

import workloads

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
TOLERANCE = {"rtol": 1e-9, "atol": 1e-12}
SUBJECTS = ("A", "B")
CRITERION1_SEEDS = tuple(range(20))


def _floats(values):
    return [float(v) for v in values]


def _summary(summary):
    out = {}
    for key, val in summary.items():
        if isinstance(val, list):
            out[key] = [v if v is None or isinstance(v, int) else float(v)
                        for v in val]
        elif isinstance(val, (int, type(None))):
            out[key] = val
        else:
            out[key] = float(val)
    return out


def criterion1():
    """Noisy 20-seed grey-box batches on A and B: final theta-hats, summary."""
    out = {}
    for name in SUBJECTS:
        cfg = harness.ExperimentConfig(subject=name, algorithm="greybox",
                                       seeds=CRITERION1_SEEDS)
        traces = [harness.run_episode(cfg, s) for s in CRITERION1_SEEDS]
        out[name] = {
            "final_theta_hat": _floats(tr.column("theta_hat")[-1] for tr in traces),
            "summary": _summary(harness.summarize_batch(
                traces, workloads.THETA_STAR[name])),
        }
    return out


def criterion2():
    """Noise-free grey-box runs on A and B: the whole theta-hat trajectory."""
    out = {}
    for name in SUBJECTS:
        cfg = harness.ExperimentConfig(subject=name, algorithm="greybox",
                                       noise_std=0.0)
        out[name] = _floats(harness.run_episode(cfg).column("theta_hat"))
    return out


def identification():
    """Seed-0 sweeps of A and B identified at orders 2 and 3: selected
    poles, one-step MSE and the fitted map."""
    out = {}
    for name in SUBJECTS:
        cfg = harness.ExperimentConfig(subject=name, algorithm="sweep")
        trace = harness.run_episode(cfg, 0)
        thetas, perf = trace.column("theta_applied"), trace.column("J")
        for order in (2, 3):
            pref, dyn, mse, _resid, _report = sysid.identify_from_records(
                thetas, perf, order)
            # the selected poles as their monic polynomial [1, a1, .., an]
            # (the companion realization's first row is -[a1, .., an]);
            # eigenvalues of the repeated poles the grid can pick are
            # ill-conditioned, the coefficients are not
            out[f"{name}/order{order}"] = {
                "denominator": [1.0] + _floats(-dyn.phi[0]),
                "mse": float(mse),
                "map": _floats(pref.lam),
            }
    return out


def reach_grid():
    """Objective on the 81-point synergy grid without jitter."""
    reach = workloads.Reach()
    return _floats(reach.run({"thetas": workloads.REACH_GRID}))


def csv_round_trip():
    """A grey-box and a black-box trace survive write + read exactly."""
    out = {}
    os.makedirs(bootstrap.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bootstrap.WORK) as tmp:
        for algo, name in (("greybox", "A"), ("blackbox", "B")):
            trace = harness.run_episode(
                harness.ExperimentConfig(subject=name, algorithm=algo), 0)
            path = os.path.join(tmp, f"{algo}.csv")
            harness.write_trace_csv(trace, path)
            out[algo] = harness.read_trace_csv(path) == trace
    return out


COMPUTE = {"criterion1": criterion1, "criterion2": criterion2,
           "identification": identification, "reach_grid": reach_grid,
           "csv_round_trip": csv_round_trip}
PARTS = {"greybox-mc": ("criterion1", "criterion2"),
         "baseline-io": ("csv_round_trip",),
         "identify": ("identification",),
         "reach": ("reach_grid",)}


def load(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(expected, actual, tol, where="", out=None):
    """Mismatches between a recorded and a computed value, as strings."""
    out = [] if out is None else out
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            out.append(f"{where}: keys {sorted(expected)} != {sorted(actual)}")
        for key in sorted(set(expected) & set(actual)):
            compare(expected[key], actual[key], tol, f"{where}/{key}", out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{where}: length {len(expected)} != {len(actual)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            compare(e, a, tol, f"{where}[{i}]", out)
    elif isinstance(expected, float) and isinstance(actual, float):
        if not math.isclose(expected, actual, rel_tol=tol["rtol"],
                            abs_tol=tol["atol"]):
            out.append(f"{where}: expected {expected!r}, got {actual!r}")
    elif type(expected) is not type(actual) or expected != actual:
        out.append(f"{where}: expected {expected!r}, got {actual!r}")
    return out


def check(parts, ref=None):
    """Compute each part and compare it with the reference; [] when all match."""
    ref = load() if ref is None else ref
    mismatches = []
    for part in parts:
        compare(ref["values"][part], COMPUTE[part](), ref["tolerance"], part,
                mismatches)
    return mismatches


def main(argv):
    if argv != ["--write"]:
        sys.exit("usage: python3 perfbench/reference.py --write")
    ref = {"tolerance": TOLERANCE,
           "values": {part: fn() for part, fn in COMPUTE.items()}}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
