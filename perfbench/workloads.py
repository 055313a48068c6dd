"""The four benchmark workloads: inputs from a seed, one op, its output check.

Every op calls the package through its submodules (``harness.run_episode``,
``sysid.identify_from_records``, ``plant.simulate_reach``, ...), never through
the names re-exported by ``synergy_es/__init__``, so the traced run's
wrappers (see ``tracer.py``) see every call.

Inputs depend only on (workload seed, op index): op k draws from
``np.random.default_rng([seed, k])``. The package receives only the drawn
episode seeds, sweep seeds and synergy values.
"""

import math
import os
import shutil
import tempfile

import numpy as np

from synergy_es import harness, plant, subject, sysid

GREYBOX_SEEDS = 20
GREYBOX_ITERATIONS = 150
BASELINE_SEEDS = 10
REACH_GRID = 0.8 + 0.02 * np.arange(81)  # 0.8 .. 2.4 in steps of 0.02
REACH_JITTER = 0.01
OBJECTIVE_MAX = 200.04  # two saturated terms, each at most 100.02
THETA_BOUNDS = subject.THETA_BOUNDS
UNITY_GAIN_TOL = 1e-9

THETA_STAR = {"A": subject.subject_a().optimum(),
              "B": subject.subject_b().optimum()}


def _rng(seed, k):
    return np.random.default_rng([seed, k])


def _episode_seeds(rng, n):
    return tuple(int(s) for s in rng.choice(2 ** 31, size=n, replace=False))


class Workload:
    """One workload: ``inputs`` draws an op's inputs, ``run`` is the timed
    op, ``check`` validates its output and ``cleanup`` frees what it left."""

    def cleanup(self, inp):
        pass


def _hats_ok(trace, length):
    hats = trace.column("theta_hat")
    return (len(trace.rows) == length and bool(np.all(np.isfinite(hats)))
            and bool(np.all((hats >= THETA_BOUNDS[0]) & (hats <= THETA_BOUNDS[1]))))


class GreyboxMc(Workload):
    """Criterion-1 Monte Carlo: one 20-seed grey-box batch per op."""

    name = "greybox-mc"
    op = ("a 20-seed batch of 150-iteration grey-box episodes on one subject "
          "(A for even ops, B for odd), at the identified noise levels, "
          "then summarize_batch")
    size = "20 episodes x 150 iterations"

    def inputs(self, seed, k):
        return {"subject": "AB"[k % 2],
                "seeds": _episode_seeds(_rng(seed, k), GREYBOX_SEEDS)}

    def run(self, inp):
        cfg = harness.ExperimentConfig(subject=inp["subject"], algorithm="greybox",
                                       iterations=GREYBOX_ITERATIONS,
                                       seeds=inp["seeds"])
        traces = [harness.run_episode(cfg, s) for s in inp["seeds"]]
        summary = harness.summarize_batch(traces, THETA_STAR[inp["subject"]])
        return traces, summary

    def check(self, inp, out):
        traces, summary = out
        finals = summary["per_seed_final_theta"]
        return (len(traces) == GREYBOX_SEEDS
                and summary["episodes"] == GREYBOX_SEEDS
                and all(_hats_ok(tr, GREYBOX_ITERATIONS) for tr in traces)
                and all(THETA_BOUNDS[0] <= f <= THETA_BOUNDS[1] for f in finals)
                and math.isfinite(summary["median_final_theta"]))


class BaselineIo(Workload):
    """Black-box run_batch to disk, then every trace read back and scored."""

    name = "baseline-io"
    op = ("a 10-seed black-box run_batch on subject B into a fresh directory "
          "(trace CSVs, summary CSV, two SVGs), then read_trace_csv of every "
          "trace and compare_traces against theta*")
    size = "10 episodes x 150 iterations, 13 files written, 10 read"

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def inputs(self, seed, k):
        out_dir = tempfile.mkdtemp(prefix="baseline-io-", dir=self.work_dir)
        return {"seeds": _episode_seeds(_rng(seed, k), BASELINE_SEEDS),
                "output_dir": out_dir}

    def run(self, inp):
        cfg = harness.ExperimentConfig(subject="B", algorithm="blackbox",
                                       seeds=inp["seeds"],
                                       output_dir=inp["output_dir"])
        summary, traces = harness.run_batch(cfg, THETA_STAR["B"])
        back = [harness.read_trace_csv(os.path.join(
                    inp["output_dir"], f"trace_blackbox_B_s{s}.csv"))
                for s in inp["seeds"]]
        report = harness.compare_traces(back, traces, THETA_STAR["B"])
        return summary, traces, back, report

    def check(self, inp, out):
        summary, traces, back, report = out
        files = set(os.listdir(inp["output_dir"]))
        return (not summary["aborted"]
                and len(traces) == BASELINE_SEEDS
                and back == traces
                and report["set_a_total"] == report["set_b_total"] == BASELINE_SEEDS
                and report["a_minus_b"] == 0
                and all(_hats_ok(tr, GREYBOX_ITERATIONS) for tr in traces)
                and {"summary_blackbox.csv", "theta_blackbox.svg",
                     "performance_blackbox.svg"} <= files)

    def cleanup(self, inp):
        shutil.rmtree(inp["output_dir"], ignore_errors=True)


class Identify(Workload):
    """Noisy sweep plus order-2 and order-3 identification."""

    name = "identify"
    op = ("a 201-iteration noisy sweep of subject A (even ops) or B (odd), "
          "then identify_from_records at order 2 and at order 3")
    size = "201 samples, 2 pole-grid searches (order 3 runs order 2 inside)"

    def inputs(self, seed, k):
        return {"subject": "AB"[k % 2],
                "seed": int(_rng(seed, k).integers(2 ** 31))}

    def run(self, inp):
        cfg = harness.ExperimentConfig(subject=inp["subject"], algorithm="sweep")
        trace = harness.run_episode(cfg, inp["seed"])
        thetas, perf = trace.column("theta_applied"), trace.column("J")
        fits = [sysid.identify_from_records(thetas, perf, order)
                for order in (2, 3)]
        return trace, fits

    def check(self, inp, out):
        trace, fits = out
        ok = len(trace.rows) == harness.SWEEP_ITERATIONS
        for _pref, dyn, mse, resid, report in fits:
            ok = ok and (abs(dyn.steady_state_gain() - 1.0) <= UNITY_GAIN_TOL
                         and dyn.is_stable() and math.isfinite(mse) and mse > 0
                         and resid.size == harness.SWEEP_ITERATIONS
                         and report is not None)
        # the order-3 search embeds the best order-2 poles (sysid docstring)
        return ok and fits[1][2] <= fits[0][2]


class Reach(Workload):
    """81-point plant sweep: simulate_reach + objective per synergy value."""

    name = "reach"
    op = ("81 synergy values 0.8..2.4 in steps of 0.02, all shifted by one "
          "seed-drawn jitter in [0, 0.01); simulate_reach + objective each")
    size = "81 reaches x 271 samples"

    def __init__(self):
        self.geom = plant.default_geometry()
        self.profile = plant.default_profile()
        self.task = plant.default_task(self.geom, self.profile)

    def inputs(self, seed, k):
        return {"thetas": REACH_GRID + _rng(seed, k).uniform(0.0, REACH_JITTER)}

    def run(self, inp):
        return [plant.objective(plant.simulate_reach(self.geom, self.task, th,
                                                     self.profile))
                for th in inp["thetas"]]

    def check(self, inp, out):
        return (len(out) == len(inp["thetas"])
                and all(0.0 < j <= OBJECTIVE_MAX for j in out))


def make_workloads(work_dir):
    """All workloads by name; baseline-io writes its files under work_dir."""
    return {w.name: w for w in (GreyboxMc(), BaselineIo(work_dir), Identify(),
                                Reach())}
