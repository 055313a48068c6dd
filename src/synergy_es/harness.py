"""Experiment orchestration: episodes, sweeps, Monte Carlo batches, traces.

Traces are UTF-8 CSV with a header row; run metadata travels in leading
'# key: value' comment lines so a trace file round-trips losslessly.
"""

import csv
import hashlib
import json
import math
import os
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from . import baseline
from .baseline import BlackBoxEs
from .personalizer import Personalizer, PersonalizerConfig, StepRecord
from .subject import load_subject, subject_a, subject_b
from .svgplot import line_plot

TRACE_COLUMNS = [f.name for f in fields(StepRecord)]
ALGORITHMS = ("greybox", "blackbox", "sweep", "fixed")

SWEEP_START = 0.8
SWEEP_SLOPE = 1.0 / 125.0
SWEEP_ITERATIONS = 201  # theta reaches 2.4 at i = 200

CONVERGENCE_TOL = 0.1
CONVERGENCE_HOLD = 25


@dataclass
class EpisodeTrace:
    rows: list  # one StepRecord per iteration
    metadata: dict  # config_hash, seed, subject_id, algorithm

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if row.iteration != i:
                raise ValueError("trace iterations must be contiguous from 0")

    def column(self, name):
        if name == "branch":
            return [r.branch for r in self.rows]
        return np.array([getattr(r, name) for r in self.rows], dtype=float)

    def __eq__(self, other):
        """Row-by-row equality in which NaN equals NaN."""
        if not isinstance(other, EpisodeTrace):
            return NotImplemented
        if self.metadata != other.metadata or len(self.rows) != len(other.rows):
            return False
        for a, b in zip(self.rows, other.rows):
            for key in TRACE_COLUMNS:
                va, vb = getattr(a, key), getattr(b, key)
                if va != vb and not (va != va and vb != vb):  # NaN != NaN
                    return False
        return True


@dataclass
class ExperimentConfig:
    subject: str = "A"  # "A", "B", or a subject-config path
    algorithm: str = "greybox"  # one of ALGORITHMS
    iterations: int = 150
    seeds: tuple = (0,)
    output_dir: str = "."
    noise_std: float = None  # None keeps the subject's own noise level
    fixed_theta: float = 1.0
    personalizer: PersonalizerConfig = field(default_factory=PersonalizerConfig)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "greybox" and \
                self.iterations < self.personalizer.warmup_iterations:
            raise ValueError("iteration count must cover the warmup period")
        if self.iterations < 1:
            raise ValueError("iteration count must be >= 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.noise_std is not None and not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std {self.noise_std} must be finite and >= 0")
        if not math.isfinite(self.fixed_theta):
            raise ValueError(f"fixed_theta {self.fixed_theta} must be finite")

    def config_hash(self):
        p = self.personalizer
        blob = json.dumps({
            "subject": self.subject,
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "noise_std": self.noise_std,
            "fixed_theta": self.fixed_theta,
            "personalizer": p.as_dict(),
            # the settings the black-box loop runs with
            "baseline": {"omega_o": p.omega_o, "dither_amplitude": p.dither_amplitude,
                         "gain": baseline.GAIN, "bounds": p.bounds, "theta_0": p.theta_0,
                         "highpass_cutoff_ratio": baseline.HIGHPASS_CUTOFF_RATIO},
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def make_subject(subject, seed, noise_std=None):
    if subject == "A":
        subj = subject_a(seed)
    elif subject == "B":
        subj = subject_b(seed)
    else:
        subj = load_subject(subject)
        subj.reset(seed)
    if noise_std is not None:
        subj.noise.std = noise_std
        subj.reset(seed)
    return subj


def run_episode(config, seed=None):
    """One episode; returns its trace (deterministic per seed).

    greybox and blackbox close the loop through their controller; sweep
    (theta_i = 0.8 + i/125, i = 0..200) and fixed apply an open-loop
    synergy schedule and record no filter output, estimates or branch.
    """
    seed = config.seeds[0] if seed is None else seed
    subject = make_subject(config.subject, seed, config.noise_std)
    algo = config.algorithm
    if algo in ("greybox", "blackbox"):
        loop = (Personalizer if algo == "greybox" else BlackBoxEs)(config.personalizer)
        theta = loop.applied_theta()
        for _ in range(config.iterations):
            theta = loop.step(subject.step(theta))
        rows = loop.records
    else:
        if algo == "sweep":
            thetas = [SWEEP_START + SWEEP_SLOPE * i for i in range(SWEEP_ITERATIONS)]
        else:
            thetas = [config.fixed_theta] * config.iterations
        rows = [StepRecord(i, th, th, subject.step(th), 0.0, 0.0, 0.0, "")
                for i, th in enumerate(thetas)]
    meta = {"config_hash": config.config_hash(), "seed": seed,
            "subject_id": subject.subject_id, "algorithm": algo}
    return EpisodeTrace(rows, meta)


def convergence_iteration(theta_hats, theta_star):
    """First iteration i from which |theta_hat - theta*| < CONVERGENCE_TOL
    holds for CONVERGENCE_HOLD consecutive iterations; None when never
    reached."""
    ok = np.abs(np.asarray(theta_hats, dtype=float) - theta_star) < CONVERGENCE_TOL
    # held[i] = number of ok iterations in the window i .. i + HOLD - 1
    counts = np.concatenate(([0], np.cumsum(ok)))
    held = counts[CONVERGENCE_HOLD:] - counts[:-CONVERGENCE_HOLD]
    hits = np.flatnonzero(held == CONVERGENCE_HOLD)
    return int(hits[0]) if hits.size else None


def _format_float(v):
    v = float(v)
    return repr(v) if math.isfinite(v) else ""  # empty for n/a


def _parse_float(text):
    return float(text) if text != "" else float("nan")


# per trace column, by StepRecord field type: cell formatter and parser
_FORMAT = [{int: int, float: _format_float, str: str}[f.type]
           for f in fields(StepRecord)]
_PARSE = [{int: int, float: _parse_float, str: str}[f.type]
          for f in fields(StepRecord)]


def write_trace_csv(trace, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in ("config_hash", "seed", "subject_id", "algorithm"):
            fh.write(f"# {key}: {trace.metadata[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows([fmt(getattr(r, k)) for k, fmt in zip(TRACE_COLUMNS, _FORMAT)]
                         for r in trace.rows)


def read_trace_csv(path):
    metadata = {}
    body = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                metadata[key.strip()] = val.strip()
            else:
                body.append(line)
    reader = csv.reader(body)
    header = next(reader, None)
    if header != TRACE_COLUMNS:
        raise ValueError(f"{path}: trace header {header} is not {TRACE_COLUMNS}")
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}: trace row {row} has {len(row)} cells, "
                             f"expected {len(TRACE_COLUMNS)}")
        rows.append(StepRecord(*[parse(cell) for parse, cell in zip(_PARSE, row)]))
    if not rows:
        raise ValueError(f"{path}: trace has no rows")
    if "seed" in metadata:
        metadata["seed"] = int(metadata["seed"])
    return EpisodeTrace(rows, metadata)


def summarize_batch(traces, theta_star):
    """Pure aggregation of per-seed traces into batch statistics."""
    convs, finals = [], []
    for tr in traces:
        hats = tr.column("theta_hat")
        conv = convergence_iteration(hats, theta_star)
        convs.append(conv)
        finals.append(float(np.median(hats[-CONVERGENCE_HOLD:])))
    reached = [c for c in convs if c is not None]
    # non-converged seeds rank above every converged one for the median
    ranked = [np.inf if c is None else c for c in convs]
    med = float(np.median(ranked)) if ranked else None
    summary = {
        "episodes": len(traces),
        "converged": len(reached),
        "median_convergence_iteration": None if med is None or np.isinf(med) else med,
        "iqr_convergence":
            (float(np.percentile(reached, 75) - np.percentile(reached, 25))
             if len(reached) >= 2 else None),
        "median_final_theta": float(np.median(finals)),
        "per_seed_convergence": convs,
        "per_seed_final_theta": finals,
    }
    return summary


def run_batch(config, theta_star=None):
    """Per-seed episodes + aggregation + summary CSV + SVG plots.

    The first failing seed aborts the batch; summary["failures"] records its
    seed, exception type name, message and formatted traceback.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    traces = []
    failures = []
    for seed in config.seeds:
        try:
            tr = run_episode(config, seed)
        except Exception as exc:  # partial results flagged, batch aborted
            failures.append({"seed": seed, "type": type(exc).__name__,
                             "message": str(exc),
                             "traceback": traceback.format_exc()})
            break
        traces.append(tr)
        write_trace_csv(tr, os.path.join(
            config.output_dir,
            f"trace_{config.algorithm}_{tr.metadata['subject_id']}_s{seed}.csv"))
    if theta_star is None and traces:
        probe = make_subject(config.subject, config.seeds[0], config.noise_std)
        theta_star = probe.optimum()
    summary = summarize_batch(traces, theta_star) if traces else {}
    summary["theta_star"] = theta_star
    summary["aborted"] = bool(failures)
    if failures:
        summary["failures"] = failures

    spath = os.path.join(config.output_dir, f"summary_{config.algorithm}.csv")
    with open(spath, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "convergence_iteration", "final_theta_median"])
        for seed, conv, fin in zip(config.seeds,
                                   summary.get("per_seed_convergence", []),
                                   summary.get("per_seed_final_theta", [])):
            writer.writerow([seed, "" if conv is None else conv, repr(fin)])

    if traces:
        iters = traces[0].column("iteration")
        line_plot(os.path.join(config.output_dir,
                               f"theta_{config.algorithm}.svg"),
                  [(f"seed {t.metadata['seed']}", iters, t.column("theta_hat"))
                   for t in traces[:10]],
                  title="synergy estimate across iterations",
                  xlabel="iteration", ylabel="theta_hat")
        line_plot(os.path.join(config.output_dir,
                               f"performance_{config.algorithm}.svg"),
                  [(f"seed {t.metadata['seed']}", iters, t.column("J"))
                   for t in traces[:10]],
                  title="performance across iterations",
                  xlabel="iteration", ylabel="J")
    return summary, traces


def compare_traces(traces_a, traces_b, theta_star, tol=CONVERGENCE_TOL):
    """Differential success report: final theta within tolerance at the end."""
    def successes(traces):
        wins = 0
        for tr in traces:
            hats = tr.column("theta_hat")
            if abs(hats[-1] - theta_star) < tol:
                wins += 1
        return wins

    sa, sb = successes(traces_a), successes(traces_b)
    return {
        "set_a_success": sa, "set_a_total": len(traces_a),
        "set_b_success": sb, "set_b_total": len(traces_b),
        "a_minus_b": sa - sb,
    }
