"""Experiment orchestration: episodes, sweeps, Monte Carlo batches, traces.

A trace is held as columns, as the ES loops build it (the personalizer
docstring says why). Traces are UTF-8 CSV with a header row; run metadata
travels in leading '# key: value' lines so a trace file round-trips losslessly.
Cells are formatted and parsed a column at a time; a float column tests
each cell for n/a only when it mixes n/a and finite values.
"""

import csv
import hashlib
import json
import math
import operator
import os
import traceback
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import baseline
from .baseline import BlackBoxEs
from .config import check_fields, open_text, parsed
from .personalizer import (DEFAULT_CONFIG, Personalizer, PersonalizerConfig,
                           StepRecord)
from .subject import MotorNoise, load_subject, subject_a, subject_b
from .svgplot import line_plot

TRACE_COLUMNS = list(StepRecord._fields)
ALGORITHMS = ("greybox", "blackbox", "sweep", "fixed")

SWEEP_START = 0.8
SWEEP_SLOPE = 1.0 / 125.0
SWEEP_ITERATIONS = 201  # theta reaches 2.4 at i = 200

CONVERGENCE_TOL = 0.1
CONVERGENCE_HOLD = 25


def check_subject(subject):
    """subject, when it is A, B or the path of a file; else a ValueError."""
    if subject in ("A", "B") or isinstance(subject, str) and os.path.isfile(subject):
        return subject
    raise ValueError(f"{subject!r} is neither A, B nor a subject file")


def check_algorithm(algorithm):
    """algorithm, when it is one of ALGORITHMS; else a ValueError."""
    if algorithm in ALGORITHMS:
        return algorithm
    raise ValueError(f"unknown algorithm {algorithm!r}")


class EpisodeTrace:
    """One episode: columns, a StepRecord whose fields each hold one list
    (the field's value per iteration), copied from the one sequence per field
    it is built from, and metadata (config_hash, seed, subject_id, algorithm)."""

    def __init__(self, columns, metadata):
        if len(columns) != len(TRACE_COLUMNS):
            raise ValueError(f"trace has {len(columns)} columns, "
                             f"expected {len(TRACE_COLUMNS)}")
        columns = StepRecord._make(map(list, columns))
        n = len(columns.iteration)
        for name, values in zip(TRACE_COLUMNS, columns):
            if len(values) != n:
                raise ValueError(f"trace column {name} has {len(values)} values, "
                                 f"iteration has {n}")
        if columns.iteration != list(range(n)):
            raise ValueError("trace iterations must be contiguous from 0")
        self.columns, self.metadata = columns, metadata

    @property
    def rows(self):
        """One StepRecord per iteration, built on each access. Kept only for the
        benchmark's len(trace.rows). ROADMAP item 9a ends that; item 16 then drops it."""
        return list(map(StepRecord._make, zip(*self.columns)))

    def column(self, name):
        values = getattr(self.columns, name)
        if name == "branch":
            return list(values)
        return np.array(values, float)

    def __eq__(self, other):
        """Equal metadata and columns, in which NaN equals NaN."""
        if not isinstance(other, EpisodeTrace):
            return NotImplemented
        if self.metadata != other.metadata or \
                len(self.columns.iteration) != len(other.columns.iteration):
            return False
        return all(
            ours == theirs or all(a == b or (a != a and b != b)  # NaN != NaN
                                  for a, b in zip(ours, theirs))
            for ours, theirs in zip(self.columns, other.columns))


@dataclass(frozen=True)
class ExperimentConfig:
    subject: str = "A"  # "A", "B", or a subject-config path
    algorithm: str = "greybox"  # one of ALGORITHMS
    iterations: int = 150
    seeds: tuple = (0,)
    output_dir: str = "."
    noise_std: float = None  # None keeps the subject's own noise level
    fixed_theta: float = 1.0
    personalizer: PersonalizerConfig = DEFAULT_CONFIG  # frozen: shared

    def __post_init__(self):
        check_subject(self.subject)
        check_algorithm(self.algorithm)
        check_fields(self, finite=("fixed_theta",), positive=("iterations",),
                     ints=("iterations",),
                     nonnegative=() if self.noise_std is None else ("noise_std",))
        if self.algorithm == "greybox" and \
                self.iterations < self.personalizer.warmup_iterations:
            raise ValueError("iteration count must cover the warmup period")
        try:
            seeds = tuple(map(operator.index, self.seeds))
        except TypeError:
            raise ValueError(f"seeds = {self.seeds!r} must be integers") from None
        if not seeds:
            raise ValueError("need at least one seed")
        for seed in seeds:  # MotorNoise's check, made before any output
            if seed < 0:
                raise ValueError(f"seed = {seed} must be >= 0")
        if len(set(seeds)) < len(seeds):  # a seed's trace would overwrite its twin's
            repeated = next(s for i, s in enumerate(seeds) if s in seeds[:i])
            raise ValueError(f"seed {repeated} is repeated in seeds = {seeds}")
        object.__setattr__(self, "seeds", seeds)

    def config_hash(self):
        """16 hex digits of the sha256 of the settings a run depends on."""
        return self._hash

    @cached_property
    def _hash(self):  # once per object: the config is frozen
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
    """Subject A, B or the one in the subject file at path subject, its
    noise seeded with seed; a noise_std other than None replaces the
    subject's own."""
    if subject in ("A", "B"):
        build = subject_a if subject == "A" else subject_b
        return build(seed) if noise_std is None else build(seed, noise_std)
    subj = load_subject(subject)
    std = subj.noise.std if noise_std is None else noise_std
    subj.noise = MotorNoise(subj.noise.mean, std, seed)
    return subj


def run_episode(config, seed=None):
    """One episode; returns its trace (deterministic per seed).

    greybox and blackbox close the loop through their controller; sweep
    (theta_i = 0.8 + i/125, i = 0..200) and fixed apply an open-loop
    synergy schedule and record no filter output, estimates or branch.
    """
    seed = config.seeds[0] if seed is None else seed
    return _episode(config, seed, make_subject(config.subject, seed, config.noise_std))


def _episode(config, seed, subject):
    """run_episode's episode on subject, whose noise is seeded with seed."""
    algo = config.algorithm
    if algo in ("greybox", "blackbox"):
        loop = (Personalizer if algo == "greybox" else BlackBoxEs)(config.personalizer)
        loop.run(subject.step, config.iterations)
        columns = loop.columns
    else:
        if algo == "sweep":
            thetas = [SWEEP_START + SWEEP_SLOPE * i for i in range(SWEEP_ITERATIONS)]
        else:
            thetas = [config.fixed_theta] * config.iterations
        n, zeros = len(thetas), [0.0] * len(thetas)
        columns = (range(n), thetas, thetas, list(map(subject.step, thetas)),
                   zeros, zeros, zeros, [""] * n)
    return EpisodeTrace(columns, {"config_hash": config.config_hash(), "seed": seed,
                                  "subject_id": subject.subject_id, "algorithm": algo})


def convergence_iteration(theta_hats, theta_star):
    """First iteration i from which |theta_hat - theta*| < CONVERGENCE_TOL
    holds for CONVERGENCE_HOLD consecutive iterations; None when never
    reached."""
    ok = np.abs(np.asarray(theta_hats, float) - float(theta_star)) < CONVERGENCE_TOL
    # one byte, 0 or 1, per iteration: find the first run of CONVERGENCE_HOLD ones
    start = ok.tobytes().find(b"\x01" * CONVERGENCE_HOLD)
    return start if start >= 0 else None


def _median(values):
    """np.median of a list of floats, on Python floats where the bits do
    not depend on the order numpy's partition leaves: that is, unless a
    value is NaN, the median is 0 (of either sign) or the list is empty."""
    ordered = sorted(values)
    n, total = len(ordered), sum(ordered)
    if n and total == total:  # no NaN: a NaN makes the sum NaN
        mid = n // 2
        med = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        if med:
            return med
    return float(np.median(values))


def _ints(values):
    return list(map(int, values))


def _format_floats(values):
    # a float is written as its repr; a non-finite one (n/a) as an empty
    # cell. A column all finite or all n/a takes no per-cell test.
    values = list(map(float, values))
    if all(map(math.isfinite, values)):
        return list(map(repr, values))
    if not any(map(math.isfinite, values)):
        return [""] * len(values)
    return [repr(v) if math.isfinite(v) else "" for v in values]


def _parse_floats(texts):
    # an empty cell is n/a (NaN); as above, per cell only in a mixed column
    if all(texts):
        return list(map(float, texts))
    if not any(texts):
        return [math.nan] * len(texts)
    return [float(t) if t else math.nan for t in texts]


def _quote_texts(values):
    # as csv.writer: quote a cell holding , " \r or \n, doubling its quotes
    values = list(values)
    quoted = {t: '"' + t.replace('"', '""') + '"' for t in set(values)
              if not set(t).isdisjoint(',"\r\n')}
    return list(map(quoted.get, values, values))


# per trace column, by StepRecord field type: column formatter and parser
_FORMAT = [{int: lambda v: map(str, _ints(v)), float: _format_floats,
            str: _quote_texts}[t] for t in StepRecord.__annotations__.values()]
_PARSE = [{int: _ints, float: _parse_floats, str: list}[t]
          for t in StepRecord.__annotations__.values()]


def trace_path(directory, prefix, trace):
    """directory/<prefix>_<subject id>_s<seed>.csv, where a trace is written."""
    meta = trace.metadata
    return os.path.join(directory,
                        f"{prefix}_{meta['subject_id']}_s{meta['seed']}.csv")


def write_trace_csv(trace, path):
    meta = {key: str(trace.metadata[key])
            for key in ("config_hash", "seed", "subject_id", "algorithm")}
    for key, value in meta.items():
        if not set(value).isdisjoint("\r\n"):  # it would split its # line
            raise ValueError(f"trace metadata {key} {value!r} holds a line break")
    cols = [fmt(col) for fmt, col in zip(_FORMAT, trace.columns)]
    text = "".join(f"# {key}: {value}\n" for key, value in meta.items())
    # one join per row, each line ended by \r\n as csv's writer ends it
    text += "\r\n".join([",".join(TRACE_COLUMNS), *map(",".join, zip(*cols)), ""])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def read_trace_csv(path):
    metadata, lines = {}, {}  # metadata key -> value, line number
    first = []  # the header line, which ends the metadata
    # newline="" keeps a \r or \r\n inside a quoted cell for csv
    with open_text(path, newline="") as fh:
        for n, line in enumerate(fh, 1):
            if not line.startswith("#"):
                first.append(line)
                break
            key, _, val = line[1:].partition(":")
            metadata[key.strip()] = val.strip()
            lines[key.strip()] = n
        reader = csv.reader(fh, strict=True)  # an unclosed quote is an error
        try:
            header = next(csv.reader(first, strict=True), None)
            rows = [row for row in reader if row]
        except csv.Error as exc:  # line n is the header, then reader's lines
            raise ValueError(f"{path}: line {n + reader.line_num}: {exc}") from None
    if header != TRACE_COLUMNS:
        raise ValueError(f"{path}: trace header {header} is not {TRACE_COLUMNS}")
    for i, row in enumerate(rows):
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}: trace row {i} has {len(row)} cells, "
                             f"expected {len(TRACE_COLUMNS)}")
    if not rows:
        raise ValueError(f"{path}: trace has no rows")
    try:
        cols = [parse(texts) for parse, texts in zip(_PARSE, zip(*rows))]
    except ValueError:
        _raise_first_bad_cell(path, rows)
        raise
    if "seed" in metadata:
        text = metadata["seed"]
        try:
            metadata["seed"] = int(text)
        except ValueError:
            raise ValueError(f"{path}: line {lines['seed']}: seed {text!r} "
                             "is not an integer") from None
    try:
        return EpisodeTrace(cols, metadata)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _raise_first_bad_cell(path, rows):
    """Name the first cell, in row order, that its column cannot parse."""
    for i, row in enumerate(rows):
        for name, parse, cell in zip(TRACE_COLUMNS, _PARSE, row):
            try:
                parse([cell])
            except ValueError:
                raise ValueError(f"{path}: row {i}, column {name}: "
                                 f"cannot parse {cell!r}") from None


def summarize_batch(traces, theta_star):
    """Pure aggregation of per-seed traces into batch statistics."""
    convs, finals = [], []
    for tr in traces:
        hats = tr.columns.theta_hat
        convs.append(convergence_iteration(hats, theta_star))
        finals.append(_median(list(map(float, hats[-CONVERGENCE_HOLD:]))))
    reached = [c for c in convs if c is not None]
    # non-converged seeds rank above every converged one for the median
    ranked = [np.inf if c is None else c for c in convs]
    med = float(np.median(ranked)) if ranked else None
    return {
        "episodes": len(traces),
        "converged": len(reached),
        "median_convergence_iteration": None if med is None or np.isinf(med) else med,
        "iqr_convergence":
            (float(np.percentile(reached, 75) - np.percentile(reached, 25))
             if len(reached) >= 2 else None),
        "median_final_theta": float(np.median(finals)) if finals else None,
        "per_seed_convergence": convs,
        "per_seed_final_theta": finals,
    }


def run_batch(config, theta_star=None):
    """Per-seed episodes + aggregation + summary CSV + SVG plots.

    The subject is built once and reset(seed) before each seed's episode,
    so a subject file is read once per batch. It, and theta* from its map
    when theta_star is None, are resolved before anything is written: a
    subject file that does not load, or a map with no maximum, raises a
    ValueError naming the file. The first seed that fails while running
    aborts the batch; summary["failures"] records its seed, exception type
    name, message and formatted traceback.
    """
    subject = make_subject(config.subject, config.seeds[0], config.noise_std)
    if theta_star is None:
        theta_star = parsed(lambda subj: subj.optimum(), subject, config.subject)
    os.makedirs(config.output_dir, exist_ok=True)
    traces, failures = [], []
    for seed in config.seeds:
        try:
            subject.reset(seed)
            tr = _episode(config, seed, subject)
        except Exception as exc:  # partial results flagged, batch aborted
            failures.append({"seed": seed, "type": type(exc).__name__,
                             "message": str(exc),
                             "traceback": traceback.format_exc()})
            break
        traces.append(tr)
        write_trace_csv(tr, trace_path(config.output_dir,
                                       f"trace_{config.algorithm}", tr))
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
        for stem, column, title in (("theta", "theta_hat", "synergy estimate"),
                                    ("performance", "J", "performance")):
            line_plot(os.path.join(config.output_dir,
                                   f"{stem}_{config.algorithm}.svg"),
                      [(f"seed {t.metadata['seed']}", iters, t.column(column))
                       for t in traces[:10]],
                      title=f"{title} across iterations",
                      xlabel="iteration", ylabel=column)
    return summary, traces


def compare_traces(traces_a, traces_b, theta_star, tol=CONVERGENCE_TOL):
    """Differential success report: final theta within tolerance at the end."""
    if not math.isfinite(theta_star):
        raise ValueError(f"theta_star = {theta_star} must be finite")
    if not 0 < tol < math.inf:  # NaN fails
        raise ValueError(f"tol = {tol} must be finite and positive")
    sa, sb = (sum(1 for tr in traces if abs(tr.columns.theta_hat[-1] - theta_star) < tol)
              for traces in (traces_a, traces_b))
    return {
        "set_a_success": sa, "set_a_total": len(traces_a),
        "set_b_success": sb, "set_b_total": len(traces_b),
        "a_minus_b": sa - sb,
    }
