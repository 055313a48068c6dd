"""Print one sha256 per output group, to check that a change keeps every
output byte of a checkout.

    python tests/hash_outputs.py [CHECKOUT]
    python tests/hash_outputs.py PARENT CHANGE

CHECKOUT (default: the checkout holding this script) is the tree whose
src/ and demos/ are run. Run it on two checkouts, for example a change and
its parent, and compare the lines. Given two checkouts, it runs this script
on each in its own subprocess, prints only the groups whose digests differ
(group, PARENT's digest, CHANGE's digest; "-" for a group one side lacks)
and exits 1 if any differ, 0 if none does. Everything is written to a
temporary directory that is removed at the end. pytest does not collect
this file.

Groups:
- identify-report, identify-ini, identify-residuals: a sweep of A and of B
  at seeds 0-59, identified at orders 2 and 3;
- identify-noise0: the same three outputs of a sweep of A and of B with
  noise_std 0, identified at orders 2 and 3;
- identify-order: reports, INIs and residuals of sweeps of A and B at
  seeds 60-65 fitted in the orders (3, 2), (2, 2, 3) and interleaved
  A2, B2, A3, B3, A2 (IDENTIFY_ORDER), so a fit that reuses an earlier
  fit's pole search is compared with one that runs it;
- identify-edges: reports, INIs, residuals and warnings (or the error) of
  records at the fitter's edges, identified at orders 2 and 3: sweeps of A
  of 20 and 30 samples (order 3 rejects the first), B held at 5 levels for
  8 samples each, a constant record (no excitation) and a record whose
  dynamics have complex poles (the pole constraint warns);
- batch-<algorithm>-<subject>: run_batch's trace CSVs, summary CSV and both
  SVGs over seeds 0-9, for grey-box A, black-box B, sweep A and fixed B;
- compare-report, compare-cli: compare_traces on those batches' traces, in
  process and read back from CSV, and the compare command's stdout;
- batch-file-subject: run_batch, with theta* taken from the subject as the
  batch command takes it, on the fitted INI of A's seed-0 sweep at order 2:
  grey-box and black-box over seeds 0-9, their trace CSVs, summary CSV and
  both SVGs, and the stdout of the batch command on that file;
- long-<algorithm>, noise0-<algorithm>: grey-box and black-box episodes on
  A and B written as CSV: 600 iterations at seeds 0-4, and 150 iterations
  with noise_std 0;
- step-<algorithm>: each loop driven by step(J) for 150 iterations on
  subject_a(0), the repr of each of its columns;
- subject-steps: the repr of J over 300 synergies 0.8..2.4 from subject A,
  subject B, the static subject on A's map, the fitted INI of A's seed-0
  sweep at order 2, a subject with coefficients outside [2^-450, 2^450],
  one whose output chain overflows to -inf before it adds a finite
  product (Psi = (-1e300, 1e300), initial state (1e10, 1e10)) and one
  whose Phi holds the subnormal 1e-310, then again after reset(seed),
  after its noise is replaced and after a pickle round trip;
- reach: default_task() and every outcome of the 81-point theta grid;
- reach-arms: the outcomes of five synergies on the arms, profiles and
  time limits of REACH_ARMS, the edges of a reach's moving prefix;
- golden, golden-Nehalem, golden-Prescott: the seed-0 episode of every
  algorithm on A and B written as CSV, under the default BLAS kernel and,
  in a subprocess, under OPENBLAS_CORETYPE Nehalem and Prescott, so kernels
  that agree print one digest;
- golden-plots: both plots of a black-box batch on B over seeds 0-9;
- paths-mixed: output paths no batch reaches: a black-box trace on B whose
  J column mixes NaN and finite cells, written as CSV, and its columns read
  back; and a plot with NaN in some series' ys, where two series share one
  xs object and two have their own;
- demo-<name>: each demo's stdout and the files it writes.
"""

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

GRID = [0.8 + 0.02 * k for k in range(81)]


def digest(items):
    """sha256 over (name, bytes) pairs, each framed by its lengths."""
    h = hashlib.sha256()
    for name, data in items:
        for part in (name.encode(), data):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def files(directory):
    return [(p.name, p.read_bytes()) for p in sorted(Path(directory).iterdir())]


def identified(trace, order, stem):
    """(report, INI, residuals) bytes of the trace's fit at order, the files
    written next to stem."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_files(trace.column("theta_applied"), trace.column("J"), order, stem)


def fit_files(thetas, perfs, order, stem):
    """(report, INI, residuals) bytes of the record's fit at order, the files
    written next to stem."""
    from synergy_es.sysid import (identify_from_records, write_fitted_subject,
                                  write_identification_report)
    pref, dyn, mse, resid, report = identify_from_records(thetas, perfs, order)
    rpath, spath = stem.with_suffix(".txt"), stem.with_suffix(".ini")
    write_identification_report(rpath, pref, dyn, mse, report)
    write_fitted_subject(spath, pref, dyn, report)
    return rpath.read_bytes(), spath.read_bytes(), resid.tobytes()


def identify_groups(tmp):
    from synergy_es.harness import ExperimentConfig, run_episode
    kinds = ("identify-report", "identify-ini", "identify-residuals")
    groups = {kind: [] for kind in (*kinds, "identify-noise0")}
    for subject in "AB":
        for seed in range(60):
            trace = run_episode(ExperimentConfig(subject=subject, algorithm="sweep"), seed)
            for order in (2, 3):
                name = f"{subject}_s{seed}_o{order}"
                for kind, data in zip(kinds, identified(trace, order, tmp / name)):
                    groups[kind].append((name, data))
        trace = run_episode(ExperimentConfig(subject=subject, algorithm="sweep",
                                             noise_std=0.0), 0)
        for order in (2, 3):
            name = f"{subject}_noise0_o{order}"
            for kind, data in zip(kinds, identified(trace, order, tmp / name)):
                groups["identify-noise0"].append((f"{name} {kind}", data))
    return groups


# (subject, sweep seed, order) in call order: the orders (3, 2) and
# (2, 2, 3) on one record each, then records of A and B interleaved
IDENTIFY_ORDER = [("A", 60, 3), ("A", 60, 2), ("A", 62, 2), ("A", 62, 2), ("A", 62, 3),
                  ("B", 61, 3), ("B", 61, 2), ("B", 63, 2), ("B", 63, 2), ("B", 63, 3),
                  ("A", 64, 2), ("B", 65, 2), ("A", 64, 3), ("B", 65, 3), ("A", 64, 2)]


def identify_order_groups(tmp):
    from synergy_es.harness import ExperimentConfig, run_episode
    traces, items = {}, []
    for k, (subject, seed, order) in enumerate(IDENTIFY_ORDER):
        if (subject, seed) not in traces:
            traces[subject, seed] = run_episode(
                ExperimentConfig(subject=subject, algorithm="sweep"), seed)
        name = f"{k}_{subject}_s{seed}_o{order}"
        items += zip((f"{name} {kind}" for kind in ("report", "ini", "residuals")),
                     identified(traces[subject, seed], order, tmp / name))
    return {"identify-order": items}


def identify_edges_groups(tmp):
    import numpy as np
    from synergy_es.subject import (LAMBDA_A, AdaptationDynamics, PreferenceMap,
                                    subject_a, subject_b)

    def stepped(subject, thetas):
        return thetas, np.array([subject.step(theta) for theta in thetas])

    levels = np.repeat([0.8, 1.6, 2.4, 1.2, 2.0], 8)
    # poles 0.6 +- 0.6j, outside the constraint
    complex_poles = AdaptationDynamics([[1.2, -0.72], [1.0, 0.0]], [1.0, 0.0], [1.0, 0.5])
    held = np.repeat([0.8, 2.4, 1.2, 2.0, 1.6, 1.0, 2.2], 10)
    records = {"sweep20": stepped(subject_a(1), np.linspace(0.8, 2.4, 20)),
               "sweep30": stepped(subject_a(1), np.linspace(0.8, 2.4, 30)),
               "levels": stepped(subject_b(4), levels),
               "constant": (levels, np.zeros(levels.size)),
               "constrained": (held, np.array(complex_poles.response(
                   PreferenceMap(LAMBDA_A).value(held).tolist())))}
    items = []
    for name, (thetas, perfs) in records.items():
        for order in (2, 3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outputs = fit_files(thetas, perfs, order, tmp / f"edge_{name}_o{order}")
                except ValueError as exc:
                    outputs = (repr(exc).encode(),)
            warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
            items += [(f"{name} o{order} {k}", data)
                      for k, data in enumerate((*outputs, warned.encode()))]
    return {"identify-edges": items}


def batch_groups(tmp):
    from synergy_es.cli import main
    from synergy_es.harness import (ExperimentConfig, compare_traces,
                                    read_trace_csv, run_batch)
    groups, runs = {}, {}
    for algorithm, subject in (("greybox", "A"), ("blackbox", "B"),
                               ("sweep", "A"), ("fixed", "B")):
        out = tmp / f"batch_{algorithm}_{subject}"
        summary, traces = run_batch(ExperimentConfig(
            subject=subject, algorithm=algorithm, seeds=tuple(range(10)),
            output_dir=str(out)))
        groups[f"batch-{algorithm}-{subject}"] = files(out)
        runs[algorithm] = (summary["theta_star"], traces,
                           sorted(str(p) for p in out.glob("trace_*.csv")))
    reports, stdout = [], io.StringIO()
    for a, b in (("greybox", "sweep"), ("blackbox", "fixed")):
        theta_star, traces_a, paths_a = runs[a]
        _, traces_b, paths_b = runs[b]
        for tol in (0.1, 0.5):
            name = f"{a}-{b}-tol{tol}"
            reports.append((name, repr(compare_traces(
                traces_a, traces_b, theta_star, tol)).encode()))
            reports.append((name + "-csv", repr(compare_traces(
                [read_trace_csv(p) for p in paths_a],
                [read_trace_csv(p) for p in paths_b], theta_star, tol)).encode()))
            with contextlib.redirect_stdout(stdout):
                main(["compare", "--a", *paths_a, "--b", *paths_b,
                      "--theta-star", repr(theta_star), "--tol", repr(tol)])
    groups["compare-report"] = reports
    groups["compare-cli"] = [("stdout", stdout.getvalue().encode())]
    return groups


def file_subject_groups(tmp):
    from synergy_es.cli import main
    from synergy_es.harness import ExperimentConfig, run_batch, run_episode
    work = tmp / "file_subject"
    work.mkdir()
    trace = run_episode(ExperimentConfig(subject="A", algorithm="sweep"), 0)
    identified(trace, 2, work / "identified_subject")
    items, stdout = [], io.StringIO()
    # a relative subject path: the config hash in each trace holds it
    with contextlib.chdir(work):
        for algorithm in ("greybox", "blackbox"):
            run_batch(ExperimentConfig(subject="identified_subject.ini",
                                       algorithm=algorithm, seeds=tuple(range(10)),
                                       output_dir=algorithm))
            items += [(f"{algorithm}/{name}", data) for name, data in files(algorithm)]
            with contextlib.redirect_stdout(stdout):
                assert main(["batch", "--subject", "identified_subject.ini",
                             "--algorithm", algorithm, "--seed", "0 1 2 3 4 5 6 7 8 9",
                             "--out", f"cli_{algorithm}"]) == 0
    return {"batch-file-subject": items + [("stdout", stdout.getvalue().encode())]}


def trace_groups(tmp):
    from synergy_es.harness import ExperimentConfig, run_episode, write_trace_csv
    groups = {}
    for group, seeds, settings in (("long", range(5), {"iterations": 600}),
                                   ("noise0", (0,), {"noise_std": 0.0})):
        for algorithm in ("greybox", "blackbox"):
            items = groups[f"{group}-{algorithm}"] = []
            for subject in "AB":
                for seed in seeds:
                    path = tmp / f"{group}_{algorithm}_{subject}_s{seed}.csv"
                    write_trace_csv(run_episode(ExperimentConfig(
                        subject=subject, algorithm=algorithm, **settings), seed), path)
                    items.append((path.name, path.read_bytes()))
    return groups


def step_groups():
    from synergy_es.baseline import BlackBoxEs
    from synergy_es.personalizer import Personalizer
    from synergy_es.subject import subject_a
    groups = {}
    for algorithm, loop in (("greybox", Personalizer()), ("blackbox", BlackBoxEs())):
        subject, theta = subject_a(0), loop.applied_theta()
        for _ in range(150):
            theta = loop.step(subject.step(theta))
        groups[f"step-{algorithm}"] = [(name, repr(column).encode()) for name, column
                                       in zip(loop.columns._fields, loop.columns)]
    return groups


def subject_steps_groups(tmp):
    import pickle
    from synergy_es.harness import ExperimentConfig, run_episode
    from synergy_es.subject import (LAMBDA_A, LAMBDA_B, AdaptationDynamics, MotorNoise,
                                    PreferenceMap, SimulatedSubject, load_subject,
                                    static_subject, subject_a, subject_b)
    fitted = tmp / "subject_steps_fitted"
    identified(run_episode(ExperimentConfig(subject="A", algorithm="sweep"), 0), 2, fitted)
    edge = AdaptationDynamics([[2.0 ** -500, 0.5], [0.25, 0.3]], [1.0, 0.5],
                              [1.0, 2.0 ** 460])
    overflow = AdaptationDynamics([[0.5, 0.0], [0.25, 0.3]], [1e9, 0.5], [-1e300, 1e300])
    subnormal = AdaptationDynamics([[1e-310, 0.5], [0.25, 0.3]], [1.0, 0.5], [1.0, 0.7])
    subjects = {"A": subject_a(3), "B": subject_b(4),
                "static": static_subject(PreferenceMap(LAMBDA_A)),
                "fitted": load_subject(fitted.with_suffix(".ini")),
                "out-of-range": SimulatedSubject(PreferenceMap(LAMBDA_B), edge,
                                                 MotorNoise(0.5, 3.0, 5), (1e6, -3.0)),
                "overflow": SimulatedSubject(PreferenceMap(LAMBDA_A), overflow,
                                             MotorNoise(0.0, 1.0, 6), (1e10, 1e10)),
                "subnormal": SimulatedSubject(PreferenceMap(LAMBDA_B), subnormal,
                                              MotorNoise(0.0, 2.0, 7), (3.0, -1e-300))}
    thetas = [0.8 + 1.6 * k / 299 for k in range(300)]
    items = []
    for name, subject in subjects.items():
        for stage in ("built", "reset", "noise", "pickled"):
            if stage == "reset":
                subject.reset(11)
            elif stage == "noise":
                subject.noise = MotorNoise(1.0, 4.0, 12)
            elif stage == "pickled":
                subject = pickle.loads(pickle.dumps(subject))
            items.append((f"{name} {stage}",
                          repr([subject.step(theta) for theta in thetas]).encode()))
    return {"subject-steps": items}


# (arm, profile, time limit) as (ArmGeometry args, ShoulderProfile args,
# seconds): a zero peak, the shoulder moving at the limit, still from the
# last sample, still from the one before it, one and two samples, and
# another arm whose shoulder is still from sample 10
REACH_ARMS = [((), (0.0,), 3.0), ((), (0.75, 4.0), 3.0), ((), (0.75, 3.0), 3.0),
              ((), (0.75, 2.9, 10.0), 3.0), ((), (), 0.004), ((), (), 0.012),
              ((45.0, 20.0, (5.0, -3.0)), (-0.6, 0.1, 90.0, 0.2), 2.0)]
REACH_ARM_THETAS = (-2.0, 0.0, 1.33, 1.7, 4.0)


def reach_groups():
    from dataclasses import replace

    from synergy_es.plant import (ArmGeometry, ShoulderProfile, default_geometry,
                                  default_profile, default_task, objective,
                                  simulate_reach)

    def outcome(geom, task, theta, prof):
        out = simulate_reach(geom, task, theta, prof)
        return out.hand_path.tobytes() + " ".join((
            out.end_error_cm.hex(), out.completion_time_s.hex(), str(out.completed),
            objective(out).hex())).encode()

    geom, prof = default_geometry(), default_profile()
    task = default_task(geom, prof)
    items = [("task", repr(task).encode())]
    items += [(theta.hex(), outcome(geom, task, theta, prof)) for theta in GRID]
    arms = []
    for geom_args, prof_args, limit in REACH_ARMS:
        geom, prof = ArmGeometry(*geom_args), ShoulderProfile(*prof_args)
        task = replace(default_task(geom, prof), time_limit_s=limit)
        arms += [(f"{geom} {prof} {limit} {theta}", outcome(geom, task, theta, prof))
                 for theta in REACH_ARM_THETAS]
    return {"reach": items, "reach-arms": arms}


def golden_files(out):
    """The golden episodes' CSVs, written to out."""
    from synergy_es.harness import (ALGORITHMS, ExperimentConfig, run_episode,
                                    write_trace_csv)
    out.mkdir()
    for algorithm in ALGORITHMS:
        for subject in "AB":
            write_trace_csv(run_episode(ExperimentConfig(
                subject=subject, algorithm=algorithm, seeds=(0,))),
                out / f"{algorithm}_{subject}_s0.csv")
    return files(out)


def golden_groups(tmp, src):
    from synergy_es.harness import ExperimentConfig, run_batch
    out = tmp / "golden_plots"
    run_batch(ExperimentConfig(subject="B", algorithm="blackbox",
                               seeds=tuple(range(10)), output_dir=str(out)))
    groups = {"golden": digest(golden_files(tmp / "golden")),
              "golden-plots": [(name, (out / name).read_bytes()) for name
                               in ("theta_blackbox.svg", "performance_blackbox.svg")]}
    code = ("import runpy, sys; from pathlib import Path; "
            f"g = runpy.run_path({__file__!r}); "
            "print(g['digest'](g['golden_files'](Path(sys.argv[1]))))")
    for coretype in ("Nehalem", "Prescott"):
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code, str(tmp / coretype)],
                              env=env, check=True, capture_output=True, text=True,
                              timeout=300)
        groups[f"golden-{coretype}"] = done.stdout.strip()
    return groups


def mixed_paths_groups(tmp):
    import numpy as np
    from synergy_es.harness import (EpisodeTrace, ExperimentConfig, read_trace_csv,
                                    run_episode, write_trace_csv)
    from synergy_es.svgplot import line_plot
    traces = [run_episode(ExperimentConfig(subject="B", algorithm="blackbox"), seed)
              for seed in range(3)]
    js = [tr.column("J") for tr in traces]
    for k, j in enumerate(js):
        j[1::k + 2] = np.nan  # every 2nd, 3rd, 4th point
    mixed = EpisodeTrace(traces[0].columns._replace(J=js[0].tolist()), traces[0].metadata)
    path, plot = tmp / "mixed.csv", tmp / "mixed.svg"
    write_trace_csv(mixed, path)
    back = read_trace_csv(path)
    shared = traces[0].column("theta_applied")
    line_plot(plot, [("seed 0", shared, js[0]), ("seed 1", shared, js[1]),
                     ("seed 2", traces[2].column("theta_applied"), js[2]),
                     ("index", np.arange(150.0), traces[1].column("J"))],
              title="mixed", xlabel="theta", ylabel="J")
    return {"paths-mixed": [(path.name, path.read_bytes()),
                            ("read back", repr((back.metadata, back.columns)).encode()),
                            (plot.name, plot.read_bytes())]}


def demo_groups(tmp, root):
    groups = {}
    for demo in sorted((root / "demos").glob("demo_*.py")):
        work = tmp / demo.stem
        work.mkdir()
        shutil.copy(demo, work / demo.name)  # its out/ lands next to the copy
        done = subprocess.run([sys.executable, demo.name], cwd=work, check=True,
                              capture_output=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(root / "src")})
        groups[f"demo-{demo.stem}"] = [("stdout", done.stdout)] + files(work / "out")
    return groups


def compare(parent, change):
    """Print the groups whose digests differ between the two checkouts, each
    hashed by this script in its own subprocess; 1 if any differ, else 0."""
    digests = []
    for root in (parent, change):
        done = subprocess.run([sys.executable, __file__, root], check=True,
                              capture_output=True, text=True, timeout=1800)
        digests.append(dict(line.split() for line in done.stdout.splitlines()))
    differ = [group for group in {**digests[0], **digests[1]}
              if digests[0].get(group) != digests[1].get(group)]
    for group in differ:
        print(f"{group:<32} {digests[0].get(group, '-')} {digests[1].get(group, '-')}")
    return 1 if differ else 0


def main(argv):
    if len(argv) == 2:
        sys.exit(compare(*argv))
    root = Path(argv[0] if argv else Path(__file__).parent.parent).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        groups = {**identify_groups(tmp), **identify_order_groups(tmp),
                  **identify_edges_groups(tmp),
                  **batch_groups(tmp),
                  **file_subject_groups(tmp), **trace_groups(tmp),
                  **step_groups(), **subject_steps_groups(tmp), **reach_groups(),
                  **golden_groups(tmp, src), **mixed_paths_groups(tmp),
                  **demo_groups(tmp, root)}
    for group, items in groups.items():
        print(f"{group:<32} {items if isinstance(items, str) else digest(items)}")


if __name__ == "__main__":
    main(sys.argv[1:])
