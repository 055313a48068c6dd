"""Command-line surface: run, sweep, batch, identify, compare."""

import argparse
import csv
import os
import sys

from .config import read_config
from .harness import (TRACE_COLUMNS, ExperimentConfig, compare_traces,
                      read_trace_csv, run_batch, run_episode, write_trace_csv)
from .personalizer import PersonalizerConfig
from .sysid import (identify_from_records, read_iteration_csv,
                    write_fitted_subject, write_identification_report)


def _parse_seeds(text):
    return tuple(int(s) for s in text.replace(",", " ").split())


# [experiment] key -> parser of its value
EXPERIMENT_KEYS = {"subject": str, "algorithm": str, "iterations": int,
                   "seeds": _parse_seeds, "noise_std": float,
                   "fixed_theta": float}


def _experiment_config(args, **overrides):
    """Config file sections, then command-line flags, then overrides."""
    kwargs = {}
    if args.config:
        cp = read_config(args.config)
        if cp.has_section("experiment"):
            sec = cp["experiment"]
            unknown = sorted(set(sec) - set(EXPERIMENT_KEYS))
            if unknown:
                raise ValueError(f"unknown experiment keys {unknown}")
            kwargs.update((k, EXPERIMENT_KEYS[k](v)) for k, v in sec.items())
        if cp.has_section("personalizer"):
            kwargs["personalizer"] = PersonalizerConfig.from_mapping(cp["personalizer"])
    flags = {"subject": args.subject, "algorithm": args.algorithm,
             "seeds": None if args.seed is None else _parse_seeds(args.seed),
             "iterations": args.iterations, "output_dir": args.out}
    kwargs.update((k, v) for k, v in flags.items() if v is not None)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _write_episode(cfg, prefix):
    trace = run_episode(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir,
                        f"{prefix}_{trace.metadata['subject_id']}"
                        f"_s{trace.metadata['seed']}.csv")
    write_trace_csv(trace, path)
    print(f"wrote {path} ({len(trace.rows)} iterations)")
    return 0


def _cmd_run(args):
    cfg = _experiment_config(args)
    return _write_episode(cfg, f"trace_{cfg.algorithm}")


def _cmd_sweep(args):
    return _write_episode(_experiment_config(args, algorithm="sweep"), "sweep")


def _cmd_batch(args):
    cfg = _experiment_config(args)
    summary, traces = run_batch(cfg)
    print(f"episodes: {summary.get('episodes', 0)}")
    print(f"converged: {summary.get('converged', 0)}")
    print(f"median convergence iteration: "
          f"{summary.get('median_convergence_iteration')}")
    print(f"median final theta: {summary.get('median_final_theta')}")
    if summary.get("aborted"):
        for fail in summary["failures"]:
            print(f"batch aborted at seed {fail['seed']}: "
                  f"{fail['type']}: {fail['message']}", file=sys.stderr)
        return 1
    return 0


def _read_record(path):
    """(theta, J) from a trace CSV or an iteration,theta,performance CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(line for line in fh if not line.startswith("#")), None)
    if header == TRACE_COLUMNS:
        trace = read_trace_csv(path)
        return trace.column("theta_applied"), trace.column("J")
    _, thetas, perfs = read_iteration_csv(path)
    return thetas, perfs


def _cmd_identify(args):
    thetas, perfs = _read_record(args.input)
    pref, dyn, mse, resid, report = identify_from_records(
        thetas, perfs, order=args.order)
    os.makedirs(args.out, exist_ok=True)
    rpath = os.path.join(args.out, "identification_report.txt")
    spath = os.path.join(args.out, "identified_subject.ini")
    write_identification_report(rpath, pref, dyn, mse, report)
    write_fitted_subject(spath, pref, dyn, report)
    print(f"wrote {rpath}")
    print(f"wrote {spath}")
    print(f"one-step mse: {mse:.6g}")
    return 0


def _cmd_compare(args):
    ta = [read_trace_csv(p) for p in args.a]
    tb = [read_trace_csv(p) for p in args.b]
    report = compare_traces(ta, tb, args.theta_star, tol=args.tol)
    for key, val in report.items():
        print(f"{key}: {val}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="synergy-es",
        description="grey-box extremum-seeking personalization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config file (INI)")
        p.add_argument("--seed", help="seed or whitespace/comma-separated list")
        p.add_argument("--out", help="output directory", default=".")
        p.add_argument("--algorithm",
                       choices=["greybox", "blackbox", "sweep", "fixed"])
        p.add_argument("--subject", help="subject id (A|B) or config path")
        p.add_argument("--iterations", type=int)

    p_run = sub.add_parser("run", help="run a single episode")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="linear synergy sweep (0.8 + i/125)")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_batch = sub.add_parser("batch", help="Monte Carlo batch with summary")
    common(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_id = sub.add_parser("identify", help="grey-box identification from CSV")
    p_id.add_argument("input", help="trace CSV (e.g. from sweep) or CSV with "
                      "iteration,theta,performance")
    p_id.add_argument("--order", type=int, default=2, choices=[2, 3])
    p_id.add_argument("--out", default=".")
    p_id.set_defaults(func=_cmd_identify)

    p_cmp = sub.add_parser("compare", help="differential report on two trace sets")
    p_cmp.add_argument("--a", nargs="+", required=True, help="trace CSVs, set A")
    p_cmp.add_argument("--b", nargs="+", required=True, help="trace CSVs, set B")
    p_cmp.add_argument("--theta-star", type=float, required=True,
                       dest="theta_star")
    p_cmp.add_argument("--tol", type=float, default=0.1)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
