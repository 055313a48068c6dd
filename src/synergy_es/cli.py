"""Command-line surface: run, sweep, batch, identify, compare."""

import argparse
import os
import sys

from .config import parse_section, parsed, read_config
from .harness import (ALGORITHMS, CONVERGENCE_TOL, ExperimentConfig, check_algorithm,
                      check_subject, compare_traces, read_trace_csv, run_batch,
                      run_episode, trace_path, write_trace_csv)
from .personalizer import PersonalizerConfig
from .sysid import (identify_from_records, write_fitted_subject,
                    write_identification_report)


def _parse_seeds(text):
    return tuple(int(s) for s in text.replace(",", " ").split())


# [experiment] key -> parser of its value
EXPERIMENT_KEYS = {"subject": check_subject, "algorithm": check_algorithm,
                   "iterations": int, "seeds": _parse_seeds, "noise_std": float,
                   "fixed_theta": float}


def _experiment_config(args):
    """Config file sections, then command-line flags. A value the config
    rejects names the file, and the flags given (sweep's algorithm is not
    one)."""
    kwargs = {}
    if args.config:
        cp = read_config(args.config)
        if cp.has_section("experiment"):
            kwargs.update(parse_section(cp["experiment"],
                                        f"{args.config}: [experiment]",
                                        EXPERIMENT_KEYS))
        if cp.has_section("personalizer"):
            kwargs["personalizer"] = PersonalizerConfig.from_mapping(
                cp["personalizer"], f"{args.config}: [personalizer]")
    flags = {"subject": args.subject, "algorithm": args.algorithm,
             "seeds": None if args.seed is None
             else parsed(_parse_seeds, args.seed, "--seed"),
             "iterations": args.iterations, "output_dir": args.out}
    kwargs.update((k, v) for k, v in flags.items() if v is not None)
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        if not args.config:
            raise
        given = [f"--{k}" for k in ("subject", "algorithm", "seed", "iterations")
                 if getattr(args, k) is not None
                 and (k != "algorithm" or args.command != "sweep")]
        with_flags = f" (with {', '.join(given)})" if given else ""
        raise ValueError(f"{args.config}: [experiment]{with_flags}: {exc}") from None


def _episode_config(args):
    """The experiment config of run or sweep, which write one episode."""
    cfg = _experiment_config(args)
    if len(cfg.seeds) > 1:
        raise ValueError(f"{args.command} runs one episode, not seeds "
                         f"{' '.join(map(str, cfg.seeds))}; use batch for "
                         "several seeds")
    return cfg


def _write_episode(cfg, prefix):
    trace = run_episode(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = trace_path(cfg.output_dir, prefix, trace)
    write_trace_csv(trace, path)
    print(f"wrote {path} ({len(trace.columns.iteration)} iterations)")
    return 0


def _cmd_run(args):
    cfg = _episode_config(args)
    return _write_episode(cfg, f"trace_{cfg.algorithm}")


def _cmd_sweep(args):
    return _write_episode(_episode_config(args), "sweep")


def _cmd_batch(args):
    summary, traces = run_batch(_experiment_config(args))
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


def _cmd_identify(args):
    trace = read_trace_csv(args.input)
    pref, dyn, mse, resid, report = identify_from_records(
        trace.column("theta_applied"), trace.column("J"), order=args.order)
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

    p_run = sub.add_parser("run", help="run a single episode")
    p_run.set_defaults(func=_cmd_run)
    # the sweep schedule is fixed: 201 iterations, no algorithm to choose
    p_sweep = sub.add_parser("sweep", help="linear synergy sweep (0.8 + i/125)")
    p_sweep.set_defaults(func=_cmd_sweep, algorithm="sweep", iterations=None)
    p_batch = sub.add_parser("batch", help="Monte Carlo batch with summary")
    p_batch.set_defaults(func=_cmd_batch)
    for p in (p_run, p_sweep, p_batch):
        p.add_argument("--config", help="experiment config file (INI)")
        p.add_argument("--seed", help="seed; batch takes a whitespace/"
                       "comma-separated list")
        p.add_argument("--out", help="output directory", default=".")
        p.add_argument("--subject", help="subject id (A|B) or config path")
    for p in (p_run, p_batch):
        p.add_argument("--algorithm", choices=ALGORITHMS)
        p.add_argument("--iterations", type=int)

    p_id = sub.add_parser("identify", help="grey-box identification from a trace")
    p_id.add_argument("input", help="trace CSV, e.g. from sweep")
    p_id.add_argument("--order", type=int, default=2, choices=[2, 3])
    p_id.add_argument("--out", default=".")
    p_id.set_defaults(func=_cmd_identify)

    p_cmp = sub.add_parser("compare", help="differential report on two trace sets")
    p_cmp.add_argument("--a", nargs="+", required=True, help="trace CSVs, set A")
    p_cmp.add_argument("--b", nargs="+", required=True, help="trace CSVs, set B")
    p_cmp.add_argument("--theta-star", type=float, required=True,
                       dest="theta_star")
    p_cmp.add_argument("--tol", type=float, default=CONVERGENCE_TOL)
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
