"""Tests for the command-line surface."""

import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synergy_es
from synergy_es.baseline import BlackBoxEs
from synergy_es.cli import main
from synergy_es.harness import TRACE_COLUMNS, EpisodeTrace, read_trace_csv
from synergy_es.personalizer import PersonalizerConfig
from synergy_es.subject import save_subject, subject_a, subject_b


def test_run_writes_trace(tmp_path, capsys):
    rc = main(["run", "--subject", "A", "--algorithm", "greybox",
               "--seed", "3", "--out", str(tmp_path), "--iterations", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    path = tmp_path / "trace_greybox_A_s3.csv"
    assert path.exists()
    trace = read_trace_csv(path)
    assert len(trace.columns.iteration) == 40
    assert trace.metadata["seed"] == 3


@pytest.mark.parametrize("argv, name, count", [
    (["run", "--iterations", "40"], "trace_greybox_A_s0.csv", 40),
    (["sweep", "--subject", "B"], "sweep_B_s0.csv", 201)])
def test_episode_commands_print_iteration_count(tmp_path, capsys, argv, name, count):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == \
        f"wrote {os.path.join(str(tmp_path), name)} ({count} iterations)\n"


def test_sweep_command(tmp_path):
    rc = main(["sweep", "--subject", "B", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    trace = read_trace_csv(tmp_path / "sweep_B_s0.csv")
    assert len(trace.columns.iteration) == 201
    assert trace.columns.theta_applied[0] == 0.8


def test_batch_command(tmp_path, capsys):
    rc = main(["batch", "--subject", "A", "--algorithm", "greybox",
               "--seed", "0 1 2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "episodes: 3" in out
    assert (tmp_path / "summary_greybox.csv").exists()


def test_identify_command(tmp_path, capsys):
    # identify reads trace CSVs only: any other header exits 2
    data = tmp_path / "record.csv"
    subj = subject_a(seed=0, noise_std=1.0)
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "theta", "performance"])
        for i in range(200):
            th = 0.8 + i / 125.0
            writer.writerow([i, th, subj.step(th)])
    rc = main(["identify", str(data), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "trace header" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_identify_reads_sweep_trace(tmp_path):
    rc = main(["sweep", "--subject", "A", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["identify", str(tmp_path / "sweep_A_s0.csv"), "--order", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "lti order: 3" in (tmp_path / "identification_report.txt").read_text()
    assert (tmp_path / "identified_subject.ini").exists()


def test_batch_failure_prints_type(tmp_path, capsys):
    # noise this large overflows J to inf: the loop's finite-J check fails
    cfg = tmp_path / "noisy.ini"
    cfg.write_text("[experiment]\nnoise_std = 1e308\n")
    rc = main(["batch", "--config", str(cfg), "--subject", "A",
               "--algorithm", "greybox", "--seed", "4", "--out", str(tmp_path)])
    assert rc == 1
    assert ("seed 4: ValueError: non-finite performance measurement (sensor fault)"
            in capsys.readouterr().err)


def test_compare_command(tmp_path, capsys):
    for algo in ("greybox", "blackbox"):
        rc = main(["run", "--subject", "A", "--algorithm", algo,
                   "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
    ths = subject_a().optimum()
    rc = main(["compare",
               "--a", str(tmp_path / "trace_greybox_A_s0.csv"),
               "--b", str(tmp_path / "trace_blackbox_A_s0.csv"),
               "--theta-star", str(ths)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "set_a_success" in out


def test_compare_short_row_exits_2(tmp_path, capsys):
    rc = main(["run", "--subject", "A", "--algorithm", "fixed",
               "--seed", "0", "--out", str(tmp_path), "--iterations", "5"])
    assert rc == 0
    path = tmp_path / "trace_fixed_A_s0.csv"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("5,1.0\n")
    rc = main(["compare", "--a", str(path), "--b", str(path),
               "--theta-star", "1.0"])
    assert rc == 2
    assert "cells" in capsys.readouterr().err
    # a trace with its header and no rows
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:5]), encoding="utf-8")
    rc = main(["compare", "--a", str(path), "--b", str(path),
               "--theta-star", "1.0"])
    assert rc == 2
    assert "no rows" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--theta-star", "nan"], "theta_star = nan must be finite"),
    (["--theta-star", "inf"], "theta_star = inf must be finite"),
    (["--theta-star", "1.5", "--tol", "-1"],
     "tol = -1.0 must be finite and positive"),
    (["--theta-star", "1.5", "--tol", "nan"],
     "tol = nan must be finite and positive"),
], ids=["theta_star_nan", "theta_star_inf", "tol_negative", "tol_nan"])
def test_compare_rejects_unusable_numbers(tmp_path, capsys, args, message):
    rc = main(["run", "--subject", "A", "--algorithm", "fixed",
               "--seed", "0", "--out", str(tmp_path), "--iterations", "5"])
    assert rc == 0
    path = str(tmp_path / "trace_fixed_A_s0.csv")
    capsys.readouterr()
    assert main(["compare", "--a", path, "--b", path] + args) == 2
    out, err = capsys.readouterr()
    assert f"error: {message}" in err and out == ""


@pytest.mark.parametrize("command", ["compare", "identify"])
def test_bad_cell_names_file_and_column(tmp_path, capsys, command):
    rc = main(["sweep", "--subject", "A", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep_A_s0.csv").read_text(encoding="utf-8").splitlines(
        keepends=True)
    cells = lines[5 + 7].split(",")  # 4 metadata lines, header, row 7
    cells[TRACE_COLUMNS.index("J")] = "abc"
    lines[5 + 7] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    args = (["compare", "--a", str(path), "--b", str(path), "--theta-star", "1.0"]
            if command == "compare" else
            ["identify", str(path), "--out", str(tmp_path / "out")])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{path}: row 7, column J: cannot parse 'abc'" in err


@pytest.mark.parametrize("command", ["compare", "identify"])
def test_bad_seed_line_names_file_and_line(tmp_path, capsys, command):
    rc = main(["run", "--subject", "A", "--algorithm", "fixed", "--seed", "0",
               "--iterations", "30", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "trace_fixed_A_s0.csv").read_text(encoding="utf-8")
    assert "# seed: 0\n" in text
    path = tmp_path / "bad.csv"
    path.write_text(text.replace("# seed: 0\n", "# seed: x\n"), encoding="utf-8")
    capsys.readouterr()
    args = (["compare", "--a", str(path), "--b", str(path), "--theta-star", "1.0"]
            if command == "compare" else
            ["identify", str(path), "--out", str(tmp_path / "out")])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 2: seed 'x' is not an integer" in err


@pytest.mark.parametrize("key, value", [("iterations", "abc"),
                                        ("noise_std", "lots"),
                                        ("seeds", "1,x"),
                                        ("subject", "no_such_file.ini"),
                                        ("algorithm", "grey")])
def test_bad_experiment_value_names_file_and_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\n{key} = {value}\n")
    rc = main(["run", "--config", str(cfg), "--subject", "A",
               "--algorithm", "fixed", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {cfg}: [experiment] {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_personalizer_value_names_file_and_key(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[personalizer]\nk = abc\n")
    rc = main(["run", "--config", str(cfg), "--subject", "A",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"error: {cfg}: [personalizer] k: could not convert string to "
            "float: 'abc'") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, argv, message", [
    ("iterations = 0", ["run"], ": [experiment]: iterations = 0 must be positive"),
    ("noise_std = -1", ["batch"], ": [experiment]: noise_std = -1.0 must be >= 0"),
    ("algorithm = greybox\niterations = 5", ["run"],
     ": [experiment]: iteration count must cover the warmup period"),
    ("algorithm = fixed\nnoise_std = -1", ["sweep"],
     ": [experiment]: noise_std = -1.0 must be >= 0"),
    ("iterations = 50", ["run", "--iterations", "5", "--seed", "1"],
     ": [experiment] (with --seed, --iterations): iteration count must cover "
     "the warmup period"),
    ("", ["run", "--algorithm", "fixed", "--iterations", "0"],
     ": [experiment] (with --algorithm, --iterations): iterations = 0 must be "
     "positive")])
def test_rejected_experiment_value_names_file(tmp_path, capsys, text, argv, message):
    cfg = tmp_path / "e.ini"
    cfg.write_text(f"[experiment]\n{text}\n")
    rc = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}{message}\n"
    assert not (tmp_path / "out").exists()


def test_rejected_flag_value_without_config_keeps_its_message(tmp_path, capsys):
    assert main(["run", "--iterations", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: iterations = 0 must be positive\n"


@pytest.mark.parametrize("from_file", [False, True])
def test_repeated_seed_exits_2_before_any_output(tmp_path, capsys, from_file):
    # each seed's trace file is named by its seed: a repeat would overwrite one
    argv, prefix = ["--subject", "B", "--algorithm", "blackbox", "--seed", "3 3 4"], ""
    if from_file:
        cfg = tmp_path / "e.ini"
        cfg.write_text("[experiment]\nsubject = B\nalgorithm = blackbox\n"
                       "seeds = 3 3 4\n")
        argv, prefix = ["--config", str(cfg)], f"{cfg}: [experiment]: "
    assert main(["batch", *argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        f"error: {prefix}seed 3 is repeated in seeds = (3, 3, 4)\n"
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_2_before_any_output(tmp_path, capsys):
    # seed 1's trace, the summary and the plots would be written before
    # seed -2's noise rejected it
    assert main(["batch", "--subject", "A", "--algorithm", "fixed", "--seed", "1,-2",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: seed = -2 must be >= 0\n"
    assert not (tmp_path / "out").exists()


def subject_ini(tmp_path, edit):
    """A subject-A file with its text passed through edit."""
    path = tmp_path / "s.ini"
    save_subject(path, subject_a())
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return path


def replace_line(key, line):
    """An edit that replaces the '<key> = ...' line of a file with line."""
    def edit(text):
        return "".join(line if row.startswith(f"{key} = ") else row
                       for row in text.splitlines(keepends=True))
    return edit


# case id -> (edit of a subject-A file, error after 'error: <path>')
BAD_SUBJECT = {
    "typo": (replace_line("noise_std", "noise_sd = 16.8\n"),
             ": [subject] noise_sd: unknown key, expected one of lambda, "),
    "missing_psi": (replace_line("psi", ""), ": [subject] psi: missing"),
    "no_section": (lambda text: text.replace("[subject]", "[subjects]"),
                   ": no [subject] section"),
    "bad_seed": (replace_line("seed", "seed = x\n"),
                 ": [subject] seed: invalid literal for int() with base 10: 'x'"),
    # model errors, found once the values are parsed
    "gamma_length": (replace_line("gamma", "gamma = 0.839 0.037 1.0\n"),
                     ": [subject]: gamma must have shape (2,), not (3,)"),
    "lambda_length": (replace_line("lambda", "lambda = -158.15 529.18\n"),
                      ": [subject]: lambda must have 3 values, not "),
    "unstable": (replace_line("phi", "phi = 0 1; 1 0.35\n"),
                 ": [subject]: adaptation dynamics must be stable (rho(Phi) < 1)"),
    "initial_state_length": (replace_line("initial_state", "initial_state = 0\n"),
                             ": [subject]: initial_state must have 2 values, not "),
    "negative_seed": (replace_line("seed", "seed = -1\n"),
                      ": [subject]: seed = -1 must be >= 0"),
    # the id names trace files and a trace metadata line
    "id_nul": (replace_line("id", "id = A\0B\n"),
               ": [subject] id: 'A\\x00B' holds a line break, NUL or '/'"),
    "id_slash": (replace_line("id", "id = A/B\n"),
                 ": [subject] id: 'A/B' holds a line break, NUL or '/'"),
    "id_long": (replace_line("id", f"id = {'x' * 201}\n"),
                ": [subject] id: 201 bytes long, over the 200 that leave room"),
}


@pytest.mark.parametrize("edit, message", BAD_SUBJECT.values(), ids=BAD_SUBJECT)
def test_bad_subject_file_names_file_and_key(tmp_path, capsys, edit, message):
    path = subject_ini(tmp_path, edit)
    rc = main(["run", "--subject", str(path), "--algorithm", "fixed",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {path}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# case id -> (an INI text configparser rejects, error after 'error: <path>')
MALFORMED_INI = {
    "no_section_header": ("lambda = 1\n",
                          ": line 1: 'lambda = 1' is not under a [section] header"),
    "repeated_key": ("[experiment]\niterations = 30\niterations = 40\n",
                     ": line 3: [experiment] iterations: repeated key"),
    "repeated_section": ("[experiment]\n[personalizer]\n[experiment]\n",
                         ": line 3: [experiment]: repeated section"),
    "no_delimiter": ("[experiment]\niterations 30\n",
                     ": line 2: cannot parse 'iterations 30"),
}


@pytest.mark.parametrize("flag", ["--config", "--subject"])
@pytest.mark.parametrize("text, message", MALFORMED_INI.values(), ids=MALFORMED_INI)
def test_malformed_ini_names_file_and_line(tmp_path, capsys, flag, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    rc = main(["run", flag, str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {path}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_percent_in_ini_value_is_an_ordinary_character(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[personalizer]\nk = %(x)s\n", encoding="utf-8")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"error: {cfg}: [personalizer] k: could not convert string to "
            "float: '%(x)s'") in capsys.readouterr().err
    path = subject_ini(tmp_path, replace_line("id", "id = %(x)s 100%\n"))
    rc = main(["run", "--subject", str(path), "--algorithm", "fixed",
               "--iterations", "3", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert read_trace_csv(tmp_path / "out" / "trace_fixed_%(x)s 100%_s0.csv") \
        .metadata["subject_id"] == "%(x)s 100%"


def test_oversized_trace_cell_names_file_and_line(tmp_path, capsys):
    # csv's reader refuses a field over its 131,072-character limit
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_A_s0.csv").read_text(encoding="utf-8").splitlines(
        keepends=True)
    lines[5 + 7] = lines[5 + 7].rstrip("\r\n") + "x" * 131_073 + "\r\n"  # row 7
    path = tmp_path / "big.csv"
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    rc = main(["identify", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"error: {path}: line 13: field larger than field limit (131072)"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def edit_row_3(edit):
    """An edit of a trace's lines that passes data row 3 through edit."""
    def lines_edit(lines):
        lines[5 + 3] = edit(lines[5 + 3])  # 4 metadata lines, header
        return lines
    return lines_edit


# case id -> (edit of a 201-row sweep trace's lines, error after '<path>: ')
MALFORMED_TRACE = {
    # strict csv: a quote that is never closed ends the file inside a cell,
    # where a lenient reader would read the rest of the file into that cell
    "quote_in_branch_cell": (edit_row_3(lambda line: line.rstrip("\r\n") + '"\r\n'),
                             "line 206: unexpected end of data"),
    "quote_at_row_start": (edit_row_3(lambda line: '"' + line),
                           "line 206: unexpected end of data"),
    # the EpisodeTrace constructor's errors, and a row named by its index
    "dropped_row": (lambda lines: lines[:5 + 3] + lines[5 + 4:],
                    "trace iterations must be contiguous from 0"),
    "extra_cell": (edit_row_3(lambda line: line.rstrip("\r\n") + ",x\r\n"),
                   "trace row 3 has 9 cells, expected 8"),
}


@pytest.mark.parametrize("edit, message", MALFORMED_TRACE.values(), ids=MALFORMED_TRACE)
def test_malformed_trace_names_file(tmp_path, capsys, edit, message):
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_A_s0.csv").read_text(encoding="utf-8").splitlines(
        keepends=True)
    path = tmp_path / "bad.csv"
    path.write_text("".join(edit(lines)), encoding="utf-8")
    capsys.readouterr()
    rc = main(["identify", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


# [subject] key -> its line with a non-finite entry
NONFINITE_SUBJECT = {"lambda": "lambda = -158.15 nan -293.34\n",
                     "phi": "phi = 0 1; inf 0.35\n",
                     "initial_state": "initial_state = inf 0\n"}


@pytest.mark.parametrize("command", [["run"], ["batch"],
                                     ["run", "--algorithm", "fixed"]],
                         ids=["run", "batch", "fixed"])
@pytest.mark.parametrize("key", NONFINITE_SUBJECT)
def test_nonfinite_subject_entry_exits_2(tmp_path, capsys, key, command):
    path = subject_ini(tmp_path, replace_line(key, NONFINITE_SUBJECT[key]))
    rc = main(command + ["--subject", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {path}: [subject] {key}: non-finite value " \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_line_break_in_subject_id_writes_no_trace(tmp_path, capsys):
    # an INI continuation line puts a line break into the id
    path = subject_ini(tmp_path, replace_line("id", "id = left\n  right\n"))
    rc = main(["run", "--subject", str(path), "--algorithm", "fixed",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {path}: [subject] id: 'left\\nright' holds a line break" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "batch"])
def test_missing_subject_file_exits_2_before_output(tmp_path, capsys, command):
    """A --subject flag is checked as an [experiment] subject is: the same
    message from every command, and nothing written."""
    path = tmp_path / "missing.ini"
    reason = f"{str(path)!r} is neither A, B nor a subject file"
    rc = main([command, "--subject", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nsubject = {path}\n")
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}: [experiment] subject: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_batch_on_map_with_no_maximum_writes_nothing(tmp_path, capsys):
    # identify writes such a fit with a warning; a batch needs its theta*
    path = subject_ini(tmp_path, replace_line("lambda", "lambda = 1.0 0.0 0.0\n"))
    rc = main(["batch", "--subject", str(path), "--seed", "0 1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {path}: map is not strictly concave "
                                       "(lam[0] >= 0); no unique maximum\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_one_episode_commands_reject_several_seeds(tmp_path, capsys, command,
                                                   source):
    args = [command, "--subject", "A", "--out", str(tmp_path / "out")]
    if source == "flag":
        args += ["--seed", "1,2,3"]
    else:
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nseeds = 1 2 3\n")
        args += ["--config", str(cfg)]
    rc = main(args)
    assert rc == 2
    assert (f"error: {command} runs one episode, not seeds 1 2 3; use batch "
            "for several seeds") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "batch"])
def test_bad_seed_flag_names_the_flag(tmp_path, capsys, command):
    rc = main([command, "--subject", "A", "--seed", "1,x",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: --seed: invalid literal for int()" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_drives_experiment(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nsubject = B\nalgorithm = blackbox\n"
        "iterations = 30\nseeds = 5\n\n"
        "[personalizer]\nk = 0.05\ntheta_0 = 1.0\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trace_blackbox_B_s5.csv").exists()


def test_blackbox_run_follows_personalizer_section(tmp_path):
    # the black-box loop shares a, omega_o, bounds and theta_0 with the
    # grey-box one, and a run takes them from [personalizer]
    args = ["run", "--algorithm", "blackbox", "--subject", "B", "--seed", "2"]

    def run(name, section):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[personalizer]\n{section}\n")
        assert main(args + ["--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        return read_trace_csv(tmp_path / name / "trace_blackbox_B_s2.csv")

    trace = run("ini", "a = 0.05\nomega_o = 0.5")
    default = run("default", "")
    assert not np.array_equal(trace.column("theta_applied"),
                              default.column("theta_applied"))
    # k is the grey-box optimizer gain; the black-box integrator keeps its own
    assert EpisodeTrace(run("k", "k = 0.2").columns, default.metadata) == default

    es = BlackBoxEs(PersonalizerConfig(dither_amplitude=0.05, omega_o=0.5))
    subj = subject_b(seed=2)
    theta = es.applied_theta()
    for _ in range(len(trace.columns.iteration)):
        theta = es.step(subj.step(theta))
    assert trace == EpisodeTrace(es.columns, trace.metadata)


# case id -> ([personalizer] line, text the error must contain)
INVALID_PERSONALIZER = {
    "dither_span": ("a = 0.5", "dither span 4a"),  # 4a wider than the bounds
    "bounds_order": ("bounds = 2.4 0.8", "bounds"),  # bounds not increasing
    "k_zero": ("k = 0", "k = 0"),
    "k_negative": ("k = -1", "k = -1"),
    "epsilon_nan": ("epsilon = nan", "epsilon = nan"),
    "k_inf": ("k = inf", "k = inf"),
    "omega_o_nyquist": ("omega_o = 1.5707963267948966", "omega_o"),
    "H_zero": ("H = 0", "H = 0"),
    "Q_inf": ("Q = inf", "Q = inf"),
    "L_short": ("L = 1.5 0.25 0.25", "L must have 5 values"),
    "L_unstable": ("L = 50 0 0 0 0", "unstable"),  # observer closed loop
    "a_underflow": ("a = 1e-170", "underflows"),  # a^2 is 0
}
# command prefix of the case id -> arguments; run keeps the bare case ids
COMMANDS = {"": ["run"], "batch-": ["batch"],
            "blackbox-": ["run", "--algorithm", "blackbox"]}


@pytest.mark.parametrize("command, section, message", [
    pytest.param(command, section, message, id=prefix + case)
    for prefix, command in COMMANDS.items()
    for case, (section, message) in INVALID_PERSONALIZER.items()])
def test_invalid_personalizer_config_exits_2(tmp_path, capsys, command,
                                             section, message):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[personalizer]\n{section}\n")
    rc = main(command + ["--config", str(cfg), "--subject", "A",
                         "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert message in err
    assert f"error: {cfg}: [personalizer]" in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_loop_flags(tmp_path):
    # the sweep schedule is fixed at 201 iterations, so neither flag applies
    for flag in (["--iterations", "5"], ["--algorithm", "greybox"]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--subject", "A", "--out", str(tmp_path)] + flag)
        assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_identify_rejects_nonfinite_sample(tmp_path, capfd):
    rc = main(["sweep", "--subject", "A", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    sweep = (tmp_path / "sweep_A_s0.csv").read_text(encoding="utf-8")
    for column in ("theta_applied", "J"):
        lines = sweep.splitlines(keepends=True)
        cells = lines[5 + 7].split(",")  # 4 metadata lines, header, row 7
        cells[TRACE_COLUMNS.index(column)] = ""
        lines[5 + 7] = ",".join(cells)
        path = tmp_path / f"blank_{column}.csv"
        path.write_text("".join(lines), encoding="utf-8")
        capfd.readouterr()
        rc = main(["identify", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        out, err = capfd.readouterr()
        assert "non-finite sample at index 7" in err
        assert "DLASCL" not in out + err
        assert not (tmp_path / "out").exists()


def test_identify_rejects_synergy_with_no_finite_square_at_once(tmp_path):
    """A last synergy of 1e160 squares to inf; identify exits 2 naming it
    instead of waiting on a least-squares solve of an inf design."""
    assert main(["sweep", "--subject", "A", "--seed", "0", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_A_s0.csv").read_text(encoding="utf-8").splitlines(
        keepends=True)
    cells = lines[-1].split(",")
    cells[TRACE_COLUMNS.index("theta_applied")] = "1e160"
    lines[-1] = ",".join(cells)
    path = tmp_path / "huge.csv"
    path.write_text("".join(lines), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(synergy_es.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "synergy_es.cli", "identify", str(path),
                           "--out", str(tmp_path / "out")], capture_output=True,
                          text=True, env=env, timeout=30)
    assert done.returncode == 2
    assert done.stderr == ("error: synergy value 1e+160 at index 200 has no "
                           "finite square\n")
    assert not (tmp_path / "out").exists()


def test_error_exit_code(tmp_path, capsys):
    rc = main(["identify", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("noise_std", ["-5", "nan", "inf"])
def test_invalid_noise_std_exits_2(tmp_path, capsys, noise_std):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nnoise_std = {noise_std}\n")
    rc = main(["run", "--config", str(cfg), "--subject", "A",
               "--algorithm", "fixed", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "noise_std" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fixed_theta", ["nan", "inf", "-inf"])
def test_nonfinite_fixed_theta_exits_2(tmp_path, capsys, fixed_theta):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nfixed_theta = {fixed_theta}\n")
    rc = main(["run", "--config", str(cfg), "--subject", "A",
               "--algorithm", "fixed", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "fixed_theta" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_iterations_rejected(tmp_path, capsys):
    rc = main(["run", "--subject", "A", "--algorithm", "fixed",
               "--iterations", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# what a fuzzed file may have inserted: csv's and configparser's special
# characters, a cell over csv's 131,072-character field limit and the byte
# 0xff, which is not UTF-8 (its surrogate escape, written back as the byte)
FUZZ_TOKENS = ("%", '"', "\r", "\0", "x" * 131_073, "\udcff")
LINE = st.integers(0, 1_000)  # taken modulo the file's line count
MUTATION = st.one_of(st.tuples(st.just("drop"), LINE),
                     st.tuples(st.just("repeat"), LINE),
                     st.tuples(st.just("swap"), LINE, LINE),
                     st.tuples(st.just("insert"), LINE, st.integers(0, 100),
                               st.sampled_from(FUZZ_TOKENS)))


def mutate(text, mutations):
    """text with its lines dropped, repeated, swapped or cut into."""
    lines = text.splitlines(keepends=True)
    for kind, i, *rest in mutations:
        if not lines:
            break
        i %= len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = rest[0] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            at, token = rest
            at %= len(lines[i]) + 1
            lines[i] = lines[i][:at] + token + lines[i][at:]
    return "".join(lines)


# kind of input file -> the commands that read one at path and write to out
FUZZ_COMMANDS = {
    "trace": lambda path, out: [["identify", path, "--out", out],
                                ["compare", "--a", path, "--b", path,
                                 "--theta-star", "1.7"]],
    "subject": lambda path, out: [["run", "--subject", path, "--algorithm", "fixed",
                                   "--iterations", "3", "--out", out]],
    "experiment": lambda path, out: [["run", "--config", path, "--out", out]],
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """kind of input file -> a valid file of that kind."""
    tmp = tmp_path_factory.mktemp("valid")
    assert main(["sweep", "--out", str(tmp)]) == 0
    save_subject(tmp / "s.ini", subject_a())
    (tmp / "exp.ini").write_text(
        "[experiment]\nsubject = B\nalgorithm = greybox\niterations = 30\n"
        "seeds = 5\nnoise_std = 1.0\n\n[personalizer]\nk = 0.05\ntheta_0 = 1.0\n"
        "Q = 5.0\n", encoding="utf-8")
    return {"trace": tmp / "sweep_A_s0.csv", "subject": tmp / "s.ini",
            "experiment": tmp / "exp.ini"}


@given(kind=st.sampled_from(sorted(FUZZ_COMMANDS)),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
def test_mutated_input_file_exits_0_or_2_naming_it(valid_inputs, kind, mutations):
    """Every command returns 0 or 2 and raises nothing; a 2 names the file."""
    text = valid_inputs[kind].read_bytes().decode("utf-8")  # line ends as written
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(mutate(text, mutations).encode("utf-8", "surrogateescape"))
        for argv in FUZZ_COMMANDS[kind](path, os.path.join(tmp, "out")):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc in (0, 2), (argv, err.getvalue())
            if rc == 2:
                assert path in err.getvalue(), (argv, err.getvalue())


@pytest.mark.parametrize("kind", sorted(FUZZ_COMMANDS))
def test_input_file_not_utf8_exits_2_naming_file_and_byte(valid_inputs, tmp_path, capsys,
                                                         kind):
    data = valid_inputs[kind].read_bytes()
    at = len(data) - 10  # in a trace, past the first 8 KiB that open() decodes at once
    path = tmp_path / "input"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    for argv in FUZZ_COMMANDS[kind](str(path), str(tmp_path / "out")):
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: byte {at}: not UTF-8 (invalid start byte)\n"
