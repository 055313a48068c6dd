"""Tests for the command-line surface."""

import csv
import os

import numpy as np
import pytest

from synergy_es.cli import main
from synergy_es.harness import read_trace_csv
from synergy_es.subject import subject_a


def test_run_writes_trace(tmp_path, capsys):
    rc = main(["run", "--subject", "A", "--algorithm", "greybox",
               "--seed", "3", "--out", str(tmp_path), "--iterations", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    path = tmp_path / "trace_greybox_A_s3.csv"
    assert path.exists()
    trace = read_trace_csv(path)
    assert len(trace.rows) == 40
    assert trace.metadata["seed"] == 3


def test_sweep_command(tmp_path):
    rc = main(["sweep", "--subject", "B", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    trace = read_trace_csv(tmp_path / "sweep_B_s0.csv")
    assert len(trace.rows) == 201
    assert trace.rows[0].theta_applied == 0.8


def test_batch_command(tmp_path, capsys):
    rc = main(["batch", "--subject", "A", "--algorithm", "greybox",
               "--seed", "0 1 2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "episodes: 3" in out
    assert (tmp_path / "summary_greybox.csv").exists()


def test_identify_command(tmp_path, capsys):
    data = tmp_path / "record.csv"
    subj = subject_a(seed=0, noise_std=1.0)
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "theta", "performance"])
        for i in range(200):
            th = 0.8 + i / 125.0
            writer.writerow([i, th, subj.step(th)])
    rc = main(["identify", str(data), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "identification_report.txt").exists()
    assert (tmp_path / "identified_subject.ini").exists()


def test_identify_reads_sweep_trace(tmp_path):
    rc = main(["sweep", "--subject", "A", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["identify", str(tmp_path / "sweep_A_s0.csv"), "--order", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "lti order: 3" in (tmp_path / "identification_report.txt").read_text()
    assert (tmp_path / "identified_subject.ini").exists()


def test_batch_failure_prints_type(tmp_path, capsys):
    rc = main(["batch", "--subject", str(tmp_path / "missing.ini"),
               "--algorithm", "fixed", "--seed", "4", "--out", str(tmp_path)])
    assert rc == 1
    assert "seed 4: FileNotFoundError: " in capsys.readouterr().err


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


def test_config_file_drives_experiment(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nsubject = B\nalgorithm = blackbox\n"
        "iterations = 30\nseeds = 5\n\n"
        "[personalizer]\nk = 0.05\ntheta_0 = 1.0\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trace_blackbox_B_s5.csv").exists()


@pytest.mark.parametrize("section", [
    "a = 0.5\n",  # dither span 4a wider than the bounds
    "bounds = 2.4 0.8\n",  # bounds not increasing
], ids=["dither_span", "bounds_order"])
def test_invalid_personalizer_config_exits_2(tmp_path, capsys, section):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[personalizer]\n" + section)
    rc = main(["run", "--config", str(cfg), "--subject", "A",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_error_exit_code(tmp_path, capsys):
    rc = main(["identify", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_zero_iterations_rejected(tmp_path, capsys):
    rc = main(["run", "--subject", "A", "--algorithm", "fixed",
               "--iterations", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
