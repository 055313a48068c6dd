"""Tests for the command-line surface."""

import csv
import os

import numpy as np
import pytest

from synergy_es.baseline import BlackBoxEs
from synergy_es.cli import main
from synergy_es.harness import TRACE_COLUMNS, EpisodeTrace, read_trace_csv
from synergy_es.personalizer import PersonalizerConfig
from synergy_es.subject import subject_a, subject_b


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
    # a trace with its header and no rows
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:5]), encoding="utf-8")
    rc = main(["compare", "--a", str(path), "--b", str(path),
               "--theta-star", "1.0"])
    assert rc == 2
    assert "no rows" in capsys.readouterr().err


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
    assert EpisodeTrace(run("k", "k = 0.2").rows, default.metadata) == default

    es = BlackBoxEs(PersonalizerConfig(dither_amplitude=0.05, omega_o=0.5))
    subj = subject_b(seed=2)
    theta = es.applied_theta()
    for _ in range(len(trace.rows)):
        theta = es.step(subj.step(theta))
    assert trace == EpisodeTrace(es.records, trace.metadata)


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
