"""Episodes against golden traces recorded before the float closed loop.

tests/golden/ holds the default-config, seed-0 trace of every algorithm on
subjects A and B. Black-box, sweep and fixed runs must reproduce them
exactly. Grey-box runs may move in the last bits (the observer's small
products are rounded differently, and the band-pass design is built in
closed form), so they must keep the metadata and every branch, with the
synergy columns within 1e-12. Under other BLAS kernels every algorithm's
episodes, grey-box included, must match the default kernel's byte for
byte: only identify's lstsq and the observer's eigvals stability check
still call LAPACK, and neither sets a trace bit.

It also holds both plots of a black-box batch on B over seeds 0-9, which
must come out byte for byte (black-box traces are exact).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from synergy_es.harness import (ALGORITHMS, ExperimentConfig, read_trace_csv,
                                run_batch, run_episode, write_trace_csv)

GOLDEN = Path(__file__).parent / "golden"


def assert_matches_golden(trace, algorithm, subject):
    golden = read_trace_csv(GOLDEN / f"{algorithm}_{subject}_s0.csv")
    if algorithm != "greybox":
        assert trace == golden
        return
    assert trace.metadata == golden.metadata
    assert trace.column("branch") == golden.column("branch")
    for name in ("theta_hat", "theta_applied"):
        assert_allclose(trace.column(name), golden.column(name), rtol=0, atol=1e-12)
    assert np.array_equal(trace.column("iteration"), golden.column("iteration"))


@pytest.mark.parametrize("subject", "AB")
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_episode_matches_golden_trace(algorithm, subject):
    assert_matches_golden(run_episode(ExperimentConfig(
        subject=subject, algorithm=algorithm, seeds=(0,))), algorithm, subject)


def write_golden_episodes(out):
    """The seed-0 episode of every algorithm on A and B, as CSV in out."""
    for algorithm in ALGORITHMS:
        for subject in "AB":
            write_trace_csv(run_episode(ExperimentConfig(
                subject=subject, algorithm=algorithm, seeds=(0,))),
                Path(out) / f"{algorithm}_{subject}_s0.csv")


@pytest.mark.parametrize("coretype", ["Nehalem", "Prescott"])
def test_golden_episodes_on_kernels_without_fma(tmp_path, coretype):
    """OPENBLAS_CORETYPE makes OpenBLAS pick an older CPU's kernels, which
    do not fuse products. No trace bit goes through BLAS or LAPACK (the
    subject step and the filter and observer coefficients are Python floats), so
    every algorithm's episodes, grey-box included, come out byte for byte
    as under the default kernel."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import runpy, sys; runpy.run_path({__file__!r})"
            "['write_golden_episodes'](sys.argv[1])")
    (tmp_path / coretype).mkdir()
    subprocess.run([sys.executable, "-c", code, str(tmp_path / coretype)],
                   env=env, check=True, timeout=300)
    write_golden_episodes(tmp_path)
    for algorithm in ALGORITHMS:
        for subject in "AB":
            name = f"{algorithm}_{subject}_s0.csv"
            data = (tmp_path / coretype / name).read_bytes()
            assert data == (tmp_path / name).read_bytes(), name
            if algorithm != "greybox":  # recorded exactly, see the module docstring
                assert data == (GOLDEN / name).read_bytes(), name


def test_batch_plots_match_golden_svgs(tmp_path):
    run_batch(ExperimentConfig(subject="B", algorithm="blackbox",
                               seeds=tuple(range(10)), output_dir=str(tmp_path)))
    for name in ("theta_blackbox.svg", "performance_blackbox.svg"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
