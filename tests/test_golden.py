"""Episodes against golden traces recorded before the float closed loop.

tests/golden/ holds the default-config, seed-0 trace of every algorithm on
subjects A and B. Black-box, sweep and fixed runs must reproduce them
exactly. Grey-box runs may move in the last bits (the observer's small
products are rounded differently), so they must keep the metadata and
every branch, with the synergy columns within 1e-12.

It also holds both plots of a black-box batch on B over seeds 0-9, which
must come out byte for byte (black-box traces are exact).
"""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from synergy_es.harness import (ALGORITHMS, ExperimentConfig, read_trace_csv,
                                run_batch, run_episode)

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("subject", "AB")
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_episode_matches_golden_trace(algorithm, subject):
    golden = read_trace_csv(GOLDEN / f"{algorithm}_{subject}_s0.csv")
    trace = run_episode(ExperimentConfig(subject=subject, algorithm=algorithm,
                                         seeds=(0,)))
    if algorithm != "greybox":
        assert trace == golden
        return
    assert trace.metadata == golden.metadata
    assert trace.column("branch") == golden.column("branch")
    for name in ("theta_hat", "theta_applied"):
        assert_allclose(trace.column(name), golden.column(name), rtol=0, atol=1e-12)
    assert np.array_equal(trace.column("iteration"), golden.column("iteration"))


def test_batch_plots_match_golden_svgs(tmp_path):
    run_batch(ExperimentConfig(subject="B", algorithm="blackbox",
                               seeds=tuple(range(10)), output_dir=str(tmp_path)))
    for name in ("theta_blackbox.svg", "performance_blackbox.svg"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
