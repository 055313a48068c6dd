"""Tests for the black-box perturbation ES baseline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from synergy_es import baseline
from synergy_es.baseline import BlackBoxEs
from synergy_es.personalizer import PersonalizerConfig
from synergy_es.subject import (LAMBDA_A, PreferenceMap, static_subject,
                                subject_b)


class TestBlackBoxEs:
    def test_constant_input_no_drift(self):
        es = BlackBoxEs()
        hats = []
        for _ in range(200):
            es.step(50.0)
            hats.append(es.theta_hat)
        assert abs(hats[199] - hats[49]) <= 1e-3

    def test_converges_on_static_quadratic(self):
        es = BlackBoxEs()
        subj = static_subject(PreferenceMap(LAMBDA_A))
        ths = PreferenceMap(LAMBDA_A).optimum()
        th = es.applied_theta()
        for _ in range(500):
            th = es.step(subj.step(th))
        assert abs(es.theta_hat - ths) < 0.1

    def test_fails_on_subject_b_with_shared_tuning(self):
        # learning dynamics + noise + the shared small gain: the baseline
        # has not identified the synergy by the end of the session
        ths = subject_b().optimum()
        failures = 0
        for seed in range(20):
            es = BlackBoxEs()
            subj = subject_b(seed=seed)
            th = es.applied_theta()
            for _ in range(150):
                th = es.step(subj.step(th))
            if abs(es.theta_hat - ths) >= 0.1:
                failures += 1
        assert failures > 10  # majority of seeds

    def test_output_bounds(self):
        es = BlackBoxEs()
        rng = np.random.default_rng(0)
        for _ in range(300):
            th = es.step(rng.uniform(-50, 250))
            assert 0.8 <= th <= 2.4

    def test_zero_dither_immobile(self):
        cfg = PersonalizerConfig(dither_amplitude=0.0)
        es = BlackBoxEs(cfg)
        subj = static_subject(PreferenceMap(LAMBDA_A))
        th = es.applied_theta()
        hats = []
        for _ in range(120):
            th = es.step(subj.step(th))
            hats.append(es.theta_hat)
        assert abs(hats[-1] - hats[20]) <= 1e-6

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_rejected(self, bad):
        # a rejected first sample leaves the washout unstarted: the next
        # sample still starts it at its steady state
        es = BlackBoxEs()
        with pytest.raises(ValueError, match="non-finite"):
            es.step(float(bad))
        assert (es.iteration, es.columns) == (0, ([],) * 8)
        es.step(50.0)
        assert es.columns.filtered_output[0] == 0.0

    def test_default_gain_is_comparison_value(self):
        assert baseline.GAIN == 0.005

    def test_trace_schema_compatible(self):
        es = BlackBoxEs()
        for i in range(10):
            es.step(float(i))
        columns = es.columns
        assert columns.iteration[-1] == 9
        assert np.isnan(columns.curv_est[-1])
        assert columns.branch[-1] == ""
