"""Tests for the grey-box extremum-seeking loop."""

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import synergy_es
from synergy_es.baseline import GAIN, HIGHPASS_CUTOFF_RATIO, BlackBoxEs
from synergy_es.personalizer import (DEFAULT_L, GRADIENT, NEWTON, OBSERVER_PHI,
                                     OBSERVER_PSI, BandPassFilter, EsLoop,
                                     GradCurvObserver, Personalizer,
                                     PersonalizerConfig, StepRecord,
                                     SwitchedOptimizer, clamp)
from synergy_es.subject import (LAMBDA_A, LAMBDA_B, MotorNoise, PreferenceMap,
                                SimulatedSubject, static_subject, subject_a,
                                subject_b)

W = np.pi / 4
LONG_RUN = 256  # iterations of the tests' runs of a few hundred


def optimizer(**kwargs):
    """SwitchedOptimizer with the published tuning, overridden by kwargs."""
    tuning = dict(gain=0.05, omega_o=W, epsilon=0.1, bounds=(0.8, 2.4),
                  theta_hat=1.0, step_max=np.inf)
    return SwitchedOptimizer(**{**tuning, **kwargs})


class TestBandPass:
    def test_design_gain_at_center(self):
        f = BandPassFilter(W, 0.5, 5.0)
        wc = np.sqrt(2) * W
        assert_allclose(abs(f.frequency_response(wc)), 0.5, atol=0.025)

    def test_dc_rejection(self):
        f = BandPassFilter(W, 0.5, 5.0)
        assert abs(f.frequency_response(1e-9)) <= 0.02

    def test_constant_input_decays(self):
        f = BandPassFilter(W, 0.5, 5.0)
        out, state = 0.0, None
        for _ in range(200):
            out, state = f.step(state, 123.4)
        assert abs(out) < 1e-6

    def test_stability(self):
        f = BandPassFilter(W, 0.5, 5.0)
        assert f.spectral_radius() < 1.0

    def test_aliasing_rejected(self):
        # the check lives in the config, which every filter is built from
        with pytest.raises(ValueError, match="omega_o"):
            PersonalizerConfig(omega_o=np.pi / 2)

    def test_zero_state_zero_output(self):
        f = BandPassFilter(W, 0.5, 5.0)
        assert f.step(None, 0.0)[0] == 0.0

    def test_impulse_matches_direct_recursion(self):
        # state-space trace vs transfer-function recursion oracle
        f = BandPassFilter(W, 0.5, 5.0)
        outs, state = [], None
        for i in range(40):
            out, state = f.step(state, 1.0 if i == 0 else 0.0)
            outs.append(out)
        # oracle: same filter re-materialized, run on the same input
        g = BandPassFilter(W, 0.5, 5.0)
        x = np.zeros(2)
        ref = []
        for i in range(40):
            u = 1.0 if i == 0 else 0.0
            if i == 0:
                x = np.linalg.solve(np.eye(2) - g.ad, g.bd * u)
            ref.append(float(g.cd @ x + g.dd * u))
            x = g.ad @ x + g.bd * u
        assert_allclose(outs, ref, atol=1e-12)

    def test_sinusoid_gain_at_center(self):
        f = BandPassFilter(W, 0.5, 5.0)
        wc = np.sqrt(2) * W
        outs, state = [], None
        for i in range(600):
            out, state = f.step(state, np.sin(wc * i))
            outs.append(out)
        amp = (max(outs[-100:]) - min(outs[-100:])) / 2
        assert_allclose(amp, 0.5, atol=0.03)

    @given(omega_o=st.floats(0.01, np.pi / 2 - 0.01),
           H=st.floats(0.01, 10.0), Q=st.floats(0.1, 100.0))
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    def test_stable_for_any_valid_design_property(self, omega_o, H, Q):
        assert BandPassFilter(omega_o, H, Q).spectral_radius() < 1.0


class TestObserver:
    def test_zero_stays_zero(self):
        obs = GradCurvObserver(W, DEFAULT_L)
        z = obs.step((0.0,) * 5, 0.0)
        assert_allclose(z, 0.0, atol=0.0)

    def test_injection_direction_matches_gain(self):
        # one unit of innovation from rest enters along the designed gain
        obs = GradCurvObserver(W, DEFAULT_L)
        z = obs.step((0.0,) * 5, 1.0)
        assert_allclose(z, obs.injection, atol=1e-15)
        # the injection is the integrated flow applied to w*L
        assert obs.injection.shape == (5,)
        assert obs.injection @ (W * DEFAULT_L) > 0

    def test_closed_loop_stable_with_default_gain(self):
        obs = GradCurvObserver(W, DEFAULT_L)
        assert obs.closed_loop_radius < 1.0

    def test_printed_recursion_would_be_unstable(self):
        # the literal printed one-step recursion diverges with the printed
        # gain; this pins down why the exact discretization is used
        m = W * (OBSERVER_PHI - np.outer(DEFAULT_L, OBSERVER_PSI))
        assert np.max(np.abs(np.linalg.eigvals(m))) > 1.0

    def test_unstable_gain_rejected(self):
        # the check lives in the config, which builds every observer
        with pytest.raises(ValueError):
            PersonalizerConfig(observer_gain=(50.0, 0.0, 0.0, 0.0, 0.0))

    def test_tracks_dither_band_components_exactly(self):
        obs = GradCurvObserver(W, DEFAULT_L)
        want = dict(dc=3.0, s1=2.0, c1=0.5, s2=1.2, c2=-0.8)
        z = (0.0,) * 5
        for i in range(400):
            u = (want["dc"] + want["s1"] * np.sin(W * i)
                 + want["c1"] * np.cos(W * i)
                 + want["s2"] * np.sin(2 * W * i)
                 + want["c2"] * np.cos(2 * W * i))
            z = obs.step(z, u)
        i = 400
        g_chan, c_chan = obs.demodulate(z, i, 0.0, 0.0)
        # gradient channel returns the sin amplitude at w
        assert_allclose(g_chan, want["s1"], atol=1e-6)
        # curvature channel returns -4x the cos amplitude at 2w
        assert_allclose(c_chan, -4.0 * want["c2"], atol=1e-6)
        assert_allclose(z[0], want["dc"], atol=1e-6)

    def test_injection_matches_50_digit_reference(self):
        # the flow integral's 1 - cos kw, formed as 2 sin(kw/2)^2, does not
        # cancel at small w: every entry stays within two ulps of the
        # largest one (1 - cos kw formed directly is 13 ulps off)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for w in np.linspace(0.01, np.pi / 4, 500):
            wm = mpmath.mpf(w)
            v = [wm * mpmath.mpf(x) for x in DEFAULT_L]
            ref = [v[0]]
            for k in (1, 2):
                s, h = mpmath.sin(k * wm), 1 - mpmath.cos(k * wm)
                a, b = v[2 * k - 1], v[2 * k]
                ref += [(s * a + h * b) / (k * wm), (s * b - h * a) / (k * wm)]
            ref = np.array([float(r) for r in ref])
            err = np.max(np.abs(GradCurvObserver(w, DEFAULT_L).injection - ref))
            assert err <= 2 * np.spacing(np.max(np.abs(ref))), w


class TestDesign:
    def test_personalizers_share_their_configs_design(self):
        cfg = PersonalizerConfig(dither_amplitude=0.03)
        p, q = Personalizer(cfg), Personalizer(cfg)
        assert p.config.design is q.config.design is cfg.design
        assert p.filter is q.filter is cfg.design[0]
        assert p.observer is q.observer is cfg.design[1]
        assert Personalizer().config.design is Personalizer().config.design

    def test_config_is_frozen_and_replace_designs_anew(self):
        cfg = PersonalizerConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.omega_o = 0.5
        assert cfg.omega_o == np.pi / 4
        other = replace(cfg, omega_o=0.5)
        assert other.design is not cfg.design
        assert other.design[1].omega_o == 0.5
        assert cfg.design[1].omega_o == np.pi / 4
        assert other.design[2] != cfg.design[2]  # the chain at w moved


class TestDither:
    def test_zero_at_start(self):
        assert Personalizer().dither(0) == 0.0

    def test_spot_value(self):
        d = Personalizer().dither(1)
        assert_allclose(d, 0.02 * np.sin(W) + 0.02 * np.sin(W * 2), atol=1e-15)
        assert_allclose(d, 0.03414, atol=1e-5)

    def test_amplitude_bound(self):
        p = Personalizer()
        vals = [abs(p.dither(i)) for i in range(1001)]
        assert max(vals) <= 0.04


class TestOptimizer:
    def test_newton_branch(self):
        opt = optimizer(theta_hat=1.0)
        opt.update(0.05, -1.0)  # |0.05| < 0.1*1
        assert opt.last_branch == NEWTON
        assert_allclose(opt.theta_hat, 1.0 + 0.05 * W * 0.05, atol=1e-12)

    def test_gradient_branch(self):
        opt = optimizer(theta_hat=1.0)
        opt.update(1.0, -1.0)  # 1.0 >= 0.1
        assert opt.last_branch == GRADIENT
        assert_allclose(opt.theta_hat, 1.0 + 0.05 * W * 1.0, atol=1e-12)

    def test_zero_gradient_fixed_point(self):
        opt = optimizer(theta_hat=1.3)
        opt.update(0.0, -5.0)
        assert opt.theta_hat == 1.3
        opt.update(0.0, 0.0)  # 0 < 0 is false: gradient branch, no division
        assert opt.theta_hat == 1.3

    def test_positive_curvature_forces_gradient(self):
        opt = optimizer(theta_hat=1.0)
        opt.update(0.01, 2.0)
        assert opt.last_branch == GRADIENT

    def test_bounds_clamp(self):
        opt = optimizer(theta_hat=2.39, bounds=(0.8, 2.4))
        opt.update(100.0, -1.0)
        assert opt.theta_hat == 2.4

    def test_step_cap(self):
        opt = optimizer(theta_hat=1.0, step_max=0.04)
        opt.update(100.0, -1.0)
        assert_allclose(opt.theta_hat, 1.04, atol=1e-12)


class TestPersonalizerLoop:
    def test_defaults_match_published_tuning(self):
        cfg = PersonalizerConfig()
        assert cfg.omega_o == np.pi / 4
        assert cfg.dither_amplitude == 0.02
        assert cfg.gain == 0.05
        assert cfg.epsilon == 0.1
        assert cfg.filter_gain == 0.5
        assert cfg.filter_q == 5.0
        assert tuple(cfg.observer_gain) == (1.5, 0.25, 0.25, 2.0, -2.0)
        assert cfg.theta_0 == 1.0
        assert tuple(cfg.bounds) == (0.8, 2.4)
        assert cfg.warmup_iterations == 8

    def test_warmup_freezes_estimate(self):
        p = Personalizer()
        subj = subject_a(noise_std=0.0)
        th = p.applied_theta()
        for i in range(8):
            th = p.step(subj.step(th))
            assert p.theta_hat == 1.0
            expected = np.clip(1.0 + p.dither(i + 1), 0.8, 2.4)
            assert_allclose(th, expected, atol=1e-12)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("loop", [Personalizer, BlackBoxEs],
                             ids=["greybox", "blackbox"])
    def test_nonfinite_performance_rejected(self, loop, bad):
        # the shared step rejects a sensor fault before it touches any state
        p = loop()
        subj = subject_a(seed=3)
        th = p.applied_theta()
        for _ in range(12):  # past the warmup, so the estimate has moved
            th = p.step(subj.step(th))
        before = (p.iteration, len(p.records), p.theta_hat, p.applied_theta())
        with pytest.raises(ValueError, match="non-finite"):
            p.step(float(bad))
        assert (p.iteration, len(p.records), p.theta_hat,
                p.applied_theta()) == before

    def test_theta_always_within_bounds(self):
        for seed in range(10):
            p = Personalizer()
            subj = subject_b(seed=seed)
            th = p.applied_theta()
            for _ in range(150):
                th = p.step(subj.step(th))
                assert 0.8 <= th <= 2.4
                assert 0.8 <= p.theta_hat <= 2.4

    @pytest.mark.parametrize("kwargs", [
        {"bounds": (2.4, 0.8)}, {"bounds": (1.0, 1.0)}, {"bounds": (0.8, 1.6, 2.4)},
        {"dither_amplitude": -0.01}, {"warmup_iterations": -1},
        {"dither_amplitude": 0.4}, {"dither_amplitude": 0.5},
        {"dither_amplitude": 1e-200},  # a^2 underflows in the estimate scaling
        {"gain": 0.0}, {"gain": -1.0}, {"epsilon": np.nan}, {"gain": np.inf},
        {"omega_o": np.pi / 2}, {"filter_gain": 0.0}, {"filter_q": np.inf},
        {"observer_gain": (1.5, 0.25, 0.25)},
        {"dither_amplitude": np.nan}, {"filter_gain": np.nan}, {"theta_0": np.nan},
        {"bounds": (0.8, np.inf)}, {"observer_gain": (1.5, 0.25, np.nan, 2.0, -2.0)},
        {"observer_gain": (50.0, 0.0, 0.0, 0.0, 0.0)},  # unstable observer
    ])
    def test_rejects_unworkable_config(self, kwargs):
        with pytest.raises(ValueError):
            PersonalizerConfig(**kwargs)

    @given(seed=st.integers(0, 2 ** 31 - 1), name=st.sampled_from("AB"),
           lo=st.floats(0.5, 1.5), span=st.floats(0.1, 2.0),
           dither_share=st.floats(0.0, 0.99), theta_0=st.floats(0.0, 4.0))
    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    def test_synergies_stay_in_bounds_property(self, seed, name, lo, span,
                                               dither_share, theta_0):
        a = dither_share * span / 4  # dither span 4a fits inside the bounds
        hi = lo + span
        try:
            cfg = PersonalizerConfig(dither_amplitude=a, bounds=(lo, hi),
                                     theta_0=theta_0)
        except ValueError as exc:  # only an a > 0 whose square underflows
            assert "underflows" in str(exc)
            return
        p = Personalizer(cfg)
        subj = (subject_a if name == "A" else subject_b)(seed=seed)
        th = p.applied_theta()
        for _ in range(150):
            th = p.step(subj.step(th))
        for r in p.records:
            assert lo <= r.theta_applied <= hi
            assert lo + 2 * a <= r.theta_hat <= hi - 2 * a

    @given(name=st.sampled_from("AB"), theta_0=st.floats(0.9, 2.3),
           noisy=st.booleans(), offset=st.floats(-1000.0, 1000.0),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    def test_steady_start_ignores_performance_level_property(
            self, name, theta_0, noisy, offset, seed):
        # a constant added to the map leaves theta* alone; from a steady
        # start the band-pass's DC initialisation removes it exactly, so
        # theta_hat does not move (from a rest start it does: the step up
        # to the J level rings through the pass band)
        def hats(shift):
            ref = (subject_a if name == "A" else subject_b)()
            pmap = PreferenceMap(np.add(ref.map.lam, [0.0, 0.0, shift]))
            dyn = ref.dynamics
            steady = np.linalg.solve(np.eye(dyn.order) - dyn.phi,
                                     dyn.gamma) * pmap.value(theta_0)
            subj = SimulatedSubject(
                pmap, dyn, MotorNoise(0.0, ref.noise.std if noisy else 0.0, seed),
                initial_state=steady)
            p = Personalizer(PersonalizerConfig(theta_0=theta_0))
            th = p.applied_theta()
            for _ in range(150):
                th = p.step(subj.step(th))
            return np.array([r.theta_hat for r in p.records])

        assert np.max(np.abs(hats(offset) - hats(0.0))) <= 1e-9

    def test_zero_dither_immobility(self):
        cfg = PersonalizerConfig(dither_amplitude=0.0)
        p = Personalizer(cfg)
        subj = subject_a(noise_std=0.0)
        th = p.applied_theta()
        for _ in range(120):
            th = p.step(subj.step(th))
            assert abs(p.theta_hat - 1.0) <= 1e-9

    def test_newton_branch_only_with_negative_curvature(self):
        # physical-unit curvature differs from the internal channel by a
        # positive scale, so the sign carries over to the trace rows
        for make, seed in ((subject_a, 0), (subject_b, 4)):
            p = Personalizer()
            subj = make(seed=seed)
            th = p.applied_theta()
            for _ in range(150):
                th = p.step(subj.step(th))
            newtons = [r for r in p.records[9:] if r.branch == NEWTON]
            assert all(r.curv_est < 0 for r in newtons)
        # and directly on the switching law
        opt = optimizer()
        opt.update(0.001, -1.0)
        assert opt.last_branch == NEWTON
        opt.update(0.001, 1.0)
        assert opt.last_branch == GRADIENT

    def test_timescale_bound_on_updates(self):
        p = Personalizer()
        subj = subject_b(seed=3)
        th = p.applied_theta()
        prev = p.theta_hat
        for _ in range(150):
            th = p.step(subj.step(th))
            step = abs(p.theta_hat - prev)
            assert step <= 2 * p.config.dither_amplitude + 1e-12
            prev = p.theta_hat

    def test_noise_free_convergence_subject_a(self):
        p = Personalizer()
        subj = subject_a(noise_std=0.0)
        ths = subj.optimum()
        th = p.applied_theta()
        hats = []
        for _ in range(150):
            th = p.step(subj.step(th))
            hats.append(p.theta_hat)
        assert abs(hats[99] - ths) < 0.05
        assert np.max(np.abs(np.array(hats[99:]) - ths)) < 0.05  # stays

    def test_noise_free_convergence_subject_b_shared_tuning(self):
        p = Personalizer()  # identical configuration
        subj = subject_b(noise_std=0.0)
        ths = subj.optimum()
        th = p.applied_theta()
        hats = []
        for _ in range(150):
            th = p.step(subj.step(th))
            hats.append(p.theta_hat)
        assert abs(hats[99] - ths) < 0.05
        assert np.max(np.abs(np.array(hats[99:]) - ths)) < 0.05

    def test_ascent_on_average_with_noise(self):
        for name, make in (("A", subject_a), ("B", subject_b)):
            early_means, late_means = [], []
            for seed in range(20):
                p = Personalizer()
                subj = make(seed=seed)
                th = p.applied_theta()
                js = []
                for _ in range(150):
                    j = subj.step(th)
                    js.append(j)
                    th = p.step(j)
                early_means.append(np.mean(js[9:34]))
                late_means.append(np.mean(js[-25:]))
            assert np.mean(late_means) > np.mean(early_means)

    def test_estimates_on_static_plant(self):
        # frozen estimate on a static quadratic plant: the demodulated
        # physical-unit estimates converge to the analytic derivatives
        cfg = PersonalizerConfig()
        p = Personalizer(cfg)
        subj = static_subject(PreferenceMap(LAMBDA_A))
        pmap = PreferenceMap(LAMBDA_A)
        frozen = 1.0
        grads = []
        for i in range(200):
            theta = float(np.clip(frozen + p.dither(p.iteration), 0.8, 2.4))
            j = subj.step(theta)
            p.theta_hat = frozen  # freeze the estimate
            p.step(j)
            p.theta_hat = frozen
            grads.append(p.records[-1].grad_est)
        want, _ = pmap.derivatives(frozen)
        assert_allclose(grads[-1], want, rtol=0.02)

    def test_trace_records_complete(self):
        p = Personalizer()
        subj = subject_a(seed=1)
        th = p.applied_theta()
        for _ in range(30):
            th = p.step(subj.step(th))
        assert [r.iteration for r in p.records] == list(range(30))
        for r in p.records:
            assert np.isfinite(r.theta_applied)
            assert np.isfinite(r.grad_est)
            assert r.branch in (NEWTON, GRADIENT)


class ComposedPersonalizer:
    """The grey-box loop as the stages compose it: BandPassFilter.step ->
    GradCurvObserver.step -> .demodulate -> SwitchedOptimizer.update, with
    the per-iteration bookkeeping the loops shared before the flat step.
    The oracle of Personalizer.step."""

    def __init__(self, config):
        self.config = config
        self.filter, self.observer, (self.phase1, self.gain1), \
            (self.phase2, self.gain2) = config.design
        self.filter_state, self.observer_state = None, (0.0,) * 5
        a = config.dither_amplitude
        self.optimizer = SwitchedOptimizer(
            gain=config.gain, omega_o=config.omega_o, epsilon=config.epsilon,
            bounds=(config.bounds[0] + 2 * a, config.bounds[1] - 2 * a),
            theta_hat=config.theta_0, step_max=2 * a)
        self.iteration, self.records = 0, []
        self.applied_theta()

    @property
    def theta_hat(self):
        return self.optimizer.theta_hat

    @theta_hat.setter
    def theta_hat(self, value):
        self.optimizer.theta_hat = value

    def applied_theta(self):
        a, w = self.config.dither_amplitude, self.config.omega_o
        i = self.iteration
        dither = a * math.sin(w * i) + a * math.sin(2.0 * w * i)
        self.theta_applied = clamp(self.theta_hat + dither, *self.config.bounds)
        return self.theta_applied

    def step(self, j):
        filtered, self.filter_state = self.filter.step(self.filter_state, j)
        self.observer_state = self.observer.step(self.observer_state, filtered)
        a = self.config.dither_amplitude
        grad = curv = 0.0
        if a > 0:
            g_chan, c_chan = self.observer.demodulate(
                self.observer_state, self.iteration + 1, self.phase1, self.phase2)
            grad = g_chan / (a * self.gain1)
            curv = c_chan / (a * a * self.gain2)
            if self.iteration >= self.config.warmup_iterations:
                self.optimizer.update(g_chan, c_chan)
        self.records.append(StepRecord(
            self.iteration, self.theta_applied, self.theta_hat, j, filtered,
            grad, curv, self.optimizer.last_branch))
        self.iteration += 1
        return self.applied_theta()


class ComposedBlackBox:
    """The black-box loop on the per-iteration bookkeeping it shared with
    the grey-box loop before the flat steps. The oracle of BlackBoxEs.step."""

    def __init__(self, config):
        self.config = config
        self.alpha = 1.0 / (1.0 + config.omega_o * HIGHPASS_CUTOFF_RATIO)
        self.theta_hat = clamp(config.theta_0, *config.bounds)
        self.hp_y, self.prev_j = 0.0, None
        self.iteration, self.records = 0, []
        self.applied_theta()

    def applied_theta(self):
        cfg = self.config
        dither = cfg.dither_amplitude * math.sin(cfg.omega_o * self.iteration)
        self.theta_applied = clamp(self.theta_hat + dither, *cfg.bounds)
        return self.theta_applied

    def step(self, j):
        cfg = self.config
        if self.prev_j is None:
            self.hp_y = 0.0
        else:
            self.hp_y = self.alpha * (self.hp_y + j - self.prev_j)
        self.prev_j = j
        xi = math.sin(cfg.omega_o * self.iteration) * self.hp_y
        if cfg.dither_amplitude > 0:
            self.theta_hat = clamp(self.theta_hat + GAIN * xi, *cfg.bounds)
        self.records.append(StepRecord(
            self.iteration, self.theta_applied, self.theta_hat, j, self.hp_y,
            math.nan, math.nan, ""))
        self.iteration += 1
        return self.applied_theta()


def drive(loop, subject, n, frozen=None):
    """n closed-loop steps; with frozen, theta_hat is set to it around each."""
    for _ in range(n):
        if frozen is not None:
            loop.theta_hat = frozen
        loop.step(subject.step(loop.applied_theta()))
        if frozen is not None:
            loop.theta_hat = frozen
    # repr is exact for floats, keeps the sign of 0 and makes NaN equal NaN
    return [tuple(map(repr, r)) for r in loop.records]


@st.composite
def configs(draw):
    """Valid PersonalizerConfigs, a = 0 and warmup 0 included."""
    lo = draw(st.floats(0.5, 1.5))
    span = draw(st.floats(0.3, 2.0))
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99).map(lambda s: s * span / 4)))
    try:
        return PersonalizerConfig(
            omega_o=draw(st.floats(0.05, np.pi / 2 - 0.05)), dither_amplitude=a,
            gain=draw(st.floats(0.001, 1.0)), epsilon=draw(st.floats(0.001, 2.0)),
            filter_gain=draw(st.floats(0.05, 5.0)), filter_q=draw(st.floats(0.3, 30.0)),
            observer_gain=tuple(np.multiply(DEFAULT_L, draw(st.floats(0.2, 1.2)))),
            theta_0=draw(st.floats(0.0, 4.0)), bounds=(lo, lo + span),
            warmup_iterations=draw(st.integers(0, 20)))
    except ValueError:  # an unstable observer or an underflowing a^2
        assume(False)


def subject_for(name, seed):
    return (subject_a if name == "A" else subject_b)(seed=seed)


class TestFlatStep:
    """Personalizer.step and BlackBoxEs.step are the stages inlined: the
    same records, bit for bit, as the composed oracles above, on per-config
    tables that grow with every step."""

    @given(cfg=configs(), name=st.sampled_from("AB"), seed=st.integers(0, 2 ** 31 - 1),
           n=st.one_of(st.integers(1, 40), st.integers(LONG_RUN - 2, LONG_RUN + 2),
                       st.integers(900, 1100)))
    @example(cfg=PersonalizerConfig(dither_amplitude=0.0), name="A", seed=0, n=300)
    @example(cfg=PersonalizerConfig(warmup_iterations=0), name="B", seed=1, n=1000)
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    def test_greybox_matches_composed_stages_property(self, cfg, name, seed, n):
        flat = drive(Personalizer(cfg), subject_for(name, seed), n)
        assert flat == drive(ComposedPersonalizer(cfg), subject_for(name, seed), n)

    @given(cfg=configs(), name=st.sampled_from("AB"), seed=st.integers(0, 2 ** 31 - 1),
           n=st.one_of(st.integers(1, 40), st.integers(900, 1100)))
    @example(cfg=PersonalizerConfig(dither_amplitude=0.0), name="B", seed=2, n=300)
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    def test_blackbox_matches_composed_bookkeeping_property(self, cfg, name, seed, n):
        flat = drive(BlackBoxEs(cfg), subject_for(name, seed), n)
        assert flat == drive(ComposedBlackBox(cfg), subject_for(name, seed), n)

    @pytest.mark.parametrize("frozen", [1.0, 1.7, 2.5])  # 2.5: past the bounds
    def test_frozen_estimate_matches_composed_stages(self, frozen):
        cfg = PersonalizerConfig()
        subj = static_subject(PreferenceMap(LAMBDA_A), steady_at=1.0)
        flat = drive(Personalizer(cfg), subj, 300, frozen)
        subj = static_subject(PreferenceMap(LAMBDA_A), steady_at=1.0)
        assert flat == drive(ComposedPersonalizer(cfg), subj, 300, frozen)

    def test_loops_share_their_configs_tables(self):
        cfg = PersonalizerConfig(omega_o=0.3)
        first = drive(Personalizer(cfg), subject_a(seed=5), 2 * LONG_RUN + 3)
        rows = cfg.tables[Personalizer]
        assert len(rows) == 2 * LONG_RUN + 4  # the rows the steps read, no more
        # a second run reads the rows the first one built, and agrees
        assert drive(Personalizer(cfg), subject_a(seed=5), 2 * LONG_RUN + 3) == first
        assert cfg.tables[Personalizer] is rows
        assert rows[7] == Personalizer(cfg)._row(7)
        assert rows[7][0] == Personalizer(cfg).dither(7)

    def test_threads_extending_one_table_keep_rows_at_their_index(self):
        # loops on several threads may share a config, so its tables: the
        # four here grow one table at once, switching between rows
        cfg, start = PersonalizerConfig(), threading.Barrier(4)
        loops = [Indexed(cfg, cfg.theta_0) for _ in range(4)]

        def run(loop):
            start.wait()
            for _ in range(LONG_RUN):
                loop.run(None, 4)

        threads = [threading.Thread(target=run, args=(loop,)) for loop in loops]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        table = cfg.tables[Indexed]
        assert len(table) == loops[0].iteration + 1 == 4 * LONG_RUN + 1
        assert table == list(range(len(table)))


class Indexed(EsLoop):
    """The shell with table row i = i, built with a thread switch, and a run
    that only grows the table and moves the iteration on."""

    def dither(self, index):
        return 0.0

    def _row(self, index):
        time.sleep(0)  # give the other threads a turn
        return index

    def run(self, plant, iterations):
        self._table(iterations)
        self.iteration += iterations
        return self.applied_theta()


def stepped(loop, plant, n):
    """n steps, each on the J that plant gives for the theta the last returned."""
    theta = loop.applied_theta()
    for _ in range(n):
        theta = loop.step(plant(theta))
    return theta


def snapshot(loop):
    """The loop's records and state: every attribute but the config and
    what it shares, by repr, so bit for bit, NaN and -0.0 included."""
    own = {k: v for k, v in vars(loop).items()
           if k not in ("config", "filter", "observer", "_rows")}
    return repr(sorted(own.items()))


class FaultAt:
    """subject.step, but at call k the J is bad (or, bad None, it raises)."""

    def __init__(self, subject, k, bad):
        self.subject, self.k, self.bad, self.calls = subject, k, bad, 0

    def __call__(self, theta):
        self.calls += 1
        if self.calls - 1 == self.k:
            if self.bad is None:
                raise RuntimeError("the plant failed")
            return self.bad
        return self.subject.step(theta)


LOOPS = [Personalizer, BlackBoxEs]
RUN_LENGTHS = st.one_of(st.integers(0, 40), st.integers(LONG_RUN - 2, LONG_RUN + 2),
                        st.integers(950, 1050))


class TestRun:
    """run(plant, n) is n steps: the same records, returned theta and
    attributes, bit for bit, for runs split anywhere, across the table's
    end, and when plant fails at an iteration."""

    @given(loop=st.sampled_from(LOOPS), cfg=configs(), name=st.sampled_from("AB"),
           seed=st.integers(0, 2 ** 31 - 1), lengths=st.lists(RUN_LENGTHS, min_size=1,
                                                              max_size=4))
    @example(loop=Personalizer, cfg=PersonalizerConfig(dither_amplitude=0.0), name="A",
             seed=0, lengths=[1, LONG_RUN])
    @example(loop=Personalizer, cfg=PersonalizerConfig(warmup_iterations=0), name="B",
             seed=1, lengths=[LONG_RUN + 1, 1, 1000])
    @example(loop=BlackBoxEs, cfg=PersonalizerConfig(dither_amplitude=0.0), name="B",
             seed=2, lengths=[0, LONG_RUN - 1, 2])
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    def test_runs_equal_steps_property(self, loop, cfg, name, seed, lengths):
        ran, subj = loop(cfg), subject_for(name, seed)
        theta = [ran.run(subj.step, n) for n in lengths][-1]
        by_step = loop(cfg)
        assert repr(theta) == repr(stepped(by_step, subject_for(name, seed).step,
                                           sum(lengths)))
        assert snapshot(ran) == snapshot(by_step)

    @given(cfg=configs(), name=st.sampled_from("AB"), seed=st.integers(0, 2 ** 31 - 1),
           lengths=st.lists(RUN_LENGTHS, min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    def test_runs_match_composed_stages_property(self, cfg, name, seed, lengths):
        ran, subj = Personalizer(cfg), subject_for(name, seed)
        theta = [ran.run(subj.step, n) for n in lengths][-1]
        composed = ComposedPersonalizer(cfg)
        stepped(composed, subject_for(name, seed).step, sum(lengths))
        assert [tuple(map(repr, r)) for r in ran.records] == \
            [tuple(map(repr, r)) for r in composed.records]
        assert (repr(theta), ran.theta_hat, ran.last_branch) == (
            repr(composed.theta_applied), composed.theta_hat,
            composed.optimizer.last_branch)

    @pytest.mark.parametrize("frozen", [1.0, 1.7, 2.5])  # 2.5: past the bounds
    def test_frozen_estimate_between_one_iteration_runs(self, frozen):
        cfg = PersonalizerConfig()
        ran = Personalizer(cfg)
        subj = static_subject(PreferenceMap(LAMBDA_A), steady_at=1.0)
        for _ in range(300):
            ran.theta_hat = frozen
            ran.applied_theta()
            ran.run(subj.step, 1)
            ran.theta_hat = frozen
        subj = static_subject(PreferenceMap(LAMBDA_A), steady_at=1.0)
        assert [tuple(map(repr, r)) for r in ran.records] == drive(
            Personalizer(cfg), subj, 300, frozen)

    @given(loop=st.sampled_from(LOOPS), cfg=configs(), seed=st.integers(0, 2 ** 31 - 1),
           k=st.integers(0, 300), rest=st.integers(0, 300),
           bad=st.sampled_from([math.nan, math.inf, -math.inf, None]))
    @example(loop=Personalizer, cfg=PersonalizerConfig(), seed=3, k=0, rest=20, bad=None)
    @example(loop=Personalizer, cfg=PersonalizerConfig(), seed=3, k=20, rest=20,
             bad=math.nan)
    @example(loop=BlackBoxEs, cfg=PersonalizerConfig(), seed=4, k=LONG_RUN, rest=5,
             bad=-math.inf)
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    def test_failure_at_iteration_k_leaves_k_steps_property(self, loop, cfg, seed, k,
                                                            rest, bad):
        ran, by_step = loop(cfg), loop(cfg)
        plant = FaultAt(subject_a(seed=seed), k, bad)
        error = RuntimeError if bad is None else ValueError
        with pytest.raises(error, match="plant failed" if bad is None else "non-finite"):
            ran.run(plant, k + 1 + rest)
        # every trace column holds the k iterations before the bad one
        assert [len(column) for column in ran.columns] == [k] * len(StepRecord._fields)
        stepping = subject_a(seed=seed)
        stepped(by_step, stepping.step, k)
        assert snapshot(ran) == snapshot(by_step)
        # and the loop goes on as if the bad iteration never happened
        assert repr(ran.run(plant, rest)) == repr(stepped(by_step, stepping.step, rest))
        assert snapshot(ran) == snapshot(by_step)

    @pytest.mark.parametrize("loop", LOOPS, ids=["greybox", "blackbox"])
    def test_threads_running_on_one_config_share_its_table(self, loop):
        # loops on several threads may share a config, so its table: four
        # runs extend it at once, in short runs that switch threads
        n, chunk = 4 * LONG_RUN + 3, 5
        want = loop(PersonalizerConfig(omega_o=0.3))
        want.run(subject_a(seed=9).step, n)
        cfg, start = PersonalizerConfig(omega_o=0.3), threading.Barrier(4)
        loops = [loop(cfg) for _ in range(4)]

        def run(ran):
            subject = subject_a(seed=9)

            def measure(theta):
                time.sleep(0)  # give the other threads a turn
                return subject.step(theta)

            start.wait(timeout=60)
            for _ in range(0, n, chunk):
                ran.run(measure, min(chunk, n - ran.iteration))

        threads = [threading.Thread(target=run, args=(ran,)) for ran in loops]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside runs too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        table, alone = cfg.tables[loop], want.config.tables[loop]
        assert len(table) > n and table[:len(alone)] == alone[:len(table)]
        assert all(snapshot(ran) == snapshot(want) for ran in loops)

    @pytest.mark.parametrize("loop", LOOPS, ids=["greybox", "blackbox"])
    def test_growth_keeps_rows_added_while_it_builds(self, loop):
        # the interleaving the thread tests hit by chance, made certain:
        # while a run of 6 builds its rows 0-6, another loop on the config
        # grows the table to 13 rows; storing the 7 rows must not cut it
        cfg = PersonalizerConfig()
        outer, inner = loop(cfg), loop(cfg)

        def row(index):
            if index == 3:
                inner.run(subject_a(seed=1).step, 12)
            return loop._row(outer, index)

        outer._row = row
        outer.run(subject_a(seed=2).step, 6)
        table = cfg.tables[loop]
        assert len(table) == 13
        assert table == [loop._row(outer, i) for i in range(13)]

    @pytest.mark.parametrize("loop", LOOPS, ids=["greybox", "blackbox"])
    def test_table_holds_the_rows_runs_read(self, loop):
        cfg = PersonalizerConfig()
        ran = loop(cfg)
        assert cfg.tables[loop] == []  # made with the loop, grown by runs
        for n, rows in [(0, 1), (150, 151), (7, 158), (0, 158)]:
            ran.run(subject_a(seed=3).step, n)
            assert len(cfg.tables[loop]) == rows == ran.iteration + 1

    @pytest.mark.parametrize("loop", LOOPS, ids=["greybox", "blackbox"])
    def test_negative_run_length_rejected(self, loop):
        ran, calls = loop(PersonalizerConfig()), []
        before = snapshot(ran)
        with pytest.raises(ValueError, match="iterations = -5 must be non-negative"):
            ran.run(calls.append, -5)
        assert calls == [] and snapshot(ran) == before
        assert ran.run(calls.append, 0) == ran.applied_theta() and calls == []


def test_runtime_does_not_import_scipy():
    # numpy is the only runtime dependency: the filter and observer designs
    # and the whiteness threshold are closed forms
    code = ("import sys, numpy as np, synergy_es\n"
            "synergy_es.Personalizer().step(1.0)\n"
            "synergy_es.whiteness_test(np.random.default_rng(0).standard_normal(50))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(synergy_es.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_setup_loads_no_harness_sysid_plant_plot_or_baseline():
    """The package loads its exports on first use, so importing it and
    building both subjects and a Personalizer loads none of these."""
    code = ("import sys, synergy_es\n"
            "synergy_es.subject_a(), synergy_es.subject_b(), synergy_es.Personalizer()\n"
            "print(*sorted(m for m in sys.modules if m.startswith('synergy_es.')))\n")
    src = os.path.dirname(os.path.dirname(synergy_es.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": path})
    loaded = {m.split(".")[1] for m in out.stdout.split()}
    assert "personalizer" in loaded and "subject" in loaded
    assert not loaded & {"harness", "sysid", "plant", "svgplot", "baseline"}


def test_every_export_is_its_submodules_object():
    from synergy_es import harness  # a submodule by from-import, as before
    assert harness is sys.modules["synergy_es.harness"]
    for module, names in synergy_es._EXPORTS.items():
        sub = getattr(synergy_es, module)
        assert sub is sys.modules[f"synergy_es.{module}"]
        for name in names:
            assert getattr(synergy_es, name) is getattr(sub, name)
            assert name in dir(synergy_es) and name in synergy_es.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        synergy_es.no_such_name
