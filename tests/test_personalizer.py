"""Tests for the grey-box extremum-seeking loop."""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import synergy_es
from synergy_es.baseline import BlackBoxEs
from synergy_es.personalizer import (DEFAULT_L, GRADIENT, NEWTON, OBSERVER_PHI,
                                     OBSERVER_PSI, BandPassFilter,
                                     GradCurvObserver, Personalizer,
                                     PersonalizerConfig, SwitchedOptimizer)
from synergy_es.subject import (LAMBDA_A, LAMBDA_B, MotorNoise, PreferenceMap,
                                SimulatedSubject, static_subject, subject_a,
                                subject_b)

W = np.pi / 4


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
            p.optimizer.theta_hat = frozen  # freeze the estimate
            p.step(j)
            p.optimizer.theta_hat = frozen
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
