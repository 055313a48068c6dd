"""Acceptance gate: one test per criterion, tolerances pinned as stated.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all; failures also surface through the asserts). Known-unattainable
clauses are asserted as stated anyway; the analysis lives in the decisions
ledger, and the relevant tests demonstrate the achievable behavior in
their printed diagnostics.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from test_subject import normalized

from synergy_es.harness import (ExperimentConfig, compare_traces,
                                make_subject, read_trace_csv, run_episode,
                                summarize_batch, write_trace_csv)
from synergy_es.personalizer import Personalizer, PersonalizerConfig
from synergy_es.plant import ReachOutcome, objective
from synergy_es.subject import (LAMBDA_A, LAMBDA_B, AdaptationDynamics,
                                PreferenceMap, static_subject, subject_a,
                                subject_b)
from synergy_es.sysid import fit_adaptation_lti, fit_preference_map, \
    whiteness_test

THETA_STAR_A = 529.18 / (2 * 158.15)  # vertex oracle, = 1.6730...
THETA_STAR_B = 342.13 / (2 * 96.18)   # = 1.7786...


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    return ok


def test_c1_uniform_tuning_convergence():
    """Criterion 1: noisy 20-seed convergence medians for both subjects."""
    t0 = time.time()
    results = {}
    for name, ths in (("A", THETA_STAR_A), ("B", THETA_STAR_B)):
        cfg = ExperimentConfig(subject=name, algorithm="greybox",
                               seeds=tuple(range(20)))
        traces = [run_episode(cfg, s) for s in range(20)]
        results[name] = summarize_batch(traces, ths)
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    detail = f"runtime={elapsed:.2f}s"
    for name, ths in (("A", THETA_STAR_A), ("B", THETA_STAR_B)):
        med_conv = results[name]["median_convergence_iteration"]
        med_fin = results[name]["median_final_theta"]
        detail += (f" | {name}: conv={med_conv} "
                   f"fin={med_fin:.3f} (th*={ths:.4f})")
        ok &= med_conv is not None and med_conv <= 100
        ok &= abs(med_fin - ths) <= 0.1
    _report("criterion 1 uniform-tuning convergence", ok, detail)
    assert ok, detail


def test_c2_noise_free_tight_convergence():
    """Criterion 2: sigma=0, theta_hat within theta* +/- 0.05 by 100."""
    t0 = time.time()
    ok = True
    detail = ""
    for name, ths in (("A", THETA_STAR_A), ("B", THETA_STAR_B)):
        cfg = ExperimentConfig(subject=name, algorithm="greybox",
                               noise_std=0.0)
        hats = run_episode(cfg).column("theta_hat")
        err100 = abs(hats[99] - ths)
        stay = float(np.max(np.abs(hats[99:] - ths)))
        detail += f"{name}: err@100={err100:.4f} stay={stay:.4f}  "
        ok &= err100 < 0.05 and stay < 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    detail += f"runtime={elapsed:.2f}s"
    _report("criterion 2 noise-free tight convergence", ok, detail)
    assert ok, detail


def test_c3_differential_baseline_failure():
    """Criterion 3: baseline success on B strictly below grey-box success."""
    seeds = tuple(range(20))
    grey = [run_episode(ExperimentConfig(subject="B", algorithm="greybox",
                                         seeds=seeds), s) for s in seeds]
    black = [run_episode(ExperimentConfig(subject="B", algorithm="blackbox",
                                          seeds=seeds), s) for s in seeds]
    rep = compare_traces(grey, black, THETA_STAR_B, tol=0.1)
    ok = rep["set_b_success"] < rep["set_a_success"]
    detail = (f"greybox={rep['set_a_success']}/20 "
              f"baseline={rep['set_b_success']}/20")
    _report("criterion 3 differential baseline failure", ok, detail)
    assert ok, detail


def test_c4_whiteness_criterion():
    """Criterion 4: threshold value and Monte Carlo calibration rates."""
    rng = np.random.default_rng(0)
    rep = whiteness_test(rng.standard_normal(50))
    thr_ok = abs(rep.threshold - 0.277) <= 0.001

    white_passes = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        if whiteness_test(r.standard_normal(50)).passed:
            white_passes += 1
    ar_fails = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        e = np.empty(50)
        e[0] = r.standard_normal()
        for i in range(1, 50):
            e[i] = 0.8 * e[i - 1] + r.standard_normal()
        if not whiteness_test(e).passed:
            ar_fails += 1
    ok = thr_ok and white_passes >= 90 and ar_fails >= 95
    detail = (f"threshold={rep.threshold:.4f} white_pass={white_passes}/100 "
              f"ar1_fail={ar_fails}/100")
    _report("criterion 4 whiteness criterion", ok, detail)
    assert ok, detail


def test_c5_unity_gain_check():
    """Criterion 5: printed subject-A matrices and normalization."""
    dyn = subject_a(noise_std=0.0).dynamics
    g = dyn.steady_state_gain()
    gn = normalized(dyn).steady_state_gain()
    ok = abs(g - 1.0006) <= 1e-3 and abs(gn - 1.0) <= 1e-12
    detail = f"gain={g:.6f} normalized={gn:.15f}"
    _report("criterion 5 unity-gain check", ok, detail)
    assert ok, detail


def _frozen_estimates(theta_frozen, n):
    loop = Personalizer()
    subj = static_subject(PreferenceMap(LAMBDA_A), steady_at=theta_frozen)
    grads, curvs = [], []
    for _ in range(n):
        loop.theta_hat = theta_frozen
        theta = loop.applied_theta()
        j = subj.step(theta)
        loop.step(j)
        loop.theta_hat = theta_frozen
        grads.append(loop.columns.grad_est[-1])
        curvs.append(loop.columns.curv_est[-1])
    return np.array(grads), np.array(curvs)


def test_c6_observer_accuracy():
    """Criterion 6: static-plant estimate calibration at frozen theta_hat.

    The static plant emits its map value from the first sample (no
    settling transient; only the dither response evolves). Estimates are
    read as one-dither-period averages (they are defined through
    averaging), and 'after N iterations' counts estimation iterations
    following the warmup period, i.e. episode iteration 8 + N.
    """
    pmap = PreferenceMap(LAMBDA_A)
    frozen = 1.0
    grads, curvs = _frozen_estimates(frozen, 130)
    want_g, want_c = pmap.derivatives(frozen)

    def period_mean(arr, idx):
        return float(np.mean(arr[idx - 8:idx]))

    g_at = period_mean(grads, 8 + 32)
    c_at = period_mean(curvs, 8 + 64)
    g_ok = abs(g_at / want_g - 1.0) <= 0.05
    c_ok = abs(c_at / want_c - 1.0) <= 0.15
    detail = (f"grad@40={g_at:.2f} ({(g_at/want_g-1)*100:+.1f}% of {want_g:.2f}) "
              f"curv@72={c_at:.2f} ({(c_at/want_c-1)*100:+.1f}% of {want_c:.2f})")
    ok = g_ok and c_ok
    _report("criterion 6 observer accuracy", ok, detail)
    assert ok, detail


def test_c7_sysid_round_trip():
    """Criterion 7: map recovery, over-damped LTI fit, MSE monotonicity."""
    # exact quadratic recovery
    thetas = [0.8, 1.2, 1.6, 2.0, 2.4]
    lam = fit_preference_map(thetas, PreferenceMap(LAMBDA_B).value(thetas)).lam
    map_ok = np.max(np.abs(lam - LAMBDA_B)) < 1e-9

    # over-damped generator, noise-free step data
    gen = normalized(AdaptationDynamics(np.array([[0.85, -0.15], [1.0, 0.0]]),
                                        np.array([1.0, 0.0]),
                                        np.array([0.18, 0.12])))
    u = np.ones(80)
    x = np.zeros(2)
    y = np.empty(80)
    for i in range(80):
        y[i] = float(gen.psi @ x)
        x = gen.phi @ x + gen.gamma * u[i]
    fit, _ = fit_adaptation_lti(u, y, order=2)
    x = np.zeros(2)
    yf = np.empty(80)
    for i in range(80):
        yf[i] = float(fit.psi @ x)
        x = fit.phi @ x + fit.gamma * u[i]
    step_mse = float(np.mean((yf - y) ** 2))
    lti_ok = step_mse < 1e-6

    # order-3 MSE never above order-2 on shared data
    rng = np.random.default_rng(2)
    mono_ok = True
    for _ in range(3):
        uu = rng.standard_normal(70)
        xx = np.zeros(2)
        yy = np.empty(70)
        gen2 = subject_a(noise_std=0.0).dynamics
        for i in range(70):
            yy[i] = float(gen2.psi @ xx)
            xx = gen2.phi @ xx + gen2.gamma * uu[i]
        yy += 1.5 * rng.standard_normal(70)
        _, mse2 = fit_adaptation_lti(uu, yy, order=2)
        _, mse3 = fit_adaptation_lti(uu, yy, order=3)
        mono_ok &= mse3 <= mse2 + 1e-12
    ok = map_ok and lti_ok and mono_ok
    detail = (f"map_err={np.max(np.abs(lam - LAMBDA_B)):.2e} "
              f"step_mse={step_mse:.2e} monotone={mono_ok}")
    _report("criterion 7 sysid round-trip", ok, detail)
    assert ok, detail


def test_c8_objective_spot_values():
    """Criterion 8: direct substitutions into the task objective."""
    def out(err, tf):
        return ReachOutcome(err, tf, True, np.zeros((1, 3)))

    vals = (objective(out(0.4, 0.4)), objective(out(10.0, 3.0)),
            objective(out(1.0, 1.0)))
    wants = (200.02, 16.92, 75.01)
    ok = all(abs(v - w) <= 1e-2 for v, w in zip(vals, wants))
    detail = " ".join(f"{v:.4f}~{w}" for v, w in zip(vals, wants))
    _report("criterion 8 objective spot values", ok, detail)
    assert ok, detail


def test_c9_property_suites(tmp_path):
    """Criterion 9: five property families, 100 randomized instances each."""
    rng = np.random.default_rng(123)

    # zero-dither immobility
    immobile = 0
    for k in range(100):
        cfg = PersonalizerConfig(dither_amplitude=0.0,
                                 theta_0=float(rng.uniform(0.9, 2.3)))
        loop = Personalizer(cfg)
        subj = subject_a(seed=int(rng.integers(1 << 30)),
                         noise_std=float(rng.uniform(0, 5)))
        th = loop.applied_theta()
        good = True
        for _ in range(40):
            th = loop.step(subj.step(th))
            good &= abs(loop.theta_hat - cfg.theta_0) <= 1e-9
        immobile += good

    # bounds clamping under hostile inputs
    clamped = 0
    for k in range(100):
        loop = Personalizer()
        good = True
        for i in range(40):
            j = float(rng.uniform(-1e4, 1e4))
            th = loop.step(j)
            good &= 0.8 <= th <= 2.4 and 0.8 <= loop.theta_hat <= 2.4
        clamped += good

    # determinism by seed
    deterministic = 0
    for k in range(100):
        seed = int(rng.integers(1 << 30))
        outs = []
        for _ in range(2):
            loop = Personalizer()
            subj = subject_b(seed=seed)
            th = loop.applied_theta()
            js = []
            for _ in range(30):
                j = subj.step(th)
                js.append(j)
                th = loop.step(j)
            outs.append(js)
        deterministic += outs[0] == outs[1]

    # trace CSV round trip
    roundtrip = 0
    for k in range(100):
        cfg = ExperimentConfig(subject="A" if k % 2 else "B",
                               algorithm="greybox" if k % 3 else "blackbox",
                               seeds=(int(rng.integers(1 << 30)),),
                               iterations=12)
        tr = run_episode(cfg)
        path = tmp_path / f"t{k}.csv"
        write_trace_csv(tr, path)
        roundtrip += read_trace_csv(path) == tr

    # argmax scale invariance
    scale_inv = 0
    for k in range(100):
        lam = np.array([-rng.uniform(10, 300), rng.uniform(50, 900),
                        rng.uniform(-300, 300)])
        c = float(rng.uniform(0.01, 40))
        a = PreferenceMap(lam).optimum()
        b = PreferenceMap(c * lam).optimum()
        scale_inv += bool(np.isclose(a, b, rtol=1e-12))

    counts = (immobile, clamped, deterministic, roundtrip, scale_inv)
    ok = all(c == 100 for c in counts)
    detail = ("immobility/clamp/determinism/roundtrip/argmax = "
              + "/".join(str(c) for c in counts))
    _report("criterion 9 property suites", ok, detail)
    assert ok, detail
