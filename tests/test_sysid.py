"""Tests for the identification toolkit."""

import os
import re
import statistics
import subprocess
import sys
import warnings
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from test_subject import normalized

import synergy_es
from synergy_es import sysid
from synergy_es.harness import ExperimentConfig, run_episode
from synergy_es.subject import (LAMBDA_A, LAMBDA_B, AdaptationDynamics,
                                PreferenceMap, subject_a)
from synergy_es.sysid import (_RESIDUAL_START, ConstrainedFitWarning, _arx_residuals,
                              _free_arx_mse, _full_range_candidates, _gram,
                              _lag_index, _lag_matrix, _lag_residual_basis,
                              _pole_grid, _pole_grid_indices, _pole_search,
                              _poles_to_denominator, _scores, fit_adaptation_lti,
                              fit_preference_map, identify_from_records,
                              whiteness_test, write_fitted_subject,
                              write_identification_report)


def _lagged(series, lag):
    """Series delayed by `lag` samples with zero padding before the start."""
    out = np.zeros_like(series, dtype=float)
    if lag < len(series):
        out[lag:] = series[:len(series) - lag]
    return out


def _lag_columns(series, lags):
    """Columns of `series` delayed by each lag, rows from _RESIDUAL_START:
    the lag matrix built column by column."""
    return np.column_stack([_lagged(series, k)[_RESIDUAL_START:] for k in lags])


def reference_scores(gram, dens):
    """d.T @ gram @ d per column d of dens: row i as gram[i, i] d_i plus
    2 gram[i, j] d_j for each j > i in turn, then total = 0.0 plus d_i times
    row i for each i in turn; the double loop the fit scored with before."""
    g, total = gram.tolist(), 0.0
    for i, di in enumerate(dens):
        row = g[i][i] * di
        for j in range(i + 1, len(dens)):
            row += (2.0 * g[i][j]) * dens[j]
        total += di * row
    return total


def model_bytes(dyn):
    """Every bit of a fitted model's Phi, Gamma and Psi."""
    return dyn.phi.tobytes() + dyn.gamma.tobytes() + dyn.psi.tobytes()


def lag_matrices(u, y, order):
    """(y lags, u lags) of a fit at order, as fit_adaptation_lti builds them."""
    return _lag_matrix(y, order), _lag_matrix(u, order)


def samples_from(lam, thetas, noise=None):
    """(thetas, mean performances) of the map at each theta."""
    y = PreferenceMap(lam).value(thetas)
    if noise is not None:
        y = y + noise
    return thetas, y


def simulate(dyn, u):
    x = np.zeros(dyn.order)
    ys = np.empty(len(u))
    for i, ui in enumerate(u):
        ys[i] = float(dyn.psi @ x)
        x = dyn.phi @ x + dyn.gamma * ui
    return ys


class TestPreferenceFit:
    def test_exact_recovery_subject_a(self):
        thetas = [0.8, 1.2, 1.6, 2.0, 2.4]
        lam = fit_preference_map(*samples_from(LAMBDA_A, thetas)).lam
        assert_allclose(lam, LAMBDA_A, atol=1e-9)

    def test_constant_data(self):
        lam = fit_preference_map([0.9, 1.3, 1.8, 2.2], [5.0] * 4).lam
        assert_allclose(lam, [0.0, 0.0, 5.0], atol=1e-9)

    def test_perturbed_recovery_subject_b(self):
        rng = np.random.default_rng(0)
        thetas = np.linspace(0.8, 2.4, 9)
        noise = rng.uniform(-1e-3, 1e-3, len(thetas))
        lam = fit_preference_map(*samples_from(LAMBDA_B, thetas, noise)).lam
        assert np.max(np.abs(lam - LAMBDA_B)) < 0.1

    def test_round_trip_random_concave(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            lam = np.array([-rng.uniform(5, 200), rng.uniform(-100, 600),
                            rng.uniform(-400, 200)])
            thetas = np.sort(rng.uniform(0.8, 2.4, 6))
            if np.unique(np.round(thetas, 6)).size < 3:
                continue
            fit = fit_preference_map(*samples_from(lam, thetas)).lam
            assert_allclose(fit, lam, atol=1e-9 * max(1, np.abs(lam).max()))

    def test_too_few_distinct_thetas(self):
        with pytest.raises(ValueError):
            fit_preference_map([1.0, 1.0, 1.5], [2.0, 2.1, 3.0])

    def test_non_concave_warns(self):
        samples = samples_from(np.array([5.0, -1.0, 0.0]),
                               [0.8, 1.2, 1.6, 2.0])
        with pytest.warns(UserWarning):
            fit_preference_map(*samples)


class TestLtiFit:
    def test_overdamped_generator_recovered(self):
        # over-damped generator: real poles 0.6 and 0.25, unity gain
        gen = normalized(AdaptationDynamics(np.array([[0.85, -0.15], [1.0, 0.0]]),
                                            np.array([1.0, 0.0]),
                                            np.array([0.18, 0.12])))
        u = np.ones(80)
        y = simulate(gen, u)
        fit, mse = fit_adaptation_lti(u, y, order=2)
        assert mse < 1e-6
        yfit = simulate(fit, u)
        assert np.mean((yfit - y) ** 2) < 1e-6

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_subject_a_step_response_match(self):
        # The generator has poles 0.489 and -0.139; the alternating mode is
        # out of reach for positive real poles, so the best achievable
        # step-response MSE is ~1.5e-5 (computed by this very search at
        # fine grid resolution), not arbitrarily small.
        gen = subject_a(noise_std=0.0).dynamics
        u = np.ones(80)
        y = simulate(gen, u)
        fit, mse = fit_adaptation_lti(u, y, order=2)
        yfit = simulate(fit, u)
        step_mse = float(np.mean((yfit - y) ** 2))
        assert step_mse < 2e-5
        poles = np.linalg.eigvals(fit.phi)
        assert np.isreal(poles).all()
        assert ((poles.real > 0) & (poles.real < 1)).all()

    def test_static_data(self):
        u = np.full(40, 3.7)
        with pytest.warns(UserWarning, match="no excitation"):
            fit, mse = fit_adaptation_lti(u, u.copy(), order=2)
        assert_allclose(fit.steady_state_gain(), 1.0, atol=1e-9)
        assert mse < 1e-9

    def test_constraints_always_hold(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            u = rng.standard_normal(60)
            y = simulate(subject_a(noise_std=0.0).dynamics, u)
            y += 0.05 * rng.standard_normal(60)
            for order in (2, 3):
                fit, _ = fit_adaptation_lti(u, y, order=order)
                poles = np.linalg.eigvals(fit.phi)
                assert np.max(np.abs(poles.imag)) < 1e-9
                # order 3 may carry its extra pole at exactly zero
                assert ((poles.real >= 0) & (poles.real < 1)).all()
                assert_allclose(fit.steady_state_gain(), 1.0, atol=1e-6)

    def test_order3_mse_not_worse(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            u = rng.standard_normal(70)
            y = simulate(subject_a(noise_std=0.0).dynamics, u)
            y += rng.standard_normal(70) * (0.2 if trial % 2 else 2.0)
            _, mse2 = fit_adaptation_lti(u, y, order=2)
            _, mse3 = fit_adaptation_lti(u, y, order=3)
            assert mse3 <= mse2 + 1e-12

    def test_mse_scale_on_paper_noise_reconstruction(self):
        # order-2 fit on a synthetic subject-A sweep at the identified
        # noise level lands near the reported validation MSE (loose
        # tolerance; the original raw data is not published)
        subj = subject_a(seed=5, noise_std=16.81)
        thetas = np.array([0.8 + i / 125.0 for i in range(200)])
        perfs = np.array([subj.step(th) for th in thetas])
        u = subj.map.value(thetas)
        _, mse = fit_adaptation_lti(u, perfs, order=2)
        assert 0.8 * 277.76 <= mse <= 1.2 * 277.76

    def test_short_data_rejected(self):
        with pytest.raises(ValueError):
            fit_adaptation_lti(np.ones(15), np.ones(15), order=2)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            fit_adaptation_lti(np.ones(50), np.ones(50), order=4)


def reference_search(u, y, order):
    """Per-candidate lstsq pole-grid search, as scored before the closed form.

    Returns (mse, poles, den) of the selected candidate.
    """
    ylags, ulags = _lag_columns(y, range(order + 1)), _lag_columns(u, range(order + 1))

    def search(order_n, extra=()):
        best = None
        lo, hi = 1e-4, 1.0 - 1e-4
        for _ in range(4):
            base = np.linspace(lo, hi, 13)
            cands = [c for c in product(base, repeat=order_n)
                     if all(c[j] <= c[j + 1] for j in range(order_n - 1))]
            for poles in cands + list(extra):
                den = np.poly(poles)
                _, mse = _arx_residuals(ylags, ulags, den)
                if best is None or mse < best[0]:
                    best = (mse, poles, den)
            span = (hi - lo) / 12
            lo = max(1e-4, min(best[1]) - span)
            hi = min(1.0 - 1e-4, max(best[1]) + span)
        return best

    if order == 2:
        return search(2)
    return search(3, [(0.0,) + tuple(sorted(search(2)[1]))])


def criterion7_data():
    """The (u, y) records of acceptance criterion 7's LTI checks."""
    gen = normalized(AdaptationDynamics(np.array([[0.85, -0.15], [1.0, 0.0]]),
                                        np.array([1.0, 0.0]),
                                        np.array([0.18, 0.12])))
    u = np.ones(80)
    data = [(u, simulate(gen, u))]
    rng = np.random.default_rng(2)
    for _ in range(3):
        uu = rng.standard_normal(70)
        yy = simulate(subject_a(noise_std=0.0).dynamics, uu)
        data.append((uu, yy + 1.5 * rng.standard_normal(70)))
    return data


class TestClosedFormScoring:
    @pytest.mark.parametrize("u_kind", ["random", "zeros", "zero_first_half",
                                        "late_spike"])
    @pytest.mark.parametrize("order", [2, 3])
    def test_equals_per_candidate_lstsq(self, order, u_kind):
        rng = np.random.default_rng(100 + order)
        u = rng.standard_normal(60)
        if u_kind == "zeros":  # lagged inputs all zero: rank 0
            u[:] = 0.0
        elif u_kind == "zero_first_half":  # still full rank
            u[:30] = 0.0
        elif u_kind == "late_spike":  # only lag 1 sees it: rank 1 of order
            u[:] = 0.0
            u[-2] = 2.5
        y = 10.0 + 3.0 * rng.standard_normal(60)
        poles = rng.uniform(0.0, 1.0, (40, order))
        dens = _poles_to_denominator(poles.T).T
        for den, p in zip(dens, poles):
            assert_allclose(den, np.poly(p), rtol=0, atol=1e-15)
        ylags, ulags = lag_matrices(u, y, order)
        basis = _lag_residual_basis(ylags, ulags, order)
        closed = _scores(_gram(basis), dens.T) / len(basis)
        per_candidate = [_arx_residuals(ylags, ulags, den)[1] for den in dens]
        assert_allclose(closed, per_candidate, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("order", [2, 3])
    def test_pole_grid_indices_built_once_read_only(self, order):
        grid = _pole_grid_indices(13, order)
        assert grid is _pole_grid_indices(13, order)
        assert not grid.flags.writeable
        assert grid.tolist() == [list(c) for c in
                                 combinations_with_replacement(range(13), order)]

    @given(length=st.integers(1, 40), max_lag=st.integers(0, 3), seed=st.integers(0, 99))
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @example(length=1, max_lag=3, seed=0).via("length below the lag")
    @example(length=3, max_lag=3, seed=0).via("length equal to the lag")
    def test_lag_matrix_equals_column_reference(self, length, max_lag, seed):
        series = np.random.default_rng(seed).standard_normal(length)
        got = _lag_matrix(series, max_lag)
        want = _lag_columns(series, range(max_lag + 1))
        assert got.shape == want.shape == (length - _RESIDUAL_START, max_lag + 1)
        assert got.tobytes() == want.tobytes()

    def test_lag_index_cached_read_only(self):
        index = _lag_index(50, 3)
        assert index is _lag_index(50, 3)
        assert not index.flags.writeable
        assert _lag_index.cache_info().maxsize is not None

    @given(lo=st.floats(1e-4, 1.0 - 1e-4), hi=st.floats(1e-4, 1.0 - 1e-4),
           same=st.booleans())
    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @example(lo=1e-4, hi=1.0 - 1e-4, same=False).via("the first grid")
    @example(lo=0.5, hi=0.5, same=True).via("lo == hi")
    def test_pole_grid_equals_linspace(self, lo, hi, same):
        hi = lo if same else hi
        levels, step = _pole_grid(lo, hi)
        assert np.array(levels).tobytes() == np.linspace(lo, hi, 13).tobytes()
        assert step == (hi - lo) / 12

    @given(m=st.integers(1, 4), n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1.0, 1e-300, 1e150, 1e300]))
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @example(m=3, n=91, seed=0, scale=0.0).via("a zero Gram matrix")
    @example(m=4, n=455, seed=1, scale=1e300).via("entries near 1e300")
    @example(m=3, n=1, seed=2, scale=1.0).via("a single column")
    def test_scores_equal_the_double_loop(self, m, n, seed, scale):
        """Bit for bit, signed zeros, infs and NaNs included."""
        rng = np.random.default_rng(seed)
        gram = _gram(rng.standard_normal((30, m))) * scale
        dens = rng.standard_normal((m, n))
        dens[:, ::3] = -0.0
        with np.errstate(all="ignore"):
            got, want = _scores(gram, dens), reference_scores(gram, dens)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_every_search_score_equals_the_double_loop(self, monkeypatch):
        records = list(sweep_records((0, 1)))
        calls = []

        def recording(gram, dens):
            got = _scores(gram, dens)
            calls.append((gram.copy(), dens.copy(), got))
            return got

        monkeypatch.setattr(sysid, "_scores", recording)
        _pole_search.cache_clear()
        for u, y in records:
            for order in (2, 3):
                fit_adaptation_lti(u, y, order)
        # 4 refinements per search and the free-ARX form per fit; the
        # order-3 fit's order-2 search is a cache hit
        assert len(calls) == 10 * len(records)
        for gram, dens, got in calls:
            assert got.tobytes() == reference_scores(gram, dens).tobytes()


    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("subject", ["A", "B"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sweep_selection_matches_reference(self, seed, subject, order):
        trace = run_episode(ExperimentConfig(subject=subject, algorithm="sweep"), seed)
        thetas, perfs = trace.column("theta_applied"), trace.column("J")
        pref, dyn, mse, _, _ = identify_from_records(thetas, perfs, order)
        ref_mse, _, ref_den = reference_search(pref.value(thetas), perfs, order)
        assert_allclose(-dyn.phi[0], ref_den[1:], rtol=0, atol=1e-12)
        assert_allclose(mse, ref_mse, rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("order", [2, 3])
    def test_criterion7_selection_matches_reference(self, order):
        for u, y in criterion7_data():
            dyn, mse = fit_adaptation_lti(u, y, order)
            ref_mse, _, ref_den = reference_search(u, y, order)
            assert_allclose(-dyn.phi[0], ref_den[1:], rtol=0, atol=1e-12)
            assert_allclose(mse, ref_mse, rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=5, deadline=None, database=None, derandomize=True)
    def test_fit_invariants_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 120))
        u = rng.uniform(0.1, 10.0) * rng.standard_normal(n)
        y = simulate(subject_a(noise_std=0.0).dynamics, u)
        y += rng.uniform(0.0, 3.0) * rng.standard_normal(n)
        fits = {order: fit_adaptation_lti(u, y, order) for order in (2, 3)}
        for dyn, _ in fits.values():
            # grid poles may repeat, and eigvals of a repeated root carry
            # O(eps ** (1 / multiplicity)) error, hence the 1e-5 slack
            poles = np.linalg.eigvals(dyn.phi)
            assert np.max(np.abs(poles.imag)) < 1e-5
            assert ((poles.real > -1e-5) & (poles.real < 1.0)).all()
            assert_allclose(dyn.steady_state_gain(), 1.0, atol=1e-9)
        assert fits[3][1] <= fits[2][1] + 1e-12


class TestPoleSearchCache:
    """The pole search is cached on its Gram matrix's bytes."""

    @staticmethod
    def keys(u, y):
        """(order-2 key, order-3 key) of a record, as its fits build them."""
        ylags, ulags = lag_matrices(u, y, 3)
        return tuple(_gram(_lag_residual_basis(ylags, ulags, n)).tobytes() for n in (2, 3))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_cached_search_equals_uncached(self):
        for u, y in sweep_records(range(3)):
            key2, key3 = self.keys(u, y)
            extra = (0.0, *_pole_search(key2, 2, ())[0])
            for args in ((key2, 2, ()), (key3, 3, extra)):
                for _ in range(2):  # a miss or a hit, then a hit
                    poles, den = _pole_search(*args)
                    want_poles, want_den = _pole_search.__wrapped__(*args)
                    assert np.array(poles).tobytes() == np.array(want_poles).tobytes()
                    assert den.tobytes() == want_den.tobytes()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_order3_fit_reuses_the_order2_search(self):
        trace = run_episode(ExperimentConfig(subject="B", algorithm="sweep"), 3)
        thetas, perfs = trace.column("theta_applied"), trace.column("J")
        _pole_search.cache_clear()
        identify_from_records(thetas, perfs, 2)
        info = _pole_search.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        identify_from_records(thetas, perfs, 3)
        info = _pole_search.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_bounded_and_read_only(self):
        maxsize = _pole_search.cache_info().maxsize
        assert maxsize is not None
        _pole_search.cache_clear()
        rng = np.random.default_rng(8)
        for _ in range(100):
            u = rng.standard_normal(40)
            y = simulate(subject_a(noise_std=0.0).dynamics, u) + rng.standard_normal(40)
            for order in (2, 3):
                fit_adaptation_lti(u, y, order)
            assert _pole_search.cache_info().currsize <= maxsize
        assert _pole_search.cache_info().currsize == maxsize
        key2, key3 = self.keys(u, y)
        hits = _pole_search.cache_info().hits
        poles, den = _pole_search(key2, 2, ())
        for args in ((key2, 2, ()), (key3, 3, (0.0, *poles))):
            poles, den = _pole_search(*args)
            assert isinstance(poles, tuple) and not den.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                den[0] = 2.0
        assert _pole_search.cache_info().hits == hits + 3
        for order in (2, 3):
            assert not any(a.flags.writeable for a in _full_range_candidates(order)[:2])


def unconstrained_arx(u, y, n):
    """MSE of the unconstrained ARX fit by one lstsq over all 2n regressors,
    as the fit's diagnostic computed it before it came from the Gram matrix."""
    target = y[_RESIDUAL_START:]
    regress = np.column_stack([-_lag_columns(y, range(1, n + 1)),
                               _lag_columns(u, range(1, n + 1))])
    theta, *_ = np.linalg.lstsq(regress, target, rcond=None)
    resid = target - regress @ theta
    return float(np.mean(resid ** 2))


def sweep_records(seeds, noise_std=None):
    """(u, y) of A and B sweeps at seeds, as identify_from_records fits the
    LTI part: u is the fitted map of theta."""
    for subject in "AB":
        for seed in seeds:
            trace = run_episode(ExperimentConfig(subject=subject, algorithm="sweep",
                                                 noise_std=noise_std), seed)
            thetas, perfs = trace.column("theta_applied"), trace.column("J")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pref = identify_from_records(thetas, perfs)[0]
            yield pref.value(thetas), perfs


class TestFreeArxDiagnostic:
    @pytest.mark.parametrize("order", [2, 3])
    def test_matches_lstsq_oracle_and_warns_alike(self, order):
        # poles 0.6 +- 0.6j lie outside the constraint, so that fit warns
        gen = AdaptationDynamics(np.array([[1.2, -0.72], [1.0, 0.0]]),
                                 np.array([1.0, 0.0]), np.array([1.0, 0.5]))
        wu = np.random.default_rng(4).standard_normal(80)
        wy = simulate(gen, wu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            excess = fit_adaptation_lti(wu, wy, order)[1] - 4.0 * unconstrained_arx(wu, wy, order)
        # that record scaled so that its mse exceeds 4 * its free mse by 0.5e-6
        # and by 3e-6, with var y < 1: either side of the floor 1e-6
        edges = [(wu, wy * np.sqrt(target / excess)) for target in (0.5e-6, 3e-6)]
        assert all(np.var(y) < 1.0 for _, y in edges)
        records = [*criterion7_data(), (wu, wy), *sweep_records(range(10)),
                   *sweep_records((0,), noise_std=0.0), *edges]
        warned_fits = []
        for u, y in records:
            expected = unconstrained_arx(u, y, order)
            floor = 1e-6 * max(1.0, float(np.var(y)))
            # an exact fit's MSE is rounding: 2.6e-32 by lstsq, about 1e-18
            # from the Gram matrix; the warning sees it only next to floor
            basis = _lag_residual_basis(*lag_matrices(u, y, order), order)
            got = _free_arx_mse(_gram(basis), len(y) - 1)
            assert_allclose(got, expected, rtol=1e-9, atol=1e-9 * floor)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _, mse = fit_adaptation_lti(u, y, order)
            warned = any(w.category is ConstrainedFitWarning for w in caught)
            assert warned == (mse > 4.0 * expected + floor)
            warned_fits.append(warned)
        assert 0 < sum(warned_fits) < len(records)
        assert warned_fits[-2:] == [False, True]


# the selected Phi of A and B sweeps at seeds 0-4, orders 2 and 3, as bits
SWEEP_FITS = """
import warnings
from synergy_es.harness import ExperimentConfig, run_episode
from synergy_es.sysid import identify_from_records
warnings.simplefilter("ignore")
lines = []
for subject in "AB":
    for seed in range(5):
        trace = run_episode(ExperimentConfig(subject=subject, algorithm="sweep"), seed)
        for order in (2, 3):
            dyn = identify_from_records(trace.column("theta_applied"),
                                        trace.column("J"), order)[1]
            lines.append(dyn.phi.tobytes().hex())
"""


@pytest.mark.parametrize("coretype", ["Nehalem", "Prescott"])
def test_sweep_fits_select_alike_on_kernels_without_fma(coretype):
    """OPENBLAS_CORETYPE makes OpenBLAS pick an older CPU's kernels. The
    residual basis comes from lstsq, so its last bits may differ there. The
    candidates are scored without BLAS, and on these sweeps no two scores
    are within rounding of each other, so each fit selects the same poles
    and Phi keeps its bits. (The numerator, MSE and residuals still go
    through lstsq and may differ.)"""
    src = os.path.dirname(os.path.dirname(synergy_es.__file__))
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SWEEP_FITS + "print(*lines, sep='\\n')"],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    scope = {}
    exec(SWEEP_FITS, scope)
    assert done.stdout.splitlines() == scope["lines"]


class TestWhiteness:
    def test_paper_criterion_value(self):
        rng = np.random.default_rng(0)
        rep = whiteness_test(rng.standard_normal(50))
        assert_allclose(rep.threshold, 0.277, atol=1e-3)
        assert rep.lags_tested == 10
        # lags 1..min(10, N // 4): 5 at N = 20, one more per 4 samples
        lags = {**dict.fromkeys(range(20, 24), 5), **dict.fromkeys(range(24, 28), 6),
                **dict.fromkeys(range(28, 32), 7), **dict.fromkeys(range(32, 36), 8),
                **dict.fromkeys(range(36, 40), 9), **dict.fromkeys(range(40, 61), 10)}
        for n, want in lags.items():
            assert whiteness_test(rng.standard_normal(n)).lags_tested == want, n

    def test_threshold_scales_inverse_sqrt(self):
        rng = np.random.default_rng(1)
        r1 = whiteness_test(rng.standard_normal(100))
        r2 = whiteness_test(rng.standard_normal(200))
        assert_allclose(r1.threshold / r2.threshold, np.sqrt(2.0), atol=1e-12)

    def test_pass_iff_below_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rep = whiteness_test(rng.standard_normal(60))
            assert rep.passed == (rep.max_normalized_autocorr < rep.threshold)

    def test_ar1_fails(self):
        # AR(1) with coefficient 0.8 has lag-1 autocorrelation near 0.8
        fails = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            e = np.empty(50)
            e[0] = rng.standard_normal()
            for i in range(1, 50):
                e[i] = 0.8 * e[i - 1] + rng.standard_normal()
            if not whiteness_test(e).passed:
                fails += 1
        assert fails >= 95

    def test_white_pass_rate(self):
        # Monte Carlo calibration of the max statistic over 10 lags at
        # per-lag confidence 0.95; the joint pass rate sits near 0.95^10.
        passes = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            if whiteness_test(rng.standard_normal(50)).passed:
                passes += 1
        assert passes >= 50  # see acceptance suite for the strict gate

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            whiteness_test(np.ones(19))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_residual_rejected(self, bad):
        with pytest.raises(ValueError, match="^non-finite residual at index 30$"):
            whiteness_test([1.0] * 30 + [bad])
        e = np.random.default_rng(6).standard_normal(50)
        e[[7, 20]] = bad
        with pytest.raises(ValueError, match="^non-finite residual at index 7$"):
            whiteness_test(e)

    def test_reports_moments(self):
        rng = np.random.default_rng(3)
        e = 2.0 + 3.0 * rng.standard_normal(500)
        rep = whiteness_test(e)
        assert abs(rep.residual_mean - 2.0) < 0.5
        assert abs(rep.residual_std - 3.0) < 0.5
        # the sample std, with n - 1 in the denominator
        assert_allclose(rep.residual_std, statistics.stdev(e.tolist()), rtol=1e-12)


class TestIdentifyChecksRecord:
    """Each identification entry point checks its record before any fit."""

    @staticmethod
    def sweep():
        trace = run_episode(ExperimentConfig(subject="A", algorithm="sweep"), 0)
        return trace.column("theta_applied"), trace.column("J")

    def test_unequal_lengths_rejected(self):
        thetas, perfs = self.sweep()
        with pytest.raises(ValueError, match="must have equal length"):
            identify_from_records(thetas, perfs[:-1])

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_2d_records_fit_as_flat(self):
        thetas, perfs = self.sweep()
        flat = identify_from_records(thetas, perfs, 3)
        grid = identify_from_records(thetas.reshape(-1, 3), perfs.reshape(-1, 3), 3)
        for a, b in zip(flat, grid):
            assert repr(a) == repr(b)
        assert flat[3].tobytes() == grid[3].tobytes()

    @pytest.mark.parametrize("order", [1, 4])
    def test_bad_order_rejected_before_map_fit(self, order):
        # one synergy level: the map fit would raise its own error first
        with pytest.raises(ValueError, match="order must be 2 or 3"):
            identify_from_records(np.full(50, 1.5), np.arange(50.0), order)

    @pytest.mark.parametrize("order", [2.0, np.float64(3)])
    def test_float_order_rejected(self, order):
        thetas, perfs = self.sweep()
        for fit in (fit_adaptation_lti, identify_from_records):
            with pytest.raises(ValueError, match="^order must be 2 or 3$"):
                fit(thetas, perfs, order)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_numpy_integer_order_fits_as_int(self):
        thetas, perfs = self.sweep()
        got = identify_from_records(thetas, perfs, np.int64(3))
        want = identify_from_records(thetas, perfs, 3)
        assert got[0].lam == want[0].lam
        assert model_bytes(got[1]) == model_bytes(want[1])
        assert (got[2], repr(got[4])) == (want[2], repr(want[4]))
        assert got[3].tobytes() == want[3].tobytes()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("big", [5e153, 1e154, -1.3e154])
    def test_synergy_the_fit_overflows_on_named(self, big):
        """A huge synergy leaves the map's other values near 1e-306, and the
        input coefficients would overflow: one ValueError, with the largest
        magnitude of each LTI series, and no RuntimeWarning first."""
        thetas, perfs = self.sweep()
        thetas[-1] = big
        message = (r"^record out of the fit's floating-point range \(it overflows\): "
                   r"largest magnitude \S+ in the input, "
                   f"{re.escape(repr(float(np.max(np.abs(perfs)))))} in the output$")
        with pytest.raises(ValueError, match=message):
            identify_from_records(thetas, perfs)

    @pytest.mark.parametrize("order", [2, 3])
    def test_output_the_fit_overflows_on_named(self, order):
        with pytest.raises(ValueError, match=r"largest magnitude 1\.0 in the input, "
                                             r"1e\+200 in the output$"):
            fit_adaptation_lti(np.linspace(0, 1, 40), np.full(40, 1e200), order)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("big", [1e140, 1e150, 1e152])
    def test_records_that_fit_keep_their_bits(self, big):
        """Raising on overflow changes no bit of a fit that has none: each
        fit equals the unguarded fit, searched afresh, run with
        RuntimeWarnings as errors."""
        thetas, perfs = self.sweep()
        thetas[-1] = big
        pref = identify_from_records(thetas, perfs)[0]
        records = [(pref.value(thetas), perfs),
                   (np.linspace(0, 1, 40), np.full(40, big))]
        for u, y in records:
            for order in (2, 3):
                dyn, mse = fit_adaptation_lti(u, y, order)
                _pole_search.cache_clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    want_dyn, want_mse = sysid._fit_lti.__wrapped__(u, y, order)
                assert (model_bytes(dyn), mse) == (model_bytes(want_dyn), want_mse)

    def test_every_entry_point_names_a_bad_record(self, capfd):
        """The map fit, the LTI fit and the full pass check a record alike:
        unequal lengths and the first non-finite sample are named, before
        LAPACK sees the record."""
        thetas, perfs = self.sweep()
        for fit in (fit_preference_map, fit_adaptation_lti, identify_from_records):
            with pytest.raises(ValueError, match="^input and output series must "
                                                 "have equal length$"):
                fit(thetas, perfs[:-1])
            for k, bad, side in product([7, 200], [np.nan, np.inf, -np.inf], [0, 1]):
                record = [thetas.copy(), perfs.copy()]
                record[side][k] = bad
                with pytest.raises(ValueError, match=f"^non-finite sample at index {k}$"):
                    fit(*record)
        assert "DLASCL" not in "".join(capfd.readouterr())

    @pytest.mark.parametrize("big", [1e160, -1.35e154, 1.7976931348623157e308])
    def test_synergy_with_no_finite_square_rejected(self, big):
        """A synergy whose square overflows makes a design LAPACK may never
        return from; the map fit names it first, by its index among the
        synergies it is given (in the full pass, the distinct levels in
        ascending order)."""
        thetas, perfs = self.sweep()
        thetas[-1] = big
        message = f"synergy value {big!r} at index {{}} has no finite square"
        with pytest.raises(ValueError, match=re.escape(message.format(200))):
            fit_preference_map(thetas, perfs)
        with pytest.raises(ValueError, match=re.escape(
                message.format(200 if big > 0 else 0))):
            identify_from_records(thetas, perfs)


def test_identify_pipeline_and_outputs(tmp_path):
    # synthetic record: sweep-like thetas through subject-A-style model
    rng = np.random.default_rng(5)
    subj = subject_a(seed=5, noise_std=2.0)
    thetas, perfs = [], []
    for i in range(200):
        th = 0.8 + i / 125.0
        thetas.append(th)
        perfs.append(subj.step(th))
    pref, dyn, mse, resid, report = identify_from_records(thetas, perfs)
    assert pref.lam[0] < 0
    assert abs(pref.optimum() - subject_a().optimum()) < 0.15
    assert report is not None

    rpath = tmp_path / "report.txt"
    spath = tmp_path / "subject.ini"
    write_identification_report(rpath, pref, dyn, mse, report)
    write_fitted_subject(spath, pref, dyn, report)
    text = rpath.read_text()
    assert "map coefficients" in text and "whiteness" in text

    from synergy_es.subject import load_subject
    fitted = load_subject(spath)
    assert_allclose(fitted.map.lam, pref.lam, atol=1e-12)
