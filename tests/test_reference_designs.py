"""The closed-form band-pass and observer designs against scipy's
general-purpose routines (scipy is a test dependency only)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from synergy_es.personalizer import (DEFAULT_L, OBSERVER_PHI, OBSERVER_PSI,
                                     BandPassFilter, GradCurvObserver,
                                     PersonalizerConfig)

linalg = pytest.importorskip("scipy.linalg")
signal = pytest.importorskip("scipy.signal")

# the default gain L keeps the observer stable up to w of about 0.83
OMEGA = st.floats(0.01, np.pi / 4)


@given(omega_o=OMEGA, H=st.floats(0.01, 10.0), Q=st.floats(0.1, 100.0))
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
def test_bandpass_matches_cont2discrete(omega_o, H, Q):
    f = BandPassFilter(omega_o, H, Q)
    wa = 2.0 * np.tan(np.sqrt(2) * omega_o / 2.0)
    analog = (np.array([[-wa / Q, -wa * wa], [1.0, 0.0]]), np.array([[1.0], [0.0]]),
              np.array([[H * wa / Q, 0.0]]), np.array([[0.0]]))
    ad, bd, cd, dd, _ = signal.cont2discrete(analog, 1.0, method="bilinear")
    assert_allclose(f.ad, ad, rtol=1e-13)
    assert_allclose(f.bd, bd.ravel(), rtol=1e-13)
    assert_allclose(f.cd, cd.ravel(), rtol=1e-13)
    assert_allclose(f.dd, dd[0, 0], rtol=1e-13)


def van_loan_flow_integral(omega_o):
    """Van Loan: the top-right block of expm([[w Phi, I], [0, 0]]) is the
    flow integral of expm(t w Phi) over one iteration."""
    aug = np.zeros((10, 10))
    aug[:5, :5] = omega_o * OBSERVER_PHI
    aug[:5, 5:] = np.eye(5)
    return linalg.expm(aug)[:5, 5:]


@given(omega_o=OMEGA)
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
def test_observer_matches_expm_and_van_loan_integral(omega_o):
    obs = GradCurvObserver(omega_o, DEFAULT_L)
    assert_allclose(obs.transition, linalg.expm(omega_o * OBSERVER_PHI),
                    rtol=0, atol=1e-14)
    assert_allclose(obs.injection,
                    van_loan_flow_integral(omega_o) @ (omega_o * DEFAULT_L),
                    rtol=0, atol=1e-14)


# each entry of L within 2 of the default, so inside [-4, 4]: a uniform
# draw from [-4, 4]^5 is stable only about 5% of the time, this about 30%
GAIN_L = st.tuples(*[st.floats(v - 2.0, v + 2.0) for v in DEFAULT_L])


@given(omega_o=OMEGA, gain_l=GAIN_L)
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
def test_observer_rejects_exactly_the_unstable_gains(omega_o, gain_l):
    injection = van_loan_flow_integral(omega_o) @ (omega_o * np.array(gain_l))
    closed = linalg.expm(omega_o * OBSERVER_PHI) - np.outer(injection, OBSERVER_PSI)
    radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    assume(abs(radius - 1.0) > 1e-9)
    if radius >= 1.0:
        with pytest.raises(ValueError, match="unstable"):
            PersonalizerConfig(omega_o=omega_o, observer_gain=gain_l)
    else:
        _, obs, *_ = PersonalizerConfig(omega_o=omega_o, observer_gain=gain_l).design
        assert_allclose(obs.closed_loop_radius, radius, rtol=0, atol=1e-9)
