"""Grey-box identification: quadratic map fit, constrained LTI fit, whiteness.

The LTI fitter searches real pole sets inside (0, 1) on a refinable grid
(over-damped by construction) with an inner linear least-squares solve for
the numerator, then normalizes to unity steady-state gain. The grid
candidates are scored in closed form from one least-squares solve per
order. Residuals are always evaluated from sample index 1 onward (zero
history before sample 0) so that order-2 and order-3 fits are scored on
the same samples.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from statistics import NormalDist

import numpy as np

from .config import format_matrix, format_vector
from .subject import (AdaptationDynamics, MotorNoise, PreferenceMap,
                      SimulatedSubject, save_subject)

_RESIDUAL_START = 1  # predictions start at sample 1 with zero-padded history
_MAX_LAG = 10  # whiteness test: autocorrelation lags 1.._MAX_LAG at most
_Z_95 = NormalDist().inv_cdf(0.975)  # two-sided 95% normal quantile, 1.96


class ConstrainedFitWarning(UserWarning):
    """The pole-constrained fit is much worse than the unconstrained one."""


@dataclass
class WhitenessReport:
    max_normalized_autocorr: float
    threshold: float
    passed: bool
    lags_tested: int
    residual_mean: float
    residual_std: float


def fit_preference_map(thetas, mean_performances):
    """Ordinary least squares on the basis [theta^2, theta, 1].

    Takes the steady-state performance at each synergy value. Warns (but
    still returns the fit) when the fitted map is not concave.
    """
    thetas = np.asarray(thetas, dtype=float)
    y = np.asarray(mean_performances, dtype=float)
    if np.unique(thetas).size < 3:
        raise ValueError("need at least 3 distinct synergy values for a quadratic fit")
    design = np.column_stack([thetas ** 2, thetas, np.ones_like(thetas)])
    lam, *_ = np.linalg.lstsq(design, y, rcond=None)
    if lam[0] >= 0:
        warnings.warn("fitted map is not concave (lam[0] >= 0)", ConstrainedFitWarning)
    return PreferenceMap(lam)


def _poles_to_denominator(poles):
    # one monic z-polynomial per row of roots; coefficients [1, a1, ..., an]
    coeffs = np.zeros((poles.shape[0], poles.shape[1] + 1))
    coeffs[:, 0] = 1.0
    for j, p in enumerate(poles.T, start=1):  # multiply by (z - p)
        coeffs[:, 1:j + 1] -= coeffs[:, :j] * p[:, None]
    return coeffs


def _lagged(series, lag):
    """Series delayed by `lag` samples with zero padding before the start."""
    out = np.zeros_like(series, dtype=float)
    if lag < len(series):
        out[lag:] = series[:len(series) - lag]
    return out


def _lag_columns(series, lags):
    """Columns of `series` delayed by each lag, rows from _RESIDUAL_START."""
    return np.column_stack([_lagged(series, k)[_RESIDUAL_START:] for k in lags])


def _lag_residual_basis(u, y, n):
    """Residual of y lagged 0..n after least squares on u lagged 1..n.

    `_arx_residuals` solves for target = (y lagged 0..n) @ den, and `lstsq` is
    linear in the right-hand side (QR is not, for rank-deficient u), so
    `basis @ den` is every candidate's residual from this one solve.
    """
    ylag = _lag_columns(y, range(n + 1))
    regress = _lag_columns(u, range(1, n + 1))
    coef, *_ = np.linalg.lstsq(regress, ylag, rcond=None)
    return ylag - regress @ coef


def _arx_residuals(u, y, den):
    """One-step-ahead predictor with fixed AR part; LLS over the B part.

    yhat_i = -sum a_k y_{i-k} + sum b_k u_{i-k}, with zero initial history
    (exact for data generated from rest). Rows run from sample 1 for every
    order, so MSEs of different orders are comparable.
    """
    n = len(den) - 1
    rows = np.arange(_RESIDUAL_START, len(y))
    target = y[rows].astype(float).copy()
    for kk in range(1, n + 1):
        target += den[kk] * _lagged(y, kk)[rows]
    regress = _lag_columns(u, range(1, n + 1))
    b, *_ = np.linalg.lstsq(regress, target, rcond=None)
    resid = target - regress @ b
    return b, float(np.mean(resid ** 2))


def _companion_realization(b, den):
    """Controller-canonical state space for b(z)/den(z), strictly proper."""
    n = len(den) - 1
    phi = np.zeros((n, n))
    phi[0, :] = -den[1:]
    if n > 1:
        phi[1:, :-1] = np.eye(n - 1)
    gamma = np.zeros(n)
    gamma[0] = 1.0
    psi = np.asarray(b, dtype=float)
    return AdaptationDynamics(phi, gamma, psi)


def fit_adaptation_lti(u_series, j_series, order=2):
    """Constrained fit: real poles in (0, 1), unity gain, min one-step MSE.

    Returns (AdaptationDynamics, mse). The order-3 search also scores the
    best order-2 pole pair with the third pole at exactly zero (a pure
    delay, whose predictor residuals equal the order-2 ones), so the
    order-3 MSE never exceeds the order-2 MSE on the same data. A record
    with constant input and output warns (the fit is still returned): it
    shows no transient to identify poles from.
    """
    u = np.asarray(u_series, dtype=float).ravel()
    y = np.asarray(j_series, dtype=float).ravel()
    if u.shape != y.shape:
        raise ValueError("input and output series must have equal length")
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    if len(u) < 10 * order:
        raise ValueError(f"need at least {10 * order} samples for an order-{order} fit")
    if np.ptp(u) == 0 and np.ptp(y) == 0:
        # constant u from rest is a step (zero history), but with y constant
        # too every candidate fits exactly and the argmin picks rounding noise
        warnings.warn("no excitation (u and y are constant); the poles "
                      "cannot be identified")

    p_min, p_max = 1e-4, 1.0 - 1e-4

    def search(order_n, extra=()):
        basis = _lag_residual_basis(u, y, order_n)
        best = None
        lo, hi, npts = p_min, p_max, 13
        # grid-point indices of every nondecreasing pole tuple, in scan order
        tuples = np.array(list(combinations_with_replacement(range(npts), order_n)))
        for _ in range(4):  # refinable grid
            cands = np.vstack([np.linspace(lo, hi, npts)[tuples], *extra])
            dens = _poles_to_denominator(cands)
            mses = np.mean((basis @ dens.T) ** 2, axis=0)
            k = int(np.argmin(mses))  # first minimum, as a sequential scan
            if best is None or mses[k] < best[0]:
                best = (mses[k], cands[k], dens[k])
            span = (hi - lo) / (npts - 1)
            lo = max(p_min, min(best[1]) - span)
            hi = min(p_max, max(best[1]) + span)
        return best

    # order 3 also scores the best order-2 pair behind a pole at zero
    den = search(order, () if order == 2 else [(0.0, *search(2)[1])])[2]
    b, mse = _arx_residuals(u, y, den)

    dyn = _companion_realization(b, den)
    gain = dyn.steady_state_gain()
    if gain != 0.0:
        dyn = dyn.normalized()

    # diagnostic only: compare with the unconstrained ARX fit
    _, mse_free = _unconstrained_arx(u, y, order)
    floor = 1e-6 * max(1.0, float(np.var(y)))
    if mse > 4.0 * mse_free + floor:
        warnings.warn(
            "pole constraint is strongly active (constrained mse "
            f"{mse:.4g} vs unconstrained {mse_free:.4g})", ConstrainedFitWarning)
    return dyn, mse


def _unconstrained_arx(u, y, n):
    rows = np.arange(_RESIDUAL_START, len(y))
    regress = np.column_stack([-_lag_columns(y, range(1, n + 1)),
                               _lag_columns(u, range(1, n + 1))])
    theta, *_ = np.linalg.lstsq(regress, y[rows], rcond=None)
    resid = y[rows] - regress @ theta
    return theta, float(np.mean(resid ** 2))


def whiteness_test(residuals):
    """Max-normalized-autocorrelation whiteness test at the 95% level.

    threshold = z(0.975) / sqrt(N); lags 1..min(10, N//4).
    At N=50 this reproduces the 0.277 validation criterion.
    """
    e = np.asarray(residuals, dtype=float).ravel()
    n = e.size
    if n < 20:
        raise ValueError("need at least 20 residual samples")
    lags = min(_MAX_LAG, n // 4)
    r0 = float(e @ e)
    if r0 == 0.0:
        acs = np.zeros(lags)
    else:
        acs = np.array([abs(float(e[:-k] @ e[k:])) / r0 for k in range(1, lags + 1)])
    threshold = float(_Z_95 / np.sqrt(n))
    max_ac = float(np.max(acs))
    return WhitenessReport(
        max_normalized_autocorr=max_ac,
        threshold=threshold,
        passed=bool(max_ac < threshold),
        lags_tested=lags,
        residual_mean=float(np.mean(e)),
        residual_std=float(np.std(e, ddof=1)),
    )


def identify_from_records(thetas, performances, order=2):
    """Full identification pass over an (theta_i, J_i) record.

    Steady-state samples are formed per distinct theta (mean over its
    iterations), the map is fit, then the LTI is fit on (u, J) where
    u = map(theta), and the residual whiteness is analyzed.
    """
    thetas = np.asarray(thetas, dtype=float)
    performances = np.asarray(performances, dtype=float)
    bad = ~(np.isfinite(thetas) & np.isfinite(performances))
    if bad.any():
        raise ValueError(f"non-finite sample at index {int(np.argmax(bad))}")
    levels, which, counts = np.unique(thetas, return_inverse=True, return_counts=True)
    pref = fit_preference_map(levels, np.bincount(which, performances) / counts)
    u = pref.value(thetas)
    dyn, mse = fit_adaptation_lti(u, performances, order)

    # free-run residuals of the returned model, for the noise analysis
    x, pred = (0.0,) * dyn.order, []
    for ui in u.tolist():
        x, y = dyn.step(x, ui)
        pred.append(y)
    resid = performances - np.array(pred)
    return pref, dyn, mse, resid, whiteness_test(resid)


def write_identification_report(path, pref, dyn, mse, report):
    lines = [
        "identification report",
        "=====================",
        f"map coefficients: {format_vector(pref.lam)}",
        f"map optimum: {pref.optimum():.6f}" if pref.lam[0] < 0 else "map optimum: n/a (non-concave)",
        f"lti order: {dyn.order}",
        f"lti phi: {format_matrix(dyn.phi)}",
        f"lti gamma: {format_vector(dyn.gamma)}",
        f"lti psi: {format_vector(dyn.psi)}",
        f"lti steady-state gain: {dyn.steady_state_gain():.9f}",
        f"one-step mse: {mse:.6g}",
        f"whiteness max autocorr: {report.max_normalized_autocorr:.4f}",
        f"whiteness threshold: {report.threshold:.4f}",
        f"whiteness passed: {report.passed}",
        f"residual mean: {report.residual_mean:.4f}",
        f"residual std: {report.residual_std:.4f}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_fitted_subject(path, pref, dyn, report):
    """Emit a subject config consumable by the simulator; the residual
    mean and std become its motor noise."""
    noise = MotorNoise(report.residual_mean, report.residual_std, 0)
    save_subject(path, SimulatedSubject(pref, dyn, noise, subject_id="identified"))
