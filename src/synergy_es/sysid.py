"""Grey-box identification: quadratic map fit, constrained LTI fit, whiteness.

The LTI fitter searches real pole sets inside (0, 1) on a refinable grid
(over-damped by construction) with an inner linear least-squares solve for
the numerator, then normalizes to unity steady-state gain. Each grid
candidate's score is a quadratic form in the Gram matrix of one
least-squares residual basis per order, with no BLAS call; the
unconstrained-ARX diagnostic is that form's minimum. Residuals are always
evaluated from sample index 1 onward (zero history before sample 0) so
that order-2 and order-3 fits are scored on the same samples.

A fit builds input and output lagged 0..order once, as two zero-padded
lag matrices; every search and the ARX fit slice them. Each grid level is
`k * step + lo` on Python floats with `hi` last, the bits of
`np.linspace(lo, hi, 13)` for every lo, hi in the fitter's range.

A pole search is a function of its Gram matrix alone, cached on the
matrix's bytes: the order-3 fit's inner order-2 search slices the same lag
values as the order-2 fit of that record, so it reuses that search. The
first refinement's grid spans the whole pole range; its candidates and
denominators are built once per order.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from statistics import NormalDist

import numpy as np

from .config import format_matrix, format_vector
from .subject import (AdaptationDynamics, MotorNoise, PreferenceMap,
                      SimulatedSubject, save_subject, steady_state_gain)

_RESIDUAL_START = 1  # predictions start at sample 1 with zero-padded history
_P_MIN, _P_MAX = 1e-4, 1.0 - 1e-4  # the searched pole range, inside (0, 1)
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


def _record(inputs, outputs, order=None):
    """inputs and outputs as flat float arrays, checked as a record: equal
    lengths, an integer order 2 or 3 if given, all finite (first bad index
    named)."""
    u = np.asarray(inputs, dtype=float).ravel()
    y = np.asarray(outputs, dtype=float).ravel()
    if u.shape != y.shape:
        raise ValueError("input and output series must have equal length")
    if order is not None and (not isinstance(order, (int, np.integer))
                              or order not in (2, 3)):
        raise ValueError("order must be 2 or 3")
    bad = ~(np.isfinite(u) & np.isfinite(y))
    if bad.any():
        raise ValueError(f"non-finite sample at index {int(np.argmax(bad))}")
    return u, y


def fit_preference_map(thetas, mean_performances):
    """Ordinary least squares on the basis [theta^2, theta, 1].

    Takes the steady-state performance at each synergy value (checked by
    _record). Warns (but still returns the fit) if the map is not concave.
    A synergy whose square overflows (|theta| above about 1.34e154) is
    named, by its index in thetas and its value, before the solve.
    """
    thetas, y = _record(thetas, mean_performances)
    if np.unique(thetas).size < 3:
        raise ValueError("need at least 3 distinct synergy values for a quadratic fit")
    with np.errstate(over="ignore"):
        squares = thetas ** 2
    bad = ~np.isfinite(squares)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"synergy value {float(thetas[i])!r} at index {i} "
                         "has no finite square")
    design = np.column_stack([squares, thetas, np.ones_like(thetas)])
    lam, *_ = np.linalg.lstsq(design, y, rcond=None)
    if lam[0] >= 0:
        warnings.warn("fitted map is not concave (lam[0] >= 0)", ConstrainedFitWarning)
    return PreferenceMap(lam)


def _poles_to_denominator(poles):
    # one monic z-polynomial per column of roots; row k is coefficient a_k
    coeffs = np.zeros((poles.shape[0] + 1, poles.shape[1]))
    coeffs[0] = 1.0
    np.subtract(0.0, poles[0], out=coeffs[1])  # z - p: a_1 = 0 - p, as 1 * p = p
    for j in range(2, len(coeffs)):  # multiply by (z - p)
        head = coeffs[1:j + 1]
        head -= coeffs[:j] * poles[j - 1]
    return coeffs


@lru_cache(maxsize=8)
def _lag_index(length, max_lag):
    """Read-only gather index of the lag matrix of a length-sample series:
    row i - _RESIDUAL_START, column k reads padded sample max_lag + i - k."""
    rows = np.arange(max_lag + _RESIDUAL_START, max_lag + length)
    index = rows[:, None] - np.arange(max_lag + 1)
    index.flags.writeable = False
    return index


def _lag_matrix(series, max_lag):
    """Columns of `series` delayed by 0..max_lag samples with zero padding
    before the start, rows from _RESIDUAL_START."""
    padded = np.concatenate((np.zeros(max_lag), series))
    return padded[_lag_index(len(series), max_lag)]


def _lag_residual_basis(ylags, ulags, n):
    """Residual of y lagged 0..n after least squares on u lagged 1..n.

    `_arx_residuals` solves for target = (y lagged 0..n) @ den, and `lstsq` is
    linear in the right-hand side (QR is not, for rank-deficient u), so
    `basis @ den` is every candidate's residual from this one solve.
    """
    ylag = ylags[:, :n + 1]
    # C-contiguous, so regress @ coef takes the BLAS call a built matrix took
    regress = np.ascontiguousarray(ulags[:, 1:n + 1])
    coef, *_ = np.linalg.lstsq(regress, ylag, rcond=None)
    return ylag - regress @ coef


def _gram(basis):
    """basis.T @ basis, no BLAS: pairwise sums of contiguous product rows."""
    cols = basis.T.copy()
    return np.add.reduce(cols[:, None] * cols, axis=-1)


def _scores(gram, dens):
    """d.T @ gram @ d per column d of dens, in a fixed order, no BLAS: row i
    is gram[i, i] d_i plus 2 gram[i, j] d_j for j = i + 1, i + 2, ... in
    turn, added one superdiagonal at a time; the rows times d then add up
    row by row from +0.0."""
    m = len(dens)
    twice = 2.0 * gram
    rows = gram.diagonal()[:, None] * dens
    for k in range(1, m):
        head = rows[:m - k]
        head += twice.diagonal(k)[:, None] * dens[k:]
    return np.add.reduce(dens * rows, axis=0, initial=0.0)


def _free_arx_mse(gram, rows):
    """Unconstrained ARX MSE: the form's minimum over [1, a], as the basis
    has the input lags projected out (Frisch-Waugh-Lovell); clamped at 0."""
    a = np.linalg.lstsq(gram[1:, 1:], -gram[1:, 0], rcond=None)[0]
    return max(0.0, float(_scores(gram, np.append(1.0, a)[:, None])[0])) / rows


def _arx_residuals(ylags, ulags, den):
    """One-step-ahead predictor with fixed AR part; LLS over the B part.

    yhat_i = -sum a_k y_{i-k} + sum b_k u_{i-k}, with zero initial history
    (exact for data generated from rest). Rows run from sample 1 for every
    order, so MSEs of different orders are comparable.
    """
    n = len(den) - 1
    target = ylags[:, 0].copy()
    for kk in range(1, n + 1):
        target += den[kk] * ylags[:, kk]
    regress = np.ascontiguousarray(ulags[:, 1:n + 1])
    b, *_ = np.linalg.lstsq(regress, target, rcond=None)
    resid = target - regress @ b
    return b, float(np.mean(resid ** 2))


def _companion_realization(b, den):
    """(Phi, Gamma, Psi), controller-canonical, for b(z)/den(z), strictly proper."""
    n = len(den) - 1
    phi = np.zeros((n, n))
    phi[0, :] = -den[1:]
    if n > 1:
        phi[1:, :-1] = np.eye(n - 1)
    gamma = np.zeros(n)
    gamma[0] = 1.0
    return phi, gamma, np.asarray(b, dtype=float)


def _pole_grid(lo, hi):
    """The 13 grid levels lo..hi on Python floats, and their step: the bits of
    np.linspace(lo, hi, 13) unless 0 < |hi - lo| <= 6 * 2**-1074 (step 0)."""
    step = (hi - lo) / 12
    return [k * step + lo for k in range(12)] + [hi], step


@lru_cache(maxsize=None)
def _pole_grid_indices(npts, order):
    """Grid-point indices of every nondecreasing pole tuple, in scan order,
    as a read-only array built once per (npts, order)."""
    tuples = np.array(list(combinations_with_replacement(range(npts), order)))
    tuples.flags.writeable = False
    return tuples


@lru_cache(maxsize=None)
def _full_range_candidates(order):
    """Read-only poles (one candidate per column) and denominators of the
    first refinement's grid, over the whole pole range, and its step."""
    levels, step = _pole_grid(_P_MIN, _P_MAX)
    poles = np.array(levels)[_pole_grid_indices(13, order).T]
    dens = _poles_to_denominator(poles)
    poles.flags.writeable = dens.flags.writeable = False
    return poles, dens, step


@lru_cache(maxsize=8)
def _pole_search(gram_bytes, order, extra):
    """(poles, den) with the least score d.T @ G @ d over 4 refinements of
    the pole grid, G the order's Gram matrix as bytes; den is read-only.

    extra, a tuple of order floats or (), is one more candidate, ranked
    after the first grid. Its score never changes and the best score only
    falls, so no later refinement could select it: only the first scores
    it. extra has no default, so every call makes the same cache key.
    """
    gram = np.frombuffer(gram_bytes).reshape(order + 1, order + 1)
    poles, dens, step = _full_range_candidates(order)
    if extra:
        column = np.array(extra)[:, None]
        poles = np.concatenate((poles, column), axis=1)
        dens = np.concatenate((dens, _poles_to_denominator(column)), axis=1)
    tuples = _pole_grid_indices(13, order).T
    best = None
    for refinement in range(4):
        if refinement:  # around the best poles so far
            lo = max(_P_MIN, min(best[1]) - step)
            hi = min(_P_MAX, max(best[1]) + step)
            levels, step = _pole_grid(lo, hi)
            poles = np.array(levels)[tuples]
            dens = _poles_to_denominator(poles)
        scores = _scores(gram, dens)
        k = scores.argmin()  # first minimum, as a sequential scan
        if best is None or scores[k] < best[0]:
            best = (scores[k], poles[:, k].tolist(), dens[:, k])
    den = best[2].copy()
    den.flags.writeable = False
    return tuple(best[1]), den


def _searched(ylags, ulags, order, extra=()):
    """(Gram matrix, poles, den) of the order's cached pole search."""
    gram = _gram(_lag_residual_basis(ylags, ulags, order))
    return gram, *_pole_search(gram.tobytes(), order, extra)


def fit_adaptation_lti(u_series, j_series, order=2):
    """Constrained fit: real poles in (0, 1), unity gain, min one-step MSE.

    Returns (AdaptationDynamics, mse). The order-3 search also scores the
    best order-2 pole pair with the third pole at exactly zero (a pure
    delay, whose predictor residuals equal the order-2 ones), so the
    order-3 MSE never exceeds the order-2 MSE on the same data. That
    order-2 search is the one an order-2 fit of the record runs, and comes
    from the same cache. A record with constant input and output warns
    (the fit is still returned): it shows no transient to identify poles
    from. _record checks the record. A finite record whose fit would
    overflow (a huge output, or an input tiny against the output) raises a
    ValueError naming each series' largest magnitude, before any
    RuntimeWarning: the fit runs with overflow and invalid operations
    raised, which changes no bit of a fit that completes without them.
    """
    u, y = _record(u_series, j_series, order)
    if len(u) < 10 * order:
        raise ValueError(f"need at least {10 * order} samples for an order-{order} fit")
    if np.ptp(u) == 0 and np.ptp(y) == 0:
        # constant u from rest is a step (zero history), but with y constant
        # too every candidate fits exactly and the argmin picks rounding noise
        warnings.warn("no excitation (u and y are constant); the poles "
                      "cannot be identified")
    try:
        return _fit_lti(u, y, order)
    except FloatingPointError:
        raise ValueError(
            "record out of the fit's floating-point range (it overflows): "
            f"largest magnitude {float(np.max(np.abs(u)))!r} in the input, "
            f"{float(np.max(np.abs(y)))!r} in the output") from None


@np.errstate(over="raise", invalid="raise")
def _fit_lti(u, y, order):
    """fit_adaptation_lti on a checked record."""
    ylags, ulags = _lag_matrix(y, order), _lag_matrix(u, order)
    # order 3 also scores the best order-2 pair behind a pole at zero
    gram, poles, den = _searched(ylags, ulags, 2)
    if order == 3:
        gram, _, den = _searched(ylags, ulags, 3, (0.0, *poles))
    b, mse = _arx_residuals(ylags, ulags, den)

    # one model per fit: Gamma scaled to unity gain, left as is at gain 0
    phi, gamma, psi = _companion_realization(b, den)
    gain = steady_state_gain(phi, gamma, psi)
    dyn = AdaptationDynamics(phi, gamma / gain if gain != 0.0 else gamma, psi)

    # diagnostic only: compare with the unconstrained ARX fit; the floor
    # 1e-6 * max(1, var y) is at least 1e-6, so var y is needed only past that
    mse_free = _free_arx_mse(gram, len(u) - _RESIDUAL_START)
    bound = 4.0 * mse_free
    if mse > bound + 1e-6 and mse > bound + 1e-6 * max(1.0, float(np.var(y))):
        warnings.warn(
            "pole constraint is strongly active (constrained mse "
            f"{mse:.4g} vs unconstrained {mse_free:.4g})", ConstrainedFitWarning)
    return dyn, mse


def whiteness_test(residuals):
    """Max-normalized-autocorrelation whiteness test at the 95% level.

    threshold = z(0.975) / sqrt(N); lags 1..min(10, N//4).
    At N=50 this reproduces the 0.277 validation criterion. A non-finite
    residual is rejected, its first index named.
    """
    e = np.asarray(residuals, dtype=float).ravel()
    n = e.size
    if n < 20:
        raise ValueError("need at least 20 residual samples")
    bad = ~np.isfinite(e)
    if bad.any():
        raise ValueError(f"non-finite residual at index {int(np.argmax(bad))}")
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
    thetas, performances = _record(thetas, performances, order)
    levels, which, counts = np.unique(thetas, return_inverse=True, return_counts=True)
    pref = fit_preference_map(levels, np.bincount(which, performances) / counts)
    u = pref.value(thetas)
    dyn, mse = fit_adaptation_lti(u, performances, order)

    # free-run residuals of the returned model, for the noise analysis
    resid = performances - np.array(dyn.response(u.tolist()))
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
