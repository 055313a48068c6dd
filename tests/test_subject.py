"""Tests for the grey-box subject model."""

import pickle
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import fsum, inf

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from synergy_es.harness import ExperimentConfig, make_subject, run_episode
from synergy_es.subject import (GAMMA_A, LAMBDA_A, LAMBDA_B, NOISE_BLOCK,
                                NOISE_STD_A, PHI_A, PSI_A, AdaptationDynamics,
                                MotorNoise, NonConcaveMapError, PreferenceMap,
                                SimulatedSubject, _exact_fma_chains, _fma, _HUGE,
                                _kernel, _kernel_source, _split, _TINY, load_subject,
                                save_subject, static_subject, subject_a, subject_b)
from synergy_es.sysid import fit_adaptation_lti, identify_from_records

MAP_A = PreferenceMap(LAMBDA_A)
MAP_B = PreferenceMap(LAMBDA_B)


def vertex_value(lam):
    # independent oracle: u(theta*) = c - b^2 / (4 a)
    return lam[2] - lam[1] ** 2 / (4.0 * lam[0])


def grid_argmax(lam, lo=0.8, hi=2.4, step=1e-4):
    grid = np.arange(lo, hi + step / 2, step)
    vals = lam[0] * grid ** 2 + lam[1] * grid + lam[2]
    return grid[int(np.argmax(vals))]


class TestPreferenceMap:
    def test_value_subject_a_at_one(self):
        # -158.15 + 529.18 - 293.34 by direct substitution
        assert_allclose(MAP_A.value(1.0), 77.69, atol=1e-10)

    def test_constant_map(self):
        m = PreferenceMap([0.0, 0.0, 42.5])
        for th in (0.8, 1.7, 2.4):
            assert m.value(th) == 42.5

    def test_vertex_value_subject_b(self):
        th_star = MAP_B.optimum()
        assert_allclose(MAP_B.value(th_star), vertex_value(LAMBDA_B), atol=1e-9)
        assert_allclose(MAP_B.value(th_star), 156.40, atol=0.05)

    def test_analytic_derivative_subject_a(self):
        d1, _ = MAP_A.derivatives(1.0)
        assert_allclose(d1, 212.88, atol=1e-10)
        # central-difference oracle
        h = 1e-6
        fd = (MAP_A.value(1.0 + h) - MAP_A.value(1.0 - h)) / (2 * h)
        assert_allclose(d1, fd, rtol=1e-6)

    def test_derivative_zero_at_vertex(self):
        d1, _ = MAP_A.derivatives(MAP_A.optimum())
        assert_allclose(d1, 0.0, atol=1e-9)

    def test_second_derivative_subject_b(self):
        _, d2 = MAP_B.derivatives(1.3)
        assert_allclose(d2, -192.36, atol=1e-10)
        h = 1e-4
        fd2 = (MAP_B.value(1.3 + h) - 2 * MAP_B.value(1.3)
               + MAP_B.value(1.3 - h)) / h ** 2
        assert_allclose(d2, fd2, rtol=1e-5)

    def test_optimum_against_grid_oracle(self):
        assert_allclose(MAP_A.optimum(), grid_argmax(LAMBDA_A), atol=2e-4)
        assert_allclose(MAP_B.optimum(), grid_argmax(LAMBDA_B), atol=2e-4)
        assert_allclose(MAP_A.optimum(), 1.6730, atol=1e-3)
        assert_allclose(MAP_B.optimum(), 1.7786, atol=1e-3)

    def test_symmetric_parabola_optimum(self):
        assert PreferenceMap([-1.0, 0.0, 0.0]).optimum() == 0.0

    def test_non_concave_rejected(self):
        with pytest.raises(NonConcaveMapError):
            PreferenceMap([0.5, 1.0, 0.0]).optimum()

    def test_derivatives_match_finite_differences_random(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            lam = np.array([-rng.uniform(1, 300), rng.uniform(-500, 500),
                            rng.uniform(-300, 300)])
            m = PreferenceMap(lam)
            th = rng.uniform(0.8, 2.4)
            fd = (m.value(th + h) - m.value(th - h)) / (2 * h)
            d1, _ = m.derivatives(th)
            assert_allclose(d1, fd, rtol=1e-6, atol=1e-4)

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lam = np.array([-rng.uniform(10, 300), rng.uniform(50, 900),
                            rng.uniform(-300, 300)])
            c = rng.uniform(0.01, 50.0)
            assert_allclose(PreferenceMap(lam).optimum(),
                            PreferenceMap(c * lam).optimum(), rtol=1e-12)


_CELL = st.floats(-1e6, 1e6, allow_nan=False)
# a coefficient: 0 or 1 of either sign, a power of 2 (whose product is
# exact; 2**-500 and 2**460 lie outside [_TINY, _HUGE]) or any cell
_COEFFICIENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.tuples(st.sampled_from([1.0, -1.0]),
              st.integers(-60, 60) | st.sampled_from([-500, 460])).map(
        lambda sk: sk[0] * 2.0 ** sk[1]),
    _CELL)
# a state value: any cell, or a zero or value outside [_TINY, _HUGE]
_STATE = _CELL | st.sampled_from([0.0, -0.0, 2.0 ** -460, -1e-300, 2.0 ** 470, -1e200])
# a coefficient, or one far outside [_TINY, _HUGE], subnormal included
_WIDE = _COEFFICIENT | st.sampled_from([1e300, -1e300, 1e-310])
# dynamics with coefficients 2**-500 and 2**460, each an 'f' term
_EDGE = AdaptationDynamics([[2.0 ** -500, 0.5], [0.25, 0.3]], [1.0, 0.5], [1.0, 2.0 ** 460])
# dynamics whose output chain overflows from the initial state _OVERFLOW[1]:
# -1e300 * 1e10 is -inf, then the exact, finite 1e300 * 1e10 is added, so J
# is -inf (the float product is inf, which would make it nan)
_OVERFLOW = (AdaptationDynamics([[0.5, 0.0], [0.25, 0.3]], [1e9, 0.5], [-1e300, 1e300]),
             (1e10, 1e10))


@st.composite
def _random_dynamics(draw, max_order=3, coefficient=_CELL):
    order = draw(st.integers(1, max_order))
    phi, psi = (draw(st.lists(coefficient, min_size=k, max_size=k))
                for k in (order * order, order))
    gamma = draw(st.lists(_CELL, min_size=order, max_size=order))
    return AdaptationDynamics(np.reshape(phi, (order, order)), gamma, psi)


def normalized(dyn):
    """dyn with Gamma scaled so that the steady-state gain is exactly 1:
    the tests' unit-gain oracle, which raises at gain 0. The package has no
    such rule: sysid.fit_adaptation_lti scales Gamma itself, so that a
    zero-gain record still returns a model."""
    g = dyn.steady_state_gain()
    if g == 0.0:
        raise ValueError("zero steady-state gain cannot be normalized")
    return AdaptationDynamics(dyn.phi, dyn.gamma / g, dyn.psi)


def _package_dynamics():
    """A, B, the static subject and the order-2 and order-3 companion forms
    fitted to a noisy sweep of A and of B."""
    forms = [subject_a().dynamics, subject_b().dynamics,
             static_subject(MAP_A).dynamics]
    for name in "AB":
        sweep = run_episode(ExperimentConfig(subject=name, algorithm="sweep"))
        u = PreferenceMap(LAMBDA_A if name == "A" else LAMBDA_B).value(
            sweep.column("theta_applied"))
        forms += [fit_adaptation_lti(u, sweep.column("J"), order)[0]
                  for order in (2, 3)]
    return forms


# the chain order of a Phi row: OpenBLAS's Haswell gemv up to order 3
_ROW_ORDER = {1: [0], 2: [1, 0], 3: [1, 0, 2]}


def _fma_chain(coefficients, xs, order):
    """fma(a_k, x_k, ... fma(a_1, x_1, a_0 * x_0)) over the indices in
    order, each fma rounded once from its exact value."""
    j, *rest = order
    s = coefficients[j] * xs[j]
    for j in rest:
        s = float(Fraction(coefficients[j]) * Fraction(xs[j]) + Fraction(s))
    return s


def _chains(dyn):
    """The (a, j) terms of each chain of dyn, in chain order: one per row
    of Phi, then Psi's, in index order."""
    n = dyn.order
    return [*([(row[j], j) for j in _ROW_ORDER.get(n, range(n))] for row in dyn.phi.tolist()),
            list(zip(dyn.psi.tolist(), range(n)))]


def _fma_chains(chains, xs):
    """Per chain, fma(a_k, x_k, ... fma(a_1, x_1, a_0 * x_0)) with x = xs[j],
    every fma Dekker's exact product a*x = p + e, whatever a is, summed
    with s by fsum: the bits of the step for coefficients and states in
    [_TINY, _HUGE]."""
    out = []
    for (s, j), *terms in chains:
        s *= xs[j]
        for a, j in terms:
            x = xs[j]
            _, ah, al = _split(a)
            _, xh, xl = _split(x)
            p = a * x
            s = fsum((p, ((ah * xh - p) + ah * xl + al * xh) + al * xl, s))
        out.append(s)
    return out


def _in_range(values):
    return all(_TINY <= abs(v) <= _HUGE or not v for v in values)


def _reference_step(dyn, state, u):
    """One step of dyn from state (a list) on the input u: the chains by
    _fma_chains, or by _exact_fma_chains where a coefficient or a state
    value lies outside [_TINY, _HUGE], plus the gamma u terms. Returns
    (next state, noise-free output)."""
    chains = _chains(dyn)
    fast = _in_range([a for chain in chains for a, _ in chain] + state)
    *rows, y = (_fma_chains if fast else _exact_fma_chains)(chains, state)
    return [r + 0.0 + g * u for r, g in zip(rows, dyn.gamma.tolist())], y + 0.0


def _reference_subject_step(pref_map, dyn, noise, state, theta):
    """SimulatedSubject.step as the three calls it fuses: pref_map.value,
    then _reference_step, then noise.sample. Returns (next state, J)."""
    state, y = _reference_step(dyn, list(state), float(pref_map.value(theta)))
    return state, y + noise.sample()


def _kernel_step(dyn, state, u):
    """One step of dyn's kernel from state on the input u, through the
    subject factory: the map u(theta) = u, no noise. Returns (next state,
    noise-free output)."""
    step, now = dyn._subject(0.0, 0.0, float(u), MotorNoise(), *state)
    y = step(1.0)
    return now(), y


@st.composite
def _stable_dynamics(draw):
    """Dynamics of order 1-3 that a subject accepts, whatever the cells:
    Phi is a triangular matrix with its rows and columns permuted, its
    diagonal inside (-1, 1), so its eigenvalues are that diagonal. Its
    other cells, and Psi's, are any _COEFFICIENT: 0 and 1 of either sign,
    powers of 2 inside and outside [_TINY, _HUGE], and cells that take
    Dekker's product."""
    order = draw(st.integers(1, 3))
    diagonal = st.sampled_from([0.0, -0.0, 0.5, -0.25, 0.35, 2.0 ** -500])
    phi = np.array([[draw(diagonal if i == j else _COEFFICIENT if i < j else st.just(0.0))
                     for j in range(order)] for i in range(order)])
    perm = draw(st.permutations(range(order)))
    psi = draw(st.lists(_COEFFICIENT, min_size=order, max_size=order))
    gamma = draw(st.lists(_CELL, min_size=order, max_size=order))
    return AdaptationDynamics(phi[np.ix_(perm, perm)], gamma, psi)


_SEED = st.integers(0, 2 ** 32)
_NOISE = st.tuples(st.floats(-10, 10), st.floats(0, 100), _SEED)
# a synergy as a float, an int or an np.float64
_THETA = st.floats(0.8, 2.4) | st.integers(0, 3) | st.floats(0.8, 2.4).map(np.float64)
# what happens to the subject before a run of steps
_EVENT = st.one_of(st.just(("pickle",)), st.just(("sample",)),
                   st.tuples(st.just("noise.reset"), _SEED),
                   st.tuples(st.just("reset"), _SEED),
                   st.tuples(st.just("noise ="), _NOISE))


# the kernel source of each chain structure the package builds (see
# _package_dynamics), and of _EDGE's, pinned so that a change to the
# template shows here
_PINNED_KERNELS = {
    # the static subject
    (1, ('0', '1')): '''\
def kernel(g0, exact):
    def response(inputs):
        x0 = 0.0
        ys = []
        for u in inputs:
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0)):
                x0, y = 0.0 + g0 * u, x0 + 0.0
            else:
                (x0,), y = exact((x0,), u)
            ys.append(y)
        return ys
    def subject(m2, m1, m0, noise, x0):
        def step(theta):
            nonlocal x0
            th = float(theta)
            u = m2 * th * th + m1 * th + m0
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0)):
                x0, y = 0.0 + g0 * u, x0 + 0.0
            else:
                (x0,), y = exact((x0,), u)
            block = noise._block
            if block:
                return y + (noise.mean + noise.std * block.pop())
            return y + noise.sample()
        def state():
            return x0,
        return step, state
    return response, subject
''',
    # subjects A and B
    (2, ('10', 'xd', '10')): '''\
def kernel(a1_1, a1_0, a1_0h, a1_0l, g0, g1, exact):
    def response(inputs):
        x0, x1 = 0.0, 0.0
        ys = []
        for u in inputs:
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1)):
                t = 134217729.0 * x0
                h0 = t - (t - x0)
                l0 = x0 - h0
                r1 = a1_1 * x1
                p = a1_0 * x0
                e = ((a1_0h * h0 - p) + a1_0h * l0 + a1_0l * h0) + a1_0l * l0
                r1 = fsum((p, e, r1)) if e else p + r1
                x0, x1, y = x1 + 0.0 + g0 * u, r1 + 0.0 + g1 * u, x0 + 0.0
            else:
                (x0, x1), y = exact((x0, x1), u)
            ys.append(y)
        return ys
    def subject(m2, m1, m0, noise, x0, x1):
        def step(theta):
            nonlocal x0, x1
            th = float(theta)
            u = m2 * th * th + m1 * th + m0
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1)):
                t = 134217729.0 * x0
                h0 = t - (t - x0)
                l0 = x0 - h0
                r1 = a1_1 * x1
                p = a1_0 * x0
                e = ((a1_0h * h0 - p) + a1_0h * l0 + a1_0l * h0) + a1_0l * l0
                r1 = fsum((p, e, r1)) if e else p + r1
                x0, x1, y = x1 + 0.0 + g0 * u, r1 + 0.0 + g1 * u, x0 + 0.0
            else:
                (x0, x1), y = exact((x0, x1), u)
            block = noise._block
            if block:
                return y + (noise.mean + noise.std * block.pop())
            return y + noise.sample()
        def state():
            return x0, x1
        return step, state
    return response, subject
''',
    # the order-2 companion form fit_adaptation_lti returns
    (2, ('xd', '01', 'xd')): '''\
def kernel(a0_1, a0_0, a0_0h, a0_0l, a2_0, a2_1, a2_1h, a2_1l, g0, g1, exact):
    def response(inputs):
        x0, x1 = 0.0, 0.0
        ys = []
        for u in inputs:
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1)):
                t = 134217729.0 * x0
                h0 = t - (t - x0)
                l0 = x0 - h0
                t = 134217729.0 * x1
                h1 = t - (t - x1)
                l1 = x1 - h1
                r0 = a0_1 * x1
                p = a0_0 * x0
                e = ((a0_0h * h0 - p) + a0_0h * l0 + a0_0l * h0) + a0_0l * l0
                r0 = fsum((p, e, r0)) if e else p + r0
                r2 = a2_0 * x0
                p = a2_1 * x1
                e = ((a2_1h * h1 - p) + a2_1h * l1 + a2_1l * h1) + a2_1l * l1
                r2 = fsum((p, e, r2)) if e else p + r2
                x0, x1, y = r0 + 0.0 + g0 * u, x0 + 0.0 + g1 * u, r2 + 0.0
            else:
                (x0, x1), y = exact((x0, x1), u)
            ys.append(y)
        return ys
    def subject(m2, m1, m0, noise, x0, x1):
        def step(theta):
            nonlocal x0, x1
            th = float(theta)
            u = m2 * th * th + m1 * th + m0
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1)):
                t = 134217729.0 * x0
                h0 = t - (t - x0)
                l0 = x0 - h0
                t = 134217729.0 * x1
                h1 = t - (t - x1)
                l1 = x1 - h1
                r0 = a0_1 * x1
                p = a0_0 * x0
                e = ((a0_0h * h0 - p) + a0_0h * l0 + a0_0l * h0) + a0_0l * l0
                r0 = fsum((p, e, r0)) if e else p + r0
                r2 = a2_0 * x0
                p = a2_1 * x1
                e = ((a2_1h * h1 - p) + a2_1h * l1 + a2_1l * h1) + a2_1l * l1
                r2 = fsum((p, e, r2)) if e else p + r2
                x0, x1, y = r0 + 0.0 + g0 * u, x0 + 0.0 + g1 * u, r2 + 0.0
            else:
                (x0, x1), y = exact((x0, x1), u)
            block = noise._block
            if block:
                return y + (noise.mean + noise.std * block.pop())
            return y + noise.sample()
        def state():
            return x0, x1
        return step, state
    return response, subject
''',
    # the order-3 companion form
    (3, ('xdd', '010', '100', 'xdd')): '''\
def kernel(a0_1, a0_0, a0_0h, a0_0l, a0_2, a0_2h, a0_2l, a3_0, a3_1, a3_1h, a3_1l, a3_2, a3_2h, a3_2l, g0, g1, g2, exact):
    def response(inputs):
        x0, x1, x2 = 0.0, 0.0, 0.0
        ys = []
        for u in inputs:
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1) and
                (3.4395525670743494e-136 <= abs(x2) <= 2.9073548971824276e+135 or not x2)):
                t = 134217729.0 * x0
                h0 = t - (t - x0)
                l0 = x0 - h0
                t = 134217729.0 * x1
                h1 = t - (t - x1)
                l1 = x1 - h1
                t = 134217729.0 * x2
                h2 = t - (t - x2)
                l2 = x2 - h2
                r0 = a0_1 * x1
                p = a0_0 * x0
                e = ((a0_0h * h0 - p) + a0_0h * l0 + a0_0l * h0) + a0_0l * l0
                r0 = fsum((p, e, r0)) if e else p + r0
                p = a0_2 * x2
                e = ((a0_2h * h2 - p) + a0_2h * l2 + a0_2l * h2) + a0_2l * l2
                r0 = fsum((p, e, r0)) if e else p + r0
                r3 = a3_0 * x0
                p = a3_1 * x1
                e = ((a3_1h * h1 - p) + a3_1h * l1 + a3_1l * h1) + a3_1l * l1
                r3 = fsum((p, e, r3)) if e else p + r3
                p = a3_2 * x2
                e = ((a3_2h * h2 - p) + a3_2h * l2 + a3_2l * h2) + a3_2l * l2
                r3 = fsum((p, e, r3)) if e else p + r3
                x0, x1, x2, y = r0 + 0.0 + g0 * u, x0 + 0.0 + g1 * u, x1 + 0.0 + g2 * u, r3 + 0.0
            else:
                (x0, x1, x2), y = exact((x0, x1, x2), u)
            ys.append(y)
        return ys
    def subject(m2, m1, m0, noise, x0, x1, x2):
        def step(theta):
            nonlocal x0, x1, x2
            th = float(theta)
            u = m2 * th * th + m1 * th + m0
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1) and
                (3.4395525670743494e-136 <= abs(x2) <= 2.9073548971824276e+135 or not x2)):
                t = 134217729.0 * x0
                h0 = t - (t - x0)
                l0 = x0 - h0
                t = 134217729.0 * x1
                h1 = t - (t - x1)
                l1 = x1 - h1
                t = 134217729.0 * x2
                h2 = t - (t - x2)
                l2 = x2 - h2
                r0 = a0_1 * x1
                p = a0_0 * x0
                e = ((a0_0h * h0 - p) + a0_0h * l0 + a0_0l * h0) + a0_0l * l0
                r0 = fsum((p, e, r0)) if e else p + r0
                p = a0_2 * x2
                e = ((a0_2h * h2 - p) + a0_2h * l2 + a0_2l * h2) + a0_2l * l2
                r0 = fsum((p, e, r0)) if e else p + r0
                r3 = a3_0 * x0
                p = a3_1 * x1
                e = ((a3_1h * h1 - p) + a3_1h * l1 + a3_1l * h1) + a3_1l * l1
                r3 = fsum((p, e, r3)) if e else p + r3
                p = a3_2 * x2
                e = ((a3_2h * h2 - p) + a3_2h * l2 + a3_2l * h2) + a3_2l * l2
                r3 = fsum((p, e, r3)) if e else p + r3
                x0, x1, x2, y = r0 + 0.0 + g0 * u, x0 + 0.0 + g1 * u, x1 + 0.0 + g2 * u, r3 + 0.0
            else:
                (x0, x1, x2), y = exact((x0, x1, x2), u)
            block = noise._block
            if block:
                return y + (noise.mean + noise.std * block.pop())
            return y + noise.sample()
        def state():
            return x0, x1, x2
        return step, state
    return response, subject
''',
    # the order-3 form with a pole at 0: Phi[0][2] is 0
    (3, ('xd0', '010', '100', 'xdd')): '''\
def kernel(a0_1, a0_0, a0_0h, a0_0l, a3_0, a3_1, a3_1h, a3_1l, a3_2, a3_2h, a3_2l, g0, g1, g2, exact):
    def response(inputs):
        x0, x1, x2 = 0.0, 0.0, 0.0
        ys = []
        for u in inputs:
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1) and
                (3.4395525670743494e-136 <= abs(x2) <= 2.9073548971824276e+135 or not x2)):
                t = 134217729.0 * x0
                h0 = t - (t - x0)
                l0 = x0 - h0
                t = 134217729.0 * x1
                h1 = t - (t - x1)
                l1 = x1 - h1
                t = 134217729.0 * x2
                h2 = t - (t - x2)
                l2 = x2 - h2
                r0 = a0_1 * x1
                p = a0_0 * x0
                e = ((a0_0h * h0 - p) + a0_0h * l0 + a0_0l * h0) + a0_0l * l0
                r0 = fsum((p, e, r0)) if e else p + r0
                r3 = a3_0 * x0
                p = a3_1 * x1
                e = ((a3_1h * h1 - p) + a3_1h * l1 + a3_1l * h1) + a3_1l * l1
                r3 = fsum((p, e, r3)) if e else p + r3
                p = a3_2 * x2
                e = ((a3_2h * h2 - p) + a3_2h * l2 + a3_2l * h2) + a3_2l * l2
                r3 = fsum((p, e, r3)) if e else p + r3
                x0, x1, x2, y = r0 + 0.0 + g0 * u, x0 + 0.0 + g1 * u, x1 + 0.0 + g2 * u, r3 + 0.0
            else:
                (x0, x1, x2), y = exact((x0, x1, x2), u)
            ys.append(y)
        return ys
    def subject(m2, m1, m0, noise, x0, x1, x2):
        def step(theta):
            nonlocal x0, x1, x2
            th = float(theta)
            u = m2 * th * th + m1 * th + m0
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1) and
                (3.4395525670743494e-136 <= abs(x2) <= 2.9073548971824276e+135 or not x2)):
                t = 134217729.0 * x0
                h0 = t - (t - x0)
                l0 = x0 - h0
                t = 134217729.0 * x1
                h1 = t - (t - x1)
                l1 = x1 - h1
                t = 134217729.0 * x2
                h2 = t - (t - x2)
                l2 = x2 - h2
                r0 = a0_1 * x1
                p = a0_0 * x0
                e = ((a0_0h * h0 - p) + a0_0h * l0 + a0_0l * h0) + a0_0l * l0
                r0 = fsum((p, e, r0)) if e else p + r0
                r3 = a3_0 * x0
                p = a3_1 * x1
                e = ((a3_1h * h1 - p) + a3_1h * l1 + a3_1l * h1) + a3_1l * l1
                r3 = fsum((p, e, r3)) if e else p + r3
                p = a3_2 * x2
                e = ((a3_2h * h2 - p) + a3_2h * l2 + a3_2l * h2) + a3_2l * l2
                r3 = fsum((p, e, r3)) if e else p + r3
                x0, x1, x2, y = r0 + 0.0 + g0 * u, x0 + 0.0 + g1 * u, x1 + 0.0 + g2 * u, r3 + 0.0
            else:
                (x0, x1, x2), y = exact((x0, x1, x2), u)
            block = noise._block
            if block:
                return y + (noise.mean + noise.std * block.pop())
            return y + noise.sample()
        def state():
            return x0, x1, x2
        return step, state
    return response, subject
''',
    # _EDGE, whose coefficients 2**-500 and 2**460 are 'f' terms
    (2, ('xf', 'xx', '1f')): '''\
def kernel(a0_1, a0_0, a1_1, a1_0, a2_1, g0, g1, exact):
    def response(inputs):
        x0, x1 = 0.0, 0.0
        ys = []
        for u in inputs:
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1)):
                x0, x1, y = _fma(a0_0, x0, a0_1 * x1) + 0.0 + g0 * u, a1_0 * x0 + (a1_1 * x1) + 0.0 + g1 * u, _fma(a2_1, x1, x0) + 0.0
            else:
                (x0, x1), y = exact((x0, x1), u)
            ys.append(y)
        return ys
    def subject(m2, m1, m0, noise, x0, x1):
        def step(theta):
            nonlocal x0, x1
            th = float(theta)
            u = m2 * th * th + m1 * th + m0
            if ((3.4395525670743494e-136 <= abs(x0) <= 2.9073548971824276e+135 or not x0) and
                (3.4395525670743494e-136 <= abs(x1) <= 2.9073548971824276e+135 or not x1)):
                x0, x1, y = _fma(a0_0, x0, a0_1 * x1) + 0.0 + g0 * u, a1_0 * x0 + (a1_1 * x1) + 0.0 + g1 * u, _fma(a2_1, x1, x0) + 0.0
            else:
                (x0, x1), y = exact((x0, x1), u)
            block = noise._block
            if block:
                return y + (noise.mean + noise.std * block.pop())
            return y + noise.sample()
        def state():
            return x0, x1
        return step, state
    return response, subject
''',
}


class TestAdaptationDynamics:
    def test_one_step_from_rest(self):
        dyn = subject_a(noise_std=0.0).dynamics
        state, y = _kernel_step(dyn, (0.0, 0.0), 1.0)
        assert y == 0.0
        assert_allclose(state, [0.839, 0.037], atol=1e-12)
        assert dyn.response([1.0, 0.0]) == [0.0, state[0]]

    def test_zero_dynamics(self):
        dyn = subject_b(noise_std=0.0).dynamics
        state, y = _kernel_step(dyn, (0.0, 0.0), 0.0)
        assert y == 0.0
        assert_allclose(state, 0.0, atol=0.0)
        assert dyn.response([0.0] * 3) == [0.0] * 3

    @given(dyn=st.one_of(st.sampled_from(_package_dynamics()), _random_dynamics(4),
                         _random_dynamics(4, _COEFFICIENT)),
           cells=st.lists(_STATE, min_size=4, max_size=4), u=_CELL)
    @example(dyn=static_subject(MAP_A).dynamics, cells=[-0.0] * 4, u=-0.0)
    @example(dyn=AdaptationDynamics([[-0.0, 3.0], [0.25, 0.1]], [1.0, 2.0],
                                    [0.7, -0.0]), cells=[-0.0, 0.0, 0.0, 0.0], u=-0.0)
    @example(dyn=AdaptationDynamics([[2.0 ** -60, 1.0], [-(2.0 ** 60), 0.3]],
                                    [0.5, -1.5], [0.2, -0.5]),
             cells=[1e6, -3.7, 0.0, 0.0], u=1.0)
    # a state value, then a coefficient, outside [_TINY, _HUGE]
    @example(dyn=subject_a().dynamics, cells=[2.0 ** -460, -1e200, 0.0, 0.0], u=1.0)
    @example(dyn=AdaptationDynamics([[2.0 ** -500, 1.0], [0.5, -1.0]], [1.0, 3.0],
                                    [-1.0, 2.0 ** 460]), cells=[1e6, -3.7, 0.0, 0.0], u=2.0)
    # every kind of term in one order-4 chain structure
    @example(dyn=AdaptationDynamics([[0.0, 1.0, -1.0, 0.3], [-0.0, 2.0 ** -7, 0.1, 1.0],
                                     [1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]],
                                    [0.5, -0.25, 1.0, 0.0], [0.0, 0.7, 1.0, -2.0]),
             cells=[0.1, -0.0, 3.0, 1e6], u=-0.3)
    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    def test_step_bits_equal_matrix_products_property(self, dyn, cells, u):
        """The kernel's step gives, bit for bit, the chains of _fma_chains (Dekker's
        product on every term) or, where a coefficient or state value lies
        outside [_TINY, _HUGE], of _exact_fma_chains, plus the gamma u
        terms, for random realizations of order 1-4, whose coefficients
        include 0 and 1 of either sign and powers of 2 (terms that each
        kernel drops, adds or adds without Dekker's term), and for every
        form the package builds: subjects A and B, the static subject and
        the companion forms fit_adaptation_lti returns. Up to order 3 they
        are also phi @ state + gamma * u and psi @ state. Signed zeros
        included: @ gives 0.0 where ndarray.dot alone gives -0.0 at order 1."""
        xs = cells[:dyn.order]
        next_state, y = _kernel_step(dyn, xs, u)
        want_state, want_y = _reference_step(dyn, xs, float(u))
        assert [v.hex() for v in next_state] == [v.hex() for v in want_state]
        assert y.hex() == want_y.hex()
        state = np.array(xs)
        with np.errstate(over="ignore"):  # numpy warns where a product overflows
            if dyn.order <= 3:
                want = dyn.phi @ state + dyn.gamma * float(u)
                assert np.array(next_state).tobytes() == want.tobytes()
                assert np.float64(y).tobytes() == (dyn.psi @ state).tobytes()

    @given(dyn=st.one_of(st.sampled_from(_package_dynamics()), _random_dynamics(4)),
           cells=st.lists(_CELL, min_size=4, max_size=4), u=_CELL)
    # subnormal products, from a subnormal state and from a tiny Phi
    @example(dyn=subject_a().dynamics,
             cells=[-1.36506907638384e-309, 3.3195227917403143e-308, 0.0, 0.0], u=0.0)
    @example(dyn=subject_a().dynamics, cells=[5.036813605572443e-307, 2e-323, 0.0, 0.0],
             u=0.0)
    @example(dyn=AdaptationDynamics([[1e-300, 0.5, 0.0], [2e-20, -1e-290, 1.0],
                                     [0.0, 1.0, 3e-310]], [1.0, 0.0, 0.0],
                                    [1e-310, 1.0, -2.0]),
             cells=[1e-20, 3e-30, -1e-25, 0.0], u=-1e-300)
    # signed zeros: -0.0 products, cells and inputs, at orders 1, 2 and 4
    @example(dyn=static_subject(MAP_A).dynamics, cells=[-0.0] * 4, u=-0.0)
    @example(dyn=AdaptationDynamics([[-0.0, 1.0], [0.5, -0.0]], [-0.0, 0.0],
                                    [-0.0, -1.0]), cells=[-0.0, 0.0, 0.0, 0.0], u=-0.0)
    @example(dyn=AdaptationDynamics(-np.eye(4), [0.0] * 4, [1.0, -1.0, 0.0, 2.0]),
             cells=[0.0, -0.0, -0.0, 0.0], u=0.0)
    # cells at the edge of the strategy, +-1e6
    @example(dyn=AdaptationDynamics([[1e6, -1e6, 1e6], [-1e6, 1e6, 1e6],
                                     [1e6, 1e6, -1e6]], [1e6, -1e6, 1e6],
                                    [-1e6, 1e6, 1e6]),
             cells=[1e6, -1e6, 1e6, -1e6], u=-1e6)
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    def test_step_is_the_fma_chain_property(self, dyn, cells, u):
        """The kernel's step gives, bit for bit, each row of Phi x and Psi x as a chain
        of fused multiply-adds rounded from the exact value (fractions),
        in the order OpenBLAS's FMA kernels use up to order 3 and in index
        order above it, then the "+ 0.0 + g * u" tail, for orders 1-4 and
        every form the package builds, subnormals and signed zeros
        included."""
        n = dyn.order
        state = tuple(cells[:n])
        next_state, y = _kernel_step(dyn, state, u)
        row_order = _ROW_ORDER.get(n, range(n))
        want = [_fma_chain(row, state, row_order) + 0.0 + g * u
                for row, g in zip(dyn.phi.tolist(), dyn.gamma.tolist())]
        assert [v.hex() for v in next_state] == [v.hex() for v in want]
        assert y.hex() == (_fma_chain(dyn.psi.tolist(), state, range(n)) + 0.0).hex()

    @given(dyn=st.one_of(st.sampled_from(_package_dynamics()), _random_dynamics(4, _WIDE)),
           us=st.lists(_CELL, max_size=12))
    @example(dyn=_EDGE, us=[1e6, -3.0, 2.5])
    @example(dyn=_OVERFLOW[0], us=[1e10, 0.0, 1.0])
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    def test_response_is_the_reference_step_from_rest_property(self, dyn, us):
        """response(us) gives, bit for bit, the outputs of _reference_step
        iterated from rest, for every form the package builds and random
        realizations of order 1-4 whose coefficients include 0 and 1 of
        either sign, powers of 2 and values far outside [_TINY, _HUGE], so
        states reach inf and nan."""
        state, want = [0.0] * dyn.order, []
        for u in us:
            state, y = _reference_step(dyn, state, u)
            want.append(y)
        assert [y.hex() for y in dyn.response(us)] == [y.hex() for y in want]

    def test_unity_gain_step_response(self):
        dyn = subject_a(noise_std=0.0).dynamics
        assert abs(dyn.response([100.0] * 200)[-1] - 100.0) <= 1.0

    def test_steady_state_gain_subject_a(self):
        # 2x2 inverse by hand: det(I - Phi_A) = 0.582
        dyn = subject_a(noise_std=0.0).dynamics
        assert_allclose(np.linalg.det(np.eye(2) - dyn.phi), 0.582, atol=1e-12)
        assert_allclose(dyn.steady_state_gain(), 1.0006, atol=1e-3)

    def test_steady_state_gain_subject_b(self):
        dyn = subject_b(noise_std=0.0).dynamics
        assert_allclose(dyn.steady_state_gain(), 1.0, atol=2e-2)

    def test_static_unity(self):
        dyn = AdaptationDynamics(np.zeros((2, 2)), [1.0, 0.0], [1.0, 0.0])
        assert dyn.steady_state_gain() == 1.0

    def test_marginally_stable_rejected(self):
        dyn = AdaptationDynamics(np.array([[1.0]]), [1.0], [1.0])
        with pytest.raises(ValueError):
            dyn.steady_state_gain()

    def test_normalize_gain(self):
        dyn = AdaptationDynamics(np.zeros((2, 2)), [2.0, 0.0], [1.0, 0.0])
        assert_allclose(normalized(dyn).steady_state_gain(), 1.0, atol=1e-12)
        subj = normalized(subject_a(noise_std=0.0).dynamics)
        assert_allclose(subj.steady_state_gain(), 1.0, atol=1e-12)

    def test_normalize_idempotent(self):
        dyn = normalized(subject_b(noise_std=0.0).dynamics)
        again = normalized(dyn)
        assert_allclose(again.gamma, dyn.gamma, atol=1e-12)

    def test_zero_gain_rejected(self):
        dyn = AdaptationDynamics(np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            normalized(dyn)

    def test_normalization_property_random_stable(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 100:
            phi = rng.uniform(-0.6, 0.6, (2, 2))
            if np.max(np.abs(np.linalg.eigvals(phi))) >= 0.95:
                continue
            gamma = rng.uniform(-1, 1, 2)
            psi = rng.uniform(-1, 1, 2)
            dyn = AdaptationDynamics(phi, gamma, psi)
            try:
                g = dyn.steady_state_gain()
            except ValueError:
                continue
            if abs(g) < 1e-6:
                continue
            assert_allclose(normalized(dyn).steady_state_gain(), 1.0,
                            atol=1e-12)
            done += 1

    def test_step_response_geometric_convergence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            phi = rng.uniform(-0.5, 0.5, (2, 2))
            rho = np.max(np.abs(np.linalg.eigvals(phi)))
            if rho >= 0.9 or rho < 1e-3:
                continue
            dyn = AdaptationDynamics(phi, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 2))
            if abs(dyn.steady_state_gain()) < 1e-3:
                continue
            dyn = normalized(dyn)
            errs = [abs(y - 1.0) for y in dyn.response([1.0] * 60)]
            # |y_i - u| <= C rho^i for some constant C
            tail = np.array(errs[20:])
            bound = np.array([(rho + 0.02) ** i for i in range(20, 60)])
            c = max(1.0, errs[0] / bound[0] * 10)
            assert (tail <= c * bound + 1e-9).all()


class TestStepKernel:
    def test_package_structures_are_pinned(self):
        built = {dyn.response.__code__.co_filename for dyn in [*_package_dynamics(), _EDGE]}
        assert built == {f"<step kernel {n} {kinds}>" for n, kinds in _PINNED_KERNELS}
        for (n, kinds), source in _PINNED_KERNELS.items():
            assert _kernel_source(n, kinds) == source

    def test_one_compile_per_structure(self):
        # identification over 10 sweeps each of A and B at orders 2 and 3
        # builds 80 dynamics, and compiles one kernel per chain structure
        _kernel.cache_clear()
        built = set()
        for name in "AB":
            for seed in range(10):
                sweep = run_episode(ExperimentConfig(subject=name, algorithm="sweep"), seed)
                for order in (2, 3):
                    dyn = identify_from_records(sweep.column("theta_applied"),
                                                sweep.column("J"), order)[1]
                    built.add(dyn.response.__code__.co_filename)
        assert _kernel.cache_info().misses == len(built) == 3

    def test_out_of_range_coefficients_take_the_exact_step(self):
        # 2**-500, not a chain's first term, is added by one exact fma
        dyn = AdaptationDynamics([[2.0 ** -500, 0.5], [1.0, 0.0]], [1.0, 0.0], [0.0, 1.0])
        assert dyn.response.__code__.co_filename == "<step kernel 2 ('xf', '01', '01')>"
        assert _kernel_step(dyn, (1e6, 3.0), 2.0) == ((1.5 + 2.0, 1e6), 3.0)
        state, want = [0.0, 0.0], []
        for u in (1e6, -3.0, 2.0):
            state, y = _reference_step(dyn, state, u)
            want.append(y)
        assert dyn.response([1e6, -3.0, 2.0]) == want

    def test_exact_fma_keeps_a_non_finite_sum(self):
        # a finite x added to an infinite sum leaves it, even where the
        # float product a*x overflows, so the sum does not become nan
        assert _fma(1e300, 1e10, -inf) == -inf
        assert _fma(-1e300, 1e10, inf) == inf
        dyn, x0 = _OVERFLOW
        assert SimulatedSubject(MAP_A, dyn, initial_state=x0).step(1.0) == -inf


class TestSimulatedSubject:
    def test_settles_to_vertex_value(self):
        subj = subject_a(noise_std=0.0)
        th = MAP_A.optimum()
        j = 0.0
        for _ in range(200):
            j = subj.step(th)
        # map vertex value, LTI gain 1.0006 within the 0.5 window
        assert abs(j - vertex_value(LAMBDA_A)) <= 0.5

    def test_first_output_zero_from_rest(self):
        subj = subject_b(noise_std=0.0)
        assert subj.step(1.0) == 0.0

    def test_noise_statistics(self):
        subj = subject_a(seed=123)
        js = np.array([subj.step(1.5) for _ in range(1000)])
        resid_std = np.std(js[200:] - np.mean(js[200:]), ddof=1)
        assert 15.0 <= resid_std <= 19.0

    def test_determinism_by_seed(self):
        for seed in (0, 1, 99):
            s1, s2 = subject_b(seed), subject_b(seed)
            j1 = [s1.step(1.2) for _ in range(50)]
            j2 = [s2.step(1.2) for _ in range(50)]
            assert j1 == j2

    def test_reset_reproduces(self):
        subj = subject_a(seed=42)
        first = [subj.step(1.1) for _ in range(30)]
        subj.reset()
        second = [subj.step(1.1) for _ in range(30)]
        assert first == second

    def test_static_subject_latency(self):
        subj = static_subject(MAP_A)
        assert subj.step(1.0) == 0.0  # J_0 predates any input
        assert_allclose(subj.step(2.0), MAP_A.value(1.0), atol=1e-12)
        assert_allclose(subj.dynamics.steady_state_gain(), 1.0, atol=1e-15)

    @pytest.mark.parametrize("mean, std", [(0.0, -5.0), (0.0, np.nan),
                                           (0.0, np.inf), (np.nan, 1.0)])
    def test_invalid_noise_rejected(self, mean, std):
        with pytest.raises(ValueError):
            MotorNoise(mean, std, 0)

    def test_block_draws_equal_one_draw_per_sample(self):
        # samples come NOISE_BLOCK at a time; the sequence must be the one
        # default_rng(seed) gives, across blocks and after a reset
        n = 2 * NOISE_BLOCK + 17
        noise = MotorNoise(0.0, 1.0, 5)
        first = [noise.sample() for _ in range(n)]
        assert first == np.random.default_rng(5).standard_normal(n).tolist()
        noise.reset(11)
        again = [noise.sample() for _ in range(n)]
        assert again == np.random.default_rng(11).standard_normal(n).tolist()

    @pytest.mark.parametrize("field, build", [
        ("lambda", lambda: PreferenceMap([-158.15, np.nan, -293.34])),
        ("phi", lambda: AdaptationDynamics([[0.0, 1.0], [np.nan, 0.35]],
                                           GAMMA_A, PSI_A)),
        ("gamma", lambda: AdaptationDynamics(PHI_A, [np.inf, 0.037], PSI_A)),
        ("psi", lambda: AdaptationDynamics(PHI_A, GAMMA_A, [1.0, -np.inf])),
        ("initial_state", lambda: SimulatedSubject(
            MAP_A, AdaptationDynamics(PHI_A, GAMMA_A, PSI_A),
            initial_state=[np.inf, 0.0])),
    ], ids=["lambda", "phi", "gamma", "psi", "initial_state"])
    def test_non_finite_model_input_rejected(self, field, build):
        with pytest.raises(ValueError, match=f"^{field} = .* must be finite"):
            build()

    def test_non_finite_matrix_named_on_one_line(self):
        phi = np.array([[0.0, 1.0], [np.nan, 0.35]])
        with pytest.raises(ValueError) as err:
            AdaptationDynamics(phi, GAMMA_A, PSI_A)
        assert "\n" not in str(err.value)
        assert str(err.value) == "phi = [[0.0, 1.0], [nan, 0.35]] must be finite"

    def test_plain_scalars_stored_as_float_and_int(self):
        # a bool is checked as numpy checks it: True is 1.0 and the seed 1
        noise = MotorNoise(-0.0, True, True)
        assert [(type(v), v) for v in (noise.mean, noise.std, noise.seed)] == [
            (float, 0.0), (float, 1.0), (int, 1)]
        assert str(noise.mean) == "0.0"

    def test_spectral_radius_computed_once_per_object(self, monkeypatch):
        dyn = AdaptationDynamics(PHI_A, GAMMA_A, PSI_A)
        calls, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda m: calls.append(m) or eigvals(m))
        radii = {SimulatedSubject(MAP_A, dyn).dynamics.spectral_radius()
                 for _ in range(3)}
        assert radii == {float(np.max(np.abs(eigvals(PHI_A))))}
        assert dyn.is_stable() and len(calls) == 1

    @pytest.mark.parametrize("seed, message", [(1.5, "seed = 1.5 must be an integer"),
                                               (-1, "seed = -1 must be >= 0")],
                             ids=["non_integer", "negative"])
    def test_invalid_seed_rejected(self, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MotorNoise(0, 1, seed)
        # a rejected reset leaves the seed and the sample stream as they were
        noise = MotorNoise(0.0, 1.0, 5)
        first = noise.sample()
        with pytest.raises(ValueError, match=f"^{message}$"):
            noise.reset(seed)
        assert noise.seed == 5
        assert [first, noise.sample()] == np.random.default_rng(5).standard_normal(2).tolist()

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejected_reset_leaves_the_subject_as_it_was(self, seed):
        """A reset whose seed is rejected rebinds nothing: the state and
        the next J are those of a twin that was never reset."""
        subj, twin = subject_a(seed=3), subject_a(seed=3)
        for s in (subj, twin):
            for _ in range(7):
                s.step(1.4)
        assert subj.state != subj.initial_state
        with pytest.raises(ValueError, match="^seed = "):
            subj.reset(seed)
        assert subj.state == twin.state and subj.noise.seed == 3
        assert [subj.step(1.2) for _ in range(20)] == [twin.step(1.2) for _ in range(20)]

    def test_reseed_builds_one_generator(self, monkeypatch):
        """reset(seed) builds one generator, as reset() does, and the
        stream is default_rng(seed)'s."""
        noise = MotorNoise(0.0, 1.0, 5)
        noise.sample()
        built, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: built.append(a) or default_rng(*a))
        noise.reset(11)
        assert built == [(11,)] and noise.seed == 11
        noise.reset()
        assert built == [(11,), (11,)]
        n = NOISE_BLOCK + 3
        assert [noise.sample() for _ in range(n)] == \
            default_rng(11).standard_normal(n).tolist()

    @pytest.mark.parametrize("name, value", [
        ("map", MAP_B),
        ("dynamics", AdaptationDynamics([[1.5, 0.0], [0.0, 0.0]], GAMMA_A, PSI_A)),
        ("initial_state", (np.nan, 0.0))], ids=["map", "dynamics", "initial_state"])
    def test_model_cannot_be_assigned(self, name, value):
        subj, want = subject_a(seed=3), subject_a(seed=3)
        with pytest.raises(AttributeError):
            setattr(subj, name, value)
        subj.reset()
        assert [subj.step(1.2) for _ in range(20)] == [want.step(1.2) for _ in range(20)]
        assert subj.optimum() == MAP_A.optimum()

    def test_subject_file_noise_override(self, tmp_path):
        # make_subject replaces a subject file's noise std and seed, its mean kept
        path = tmp_path / "subject.ini"
        dyn = subject_b().dynamics
        save_subject(path, SimulatedSubject(MAP_B, dyn, MotorNoise(1.5, 2.0, 9)))
        subj = make_subject(str(path), 4, noise_std=7.0)
        assert (subj.noise.mean, subj.noise.std, subj.noise.seed) == (1.5, 7.0, 4)
        want = SimulatedSubject(MAP_B, dyn, MotorNoise(1.5, 7.0, 4))
        assert [subj.step(1.3) for _ in range(20)] == [want.step(1.3) for _ in range(20)]
        assert make_subject(str(path), 4).noise.std == 2.0

    def test_subject_pickles(self):
        subj = subject_b(seed=5)
        subj.step(1.1)
        copy = pickle.loads(pickle.dumps(subj))
        assert [copy.step(1.4) for _ in range(20)] == [subj.step(1.4) for _ in range(20)]

    def test_state_is_read_only(self):
        subj = subject_a(seed=3)
        subj.step(1.2)
        state = subj.state
        with pytest.raises(AttributeError):
            subj.state = (0.0, 0.0)
        assert subj.state == state and subj.state != (0.0, 0.0)

    @given(dyn=_stable_dynamics(), lam=st.lists(_CELL, min_size=3, max_size=3),
           cells=st.lists(_STATE, min_size=3, max_size=3), noise=_NOISE,
           runs=st.lists(st.tuples(_EVENT, st.lists(_THETA, max_size=80)), max_size=5))
    # A, past three noise blocks, through every event
    @example(dyn=subject_a().dynamics, lam=list(LAMBDA_A), cells=[0.0] * 3,
             noise=(0.0, NOISE_STD_A, 3),
             runs=[(("pickle",), [1.2] * 70), (("noise =", (1.0, 2.0, 5)), [1.5] * 70),
                   (("sample",), [2] * 10), (("noise.reset", 9), [np.float64(1.7)] * 70),
                   (("reset", 4), [0.9] * 3)])
    # a state that Veltkamp's split overflows, which only the exact step takes
    @example(dyn=subject_a().dynamics, lam=list(LAMBDA_A), cells=[1e305, -3.0, 0.0],
             noise=(0.0, 1.0, 2), runs=[(("sample",), [1.5] * 3)])
    # an output chain that overflows to -inf, then adds an 'f' term
    @example(dyn=_OVERFLOW[0], lam=list(LAMBDA_A), cells=[*_OVERFLOW[1], 0.0],
             noise=(0.0, 1.0, 2), runs=[(("sample",), [1.5] * 3)])
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def test_step_is_the_three_call_composition_property(self, dyn, lam, cells,
                                                        noise, runs):
        """step() gives, bit for bit, _reference_subject_step's J and state
        for dynamics of order 1-3 with every kind of term, coefficients and
        states inside and outside [_TINY, _HUGE], and float, int and
        np.float64 synergies. Between runs of steps, the subject is pickled,
        its noise sampled, reseeded or replaced, or it is reset: the
        stream is the one the noise object in hand gives."""
        pref_map = PreferenceMap(lam)
        subj = SimulatedSubject(pref_map, dyn, MotorNoise(*noise), cells[:dyn.order])
        ref_noise, initial = MotorNoise(*noise), subj.initial_state
        state = initial
        got, want = [], []
        for (event, *args), thetas in runs:
            if event == "pickle":
                subj = pickle.loads(pickle.dumps(subj))
            elif event == "sample":
                got.append(subj.noise.sample())
                want.append(ref_noise.sample())
            elif event == "noise.reset":
                subj.noise.reset(*args)
                ref_noise.reset(*args)
            elif event == "reset":
                subj.reset(*args)
                ref_noise.reset(*args)
                state = initial
            else:
                subj.noise, ref_noise = MotorNoise(*args[0]), MotorNoise(*args[0])
            for theta in thetas:
                got.append(subj.step(theta))
                state, j = _reference_subject_step(pref_map, dyn, ref_noise, state, theta)
                want.append(j)
            assert repr(subj.state) == repr(tuple(state))
        assert list(map(repr, got)) == list(map(repr, want))

    def test_unstable_dynamics_rejected(self):
        dyn = AdaptationDynamics(np.array([[1.05]]), [1.0], [1.0])
        with pytest.raises(ValueError):
            SimulatedSubject(MAP_A, dyn)


def test_empty_phi_rejected_by_name(tmp_path):
    """An order-0 model is rejected before its kernel is compiled, built
    directly or read from a [subject] file with an empty phi."""
    with pytest.raises(ValueError, match="^phi is empty; the order must be at least 1$"):
        AdaptationDynamics(np.zeros((0, 0)), np.zeros(0), np.zeros(0))
    path = tmp_path / "empty.ini"
    path.write_text("[subject]\nlambda = -1 3 -2\nphi =\ngamma =\npsi =\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: [subject]: phi is empty")):
        load_subject(path)


def test_subject_config_round_trip(tmp_path):
    subj = subject_b(seed=7)
    path = tmp_path / "subject_b.ini"
    save_subject(path, subj)
    loaded = load_subject(path)
    assert_allclose(loaded.map.lam, subj.map.lam, atol=1e-15)
    assert_allclose(loaded.dynamics.phi, subj.dynamics.phi, atol=1e-15)
    assert_allclose(loaded.dynamics.gamma, subj.dynamics.gamma, atol=1e-15)
    assert loaded.noise.std == subj.noise.std
    assert loaded.noise.seed == subj.noise.seed
    js1 = [subj.step(1.4) for _ in range(20)]
    js2 = [loaded.step(1.4) for _ in range(20)]
    subj.reset()
    assert js1 == js2


@pytest.mark.parametrize("subject_id", ["100%", "%(x)s", "%%"])
def test_percent_subject_id_round_trips(tmp_path, subject_id):
    # INI values are not interpolated: '%' is an ordinary character, so
    # '%%' reads back as the two characters written
    path = tmp_path / "s.ini"
    save_subject(path, SimulatedSubject(MAP_A, subject_a().dynamics,
                                        subject_id=subject_id))
    assert load_subject(path).subject_id == subject_id


class TestFrozenModel:
    @pytest.mark.parametrize("model, name", [
        (MAP_A, "lam"), *((subject_a().dynamics, name) for name in ("phi", "gamma", "psi"))],
        ids=["lam", "phi", "gamma", "psi"])
    def test_fields_cannot_be_assigned(self, model, name):
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, getattr(model, name))

    @pytest.mark.parametrize("name, index", [("phi", (0, 0)), ("gamma", 0), ("psi", 0)])
    def test_dynamics_arrays_are_read_only_copies(self, name, index):
        given = {"phi": PHI_A.copy(), "gamma": GAMMA_A.copy(), "psi": PSI_A.copy()}
        dyn = AdaptationDynamics(**given)
        with pytest.raises(ValueError, match="read-only"):
            getattr(dyn, name)[index] = 0.5
        given[name][index] = 0.5  # the caller's array is not the stored one
        assert _kernel_step(dyn, (1.0, 2.0), 0.0) == ((2.0, 0.768), 1.0)

    def test_equal_maps_compare_and_hash_alike(self):
        a, b = PreferenceMap([-1, 0, 0]), PreferenceMap(np.array([-1.0, -0.0, 0.0]))
        assert a == b
        assert hash(a) == hash(b)
        assert a.lam == (-1.0, 0.0, 0.0)
        assert [type(v) for v in b.lam] == [float] * 3

    def test_dynamics_keep_signed_zeros_and_compare_by_identity(self):
        dyn = AdaptationDynamics([[-0.0]], [1.0], [1.0])
        assert np.signbit(dyn.phi[0, 0])
        assert dyn == dyn
        assert dyn != AdaptationDynamics([[-0.0]], [1.0], [1.0])
