"""Tests for the grey-box subject model."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from synergy_es.harness import ExperimentConfig, run_episode
from synergy_es.subject import (GAMMA_A, LAMBDA_A, LAMBDA_B, NOISE_BLOCK,
                                NOISE_STD_A, PHI_A, PSI_A, AdaptationDynamics,
                                MotorNoise, NonConcaveMapError, PreferenceMap,
                                SimulatedSubject, load_subject, save_subject,
                                static_subject, subject_a, subject_b)
from synergy_es.sysid import fit_adaptation_lti

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


@st.composite
def _random_dynamics(draw, max_order=3):
    order = draw(st.integers(1, max_order))
    cells = st.lists(_CELL, min_size=order * (order + 2),
                     max_size=order * (order + 2))
    values = np.array(draw(cells))
    return AdaptationDynamics(values[:order * order].reshape(order, order),
                              values[order * order:order * (order + 1)],
                              values[order * (order + 1):])


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


def _fma_chain(coefficients, xs, order):
    """fma(a_k, x_k, ... fma(a_1, x_1, a_0 * x_0)) over the indices in
    order, each fma rounded once from its exact value."""
    j, *rest = order
    s = coefficients[j] * xs[j]
    for j in rest:
        s = float(Fraction(coefficients[j]) * Fraction(xs[j]) + Fraction(s))
    return s


class TestAdaptationDynamics:
    def test_one_step_from_rest(self):
        dyn = subject_a(noise_std=0.0).dynamics
        state, y = dyn.step(np.zeros(2), 1.0)
        assert y == 0.0
        assert_allclose(state, [0.839, 0.037], atol=1e-12)

    def test_zero_dynamics(self):
        dyn = subject_b(noise_std=0.0).dynamics
        state, y = dyn.step(np.zeros(2), 0.0)
        assert y == 0.0
        assert_allclose(state, 0.0, atol=0.0)

    def test_dimension_mismatch(self):
        dyn = subject_a(noise_std=0.0).dynamics
        with pytest.raises(ValueError):
            dyn.step(np.zeros(3), 1.0)

    @given(dyn=st.one_of(st.sampled_from(_package_dynamics()), _random_dynamics()),
           cells=st.lists(_CELL, min_size=3, max_size=3), u=_CELL)
    @example(dyn=static_subject(MAP_A).dynamics, cells=[-0.0] * 3, u=-0.0)
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def test_step_bits_equal_matrix_products_property(self, dyn, cells, u):
        """step() gives, bit for bit, phi @ state + gamma * u and psi @ state,
        for random realizations of order 1-3 and for every form the package
        builds: subjects A and B, the static subject and the companion forms
        fit_adaptation_lti returns. Signed zeros included: @ gives 0.0 where
        ndarray.dot alone gives -0.0 at order 1."""
        state = np.array(cells[:dyn.order])
        next_state, y = dyn.step(state, u)
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
        """step() gives, bit for bit, each row of Phi x and Psi x as a chain
        of fused multiply-adds rounded from the exact value (fractions),
        in the order OpenBLAS's FMA kernels use up to order 3 and in index
        order above it, then the "+ 0.0 + g * u" tail, for orders 1-4 and
        every form the package builds, subnormals and signed zeros
        included."""
        n = dyn.order
        state = tuple(cells[:n])
        next_state, y = dyn.step(state, u)
        row_order = {1: [0], 2: [1, 0], 3: [1, 0, 2]}.get(n, range(n))
        want = [_fma_chain(row, state, row_order) + 0.0 + g * u
                for row, g in zip(dyn.phi.tolist(), dyn.gamma.tolist())]
        assert [v.hex() for v in next_state] == [v.hex() for v in want]
        assert y.hex() == (_fma_chain(dyn.psi.tolist(), state, range(n)) + 0.0).hex()

    def test_unity_gain_step_response(self):
        dyn = subject_a(noise_std=0.0).dynamics
        x = np.zeros(2)
        for _ in range(200):
            x, y = dyn.step(x, 100.0)
        assert abs(y - 100.0) <= 1.0

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
        assert_allclose(dyn.normalized().steady_state_gain(), 1.0, atol=1e-12)
        subj = subject_a(noise_std=0.0).dynamics.normalized()
        assert_allclose(subj.steady_state_gain(), 1.0, atol=1e-12)

    def test_normalize_idempotent(self):
        dyn = subject_b(noise_std=0.0).dynamics.normalized()
        again = dyn.normalized()
        assert_allclose(again.gamma, dyn.gamma, atol=1e-12)

    def test_zero_gain_rejected(self):
        dyn = AdaptationDynamics(np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            dyn.normalized()

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
            assert_allclose(dyn.normalized().steady_state_gain(), 1.0,
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
            dyn = dyn.normalized()
            x = np.zeros(2)
            errs = []
            for i in range(60):
                x, y = dyn.step(x, 1.0)
                errs.append(abs(y - 1.0))
            # |y_i - u| <= C rho^i for some constant C
            tail = np.array(errs[20:])
            bound = np.array([(rho + 0.02) ** i for i in range(20, 60)])
            c = max(1.0, errs[0] / bound[0] * 10)
            assert (tail <= c * bound + 1e-9).all()


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

    def test_assigned_map_reaches_step_and_optimum(self):
        subj = subject_a(seed=3)
        subj.map = MAP_B
        want = SimulatedSubject(MAP_B, subj.dynamics, MotorNoise(0.0, NOISE_STD_A, 3))
        assert [subj.step(1.2) for _ in range(20)] == [want.step(1.2) for _ in range(20)]
        assert subj.optimum() == MAP_B.optimum()

    def test_unstable_dynamics_rejected(self):
        dyn = AdaptationDynamics(np.array([[1.05]]), [1.0], [1.0])
        with pytest.raises(ValueError):
            SimulatedSubject(MAP_A, dyn)


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
        assert dyn.step((1.0, 2.0), 0.0) == ((2.0, 0.768), 1.0)

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
