"""Grey-box simulated subject: preference map + learning dynamics + noise.

The model is a static synergy-to-performance map feeding a stable,
unity-gain LTI system in the iteration domain, with additive Gaussian
output noise:

    u_i     = f(theta_i)^T lambda          (quadratic basis [th^2, th, 1])
    x_{i+1} = Phi x_i + Gamma u_i
    J_i     = Psi x_i + v_i,  v_i ~ N(mean, std^2)

Note the relative degree: J_i reflects the synergy applied one iteration
earlier.
"""

from dataclasses import dataclass

import numpy as np

from .config import (format_matrix, format_vector, parse_matrix,
                     parse_vector, read_config, write_config)

THETA_BOUNDS = (0.8, 2.4)


class NonConcaveMapError(ValueError):
    """The quadratic coefficient is not negative, so no unique maximum exists."""


@dataclass
class PreferenceMap:
    """Quadratic synergy-to-steady-state-performance map."""

    lam: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if self.lam.shape != (3,):
            raise ValueError("quadratic basis needs 3 coefficients")

    def value(self, theta):
        """Steady-state performance at a synergy value (exact polynomial)."""
        th = np.asarray(theta, dtype=float)
        return self.lam[0] * th * th + self.lam[1] * th + self.lam[2]

    def derivatives(self, theta):
        """Analytic (first, second) derivatives at theta."""
        return 2.0 * self.lam[0] * theta + self.lam[1], 2.0 * self.lam[0]

    def optimum(self):
        """Unique maximizer -lam1/(2 lam0); requires strict concavity."""
        if self.lam[0] >= 0:
            raise NonConcaveMapError(
                "map is not strictly concave (lam[0] >= 0); no unique maximum")
        return -self.lam[1] / (2.0 * self.lam[0])


@dataclass
class AdaptationDynamics:
    """Iteration-domain LTI (Phi, Gamma, Psi) modeling motor adaptation."""

    phi: np.ndarray
    gamma: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        self.gamma = np.asarray(self.gamma, dtype=float).ravel()
        self.psi = np.asarray(self.psi, dtype=float).ravel()
        n = self.phi.shape[0]
        if self.phi.shape != (n, n) or self.gamma.shape != (n,) or self.psi.shape != (n,):
            raise ValueError("inconsistent state-space dimensions")

    @property
    def order(self):
        return self.phi.shape[0]

    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.phi))))

    def is_stable(self):
        return self.spectral_radius() < 1.0

    def step(self, state, u):
        """One recursion step: returns (next_state, noise-free output Psi x)."""
        state = np.asarray(state, dtype=float).ravel()
        if state.shape != (self.order,):
            raise ValueError(
                f"state has dimension {state.shape[0]}, expected {self.order}")
        y = float(self.psi @ state)
        return self.phi @ state + self.gamma * float(u), y

    def steady_state_gain(self):
        """Psi (I - Phi)^-1 Gamma; errors on a marginally stable plant."""
        eye = np.eye(self.order)
        try:
            sol = np.linalg.solve(eye - self.phi, self.gamma)
        except np.linalg.LinAlgError:
            raise ValueError("(I - Phi) is singular; no finite steady-state gain")
        if not np.isfinite(sol).all():
            raise ValueError("(I - Phi) is singular; no finite steady-state gain")
        return float(self.psi @ sol)

    def normalized(self):
        """Scale Gamma so the steady-state gain is exactly 1."""
        g = self.steady_state_gain()
        if g == 0.0:
            raise ValueError("zero steady-state gain cannot be normalized")
        return AdaptationDynamics(self.phi.copy(), self.gamma / g, self.psi.copy())


@dataclass
class MotorNoise:
    """Gaussian output noise; equal seeds give identical sample sequences."""

    mean: float = 0.0
    std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("noise std must be >= 0")
        self._rng = np.random.default_rng(self.seed)

    def sample(self):
        # one RNG draw per call, even at std == 0, to keep draw counts stable
        return self.mean + self.std * self._rng.standard_normal()

    def reset(self, seed=None):
        if seed is not None:
            self.seed = seed
        self._rng = np.random.default_rng(self.seed)


class SimulatedSubject:
    """Composable grey-box subject: map -> LTI -> additive noise."""

    def __init__(self, pref_map, dynamics, noise=None, initial_state=None,
                 subject_id="subject"):
        if not dynamics.is_stable():
            raise ValueError("adaptation dynamics must be stable (rho(Phi) < 1)")
        self.map = pref_map
        self.dynamics = dynamics
        self.noise = noise if noise is not None else MotorNoise()
        self.subject_id = subject_id
        self._x0 = (np.zeros(dynamics.order) if initial_state is None
                    else np.asarray(initial_state, dtype=float).ravel())
        if self._x0.shape != (dynamics.order,):
            raise ValueError("initial state dimension mismatch")
        self.state = self._x0.copy()

    def step(self, theta):
        """Apply a synergy for one task iteration; returns measured J."""
        u = self.map.value(float(theta))
        self.state, y = self.dynamics.step(self.state, u)
        return y + self.noise.sample()

    def reset(self, seed=None):
        self.state = self._x0.copy()
        self.noise.reset(seed)

    def optimum(self):
        return self.map.optimum()


# Identified parameters for the two reference subjects.
LAMBDA_A = np.array([-158.15, 529.18, -293.34])
LAMBDA_B = np.array([-96.18, 342.13, -147.86])
PHI_A = np.array([[0.0, 1.0], [0.068, 0.35]])
GAMMA_A = np.array([0.839, 0.037])
PSI_A = np.array([1.0, 0.0])
PHI_B = np.array([[0.0, 1.0], [-0.017, 0.25]])
GAMMA_B = np.array([-0.091, 0.834])
PSI_B = np.array([1.0, 0.0])
NOISE_STD_A = 16.81
NOISE_STD_B = 22.36


def subject_a(seed=0, noise_std=NOISE_STD_A):
    return SimulatedSubject(
        PreferenceMap(LAMBDA_A),
        AdaptationDynamics(PHI_A, GAMMA_A, PSI_A),
        MotorNoise(0.0, noise_std, seed),
        subject_id="A",
    )


def subject_b(seed=0, noise_std=NOISE_STD_B):
    return SimulatedSubject(
        PreferenceMap(LAMBDA_B),
        AdaptationDynamics(PHI_B, GAMMA_B, PSI_B),
        MotorNoise(0.0, noise_std, seed),
        subject_id="B",
    )


def static_subject(pref_map, steady_at=None):
    """Noise-free subject with no learning dynamics beyond the one-iteration
    latency.

    Order-1 dynamics Phi=0, Gamma=Psi=1: J_i = u(theta_{i-1}), which is the
    memoryless limit of the grey-box model (unity gain, relative degree
    one preserved). With steady_at set, the first output already reflects
    that synergy (a truly static plant has no settling transient).
    """
    dyn = AdaptationDynamics(np.array([[0.0]]), np.array([1.0]), np.array([1.0]))
    x0 = None if steady_at is None else np.array([pref_map.value(steady_at)])
    return SimulatedSubject(pref_map, dyn, initial_state=x0, subject_id="static")


def save_subject(path, subject):
    """Write a subject definition to a human-readable config file."""
    write_config(path, {"subject": {
        "lambda": format_vector(subject.map.lam),
        "phi": format_matrix(subject.dynamics.phi),
        "gamma": format_vector(subject.dynamics.gamma),
        "psi": format_vector(subject.dynamics.psi),
        "noise_mean": repr(float(subject.noise.mean)),
        "noise_std": repr(float(subject.noise.std)),
        "seed": str(int(subject.noise.seed)),
        "initial_state": format_vector(subject._x0),
        "id": subject.subject_id,
    }})


def load_subject(path):
    cp = read_config(path)
    sec = cp["subject"]
    pref = PreferenceMap(parse_vector(sec["lambda"]))
    dyn = AdaptationDynamics(parse_matrix(sec["phi"]),
                             parse_vector(sec["gamma"]),
                             parse_vector(sec["psi"]))
    noise = MotorNoise(float(sec.get("noise_mean", "0")),
                       float(sec.get("noise_std", "0")),
                       int(sec.get("seed", "0")))
    x0 = parse_vector(sec["initial_state"]) if "initial_state" in sec else None
    return SimulatedSubject(pref, dyn, noise, initial_state=x0,
                            subject_id=sec.get("id", "subject"))
