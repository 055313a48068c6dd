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

from .config import (check_fields, format_matrix, format_vector, parse_matrix,
                     parse_section, parse_vector, read_config, write_config)

THETA_BOUNDS = (0.8, 2.4)
NOISE_BLOCK = 64  # standard normals drawn per call into the generator


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
        self._gamma = self.gamma.tolist()  # step()'s copy of Gamma

    @property
    def order(self):
        return self.phi.shape[0]

    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.phi))))

    def is_stable(self):
        return self.spectral_radius() < 1.0

    def step(self, state, u):
        """One recursion step: returns (next_state, noise-free output Psi x).

        A state of the wrong dimension raises ValueError (from the product).
        Equal, bit for bit, to phi @ state + gamma * u and psi @ state:
        ndarray.dot rounds the products as @ does and the elementwise tail
        rounds alike on floats. Only the sign of a zero differs: @ never
        returns -0.0, dot does for order 1, so "+ 0.0" turns it into 0.0.
        """
        y = float(self.psi.dot(state)) + 0.0
        u = float(u)
        return np.array([p + 0.0 + g * u for p, g in
                         zip(self.phi.dot(state).tolist(), self._gamma)]), y

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
        check_fields(self, finite=("mean",), nonnegative=("std",),
                     labels={"mean": "noise_mean", "std": "noise_std"})
        self.reset()

    def sample(self):
        # one standard normal per call, even at std == 0, to keep draw counts
        # stable; drawn NOISE_BLOCK at a time, which gives the same values
        if not self._block:
            self._block = self._rng.standard_normal(NOISE_BLOCK).tolist()
            self._block.reverse()  # pop() then takes them in order
        return self.mean + self.std * self._block.pop()

    def reset(self, seed=None):
        if seed is not None:
            self.seed = seed
        self._rng = np.random.default_rng(self.seed)
        self._block = []


class SimulatedSubject:
    """Composable grey-box subject: map -> LTI -> additive noise."""

    def __init__(self, pref_map, dynamics, noise=None, initial_state=None,
                 subject_id="subject"):
        if not dynamics.is_stable():
            raise ValueError("adaptation dynamics must be stable (rho(Phi) < 1)")
        self.map = pref_map
        self._lam = pref_map.lam.tolist()  # step()'s copy of the coefficients
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
        th = float(theta)
        l2, l1, l0 = self._lam
        u = l2 * th * th + l1 * th + l0  # map.value(th), on floats
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
        "noise_mean": repr(subject.noise.mean),
        "noise_std": repr(subject.noise.std),
        "seed": str(int(subject.noise.seed)),
        "initial_state": format_vector(subject._x0),
        "id": subject.subject_id,
    }})


# [subject] key -> parser of its value; lambda, phi, gamma and psi are required
SUBJECT_KEYS = {"lambda": parse_vector, "phi": parse_matrix, "gamma": parse_vector,
                "psi": parse_vector, "noise_mean": float, "noise_std": float,
                "seed": int, "initial_state": parse_vector, "id": str}


def load_subject(path):
    cp = read_config(path)
    if not cp.has_section("subject"):
        raise ValueError(f"{path}: no [subject] section")
    sec = parse_section(cp["subject"], f"{path}: [subject]", SUBJECT_KEYS,
                        required=("lambda", "phi", "gamma", "psi"))
    pref = PreferenceMap(sec["lambda"])
    dyn = AdaptationDynamics(sec["phi"], sec["gamma"], sec["psi"])
    noise = MotorNoise(sec.get("noise_mean", 0.0), sec.get("noise_std", 0.0),
                       sec.get("seed", 0))
    return SimulatedSubject(pref, dyn, noise, initial_state=sec.get("initial_state"),
                            subject_id=sec.get("id", "subject"))
