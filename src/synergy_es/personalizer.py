"""Grey-box extremum-seeking personalizer.

Per-iteration pipeline: band-pass filter (inverts the learning-dynamics
band around the dither frequencies) -> Luenberger gradient/curvature
observer -> demodulation -> switched Newton/gradient optimizer -> dither.

Implementation notes, fixed by numerical analysis of the printed design:

* The observer's literal one-step recursion z+ = w Phi_o z + w L(...) is
  unstable with the published gain L (spectral radius 1.574), so the
  continuous-time observer it abbreviates is discretized exactly over one
  iteration: the transition becomes expm(w Phi_o) (unit-circle rotations
  at the dither frequencies, i.e. an exact discrete internal model) and
  the injection gain is the matched integral of the flow applied to w L.
  The closed loop then has spectral radius 0.915 and the tracked states
  converge to the exact Fourier components of the filtered signal.

* Demodulation references carry the design-known chain phase (band-pass
  response times the one-iteration measurement latency) at w and 2w, so
  the estimates line up with the plant's dither response. Physical-unit
  estimates divide by the chain gains and the dither scaling (a, a^2/4
  via the -0.25 output weight); the optimizer consumes the same signals
  in demodulated units, the scale the published optimizer gain k = 0.05
  was tuned for.

* Updates are bounded by twice the dither amplitude per iteration and the
  synergy estimate is kept one dither span inside the hard bounds so the
  applied synergy never clips against them (clipping starves excitation).
"""

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import expm
from scipy.signal import cont2discrete

from .config import parse_vector

OBSERVER_PHI = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 2.0],
    [0.0, 0.0, 0.0, -2.0, 0.0],
])
OBSERVER_PSI = np.array([1.0, 1.0, 0.0, 0.0, -0.25])
DEFAULT_L = np.array([1.5, 0.25, 0.25, 2.0, -2.0])

NEWTON = "newton"
GRADIENT = "gradient"


class BandPassFilter:
    """Second-order discrete band-pass over the dither band [w, 2w].

    Continuous prototype H (wc/Q) s / (s^2 + (wc/Q) s + wc^2) with
    wc = sqrt(2) w, prewarped and bilinear-discretized at unit iteration
    step, so the peak gain is exactly H at wc. The first processed sample
    initializes the state at its DC solution, which removes the switch-on
    transient (the large constant offset would otherwise ring through the
    passband for tens of iterations).
    """

    def __init__(self, omega_o, H=0.5, Q=5.0):
        if omega_o <= 0 or H <= 0 or Q <= 0:
            raise ValueError("omega_o, H, Q must be positive")
        if 2 * omega_o >= np.pi:
            raise ValueError("2*omega_o must stay below the iteration-domain Nyquist rate")
        wa = 2.0 * np.tan(np.sqrt(2) * omega_o / 2.0)  # prewarped analog center
        a_mat = np.array([[-wa / Q, -wa * wa], [1.0, 0.0]])
        b_mat = np.array([[1.0], [0.0]])
        c_mat = np.array([[H * wa / Q, 0.0]])
        d_mat = np.array([[0.0]])
        ad, bd, cd, dd, _ = cont2discrete((a_mat, b_mat, c_mat, d_mat), 1.0,
                                          method="bilinear")
        self.ad, self.bd = ad, bd.ravel()
        self.cd, self.dd = cd.ravel(), float(dd[0, 0])
        self.state = None

    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.ad))))

    def frequency_response(self, omega):
        z = np.exp(1j * float(omega))
        return complex(self.cd @ np.linalg.solve(z * np.eye(2) - self.ad, self.bd)
                       + self.dd)

    def step(self, j_value):
        """Filter one sample; returns the band-passed output."""
        if self.state is None:
            self.state = np.linalg.solve(np.eye(2) - self.ad, self.bd * j_value)
        out = float(self.cd @ self.state + self.dd * j_value)
        self.state = self.ad @ self.state + self.bd * j_value
        return out


class GradCurvObserver:
    """Luenberger observer tracking offset + dither-frequency components.

    State layout: [offset, (sin, cos) pair at w, (sin, cos) pair at 2w].
    """

    def __init__(self, omega_o, gain_l=None):
        self.omega_o = float(omega_o)
        self.L = np.asarray(DEFAULT_L if gain_l is None else gain_l, dtype=float)
        if self.L.shape != (5,):
            raise ValueError("observer gain must be a 5-vector")
        w = self.omega_o
        self.transition = expm(w * OBSERVER_PHI)  # block rotations at w, 2w
        aug = np.zeros((10, 10))
        aug[:5, :5] = w * OBSERVER_PHI
        aug[:5, 5:] = np.eye(5)
        flow_integral = expm(aug)[:5, 5:]
        self.injection = flow_integral @ (w * self.L)
        closed = self.transition - np.outer(self.injection, OBSERVER_PSI)
        rho = float(np.max(np.abs(np.linalg.eigvals(closed))))
        if rho >= 1.0:
            raise ValueError(f"observer closed loop is unstable (spectral radius {rho:.4f})")
        self.closed_loop_radius = rho
        self.z = np.zeros(5)

    def step(self, filtered_value):
        innovation = filtered_value - float(OBSERVER_PSI @ self.z)
        self.z = self.transition @ self.z + self.injection * innovation
        return self.z

    def demodulate(self, index, phase1=0.0, phase2=0.0):
        """(sin-amplitude at w, sin/cos pair at 2w) with phased references.

        Returns the gradient-channel and curvature-channel demodulated
        values in filtered-signal units.
        """
        w = self.omega_o
        s1, c1 = np.sin(w * index + phase1), np.cos(w * index + phase1)
        s2, c2 = np.sin(2 * w * index + phase2), np.cos(2 * w * index + phase2)
        grad_channel = s1 * self.z[1] + c1 * self.z[2]
        curv_channel = s2 * self.z[3] + c2 * self.z[4]
        return float(grad_channel), float(curv_channel)


@dataclass
class DitherGenerator:
    """Two-tone sinusoidal perturbation a sin(w i) + a sin(2w i)."""

    amplitude: float = 0.02
    omega_o: float = np.pi / 4

    def value(self, index):
        if index < 0:
            raise ValueError("iteration index must be >= 0")
        return (self.amplitude * np.sin(self.omega_o * index)
                + self.amplitude * np.sin(2.0 * self.omega_o * index))


@dataclass
class SwitchedOptimizer:
    """Newton step inside the trusted-curvature region, gradient ascent outside.

    theta_hat += k w delta, delta = -g/c when |g| < -eps*c else g; the
    per-iteration move is clipped to step_max and theta_hat is clamped to
    bounds.
    """

    gain: float = 0.05
    omega_o: float = np.pi / 4
    epsilon: float = 0.1
    bounds: tuple = (0.8, 2.4)
    theta_hat: float = 1.0
    step_max: float = np.inf
    last_branch: str = GRADIENT

    def __post_init__(self):
        if self.gain <= 0 or self.epsilon <= 0:
            raise ValueError("gain and epsilon must be positive")
        self.theta_hat = float(np.clip(self.theta_hat, *self.bounds))

    def update(self, grad_est, curv_est):
        if abs(grad_est) < -self.epsilon * curv_est:
            delta = -grad_est / curv_est
            self.last_branch = NEWTON
        else:
            delta = grad_est
            self.last_branch = GRADIENT
        step = self.gain * self.omega_o * delta
        step = float(np.clip(step, -self.step_max, self.step_max))
        self.theta_hat = float(np.clip(self.theta_hat + step, *self.bounds))
        return self.theta_hat


# config field -> INI key, where the paper names the parameter by a symbol
INI_KEYS = {"dither_amplitude": "a", "gain": "k", "filter_gain": "H",
            "filter_q": "Q", "observer_gain": "L"}


@dataclass
class PersonalizerConfig:
    omega_o: float = np.pi / 4
    dither_amplitude: float = 0.02
    gain: float = 0.05
    epsilon: float = 0.1
    filter_gain: float = 0.5
    filter_q: float = 5.0
    observer_gain: tuple = tuple(DEFAULT_L)
    theta_0: float = 1.0
    bounds: tuple = (0.8, 2.4)
    warmup_iterations: int = 8

    def __post_init__(self):
        # values come from user INI files: reject what cannot work
        if len(self.bounds) != 2 or not self.bounds[0] < self.bounds[1]:
            raise ValueError(f"bounds {self.bounds} must be two increasing values")
        if self.dither_amplitude < 0 or self.warmup_iterations < 0:
            raise ValueError("dither amplitude and warmup iterations must be >= 0")
        if 4 * self.dither_amplitude >= self.bounds[1] - self.bounds[0]:
            raise ValueError(f"dither span 4a = {4 * self.dither_amplitude} does not "
                             f"fit inside bounds {self.bounds}")

    def as_dict(self):
        """Every field under its INI key (see INI_KEYS), e.g. for hashing."""
        return {INI_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping):
        """Inverse of as_dict for string values, such as an INI section.

        Each value is parsed as the type of its field's default: int,
        float, or a tuple of floats (comma- or space-separated).
        """
        by_key = {INI_KEYS.get(f.name, f.name): f for f in fields(cls)}
        unknown = sorted(set(mapping) - set(by_key))
        if unknown:
            raise ValueError(f"unknown personalizer keys {unknown}")
        kwargs = {}
        for key, text in mapping.items():
            f = by_key[key]
            kwargs[f.name] = (tuple(parse_vector(text))
                              if isinstance(f.default, tuple)
                              else type(f.default)(text))
        return cls(**kwargs)


@dataclass
class StepRecord:
    """One iteration of a trace; the field names are the trace CSV header."""

    iteration: int
    theta_applied: float
    theta_hat: float
    J: float
    filtered_output: float
    grad_est: float
    curv_est: float
    branch: str


class Personalizer:
    """Closed-loop synergy personalizer; call step(J_i) once per iteration."""

    def __init__(self, config=None):
        self.config = config or PersonalizerConfig()
        cfg = self.config
        # pass band [w, 2w]: the dither's two tones
        self.filter = BandPassFilter(cfg.omega_o, cfg.filter_gain, cfg.filter_q)
        self.observer = GradCurvObserver(cfg.omega_o, np.asarray(cfg.observer_gain))
        a = cfg.dither_amplitude
        # update bounded by the dither span; hat kept one span inside bounds
        self.optimizer = SwitchedOptimizer(
            gain=cfg.gain, omega_o=cfg.omega_o, epsilon=cfg.epsilon,
            bounds=(cfg.bounds[0] + 2 * a, cfg.bounds[1] - 2 * a) if a > 0 else cfg.bounds,
            theta_hat=cfg.theta_0,
            step_max=2 * a if a > 0 else np.inf)
        self.dither = DitherGenerator(a, cfg.omega_o)
        # design-known demodulation chain: band-pass response x one-step latency
        g1 = self.filter.frequency_response(cfg.omega_o) * np.exp(-1j * cfg.omega_o)
        g2 = self.filter.frequency_response(2 * cfg.omega_o) * np.exp(-2j * cfg.omega_o)
        self._phase1, self._gain1 = float(np.angle(g1)), float(abs(g1))
        self._phase2, self._gain2 = float(np.angle(g2)), float(abs(g2))
        if a > 0 and a * a * self._gain2 == 0:  # step() divides by it
            raise ValueError(f"dither amplitude {a} is too small: the curvature "
                             "scale a^2 x chain gain underflows to 0")
        self.iteration = 0
        self.records = []

    @property
    def theta_hat(self):
        return self.optimizer.theta_hat

    def applied_theta(self):
        """Synergy to apply at the current iteration (estimate + dither)."""
        lo, hi = self.config.bounds
        return float(np.clip(self.optimizer.theta_hat + self.dither.value(self.iteration),
                             lo, hi))

    def step(self, performance):
        """Consume J_i, update all states, return theta_{i+1} to apply."""
        if not np.isfinite(performance):
            raise ValueError("non-finite performance measurement (sensor fault)")
        cfg = self.config
        theta_applied = self.applied_theta()
        filtered = self.filter.step(float(performance))
        self.observer.step(filtered)
        self.iteration += 1
        a = cfg.dither_amplitude
        grad_phys = curv_phys = 0.0
        if a > 0:
            g_chan, c_chan = self.observer.demodulate(self.iteration,
                                                      self._phase1, self._phase2)
            # map units: divide by the known chain gains, by the dither
            # amplitude scaling (a for the gradient channel) and by -a^2/4
            # for the curvature channel (the rectified second-order response
            # at 2w has amplitude -u'' a^2/4 on the cosine reference,
            # matching the -0.25 output weight of the observer)
            grad_phys = g_chan / (a * self._gain1)
            curv_phys = c_chan / (a * a * self._gain2)
            if self.iteration - 1 >= cfg.warmup_iterations:
                # the optimizer runs on demodulated-signal units: the scale
                # the published gain was tuned for (see module docstring)
                self.optimizer.update(g_chan, c_chan)
        self.records.append(StepRecord(
            iteration=self.iteration - 1,
            theta_applied=theta_applied,
            theta_hat=self.optimizer.theta_hat,
            J=float(performance),
            filtered_output=filtered,
            grad_est=grad_phys,
            curv_est=curv_phys,
            branch=self.optimizer.last_branch,
        ))
        return self.applied_theta()
