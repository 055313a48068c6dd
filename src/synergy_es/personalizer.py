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
  Both are block rotations, computed in closed form.
  The closed loop then has spectral radius 0.915 and the tracked states
  converge to the exact Fourier components of the filtered signal.

* The designs (filter matrices, observer transition and injection, chain
  phases and gains) are built with numpy once per config, when the
  PersonalizerConfig is made; the Personalizer holds only state. The
  per-iteration loop runs on Python floats unpacked from the designs,
  since numpy's per-call overhead dominates work on 2- and 5-vectors.

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

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .config import check_fields, parse_section, parse_vector

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


def clamp(x, lo, hi):
    """np.clip of one float, without numpy's per-call overhead."""
    return min(max(x, lo), hi)


class BandPassFilter:
    """Second-order discrete band-pass over the dither band [w, 2w].

    Continuous prototype H (wc/Q) s / (s^2 + (wc/Q) s + wc^2) with
    wc = sqrt(2) w, prewarped and bilinear-discretized at unit iteration
    step, so the peak gain is exactly H at wc. The first processed sample
    initializes the state at its DC solution, which removes the switch-on
    transient (the large constant offset would otherwise ring through the
    passband for tens of iterations).
    """

    def __init__(self, omega_o, H, Q):
        wa = 2.0 * np.tan(np.sqrt(2) * omega_o / 2.0)  # prewarped analog center
        a = np.array([[-wa / Q, -wa * wa], [1.0, 0.0]])
        b = np.array([1.0, 0.0])
        c = np.array([H * wa / Q, 0.0])
        # bilinear (Tustin) transform at unit step, with d = 0
        m = np.eye(2) - a / 2.0
        self.ad = np.linalg.solve(m, np.eye(2) + a / 2.0)
        self.bd = np.linalg.solve(m, b)
        self.cd = np.linalg.solve(m.T, c)
        self.dd = float(c @ self.bd) / 2.0
        # the loop's copies: DC state per unit input, then the recursion
        self._dc = np.linalg.solve(np.eye(2) - self.ad, self.bd).tolist()
        (self._a00, self._a01), (self._a10, self._a11) = self.ad.tolist()
        self._b0, self._b1 = self.bd.tolist()
        self._c0, self._c1 = self.cd.tolist()

    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.ad))))

    def frequency_response(self, omega):
        z = np.exp(1j * float(omega))
        return complex(self.cd @ np.linalg.solve(z * np.eye(2) - self.ad, self.bd)
                       + self.dd)

    def step(self, state, j_value):
        """(band-passed output, next state); state is None before the first sample."""
        if state is None:
            x0, x1 = self._dc[0] * j_value, self._dc[1] * j_value
        else:
            x0, x1 = state
        out = self._c0 * x0 + self._c1 * x1 + self.dd * j_value
        return out, (self._a00 * x0 + self._a01 * x1 + self._b0 * j_value,
                     self._a10 * x0 + self._a11 * x1 + self._b1 * j_value)


class GradCurvObserver:
    """Luenberger observer tracking offset + dither-frequency components.

    State layout, held by the caller: [offset, (sin, cos) at w, (sin, cos) at 2w].
    """

    def __init__(self, omega_o, gain_l):
        self.omega_o = float(omega_o)
        w = self.omega_o
        # expm(w Phi_o) and its flow integral applied to w L, in closed
        # form: 1 and w L_0 for the offset, then per k = 1, 2 a rotation by
        # k w and, on L's pair, [[s, h], [-h, s]] / k with s = sin kw and
        # h = 1 - cos kw (the flow integral's 1 / kw cancels the w)
        gain = [float(v) for v in gain_l]
        self.transition = np.eye(5)
        self._injection = [w * gain[0]]  # the loop's copies, as floats
        self._rotations = []  # (cos kw, sin kw) per k
        for k in (1, 2):
            s, c = math.sin(k * w), math.cos(k * w)
            h = 2.0 * math.sin(k * w / 2.0) ** 2  # 1 - cos kw, no cancellation
            l1, l2 = gain[2 * k - 1:2 * k + 1]
            blk = slice(2 * k - 1, 2 * k + 1)
            self.transition[blk, blk] = [[c, s], [-s, c]]
            self._injection += [(s * l1 + h * l2) / k, (s * l2 - h * l1) / k]
            self._rotations += [c, s]
        self.injection = np.array(self._injection)
        closed = self.transition - np.outer(self.injection, OBSERVER_PSI)
        self.closed_loop_radius = float(np.max(np.abs(np.linalg.eigvals(closed))))

    def step(self, z, filtered_value):
        """The state after state z takes in one filtered sample."""
        z0, z1, z2, z3, z4 = z
        c1, s1, c2, s2 = self._rotations
        i0, i1, i2, i3, i4 = self._injection
        innovation = filtered_value - (z0 + z1 - 0.25 * z4)  # OBSERVER_PSI @ z
        return (z0 + i0 * innovation,
                c1 * z1 + s1 * z2 + i1 * innovation,
                c1 * z2 - s1 * z1 + i2 * innovation,
                c2 * z3 + s2 * z4 + i3 * innovation,
                c2 * z4 - s2 * z3 + i4 * innovation)

    def demodulate(self, z, index, phase1, phase2):
        """(sin-amplitude at w, sin/cos pair at 2w) of z, with phased references.

        Returns the gradient-channel and curvature-channel demodulated
        values in filtered-signal units.
        """
        w = self.omega_o
        _, z1, z2, z3, z4 = z
        arg1, arg2 = w * index + phase1, 2 * w * index + phase2
        grad_channel = math.sin(arg1) * z1 + math.cos(arg1) * z2
        curv_channel = math.sin(arg2) * z3 + math.cos(arg2) * z4
        return grad_channel, curv_channel


@dataclass
class SwitchedOptimizer:
    """Newton step inside the trusted-curvature region, gradient ascent outside.

    theta_hat += k w delta, delta = -g/c when |g| < -eps*c else g; the
    per-iteration move is clipped to step_max and theta_hat is clamped to
    bounds.
    """

    gain: float
    omega_o: float
    epsilon: float
    bounds: tuple
    theta_hat: float
    step_max: float

    def __post_init__(self):
        self.theta_hat = float(clamp(self.theta_hat, *self.bounds))
        self.last_branch = GRADIENT

    def update(self, grad_est, curv_est):
        if abs(grad_est) < -self.epsilon * curv_est:
            delta = -grad_est / curv_est
            self.last_branch = NEWTON
        else:
            delta = grad_est
            self.last_branch = GRADIENT
        step = clamp(self.gain * self.omega_o * delta, -self.step_max, self.step_max)
        self.theta_hat = clamp(self.theta_hat + step, *self.bounds)
        return self.theta_hat


# config field -> INI key, where the paper names the parameter by a symbol
INI_KEYS = {"dither_amplitude": "a", "gain": "k", "filter_gain": "H",
            "filter_q": "Q", "observer_gain": "L"}


@dataclass(frozen=True)
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
        # values come from user INI files: reject what cannot work, then
        # store them as from an INI file, so equal configs hash alike. The
        # parts built from a config trust it.
        check_fields(self, finite=("theta_0",),
                     positive=("omega_o", "gain", "epsilon", "filter_gain",
                               "filter_q"),
                     nonnegative=("dither_amplitude", "warmup_iterations"),
                     ints=("warmup_iterations",),
                     lengths={"observer_gain": 5, "bounds": 2}, labels=INI_KEYS)
        if 2 * self.omega_o >= np.pi:
            raise ValueError(f"omega_o = {self.omega_o} must be below pi/2: the "
                             "2 omega_o tone must stay below the Nyquist rate")
        if not self.bounds[0] < self.bounds[1]:
            raise ValueError(f"bounds {self.bounds} must be two increasing values")
        if 4 * self.dither_amplitude >= self.bounds[1] - self.bounds[0]:
            raise ValueError(f"dither span 4a = {4 * self.dither_amplitude} does not "
                             f"fit inside bounds {self.bounds}")
        # pass band [w, 2w]: the dither's two tones
        band = BandPassFilter(self.omega_o, self.filter_gain, self.filter_q)
        observer = GradCurvObserver(self.omega_o, self.observer_gain)
        if observer.closed_loop_radius >= 1.0:
            raise ValueError("observer closed loop is unstable (spectral radius "
                             f"{observer.closed_loop_radius:.4f})")
        # design-known demodulation chain: band-pass response x one-step latency
        g1 = band.frequency_response(self.omega_o) * np.exp(-1j * self.omega_o)
        g2 = band.frequency_response(2 * self.omega_o) * np.exp(-2j * self.omega_o)
        a = self.dither_amplitude
        if a > 0 and a * a * abs(g2) == 0:  # Personalizer.step divides by it
            raise ValueError(f"dither amplitude {a} is too small: the curvature "
                             "scale a^2 x chain gain underflows to 0")
        # the design, once per config: filter, observer and the chain's
        # (phase, gain) at w and 2w; set past the frozen __setattr__
        object.__setattr__(self, "design", (
            band, observer, (float(np.angle(g1)), float(abs(g1))),
            (float(np.angle(g2)), float(abs(g2)))))

    def as_dict(self):
        """Every field under its INI key (see INI_KEYS), e.g. for hashing."""
        return {INI_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping, where="[personalizer]"):
        """Inverse of as_dict for string values, such as an INI section.

        Each value is parsed as the type of its field's default: int,
        float, or a tuple of floats (comma- or space-separated). A bad
        key or value raises a ValueError that starts with where.
        """
        by_key = {INI_KEYS.get(f.name, f.name): f for f in fields(cls)}
        parsers = {key: (lambda text: tuple(parse_vector(text).tolist()))
                   if isinstance(f.default, tuple) else type(f.default)
                   for key, f in by_key.items()}
        values = parse_section(mapping, where, parsers)
        return cls(**{by_key[key].name: v for key, v in values.items()})


DEFAULT_CONFIG = PersonalizerConfig()  # frozen, so every default run shares it


class StepRecord(NamedTuple):
    """One iteration of a trace; the field names are the trace CSV header."""

    iteration: int
    theta_applied: float
    theta_hat: float
    J: float
    filtered_output: float
    grad_est: float
    curv_est: float
    branch: str


class EsLoop:
    """The per-iteration contract both closed loops share.

    A subclass holds its algorithm: the theta_hat estimate, dither(i) and
    _update(j), which takes in J_i and returns the (filtered output,
    gradient estimate, curvature estimate, branch) its trace row records.
    """

    def __init__(self, config):
        self.config = config
        self.iteration = 0
        self.records = []
        self.applied_theta()  # sets what the first step records as applied

    def applied_theta(self):
        """Synergy to apply at the current iteration (estimate + dither)."""
        self._theta_applied = clamp(self.theta_hat + self.dither(self.iteration),
                                    *self.config.bounds)
        return self._theta_applied

    def step(self, performance):
        """Consume J_i, update all states, return theta_{i+1} to apply.

        The trace records as applied the synergy that applied_theta() or
        step() last returned.
        """
        j = float(performance)
        if not math.isfinite(j):
            raise ValueError("non-finite performance measurement (sensor fault)")
        filtered, grad, curv, branch = self._update(j)
        # tuple.__new__, as StepRecord._make does: StepRecord() runs Python code
        self.records.append(tuple.__new__(StepRecord, (
            self.iteration, self._theta_applied, self.theta_hat, j, filtered,
            grad, curv, branch)))
        self.iteration += 1
        return self.applied_theta()


class Personalizer(EsLoop):
    """Closed-loop synergy personalizer; call step(J_i) once per iteration."""

    def __init__(self, config=DEFAULT_CONFIG):
        self.filter, self.observer, (self._phase1, self._gain1), \
            (self._phase2, self._gain2) = config.design
        self.filter_state, self.observer_state = None, (0.0,) * 5
        a = config.dither_amplitude
        # update bounded by the dither span; hat kept one span inside bounds
        self.optimizer = SwitchedOptimizer(
            gain=config.gain, omega_o=config.omega_o, epsilon=config.epsilon,
            bounds=(config.bounds[0] + 2 * a, config.bounds[1] - 2 * a),
            theta_hat=config.theta_0, step_max=2 * a)
        super().__init__(config)

    @property
    def theta_hat(self):
        return self.optimizer.theta_hat

    def dither(self, index):
        """Two-tone perturbation a sin(w i) + a sin(2w i)."""
        a, w = self.config.dither_amplitude, self.config.omega_o
        return a * math.sin(w * index) + a * math.sin(2.0 * w * index)

    def _update(self, j):
        filtered, self.filter_state = self.filter.step(self.filter_state, j)
        self.observer_state = self.observer.step(self.observer_state, filtered)
        a = self.config.dither_amplitude
        grad_phys = curv_phys = 0.0
        if a > 0:  # the observer state now stands at iteration i + 1
            g_chan, c_chan = self.observer.demodulate(
                self.observer_state, self.iteration + 1, self._phase1, self._phase2)
            # map units: divide by the known chain gains, by the dither
            # amplitude scaling (a for the gradient channel) and by -a^2/4
            # for the curvature channel (the rectified second-order response
            # at 2w has amplitude -u'' a^2/4 on the cosine reference,
            # matching the -0.25 output weight of the observer)
            grad_phys = g_chan / (a * self._gain1)
            curv_phys = c_chan / (a * a * self._gain2)
            if self.iteration >= self.config.warmup_iterations:
                # the optimizer runs on demodulated-signal units: the scale
                # the published gain was tuned for (see module docstring)
                self.optimizer.update(g_chan, c_chan)
        return filtered, grad_phys, curv_phys, self.optimizer.last_branch
