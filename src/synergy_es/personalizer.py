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

* The designs (filter, observer, chain phases and gains) are built once
  per config, when the PersonalizerConfig is made; the Personalizer holds
  only state. No trace bit goes through LAPACK, only the observer's eigvals
  stability check. The per-iteration loop runs on Python floats unpacked
  from the designs, since numpy's per-call overhead dominates work on 2-
  and 5-vectors.

* Personalizer.run(plant, n) is the loop: n iterations of one flat
  body in which the filter recursion, observer update, demodulation and
  switched update run inline, on the constants and state held in
  locals, since a Python call or attribute round trip costs about as
  much as a stage's arithmetic. An episode is one run. J is
  float(plant(theta)), tested by an inline isfinite; a non-finite J
  raises a ValueError with the one message SENSOR_FAULT. The dither and
  the four phased references depend only on the config and the
  iteration index, so they come from a per-config table
  (PersonalizerConfig.tables) whose row i is built with the expressions
  of dither(i) and demodulate at index i (w i in floats is not periodic,
  so rows are built per index, never repeated). The stages' own
  BandPassFilter.step, GradCurvObserver.step and .demodulate and
  SwitchedOptimizer.update stay, unused by the loops: they are the
  reference the flat body is tested against bit for bit, and the names
  the benchmark's tracer wraps.

* EsLoop, shared with baseline.BlackBoxEs, holds what runs once per loop
  or run: construction, applied_theta(), step(J) (a one-iteration run) and
  the table's growth, before a run, to exactly the rows the run reads.

* A loop's trace is one list per StepRecord field, to which each
  iteration appends the cells it computes; a run adds the index-only ones
  (the iteration) once, at its end. No row is built: the collector never
  untracks a tuple subclass such as StepRecord, so a row per iteration
  would stay on its lists for the trace's whole life and set off
  collections every few episodes; floats, ints and strs are never tracked.

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

import cmath
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .config import check_fields, parse_section, parse_vector, parsed

# the continuous observer model GradCurvObserver's closed forms discretize; tests read it
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
# both loops' error for a non-finite J
SENSOR_FAULT = "non-finite performance measurement (sensor fault)"


def clamp(x, lo, hi):
    """np.clip of one float, without numpy's per-call overhead."""
    return min(max(x, lo), hi)


class BandPassFilter:
    """Second-order discrete band-pass over the dither band [w, 2w].

    Continuous prototype H (wc/Q) s / (s^2 + (wc/Q) s + wc^2) with
    wc = sqrt(2) w, prewarped and bilinear-discretized at unit iteration
    step (stable, as the image of a stable analog filter), so the peak gain is
    exactly H at wc. The first processed sample initializes the state at its
    DC solution, which removes the switch-on transient (the large constant
    offset would otherwise ring through the passband for tens of iterations).
    """

    def __init__(self, omega_o, H, Q):
        wa = 2.0 * math.tan(math.sqrt(2.0) * omega_o / 2.0)  # prewarped analog center
        # the bilinear image of a = [[-q, -w2], [1, 0]], b = [1, 0], c = [H q, 0]
        # written out, with m = I - a/2 and det m = 1 + q/2 + w2/4: the DC state
        # per unit input -a^-1 b = (0, 1/w2), then ad = m^-1 (I + a/2), bd = m^-1 b,
        # cd = c m^-1 and dd = c bd / 2, the loops' floats
        q, w2 = wa / Q, wa * wa
        hq, det = H * q, 1.0 + q / 2.0 + w2 / 4.0
        self._prototype = hq, q, w2
        self.coefficients = (0.0, 1.0 / w2, (1.0 - q / 2.0 - w2 / 4.0) / det, -w2 / det,
                             1.0 / det, (1.0 + q / 2.0 - w2 / 4.0) / det, 1.0 / det,
                             0.5 / det, hq / det, -hq * w2 / 2.0 / det, hq / (2.0 * det))

    def frequency_response(self, omega):
        """The prototype's at s = 2j tan(omega/2), the image of z = exp(j omega)."""
        hq, q, w2 = self._prototype
        s = 2j * math.tan(omega / 2.0)
        return hq * s / (s * s + q * s + w2)

    def step(self, state, j_value):
        """(band-passed output, next state); state is None before the first sample."""
        dc0, dc1, a00, a01, a10, a11, b0, b1, c0, c1, dd = self.coefficients
        if state is None:
            x0, x1 = dc0 * j_value, dc1 * j_value
        else:
            x0, x1 = state
        out = c0 * x0 + c1 * x1 + dd * j_value
        return out, (a00 * x0 + a01 * x1 + b0 * j_value,
                     a10 * x0 + a11 * x1 + b1 * j_value)


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
        injection = [w * gain[0]]
        rotations = []  # (cos kw, sin kw) per k
        for k in (1, 2):
            s, c = math.sin(k * w), math.cos(k * w)
            h = 2.0 * math.sin(k * w / 2.0) ** 2  # 1 - cos kw, no cancellation
            l1, l2 = gain[2 * k - 1:2 * k + 1]
            blk = slice(2 * k - 1, 2 * k + 1)
            self.transition[blk, blk] = [[c, s], [-s, c]]
            injection += [(s * l1 + h * l2) / k, (s * l2 - h * l1) / k]
            rotations += [c, s]
        self.injection = np.array(injection)
        self.coefficients = (*rotations, *injection)  # the loops' floats
        closed = self.transition - np.outer(self.injection, OBSERVER_PSI)
        self.closed_loop_radius = float(np.max(np.abs(np.linalg.eigvals(closed))))

    def step(self, z, filtered_value):
        """The state after state z takes in one filtered sample."""
        z0, z1, z2, z3, z4 = z
        c1, s1, c2, s2, i0, i1, i2, i3, i4 = self.coefficients
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
        g1 = band.frequency_response(self.omega_o) * cmath.exp(-1j * self.omega_o)
        g2 = band.frequency_response(2 * self.omega_o) * cmath.exp(-2j * self.omega_o)
        a = self.dither_amplitude
        if a > 0 and a * a * abs(g2) == 0:  # Personalizer.step divides by it
            raise ValueError(f"dither amplitude {a} is too small: the curvature "
                             "scale a^2 x chain gain underflows to 0")
        # the design, once per config: filter, observer and the chain's
        # (phase, gain) at w and 2w; set past the frozen __setattr__
        object.__setattr__(self, "design", (
            band, observer, (cmath.phase(g1), abs(g1)), (cmath.phase(g2), abs(g2))))
        # per loop class, one row per iteration index, up to the longest run
        # made on this config, kept for the config's life (EsLoop._table)
        object.__setattr__(self, "tables", {})

    def as_dict(self):
        """Every field under its INI key (see INI_KEYS), e.g. for hashing."""
        return {INI_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping, where="[personalizer]"):
        """Inverse of as_dict for string values, such as an INI section.

        Each value is parsed as the type of its field's default: int,
        float, or a tuple of floats (comma- or space-separated). A bad
        key or value, or a config it rejects, raises a ValueError that
        starts with where.
        """
        by_key = {INI_KEYS.get(f.name, f.name): f for f in fields(cls)}
        parsers = {key: (lambda text: tuple(parse_vector(text).tolist()))
                   if isinstance(f.default, tuple) else type(f.default)
                   for key, f in by_key.items()}
        values = parse_section(mapping, where, parsers)
        return parsed(lambda kwargs: cls(**kwargs),
                      {by_key[key].name: v for key, v in values.items()}, where)


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
    """What both ES loops do once per loop or once per run; the loops add
    dither(i), _row(i) and run(plant, n), the flat per-iteration body."""

    def __init__(self, config, theta_hat):
        self.config, self.theta_hat = config, theta_hat
        self.iteration = 0
        # the trace, one list per StepRecord field (see the module docstring)
        self.columns = StepRecord._make([] for _ in StepRecord._fields)
        self._rows = config.tables.setdefault(type(self), [])
        self.applied_theta()  # sets what the first step records as applied

    def applied_theta(self):
        """Synergy to apply at the current iteration (estimate + dither)."""
        self._theta_applied = clamp(self.theta_hat + self.dither(self.iteration),
                                    *self.config.bounds)
        return self._theta_applied

    def step(self, performance):
        """Consume J_i, update all states, return theta_{i+1} to apply: a
        one-iteration run on a plant that measures performance."""
        return self.run(lambda _theta: performance, 1)

    def _table(self, iterations):
        """The per-config table, row i = _row(i), grown to exactly the rows
        0..iteration + iterations that a run of iterations reads. Built rows
        are stored by index in one slice assignment: rows that a loop sharing
        the config added meanwhile stay (rows[have:] would cut them)."""
        if iterations < 0:
            raise ValueError(f"iterations = {iterations} must be non-negative")
        rows, stop = self._rows, self.iteration + iterations + 1
        have = len(rows)
        if have < stop:
            rows[have:stop] = [self._row(i) for i in range(have, stop)]
        return rows


class Personalizer(EsLoop):
    """Closed-loop synergy personalizer: run(plant, n) for n iterations on a
    plant, or step(J_i) once per iteration with J measured outside."""

    def __init__(self, config=DEFAULT_CONFIG):
        self.filter, self.observer, (_, gain1), (_, gain2) = config.design
        a, (lo, hi) = config.dither_amplitude, config.bounds
        # update bounded by the dither span; hat kept one span inside bounds
        hat_lo, hat_hi = lo + 2 * a, hi - 2 * a
        self.last_branch = GRADIENT
        # step()'s constants: a, the estimate scales (a x the chain gain
        # at w, a^2 x the one at 2w), the warmup, SwitchedOptimizer's
        # -epsilon, k w, step_max and bounds, then the applied bounds
        self._constants = (a, a * gain1, a * a * gain2, config.warmup_iterations,
                           -config.epsilon, config.gain * config.omega_o, 2 * a,
                           hat_lo, hat_hi, lo, hi)
        self._state = None  # filter and observer state, from the first sample
        super().__init__(config, float(clamp(config.theta_0, hat_lo, hat_hi)))

    def dither(self, index):
        """Two-tone perturbation a sin(w i) + a sin(2w i)."""
        a, w = self.config.dither_amplitude, self.config.omega_o
        return a * math.sin(w * index) + a * math.sin(2.0 * w * index)

    def _row(self, index):
        """Table row index: dither(index), then the sin and cos of the
        references at w and 2w as GradCurvObserver.demodulate forms them."""
        w, (_, _, (phase1, _), (phase2, _)) = self.config.omega_o, self.config.design
        arg1, arg2 = w * index + phase1, 2 * w * index + phase2
        return (self.dither(index), math.sin(arg1), math.cos(arg1), math.sin(arg2),
                math.cos(arg2))

    def run(self, plant, iterations):
        """Run iterations closed-loop iterations; return the theta to apply next.

        Per iteration, J = plant(theta applied) and the update of one step.
        The trace records as applied the synergy that applied_theta(),
        step() or run() last returned, then the one each iteration
        computes. The arithmetic is that of BandPassFilter.step,
        GradCurvObserver.step and .demodulate and SwitchedOptimizer.update,
        inline, on the loop's state held in locals (see the module
        docstring). The state is stored back when the run ends, also when
        plant raises or J is not finite at iteration k: the loop is then
        as k steps leave it.
        """
        rows = self._table(iterations)  # row i + 1 for each iteration i
        start = done = self.iteration
        dc0, dc1, a00, a01, a10, a11, b0, b1, c0, c1, dd = self.filter.coefficients
        rc1, rs1, rc2, rs2, i0, i1, i2, i3, i4 = self.observer.coefficients
        a, grad_scale, curv_scale, warmup, neg_eps, kw, step_max, hat_lo, hat_hi, \
            lo, hi = self._constants
        isfinite = math.isfinite
        fresh = self._state is None  # the first sample starts the filter at DC
        x0, x1, z0, z1, z2, z3, z4 = (0.0,) * 7 if fresh else self._state
        theta_hat, branch, theta = self.theta_hat, self.last_branch, self._theta_applied
        _, put_theta, put_hat, put_j, put_filtered, put_grad, put_curv, \
            put_branch = [column.append for column in self.columns]
        try:
            for i in range(start, start + iterations):
                j = float(plant(theta))
                if not isfinite(j):
                    raise ValueError(SENSOR_FAULT)
                dither, sin1, cos1, sin2, cos2 = rows[i + 1]
                if fresh:
                    x0, x1, fresh = dc0 * j, dc1 * j, False
                # band-pass filter
                filtered = c0 * x0 + c1 * x1 + dd * j
                x0, x1 = a00 * x0 + a01 * x1 + b0 * j, a10 * x0 + a11 * x1 + b1 * j
                # observer: the innovation against OBSERVER_PSI @ z, then rotations
                innovation = filtered - (z0 + z1 - 0.25 * z4)
                z0, z1, z2, z3, z4 = (z0 + i0 * innovation,
                                      rc1 * z1 + rs1 * z2 + i1 * innovation,
                                      rc1 * z2 - rs1 * z1 + i2 * innovation,
                                      rc2 * z3 + rs2 * z4 + i3 * innovation,
                                      rc2 * z4 - rs2 * z3 + i4 * innovation)
                grad = curv = 0.0
                if a > 0:  # the observer state now stands at iteration i + 1
                    g_chan = sin1 * z1 + cos1 * z2
                    c_chan = sin2 * z3 + cos2 * z4
                    # map units: divide by the known chain gains, by the
                    # dither amplitude scaling (a for the gradient channel)
                    # and by -a^2/4 for the curvature channel (the rectified
                    # second-order response at 2w has amplitude -u'' a^2/4
                    # on the cosine reference, matching the -0.25 output
                    # weight of the observer)
                    grad, curv = g_chan / grad_scale, c_chan / curv_scale
                    if i >= warmup:
                        # the optimizer runs on demodulated-signal units: the
                        # scale the published gain was tuned for (see module
                        # docstring)
                        if abs(g_chan) < neg_eps * c_chan:
                            delta = -g_chan / c_chan
                            branch = NEWTON
                        else:
                            delta = g_chan
                            branch = GRADIENT
                        # the clamps, inline: min(max(x, lo), hi)
                        move = kw * delta
                        if -step_max > move:
                            move = -step_max
                        if step_max < move:
                            move = step_max
                        theta_hat += move
                        if hat_lo > theta_hat:
                            theta_hat = hat_lo
                        if hat_hi < theta_hat:
                            theta_hat = hat_hi
                put_theta(theta)
                put_hat(theta_hat)
                put_j(j)
                put_filtered(filtered)
                put_grad(grad)
                put_curv(curv)
                put_branch(branch)
                theta = theta_hat + dither
                if lo > theta:
                    theta = lo
                if hi < theta:
                    theta = hi
                done = i + 1
        finally:
            self.columns.iteration.extend(range(start, done))  # once per run
            self.iteration, self.theta_hat, self.last_branch = done, theta_hat, branch
            self._theta_applied = theta
            if not fresh:
                self._state = (x0, x1, z0, z1, z2, z3, z4)
        return theta
