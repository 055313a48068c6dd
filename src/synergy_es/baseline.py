"""Black-box perturbation extremum seeking, the prior-work comparison scheme.

Classic single-tone structure: high-pass the measured performance,
demodulate with the dither sinusoid, integrate with a small gain, add the
dither back. BlackBoxEs takes the grey-box personalizer's config, so both
loops run with one tuning, and reads only a, omega_o, bounds and theta_0
from it. The integrator gain is fixed at the comparison value 0.005 (not
the grey-box k) and the washout cutoff at omega_o / 5. Like the
personalizer, the loop runs on Python floats in one flat step, with
sin(w i) from a per-config table.
"""

import math

from .personalizer import DEFAULT_CONFIG, StepRecord, clamp, extend_table, measured

GAIN = 0.005  # integrator gain of the comparison scheme
HIGHPASS_CUTOFF_RATIO = 0.2  # washout cutoff = omega_o / 5


class BlackBoxEs:
    """Sinusoidal-perturbation ES with a first-order high-pass washout."""

    def __init__(self, config=DEFAULT_CONFIG):
        self.config = config
        wc = config.omega_o * HIGHPASS_CUTOFF_RATIO
        self._alpha = 1.0 / (1.0 + wc)  # discrete first-order high-pass pole
        self.theta_hat = clamp(config.theta_0, *config.bounds)
        self._hp_y = 0.0
        self._prev_j = None
        self._sines = config.tables.setdefault(type(self), [])  # sin(w i)
        self.iteration = 0
        self.records = []
        self.applied_theta()  # sets what the first step records as applied

    def dither(self, index):
        """Single-tone perturbation a sin(w i)."""
        return self.config.dither_amplitude * math.sin(self.config.omega_o * index)

    def applied_theta(self):
        """Synergy to apply at the current iteration (estimate + dither)."""
        self._theta_applied = clamp(self.theta_hat + self.dither(self.iteration),
                                    *self.config.bounds)
        return self._theta_applied

    def _sine(self, index):
        return math.sin(self.config.omega_o * index)

    def step(self, performance):
        """Consume J_i, update the estimate, return theta_{i+1} to apply.

        The trace records as applied the synergy that applied_theta() or
        step() last returned.
        """
        j = measured(performance)
        i, sines = self.iteration, self._sines
        try:
            next_sine = sines[i + 1]
        except IndexError:
            extend_table(sines, self._sine, i + 1)
            next_sine = sines[i + 1]
        if self._prev_j is None:
            hp_y = 0.0  # start at the washout steady state
        else:
            hp_y = self._alpha * (self._hp_y + j - self._prev_j)
        self._hp_y, self._prev_j = hp_y, j
        cfg = self.config
        lo, hi = cfg.bounds
        theta_hat = self.theta_hat
        if cfg.dither_amplitude > 0:  # no excitation, no update
            theta_hat += GAIN * (sines[i] * hp_y)  # demodulate, integrate
            # the clamps, inline: min(max(x, lo), hi)
            if lo > theta_hat:
                theta_hat = lo
            if hi < theta_hat:
                theta_hat = hi
            self.theta_hat = theta_hat
        # trace schema matches the personalizer; grad/curv columns stay empty
        self.records.append(tuple.__new__(StepRecord, (
            i, self._theta_applied, theta_hat, j, hp_y, math.nan, math.nan, "")))
        self.iteration = i + 1
        theta = theta_hat + cfg.dither_amplitude * next_sine
        if lo > theta:
            theta = lo
        if hi < theta:
            theta = hi
        self._theta_applied = theta
        return theta
