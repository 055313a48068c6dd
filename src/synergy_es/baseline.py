"""Black-box perturbation extremum seeking, the prior-work comparison scheme.

Classic single-tone structure: high-pass the measured performance,
demodulate with the dither sinusoid, integrate with a small gain, add the
dither back. BlackBoxEs takes the grey-box personalizer's config, so both
loops run with one tuning, and reads only a, omega_o, bounds and theta_0
from it. The integrator gain is fixed at the comparison value 0.005 (not
the grey-box k) and the washout cutoff at omega_o / 5. Like the
personalizer, the loop runs on Python floats.
"""

import math

from .personalizer import DEFAULT_CONFIG, StepRecord, clamp

GAIN = 0.005  # integrator gain of the comparison scheme
HIGHPASS_CUTOFF_RATIO = 0.2  # washout cutoff = omega_o / 5


class BlackBoxEs:
    """Sinusoidal-perturbation ES with a first-order high-pass washout."""

    def __init__(self, config=DEFAULT_CONFIG):
        self.config = config
        wc = config.omega_o * HIGHPASS_CUTOFF_RATIO
        self._alpha = 1.0 / (1.0 + wc)  # discrete first-order high-pass pole
        self.theta_hat = float(clamp(config.theta_0, *config.bounds))
        self._hp_y = 0.0
        self._prev_j = None
        self.iteration = 0
        self.records = []
        self.applied_theta()  # sets what the first step records as applied

    def applied_theta(self):
        cfg = self.config
        d = cfg.dither_amplitude * math.sin(cfg.omega_o * self.iteration)
        self._theta_applied = clamp(self.theta_hat + d, *cfg.bounds)
        return self._theta_applied

    def step(self, performance):
        """Consume J_i, return theta_{i+1} to apply.

        The trace records as applied the synergy that applied_theta() or
        step() last returned.
        """
        j = float(performance)
        if not math.isfinite(j):
            raise ValueError("non-finite performance measurement (sensor fault)")
        cfg = self.config
        if self._prev_j is None:
            self._hp_y = 0.0  # start at the washout steady state
        else:
            self._hp_y = self._alpha * (self._hp_y + j - self._prev_j)
        self._prev_j = j
        xi = math.sin(cfg.omega_o * self.iteration) * self._hp_y
        if cfg.dither_amplitude > 0:  # no excitation, no update
            self.theta_hat = clamp(self.theta_hat + GAIN * xi, *cfg.bounds)
        # trace schema matches the personalizer; grad/curv columns stay empty
        self.records.append(StepRecord(
            iteration=self.iteration,
            theta_applied=self._theta_applied,
            theta_hat=self.theta_hat,
            J=j,
            filtered_output=self._hp_y,
            grad_est=math.nan,
            curv_est=math.nan,
            branch="",
        ))
        self.iteration += 1
        return self.applied_theta()
