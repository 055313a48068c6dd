"""Black-box perturbation extremum seeking, the prior-work comparison scheme.

Classic single-tone structure: high-pass the measured performance,
demodulate with the dither sinusoid, integrate with a small gain, add the
dither back. BlackBoxEs takes the grey-box personalizer's config, so both
loops run with one tuning, and reads only a, omega_o, bounds and theta_0
from it. The integrator gain is fixed at the comparison value 0.005 (not
the grey-box k) and the washout cutoff at omega_o / 5. Like the
personalizer, the loop runs on Python floats, and both share one
per-iteration step (personalizer.EsLoop).
"""

import math

from .personalizer import DEFAULT_CONFIG, EsLoop, clamp

GAIN = 0.005  # integrator gain of the comparison scheme
HIGHPASS_CUTOFF_RATIO = 0.2  # washout cutoff = omega_o / 5


class BlackBoxEs(EsLoop):
    """Sinusoidal-perturbation ES with a first-order high-pass washout."""

    def __init__(self, config=DEFAULT_CONFIG):
        wc = config.omega_o * HIGHPASS_CUTOFF_RATIO
        self._alpha = 1.0 / (1.0 + wc)  # discrete first-order high-pass pole
        self.theta_hat = clamp(config.theta_0, *config.bounds)
        self._hp_y = 0.0
        self._prev_j = None
        super().__init__(config)

    def dither(self, index):
        """Single-tone perturbation a sin(w i)."""
        return self.config.dither_amplitude * math.sin(self.config.omega_o * index)

    def _update(self, j):
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
        return self._hp_y, math.nan, math.nan, ""
