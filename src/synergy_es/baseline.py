"""Black-box perturbation extremum seeking, the prior-work comparison scheme.

Classic single-tone structure: high-pass the measured performance,
demodulate with the dither sinusoid, integrate with a small gain, add the
dither back. Shares (a, omega_o, bounds) with the grey-box personalizer;
the integrator gain defaults to the comparison value k = 0.005.
"""

from dataclasses import dataclass

import numpy as np

from .personalizer import StepRecord


@dataclass
class BlackBoxEsConfig:
    omega_o: float = np.pi / 4
    dither_amplitude: float = 0.02
    gain: float = 0.005
    bounds: tuple = (0.8, 2.4)
    theta_0: float = 1.0
    highpass_cutoff_ratio: float = 0.2  # cutoff = omega_o / 5


class BlackBoxEs:
    """Sinusoidal-perturbation ES with a first-order high-pass washout."""

    def __init__(self, config=None):
        self.config = config or BlackBoxEsConfig()
        cfg = self.config
        wc = cfg.omega_o * cfg.highpass_cutoff_ratio
        self._alpha = 1.0 / (1.0 + wc)  # discrete first-order high-pass pole
        self.theta_hat = float(np.clip(cfg.theta_0, *cfg.bounds))
        self._hp_y = 0.0
        self._prev_j = None
        self.iteration = 0
        self.records = []

    def applied_theta(self):
        cfg = self.config
        d = cfg.dither_amplitude * np.sin(cfg.omega_o * self.iteration)
        return float(np.clip(self.theta_hat + d, *cfg.bounds))

    def step(self, performance):
        """Consume J_i, return theta_{i+1} to apply."""
        if not np.isfinite(performance):
            raise ValueError("non-finite performance measurement (sensor fault)")
        cfg = self.config
        theta_applied = self.applied_theta()
        j = float(performance)
        if self._prev_j is None:
            self._hp_y = 0.0  # start at the washout steady state
        else:
            self._hp_y = self._alpha * (self._hp_y + j - self._prev_j)
        self._prev_j = j
        xi = np.sin(cfg.omega_o * self.iteration) * self._hp_y
        if cfg.dither_amplitude > 0:  # no excitation, no update
            self.theta_hat = float(np.clip(self.theta_hat + cfg.gain * xi,
                                           *cfg.bounds))
        # trace schema matches the personalizer; grad/curv columns stay empty
        self.records.append(StepRecord(
            iteration=self.iteration,
            theta_applied=theta_applied,
            theta_hat=self.theta_hat,
            J=j,
            filtered_output=self._hp_y,
            grad_est=float("nan"),
            curv_est=float("nan"),
            branch="",
        ))
        self.iteration += 1
        return self.applied_theta()
