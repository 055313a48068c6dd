"""Black-box perturbation extremum seeking, the prior-work comparison scheme.

Classic single-tone structure: high-pass the measured performance,
demodulate with the dither sinusoid, integrate with a small gain, add the
dither back. BlackBoxEs takes the grey-box personalizer's config, so both
loops run with one tuning, and reads only a, omega_o, bounds and theta_0
from it. The integrator gain is fixed at the comparison value 0.005 (not
the grey-box k) and the washout cutoff at omega_o / 5. Like the
personalizer, the loop is run(plant, n), one flat body on Python floats
held in locals, with sin(w i) from a per-config table; an episode is one
run. J is tested as the personalizer's is, by an inline isfinite that
raises personalizer.SENSOR_FAULT. Construction, applied_theta(),
step(J) (a one-iteration run), the table's growth and the trace, held as
columns, are personalizer.EsLoop's.
"""

import math

from .personalizer import DEFAULT_CONFIG, SENSOR_FAULT, EsLoop, clamp

GAIN = 0.005  # integrator gain of the comparison scheme
HIGHPASS_CUTOFF_RATIO = 0.2  # washout cutoff = omega_o / 5


class BlackBoxEs(EsLoop):
    """Sinusoidal-perturbation ES with a first-order high-pass washout."""

    def __init__(self, config=DEFAULT_CONFIG):
        wc = config.omega_o * HIGHPASS_CUTOFF_RATIO
        self._alpha = 1.0 / (1.0 + wc)  # discrete first-order high-pass pole
        self._hp_y = 0.0
        self._prev_j = None
        super().__init__(config, clamp(config.theta_0, *config.bounds))

    def dither(self, index):
        """Single-tone perturbation a sin(w i)."""
        return self.config.dither_amplitude * math.sin(self.config.omega_o * index)

    def _row(self, index):
        """Table row index: sin(w index)."""
        return math.sin(self.config.omega_o * index)

    def run(self, plant, iterations):
        """Run iterations closed-loop iterations; return the theta to apply next.

        Per iteration, J = plant(theta applied) and the update of one step.
        The trace records as applied the synergy that applied_theta(),
        step() or run() last returned, then the one each iteration
        computes. The state, held in locals, is stored back when the run
        ends, also when plant raises or J is not finite at iteration k:
        the loop is then as k steps leave it.
        """
        sines = self._table(iterations)  # sin(w (i + 1)) for each iteration i
        start = done = self.iteration
        alpha, a, (lo, hi) = self._alpha, self.config.dither_amplitude, self.config.bounds
        isfinite = math.isfinite
        hp_y, prev_j = self._hp_y, self._prev_j
        theta_hat, theta = self.theta_hat, self._theta_applied
        _, put_theta, put_hat, put_j, put_filtered, *_ = [
            column.append for column in self.columns]
        try:
            for i in range(start, start + iterations):
                j = float(plant(theta))
                if not isfinite(j):
                    raise ValueError(SENSOR_FAULT)
                if prev_j is None:
                    hp_y = 0.0  # start at the washout steady state
                else:
                    hp_y = alpha * (hp_y + j - prev_j)
                prev_j = j
                if a > 0:  # no excitation, no update
                    theta_hat += GAIN * (sines[i] * hp_y)  # demodulate, integrate
                    # the clamps, inline: min(max(x, lo), hi)
                    if lo > theta_hat:
                        theta_hat = lo
                    if hi < theta_hat:
                        theta_hat = hi
                put_theta(theta)
                put_hat(theta_hat)
                put_j(j)
                put_filtered(hp_y)
                theta = theta_hat + a * sines[i + 1]
                if lo > theta:
                    theta = lo
                if hi < theta:
                    theta = hi
                done = i + 1
        finally:
            self._hp_y, self._prev_j, self.theta_hat = hp_y, prev_j, theta_hat
            self.iteration, self._theta_applied = done, theta
            # once per run, the columns no iteration computes (grad/curv: n/a)
            n, columns = done - start, self.columns
            columns.iteration.extend(range(start, done))
            columns.grad_est.extend([math.nan] * n)
            columns.curv_est.extend([math.nan] * n)
            columns.branch.extend([""] * n)
        return theta
