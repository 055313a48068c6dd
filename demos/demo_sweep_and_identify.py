"""
Synergy sweep and model identification
======================================

Drives the linear synergy sweep (0.8 + i/125) through a noisy simulated
subject, then re-identifies the map, the learning LTI, and the residual
noise from the recorded data.
"""

import os

import numpy as np

from synergy_es import ExperimentConfig, run_episode
from synergy_es.subject import subject_a
from synergy_es.svgplot import line_plot
from synergy_es.sysid import identify_from_records

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

############################################################
# Sweep the synergy linearly and record performance.

cfg = ExperimentConfig(subject="A", algorithm="sweep", seeds=(0,))
trace = run_episode(cfg)
thetas = trace.column("theta_applied")
js = trace.column("J")
print(f"sweep: {len(js)} iterations, theta {thetas[0]:.2f} -> {thetas[-1]:.2f}")

base = run_episode(ExperimentConfig(subject="A", algorithm="sweep",
                                    noise_std=0.0))
line_plot(os.path.join(OUT, "sweep_subject_a.svg"),
          [("measured", thetas, js),
           ("noise-free", base.column("theta_applied"), base.column("J"))],
          title="synergy sweep, subject A",
          xlabel="synergy", ylabel="J")

############################################################
# Identify the grey-box model back from the sweep record.

pref, dyn, mse, resid, report = identify_from_records(thetas, js)
print("identified map coefficients:", np.round(pref.lam, 2))
print(f"map optimum: {pref.optimum():.4f} "
      f"(true subject optimum {subject_a().optimum():.4f})")
print(f"LTI order {dyn.order}, steady-state gain {dyn.steady_state_gain():.4f}, "
      f"one-step mse {mse:.2f}")
if report is not None:
    print(f"whiteness: max autocorr {report.max_normalized_autocorr:.3f} "
          f"vs threshold {report.threshold:.3f} -> passed={report.passed}")
    print(f"residual mean {report.residual_mean:.2f}, "
          f"std {report.residual_std:.2f}")
