"""
Kinematic reaching plant
========================

Sweeps the synergy through the two-link reaching simulation, showing the
speed/accuracy trade-off the objective encodes, and exports a hand path.
"""

import os

import numpy as np

from synergy_es.plant import (default_geometry, default_profile, default_task,
                              export_hand_path, objective, simulate_reach)
from synergy_es.svgplot import line_plot

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

geom = default_geometry()
prof = default_profile()
task = default_task(geom, prof)
print(f"targets {np.round(task.start_target, 1)} -> "
      f"{np.round(task.end_target, 1)} (23 cm apart)")

############################################################
# Performance across the synergy range: an interior optimum.

thetas = np.arange(0.8, 2.4 + 1e-9, 0.02)
errs, js = [], []
for th in thetas:
    out = simulate_reach(geom, task, th, prof)
    errs.append(out.end_error_cm)
    js.append(objective(out))
best = thetas[int(np.argmax(js))]
print(f"best synergy {best:.2f}: end error "
      f"{errs[int(np.argmax(js))]:.2f} cm, J = {max(js):.1f}")

line_plot(os.path.join(OUT, "plant_objective.svg"),
          [("J", thetas, np.array(js))],
          title="reach objective across synergy",
          xlabel="synergy", ylabel="J")
line_plot(os.path.join(OUT, "plant_end_error.svg"),
          [("end error (cm)", thetas, np.array(errs))],
          title="end-point error across synergy",
          xlabel="synergy", ylabel="cm")

############################################################
# Hand paths at a low, the best, and a high synergy.

series = []
for th in (0.9, best, 2.3):
    out = simulate_reach(geom, task, th, prof)
    series.append((f"theta={th:.2f}", out.hand_path[:, 1], out.hand_path[:, 2]))
    print(f"theta {th:.2f}: error {out.end_error_cm:5.2f} cm, "
          f"t_f {out.completion_time_s:.2f} s, completed={out.completed}")
line_plot(os.path.join(OUT, "plant_hand_paths.svg"), series,
          title="sagittal hand paths", xlabel="forward (cm)", ylabel="up (cm)")

out = simulate_reach(geom, task, best, prof)
export_hand_path(out.hand_path, os.path.join(OUT, "hand_path_best.csv"))
print("wrote", os.path.join("out", "hand_path_best.csv"))
