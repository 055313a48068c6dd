"""
Gradient and curvature estimator calibration
============================================

Freezes the synergy estimate on a static quadratic plant and watches the
demodulated derivative estimates lock onto the analytic values.
"""

import os

import numpy as np

from synergy_es.personalizer import Personalizer
from synergy_es.subject import LAMBDA_A, PreferenceMap, static_subject
from synergy_es.svgplot import line_plot

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

pmap = PreferenceMap(LAMBDA_A)
frozen = 1.0
want_grad, want_curv = pmap.derivatives(frozen)

loop = Personalizer()
subj = static_subject(pmap, steady_at=frozen)
grads, curvs = [], []
for _ in range(140):
    loop.theta_hat = frozen
    theta = loop.applied_theta()
    j = subj.step(theta)
    loop.step(j)
    loop.theta_hat = frozen
    grads.append(loop.records[-1].grad_est)
    curvs.append(loop.records[-1].curv_est)

grads = np.array(grads)
curvs = np.array(curvs)
ma = lambda a: np.array([np.mean(a[max(0, i - 7):i + 1])
                         for i in range(len(a))])
g_ma, c_ma = ma(grads), ma(curvs)
iters = np.arange(len(grads))

print(f"analytic gradient {want_grad:.2f}; estimate at 40: {g_ma[39]:.2f}, "
      f"at 100: {g_ma[99]:.2f}")
print(f"analytic curvature {want_curv:.2f}; estimate at 72: {c_ma[71]:.2f}, "
      f"at 100: {c_ma[99]:.2f}")

line_plot(os.path.join(OUT, "estimator_gradient.svg"),
          [("estimate (period mean)", iters, g_ma),
           ("analytic", iters, np.full_like(g_ma, want_grad))],
          title=f"gradient estimate, frozen synergy {frozen}",
          xlabel="iteration", ylabel="du/dtheta")
line_plot(os.path.join(OUT, "estimator_curvature.svg"),
          [("estimate (period mean)", iters, c_ma),
           ("analytic", iters, np.full_like(c_ma, want_curv))],
          title=f"curvature estimate, frozen synergy {frozen}",
          xlabel="iteration", ylabel="d2u/dtheta2")
