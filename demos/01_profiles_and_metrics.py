#!/usr/bin/env python3
"""Tour of the two testbed geometries and their exact coefficient fields.

Builds a warped torus and a bent waveguide and samples the dual metric
coefficients and volume density of the thin-fibre family.
"""

import numpy as np

from fibrelab import (
    PeriodicProfile,
    WarpedTorusGeometry,
    WaveguideGeometry,
    metric_sample,
)

TWO_PI = 2.0 * np.pi

print("=== warped torus: fibre circles of length 2*pi*exp(0.3 cos s) ===")
torus = WarpedTorusGeometry(
    half_length=np.pi,
    fiber_length=TWO_PI,
    warp=PeriodicProfile(period=TWO_PI, cos_amps=(0.3,)),
    warp_is_exp=True,
)
for eps in (0.5, 0.1):
    m = metric_sample(torus, eps, 0.0, 0.0)
    print(f"eps={eps}: g^ss={m.g_ss_inv:.4f}  g^tt={m.g_ff_inv:.4f}  "
          f"sqrt(det)={m.sqrt_det:.4f}")
print(f"fibre volume at s=0:    {torus.fiber_volume(0.0):.6f}")
print(f"fibre volume at s=pi:   {torus.fiber_volume(np.pi):.6f}")
print(f"base effective potential at s=0: {torus.effective_potential(0.0):.6f} "
      "(= -0.15 exactly)")

print()
print("=== bent waveguide: strip of half-width eps along a closed curve ===")
guide = WaveguideGeometry(
    base_length=TWO_PI,
    curvature=PeriodicProfile(period=TWO_PI, constant=1.0, cos_amps=(0.5,)),
)
eps = 0.2
print(f"curvature range: [{guide.curvature.lower_bound}, {guide.curvature.max_abs_bound}]")
print(f"tube condition at eps={eps}: eps*max|kappa| = {eps * guide.curvature_bound:.3f} < 1")
for u in (-1.0, 0.0, 1.0):
    m = metric_sample(guide, eps, 0.0, u)
    print(f"u={u:+.0f}: g^ss={m.g_ss_inv:.5f}  density={m.sqrt_det * eps:.4f}/eps")

