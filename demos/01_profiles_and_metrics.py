#!/usr/bin/env python3
"""Tour of the two testbed geometries and their exact coefficient fields.

Builds a warped torus and a bent waveguide and prints the divergence-form
coefficients of the thin-fibre family, sqrt(det g) g^ss, sqrt(det g) g^ff
and sqrt(det g): the arrays the assembler reads.
"""

import numpy as np

from fibrelab import (
    PeriodicProfile,
    WarpedTorusGeometry,
    WaveguideGeometry,
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
    c_s, c_t, sqrt_det = torus.metric_coefficients(eps, 0.0)
    print(f"eps={eps} at s=0: sqrt(det) g^ss={c_s:.4f}  sqrt(det) g^tt={c_t:.4f}  "
          f"sqrt(det)={sqrt_det:.4f}")
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
u = np.array([-1.0, 0.0, 1.0])
c_s, c_u, sqrt_det = (c[0] for c in guide.metric_coefficients(eps, 0.0, u))
print(f"at s=0, u = {u}:")
print(f"  sqrt(det) g^ss = eps/rho: {np.array2string(c_s, precision=5)}")
print(f"  sqrt(det) g^uu = rho/eps: {np.array2string(c_u, precision=4)}")
print(f"  sqrt(det)      = rho/eps: {np.array2string(sqrt_det, precision=4)}")

