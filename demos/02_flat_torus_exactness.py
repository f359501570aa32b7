#!/usr/bin/env python3
"""Exactness on the flat torus: the discrete spectrum is a tensor sum.

With a constant warp the full operator separates, so its generalized
eigenvalues are exactly eps^2 * (base symbol) + (fibre symbol) of the 1D
discrete operators, and the fibre-constant modes reproduce the effective
base spectrum after rescaling by eps^-2.
"""

import numpy as np

from fibrelab import (
    GridSpec,
    PeriodicProfile,
    SolveConfig,
    WarpedTorusGeometry,
    assemble_effective,
    assemble_full,
    smallest_eigenpairs,
)
from fibrelab.operators import staggered_diff_periodic

TWO_PI = 2.0 * np.pi
N = 64

geom = WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, 1.0))
grid = GridSpec(N, N, 2)

h = TWO_PI / N
d = staggered_diff_periodic(N, h, 2)
symbols = np.sort(np.linalg.eigvalsh((d.T @ d).toarray()))
print(f"1D periodic symbols (first four): {symbols[:4]}")

for eps in (0.5, 0.25):
    op = assemble_full(geom, eps, grid)
    pairs = smallest_eigenpairs(op, SolveConfig(k=8, shift=-4 * eps * eps))
    tensor = np.sort((eps**2 * symbols[:, None] + symbols[None, :]).ravel())[:8]
    worst = np.max(np.abs(pairs.values - tensor))
    print(f"eps={eps}: max |computed - tensor sum| = {worst:.3e}")

eff = assemble_effective(geom, grid)
mu = smallest_eigenpairs(eff.operator, SolveConfig(k=3)).values
op = assemble_full(geom, 0.5, grid)
pairs = smallest_eigenpairs(op, SolveConfig(k=4, shift=-1.0))
rescaled = pairs.values[[0, 1, 2]] / 0.25
print(f"rescaled fibre-constant modes: {rescaled}")
print(f"effective base eigenvalues:    {mu}")
print(f"agreement: {np.max(np.abs(rescaled - mu)):.3e}")
