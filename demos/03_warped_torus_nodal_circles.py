#!/usr/bin/env python3
"""Nodal circles of a warped torus and the graph-over-fibre structure.

Solves the full problem for a two-harmonic warp whose first excited base
mode is simple, tensors the predicted eigenfunction, extracts the nodal
set of the computed one, and verifies that it consists of one fibre-like
circle per zero of the base eigenfunction.  Also demonstrates the exact
pairing of excited levels for a single-harmonic warp, which is why the
two-harmonic profile is the interesting testbed.
"""

import numpy as np

from fibrelab import (
    DegenerateEffectiveEigenvalue,
    GridSpec,
    PeriodicProfile,
    SolveConfig,
    WarpedTorusGeometry,
    assemble_effective,
    assemble_full,
    build_prediction,
    extract_nodal_set,
    field_from_operator,
    measure_discrepancy,
    nodal_set_to_csv,
    smallest_eigenpairs,
)

TWO_PI = 2.0 * np.pi
grid = GridSpec(64, 64, 4)
eps = 0.05

print("=== single-harmonic warp: excited base levels are exactly paired ===")
single = WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, cos_amps=(0.3,)),
                             warp_is_exp=True)
eff = assemble_effective(single, GridSpec(128, 64, 4))
mu = smallest_eigenpairs(eff.operator, SolveConfig(k=3)).values
print(f"mu_1 = {mu[1]:.12f}, mu_2 = {mu[2]:.12f}, split = {mu[2] - mu[1]:.2e}")
try:
    build_prediction(eff, 1)
except DegenerateEffectiveEigenvalue as exc:
    print(f"mode 1 request correctly rejected: {exc}")

print()
print("=== two-harmonic warp: simple first excited mode ===")
geom = WarpedTorusGeometry(np.pi, TWO_PI, PeriodicProfile(TWO_PI, cos_amps=(0.3, 0.15)),
                           warp_is_exp=True)
eff = assemble_effective(geom, grid)
op = assemble_full(geom, eps, grid)
pairs = smallest_eigenpairs(op, SolveConfig(k=4, shift=-4 * eps * eps))
pred = build_prediction(eff, 1)
rec = measure_discrepancy(op, pairs, pred)

print(f"effective eigenvalue mu_1 = {pred.mu:.8f}")
print(f"zeros of the base eigenfunction: {[f'{z:.4f}' for z, _ in pred.zeros]}")
print(f"rescaled eigenvalue gap: {rec.eig_gap:.3e} (exact correspondence; "
      "this is the discretization floor)")
print(f"sup-norm deviation from the tensor prediction: {rec.supnorm:.3e}")
print(f"nodal components: {rec.nodal.component_count}, "
      f"nodal domains: {rec.nodal.domain_count}")
print(f"graph-over-fibre check: {rec.nodal.graph_over_fiber} "
      f"(tube radius {rec.tube_radius:.4f})")

nodal = extract_nodal_set(field_from_operator(op, pairs.vectors[:, 1]))
csv_text = nodal_set_to_csv(nodal)
print(f"nodal CSV: {len(csv_text.splitlines()) - 1} segments; first row: "
      f"{csv_text.splitlines()[1]}")
