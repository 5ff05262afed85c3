#!/usr/bin/env python3
"""Energy bookkeeping: conservation across bands and the particle breakdown.

Three facts, demonstrated numerically:

1. The Dirichlet energy of a signal equals the sum of the Dirichlet energies
   of its framelet coefficients (tight bank).
2. With one shared (Omega, W) pair on every band, the total framelet energy
   collapses to the plain generalized energy, and identity weights recover
   the Dirichlet energy itself.
3. Each band's energy splits into an external part plus attraction minus
   repulsion along graph gradients, driven by the positive/negative spectrum
   of that band's weight matrix.
"""

import numpy as np

import frameflow as ff

rng = np.random.default_rng(7)

graph = ff.generate_graph(ff.GraphSpec(kind="sbm", sizes=(6, 6), p_in=0.7, p_out=0.15, seed=3))
ahat = ff.normalized_adjacency(graph)
lap = ff.normalized_laplacian(graph)
sys = ff.build_framelet_system(ff.eigh(lap), 2)
h = rng.standard_normal((graph.n, 3))

print("graph: two-block SBM (6+6, p_in=0.7, p_out=0.15); signal: 12x3 gaussian\n")

per_band, total = ff.framelet_dirichlet_energies(sys, h)
print("1) conservation across bands")
print("   E(H) on the graph      =", f"{ff.dirichlet_energy(lap, h):.10f}")
for band, value in per_band.items():
    print(f"   band {band} contributes  = {value:.10f}")
print("   sum over bands         =", f"{total:.10f}\n")

omega = np.diag([1.0, 2.0, 0.5])
w = np.array([[0.5, 0.2, 0.0], [0.2, -0.3, 0.1], [0.0, 0.1, 1.2]])
shared = ff.WeightConfig.shared(2, omega, w)
print("2) shared weights collapse the band structure")
print("   total framelet energy  =", f"{ff.total_framelet_energy(sys, h, shared):.10f}")
print("   plain generalized      =", f"{ff.generalized_energy(ahat, h, omega, w):.10f}")
eye = np.eye(3)
identity = ff.WeightConfig.shared(2, eye, eye)
print("   identity weights       =",
      f"{ff.total_framelet_energy(sys, h, identity):.10f}",
      "(the Dirichlet energy again)\n")

print("3) particle breakdown (external + attraction - repulsion per band)")
mixed = ff.WeightConfig.shared(2, eye, np.diag([1.5, -0.8, 0.2]))
plus, minus = ff.weight_split(np.diag([1.5, -0.8, 0.2]))
print("   weight spectrum has positive part", np.round(np.diag(plus.T @ plus), 3),
      "and negative part", np.round(np.diag(minus.T @ minus), 3))
breakdown = ff.particle_decomposition(sys, graph, h, mixed)
grand_total = 0.0
for band, parts in breakdown.items():
    print(f"   band {band}: external {parts.external:+.6f}  attraction {parts.attraction:.6f}"
          f"  repulsion {parts.repulsion:.6f}  -> total {parts.total:+.6f}")
    grand_total += parts.total
print("   grand total            =", f"{grand_total:.10f}")
print("   total framelet energy  =", f"{ff.total_framelet_energy(sys, h, mixed):.10f}")
