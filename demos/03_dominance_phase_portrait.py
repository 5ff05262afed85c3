#!/usr/bin/env python3
"""Phase portrait of the scalar-weight and spectral-filter families on a cycle.

For each parameter value we (a) run the renormalized iteration until the
normalized Dirichlet energy plateaus, and (b) predict the limiting behavior
from the per-frequency gains rho(M_i) of one step, which the run records on
the actual spectrum (``trace.gains``).  LFD
means the state collapsed onto the constant-like kernel (energy -> 0); HFD
means it collapsed onto the top-frequency eigenspace (energy -> rho_L/2).

The 6-cycle has top frequency exactly 2, so the unit-weight column is the
degenerate knife edge: frequencies 0 and 2 tie at |gain| = 1 and the limit
is a seed-dependent mixture -- visible below as MIXED.
"""

import numpy as np

import frameflow as ff

graph = ff.generate_graph(ff.GraphSpec(kind="cycle", n=6))
ahat = ff.normalized_adjacency(graph)
lap = ff.normalized_laplacian(graph)
spectrum = ff.eigh(lap)
sys = ff.build_framelet_system(spectrum, 1)
h0 = np.random.default_rng(5).standard_normal((6, 2))
stop = ff.StopRule(max_steps=50_000)

print("6-cycle, frequencies", np.round(spectrum.eigenvalues, 3), "\n")
print("scalar-weight convolution family (low-pass weight 1, high-pass weight v):")
print(f"{'v':>8} | {'predicted':>9} {'margin':>7} | {'measured':>9} {'limit':>12} {'steps':>6}")
for v in (-40.0, -10.0, -0.5, 0.5, 1.0, 2.0, 10.0):
    cfg = ff.WeightConfig.scalar(1, v, tau=1.0)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=True), sys, h0, cfg, stop
    )
    pred = ff.dominant_frequency(spectrum, trace.gains)
    verdict = ff.classify_dominance(trace, spectrum, prediction=pred)
    print(f"{v:>8} | {pred.dominance:>9} {pred.margin:>7.3f} | "
          f"{verdict.dominance:>9} {verdict.limit_value:>12.3e} {trace.steps_run:>6}")

print("\nnote the sign asymmetry: -10 smooths while +10 separates, because the")
print("low-pass response partially cancels a negative high-pass weight; the")
print("negative branch flips to HFD only past |v| ~ 31.7 on this graph.\n")

print("uniform spectral-filter family (low band coefficient 1, high band theta):")
print(f"{'theta':>8} | {'predicted':>9} {'margin':>7} | {'measured':>9} {'limit':>12} {'steps':>6}")
for theta in (0.0, 0.25, 1.0, 2.0, 4.0):
    theta_map = {b: np.full(6, 1.0 if b[0] == 0 else theta) for b in sys.bands}
    cfg = ff.WeightConfig.shared(1, np.eye(2), np.eye(2), theta=theta_map, tau=1.0)
    trace = ff.run_flow(
        ff.Scheme("spectral_framelet", renormalize=True), sys, h0, cfg, stop
    )
    pred = ff.dominant_frequency(spectrum, trace.gains)
    verdict = ff.classify_dominance(trace, spectrum, prediction=pred)
    print(f"{theta:>8} | {pred.dominance:>9} {pred.margin:>7.3f} | "
          f"{verdict.dominance:>9} {verdict.limit_value:>12.3e} {trace.steps_run:>6}")

print("\ntheta = 1 leaves every frequency with gain exactly 1: the iteration is")
print("the identity map, the trace plateaus at its initial energy, and the")
print("prediction reports a zero-margin tie (flagged MIXED).")
