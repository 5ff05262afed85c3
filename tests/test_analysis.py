import numpy as np
import pytest

import frameflow as ff
from frameflow.errors import OutOfRangeError, TraceNotNormalizedError, ZeroStateError

from conftest import random_er_graph


def c_n(n, self_loops=False):
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=n, self_loops=self_loops))
    lap = ff.normalized_laplacian(g)
    return g, ff.normalized_adjacency(g), lap, ff.eigh(lap)


# ---------------------------------------------------------------------------
# Normalized Dirichlet energy
# ---------------------------------------------------------------------------


def test_normalized_dirichlet_kernel_is_zero():
    g, _, lap, _ = c_n(5)
    assert ff.normalized_dirichlet(lap, np.sqrt(g.degrees().astype(float))) <= 1e-12


def test_normalized_dirichlet_top_eigenvector_hits_half_rho():
    _, _, lap, spec = c_n(4)
    assert ff.normalized_dirichlet(lap, spec.u[-1]) == pytest.approx(1.0, abs=1e-10)


def test_normalized_dirichlet_two_node_alternating():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    lap = ff.normalized_laplacian(g)
    assert ff.normalized_dirichlet(lap, np.array([1.0, -1.0])) == pytest.approx(0.5, abs=1e-12)


def test_normalized_dirichlet_zero_state_rejected():
    _, _, lap, _ = c_n(4)
    with pytest.raises(ZeroStateError):
        ff.normalized_dirichlet(lap, np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Gain families
# ---------------------------------------------------------------------------


def test_spatial_gain_at_zero_frequency():
    for lw in (-10.0, 0.0, 0.5, 7.0):
        for scales in (1, 2):
            assert ff.amplification_spatial(0.0, lw, scales) == pytest.approx(1.0, abs=1e-15)


def test_spatial_gain_unit_weight_is_one_minus_lambda():
    grid = np.linspace(0.0, 2.0, 200)
    for scales in (1, 2):
        np.testing.assert_allclose(
            ff.amplification_spatial(grid, 1.0, scales), 1.0 - grid, atol=1e-14
        )


def test_spatial_gain_large_weight_top_frequency():
    assert abs(ff.amplification_spatial(2.0, 100.0, 1)) == pytest.approx(7.0597, abs=2e-4)


def test_spatial_gain_paper_literal_variant_differs():
    tight = ff.amplification_spatial(1.5, 3.0, 2, "tight")
    literal = ff.amplification_spatial(1.5, 3.0, 2, "paper_literal")
    assert tight != literal


def test_spectral_gain_values_and_range_checks():
    assert ff.amplification_spectral(1.7, 1.0) == 1.0
    assert ff.amplification_spectral(2.0, 0.0) == pytest.approx(0.9387913, abs=1e-7)
    assert ff.amplification_spectral(2.0, 4.0) == pytest.approx(1.1836261, abs=1e-7)
    with pytest.raises(OutOfRangeError):
        ff.amplification_spectral(1.0, -0.5)
    with pytest.raises(OutOfRangeError):
        ff.amplification_spectral(2.5, 1.0)


@pytest.mark.parametrize(
    "theta,direction",
    [(4.0, 1), (0.25, -1), (1.0, 0)],
)
def test_spectral_gain_monotone_structure(theta, direction):
    grid = np.linspace(0.0, 2.0, 1000)
    values = ff.amplification_spectral(grid, theta)
    diffs = np.diff(values)
    if direction == 1:
        assert np.all(diffs > 0)
    elif direction == -1:
        assert np.all(diffs < 0)
    else:
        np.testing.assert_allclose(values, 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Dominant-frequency prediction
# ---------------------------------------------------------------------------


def test_prediction_small_weight_is_low_frequency():
    for n in (4, 6, 9):
        _, _, _, spec = c_n(n)
        pred = ff.dominant_frequency(spec, ff.AmplificationFamily("spatial", 0.5, 1))
        assert pred.dominance == ff.LFD and pred.lambda_star <= 1e-9


def test_prediction_large_weight_on_bipartite_cycle():
    _, _, _, spec = c_n(4)
    pred = ff.dominant_frequency(spec, ff.AmplificationFamily("spatial", 100.0, 1))
    assert pred.dominance == ff.HFD
    assert pred.lambda_star == pytest.approx(2.0, abs=1e-9)
    assert pred.margin >= 0.01


def test_prediction_degenerate_top_frequency_one():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    spec = ff.eigh(ff.normalized_laplacian(g))
    pred = ff.dominant_frequency(spec, ff.AmplificationFamily("spatial", 100.0, 1))
    assert pred.dominance == ff.LFD
    top_gain = pred.gains[max(pred.gains)]
    assert top_gain == pytest.approx(0.0, abs=1e-12)


def test_prediction_unit_weight_ties_on_bipartite():
    _, _, _, spec = c_n(6)
    pred = ff.dominant_frequency(spec, ff.AmplificationFamily("spatial", 1.0, 1))
    assert pred.dominance == ff.MIXED
    assert pred.margin <= 1e-9


def test_prediction_spectral_family():
    _, _, _, spec = c_n(6)
    up = ff.dominant_frequency(spec, ff.AmplificationFamily("spectral", 4.0, 1))
    down = ff.dominant_frequency(spec, ff.AmplificationFamily("spectral", 0.25, 1))
    flat = ff.dominant_frequency(spec, ff.AmplificationFamily("spectral", 1.0, 1))
    assert up.dominance == ff.HFD
    assert down.dominance == ff.LFD
    assert flat.dominance == ff.MIXED and flat.margin <= 1e-9


def test_prediction_perturbed_family_always_low(rng):
    g = random_er_graph(rng, 10)
    spec = ff.eigh(ff.normalized_laplacian(g))
    for eps in (0.1, 1.0, 10.0):
        pred = ff.dominant_frequency(spec, ff.AmplificationFamily("perturbed", epsilon=eps))
        assert pred.dominance == ff.LFD


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def test_top_projection_fixes_top_eigenvector():
    _, _, _, spec = c_n(6)
    v = spec.u[-1]
    np.testing.assert_allclose(ff.hfd_projection(spec, v), v, atol=1e-12)


def test_top_projection_kills_kernel_vector():
    g, _, _, spec = c_n(6)
    v = np.sqrt(g.degrees().astype(float))
    np.testing.assert_allclose(ff.hfd_projection(spec, v), 0.0, atol=1e-10)


def test_projection_pythagoras(rng):
    _, _, _, spec = c_n(4)
    h = rng.standard_normal((4, 3))
    p = ff.hfd_projection(spec, h)
    assert np.linalg.norm(p) ** 2 + np.linalg.norm(h - p) ** 2 == pytest.approx(
        np.linalg.norm(h) ** 2, abs=1e-10
    )


def test_top_projection_handles_multiplicity():
    g = ff.generate_graph(ff.GraphSpec(kind="complete_bipartite", m=2, n=2))
    spec = ff.eigh(ff.normalized_laplacian(g))
    h = np.arange(8.0).reshape(4, 2)
    p = ff.hfd_projection(spec, h)
    np.testing.assert_allclose(ff.hfd_projection(spec, p), p, atol=1e-10)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def run_scalar_flow(lambda_w, scales=1, steps=50000, self_loops=False, channels=2):
    g, ahat, lap, spec = c_n(6, self_loops=self_loops)
    sys = ff.build_framelet_system(spec, scales)
    h0 = np.random.default_rng(11).standard_normal((6, channels))
    cfg = ff.WeightConfig.scalar(scales, lambda_w, channels, tau=1.0)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=True), sys, ahat, lap, h0, cfg,
        ff.StopRule(max_steps=steps),
    )
    return trace, spec


def test_classification_high_frequency_run():
    trace, spec = run_scalar_flow(10.0)
    verdict = ff.classify_dominance(trace, spec)
    assert verdict.dominance == ff.HFD
    assert verdict.limit_value == pytest.approx(1.0, abs=1e-3)
    assert verdict.residual <= 1e-3
    cosine = np.sqrt(max(0.0, 1.0 - verdict.residual**2))
    assert cosine >= 1.0 - 1e-6


def test_classification_low_frequency_run():
    trace, spec = run_scalar_flow(0.5)
    verdict = ff.classify_dominance(trace, spec)
    assert verdict.dominance == ff.LFD and verdict.limit_value <= 1e-6


def test_classification_requires_renormalized_trace():
    g, ahat, lap, spec = c_n(6)
    sys = ff.build_framelet_system(spec, 1)
    cfg = ff.WeightConfig.scalar(1, 0.5, 1)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=False), sys, ahat, lap,
        np.ones((6, 1)), cfg, ff.StopRule(max_steps=5),
    )
    with pytest.raises(TraceNotNormalizedError):
        ff.classify_dominance(trace, spec)


def test_zero_step_trace_undecided():
    _, _, _, spec = c_n(4)
    trace = ff.FlowTrace(
        scheme=ff.Scheme("spatial_framelet", renormalize=True),
        steps=np.array([0]),
        norms=np.array([1.0]),
        dirichlet_normalized=np.array([0.3]),
        total_energy=np.array([0.3]),
        rayleigh=np.array([0.6]),
        final_state=np.ones((4, 1)),
        renormalized=True,
        plateaued=False,
        steps_to_plateau=None,
    )
    verdict = ff.classify_dominance(trace, spec)
    assert verdict.dominance == ff.UNDECIDED


def test_prediction_and_simulation_agree_on_scalar_family():
    _, _, _, spec = c_n(6)
    for lambda_w, expected in ((0.5, ff.LFD), (-0.5, ff.LFD), (2.0, ff.HFD), (10.0, ff.HFD)):
        pred = ff.dominant_frequency(spec, ff.AmplificationFamily("spatial", lambda_w, 1))
        assert pred.dominance == expected and pred.margin >= 0.01
        trace, _ = run_scalar_flow(lambda_w)
        verdict = ff.classify_dominance(trace, spec, prediction=pred)
        assert verdict.dominance == expected
        assert verdict.predicted == expected
        assert verdict.dominant_lambda == pred.lambda_star


def test_lfd_limit_lands_in_kernel():
    trace, spec = run_scalar_flow(0.5)
    final = trace.final_state
    proj = ff.kernel_projection(spec, final)
    cosine = float(np.sum(final * proj)) / (np.linalg.norm(final) * np.linalg.norm(proj))
    assert cosine >= 1.0 - 1e-6
