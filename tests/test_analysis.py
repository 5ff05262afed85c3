import numpy as np
import pytest
from hypothesis import event, assume, given, settings, strategies as st

import frameflow as ff
from frameflow import cli
from frameflow.errors import OutOfRangeError, TraceNotNormalizedError, ZeroStateError

from conftest import random_er_graph, random_symmetric


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


def test_limit_dominance_rejects_a_zero_state():
    _, _, _, spec = c_n(4)
    with pytest.raises(ZeroStateError):
        ff.analysis.limit_dominance(True, 0.0, spec.rho_l, 1e-6, spec, np.zeros((4, 2)))


@pytest.mark.parametrize("shape", [(8,), (8, 2)])
def test_limit_dominance_reads_a_vertex_state(rng, shape):
    """limit_dominance takes the final state on the vertices: its HFD residual
    is the relative distance to hfd_projection, positional or by keyword, and
    classify_dominance reads the same residual off a trace's spectral state."""
    _, _, _, spec = c_n(8)
    top = spec.u[-1] if len(shape) == 1 else np.repeat(spec.u[-1][:, None], shape[1], axis=1)
    for scale, expected in ((1e-4, ff.HFD), (1e-1, ff.MIXED)):
        x = top + scale * rng.standard_normal(shape)
        residual = np.linalg.norm(x - ff.analysis.hfd_projection(spec, x)) / np.linalg.norm(x)
        assert 0.0 < residual
        for verdict in (ff.analysis.limit_dominance(True, 1.0, spec.rho_l, 1e-6, spec, x),
                        ff.analysis.limit_dominance(True, 1.0, spec.rho_l, 1e-6, spectrum=spec, state=x)):
            assert verdict[0] == expected
            if expected == ff.HFD:
                assert verdict[1] == pytest.approx(residual, rel=1e-10)
    x = (top + 1e-4 * rng.standard_normal(shape)).reshape(8, -1)
    trace = ff.FlowTrace(
        scheme=ff.Scheme("spatial_framelet", renormalize=True),
        norms=np.array([1.0, 1.0]),
        dirichlet_normalized=np.array([1.0, 1.0]),
        total_energy=np.array([0.3, 0.3]),
        final_coefficients=spec.u @ x,
        basis=spec.u,
        steps_to_plateau=1,
    )
    np.testing.assert_allclose(trace.final_state, x, atol=1e-14)
    verdict = ff.classify_dominance(trace, spec, 1e-6)
    assert verdict.dominance == ff.HFD
    assert verdict.residual == pytest.approx(
        ff.analysis.limit_dominance(True, 1.0, spec.rho_l, 1e-6, spec, x)[1], rel=1e-10
    )


def test_normalized_dirichlet_zero_state_rejected():
    _, _, lap, _ = c_n(4)
    with pytest.raises(ZeroStateError):
        ff.normalized_dirichlet(lap, np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Per-frequency gains of one step
# ---------------------------------------------------------------------------


def scalar_gains(spec, ahat, kind, lambda_w=1.0, scales=1, variant="tight", theta=None, **knobs):
    """ff.scheme_gains for scalar weights on one channel; ``theta`` is the
    high-pass filter coefficient (the low-pass one is 1)."""
    sys = ff.build_framelet_system(spec, scales, variant)
    thetas = None if theta is None else {
        b: np.full(spec.n, 1.0 if b[0] == 0 else theta) for b in sys.bands
    }
    cfg = ff.WeightConfig.scalar(scales, lambda_w, theta=thetas, **knobs)
    return ff.scheme_gains(ff.Scheme(kind), sys, cfg)


def gains_at(lams, kind, **kwargs):
    """Gains at the frequencies ``lams`` (ascending): the spectrum of diag(lams)."""
    lap = np.diag(np.asarray(lams, dtype=float))
    return scalar_gains(ff.eigh(lap), np.eye(len(lams)) - lap, kind, **kwargs)


def test_spatial_gain_at_zero_frequency():
    for lw in (-10.0, 0.0, 0.5, 7.0):
        for scales in (1, 2):
            gain = gains_at([0.0], "spatial_framelet", lambda_w=lw, scales=scales)[0]
            assert gain == pytest.approx(1.0, abs=1e-15)


def test_spatial_gain_unit_weight_is_one_minus_lambda():
    grid = np.linspace(0.0, 2.0, 200)
    for scales in (1, 2):
        np.testing.assert_allclose(
            gains_at(grid, "spatial_framelet", scales=scales), np.abs(1.0 - grid), atol=1e-14
        )


def test_spatial_gain_large_weight_top_frequency():
    gain = gains_at([2.0], "spatial_framelet", lambda_w=100.0)[0]
    assert gain == pytest.approx(7.0597, abs=2e-4)


def test_spatial_gain_paper_literal_variant_differs():
    tight = gains_at([1.5], "spatial_framelet", lambda_w=3.0, scales=2, variant="tight")
    literal = gains_at([1.5], "spatial_framelet", lambda_w=3.0, scales=2, variant="paper_literal")
    assert tight[0] != literal[0]


def test_spectral_gain_values_and_range_checks():
    assert gains_at([1.7], "spectral_framelet", theta=1.0)[0] == 1.0
    assert gains_at([2.0], "spectral_framelet", theta=0.0)[0] == pytest.approx(0.9387913, abs=1e-7)
    assert gains_at([2.0], "spectral_framelet", theta=4.0)[0] == pytest.approx(1.1836261, abs=1e-7)
    cfg = {
        "graph": {"kind": "cycle", "n": 6},
        "scheme": {"kind": "spectral_framelet"},
        "weights": {"mode": "scalar", "lambda_w": 1.0},
        "init": {"mode": "random_normal"},
        "theta": -0.5,
    }
    with pytest.raises(OutOfRangeError):
        cli.validate_config(cfg)
    with pytest.raises(OutOfRangeError):
        gains_at([2.5], "spectral_framelet", theta=1.0)


@pytest.fixture(scope="module")
def cycle_1000():
    return c_n(1000)[3]


@pytest.mark.parametrize(
    "theta,direction",
    [(4.0, 1), (0.25, -1), (1.0, 0)],
)
def test_spectral_gain_monotone_structure(cycle_1000, theta, direction):
    gains = scalar_gains(cycle_1000, None, "spectral_framelet", theta=theta)
    per_frequency = ff.dominant_frequency(cycle_1000, gains).gains
    values = np.array([per_frequency[lam] for lam in sorted(per_frequency)])
    assert len(values) == 501  # the distinct eigenvalues of the 1000-cycle
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


def predict(spec, ahat, kind, **kwargs):
    return ff.dominant_frequency(spec, scalar_gains(spec, ahat, kind, **kwargs))


def test_prediction_small_weight_is_low_frequency():
    for n in (4, 6, 9):
        _, ahat, _, spec = c_n(n)
        pred = predict(spec, ahat, "spatial_framelet", lambda_w=0.5)
        assert pred.dominance == ff.LFD and pred.lambda_star <= 1e-9


def test_prediction_large_weight_on_bipartite_cycle():
    _, ahat, _, spec = c_n(4)
    pred = predict(spec, ahat, "spatial_framelet", lambda_w=100.0)
    assert pred.dominance == ff.HFD
    assert pred.lambda_star == pytest.approx(2.0, abs=1e-9)
    assert pred.margin >= 0.01


def test_prediction_degenerate_top_frequency_one():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    spec = ff.eigh(ff.normalized_laplacian(g))
    pred = predict(spec, ff.normalized_adjacency(g), "spatial_framelet", lambda_w=100.0)
    assert pred.dominance == ff.LFD
    top_gain = pred.gains[max(pred.gains)]
    assert top_gain == pytest.approx(0.0, abs=1e-12)


def test_prediction_unit_weight_ties_on_bipartite():
    _, ahat, _, spec = c_n(6)
    pred = predict(spec, ahat, "spatial_framelet", lambda_w=1.0)
    assert pred.dominance == ff.MIXED
    assert pred.margin <= 1e-9


def test_prediction_spectral_family():
    _, _, _, spec = c_n(6)
    up = predict(spec, None, "spectral_framelet", theta=4.0)
    down = predict(spec, None, "spectral_framelet", theta=0.25)
    flat = predict(spec, None, "spectral_framelet", theta=1.0)
    assert up.dominance == ff.HFD
    assert down.dominance == ff.LFD
    assert flat.dominance == ff.MIXED and flat.margin <= 1e-9


def test_prediction_perturbed_family_always_low(rng):
    g = random_er_graph(rng, 10)
    spec = ff.eigh(ff.normalized_laplacian(g))
    for eps in (0.1, 1.0, 10.0):
        pred = predict(spec, None, "perturbed_closed_form", scales=2, epsilon=eps)
        assert pred.dominance == ff.LFD


def test_prediction_groups_repeated_eigenvalues_by_their_largest_gain():
    _, _, _, spec = c_n(6)  # eigenvalues 0, 0.5, 0.5, 1.5, 1.5, 2
    pred = ff.dominant_frequency(spec, np.array([1.0, 0.2, 0.2, 0.2, 3.0, 0.2]))
    assert list(pred.gains.values()) == [1.0, 0.2, 3.0, 0.2]
    assert pred.dominance == ff.MIXED and pred.lambda_star == pytest.approx(1.5, abs=1e-12)
    assert pred.margin == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_prediction_ignores_the_scale_of_the_gains(scale):
    # a 1e-8 relative gap is a winner at any step size, never a tie
    _, _, _, spec = c_n(6)
    pred = ff.dominant_frequency(spec, scale * np.array([1.0, 0.5, 0.5, 0.5, 0.5, 1.0 - 1e-8]))
    assert pred.dominance == ff.LFD and pred.lambda_star <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["spatial_framelet", "gradf_ufg"]),
    mode=st.sampled_from(["shared", "full"]),
    graph=st.sampled_from(["erdos_renyi", "sbm"]),
    scales=st.sampled_from([1, 2]),
    high=st.floats(0.5, 64.0),
)
def test_random_weight_matrices_predict_the_measured_class(seed, kind, mode, graph, scales, high):
    """Shared or per-band random symmetric weights (the high-pass ones scaled
    by ``high``): whenever the best gain beats every other frequency by 5%,
    the run ends in the predicted class."""
    rng = np.random.default_rng(seed)
    g = ff.generate_graph(
        ff.GraphSpec(kind="erdos_renyi", n=14, p=0.3, seed=seed)
        if graph == "erdos_renyi"
        else ff.GraphSpec(kind="sbm", sizes=(7, 7), p_in=0.6, p_out=0.1, seed=seed)
    )
    ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    sys = ff.build_framelet_system(spec, scales)
    tau = 1.0 if kind == "spatial_framelet" else 0.2
    if mode == "shared":
        cfg = ff.WeightConfig.shared(
            scales, random_symmetric(rng, 3), random_symmetric(rng, 3), tau=tau
        )
    else:
        cfg = ff.WeightConfig(
            omega={b: random_symmetric(rng, 3) for b in sys.bands},
            w={b: random_symmetric(rng, 3, 1.0 if b[0] == 0 else high) for b in sys.bands},
            tau=tau,
        )
    trace = ff.run_flow(
        ff.Scheme(kind, renormalize=True), sys, rng.standard_normal((g.n, 3)), cfg,
        ff.StopRule(max_steps=3000),
    )
    np.testing.assert_array_equal(trace.gains, ff.scheme_gains(ff.Scheme(kind), sys, cfg))
    pred = ff.dominant_frequency(spec, trace.gains)
    assume(pred.margin > 0.05)
    event(pred.dominance)
    verdict = ff.classify_dominance(trace, spec, prediction=pred)
    assert verdict.dominance == pred.dominance


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
    cfg = ff.WeightConfig.scalar(scales, lambda_w, tau=1.0)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=True), sys, h0, cfg,
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
    cfg = ff.WeightConfig.scalar(1, 0.5)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=False), sys,
        np.ones((6, 1)), cfg, ff.StopRule(max_steps=5),
    )
    with pytest.raises(TraceNotNormalizedError):
        ff.classify_dominance(trace, spec)


def test_zero_step_trace_undecided():
    _, _, _, spec = c_n(4)
    trace = ff.FlowTrace(
        scheme=ff.Scheme("spatial_framelet", renormalize=True),
        norms=np.array([1.0]),
        dirichlet_normalized=np.array([0.3]),
        total_energy=np.array([0.3]),
        final_coefficients=np.ones((4, 1)),
        basis=spec.u,
        steps_to_plateau=None,
    )
    verdict = ff.classify_dominance(trace, spec)
    assert verdict.dominance == ff.UNDECIDED


def test_prediction_and_simulation_agree_on_scalar_family():
    _, _, _, spec = c_n(6)
    for lambda_w, expected in ((0.5, ff.LFD), (-0.5, ff.LFD), (2.0, ff.HFD), (10.0, ff.HFD)):
        trace, _ = run_scalar_flow(lambda_w)
        pred = ff.dominant_frequency(spec, trace.gains)
        assert pred.dominance == expected and pred.margin >= 0.01
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


# ---------------------------------------------------------------------------
# Frequency groups: once per spectrum, the same prediction as a per-eigenvalue loop
# ---------------------------------------------------------------------------


def _per_eigenvalue_prediction(spectrum, gains):
    """dominant_frequency as one loop over the eigenvalues: an eigenvalue more
    than 1e-9 above its frequency's first one starts the next frequency."""
    distinct, values = [], []
    for lam, gain in zip(np.maximum(spectrum.eigenvalues, 0.0), np.abs(gains)):
        if not distinct or lam - distinct[-1] > 1e-9:
            distinct.append(float(lam))
            values.append(float(gain))
        else:
            values[-1] = max(values[-1], float(gain))
    values = np.asarray(values)
    gmax, best = float(np.max(values)), int(np.argmax(values))
    tied = np.flatnonzero(gmax - values <= 1e-9 * gmax)
    others = np.delete(values, best)
    margin = 1.0 - float(np.max(others)) / gmax if others.size and gmax > 0.0 else 1.0
    lambda_star = distinct[int(tied[0])]
    dominance = ff.MIXED
    if tied.size == 1 and lambda_star <= 1e-9:
        dominance = ff.LFD
    elif tied.size == 1 and abs(lambda_star - spectrum.rho_l) <= 1e-9:
        dominance = ff.HFD
    return ff.DominancePrediction(lambda_star, dominance, margin,
                                  dict(zip(distinct, values.tolist())))


CHAIN_SPACINGS = [0.0, 0.3e-9, 0.6e-9, 1.0e-9, 1.2e-9]
GAIN_VALUES = [0.0, 0.25, 1.0, 1.0 - 5e-10, 1.0 + 5e-10, -1.0, 3.0]


@st.composite
def spectra_with_gains(draw):
    """Ascending eigenvalues made of chains of near-ties (a chain of spacing
    0.6e-9 groups differently when anchored than when chained), an optional
    solver-jitter zero and top, and gains with exact and near ties."""
    lams = []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 2.0))
        spacing = draw(st.sampled_from(CHAIN_SPACINGS))
        lams += [base + k * spacing for k in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        lams.append(-1e-12)
    lams = np.sort(np.asarray(lams))
    gains = draw(st.lists(st.sampled_from(GAIN_VALUES) | st.floats(-4.0, 4.0),
                          min_size=len(lams), max_size=len(lams)))
    spectrum = ff.Spectrum(lams, np.eye(len(lams)))
    return spectrum, np.asarray(gains)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=spectra_with_gains())
def test_dominant_frequency_matches_the_per_eigenvalue_loop(case):
    spectrum, gains = case
    pred = ff.dominant_frequency(spectrum, gains)
    expected = _per_eigenvalue_prediction(spectrum, gains)
    assert (pred.lambda_star, pred.dominance, pred.margin) == (
        expected.lambda_star, expected.dominance, expected.margin)
    assert list(pred.gains.items()) == list(expected.gains.items())
    chained = 1 + int(np.sum(np.diff(np.maximum(spectrum.eigenvalues, 0.0)) > 1e-9))
    event(pred.dominance)
    event("anchored groups differ from chained" if chained != len(pred.gains) else "same groups")


def test_frequency_groups_are_anchored_not_chained():
    # 0.6e-9 apart: the third eigenvalue is 1.2e-9 above the first, so it
    # starts a frequency although it is within 1e-9 of the second
    lams = np.array([0.0, 0.5, 0.5 + 0.6e-9, 0.5 + 1.2e-9, 0.5 + 1.8e-9, 2.0])
    spectrum = ff.Spectrum(lams, np.eye(6))
    assert spectrum.frequency_starts.tolist() == [0, 1, 3, 5]
    assert spectrum.frequency_starts is spectrum.frequency_starts  # found once
    pred = ff.dominant_frequency(spectrum, np.array([0.1, 0.2, 0.9, 0.3, 0.4, 0.1]))
    assert list(pred.gains.values()) == [0.1, 0.9, 0.4, 0.1]
    assert pred.lambda_star == 0.5 and pred.dominance == ff.MIXED
