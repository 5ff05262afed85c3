import numpy as np
import pytest

import frameflow as ff
from frameflow.errors import (
    BandMismatchError,
    ConfigError,
    DimensionMismatchError,
    NotSymmetricError,
    VariantNotTightError,
)

from conftest import (
    assemble_quadratic_operator,
    central_diff_gradient,
    edge_sum_dirichlet,
    random_er_graph,
    random_symmetric,
    vec,
)

GRAD_RTOL = 1e-5
FD_STEP = 1e-6


def two_node():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    return g, ff.normalized_adjacency(g), ff.normalized_laplacian(g)


def build(graph, scales, variant="tight"):
    return ff.build_framelet_system(ff.eigh(ff.normalized_laplacian(graph)), scales, variant)


def grad_close(analytic, numeric):
    scale = max(1.0, float(np.linalg.norm(numeric)))
    assert np.linalg.norm(analytic - numeric) <= GRAD_RTOL * scale


# ---------------------------------------------------------------------------
# Dirichlet energy
# ---------------------------------------------------------------------------


def test_dirichlet_hand_value():
    _, _, lap = two_node()
    assert ff.dirichlet_energy(lap, np.array([1.0, -1.0])) == pytest.approx(1.0, abs=1e-12)


def test_dirichlet_kernel_and_zero(rng):
    g = random_er_graph(rng, 9)
    lap = ff.normalized_laplacian(g)
    v = np.sqrt(g.degrees().astype(float))
    assert abs(ff.dirichlet_energy(lap, v)) <= 1e-10
    assert ff.dirichlet_energy(lap, np.zeros((9, 2))) == 0.0


def test_dirichlet_matches_edge_sum(rng):
    for _ in range(5):
        g = random_er_graph(rng, int(rng.integers(3, 15)), self_loops=bool(rng.integers(2)))
        h = rng.standard_normal((g.n, 3))
        lap = ff.normalized_laplacian(g)
        assert ff.dirichlet_energy(lap, h) == pytest.approx(edge_sum_dirichlet(g, h), abs=1e-9)


# ---------------------------------------------------------------------------
# Band-wise conservation
# ---------------------------------------------------------------------------


def test_band_energies_two_node_single_scale():
    _, _, lap = two_node()
    g, _, _ = two_node()
    sys = build(g, 1)
    per_band, total = ff.framelet_dirichlet_energies(sys, np.array([1.0, -1.0]))
    assert per_band[(0, 1)] == pytest.approx(0.9844562, abs=1e-7)
    assert per_band[(1, 1)] == pytest.approx(0.0155438, abs=1e-7)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_band_energies_kernel_vector():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=7))
    sys = build(g, 2)
    per_band, total = ff.framelet_dirichlet_energies(
        sys, np.sqrt(g.degrees().astype(float))
    )
    assert total <= 1e-10
    assert all(abs(v) <= 1e-10 for v in per_band.values())


@pytest.mark.parametrize("scales", [1, 2])
def test_band_energy_conservation_random(rng, scales):
    for _ in range(5):
        g = random_er_graph(rng, int(rng.integers(3, 20)))
        lap = ff.normalized_laplacian(g)
        sys = build(g, scales)
        h = rng.standard_normal((g.n, 2))
        _, total = ff.framelet_dirichlet_energies(sys, h)
        reference = ff.dirichlet_energy(lap, h)
        assert abs(total - reference) <= 1e-8 * max(1.0, reference)


def test_band_energies_reject_non_tight(rng):
    g = random_er_graph(rng, 8)
    sys = build(g, 2, "paper_literal")
    with pytest.raises(VariantNotTightError):
        ff.framelet_dirichlet_energies(sys, np.ones((8, 1)))


# ---------------------------------------------------------------------------
# Generalized energy
# ---------------------------------------------------------------------------


def test_generalized_identity_weights_recover_dirichlet(rng):
    g = random_er_graph(rng, 11)
    ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
    h = rng.standard_normal((11, 3))
    eye = np.eye(3)
    assert ff.generalized_energy(ahat, h, eye, eye) == pytest.approx(
        ff.dirichlet_energy(lap, h), abs=1e-9
    )


def test_generalized_hand_value():
    _, ahat, _ = two_node()
    value = ff.generalized_energy(ahat, np.array([1.0, -1.0]), np.array([[2.0]]), np.array([[0.0]]))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_generalized_zero_signal():
    _, ahat, _ = two_node()
    assert ff.generalized_energy(ahat, np.zeros((2, 4)), np.eye(4), np.eye(4)) == 0.0


def test_generalized_rejects_asymmetric_weights():
    _, ahat, _ = two_node()
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetricError):
        ff.generalized_energy(ahat, np.ones((2, 2)), bad, np.eye(2))


def test_generalized_rejects_a_non_square_weight():
    _, ahat, _ = two_node()
    with pytest.raises(DimensionMismatchError, match="omega must be square"):
        ff.generalized_energy(ahat, np.ones((2, 2)), np.ones((2, 3)), np.eye(2))


def test_generalized_rejects_weights_that_do_not_fit_the_channels():
    _, ahat, _ = two_node()
    with pytest.raises(DimensionMismatchError, match="signal has 3 channels"):
        ff.generalized_energy(ahat, np.ones((2, 3)), np.eye(2), np.eye(2))


@pytest.mark.parametrize("signal", [np.ones(3), np.ones((3, 2))], ids=["1-D", "2-D"])
def test_dirichlet_rejects_a_signal_with_the_wrong_row_count(signal):
    _, _, lap = two_node()
    with pytest.raises(DimensionMismatchError, match="3"):
        ff.dirichlet_energy(lap, signal)


def test_dirichlet_rejects_a_non_square_operator():
    with pytest.raises(DimensionMismatchError, match="laplacian shape"):
        ff.dirichlet_energy(np.ones((3, 4)), np.ones(3))


def test_weight_config_rejects_asymmetry():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSymmetricError):
        ff.WeightConfig.shared(1, bad, np.eye(2))


def test_weight_config_band_coverage_checked(rng):
    g = random_er_graph(rng, 6)
    sys = build(g, 2)
    cfg = ff.WeightConfig.shared(1, np.eye(2), np.eye(2))  # J=1 bands on a J=2 system
    with pytest.raises(BandMismatchError):
        ff.total_framelet_energy(sys, np.ones((6, 2)), cfg)


def test_weight_config_bands_must_agree():
    eye = np.eye(2)
    with pytest.raises(BandMismatchError, match="omega and w"):
        ff.WeightConfig(omega={(0, 1): eye, (1, 1): eye}, w={(0, 1): eye})
    with pytest.raises(BandMismatchError, match="w_tilde"):
        ff.WeightConfig.shared(1, eye, eye, w_tilde={(0, 1): eye})


def test_source_needs_w_tilde(rng):
    sys = build(random_er_graph(rng, 6), 1)
    cfg = ff.WeightConfig.shared(1, np.eye(2), np.eye(2), beta=1.0)
    with pytest.raises(ConfigError, match="w_tilde"):
        ff.source_energy_gradient(sys, np.ones((6, 2)), cfg)


def test_initial_state_must_match_the_signal(rng):
    sys = build(random_er_graph(rng, 6), 1)
    cfg = ff.WeightConfig.shared(1, np.eye(2), np.eye(2))
    with pytest.raises(DimensionMismatchError, match="initial state shape"):
        ff.total_framelet_energy(sys, np.ones((6, 2)), cfg, initial=np.ones((6, 3)))


def test_particle_decomposition_graph_must_fit_the_system(rng):
    sys = build(random_er_graph(rng, 6), 1)
    cfg = ff.WeightConfig.shared(1, np.eye(2), np.eye(2))
    with pytest.raises(DimensionMismatchError, match="graph has 5 nodes"):
        ff.particle_decomposition(sys, random_er_graph(rng, 5), np.ones((6, 2)), cfg)


# ---------------------------------------------------------------------------
# Total framelet energy and gradient
# ---------------------------------------------------------------------------


def test_total_energy_shared_weights_collapse(rng):
    for scales in (1, 2):
        g = random_er_graph(rng, 10)
        ahat = ff.normalized_adjacency(g)
        sys = build(g, scales)
        omega = random_symmetric(rng, 3)
        w = random_symmetric(rng, 3)
        cfg = ff.WeightConfig.shared(scales, omega, w)
        h = rng.standard_normal((10, 3))
        total = ff.total_framelet_energy(sys, h, cfg)
        plain = ff.generalized_energy(ahat, h, omega, w)
        assert abs(total - plain) <= 1e-8 * max(1.0, abs(plain))


def test_total_energy_matches_kronecker_oracle(rng):
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=4))
    ahat = ff.normalized_adjacency(g)
    sys = build(g, 1)
    cfg = ff.WeightConfig(
        omega={b: random_symmetric(rng, 2) for b in sys.bands},
        w={b: random_symmetric(rng, 2) for b in sys.bands},
    )
    h = rng.standard_normal((4, 2))
    s = assemble_quadratic_operator(sys, ahat, cfg)
    oracle = float(vec(h) @ s @ vec(h))
    assert ff.total_framelet_energy(sys, h, cfg) == pytest.approx(oracle, abs=1e-9)


def test_total_energy_zero_signal(rng):
    g = random_er_graph(rng, 7)
    sys = build(g, 2)
    cfg = ff.WeightConfig.shared(2, np.eye(2), np.eye(2))
    assert ff.total_framelet_energy(sys, np.zeros((7, 2)), cfg) == 0.0


def test_quadratic_operator_symmetric(rng):
    g = random_er_graph(rng, 6)
    sys = build(g, 2)
    cfg = ff.WeightConfig(
        omega={b: random_symmetric(rng, 2) for b in sys.bands},
        w={b: random_symmetric(rng, 2) for b in sys.bands},
    )
    s = assemble_quadratic_operator(sys, ff.normalized_adjacency(g), cfg)
    assert np.linalg.norm(s - s.T) <= 1e-10


def test_total_gradient_zero_at_origin(rng):
    g = random_er_graph(rng, 6)
    sys = build(g, 1)
    cfg = ff.WeightConfig.shared(1, np.eye(2), np.eye(2))
    grad = ff.total_framelet_energy_gradient(
        sys, np.zeros((6, 2)), cfg
    )
    np.testing.assert_allclose(grad, 0.0)


def test_total_gradient_identity_weights_is_laplacian(rng):
    g = random_er_graph(rng, 9)
    ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
    sys = build(g, 2)
    cfg = ff.WeightConfig.shared(2, np.eye(3), np.eye(3))
    h = rng.standard_normal((9, 3))
    grad = ff.total_framelet_energy_gradient(sys, h, cfg)
    assert np.linalg.norm(grad - lap @ h) <= 1e-9 * max(1.0, np.linalg.norm(h))


def test_total_gradient_finite_difference(rng):
    for _ in range(4):
        n, c = int(rng.integers(4, 12)), int(rng.integers(1, 4))
        g = random_er_graph(rng, n)
        ahat = ff.normalized_adjacency(g)
        sys = build(g, int(rng.integers(1, 3)))
        cfg = ff.WeightConfig(
            omega={b: random_symmetric(rng, c) for b in sys.bands},
            w={b: random_symmetric(rng, c) for b in sys.bands},
        )
        h = rng.standard_normal((n, c))
        analytic = ff.total_framelet_energy_gradient(sys, h, cfg)
        numeric = central_diff_gradient(
            lambda x: ff.total_framelet_energy(sys, x, cfg), h, FD_STEP
        )
        grad_close(analytic, numeric)


def test_total_gradient_with_source_finite_difference(rng):
    n, c = 8, 3
    g = random_er_graph(rng, n)
    ahat = ff.normalized_adjacency(g)
    sys = build(g, 2)
    cfg = ff.WeightConfig(
        omega={b: random_symmetric(rng, c) for b in sys.bands},
        w={b: random_symmetric(rng, c) for b in sys.bands},
        w_tilde={b: rng.standard_normal((c, c)) for b in sys.bands},  # not symmetric
        beta=0.7,
    )
    h0 = rng.standard_normal((n, c))
    h = rng.standard_normal((n, c))
    analytic = ff.total_framelet_energy_gradient(sys, h, cfg, initial=h0)
    numeric = central_diff_gradient(
        lambda x: ff.total_framelet_energy(sys, x, cfg, initial=h0), h, FD_STEP
    )
    grad_close(analytic, numeric)


def test_source_requires_initial_state(rng):
    g = random_er_graph(rng, 5)
    sys = build(g, 1)
    cfg = ff.WeightConfig.shared(
        1, np.eye(2), np.eye(2), beta=1.0, w_tilde={b: np.eye(2) for b in sys.bands}
    )
    with pytest.raises(ConfigError):
        ff.total_framelet_energy(sys, np.ones((5, 2)), cfg)


# ---------------------------------------------------------------------------
# Source term
# ---------------------------------------------------------------------------


def test_source_term_zero_cases(rng):
    g = random_er_graph(rng, 6)
    sys = build(g, 1)
    wt = {b: rng.standard_normal((2, 2)) for b in sys.bands}
    cfg0 = ff.WeightConfig.shared(1, np.eye(2), np.eye(2), beta=0.0, w_tilde=wt)
    h = rng.standard_normal((6, 2))
    assert ff.source_energy_term(sys, h, h, cfg0) == 0.0
    cfg1 = ff.WeightConfig.shared(1, np.eye(2), np.eye(2), beta=2.0, w_tilde=wt)
    assert ff.source_energy_term(sys, np.zeros((6, 2)), h, cfg1) == pytest.approx(0.0, abs=1e-12)


def test_source_term_gradient_finite_difference(rng):
    g = random_er_graph(rng, 7)
    sys = build(g, 2)
    wt = {b: rng.standard_normal((3, 3)) for b in sys.bands}
    cfg = ff.WeightConfig.shared(2, np.eye(3), np.eye(3), beta=1.3, w_tilde=wt)
    h0 = rng.standard_normal((7, 3))
    h = rng.standard_normal((7, 3))
    analytic = ff.source_energy_gradient(sys, h0, cfg)
    numeric = central_diff_gradient(
        lambda x: ff.source_energy_term(sys, x, h0, cfg), h, FD_STEP
    )
    grad_close(analytic, numeric)
    # the value itself, beta * sum_b tr((W_b H)^T H0 Wt_b), from the dense transforms
    dense = 1.3 * sum(np.sum((sys.transforms[b] @ h) * (h0 @ wt[b])) for b in sys.bands)
    assert ff.source_energy_term(sys, h, h0, cfg) == pytest.approx(dense, rel=1e-10)


# ---------------------------------------------------------------------------
# Perturbed energy and the per-frequency gap
# ---------------------------------------------------------------------------


def test_perturbed_zero_epsilon_is_dirichlet(rng):
    g = random_er_graph(rng, 8)
    lap = ff.normalized_laplacian(g)
    sys = build(g, 2)
    h = rng.standard_normal((8, 2))
    assert ff.perturbed_energy(sys, h, 0.0) == pytest.approx(
        ff.dirichlet_energy(lap, h), abs=1e-10
    )


def test_band_shifts_raise_the_low_pass_and_lower_every_high_pass(rng):
    sys = build(random_er_graph(rng, 6), 2)
    assert ff.energies.band_shifts(sys, 0.3) == {(0, 2): 0.3, (1, 1): -0.3, (1, 2): -0.3}


def test_perturbed_two_node_hand_value():
    g, _, lap = two_node()
    sys = build(g, 2)
    h = np.array([1.0, -1.0])
    value = ff.perturbed_energy(sys, h, 1.0)
    assert value == pytest.approx(1.9612315, abs=1e-6)


def test_perturbed_kernel_signal_rate(rng):
    g = random_er_graph(rng, 9)
    lap = ff.normalized_laplacian(g)
    sys = build(g, 2)
    v = np.sqrt(g.degrees().astype(float))
    eps = 0.8
    assert ff.perturbed_energy(sys, v, eps) == pytest.approx(
        eps * float(v @ v) / 2.0, abs=1e-9
    )


def test_perturbed_spectral_identity(rng):
    g = random_er_graph(rng, 10)
    lap = ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    sys = ff.build_framelet_system(spec, 2)
    h = rng.standard_normal((10, 3))
    eps = 0.6
    mass = np.sum(ff.graph_fourier(spec, h) ** 2, axis=1)
    gaps = ff.energy_gap(np.maximum(spec.eigenvalues, 0.0))
    expected = ff.dirichlet_energy(lap, h) + 0.5 * eps * float(gaps @ mass)
    assert ff.perturbed_energy(sys, h, eps) == pytest.approx(expected, abs=1e-8)


def test_perturbed_enhances_dirichlet(rng):
    # strict enhancement: the gap never drops below its value at frequency 2,
    # so the boost is at least (eps/2) * gap(2) * ||H||^2
    g = random_er_graph(rng, 12)
    lap = ff.normalized_laplacian(g)
    sys = build(g, 2)
    eps = 0.5
    floor = ff.energy_gap(2.0)
    for _ in range(5):
        h = rng.standard_normal((12, 2))
        boost = ff.perturbed_energy(sys, h, eps) - ff.dirichlet_energy(lap, h)
        assert boost >= 0.5 * eps * floor * float(np.sum(h * h)) - 1e-9


def test_perturbed_gradient_finite_difference(rng):
    g = random_er_graph(rng, 8)
    lap = ff.normalized_laplacian(g)
    sys = build(g, 2)
    h = rng.standard_normal((8, 3))
    analytic = ff.perturbed_energy_gradient(sys, h, 0.9)
    numeric = central_diff_gradient(lambda x: ff.perturbed_energy(sys, x, 0.9), h, FD_STEP)
    grad_close(analytic, numeric)


def test_energy_gap_values():
    assert ff.energy_gap(0.0) == 1.0
    assert ff.energy_gap(1.0) == pytest.approx(0.9612315, abs=1e-6)
    assert ff.energy_gap(2.0) == pytest.approx(0.8483976, abs=1e-6)


def test_energy_gap_nonnegative_and_decreasing():
    grid = np.linspace(0.0, 2.0, 10_000)
    gaps = ff.energy_gap(grid)
    assert float(np.min(gaps)) >= -1e-12
    assert np.all(np.diff(gaps) <= 1e-12)


def test_energy_gap_out_of_range():
    with pytest.raises(ff.OutOfRangeError):
        ff.energy_gap(2.5)


def test_perturbation_comparison_identity(rng):
    g = random_er_graph(rng, 9)
    ahat = ff.normalized_adjacency(g)
    sys = build(g, 2)
    c = 3
    w = {b: random_symmetric(rng, c) for b in sys.bands}
    eye = {b: np.eye(c) for b in sys.bands}
    frame_cfg = ff.WeightConfig(omega=eye, w=w)
    shifted_cfg = ff.energy_enhanced_omega(sys, ff.WeightConfig(omega=eye, w=w, epsilon=0.4))
    h = rng.standard_normal((9, c))
    lhs = ff.total_framelet_energy(sys, h, shifted_cfg) - ff.total_framelet_energy(
        sys, h, frame_cfg
    )
    low = sys.low_pass
    coeff = {b: sys.transforms[b] @ h for b in sys.bands}
    rhs = float(np.sum(coeff[low] * (coeff[low] @ w[low])))
    for b in sys.bands[1:]:
        rhs -= float(np.sum(coeff[b] * (coeff[b] @ w[b])))
    rhs *= 0.4 / 2.0
    assert lhs == pytest.approx(rhs, abs=1e-8)


# ---------------------------------------------------------------------------
# Weight split and the particle view
# ---------------------------------------------------------------------------


def test_weight_split_identity_and_negative_identity():
    plus, minus = ff.weight_split(np.eye(3))
    np.testing.assert_allclose(plus, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(minus, 0.0, atol=1e-12)
    plus, minus = ff.weight_split(-np.eye(3))
    np.testing.assert_allclose(plus, 0.0, atol=1e-12)
    np.testing.assert_allclose(minus, np.eye(3), atol=1e-12)


def test_weight_split_diagonal_case():
    w = np.diag([4.0, -9.0])
    plus, minus = ff.weight_split(w)
    np.testing.assert_allclose(plus.T @ plus, np.diag([4.0, 0.0]), atol=1e-10)
    np.testing.assert_allclose(minus.T @ minus, np.diag([0.0, 9.0]), atol=1e-10)
    np.testing.assert_allclose(plus.T @ plus - minus.T @ minus, w, atol=1e-10)


def test_weight_split_random_reconstruction(rng):
    for _ in range(5):
        w = random_symmetric(rng, int(rng.integers(1, 5)))
        plus, minus = ff.weight_split(w)
        assert np.linalg.norm(plus.T @ plus - minus.T @ minus - w) <= 1e-10


def test_particle_decomposition_identity_weights(rng):
    g = random_er_graph(rng, 8)
    lap = ff.normalized_laplacian(g)
    sys = build(g, 1)
    cfg = ff.WeightConfig.shared(1, np.eye(2), np.eye(2))
    h = rng.standard_normal((8, 2))
    breakdown = ff.particle_decomposition(sys, g, h, cfg)
    per_band, _ = ff.framelet_dirichlet_energies(sys, h)
    for band, parts in breakdown.items():
        assert parts.external == pytest.approx(0.0, abs=1e-12)
        assert parts.repulsion == pytest.approx(0.0, abs=1e-12)
        assert parts.total == pytest.approx(per_band[band], abs=1e-9)


def test_particle_decomposition_zero_signal(rng):
    g = random_er_graph(rng, 6)
    sys = build(g, 2)
    cfg = ff.WeightConfig.shared(2, np.eye(2), np.eye(2))
    for parts in ff.particle_decomposition(sys, g, np.zeros((6, 2)), cfg).values():
        assert parts.external == parts.attraction == parts.repulsion == parts.total == 0.0


def test_particle_decomposition_sums_to_total(rng):
    for self_loops in (False, True):
        g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=4, self_loops=self_loops))
        ahat = ff.normalized_adjacency(g)
        sys = build(g, 1)
        cfg = ff.WeightConfig(
            omega={b: random_symmetric(rng, 3) for b in sys.bands},
            w={b: random_symmetric(rng, 3) for b in sys.bands},
        )
        h = np.random.default_rng(5).standard_normal((4, 3))
        breakdown = ff.particle_decomposition(sys, g, h, cfg)
        total = sum(parts.total for parts in breakdown.values())
        reference = ff.total_framelet_energy(sys, h, cfg)
        assert abs(total - reference) <= 1e-8 * max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# Spectral-filter energy
# ---------------------------------------------------------------------------


def spectral_cfg(sys, rng, c, theta_value=None):
    n = sys.n
    theta = {}
    for b in sys.bands:
        if theta_value is None:
            theta[b] = rng.uniform(0.0, 2.0, size=n)
        else:
            theta[b] = np.full(n, 1.0 if b[0] == 0 else theta_value)
    w = random_symmetric(rng, c)
    return ff.WeightConfig.shared(sys.scales, np.eye(c), w, theta=theta)


def test_spectral_energy_flat_filter_vanishes(rng):
    g = random_er_graph(rng, 9)
    sys = build(g, 2)
    theta = {b: np.ones(9) for b in sys.bands}
    cfg = ff.WeightConfig.shared(2, np.eye(2), np.eye(2), theta=theta)
    h = rng.standard_normal((9, 2))
    assert ff.spectral_energy(sys, h, cfg) == pytest.approx(0.0, abs=1e-10)


def test_spectral_energy_zero_signal(rng):
    g = random_er_graph(rng, 6)
    sys = build(g, 1)
    cfg = spectral_cfg(sys, rng, 2)
    assert ff.spectral_energy(sys, np.zeros((6, 2)), cfg) == 0.0


def test_spectral_energy_gradient_finite_difference(rng):
    g = random_er_graph(rng, 8)
    sys = build(g, 2)
    cfg = spectral_cfg(sys, rng, 3)
    h = rng.standard_normal((8, 3))
    analytic = ff.spectral_energy_gradient(sys, h, cfg)
    numeric = central_diff_gradient(lambda x: ff.spectral_energy(sys, x, cfg), h, FD_STEP)
    grad_close(analytic, numeric)


def test_spectral_energy_requires_shared_w(rng):
    g = random_er_graph(rng, 5)
    sys = build(g, 1)
    theta = {b: np.ones(5) for b in sys.bands}
    cfg = ff.WeightConfig(
        omega={b: np.eye(2) for b in sys.bands},
        w={(0, 1): np.eye(2), (1, 1): 2.0 * np.eye(2)},
        theta=theta,
    )
    with pytest.raises(ConfigError):
        ff.spectral_energy(sys, np.ones((5, 2)), cfg)
