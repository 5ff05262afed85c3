import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frameflow as ff
from frameflow import analysis, dynamics, energies, framelets
from frameflow.errors import (
    IllegalRenormalizeError,
    NumericOverflowError,
    OutOfRangeError,
    ZeroStateError,
)

from conftest import (
    assemble_quadratic_operator,
    random_er_graph,
    random_symmetric,
    unvec,
    vec,
)

EXACT_TOL = 1e-12


def build(graph, scales, variant="tight"):
    return ff.build_framelet_system(ff.eigh(ff.normalized_laplacian(graph)), scales, variant)


def setting(rng, n=8, scales=2, c=3, self_loops=False):
    g = random_er_graph(rng, n, self_loops=self_loops)
    ahat = ff.normalized_adjacency(g)
    lap = ff.normalized_laplacian(g)
    sys = build(g, scales)
    h = rng.standard_normal((n, c))
    return g, ahat, lap, sys, h


# ---------------------------------------------------------------------------
# Individual steps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scales", [1, 2])
def test_spatial_step_shared_identity_is_one_hop(rng, scales):
    g, ahat, _, _, h = setting(rng, n=10, scales=scales)
    sys = build(g, scales)
    cfg = ff.WeightConfig.scalar(scales, 1.0, tau=1.0)
    out = ff.step_spatial_framelet(sys, h, cfg)
    assert np.linalg.norm(out - ahat @ h) <= 1e-10 * max(1.0, np.linalg.norm(h))


def test_spatial_step_shared_weight_matrix(rng):
    g, ahat, _, sys, h = setting(rng, n=9, scales=1)
    w = random_symmetric(rng, 3)
    cfg = ff.WeightConfig.shared(1, np.eye(3), w, tau=1.0)
    out = ff.step_spatial_framelet(sys, h, cfg)
    assert np.linalg.norm(out - ahat @ h @ w) <= 1e-10 * max(1.0, np.linalg.norm(h))


def test_spatial_step_two_node_annihilates_alternating():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    sys = build(g, 1)
    cfg = ff.WeightConfig.scalar(1, 1.0, tau=1.0)
    out = ff.step_spatial_framelet(sys, np.array([1.0, -1.0]), cfg)
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


def test_spatial_step_zero_signal(rng):
    _, ahat, _, sys, _ = setting(rng)
    cfg = ff.WeightConfig.scalar(2, 5.0)
    np.testing.assert_allclose(ff.step_spatial_framelet(sys, np.zeros((8, 2)), cfg), 0.0)


def test_gradient_step_identity_omega_equals_spatial(rng):
    g, ahat, _, sys, h = setting(rng, n=9, scales=2)
    w = {b: random_symmetric(rng, 3) for b in sys.bands}
    eye = {b: np.eye(3) for b in sys.bands}
    cfg = ff.WeightConfig(omega=eye, w=w, tau=1.0)
    left = ff.step_gradf_ufg(sys, h, None, cfg)
    right = ff.step_spatial_framelet(sys, h, cfg)
    assert np.linalg.norm(left - right) <= EXACT_TOL * max(1.0, np.linalg.norm(h))


def test_gradient_step_zero_tau_is_identity(rng):
    g, ahat, _, sys, h = setting(rng)
    cfg = ff.WeightConfig.shared(2, np.eye(3), random_symmetric(rng, 3), tau=0.0)
    np.testing.assert_allclose(ff.step_gradf_ufg(sys, h, None, cfg), h)


def test_gradient_step_identity_weights_is_heat_step(rng):
    g, ahat, lap, sys, h = setting(rng, n=11)
    cfg = ff.WeightConfig.shared(2, np.eye(3), np.eye(3), tau=0.2)
    out = ff.step_gradf_ufg(sys, h, None, cfg)
    assert np.linalg.norm(out - (h - 0.2 * lap @ h)) <= 1e-9 * max(1.0, np.linalg.norm(h))


def test_energy_enhanced_step_matches_gradient_path(rng):
    g, ahat, _, sys, h = setting(rng, n=8, scales=2)
    w = {b: random_symmetric(rng, 3) for b in sys.bands}
    eye = {b: np.eye(3) for b in sys.bands}
    base = ff.WeightConfig(omega=eye, w=w, epsilon=0.37, tau=1.0)
    left = ff.step_ee_ufg(sys, h, base)
    right = ff.step_gradf_ufg(sys, h, None, ff.energy_enhanced_omega(sys, base))
    assert np.linalg.norm(left - right) <= EXACT_TOL * max(1.0, np.linalg.norm(h))


def test_energy_enhanced_step_zero_epsilon_reduces_to_spatial(rng):
    g, ahat, _, sys, h = setting(rng, n=7, scales=1)
    cfg = ff.WeightConfig.scalar(1, 1.0, epsilon=0.0, tau=1.0)
    out = ff.step_ee_ufg(sys, h, cfg)
    assert np.linalg.norm(out - ahat @ h) <= 1e-10 * max(1.0, np.linalg.norm(h))


def test_energy_enhanced_banded_activation_variant(rng):
    # the nonlinear banded form carries no energy identity, but the identity
    # activation must reproduce the linear path, and relu keeps homogeneity
    g, ahat, _, sys, h = setting(rng, n=7, scales=2)
    cfg = ff.WeightConfig.shared(2, np.eye(3), random_symmetric(rng, 3), epsilon=0.3)
    plain = ff.step_ee_ufg(sys, h, cfg)
    assert np.array_equal(plain, ff.step_ee_ufg(sys, h, cfg, "identity"))
    banded = lambda x: ff.step_ee_ufg(sys, x, cfg, "relu")
    assert not np.allclose(banded(h), plain)
    assert np.linalg.norm(banded(2.5 * h) - 2.5 * banded(h)) <= 1e-10


def test_energy_enhanced_step_zero_signal(rng):
    _, ahat, _, sys, _ = setting(rng)
    cfg = ff.WeightConfig.shared(2, np.eye(2), np.eye(2), epsilon=0.5)
    np.testing.assert_allclose(ff.step_ee_ufg(sys, np.zeros((8, 2)), cfg), 0.0)


def test_spectral_step_flat_filter_is_identity(rng):
    g, _, _, sys, h = setting(rng, n=9)
    theta = {b: np.ones(9) for b in sys.bands}
    cfg = ff.WeightConfig.shared(2, np.eye(3), np.eye(3), theta=theta, tau=1.0)
    out = ff.step_spectral_framelet(sys, h, cfg)
    assert np.linalg.norm(out - h) <= 1e-10 * max(1.0, np.linalg.norm(h))


def test_spectral_step_low_pass_projection(rng):
    g, _, _, sys, h = setting(rng, n=8, scales=1)
    theta = {(0, 1): np.ones(8), (1, 1): np.zeros(8)}
    cfg = ff.WeightConfig.shared(1, np.eye(3), np.eye(3), theta=theta, tau=1.0)
    t = sys.transforms[sys.low_pass]
    np.testing.assert_allclose(
        ff.step_spectral_framelet(sys, h, cfg), t.T @ (t @ h), atol=1e-12
    )


def test_spectral_step_is_gradient_descent_on_its_energy(rng):
    g, _, _, sys, h = setting(rng, n=9)
    theta = {b: rng.uniform(0.0, 2.0, size=9) for b in sys.bands}
    w = random_symmetric(rng, 3)
    cfg = ff.WeightConfig.shared(2, np.eye(3), w, theta=theta, tau=1.0)
    step = ff.step_spectral_framelet(sys, h, cfg)
    descent = h - ff.spectral_energy_gradient(sys, h, cfg)
    assert np.linalg.norm(step - descent) <= EXACT_TOL * max(1.0, np.linalg.norm(h))


def test_activated_identity_matches_gradient_step_bitwise(rng):
    g, ahat, _, sys, h = setting(rng)
    cfg = ff.WeightConfig(
        omega={b: random_symmetric(rng, 3) for b in sys.bands},
        w={b: random_symmetric(rng, 3) for b in sys.bands},
        tau=0.05,
    )
    a = ff.step_activated(sys, h, None, cfg, "identity")
    b = ff.step_gradf_ufg(sys, h, None, cfg)
    assert np.array_equal(a, b)


def test_activated_relu_freezes_on_nonpositive_descent():
    g = ff.generate_graph(ff.GraphSpec(kind="path", n=1, self_loops=True))
    sys = build(g, 1)
    cfg = ff.WeightConfig.shared(1, np.array([[2.0]]), np.array([[0.0]]), tau=0.1)
    h = np.array([[1.0]])
    out = ff.step_activated(sys, h, None, cfg, "relu")
    np.testing.assert_allclose(out, h)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_activated_descent_bound_per_step(rng, activation):
    g, ahat, _, sys, h = setting(rng, n=6, c=2)
    cfg = ff.WeightConfig(
        omega={b: random_symmetric(rng, 2) for b in sys.bands},
        w={b: random_symmetric(rng, 2) for b in sys.bands},
        tau=1e-3,
    )
    s = assemble_quadratic_operator(sys, ahat, cfg)
    c_m = float(np.max(np.abs(np.linalg.eigvalsh(s))))
    state = h
    for _ in range(50):
        before = ff.total_framelet_energy(sys, state, cfg)
        after_state = ff.step_activated(sys, state, None, cfg, activation)
        after = ff.total_framelet_energy(sys, after_state, cfg)
        gap = float(np.linalg.norm(after_state - state)) ** 2
        assert after <= before + c_m * gap + 1e-12
        state = after_state


# ---------------------------------------------------------------------------
# Closed-form perturbed flow
# ---------------------------------------------------------------------------


def test_closed_form_time_zero_is_initial(rng):
    g = random_er_graph(rng, 7)
    spec = ff.eigh(ff.normalized_laplacian(g))
    h0 = rng.standard_normal((7, 2))
    sys = ff.build_framelet_system(spec, 2)
    np.testing.assert_allclose(ff.perturbed_closed_form(sys, h0, 1.0, 0.0), h0, atol=1e-12)


def test_closed_form_two_node_rate():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    spec = ff.eigh(ff.normalized_laplacian(g))
    h0 = np.array([1.0, -1.0])
    t = 0.7
    out = ff.perturbed_closed_form(ff.build_framelet_system(spec, 2), h0, 1.0, t)
    np.testing.assert_allclose(out, np.exp(-1.9612314 * t) * h0, atol=1e-6)


def test_closed_form_negative_time_rejected(rng):
    g = random_er_graph(rng, 5)
    spec = ff.eigh(ff.normalized_laplacian(g))
    with pytest.raises(OutOfRangeError):
        ff.perturbed_closed_form(ff.build_framelet_system(spec, 2), np.ones(5), 1.0, -0.1)


def test_closed_form_matches_euler_heat_flow(rng):
    g = random_er_graph(rng, 8)
    lap = ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    h0 = rng.standard_normal((8, 2))
    tau, t_end = 1e-4, 0.1
    state = h0.copy()
    for _ in range(int(round(t_end / tau))):
        state = state - tau * (lap @ state)
    exact = ff.perturbed_closed_form(ff.build_framelet_system(spec, 2), h0, 0.0, t_end)
    assert np.linalg.norm(state - exact) <= 1e-4 * np.linalg.norm(exact)


def test_closed_form_dirichlet_monotone_decay(rng):
    g = random_er_graph(rng, 9)
    lap = ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    h0 = rng.standard_normal((9, 3))
    times = np.logspace(-2, 1.5, 25)
    sys = ff.build_framelet_system(spec, 2)
    values = [ff.dirichlet_energy(lap, ff.perturbed_closed_form(sys, h0, 1.0, t)) for t in times]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= 1e-6 * max(1.0, values[0])


# ---------------------------------------------------------------------------
# Kronecker oracle for one step of each scheme
# ---------------------------------------------------------------------------


def test_steps_match_vectorized_forms(rng):
    from conftest import spatial_step_operator, spectral_step_operator

    g, ahat, _, sys, h = setting(rng, n=8, scales=2, c=3)  # n*c = 24 <= 64
    tol = 1e-10 * max(1.0, np.linalg.norm(h))
    w = {b: random_symmetric(rng, 3) for b in sys.bands}
    omega = {b: random_symmetric(rng, 3) for b in sys.bands}
    theta = {b: rng.uniform(0.0, 2.0, size=8) for b in sys.bands}
    shared_w = random_symmetric(rng, 3)

    cfg = ff.WeightConfig(omega=omega, w=w, tau=0.7)
    out = ff.step_spatial_framelet(sys, h, cfg)
    oracle = spatial_step_operator(sys, ahat, cfg) @ vec(h)
    assert np.linalg.norm(vec(out) - oracle) <= tol

    grad_op = 2.0 * assemble_quadratic_operator(sys, ahat, cfg)
    out = ff.step_gradf_ufg(sys, h, None, cfg)
    oracle = vec(h) - cfg.tau * (grad_op @ vec(h))
    assert np.linalg.norm(vec(out) - oracle) <= tol

    ee_cfg = ff.WeightConfig(omega=omega, w=w, epsilon=0.4, tau=1.0)
    out = ff.step_ee_ufg(sys, h, ee_cfg)
    shifted = ff.energy_enhanced_omega(sys, ee_cfg)
    oracle = vec(h) - 2.0 * assemble_quadratic_operator(sys, ahat, shifted) @ vec(h)
    assert np.linalg.norm(vec(out) - oracle) <= tol

    sp_cfg = ff.WeightConfig.shared(2, np.eye(3), shared_w, theta=theta, tau=0.9)
    out = ff.step_spectral_framelet(sys, h, sp_cfg)
    oracle = spectral_step_operator(sys, sp_cfg) @ vec(h)
    assert np.linalg.norm(vec(out) - oracle) <= tol


@pytest.mark.parametrize("scales,variant", [(1, "tight"), (2, "tight"), (2, "paper_literal")])
def test_spectral_core_matches_kronecker_oracles(rng, scales, variant):
    from conftest import spatial_step_operator, spectral_step_operator

    n, c = 7, 3  # n*c = 21
    g = random_er_graph(rng, n)
    ahat = ff.normalized_adjacency(g)
    sys = build(g, scales, variant)
    h = rng.standard_normal((n, c))
    tol = 1e-10 * max(1.0, np.linalg.norm(h))
    omega = {b: random_symmetric(rng, c) for b in sys.bands}
    w = {b: random_symmetric(rng, c) for b in sys.bands}
    cfg = ff.WeightConfig(omega=omega, w=w, epsilon=0.4, tau=0.7)
    quad = assemble_quadratic_operator(sys, ahat, cfg)

    energy = ff.total_framelet_energy(sys, h, cfg)
    assert abs(energy - float(vec(h) @ quad @ vec(h))) <= tol
    grad = ff.total_framelet_energy_gradient(sys, h, cfg)
    assert np.linalg.norm(vec(grad) - 2.0 * quad @ vec(h)) <= tol

    out = ff.step_spatial_framelet(sys, h, cfg)
    assert np.linalg.norm(vec(out) - spatial_step_operator(sys, ahat, cfg) @ vec(h)) <= tol
    out = ff.step_gradf_ufg(sys, h, None, cfg)
    assert np.linalg.norm(vec(out) - (vec(h) - cfg.tau * 2.0 * quad @ vec(h))) <= tol
    out = ff.step_activated(sys, h, None, cfg, "relu")
    oracle = vec(h) + cfg.tau * np.maximum(-2.0 * quad @ vec(h), 0.0)
    assert np.linalg.norm(vec(out) - oracle) <= tol

    # the ee step band by band; on a non-tight bank it is not a gradient step
    shifted = {b: ahat + (-0.4 if b == sys.low_pass else 0.4) * np.eye(n) for b in sys.bands}
    ee_op = sum(
        np.kron(w[b].T, sys.transforms[b].T @ shifted[b] @ sys.transforms[b]) for b in sys.bands
    )
    out = ff.step_ee_ufg(sys, h, cfg)
    assert np.linalg.norm(vec(out) - ee_op @ vec(h)) <= tol

    # a constant theta per band is a frequency function, a per-vertex one is not
    for theta in (
        {b: np.full(n, 1.0 if b[0] == 0 else 2.5) for b in sys.bands},
        {b: rng.uniform(0.0, 2.0, size=n) for b in sys.bands},
    ):
        sp_cfg = ff.WeightConfig.shared(
            scales, np.eye(c), random_symmetric(rng, c), theta=theta, tau=0.9
        )
        out = ff.step_spectral_framelet(sys, h, sp_cfg)
        assert np.linalg.norm(vec(out) - spectral_step_operator(sys, sp_cfg) @ vec(h)) <= tol


@pytest.mark.parametrize("scales,variant", [(1, "tight"), (2, "tight"), (2, "paper_literal")])
def test_number_weights_match_the_kronecker_oracles_of_their_multiples_of_i(rng, scales, variant):
    """Scalar weights are numbers, a constant theta_b too; the oracles read a
    number s as s I, and every step and energy agrees with them."""
    from conftest import spatial_step_operator, spectral_step_operator

    n, c = 7, 3
    g = random_er_graph(rng, n)
    ahat = ff.normalized_adjacency(g)
    sys = build(g, scales, variant)
    h = rng.standard_normal((n, c))
    tol = 1e-10 * max(1.0, np.linalg.norm(h))
    cfg = ff.WeightConfig.scalar(scales, -1.7, epsilon=0.4, tau=0.7)
    quad = assemble_quadratic_operator(sys, ahat, cfg, c)
    assert abs(ff.total_framelet_energy(sys, h, cfg) - float(vec(h) @ quad @ vec(h))) <= tol
    grad = ff.total_framelet_energy_gradient(sys, h, cfg)
    assert np.linalg.norm(vec(grad) - 2.0 * quad @ vec(h)) <= tol
    out = ff.step_spatial_framelet(sys, h, cfg)
    assert np.linalg.norm(vec(out) - spatial_step_operator(sys, ahat, cfg, c) @ vec(h)) <= tol
    out = ff.step_gradf_ufg(sys, h, None, cfg)
    assert np.linalg.norm(vec(out) - (vec(h) - cfg.tau * 2.0 * quad @ vec(h))) <= tol
    shifted = {b: ahat + (-0.4 if b == sys.low_pass else 0.4) * np.eye(n) for b in sys.bands}
    ee_op = sum(cfg.w[b] * np.kron(np.eye(c), sys.transforms[b].T @ shifted[b] @ sys.transforms[b])
                for b in sys.bands)
    assert np.linalg.norm(vec(ff.step_ee_ufg(sys, h, cfg)) - ee_op @ vec(h)) <= tol
    for theta in ({b: 1.0 if b[0] == 0 else 2.5 for b in sys.bands},
                  {b: rng.uniform(0.0, 2.0, size=n) for b in sys.bands}):
        sp_cfg = ff.WeightConfig.scalar(scales, 1.0, theta=theta, tau=0.9)
        out = ff.step_spectral_framelet(sys, h, sp_cfg)
        assert np.linalg.norm(vec(out) - spectral_step_operator(sys, sp_cfg, c) @ vec(h)) <= tol


@pytest.mark.parametrize("scales,variant", [(1, "tight"), (2, "tight"), (2, "paper_literal")])
def test_one_step_matrices_pool_to_the_kronecker_spectrum(rng, scales, variant):
    """With full, non-scalar W_b the n c x n c Kronecker operator of one step
    has the eigenvalues of the per-frequency matrices M_i, pooled over i,
    and the gains are their spectral radii."""
    from conftest import spatial_step_operator, spectral_step_operator

    n, c = 7, 3  # n*c = 21
    g = random_er_graph(rng, n)
    ahat = ff.normalized_adjacency(g)
    sys = build(g, scales, variant)
    omega = {b: random_symmetric(rng, c) for b in sys.bands}
    w = {b: random_symmetric(rng, c) for b in sys.bands}
    cfg = ff.WeightConfig(omega=omega, w=w, epsilon=0.4, tau=0.7)
    shifted = {b: ahat + (-0.4 if b == sys.low_pass else 0.4) * np.eye(n) for b in sys.bands}
    theta = {b: np.full(n, 1.0 if b[0] == 0 else 2.5) for b in sys.bands}
    sp_cfg = ff.WeightConfig.shared(scales, np.eye(c), random_symmetric(rng, c), theta=theta, tau=0.9)
    kronecker = {
        "spatial_framelet": (cfg, spatial_step_operator(sys, ahat, cfg)),
        "gradf_ufg": (cfg, np.eye(n * c) - 2.0 * cfg.tau * assemble_quadratic_operator(sys, ahat, cfg)),
        "ee_ufg": (cfg, sum(
            np.kron(w[b].T, sys.transforms[b].T @ shifted[b] @ sys.transforms[b])
            for b in sys.bands
        )),
        "spectral_framelet": (sp_cfg, spectral_step_operator(sys, sp_cfg)),
    }
    for kind, (kcfg, oracle) in kronecker.items():
        m = dynamics._scheme_operator(ff.Scheme(kind), sys, kcfg, c).one_step
        assert m.shape == (n, c, c)
        pooled = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(
            np.sort(pooled.ravel()), np.linalg.eigvalsh(oracle), atol=1e-10, err_msg=kind
        )
        gains = ff.scheme_gains(ff.Scheme(kind), sys, kcfg)
        np.testing.assert_array_equal(gains, np.max(np.abs(pooled), axis=1))
    # the banded activation predicts from the same linear part
    relu = ff.scheme_gains(ff.Scheme("ee_ufg", "relu"), sys, cfg)
    np.testing.assert_array_equal(relu, ff.scheme_gains(ff.Scheme("ee_ufg"), sys, cfg))


# ---------------------------------------------------------------------------
# Flow runner
# ---------------------------------------------------------------------------


def c6_pieces(scales=1, channels=2, seed=3):
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=6))
    ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    sys = ff.build_framelet_system(spec, scales)
    h0 = np.random.default_rng(seed).standard_normal((6, channels))
    return g, ahat, lap, spec, sys, h0


def test_run_flow_single_step_has_two_rows():
    _, ahat, lap, _, sys, h0 = c6_pieces()
    cfg = ff.WeightConfig.scalar(1, 1.0)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=True), sys, h0, cfg,
        ff.StopRule(max_steps=1),
    )
    assert list(trace.steps) == [0, 1]
    assert trace.rayleigh[-1] == pytest.approx(2.0 * trace.dirichlet_normalized[-1])


def test_run_flow_gcn_reduction_smooths():
    _, ahat, lap, spec, sys, h0 = c6_pieces()
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=6, self_loops=True))
    ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    sys = ff.build_framelet_system(spec, 1)
    cfg = ff.WeightConfig.scalar(1, 1.0)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=True), sys, h0, cfg,
        ff.StopRule(max_steps=20000),
    )
    verdict = ff.classify_dominance(trace, spec)
    assert verdict.dominance == ff.LFD
    assert trace.limit_value <= 1e-6


def test_run_flow_trace_rows_stay_in_range():
    _, ahat, lap, spec, sys, h0 = c6_pieces()
    cfg = ff.WeightConfig.scalar(1, 3.0)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=True), sys, h0, cfg,
        ff.StopRule(max_steps=300),
    )
    upper = spec.rho_l / 2.0 + 1e-9
    assert np.all(trace.dirichlet_normalized >= -1e-9)
    assert np.all(trace.dirichlet_normalized <= upper)


def test_run_flow_overflow_guard():
    _, ahat, lap, _, sys, h0 = c6_pieces()
    cfg = ff.WeightConfig.scalar(1, 1e8, tau=1e6)
    with pytest.raises(NumericOverflowError):
        ff.run_flow(
            ff.Scheme("spatial_framelet", renormalize=False), sys, h0, cfg,
            ff.StopRule(max_steps=100000, plateau_tol=0.0),
        )


def test_tanh_renormalize_rejected():
    with pytest.raises(IllegalRenormalizeError):
        ff.Scheme("activated", activation="tanh", renormalize=True)


def test_linear_schemes_positively_homogeneous(rng):
    g, ahat, _, sys, h = setting(rng, n=7, scales=1)
    theta = {b: rng.uniform(0.0, 2.0, size=7) for b in sys.bands}
    cfg = ff.WeightConfig.scalar(1, 4.0, epsilon=0.2, tau=0.8, theta=theta)
    spectral_cfg = ff.WeightConfig.shared(1, np.eye(3), random_symmetric(rng, 3), theta=theta)
    alpha = 3.7
    for step in (
        lambda x: ff.step_spatial_framelet(sys, x, cfg),
        lambda x: ff.step_gradf_ufg(sys, x, None, cfg),
        lambda x: ff.step_ee_ufg(sys, x, cfg),
        lambda x: ff.step_spectral_framelet(sys, x, spectral_cfg),
        lambda x: ff.step_activated(sys, x, None, cfg, "relu"),
    ):
        left = step(alpha * h)
        right = alpha * step(h)
        assert np.linalg.norm(left - right) <= 1e-10 * max(1.0, np.linalg.norm(right))


def test_closed_form_scheme_runs_in_flow(rng):
    g = random_er_graph(rng, 8)
    lap = ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    sys = ff.build_framelet_system(spec, 2)
    h0 = rng.standard_normal((8, 2))
    cfg = ff.WeightConfig.shared(2, np.eye(2), np.eye(2), epsilon=1.0, tau=0.05)
    trace = ff.run_flow(
        ff.Scheme("perturbed_closed_form", renormalize=True), sys, h0, cfg,
        ff.StopRule(max_steps=4000),
    )
    verdict = ff.classify_dominance(trace, spec)
    assert verdict.dominance == ff.LFD
    diffs = np.diff(trace.dirichlet_normalized)
    assert np.all(diffs <= 1e-12)


def test_plateau_rule_reads_no_further_than_the_plateau():
    """The rule reads E a block at a time and reads no block after the one
    that holds the plateau step."""
    stop = ff.StopRule(max_steps=10, plateau_tol=1e-3, plateau_window=2)
    values = [1.0, 0.5, 0.5, 0.6, 0.6, 0.6005, 7.0]
    blocks = [np.array(values[i:i + 2]) for i in range(0, len(values), 2)]
    consumed = []

    def feed():
        for block in blocks:
            consumed.append(block)
            yield block

    assert stop.plateau_step(feed()) == 5
    assert len(consumed) == 3  # rows 4 and 5, the plateau's, are the third block
    assert stop.plateau_step([np.array(values[:5])]) is None
    assert stop.plateau_step([np.array([0.3])]) is None


def element_plateau_step(values, tol, window):
    """The plateau rule read one record at a time, as a plain loop."""
    run = 0
    for k in range(1, len(values)):
        run = run + 1 if abs(values[k] - values[k - 1]) < tol else 0
        if run >= window:
            return k
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(moves=st.lists(st.sampled_from([0.0, 1e-12, 5e-10, 2e-9, 0.3, -0.3]), max_size=150),
       start=st.sampled_from([0.0, 0.5, 1e3]), cuts=st.lists(st.integers(0, 152), max_size=10),
       window=st.integers(1, 12), tol=st.sampled_from([1e-9, 1e-3, 0.0, np.inf]))
def test_the_block_plateau_rule_fires_where_the_element_rule_does(moves, start, cuts, window,
                                                                 tol):
    """Records cut into blocks anywhere (empty ones too), so runs of flat
    steps straddle block edges and may start at row 0: the rule returns the
    step a record-by-record loop returns."""
    values = np.cumsum([start, *moves])
    blocks = np.split(values, sorted(c for c in cuts if c <= len(values)))
    expected = element_plateau_step(values.tolist(), tol, window)
    assert ff.StopRule(10, tol, window).plateau_step(blocks) == expected
    assert ff.StopRule(10, tol, window).plateau_step([values]) == expected


@pytest.mark.parametrize("window", [1, 3, 64, 65, 200])
def test_a_plateau_from_row_zero_fires_at_the_window_across_blocks(window):
    """A constant E is flat from step 1 on: the rule fires at step window,
    however the records are cut."""
    values = np.full(300, 0.25)
    for size in (1, 7, 64, 300):
        blocks = [values[i:i + size] for i in range(0, 300, size)]
        assert ff.StopRule(10, 1e-9, window).plateau_step(blocks) == window


# ---------------------------------------------------------------------------
# Linear flows advanced in mode coordinates
# ---------------------------------------------------------------------------


def dense_map(fun, n, c):
    """The n c x n c matrix of a linear map of (n, c) signals, column by column."""
    eye = np.eye(n * c)
    return np.stack([vec(fun(unvec(eye[:, j], (n, c)))) for j in range(n * c)], axis=1)


def reference_flow(step, grad, lap, x0, stop, renormalize=True):
    """Iterate the dense matrix of one public step from x0, recording rows
    (norm, E, energy) like run_flow; energy is 0.5 <v, G v> with G the dense
    matrix of the public energy gradient.  Returns (rows, states, failure),
    failure being (error class, step) or None."""
    n, c = x0.shape
    t, g = dense_map(step, n, c), dense_map(grad, n, c)
    dirichlet = np.kron(np.eye(c), lap)

    def row(norm, v):
        return norm, 0.5 * v @ dirichlet @ v / (v @ v), 0.5 * v @ g @ v

    v = vec(x0)
    rows, states, failure = [row(np.linalg.norm(v), v)], [v], None
    state = v / rows[0][0] if renormalize else v
    for k in range(1, stop.max_steps + 1):
        state = t @ state
        norm = np.linalg.norm(state)
        if norm == 0.0 or (not renormalize and norm > dynamics.OVERFLOW_GUARD):
            failure = (ZeroStateError if norm == 0.0 else NumericOverflowError, k)
            break
        if renormalize:
            state = state / norm
        rows.append(row(norm, state))
        states.append(state)
    rows = np.array(rows)
    last = stop.plateau_step([rows[:, 1]])
    if last is None:
        return rows, states, failure
    return rows[: last + 1], states[: last + 1], None


def assert_trace_matches(trace, rows, states, stop, shape, tol=1e-12):
    assert trace.steps_to_plateau == stop.plateau_step([rows[:, 1]])
    assert trace.steps_run == len(rows) - 1
    for column, ref in zip((trace.norms, trace.dirichlet_normalized, trace.total_energy), rows.T):
        np.testing.assert_allclose(column, ref, rtol=tol, atol=tol * np.max(np.abs(ref)))
    np.testing.assert_array_equal(trace.rayleigh, 2.0 * trace.dirichlet_normalized)
    np.testing.assert_allclose(
        trace.final_state, unvec(states[-1], shape), rtol=0, atol=tol * np.max(np.abs(states[-1]))
    )


def linear_case(rng, scheme, weights, scales, variant, graph=None, c=2):
    """(system, ahat, lap, config, public step, public energy gradient)."""
    g = graph or random_er_graph(rng, 8, p=0.5)
    ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
    sys = build(g, scales, variant)
    bands = sys.bands
    if scheme == "spectral_framelet":  # one shared W across bands
        w = {"scalar": 1.0, "shared": random_symmetric(rng, c),
             "full": random_symmetric(rng, c)}[weights]
        theta = {b: np.full(g.n, 1.0 if b[0] == 0 else 2.5) for b in bands}
        omega = {b: random_symmetric(rng, c) if weights == "full" else np.eye(c) for b in bands}
        omega = dict.fromkeys(bands, 1.0) if weights == "scalar" else omega
        cfg = ff.WeightConfig(omega=omega, w={b: w for b in bands}, theta=theta, tau=0.9)
    elif weights == "scalar":  # lambda_w = 64 gives negative multipliers at the top
        cfg = ff.WeightConfig.scalar(scales, 64.0, epsilon=0.3, tau=0.05)
    elif weights == "shared":
        cfg = ff.WeightConfig.shared(
            scales, np.eye(c) + random_symmetric(rng, c, 0.3), random_symmetric(rng, c),
            epsilon=0.3, tau=0.05,
        )
    else:
        cfg = ff.WeightConfig(
            omega={b: random_symmetric(rng, c) for b in bands},
            w={b: random_symmetric(rng, c, 4.0 if b[0] else 1.0) for b in bands},
            epsilon=0.3, tau=0.05,
        )
    if scheme == "spatial_framelet":
        if weights != "scalar":
            cfg = replace(cfg, tau=1.0)
        step = lambda x: ff.step_spatial_framelet(sys, x, cfg)  # noqa: E731
        eye = dict.fromkeys(bands, 1.0 if weights == "scalar" else np.eye(c))
        grad = lambda x: energies.total_framelet_energy_gradient(sys, x, replace(cfg, omega=eye))  # noqa: E731
    elif scheme in ("gradf_ufg", "activated"):
        step = lambda x: ff.step_activated(sys, x, None, cfg, "identity")  # noqa: E731
        grad = lambda x: energies.total_framelet_energy_gradient(sys, x, cfg)  # noqa: E731
    elif scheme == "ee_ufg":
        step = lambda x: ff.step_ee_ufg(sys, x, cfg)  # noqa: E731
        grad = lambda x: energies.total_framelet_energy_gradient(  # noqa: E731
            sys, x, ff.energy_enhanced_omega(sys, cfg)
        )
    else:
        step = lambda x: ff.step_spectral_framelet(sys, x, cfg)  # noqa: E731
        grad = lambda x: energies.spectral_energy_gradient(sys, x, cfg)  # noqa: E731
    return sys, ahat, lap, cfg, step, grad


LINEAR_KINDS = ("spatial_framelet", "gradf_ufg", "ee_ufg", "spectral_framelet", "activated")


@pytest.mark.parametrize("weights", ["scalar", "shared", "full"])
@pytest.mark.parametrize("scales,variant", [(1, "tight"), (2, "tight"), (2, "paper_literal")])
@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_flow_matches_iterated_public_steps(rng, kind, scales, variant, weights):
    sys, ahat, lap, cfg, step, grad = linear_case(rng, kind, weights, scales, variant)
    x0 = rng.standard_normal((sys.n, 2))
    stop = ff.StopRule(max_steps=2000)
    rows, states, failure = reference_flow(step, grad, lap, x0, stop)
    assert failure is None
    trace = ff.run_flow(ff.Scheme(kind, renormalize=True), sys, x0, cfg, stop)
    assert_trace_matches(trace, rows, states, stop, x0.shape)


@pytest.mark.parametrize(
    "kind,weights,c", [("spatial_framelet", "scalar", 1), ("spectral_framelet", "full", 2)]
)
def test_linear_flow_on_the_51_cycle_matches_iterated_steps(rng, kind, weights, c):
    """Double eigenvalues: the eigenbasis inside each pair is the solver's
    choice.  One channel: the one-step factors are 1 x 1, some negative."""
    cycle = ff.generate_graph(ff.GraphSpec(kind="cycle", n=51))
    sys, ahat, lap, cfg, step, grad = linear_case(rng, kind, weights, 2, "tight", cycle, c)
    x0 = rng.standard_normal((51, c))
    stop = ff.StopRule(max_steps=2000)
    rows, states, _ = reference_flow(step, grad, lap, x0, stop)
    trace = ff.run_flow(ff.Scheme(kind, renormalize=True), sys, x0, cfg, stop)
    assert_trace_matches(trace, rows, states, stop, x0.shape)


@pytest.mark.parametrize("renormalize", [True, False])
def test_closed_form_flow_is_the_closed_form_at_k_tau(rng, renormalize):
    g = random_er_graph(rng, 10, p=0.5)
    lap = ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    sys = ff.build_framelet_system(spec, 2)
    x0 = rng.standard_normal((10, 3))
    cfg = ff.WeightConfig.shared(2, np.eye(3), np.eye(3), epsilon=0.5, tau=0.01)
    stop = ff.StopRule(max_steps=2000)
    trace = ff.run_flow(ff.Scheme("perturbed_closed_form", renormalize=renormalize),
                        sys, x0, cfg, stop)
    states = [ff.perturbed_closed_form(sys, x0, 0.5, k * 0.01) for k in range(trace.steps_run + 1)]
    norms = np.array([np.linalg.norm(x) for x in states])
    e_ref = np.array([ff.normalized_dirichlet(lap, x) for x in states])
    scale = norms.copy() if renormalize else np.ones_like(norms)
    scale[0] = 1.0  # row 0 records the initial state itself
    energy = np.array([ff.perturbed_energy(sys, x / s, 0.5) for x, s in zip(states, scale)])
    assert trace.steps_to_plateau == stop.plateau_step([e_ref])
    np.testing.assert_allclose(trace.norms, norms, rtol=1e-12)
    np.testing.assert_allclose(trace.dirichlet_normalized, e_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.total_energy, energy, rtol=1e-12, atol=1e-12 * energy.max())
    final = states[-1] / norms[-1] if renormalize else states[-1]
    np.testing.assert_allclose(trace.final_state, final, rtol=0, atol=1e-12 * np.abs(final).max())


def test_final_state_is_the_state_at_a_stop_inside_a_block(rng):
    sys, ahat, lap, cfg, step, grad = linear_case(rng, "gradf_ufg", "full", 2, "tight")
    x0 = rng.standard_normal((sys.n, 2))
    stop = ff.StopRule(max_steps=2000, plateau_tol=1e-6)
    rows, states, _ = reference_flow(step, grad, lap, x0, stop)
    trace = ff.run_flow(ff.Scheme("gradf_ufg", renormalize=True), sys, x0, cfg, stop)
    assert trace.steps_to_plateau % dynamics.BLOCK not in (0, dynamics.BLOCK - 1)
    assert_trace_matches(trace, rows, states, stop, x0.shape)
    # one step on is a different state
    later = step(unvec(states[-1], x0.shape))
    assert np.linalg.norm(later / np.linalg.norm(later) - trace.final_state) > 1e-9


def test_zero_step_size_vanishes_at_step_one(rng):
    sys, ahat, lap, cfg, _, _ = linear_case(rng, "spatial_framelet", "scalar", 2, "tight")
    with pytest.raises(ZeroStateError, match="at step 1$"):
        ff.run_flow(ff.Scheme("spatial_framelet", renormalize=True), sys,
                    rng.standard_normal((sys.n, 2)), replace(cfg, tau=0.0), ff.StopRule(10))


def test_a_stepped_state_that_vanishes_names_its_step(rng):
    """relu ee_ufg from a state whose every band analysis is <= 0: the banded
    activation zeroes it, so step 1 leaves nothing to renormalize."""
    sys, _, _ = identity_basis(rng, 2)
    lam = sys.spectrum.eigenvalues
    cfg = ff.WeightConfig.scalar(2, 2.0)  # epsilon 0: band b analyses by r_b (1 - lam) w_b
    assert all(np.all(sys.responses[b] >= 0.0) for b in sys.bands)
    h0 = -(1.0 - lam)[:, None]  # analysis -r_b (1 - lam)^2 w_b <= 0 in every band
    with pytest.raises(ZeroStateError, match="state vanished at step 1$"):
        ff.run_flow(ff.Scheme("ee_ufg", "relu", True), sys, h0, cfg, ff.StopRule(10))


def test_unrenormalized_flow_overflows_at_the_reference_step(rng):
    _, ahat, lap, _, sys, h0 = c6_pieces()
    cfg = ff.WeightConfig.scalar(1, 1e8, tau=1e6)
    stop = ff.StopRule(max_steps=100000, plateau_tol=0.0)
    step = lambda x: ff.step_spatial_framelet(sys, x, cfg)  # noqa: E731
    grad = lambda x: energies.total_framelet_energy_gradient(sys, x, cfg)  # noqa: E731
    _, _, (error, k) = reference_flow(step, grad, lap, h0, stop, renormalize=False)
    assert error is NumericOverflowError
    with pytest.raises(NumericOverflowError, match=f"at step {k};"):
        ff.run_flow(ff.Scheme("spatial_framelet"), sys, h0, cfg, stop)


def test_plateau_just_before_an_overflow_in_the_same_block_returns_a_trace():
    """A constant initial state on the 5-cycle is the lambda = 0 mode, which
    grows by tau per step: norm 1e-5 tau^k, past the guard (but finite) first
    at step 13."""
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=5))
    ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
    sys = build(g, 2)
    x0 = np.full((5, 1), 1e-5 / np.sqrt(5.0))
    cfg = ff.WeightConfig.scalar(2, 1.0, tau=1e12)
    scheme = ff.Scheme("spatial_framelet")
    trace = ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(50, plateau_window=10))
    assert trace.steps_to_plateau == 10 and trace.steps_run == 10
    np.testing.assert_allclose(trace.norms[1:], 1e-5 * 1e12 ** np.arange(1, 11), rtol=1e-12)
    np.testing.assert_allclose(trace.final_state, x0 * 1e120, rtol=1e-12)
    with pytest.raises(NumericOverflowError, match="at step 13;"):
        ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(50, plateau_window=13))


REPEATED_EIGENVALUES = {  # cycle 9: every eigenvalue but 0 is double; K_{7,12}: 1 has multiplicity 17
    "cycle9": ff.GraphSpec(kind="cycle", n=9),
    "k7_12": ff.GraphSpec(kind="complete_bipartite", m=7, n=12),
}
SCALAR_LINEAR = {  # kind -> (scales, WeightConfig.scalar keywords besides lambda_w)
    "spatial_framelet": (1, {"tau": 1.0}),
    "gradf_ufg": (2, {"tau": 0.05}),
    "activated": (2, {"tau": 0.05}),
    "ee_ufg": (2, {"epsilon": 0.2, "tau": 1.0}),
    "spectral_framelet": (1, {"tau": 1.0}),
    "perturbed_closed_form": (2, {"epsilon": 0.5, "tau": 0.05}),
}


TWIN_SCHEMES = {  # label -> (scheme, WeightConfig keywords besides the weights)
    "spatial_framelet": (ff.Scheme("spatial_framelet", renormalize=True), {"tau": 1.0}),
    "gradf_ufg": (ff.Scheme("gradf_ufg", renormalize=True), {"tau": 0.05}),
    "ee_ufg": (ff.Scheme("ee_ufg", renormalize=True), {"epsilon": 0.2}),
    "ee_ufg-relu": (ff.Scheme("ee_ufg", "relu", True), {"epsilon": 0.2}),
    "spectral_framelet": (ff.Scheme("spectral_framelet", renormalize=True), {}),
    "spectral_framelet-per-vertex": (ff.Scheme("spectral_framelet", renormalize=True), {}),
    "activated-relu": (ff.Scheme("activated", "relu", True), {"tau": 0.05}),
    "activated-tanh": (ff.Scheme("activated", "tanh"), {"tau": 0.05}),
    "perturbed_closed_form": (ff.Scheme("perturbed_closed_form", renormalize=True),
                              {"epsilon": 0.5, "tau": 0.05}),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(label=st.sampled_from(sorted(TWIN_SCHEMES)), c=st.integers(1, 5),
       scales=st.sampled_from([1, 2]), lambda_w=st.sampled_from([-30.0, -2.0, 0.5, 3.0, 30.0]),
       seed=st.integers(0, 2**16))
def test_scalar_weights_and_their_full_twin_give_one_run(label, c, scales, lambda_w, seed):
    """A `scalar` config (numbers) and its `full` twin (1 and lambda_w as
    multiples of I) take different paths, and give the same verdict and
    plateau step, with traces within 1e-12 relative."""
    rng = np.random.default_rng(seed)
    scheme, extra = TWIN_SCHEMES[label]
    scales = 2 if scheme.kind == "perturbed_closed_form" else scales
    sys = build(random_er_graph(rng, 12, p=0.4), scales)
    if scheme.kind == "spectral_framelet":  # one shared W: lambda_w sets theta instead
        theta = {b: 0.5 if b[0] == 0 else abs(lambda_w) for b in sys.bands}
        if label.endswith("per-vertex"):
            theta = {b: rng.uniform(0.0, 2.0, size=sys.n) for b in sys.bands}
        lambda_w, extra = 1.0, dict(extra, theta=theta)
    scalar = ff.WeightConfig.scalar(scales, lambda_w, **extra)
    full = ff.WeightConfig(omega={b: np.eye(c) for b in sys.bands},
                           w={b: w * np.eye(c) for b, w in scalar.w.items()}, **extra)
    x0, stop = rng.standard_normal((sys.n, c)), ff.StopRule(200)
    runs = []
    for cfg in (scalar, full):
        trace = ff.run_flow(scheme, sys, x0, cfg, stop)
        gains = trace.gains
        prediction = None if gains is None else ff.dominant_frequency(sys.spectrum, gains)
        verdict = None  # dominance is defined on renormalized runs only
        if scheme.renormalize:
            verdict = ff.classify_dominance(trace, sys.spectrum, prediction=prediction).dominance
        runs.append((trace, verdict, trace.steps_to_plateau))
    (numbers, *outcome), (matrices, *full_outcome) = runs
    assert outcome == full_outcome
    for column in ("norms", "dirichlet_normalized", "total_energy"):
        a, b = getattr(numbers, column), getattr(matrices, column)
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12 * np.max(np.abs(a)), err_msg=column)


def _stepped_reference(op, lam, h0, max_steps, scheme):
    """Rows (norm, E, energy) of ``op.step`` iterated on hhat, the last state,
    and the step at which the norm leaves (0, inf) or, unrenormalized, passes
    the guard.  The closed form records ||H(k tau)|| even when renormalized."""
    renormalize, norm0 = scheme.renormalize, float(np.linalg.norm(h0))
    e_norm = lambda h: 0.5 * float(np.vdot(h, lam[:, None] * h)) / float(np.vdot(h, h))  # noqa: E731
    rows, h = [(norm0, e_norm(h0), op.energy.quadratic(h0))], (h0 / norm0 if renormalize else h0)
    absolute, scale = renormalize and scheme.kind == "perturbed_closed_form", norm0
    for k in range(1, max_steps + 1):
        h = op.step(h)
        norm = float(np.linalg.norm(h))
        if norm == 0.0 or not np.isfinite(norm) or (not renormalize and norm > dynamics.OVERFLOW_GUARD):
            return np.array(rows), h, k
        h = h / norm if renormalize else h
        scale *= norm
        rows.append((scale if absolute else norm, e_norm(h), op.energy.quadratic(h)))
    return np.array(rows), h, None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(SCALAR_LINEAR)), graph=st.sampled_from(sorted(REPEATED_EIGENVALUES)),
       c=st.sampled_from([1, 3, 8]), renormalize=st.booleans(),
       lambda_w=st.sampled_from([-30.0, -2.0, 0.5, 1.0, 3.0, 30.0, 1e4]),
       plateau_tol=st.sampled_from([1e-9, 0.0]), seed=st.integers(0, 2**16))
def test_per_frequency_modes_match_stepping_the_same_operator(kind, graph, c, renormalize,
                                                              lambda_w, plateau_tol, seed):
    """With scalar weights a linear run takes one power-path mode per
    frequency; its rows, plateau step, verdict and failing step are those of
    stepping the scheme's own operator, on spectra with repeated eigenvalues.
    A zero plateau tolerance runs to the step cap or the overflow guard."""
    rng = np.random.default_rng(seed)
    scales, extra = SCALAR_LINEAR[kind]
    sys = build(ff.generate_graph(REPEATED_EIGENVALUES[graph]), scales)
    theta_high = 2.0
    if kind == "spectral_framelet":  # one shared W: the drawn number sets theta instead
        lambda_w, theta_high = 1.0, abs(lambda_w)
    theta = {b: np.full(sys.n, 0.5 if b[0] == 0 else theta_high) for b in sys.bands}
    cfg = ff.WeightConfig.scalar(scales, lambda_w, theta=theta, **extra)
    scheme, stop = ff.Scheme(kind, renormalize=renormalize), ff.StopRule(300, plateau_tol)
    x0 = rng.standard_normal((sys.n, c))
    op = dynamics._scheme_operator(scheme, sys, cfg, c)
    # one number per frequency, for the step and the governing energy alike
    assert op.one_step.shape[1:] == op.energy.per_frequency.shape[1:] == (1, 1)
    lam, u, h0 = sys.spectrum.eigenvalues, sys.spectrum.u, sys.spectrum.u @ x0
    rows, state, failed = _stepped_reference(op, lam, h0, stop.max_steps, scheme)
    plateau = stop.plateau_step([rows[:, 1]])
    if failed is not None and plateau is None:  # the run raises at the same step
        error = ZeroStateError if np.linalg.norm(state) == 0.0 else NumericOverflowError
        with pytest.raises(error, match=rf"at step {failed}(;|$)"):
            ff.run_flow(scheme, sys, x0, cfg, stop)
        if failed == 1:
            return
        stop = replace(stop, max_steps=failed - 1)
    trace = ff.run_flow(scheme, sys, x0, cfg, stop)
    last = stop.max_steps if plateau is None else plateau
    assert trace.steps_to_plateau == plateau and trace.steps_run == last
    rows, state, _ = _stepped_reference(op, lam, h0, last, scheme)
    norms, e_norms, energies = rows.T
    np.testing.assert_allclose(trace.norms, norms, rtol=1e-12)
    np.testing.assert_allclose(trace.dirichlet_normalized, e_norms, rtol=1e-12, atol=1e-12)
    # an energy is at most max |G_i| times the squared norm of the state it reads
    mass = np.ones_like(norms) if renormalize else norms ** 2
    mass[0] = norms[0] ** 2
    scale = np.max(np.abs(op.energy.per_frequency)) * mass
    assert np.all(np.abs(trace.total_energy - energies) <= 1e-12 * (np.abs(energies) + scale))
    final = u.T @ state
    np.testing.assert_allclose(trace.final_state, final, rtol=0,
                               atol=1e-12 * np.max(np.abs(final)))
    verdicts = [analysis.limit_dominance(plateau is not None, e, sys.spectrum.rho_l, 1e-6,
                                         sys.spectrum, x)[0]
                for e, x in ((rows[-1, 1], final), (trace.limit_value, trace.final_state))]
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("scales,variant", [(1, "tight"), (2, "tight"), (2, "paper_literal")])
@pytest.mark.parametrize("kind", ["spatial_framelet", "gradf_ufg", "ee_ufg", "spectral_framelet"])
def test_one_step_eigenvectors_diagonalize_the_governing_energy(rng, kind, scales, variant):
    sys, ahat, lap, cfg, _, _ = linear_case(rng, kind, "full", scales, variant, c=4)
    op = dynamics._scheme_operator(ff.Scheme(kind), sys, cfg, 4)
    _, q = dynamics._modes(op.one_step)
    for g_i, q_i in zip(op.energy.matrices, q):
        rotated = q_i.T @ g_i @ q_i
        off = rotated - np.diag(np.diag(rotated))
        assert np.max(np.abs(off)) <= 1e-12 * np.linalg.norm(g_i, 2)


def test_linear_run_applies_multipliers_once_per_block_at_most(rng, monkeypatch):
    sys, ahat, lap, cfg, _, _ = linear_case(rng, "ee_ufg", "full", 2, "tight")
    calls = []
    apply = framelets.Multiplier.apply
    monkeypatch.setattr(framelets.Multiplier, "apply", lambda self, h: calls.append(1) or apply(self, h))
    stop = ff.StopRule(max_steps=2000, plateau_tol=0.0)
    trace = ff.run_flow(ff.Scheme("ee_ufg", renormalize=True), sys,
                        rng.standard_normal((sys.n, 2)), cfg, stop)
    assert trace.steps_run == 2000
    assert len(calls) <= 2000 // dynamics.BLOCK + 4


@pytest.mark.parametrize(
    "kind,activation", [("spatial_framelet", "identity"), ("gradf_ufg", "identity"),
                        ("activated", "relu"), ("ee_ufg", "relu")]
)
def test_channel_mismatch_raises_before_the_flow_runs(rng, kind, activation):
    g, ahat, lap, sys, _ = setting(rng, n=8, scales=1)
    cfg = ff.WeightConfig.shared(1, np.eye(3), np.eye(3), epsilon=0.2, tau=0.05)
    scheme = ff.Scheme(kind, activation, renormalize=True)
    with pytest.raises(ff.DimensionMismatchError, match="signal has 2 channels"):
        ff.run_flow(scheme, sys, rng.standard_normal((8, 2)), cfg, ff.StopRule(50))


@pytest.mark.parametrize("kind,activation", [("activated", "relu"), ("activated", "tanh"),
                                             ("ee_ufg", "relu")])
def test_a_public_step_rejects_a_channel_mismatch(rng, kind, activation):
    g, ahat, lap, sys, h = setting(rng, n=8, scales=1, c=2)
    cfg = ff.WeightConfig.shared(1, np.eye(3), np.eye(3), epsilon=0.2, tau=0.05)
    with pytest.raises(ff.DimensionMismatchError, match="signal has 2 channels"):
        if kind == "activated":
            ff.step_activated(sys, h, None, cfg, activation)
        else:
            ff.step_ee_ufg(sys, h, cfg, activation)


@pytest.mark.parametrize("kind,activation", [("activated", "relu"), ("ee_ufg", "relu")])
def test_stepped_flows_decompose_no_one_step_eigenvectors(rng, monkeypatch, kind, activation):
    g, ahat, lap, sys, h = setting(rng, n=8, scales=2)
    cfg = ff.WeightConfig.scalar(2, 0.5, epsilon=0.2, tau=0.05)
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh was called"))
    trace = ff.run_flow(ff.Scheme(kind, activation, renormalize=True), sys, h, cfg,
                        ff.StopRule(20))
    assert trace.gains is not None and trace.steps_run == 20


def identity_basis(rng, scales, n=9):
    """A bank whose eigenbasis U is the identity, with Ahat = diag(1 - lam)
    and Lhat = diag(lam) for the spectrum of a random graph: vertex and
    spectral coordinates coincide bit for bit, so the vertex-domain steps
    replay run_flow exactly."""
    lam = ff.eigh(ff.normalized_laplacian(random_er_graph(rng, n, p=0.5))).eigenvalues
    sys = ff.build_framelet_system(ff.Spectrum(lam, np.eye(n)), scales)
    return sys, np.diag(1.0 - lam), np.diag(lam)


def stepped_config(rng, kind, weights, bands, c, with_source=False):
    tau, lambda_w = (1.0, 20.0) if kind == "ee_ufg" else (0.05, 0.5)
    source = {"w_tilde": {b: rng.standard_normal((c, c)) for b in bands}, "beta": 0.5}
    extra = dict(source if kind == "gradf_ufg" or with_source else {}, epsilon=0.1, tau=tau)
    if weights == "scalar":
        return ff.WeightConfig.scalar(len(bands) - 1, lambda_w, **extra)
    return ff.WeightConfig(
        omega={b: np.eye(c) + random_symmetric(rng, c, 0.2) for b in bands},
        w={b: random_symmetric(rng, c, lambda_w) for b in bands}, **extra,
    )


@pytest.mark.parametrize("weights", ["scalar", "full"])
@pytest.mark.parametrize(
    "kind,activation,renormalize,with_source",
    [pytest.param("activated", "relu", True, False, id="activated-relu-True"),
     pytest.param("activated", "tanh", False, False, id="activated-tanh-False"),
     pytest.param("activated", "relu", True, True, id="activated-relu-True-source"),
     pytest.param("activated", "tanh", False, True, id="activated-tanh-False-source"),
     pytest.param("gradf_ufg", "identity", True, True, id="gradf_ufg-identity-True"),
     pytest.param("ee_ufg", "relu", True, False, id="ee_ufg-relu-True"),
     pytest.param("spectral_framelet", "identity", True, False,
                  id="spectral_framelet-per-vertex-theta-True")],
)
def test_stepped_trace_replays_the_public_steps_bit_for_bit(rng, kind, activation, renormalize,
                                                            with_source, weights):
    """gradf_ufg always runs with a source term, so it steps rather than taking
    powers; with a source, activated descent folds it into its -tau grad.  A
    per-vertex theta_b is the one linear scheme that steps: its rows come from
    one band pass per block of states.  At c = 1, 3 and 8 on a random graph,
    the operator's step(h, out) writes into out, returns it, leaves h as it
    was and has the bits of a fresh step(h, None)."""
    scheme = ff.Scheme(kind, activation, renormalize)

    def config(sys, c):
        cfg = stepped_config(rng, kind, weights, sys.bands, c, with_source)
        if kind == "spectral_framelet":  # one shared W, a per-vertex theta_b
            theta = {b: rng.uniform(0.5, 1.5, sys.n) for b in sys.bands}
            cfg = replace(cfg, w=dict.fromkeys(sys.bands, cfg.w[sys.low_pass]), theta=theta)
        return cfg

    sys, ahat, lap = identity_basis(rng, 2)
    x0 = rng.standard_normal((sys.n, 3))
    cfg = config(sys, 3)
    steps, lam = 200, np.diag(lap)
    trace = ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(steps, plateau_tol=0.0))
    assert trace.steps_run == steps

    def step(x):
        if kind == "activated":
            return ff.step_activated(sys, x, x0, cfg, activation)
        if kind == "gradf_ufg":
            return ff.step_gradf_ufg(sys, x, x0, cfg)
        if kind == "spectral_framelet":
            return ff.step_spectral_framelet(sys, x, cfg)
        return ff.step_ee_ufg(sys, x, cfg, activation)

    energy_cfg = ff.energy_enhanced_omega(sys, cfg) if kind == "ee_ufg" else cfg
    initial = x0 if cfg.has_source else None

    def row(x, norm):
        e_norm = 0.5 * float(np.vdot(x, lam[:, None] * x)) / float(np.vdot(x, x))
        if kind == "spectral_framelet":
            return norm, e_norm, ff.spectral_energy(sys, x, cfg)
        return norm, e_norm, ff.total_framelet_energy(sys, x, energy_cfg, initial)

    rows = [row(x0, float(np.linalg.norm(x0)))]
    x = x0 / rows[0][0] if renormalize else x0
    for _ in range(steps):
        x = step(x)
        norm = float(np.linalg.norm(x))
        x = x / norm if renormalize else x
        rows.append(row(x, norm))
    norms, e_norms, energies = np.array(rows).T
    np.testing.assert_array_equal(trace.norms, norms)
    np.testing.assert_array_equal(trace.dirichlet_normalized, e_norms)
    np.testing.assert_array_equal(trace.total_energy, energies)
    np.testing.assert_array_equal(trace.final_state, x)
    for c in (1, 3, 8):  # the step contract on a random graph
        _, _, _, graph_sys, h = setting(rng, n=14, scales=2, c=c)
        cfg = config(graph_sys, c)
        h0 = rng.standard_normal(h.shape) if cfg.has_source else None
        op = dynamics._scheme_operator(scheme, graph_sys, cfg, c, h0)
        before, out = h.copy(), np.full_like(h, np.nan)
        assert op.step(h, out) is out
        np.testing.assert_array_equal(h, before)
        np.testing.assert_array_equal(out, op.step(h, None))


@pytest.mark.parametrize("activation,renormalize", [("relu", True), ("tanh", False)])
def test_stepped_descent_computes_one_energy_gradient_per_step(rng, monkeypatch, activation,
                                                               renormalize):
    g, ahat, lap, sys, h = setting(rng, n=8, scales=2)
    cfg = ff.WeightConfig.scalar(2, 0.5, tau=0.05)
    forms, calls = [], []
    build_form, apply = dynamics.framelet_energy_form, framelets.Multiplier.apply
    monkeypatch.setattr(dynamics, "framelet_energy_form",
                        lambda *a: forms.append(build_form(*a)) or forms[-1])
    monkeypatch.setattr(framelets.Multiplier, "apply", lambda self, h: calls.append(self) or apply(self, h))
    steps = 50
    trace = ff.run_flow(ff.Scheme("activated", activation, renormalize), sys, h, cfg,
                        ff.StopRule(steps, plateau_tol=0.0))
    assert trace.steps_run == steps
    [form] = forms
    assert sum(m is form for m in calls) <= steps + 3


def test_banded_ee_step_with_scalar_weights_applies_no_band_multiplier(rng, monkeypatch):
    g, ahat, lap, sys, h = setting(rng, n=8, scales=2)
    cfg = ff.WeightConfig.scalar(2, 20.0, epsilon=0.1, tau=1.0)
    calls, apply = [], framelets.Multiplier.apply
    monkeypatch.setattr(framelets.Multiplier, "apply", lambda self, h: calls.append(self) or apply(self, h))
    steps = 200
    trace = ff.run_flow(ff.Scheme("ee_ufg", "relu", True), sys, h, cfg,
                        ff.StopRule(steps, plateau_tol=0.0))
    assert trace.steps_run == steps
    # two for row 0, then one per block: the gradients of steps that do not read them
    assert len(calls) <= steps // dynamics.BLOCK + 3


@pytest.mark.parametrize("weights", ["scalar", "full"])
@pytest.mark.parametrize("kind", ["activated", "ee_ufg"])
def test_a_step_applies_no_energy_and_a_block_applies_it_once(rng, monkeypatch, kind, weights):
    """Descent folds -tau grad into its own per-frequency column or matrices, so
    only the rows apply the energy: once for row 0, then once per block (the
    rows' lam * h, by the system's Dirichlet map, is not counted)."""
    g, ahat, lap, sys, h = setting(rng, n=8, scales=2)
    cfg = stepped_config(rng, kind, weights, sys.bands, 3)
    calls, apply_into = [], framelets.Multiplier.apply_into

    def counted(self, x, out):
        if self is not sys.dirichlet:
            calls.append(self)
        return apply_into(self, x, out)

    monkeypatch.setattr(framelets.Multiplier, "apply_into", counted)
    steps = 200
    trace = ff.run_flow(ff.Scheme(kind, "relu", True), sys, h, cfg,
                        ff.StopRule(steps, plateau_tol=0.0))
    assert trace.steps_run == steps
    assert len(calls) <= steps // dynamics.BLOCK + 3


@pytest.mark.parametrize("weights", ["scalar", "full"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_an_activated_step_with_a_source_is_tau_act_of_minus_the_gradient(rng, activation,
                                                                         weights):
    g, ahat, lap, sys, x = setting(rng, n=9, scales=2)
    x0 = rng.standard_normal(x.shape)
    cfg = stepped_config(rng, "activated", weights, sys.bands, 3, with_source=True)
    act = np.tanh if activation == "tanh" else lambda z: np.maximum(z, 0.0)
    expected = x + cfg.tau * act(-ff.total_framelet_energy_gradient(sys, x, cfg, x0))
    out = ff.step_activated(sys, x, x0, cfg, activation)
    assert np.max(np.abs(out - expected)) <= EXACT_TOL * max(1.0, np.linalg.norm(x))


@pytest.mark.parametrize("weights", ["scalar", "full", "mixed"])
@pytest.mark.parametrize("n,c", [(9, 1), (9, 2), (9, 3), (9, 8), (64, 8)])
def test_banded_ee_analyses_every_band_with_the_bits_of_its_own_multiplier(rng, weights, n, c):
    """The banded step analyses all bands in one product (stacked mixers, or
    copies of H times one factor per band); each band's columns carry the bits
    of its own Multiplier around the same round trip and synthesis."""
    g, ahat, lap, sys, h = setting(rng, n=n, scales=2, c=c)
    w = {b: random_symmetric(rng, c, 20.0) for b in sys.bands}
    omega = dict.fromkeys(sys.bands, np.eye(c))
    if weights == "scalar":  # numbers: copies of H times one factor per band
        w, omega = {b: float(i + 1) for i, b in enumerate(sys.bands)}, dict.fromkeys(sys.bands, 1.0)
    elif weights == "mixed":
        w[sys.low_pass] = 3.0 * np.eye(c)
    cfg = ff.WeightConfig(omega=omega, w=w, epsilon=0.1)
    u, resp, shift = sys.spectrum.u, sys.responses, energies.band_shifts(sys, 0.1)
    a_hat = 1.0 - sys.spectrum.eigenvalues
    analyses = [framelets.Multiplier([(resp[b] * (a_hat - shift[b]), w[b])]).apply(h)
                for b in sys.bands]
    post = u @ np.maximum(u.T @ np.concatenate(analyses, axis=1), 0.0)
    post *= np.repeat(np.stack([resp[b] for b in sys.bands], axis=1), c, axis=1)
    step = dynamics._scheme_operator(ff.Scheme("ee_ufg", "relu"), sys, cfg, c).step(h)
    np.testing.assert_array_equal(step, post @ np.tile(np.eye(c), len(sys.bands)).T)
    per_band = sum(resp[b][:, None] * (u @ np.maximum(u.T @ x, 0.0))
                   for b, x in zip(sys.bands, analyses))
    assert np.max(np.abs(step - per_band)) <= EXACT_TOL * max(1.0, np.max(np.abs(per_band)))


@pytest.mark.parametrize("kind", ["activated", "ee_ufg"])
def test_a_stepped_run_allocates_less_than_one_matrix_of_the_size_of_u(rng, kind):
    """A step reads U and no other n x n matrix: a 64-step relu run at n = 400,
    c = 1 peaks below one n x n float64 array (its block buffers take 0.4 MB)."""
    n = 400
    sys = build(random_er_graph(rng, n, p=0.02), 2)
    cfg = stepped_config(rng, kind, "scalar", sys.bands, 1)
    x0 = rng.standard_normal((n, 1))
    tracemalloc.start()
    try:
        trace = ff.run_flow(ff.Scheme(kind, "relu", True), sys, x0, cfg,
                            ff.StopRule(64, plateau_tol=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps_run == 64
    assert peak < n * n * 8


def _rows(trace):
    return trace.steps, trace.norms, trace.dirichlet_normalized, trace.total_energy


@pytest.mark.parametrize("max_steps", [1, dynamics.BLOCK - 1, dynamics.BLOCK, dynamics.BLOCK + 1,
                                       2 * dynamics.BLOCK + 7])
@pytest.mark.parametrize("kind", ["activated", "ee_ufg"])
def test_a_plateau_inside_a_block_returns_the_rows_and_state_of_its_step(rng, kind, max_steps):
    """With an infinite tolerance the plateau rule fires at step plateau_window;
    the run must equal the same run capped there with the rule off."""
    sys, ahat, lap = identity_basis(rng, 2)
    x0 = rng.standard_normal((sys.n, 3))
    cfg = stepped_config(rng, kind, "scalar", sys.bands, 3)
    scheme = ff.Scheme(kind, "relu", renormalize=True)
    for window in sorted({1, max(1, max_steps // 2), max(1, max_steps - 1), max_steps}):
        stopped = ff.run_flow(scheme, sys, x0, cfg,
                              ff.StopRule(max_steps, plateau_tol=np.inf, plateau_window=window))
        capped = ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(window, plateau_tol=0.0))
        assert stopped.steps_to_plateau == window and capped.steps_to_plateau is None
        for a, b in zip(_rows(stopped), _rows(capped)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(stopped.final_state, capped.final_state)


@pytest.mark.parametrize("tau", [3.0, 130.0, 143.0, 1e4])  # overflow at steps 258, 65, 64, 36
def test_a_stepped_overflow_names_its_step_unless_the_plateau_fires_first(rng, tau):
    """Unrenormalized descent with a source term and a large tau; the failing
    step k comes from replaying the public steps (bit-equal on an identity basis)."""
    sys, ahat, lap = identity_basis(rng, 2)
    x0 = rng.standard_normal((sys.n, 3))
    cfg = ff.WeightConfig.scalar(2, 0.5, tau=tau, beta=0.5,
                                 w_tilde={b: rng.standard_normal((3, 3)) for b in sys.bands})
    x, k = x0, 0
    while float(np.linalg.norm(x)) <= dynamics.OVERFLOW_GUARD:
        x, k = ff.step_gradf_ufg(sys, x, x0, cfg), k + 1
    assert 1 < k < 400
    scheme = ff.Scheme("gradf_ufg", renormalize=False)
    with pytest.raises(NumericOverflowError, match=rf"at step {k};"):
        ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(400, plateau_tol=0.0))
    early = ff.run_flow(scheme, sys, x0, cfg,
                        ff.StopRule(400, plateau_tol=np.inf, plateau_window=k - 1))
    assert early.steps_to_plateau == early.steps_run == k - 1
    capped = ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(k - 1, plateau_tol=0.0))
    for a, b in zip(_rows(early), _rows(capped)):
        np.testing.assert_array_equal(a, b)


def growing_power_path_run():
    """Unrenormalized spatial_framelet on an ER graph (n = 14, seed 7) with
    tau = 1.64: the norm grows by about 1.64 a step and passes the guard at
    step 700, in block 11 (steps 641-704) of the batch of blocks 9-16."""
    g = ff.generate_graph(ff.GraphSpec(kind="erdos_renyi", n=14, p=0.4, seed=7))
    x0 = np.random.default_rng(3).standard_normal((14, 3))
    return build(g, 2), x0, ff.WeightConfig.scalar(2, 2.0, tau=1.64)


def test_a_power_path_overflow_inside_a_batch_names_its_step():
    """Passing the guard inside a batch raises at that step, 700, where
    stepping the operator passes it too; the run capped a step earlier stays
    under the guard."""
    sys, x0, cfg = growing_power_path_run()
    scheme = ff.Scheme("spatial_framelet", renormalize=False)
    with pytest.raises(NumericOverflowError, match="at step 700;"):
        ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(2000, plateau_tol=0.0))
    capped = ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(699, plateau_tol=0.0))
    assert capped.steps_run == 699 and capped.norms[-1] <= dynamics.OVERFLOW_GUARD
    op = dynamics._scheme_operator(scheme, sys, cfg, 3)
    h0 = sys.spectrum.u @ x0
    assert _stepped_reference(op, sys.spectrum.eigenvalues, h0, 2000, scheme)[2] == 700


@pytest.mark.parametrize("window,plateau", [(600, 629), (661, 690)])
def test_a_failing_row_past_the_plateau_in_its_batch_does_not_raise(window, plateau):
    """The batch that holds the plateau also holds the failing step 700, in a
    later block (629) or the same one (690): the run stops at the plateau
    with the rows and state of the run capped there."""
    sys, x0, cfg = growing_power_path_run()
    scheme = ff.Scheme("spatial_framelet", renormalize=False)
    stopped = ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(2000, plateau_window=window))
    capped = ff.run_flow(scheme, sys, x0, cfg, ff.StopRule(plateau, plateau_tol=0.0))
    assert stopped.steps_to_plateau == stopped.steps_run == plateau
    for a, b in zip(_rows(stopped), _rows(capped)):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(stopped.final_state, capped.final_state)


def test_a_power_path_run_reads_batches_as_long_as_the_blocks_before_them(monkeypatch):
    """5,000 steps, 79 blocks: batches of 1, 1, 2, 4, 8, 16 and 32 blocks,
    then the 14 whole blocks left and the 8-row tail, one product each."""
    sys, x0, cfg = growing_power_path_run()
    read, plateau_step = [], dynamics.StopRule.plateau_step

    def counted(self, blocks):
        return plateau_step(self, (read.append(len(e)) or e for e in blocks))

    monkeypatch.setattr(dynamics.StopRule, "plateau_step", counted)
    trace = ff.run_flow(ff.Scheme("spatial_framelet", renormalize=True), sys, x0,
                        replace(cfg, tau=1.0), ff.StopRule(5000, plateau_tol=0.0))
    assert trace.steps_run == 5000
    blocks = [1, 1, 2, 4, 8, 16, 32, 14]
    assert read == [1] + [dynamics.BLOCK * b for b in blocks] + [8]
