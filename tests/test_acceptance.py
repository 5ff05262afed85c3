"""Acceptance checklist.

Twelve numbered criteria gate this package; every test below belongs to one
criterion and prints a ``[acceptance] criterion N: PASS`` line on success
(visible with ``pytest -s``).  Tolerances are fixed here, not tuned.

Three sub-checks sit at the boundary of what the per-frequency gain analysis
allows, and assert exactly what that analysis guarantees there:

* test_c06_unit_weight_asserted_to_smooth - a unit weight smooths when the
  top frequency is below 2, and on the bipartite 6-cycle the 0-vs-2 gain tie
  is flagged MIXED and the limit is the mixture fixed by the initial state;
* test_c06_negative_large_weight_asserted_to_separate - a negative weight
  separates only past the threshold (1 + low^2(2)) / high^2(2), computed
  from the filter responses;
* test_c08_euler_agreement_large_shift - forward Euler matches the closed
  form at a step small enough for the eps = 10 decay rates, and converges at
  first order.

Their docstrings carry the numeric arguments.  Every test must pass.
"""

import json
import time

import numpy as np
import pytest

import frameflow as ff
from frameflow import cli

from conftest import (
    assemble_quadratic_operator,
    central_diff_gradient,
    random_symmetric,
    spatial_step_operator,
    spectral_step_operator,
    vec,
)


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({message})")


def er_graph(seed: int, n: int, self_loops: bool = False, p: float = 0.4) -> ff.Graph:
    return ff.generate_graph(
        ff.GraphSpec(kind="erdos_renyi", n=n, p=p, seed=seed, self_loops=self_loops)
    )


def c6_setting(scales: int, channels: int = 2, seed: int = 5, self_loops: bool = False):
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=6, self_loops=self_loops))
    lap = ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    sys = ff.build_framelet_system(spec, scales)
    h0 = np.random.default_rng(seed).standard_normal((6, channels))
    return ff.normalized_adjacency(g), lap, spec, sys, h0


def run_scalar(lambda_w: float, scales: int, max_steps: int = 50_000, self_loops: bool = False):
    ahat, lap, spec, sys, h0 = c6_setting(scales, self_loops=self_loops)
    cfg = ff.WeightConfig.scalar(scales, lambda_w, tau=1.0)
    trace = ff.run_flow(
        ff.Scheme("spatial_framelet", renormalize=True),
        sys, h0, cfg, ff.StopRule(max_steps=max_steps),
    )
    return trace, spec


def predict(trace: ff.FlowTrace, spec) -> ff.DominancePrediction:
    """The prediction from the per-frequency gains the run recorded."""
    return ff.dominant_frequency(spec, trace.gains)


# ---------------------------------------------------------------------------
# 1. Tightness and perfect reconstruction at desk scale
# ---------------------------------------------------------------------------


def test_c01_tight_transforms_and_reconstruction():
    t0 = time.perf_counter()
    size_rng = np.random.default_rng(101)
    signal_rng = np.random.default_rng(102)
    for i in range(50):
        n = int(size_rng.integers(3, 51))
        g = er_graph(seed=1000 + i, n=n, self_loops=(i % 2 == 1))
        spectrum = ff.eigh(ff.normalized_laplacian(g))
        for scales in (1, 2):
            sys = ff.build_framelet_system(spectrum, scales)
            acc = sum(sys.transforms[b].T @ sys.transforms[b] for b in sys.bands)
            assert np.linalg.norm(acc - np.eye(n)) <= 1e-10
            h = signal_rng.standard_normal((n, 3))
            back = ff.reconstruct(sys, ff.decompose(sys, h))
            assert np.linalg.norm(back - h) <= 1e-10 * np.linalg.norm(h)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(1, f"50 graphs x 2 scales, worst-case bounds held, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Dirichlet energy is conserved across bands
# ---------------------------------------------------------------------------


def test_c02_band_energy_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for i in range(100):
        n = int(rng.integers(3, 21))
        g = er_graph(seed=2000 + i, n=n, self_loops=(i % 3 == 0))
        lap = ff.normalized_laplacian(g)
        spectrum = ff.eigh(lap)
        h = rng.standard_normal((n, int(rng.integers(1, 4))))
        reference = ff.dirichlet_energy(lap, h)
        for scales in (1, 2):
            sys = ff.build_framelet_system(spectrum, scales)
            _, total = ff.framelet_dirichlet_energies(sys, h)
            assert abs(total - reference) <= 1e-8 * max(1.0, reference)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"100 graph/signal pairs, both scale counts, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Shared weights collapse the band energy; identity weights give Dirichlet
# ---------------------------------------------------------------------------


def test_c03_shared_weight_reduction_and_dirichlet_special_case():
    rng = np.random.default_rng(303)
    for i in range(10):
        n, c = int(rng.integers(4, 16)), int(rng.integers(1, 4))
        g = er_graph(seed=3000 + i, n=n)
        ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
        spectrum = ff.eigh(lap)
        h = rng.standard_normal((n, c))
        for scales in (1, 2):
            sys = ff.build_framelet_system(spectrum, scales)
            omega, w = random_symmetric(rng, c), random_symmetric(rng, c)
            total = ff.total_framelet_energy(
                sys, h, ff.WeightConfig.shared(scales, omega, w)
            )
            plain = ff.generalized_energy(ahat, h, omega, w)
            assert abs(total - plain) <= 1e-8 * max(1.0, abs(plain))
        eye = np.eye(c)
        assert abs(
            ff.generalized_energy(ahat, h, eye, eye) - ff.dirichlet_energy(lap, h)
        ) <= 1e-9
    report(3, "shared-weight collapse <= 1e-8 and identity-weight Dirichlet <= 1e-9")


# ---------------------------------------------------------------------------
# 4. Every analytic gradient matches central finite differences
# ---------------------------------------------------------------------------


def test_c04_gradient_finite_difference_checks():
    rng = np.random.default_rng(404)
    h_step, rtol = 1e-6, 1e-5

    def close(analytic, numeric):
        assert np.linalg.norm(analytic - numeric) <= rtol * max(
            1.0, float(np.linalg.norm(numeric))
        )

    for i in range(20):
        n, c = int(rng.integers(3, 13)), int(rng.integers(1, 5))
        scales = 1 + i % 2
        g = er_graph(seed=4000 + i, n=n)
        ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
        sys = ff.build_framelet_system(ff.eigh(lap), scales)
        h = rng.standard_normal((n, c))
        h0 = rng.standard_normal((n, c))
        base = ff.WeightConfig(
            omega={b: random_symmetric(rng, c) for b in sys.bands},
            w={b: random_symmetric(rng, c) for b in sys.bands},
        )
        close(
            ff.total_framelet_energy_gradient(sys, h, base),
            central_diff_gradient(
                lambda x: ff.total_framelet_energy(sys, x, base), h, h_step
            ),
        )
        sourced = ff.WeightConfig(
            omega=base.omega,
            w=base.w,
            w_tilde={b: rng.standard_normal((c, c)) for b in sys.bands},
            beta=float(rng.uniform(0.2, 2.0)),
        )
        close(
            ff.total_framelet_energy_gradient(sys, h, sourced, initial=h0),
            central_diff_gradient(
                lambda x: ff.total_framelet_energy(sys, x, sourced, initial=h0),
                h, h_step,
            ),
        )
        spectral_cfg = ff.WeightConfig.shared(
            scales, np.eye(c), random_symmetric(rng, c),
            theta={b: rng.uniform(0.0, 2.0, size=n) for b in sys.bands},
        )
        close(
            ff.spectral_energy_gradient(sys, h, spectral_cfg),
            central_diff_gradient(
                lambda x: ff.spectral_energy(sys, x, spectral_cfg), h, h_step
            ),
        )
        eps = float(rng.uniform(0.1, 2.0))
        close(
            ff.perturbed_energy_gradient(sys, h, eps),
            central_diff_gradient(
                lambda x: ff.perturbed_energy(sys, x, eps), h, h_step
            ),
        )
    report(4, "20 instances x 4 energies, relative error <= 1e-5")


# ---------------------------------------------------------------------------
# 5. Exact equivalences between scheme code paths
# ---------------------------------------------------------------------------


def test_c05_exact_scheme_equivalences():
    rng = np.random.default_rng(505)
    for i in range(10):
        n, c = int(rng.integers(4, 14)), int(rng.integers(1, 4))
        scales = 1 + i % 2
        g = er_graph(seed=5000 + i, n=n, self_loops=(i % 2 == 0))
        ahat = ff.normalized_adjacency(g)
        sys = ff.build_framelet_system(ff.eigh(ff.normalized_laplacian(g)), scales)
        h = rng.standard_normal((n, c))
        scale = max(1.0, float(np.linalg.norm(h)))
        w = {b: random_symmetric(rng, c) for b in sys.bands}
        eye = {b: np.eye(c) for b in sys.bands}

        conv_cfg = ff.WeightConfig(omega=eye, w=w, tau=1.0)
        gap = ff.step_gradf_ufg(sys, h, None, conv_cfg) - ff.step_spatial_framelet(
            sys, h, conv_cfg
        )
        assert np.linalg.norm(gap) <= 1e-12 * scale

        ee_cfg = ff.WeightConfig(omega=eye, w=w, epsilon=float(rng.uniform(0.1, 1.0)), tau=1.0)
        gap = ff.step_ee_ufg(sys, h, ee_cfg) - ff.step_gradf_ufg(
            sys, h, None, ff.energy_enhanced_omega(sys, ee_cfg)
        )
        assert np.linalg.norm(gap) <= 1e-12 * scale

        shared_w = random_symmetric(rng, c)
        shared_cfg = ff.WeightConfig.shared(scales, np.eye(c), shared_w, tau=1.0)
        gap = ff.step_spatial_framelet(sys, h, shared_cfg) - ahat @ h @ shared_w
        assert np.linalg.norm(gap) <= 1e-10 * scale
    report(5, "descent/convolution identities <= 1e-12, one-hop collapse <= 1e-10")


# ---------------------------------------------------------------------------
# 6. Scalar-weight dominance on the 6-cycle
# ---------------------------------------------------------------------------


def test_c06_positive_large_weight_separates():
    t0 = time.perf_counter()
    for scales in (1, 2):
        trace, spec = run_scalar(10.0, scales)
        verdict = ff.classify_dominance(trace, spec)
        assert trace.steps_run <= 50_000
        assert verdict.dominance == ff.HFD
        assert abs(verdict.limit_value - 1.0) <= 1e-3
        cosine = np.sqrt(max(0.0, 1.0 - verdict.residual**2))
        assert cosine >= 1.0 - 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"high-pass weight 10: HFD limit within 1e-3 at both scale counts, {elapsed:.1f}s")


def test_c06_small_weights_smooth():
    t0 = time.perf_counter()
    for scales in (1, 2):
        for lambda_w in (0.5, -0.5):
            trace, spec = run_scalar(lambda_w, scales)
            verdict = ff.classify_dominance(trace, spec)
            assert trace.steps_run <= 50_000
            assert verdict.dominance == ff.LFD
            assert verdict.limit_value <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"high-pass weights +-0.5: LFD limit <= 1e-6 at both scale counts, {elapsed:.1f}s")


def test_c06_unit_weight_asserted_to_smooth():
    """Unit high-pass weight: smooths when rho_L < 2, ties on the bipartite cycle.

    With every band weight equal to 1 the step collapses to plain one-hop
    propagation, whose per-frequency gain is 1 - lam.  With self-loops the
    6-cycle has rho_L = 4/3 < 2, so frequency 0 wins strictly (|gain| 1
    against at most 1/3): prediction and verdict are LFD and the limit is
    about 4e-13 after 35 steps.

    Without self-loops the 6-cycle is bipartite, so frequencies 0 and 2 both
    carry |gain| = 1.  dominant_frequency reports this tie as MIXED (margin
    0), and the run plateaus at MIXED: the alternating top-frequency
    component never decays relative to the constant one.  The limit is the
    mixture fixed by the initial state, (rho_L / 2) * a / (a + b) = a / (a + b)
    with a = ||top projection of h0||^2 and b = ||kernel projection of
    h0||^2; that is 0.797 for this seed.
    """
    for scales in (1, 2):
        trace, spec = run_scalar(1.0, scales, self_loops=True)
        assert spec.rho_l < 2.0
        pred = predict(trace, spec)
        verdict = ff.classify_dominance(trace, spec, prediction=pred)
        assert pred.dominance == ff.LFD and verdict.dominance == ff.LFD
        assert verdict.limit_value <= 1e-6

        trace, spec = run_scalar(1.0, scales)
        pred = predict(trace, spec)
        verdict = ff.classify_dominance(trace, spec, prediction=pred)
        assert pred.dominance == ff.MIXED and pred.margin <= 1e-9
        assert trace.plateaued and verdict.dominance == ff.MIXED
        h0 = c6_setting(scales)[-1]
        a = float(np.linalg.norm(ff.hfd_projection(spec, h0))) ** 2
        b = float(np.linalg.norm(ff.kernel_projection(spec, h0))) ** 2
        assert abs(verdict.limit_value - a / (a + b)) <= 1e-9, (
            f"unit weight at J={scales}: limit {verdict.limit_value:.12f}, "
            f"initial mixture {a / (a + b):.12f}"
        )
    report(6, "unit weight smooths for rho_L < 2; bipartite tie MIXED at the initial mixture")


def negative_weight_threshold(scales: int) -> float:
    """Magnitude beyond which a negative weight wins frequency 2 over 0.

    At lam = 2 the gain is -(low^2 + lambda_w * high^2); with lambda_w < 0
    its magnitude exceeds the gain 1 at frequency 0 only once
    |lambda_w| > (1 + low^2(2)) / high^2(2).
    """
    responses = ff.haar_response(2.0, scales)
    low_sq = float(responses[(0, scales)]) ** 2
    high_sq = sum(float(v) ** 2 for b, v in responses.items() if b != (0, scales))
    return (1.0 + low_sq) / high_sq


def test_c06_negative_large_weight_asserted_to_separate():
    """A negative high-pass weight separates, but only past its threshold.

    The top-frequency gain at lam = 2 is |low^2(2) + lambda_w * high^2(2)|;
    at one scale and lambda_w = -10 that is |0.9388 - 0.6121| = 0.327, far
    below the gain 1 at frequency 0, so -10 smooths (LFD) where +10
    separates.  A negative weight wins the top frequency only once
    |lambda_w| > (1 + low^2(2)) / high^2(2): 31.68 at one scale, 25.38 at
    two.  Past that threshold (-40) the run separates exactly as +10 does.
    """
    for scales in (1, 2):
        threshold = negative_weight_threshold(scales)
        assert 10.0 < threshold < 40.0

        trace, spec = run_scalar(-10.0, scales)
        pred = predict(trace, spec)
        verdict = ff.classify_dominance(trace, spec, prediction=pred)
        assert pred.dominance == ff.LFD and verdict.dominance == ff.LFD

        trace, spec = run_scalar(-40.0, scales)
        pred = predict(trace, spec)
        verdict = ff.classify_dominance(trace, spec, prediction=pred)
        assert trace.steps_run <= 50_000
        assert pred.dominance == ff.HFD
        assert verdict.dominance == ff.HFD, (
            f"weight -40 at J={scales} (threshold {threshold:.2f}): "
            f"verdict {verdict.dominance}, limit {verdict.limit_value:.6f}"
        )
        assert abs(verdict.limit_value - 1.0) <= 1e-3
        cosine = np.sqrt(max(0.0, 1.0 - verdict.residual**2))
        assert cosine >= 1.0 - 1e-6
    report(6, "weight -10 below the negative threshold smooths; -40 past it separates")


# ---------------------------------------------------------------------------
# 7. Uniform spectral filters on the 6-cycle
# ---------------------------------------------------------------------------


def test_c07_spectral_filter_dominance():
    ahat, lap, spec, sys, h0 = c6_setting(1)
    outcomes = {}
    for theta in (4.0, 0.25, 1.0):
        theta_map = {b: np.full(6, 1.0 if b[0] == 0 else theta) for b in sys.bands}
        cfg = ff.WeightConfig.shared(1, np.eye(2), np.eye(2), theta=theta_map, tau=1.0)
        trace = ff.run_flow(
            ff.Scheme("spectral_framelet", renormalize=True),
            sys, h0, cfg, ff.StopRule(max_steps=50_000),
        )
        pred = predict(trace, spec)
        outcomes[theta] = (pred, ff.classify_dominance(trace, spec, prediction=pred))
    pred, verdict = outcomes[4.0]
    assert pred.dominance == ff.HFD and verdict.dominance == ff.HFD
    assert abs(verdict.limit_value - 1.0) <= 1e-3
    pred, verdict = outcomes[0.25]
    assert pred.dominance == ff.LFD and verdict.dominance == ff.LFD
    assert verdict.limit_value <= 1e-6
    pred, verdict = outcomes[1.0]
    assert pred.dominance == ff.MIXED and pred.margin <= 1e-9  # flat gain profile
    report(7, "theta 4 -> HFD, theta 0.25 -> LFD, theta 1 flagged degenerate")


# ---------------------------------------------------------------------------
# 8. Closed-form perturbed flow: decay, bound, and Euler cross-check
# ---------------------------------------------------------------------------


def perturbed_cases():
    rng = np.random.default_rng(808)
    for i in range(10):
        n = int(rng.integers(4, 17))
        g = er_graph(seed=8000 + i, n=n)
        lap = ff.normalized_laplacian(g)
        spectrum = ff.eigh(lap)
        h0 = rng.standard_normal((n, 2))
        yield g, lap, spectrum, h0


def test_c08_perturbed_flow_decay_and_bound():
    # t capped at 10: beyond that the true energy drops below the float64
    # noise of the slowly-decaying kernel component and comparisons become
    # noise-vs-noise.  Within the grid the bound spans ~7 decades.
    times = np.logspace(-2.0, 1.0, 12)
    for _, lap, spectrum, h0 in perturbed_cases():
        sys = ff.build_framelet_system(spectrum, 2)
        lams = np.maximum(spectrum.eigenvalues, 0.0)
        positive = lams[lams > 1e-9]
        for eps in (0.1, 1.0, 10.0):
            rates = positive + eps * ff.energy_gap(positive)
            slowest = float(np.min(rates))
            bound0 = 0.5 * spectrum.rho_l * float(np.sum(h0 * h0))
            previous = np.inf
            for t in times:
                value = ff.dirichlet_energy(lap, ff.perturbed_closed_form(sys, h0, eps, t))
                assert value <= previous + 1e-12
                assert value <= bound0 * np.exp(-2.0 * t * slowest) * (1.0 + 1e-9)
                previous = value
    report(8, "monotone decay under the exponential-envelope bound, eps in {0.1, 1, 10}")


def _euler_gap(
    lap: np.ndarray, spectrum, h0: np.ndarray, eps: float, tau: float = 1e-4
) -> float:
    gap_matrix = spectrum.u.T @ np.diag(ff.energy_gap(np.maximum(spectrum.eigenvalues, 0.0))) @ spectrum.u
    generator = lap + eps * gap_matrix
    t_end = 0.1
    state = h0.copy()
    for _ in range(int(round(t_end / tau))):
        state = state - tau * (generator @ state)
    exact = ff.perturbed_closed_form(ff.build_framelet_system(spectrum, 2), h0, eps, t_end)
    return float(np.linalg.norm(state - exact) / np.linalg.norm(exact))


def test_c08_euler_agreement_small_shift():
    for _, lap, spectrum, h0 in perturbed_cases():
        for eps in (0.0, 0.1, 1.0):
            assert _euler_gap(lap, spectrum, h0, eps) <= 1e-4
    report(8, "forward Euler (tau=1e-4) within 1e-4 of the closed form at t=0.1, eps <= 1")


def test_c08_euler_agreement_large_shift():
    """Forward Euler at eps = 10: within 1e-4 at tau = 1e-5, first order in tau.

    First-order Euler carries a relative truncation error of about
    t * tau * rate^2 / 2 per frequency.  With eps = 10 every decay rate is
    at least eps * gap >= 10 * 0.848, so at tau = 1e-4 the error floor is
    roughly 0.1 * 1e-4 * 10^2 / 2 ~ 5e-4 on any graph (measured 5.3e-4 to
    5.6e-4), above the 1e-4 tolerance.  One tenth of that step brings the
    gap under the same tolerance, and the ratio of the two gaps must be
    about 10, as it is for a first-order scheme converging to the closed
    form.
    """
    for _, lap, spectrum, h0 in perturbed_cases():
        coarse = _euler_gap(lap, spectrum, h0, 10.0, tau=1e-4)
        fine = _euler_gap(lap, spectrum, h0, 10.0, tau=1e-5)
        assert fine <= 1e-4, f"eps=10 Euler relative gap {fine:.2e} at tau=1e-5"
        assert 9.0 <= coarse / fine <= 11.0, f"gap ratio {coarse / fine:.3f}, not first order"
    report(8, "forward Euler (tau=1e-5) within 1e-4 at eps = 10; gap ratio ~10 per decade of tau")


# ---------------------------------------------------------------------------
# 9. Activated descent: per-step bound and small-step monotonicity
# ---------------------------------------------------------------------------


def activated_cases():
    rng = np.random.default_rng(909)
    for i in range(10):
        n, c = int(rng.integers(4, 9)), int(rng.integers(1, 4))
        g = er_graph(seed=9000 + i, n=n)
        ahat = ff.normalized_adjacency(g)
        sys = ff.build_framelet_system(ff.eigh(ff.normalized_laplacian(g)), 1 + i % 2)
        cfg_mats = dict(
            omega={b: random_symmetric(rng, c) for b in sys.bands},
            w={b: random_symmetric(rng, c) for b in sys.bands},
        )
        h0 = rng.standard_normal((n, c))
        yield ahat, sys, cfg_mats, h0


def test_c09_activated_descent_bound():
    steps = 1000
    for ahat, sys, cfg_mats, h0 in activated_cases():
        cfg = ff.WeightConfig(**cfg_mats, tau=1e-3)
        c_m = float(np.max(np.abs(np.linalg.eigvalsh(assemble_quadratic_operator(sys, ahat, cfg)))))
        for activation in ("relu", "tanh"):
            state = h0
            energy = ff.total_framelet_energy(sys, state, cfg)
            for _ in range(steps):
                nxt = ff.step_activated(sys, state, None, cfg, activation)
                nxt_energy = ff.total_framelet_energy(sys, nxt, cfg)
                gap = float(np.linalg.norm(nxt - state)) ** 2
                assert nxt_energy <= energy + c_m * gap + 1e-12
                state, energy = nxt, nxt_energy
    report(9, "per-step quadratic descent bound held for relu and tanh, tau = 1e-3")


def test_c09_activated_descent_monotone_small_step():
    steps = 1000
    for ahat, sys, cfg_mats, h0 in activated_cases():
        cfg = ff.WeightConfig(**cfg_mats, tau=1e-4)
        for activation in ("relu", "tanh"):
            state = h0
            energy = ff.total_framelet_energy(sys, state, cfg)
            for _ in range(steps):
                state = ff.step_activated(sys, state, None, cfg, activation)
                nxt_energy = ff.total_framelet_energy(sys, state, cfg)
                assert nxt_energy <= energy + 1e-9
                energy = nxt_energy
    report(9, "energy non-increasing within 1e-9 slack per step at tau = 1e-4")


# ---------------------------------------------------------------------------
# 10. The per-frequency gap profile
# ---------------------------------------------------------------------------


def test_c10_energy_gap_profile():
    grid = np.linspace(0.0, 2.0, 10_000)
    gaps = ff.energy_gap(grid)
    assert float(np.min(gaps)) >= -1e-12
    assert ff.energy_gap(0.0) == 1.0
    assert ff.energy_gap(2.0) == pytest.approx(0.8483976, abs=1e-6)
    report(10, "gap >= 0 on a 10^4 grid, gap(0)=1, gap(2)=0.8483976")


# ---------------------------------------------------------------------------
# 11. Matrix steps equal their vectorized (Kronecker) forms
# ---------------------------------------------------------------------------


def test_c11_vectorized_oracle_equivalence():
    rng = np.random.default_rng(1111)
    n, c = 8, 3  # n*c = 24 <= 64
    g = er_graph(seed=11000, n=n)
    ahat = ff.normalized_adjacency(g)
    spectrum = ff.eigh(ff.normalized_laplacian(g))
    sys = ff.build_framelet_system(spectrum, 2)
    h = rng.standard_normal((n, c))
    tol = 1e-10 * max(1.0, float(np.linalg.norm(h)))
    omega = {b: random_symmetric(rng, c) for b in sys.bands}
    w = {b: random_symmetric(rng, c) for b in sys.bands}

    cfg = ff.WeightConfig(omega=omega, w=w, tau=0.6)
    out = ff.step_spatial_framelet(sys, h, cfg)
    assert np.linalg.norm(vec(out) - spatial_step_operator(sys, ahat, cfg) @ vec(h)) <= tol

    grad_op = 2.0 * assemble_quadratic_operator(sys, ahat, cfg)
    out = ff.step_gradf_ufg(sys, h, None, cfg)
    assert np.linalg.norm(vec(out) - (vec(h) - cfg.tau * grad_op @ vec(h))) <= tol

    out = ff.step_activated(sys, h, None, cfg, "relu")
    oracle = vec(h) + cfg.tau * np.maximum(-(grad_op @ vec(h)), 0.0)
    assert np.linalg.norm(vec(out) - oracle) <= tol

    ee_cfg = ff.WeightConfig(omega=omega, w=w, epsilon=0.3, tau=1.0)
    shifted = ff.energy_enhanced_omega(sys, ee_cfg)
    out = ff.step_ee_ufg(sys, h, ee_cfg)
    oracle = vec(h) - 2.0 * assemble_quadratic_operator(sys, ahat, shifted) @ vec(h)
    assert np.linalg.norm(vec(out) - oracle) <= tol

    sp_cfg = ff.WeightConfig.shared(
        2, np.eye(c), random_symmetric(rng, c),
        theta={b: rng.uniform(0.0, 2.0, size=n) for b in sys.bands}, tau=0.8,
    )
    out = ff.step_spectral_framelet(sys, h, sp_cfg)
    assert np.linalg.norm(vec(out) - spectral_step_operator(sys, sp_cfg) @ vec(h)) <= tol

    eps, t = 0.7, 0.9
    rates = np.maximum(spectrum.eigenvalues, 0.0)
    rates = rates + eps * ff.energy_gap(rates)
    generator = np.kron(np.eye(c), spectrum.u.T @ np.diag(rates) @ spectrum.u)
    gw, gv = np.linalg.eigh(generator)
    oracle = gv @ (np.exp(-gw * t) * (gv.T @ vec(h)))
    out = ff.perturbed_closed_form(sys, h, eps, t)
    assert np.linalg.norm(vec(out) - oracle) <= tol
    report(11, "all six schemes match their Kronecker forms <= 1e-10")


# ---------------------------------------------------------------------------
# 12. Runner determinism and sweep agreement
# ---------------------------------------------------------------------------


def test_c12_cli_determinism_and_sweep_agreement(tmp_path):
    cfg = {
        "graph": {"kind": "cycle", "n": 6, "self_loops": False},
        "framelet": {"scales": 1, "variant": "tight"},
        "scheme": {"kind": "spatial_framelet"},
        "weights": {"mode": "scalar", "lambda_w": 10.0},
        "init": {"mode": "random_normal", "seed": 7, "channels": 2},
        "run": {"steps": 20000, "tol": 1e-6, "plateau_window": 10, "renormalize": True},
        "output": {"csv": "trace.csv", "summary": "summary.json"},
    }
    a, b = tmp_path / "a", tmp_path / "b"
    cli.run_config(cfg, a)
    cli.run_config(cfg, b)
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    grid = [0.25, 0.5, 1.0, 2.0, 10.0]
    rows = cli.sweep_config(cfg, "lambda_w", grid, tmp_path)
    checked = 0
    for row in rows:
        degenerate = row["predicted"] not in (ff.LFD, ff.HFD) or row["margin"] < 0.01
        if not degenerate:
            assert row["measured"] == row["predicted"], row
            checked += 1
    assert checked == 4  # the unit-weight row is the only degenerate one
    sweep_text = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert [ln.split(",")[0] for ln in sweep_text[1:]] == [repr(v) for v in grid]
    report(12, "byte-identical reruns; 4/5 sweep rows non-degenerate and all agree")
