import json
import tracemalloc

import numpy as np
import pytest

import frameflow as ff
from frameflow import cli
from frameflow.errors import DimensionMismatchError, NoConvergenceError, NotSymmetricError
from frameflow.spectral import _fix_signs, _transpose_in_place

from conftest import random_er_graph


def two_node_laplacian():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    return ff.normalized_laplacian(g)


def test_two_node_eigenpairs():
    spec = ff.eigh(two_node_laplacian())
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(spec.u[0], [r, r], atol=1e-12)
    np.testing.assert_allclose(spec.u[1], [r, -r], atol=1e-12)


def test_identity_spectrum_keeps_sign_convention():
    spec = ff.eigh(np.eye(3))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(spec.u, np.eye(3))


def test_cycle_four_spectrum():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=4))
    spec = ff.eigh(ff.normalized_laplacian(g))
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-10)
    assert spec.top_multiplicity == 1


SOLVERS = [ff.eigh, ff.spectral.eigvalsh]


@pytest.mark.parametrize("solve", SOLVERS)
def test_asymmetric_input_rejected(solve):
    m = np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])
    with pytest.raises(NotSymmetricError, match="asymmetry 1.000e-09 exceeds 1e-12"):
        solve(m)


@pytest.mark.parametrize("solve", SOLVERS)
def test_nonsquare_rejected(solve):
    with pytest.raises(DimensionMismatchError):
        solve(np.zeros((2, 3)))


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_raises_no_convergence(solve, bad):
    with pytest.raises(NoConvergenceError):
        solve(np.array([[0.0, bad], [bad, 1.0]]))


def test_eigvalsh_failure_raises_no_convergence(monkeypatch):
    def failing(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        ff.spectral.eigvalsh(np.eye(2))


def test_eigvalsh_matches_eigh(rng):
    lap = ff.normalized_laplacian(random_er_graph(rng, 80, 0.1))
    values = ff.spectral.eigvalsh(lap)
    np.testing.assert_allclose(values, ff.eigh(lap).eigenvalues, rtol=0, atol=1e-12)


def test_transpose_in_place_has_the_bits_of_a_copy(rng):
    for n in (5, 256, 600):  # one block, exactly one, and blocks with a remainder
        a = rng.standard_normal((n, n))
        expected = a.T.copy()
        assert _transpose_in_place(a).tobytes() == expected.tobytes()


def test_eigenbasis_is_lapacks_transposed_and_sign_fixed(rng):
    lap = ff.normalized_laplacian(random_er_graph(rng, 600, 0.02))
    eigenvalues, v = np.linalg.eigh(lap)
    spec = ff.eigh(lap)
    assert spec.eigenvalues.tobytes() == eigenvalues.tobytes()
    assert spec.u.tobytes() == _fix_signs(np.ascontiguousarray(v.T)).tobytes()


def test_eigh_peak_memory_at_n1000():
    """Above its input, eigh peaks at about 1.25 n^2 doubles: one temporary
    for the symmetry check, then LAPACK's eigenvectors, transposed in place,
    and boolean masks for the sign fix.  A copy of U beside LAPACK's output
    and two temporaries for the check made 3.13 n^2."""
    g = ff.generate_graph(ff.GraphSpec(kind="erdos_renyi", n=1000, p=0.01, seed=3))
    lap = ff.normalized_laplacian(g)
    ff.eigh(np.eye(4))  # every lazy import and allocation cache before tracing
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        spec = ff.eigh(lap)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert spec.n == 1000
    assert peak < 1.5 * 1000 * 1000 * 8


def test_lapack_failure_exits_seven(tmp_path, monkeypatch, capsys):
    def failing_eigh(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    cfg = {
        "graph": {"kind": "cycle", "n": 6},
        "weights": {"mode": "scalar", "lambda_w": 2.0},
        "init": {"mode": "random_normal", "seed": 5, "channels": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 7
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _fix_signs_loop(u_rows):
    for i in range(u_rows.shape[0]):
        row = u_rows[i]
        above = np.nonzero(np.abs(row) > 1e-12)[0]
        if above.size and row[above[0]] < 0.0:
            u_rows[i] = -row
    return u_rows


def test_fix_signs_matches_row_loop(rng):
    m = rng.standard_normal((40, 9))
    m[rng.random(m.shape) < 0.4] = 0.0
    m[rng.random(m.shape) < 0.2] *= 1e-13
    m[3] = 0.0
    m[4] = [-1e-13] + [0.0] * 8
    expected = _fix_signs_loop(m.copy())
    got = _fix_signs(m.copy())
    assert got.tobytes() == expected.tobytes()


def test_orthonormality_and_reconstruction(rng):
    for _ in range(6):
        n = int(rng.integers(3, 30))
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2.0
        spec = ff.eigh(m)
        assert np.linalg.norm(spec.u @ spec.u.T - np.eye(n)) <= 1e-10
        rec = spec.u.T @ np.diag(spec.eigenvalues) @ spec.u
        assert np.linalg.norm(rec - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_matches_lapack_eigenvalues(rng):
    for _ in range(5):
        g = random_er_graph(rng, int(rng.integers(4, 24)))
        lap = ff.normalized_laplacian(g)
        spec = ff.eigh(lap)
        np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(lap), atol=1e-10)


def test_rerun_on_reconstruction_reproduces_eigenvalues(rng):
    m = rng.standard_normal((8, 8))
    m = (m + m.T) / 2.0
    spec = ff.eigh(m)
    rebuilt = spec.u.T @ np.diag(spec.eigenvalues) @ spec.u
    rebuilt = (rebuilt + rebuilt.T) / 2.0
    again = ff.eigh(rebuilt)
    np.testing.assert_allclose(again.eigenvalues, spec.eigenvalues, atol=1e-9)


def test_deterministic_repeat(rng):
    m = rng.standard_normal((10, 10))
    m = (m + m.T) / 2.0
    a, b = ff.eigh(m), ff.eigh(m)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.u, b.u)


def test_graph_fourier_eigenvector_is_indicator():
    spec = ff.eigh(two_node_laplacian())
    coeff = ff.graph_fourier(spec, spec.u[1])
    np.testing.assert_allclose(coeff, [0.0, 1.0], atol=1e-12)


def test_graph_fourier_hand_value():
    spec = ff.eigh(two_node_laplacian())
    coeff = ff.graph_fourier(spec, np.array([1.0, -1.0]))
    np.testing.assert_allclose(coeff, [0.0, np.sqrt(2.0)], atol=1e-12)


def test_graph_fourier_zero():
    spec = ff.eigh(two_node_laplacian())
    np.testing.assert_allclose(ff.graph_fourier(spec, np.zeros((2, 3))), 0.0)


def test_fourier_round_trip(rng):
    g = random_er_graph(rng, 15)
    spec = ff.eigh(ff.normalized_laplacian(g))
    h = rng.standard_normal((15, 4))
    back = ff.inverse_graph_fourier(spec, ff.graph_fourier(spec, h))
    assert np.linalg.norm(back - h) <= 1e-10 * np.linalg.norm(h)


def test_inverse_fourier_dimension_check():
    spec = ff.eigh(two_node_laplacian())
    with pytest.raises(DimensionMismatchError):
        ff.inverse_graph_fourier(spec, np.zeros((5, 1)))


def test_fourier_dimension_check():
    spec = ff.eigh(two_node_laplacian())
    with pytest.raises(DimensionMismatchError):
        ff.graph_fourier(spec, np.zeros((3, 1)))


SIGNAL_READERS = {
    "graph_fourier": lambda spec, sys, x: ff.graph_fourier(spec, x),
    "inverse_graph_fourier": lambda spec, sys, x: ff.inverse_graph_fourier(spec, x),
    "decompose": lambda spec, sys, x: ff.decompose(sys, x),
    "reconstruct": lambda spec, sys, x: ff.reconstruct(
        sys, ff.FrameletCoeffs(dict.fromkeys(sys.bands, x))),
    "limit_dominance": lambda spec, sys, x: ff.analysis.limit_dominance(
        True, spec.rho_l / 2.0, spec.rho_l, 1e-6, spec, x),
}


@pytest.mark.parametrize("shape", [(6, 6, 2), (7, 2), (7,), ()])
@pytest.mark.parametrize("reader", SIGNAL_READERS)
def test_signal_readers_take_only_n_or_n_by_c_arrays(reader, shape):
    """One shape rule, spectral.as_columns: on a 6-cycle a rank-3 array, a
    7-row array and a number are each a DimensionMismatchError."""
    spec = ff.eigh(ff.normalized_laplacian(ff.generate_graph(ff.GraphSpec(kind="cycle", n=6))))
    sys = ff.build_framelet_system(spec, 1)
    with pytest.raises(DimensionMismatchError, match=r"signal shape \("):
        SIGNAL_READERS[reader](spec, sys, np.ones(shape))


def _rotate_degenerate_clusters(spec, rng):
    """The same spectrum with each repeated eigenvalue's rows of U mixed by
    a random orthogonal matrix: another valid eigenbasis."""
    u = spec.u.copy()
    lam = spec.eigenvalues
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > 1e-9)
    for lo, hi in zip(starts, list(starts[1:]) + [spec.n]):
        if hi - lo > 1:
            q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
            u[lo:hi] = q @ u[lo:hi]
    return ff.Spectrum(lam, u)


SPATIAL = ff.Scheme("spatial_framelet", renormalize=True)
RELU = ff.Scheme("activated", "relu", renormalize=True)
CYCLE_51 = ff.GraphSpec(kind="cycle", n=51)  # double eigenvalues
K_7_12 = ff.GraphSpec(kind="complete_bipartite", m=7, n=12)  # lambda = 1, 17 times
# two blocks with no edge between them: a disjoint union, so lambda = 0 is double
SBM_DISJOINT = ff.GraphSpec(kind="sbm", sizes=(20, 31), p_in=0.3, p_out=0.0, seed=3)


def _assert_basis_choice_changes_nothing(spec: ff.GraphSpec, scheme: ff.Scheme):
    g = ff.generate_graph(spec)
    ahat, lap = ff.normalized_adjacency(g), ff.normalized_laplacian(g)
    spec = ff.eigh(lap)
    rotated = _rotate_degenerate_clusters(spec, np.random.default_rng(7))
    assert np.abs(rotated.u - spec.u).max() > 0.1
    systems = [ff.build_framelet_system(s, 2) for s in (spec, rotated)]
    for band in systems[0].bands:
        np.testing.assert_allclose(
            systems[1].transforms[band], systems[0].transforms[band], rtol=0, atol=1e-12
        )
    h0 = np.random.default_rng(5).standard_normal((g.n, 3))
    cfg = ff.WeightConfig.scalar(2, 3.0, tau=1.0 if scheme.kind == "spatial_framelet" else 0.05)
    a, b = (
        ff.run_flow(scheme, sys, h0, cfg, ff.StopRule(max_steps=200, plateau_window=201))
        for sys in systems
    )
    assert a.steps_run == b.steps_run == 200
    for column in ("norms", "dirichlet_normalized", "total_energy", "rayleigh", "final_state"):
        np.testing.assert_allclose(getattr(a, column), getattr(b, column), rtol=0, atol=1e-12)


def test_degenerate_basis_choice_leaves_transforms_and_flow_unchanged():
    _assert_basis_choice_changes_nothing(CYCLE_51, SPATIAL)


@pytest.mark.parametrize(
    "spec,scheme",
    [(CYCLE_51, RELU), (K_7_12, SPATIAL), (K_7_12, RELU), (SBM_DISJOINT, SPATIAL),
     (SBM_DISJOINT, RELU)],
    ids=["cycle51-relu", "k7_12-spatial", "k7_12-relu", "sbm_disjoint-spatial", "sbm_disjoint-relu"],
)
def test_degenerate_basis_choice_leaves_stepped_flows_and_bipartite_graphs_unchanged(spec, scheme):
    """The relu flow steps on spectral coordinates; K_{7,12} has one eigenvalue
    17 times; the disjoint SBM repeats lambda = 0, one per component."""
    _assert_basis_choice_changes_nothing(spec, scheme)
