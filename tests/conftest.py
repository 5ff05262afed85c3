"""Shared test oracles.

These deliberately avoid the library's own computation paths: the Dirichlet
edge sum is accumulated edge by edge, gradients come from central finite
differences, and the vectorized forms build explicit Kronecker matrices.
"""

import numpy as np
import pytest

import frameflow as ff


def edge_sum_dirichlet(graph: ff.Graph, signal) -> float:
    """Quarter-sum of squared degree-normalized differences over ordered adjacent pairs."""
    x = np.atleast_2d(np.asarray(signal, dtype=float).T).T
    deg = graph.degrees().astype(float)
    adj = graph.adjacency()
    total = 0.0
    for i in range(graph.n):
        for j in range(graph.n):
            if adj[i, j] == 1.0:
                diff = x[i] / np.sqrt(deg[i]) - x[j] / np.sqrt(deg[j])
                total += float(diff @ diff)
    return 0.25 * total


def central_diff_gradient(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Entrywise central finite differences of a scalar function of a matrix."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + h
        up = fun(bumped)
        bumped[idx] = x[idx] - h
        down = fun(bumped)
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization; vec(A X B) = (B^T kron A) vec(X)."""
    return np.asarray(x).flatten(order="F")


def unvec(v: np.ndarray, shape) -> np.ndarray:
    return np.asarray(v).reshape(shape, order="F")


def as_matrix(weight, size: int) -> np.ndarray:
    """A weight as a matrix: a number s (a scalar weight, or a constant theta)
    becomes s I_size; a matrix or a per-vertex theta's diagonal stays as given."""
    if np.ndim(weight) == 0:
        return weight * np.eye(size)
    return np.diag(weight) if np.ndim(weight) == 1 else np.asarray(weight)


def assemble_quadratic_operator(sys: ff.FrameletSystem, ahat: np.ndarray, cfg, c=None):
    """Kronecker matrix S with total_framelet_energy(H) = <vec H, S vec H>;
    number weights are s I_c."""
    s = None
    for band in sys.bands:
        t = sys.transforms[band]
        gram = t.T @ t
        conv = t.T @ ahat @ t
        omega, w = as_matrix(cfg.omega[band], c), as_matrix(cfg.w[band], c)
        term = np.kron(omega, gram) - np.kron(w, conv)
        s = term if s is None else s + term
    return 0.5 * s


def spatial_step_operator(sys: ff.FrameletSystem, ahat: np.ndarray, cfg, c=None) -> np.ndarray:
    """Kronecker matrix of one spatial convolution step (tau included);
    number weights are s I_c."""
    s = None
    for band in sys.bands:
        t = sys.transforms[band]
        term = np.kron(as_matrix(cfg.w[band], c).T, t.T @ ahat @ t)
        s = term if s is None else s + term
    return cfg.tau * s


def spectral_step_operator(sys: ff.FrameletSystem, cfg, c=None) -> np.ndarray:
    """Kronecker matrix of one spectral filtering step (tau included); a
    number weight is s I_c, a constant theta_b is theta_b I_n."""
    w = as_matrix(cfg.w[sys.bands[0]], c)
    s = None
    for band in sys.bands:
        t = sys.transforms[band]
        term = np.kron(w.T, t.T @ as_matrix(cfg.theta[band], sys.n) @ t)
        s = term if s is None else s + term
    return cfg.tau * s


def random_symmetric(rng: np.random.Generator, size: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((size, size)) * scale
    return (m + m.T) / 2.0


def random_er_graph(rng: np.random.Generator, n: int, p: float = 0.4, self_loops=False) -> ff.Graph:
    seed = int(rng.integers(0, 2**63 - 1))
    return ff.generate_graph(
        ff.GraphSpec(kind="erdos_renyi", n=n, p=p, seed=seed, self_loops=self_loops)
    )


def is_connected(graph: ff.Graph) -> bool:
    adj = graph.adjacency()
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(adj[i])[0]:
            if int(j) not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == graph.n


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
