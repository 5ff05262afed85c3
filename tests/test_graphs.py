import numpy as np
import pytest

import frameflow as ff
from frameflow.errors import DegenerateGraphError, FileParseError, InvalidSpecError

from conftest import is_connected


def test_cycle_four_edges():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=4))
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_star_is_complete_bipartite_one_two():
    g = ff.generate_graph(ff.GraphSpec(kind="complete_bipartite", m=1, n=2))
    assert g.edges == frozenset({(0, 1), (0, 2)})


def test_two_node_cycle_rejected():
    with pytest.raises(InvalidSpecError):
        ff.generate_graph(ff.GraphSpec(kind="cycle", n=2))


def test_degree_zero_rejected():
    with pytest.raises(DegenerateGraphError):
        ff.Graph.from_edges(3, [(0, 1)])


def test_explicit_loop_pair_rejected():
    with pytest.raises(InvalidSpecError):
        ff.Graph.from_edges(2, [(0, 0), (0, 1)])


def test_normalized_adjacency_two_node_self_loops():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    np.testing.assert_allclose(ff.normalized_adjacency(g), [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(ff.normalized_laplacian(g), [[0.5, -0.5], [-0.5, 0.5]])


def test_normalized_adjacency_cycle_circulant():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=4))
    ahat = ff.normalized_adjacency(g)
    expected = np.zeros((4, 4))
    for i in range(4):
        expected[i, (i + 1) % 4] = 0.5
        expected[i, (i - 1) % 4] = 0.5
    np.testing.assert_allclose(ahat, expected)


def test_single_node_self_loop():
    g = ff.generate_graph(ff.GraphSpec(kind="path", n=1, self_loops=True))
    np.testing.assert_allclose(ff.normalized_adjacency(g), [[1.0]])


def test_operators_bitwise_symmetric(rng):
    for seed in range(5):
        g = ff.generate_graph(
            ff.GraphSpec(kind="erdos_renyi", n=17, p=0.4, seed=seed, self_loops=bool(seed % 2))
        )
        ahat = ff.normalized_adjacency(g)
        lap = ff.normalized_laplacian(g)
        assert np.array_equal(ahat, ahat.T)
        assert np.array_equal(lap, lap.T)


def _adjacency_and_degrees_loop(g):
    a = np.zeros((g.n, g.n))
    deg = np.zeros(g.n, dtype=np.int64)
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
        deg[i] += 1
        if i != j:
            deg[j] += 1
    return a, deg


@pytest.mark.parametrize("self_loops", [False, True])
def test_adjacency_and_degrees_match_edge_loop(self_loops):
    for spec in (
        ff.GraphSpec(kind="erdos_renyi", n=30, p=0.2, seed=4, self_loops=self_loops),
        ff.GraphSpec(kind="path", n=5, self_loops=self_loops),
    ):
        g = ff.generate_graph(spec)
        a, deg = _adjacency_and_degrees_loop(g)
        assert g.adjacency().tobytes() == a.tobytes()
        assert g.degrees().dtype == np.int64
        assert np.array_equal(g.degrees(), deg)
        assert np.array_equal(g.degrees(), g.adjacency().sum(axis=1))
        lap = ff.normalized_laplacian(g)
        assert (np.eye(g.n) - ff.normalized_adjacency(g)).tobytes() == lap.tobytes()


@pytest.mark.parametrize("self_loops", [False, True])
@pytest.mark.parametrize("spec", [
    {"kind": "erdos_renyi", "n": 300, "p": 0.05, "seed": 3},
    {"kind": "sbm", "sizes": [24, 24], "p_in": 0.4, "p_out": 0.06, "seed": 3},
    {"kind": "cycle", "n": 51},
], ids=["er300", "sbm48", "cycle51"])
def test_edge_written_operators_have_the_bits_of_the_dense_formulas(spec, self_loops):
    """Ahat and Lhat written edge by edge into one zeroed array equal
    A * outer(d, d) and I - A * outer(d, d), d = D^{-1/2}, signed zeros included."""
    g = ff.generate_graph(ff.GraphSpec(**spec, self_loops=self_loops))
    dinv = 1.0 / np.sqrt(g.degrees().astype(float))
    ahat = g.adjacency() * np.outer(dinv, dinv)
    for built, dense in ((ff.normalized_adjacency(g), ahat),
                         (ff.normalized_laplacian(g), np.eye(g.n) - ahat)):
        assert built.tobytes() == dense.tobytes()
        assert np.array_equal(np.signbit(built), np.signbit(dense))


def test_laplacian_kernel_vector():
    g = ff.generate_graph(ff.GraphSpec(kind="erdos_renyi", n=12, p=0.5, seed=7))
    lap = ff.normalized_laplacian(g)
    v = np.sqrt(g.degrees().astype(float))
    assert np.linalg.norm(lap @ v) <= 1e-10 * np.linalg.norm(v)


def test_laplacian_psd_and_spectral_range():
    for seed in range(4):
        g = ff.generate_graph(ff.GraphSpec(kind="erdos_renyi", n=14, p=0.35, seed=seed + 1))
        spec = ff.eigh(ff.normalized_laplacian(g))
        assert spec.eigenvalues[0] >= -1e-10
        assert spec.rho_l <= 2.0 + 1e-10


def test_kernel_eigenvector_cosine_on_connected_graph():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=9))
    spec = ff.eigh(ff.normalized_laplacian(g))
    v = np.sqrt(g.degrees().astype(float))
    v = v / np.linalg.norm(v)
    cosine = abs(float(spec.u[0] @ v))
    assert cosine >= 1.0 - 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        ff.GraphSpec(kind="cycle", n=6),
        ff.GraphSpec(kind="complete_bipartite", m=3, n=4),
    ],
)
def test_bipartite_top_frequency_is_two(spec):
    g = ff.generate_graph(spec)
    assert ff.eigh(ff.normalized_laplacian(g)).rho_l >= 2.0 - 1e-9


def test_self_loops_pull_top_frequency_below_two():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=6, self_loops=True))
    assert ff.eigh(ff.normalized_laplacian(g)).rho_l < 2.0


def test_generation_deterministic():
    spec = ff.GraphSpec(kind="erdos_renyi", n=20, p=0.3, seed=99)
    assert ff.generate_graph(spec).edges == ff.generate_graph(spec).edges
    other = ff.GraphSpec(kind="erdos_renyi", n=20, p=0.3, seed=100)
    assert ff.generate_graph(other).edges != ff.generate_graph(spec).edges


def _loop_draw(n, prob_of, seed):
    """The per-pair generation loop random graphs used before vectorization:
    a Python list of lexicographic pairs, one draw each, re-drawn until no
    node has degree 0.  Returns (edges of the accepted draw, attempts)."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    for attempt in range(1, 101):
        draws = rng.random(len(pairs))
        edges = [pq for pq, u in zip(pairs, draws) if u < prob_of(pq)]
        if len({v for e in edges for v in e}) == n:
            return edges, attempt
    raise AssertionError("no accepted draw")


@pytest.mark.parametrize("seed", [0, 2, 3, 4])
def test_random_graphs_match_per_pair_loop(seed):
    community = np.repeat([0, 1], [6, 6])
    cases = [
        (ff.GraphSpec(kind="erdos_renyi", n=12, p=0.2, seed=seed), lambda pq: 0.2),
        (
            ff.GraphSpec(kind="sbm", sizes=(6, 6), p_in=0.3, p_out=0.05, seed=seed),
            lambda pq: 0.3 if community[pq[0]] == community[pq[1]] else 0.05,
        ),
    ]
    retried = 0
    for spec, prob_of in cases:
        edges, attempts = _loop_draw(12, prob_of, seed)
        assert sorted(ff.generate_graph(spec).edges) == sorted(edges)
        retried += attempts > 1
    # every seed re-draws at least one kind; seeds 2 and 4 re-draw both
    assert retried == {0: 1, 2: 2, 3: 1, 4: 2}[seed]


def test_sbm_blocks_denser_inside():
    spec = ff.GraphSpec(kind="sbm", sizes=(25, 25), p_in=0.6, p_out=0.05, seed=5)
    g = ff.generate_graph(spec)
    inside = sum(1 for i, j in g.plain_edges() if (i < 25) == (j < 25))
    across = len(g.plain_edges()) - inside
    assert inside > across


def test_sbm_needs_two_communities():
    with pytest.raises(InvalidSpecError):
        ff.generate_graph(ff.GraphSpec(kind="sbm", sizes=(10,), p_in=0.5, p_out=0.5))


def test_bad_probability_rejected():
    with pytest.raises(InvalidSpecError):
        ff.generate_graph(ff.GraphSpec(kind="erdos_renyi", n=5, p=1.5))


def test_degenerate_random_draw_errors():
    # p=0 can never reach min degree 1
    with pytest.raises(DegenerateGraphError):
        ff.generate_graph(ff.GraphSpec(kind="erdos_renyi", n=4, p=0.0, seed=1))


def test_parse_edge_list_path():
    g = ff.parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_edge_list_comments_and_crlf():
    g = ff.parse_edge_list("# comment\r\n0 1\r\n")
    assert g.edges == frozenset({(0, 1)})


def test_parse_edge_list_header_and_duplicates():
    g = ff.parse_edge_list("n=3\n0 1\n1 0\n1 2\n", self_loops=True)
    assert g.n == 3
    assert (0, 1) in g.edges and (1, 2) in g.edges and (2, 2) in g.edges


@pytest.mark.parametrize("text", ["0 x", "0 -1", "0 1 2", "0 0"])
def test_parse_edge_list_malformed(text):
    with pytest.raises(FileParseError):
        ff.parse_edge_list(text)


def test_parse_edge_list_degree_zero():
    with pytest.raises(DegenerateGraphError):
        ff.parse_edge_list("n=4\n0 1\n1 2\n")


def test_edge_list_round_trip():
    g = ff.generate_graph(ff.GraphSpec(kind="erdos_renyi", n=15, p=0.4, seed=11, self_loops=True))
    text = ff.format_edge_list(g)
    back = ff.parse_edge_list(text, self_loops=True)
    assert back.n == g.n and back.edges == g.edges


def test_connectivity_helper_sane():
    assert is_connected(ff.generate_graph(ff.GraphSpec(kind="cycle", n=5)))


@pytest.mark.parametrize(
    "n,edges,self_loops",
    [(0, [], False), (2, [(0, 0), (0, 1)], True), (2, [(0, 0), (0, 1)], False),
     (2, [(0, 2)], False)],
    ids=["no-nodes", "missing-loop", "loop-without-flag", "edge-out-of-range"],
)
def test_graph_invariants(n, edges, self_loops):
    with pytest.raises(InvalidSpecError):
        ff.Graph(n=n, edges=frozenset(edges), self_loops=self_loops)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: ff.Graph.from_edges(3, [(0, 1), (2, 2), (1, 1)]), InvalidSpecError,
         "explicit loop pair (2,2); use self_loops=True instead"),
        (lambda: ff.Graph.from_edges(3, [(0, 1), (1, 5)]), InvalidSpecError,
         "edge (1,5) out of range for n=3"),
        (lambda: ff.Graph.from_edges(3, [(1, -1), (1, 2)]), InvalidSpecError,
         "edge (-1,1) out of range for n=3"),
        (lambda: ff.Graph(n=2, edges=frozenset({(1, 0)})), InvalidSpecError,
         "edge (1,0) out of range for n=2"),
        (lambda: ff.Graph(n=2, edges=frozenset({(0, 0), (0, 1)}), self_loops=True),
         InvalidSpecError, "self_loops=True requires a loop on every node"),
        (lambda: ff.Graph(n=2, edges=frozenset({(1, 1), (0, 1)})), InvalidSpecError,
         "loop pairs are controlled by the self_loops flag, not the edge set"),
        (lambda: ff.Graph.from_edges(5, [(0, 1), (2, 1)]), DegenerateGraphError,
         "node 3 has degree 0"),
        (lambda: ff.Graph.from_edges(0, []), InvalidSpecError,
         "graph needs at least one node, got n=0"),
    ],
    ids=["loop-pair", "out-of-range", "negative", "unordered-pair", "missing-loop",
         "loop-without-flag", "degree-0", "no-nodes"],
)
def test_graph_error_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_from_edges_takes_any_iterable_of_pairs_or_an_array():
    pairs = [(1, 0), (1, 2), (2, 1), (3, 2), (0, 3)]
    expected = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    for given in (pairs, iter(pairs), np.array(pairs), [list(p) for p in pairs]):
        g = ff.Graph.from_edges(4, given, self_loops=True)
        assert g.edges == expected | {(i, i) for i in range(4)}
        np.testing.assert_array_equal(g.degrees(), [3, 3, 3, 3])
    with pytest.raises(ValueError):
        ff.Graph.from_edges(4, [(0, 1, 2)])
