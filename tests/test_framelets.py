import numpy as np
import pytest

import frameflow as ff
from frameflow import framelets
from frameflow.errors import BandMismatchError, DimensionMismatchError, OutOfRangeError

from conftest import random_er_graph, random_symmetric


def system_for(graph, scales, variant="tight"):
    return ff.build_framelet_system(ff.eigh(ff.normalized_laplacian(graph)), scales, variant)


def test_response_at_zero_frequency():
    for scales in (1, 2):
        for variant in ("tight", "paper_literal"):
            resp = ff.haar_response(0.0, scales, variant)
            low = (0, scales)
            assert resp[low] == pytest.approx(1.0, abs=0.0)
            for band, value in resp.items():
                if band != low:
                    assert value == pytest.approx(0.0, abs=0.0)


def test_response_single_scale_at_unit_frequency():
    resp = ff.haar_response(1.0, 1)
    assert resp[(0, 1)] == pytest.approx(0.9921977, abs=1e-7)
    assert resp[(1, 1)] == pytest.approx(0.1246747, abs=1e-7)
    assert resp[(0, 1)] ** 2 + resp[(1, 1)] ** 2 == pytest.approx(1.0, abs=1e-15)


def test_response_two_scale_top_frequency_squares_sum_to_one():
    resp = ff.haar_response(2.0, 2, "tight")
    assert resp[(0, 2)] == pytest.approx(np.cos(0.25) * np.cos(0.125), abs=1e-15)
    assert resp[(1, 1)] == pytest.approx(np.sin(0.25) * np.cos(0.125), abs=1e-15)
    assert resp[(1, 2)] == pytest.approx(np.sin(0.125), abs=1e-15)
    assert sum(v**2 for v in resp.values()) == pytest.approx(1.0, abs=1e-15)


def test_paper_literal_low_pass_differs_at_two_scales():
    tight = ff.haar_response(1.5, 2, "tight")
    literal = ff.haar_response(1.5, 2, "paper_literal")
    assert literal[(0, 2)] == pytest.approx(np.cos(1.5 / 8) * tight[(0, 2)], abs=1e-15)
    assert literal[(1, 1)] == tight[(1, 1)] and literal[(1, 2)] == tight[(1, 2)]


@pytest.mark.parametrize("variant", ["tight", "paper_literal"])
def test_bank_gives_the_literal_haar_responses_bit_for_bit(variant):
    """The recursive two-scale product reproduces the J = 1 and J = 2 closed
    forms to the last bit, on a grid holding 0, 2 and subnormals."""
    lam = np.concatenate([[0.0, 2.0, 5e-324, 5 * 5e-324, 1e-310, np.nextafter(2.0, 0.0)],
                          np.linspace(0.0, 2.0, 2001), np.random.default_rng(3).uniform(0, 2, 2000)])
    low2 = np.cos(lam / 8.0) * np.cos(lam / 16.0)
    if variant == "paper_literal":
        low2 = np.cos(lam / 8.0) ** 2 * np.cos(lam / 16.0)
    literal = {
        1: {(0, 1): np.cos(lam / 8.0), (1, 1): np.sin(lam / 8.0)},
        2: {(0, 2): low2, (1, 1): np.sin(lam / 8.0) * np.cos(lam / 16.0), (1, 2): np.sin(lam / 16.0)},
    }
    for scales, expected in literal.items():
        resp = ff.haar_response(lam, scales, variant)
        assert list(resp) == list(expected) == list(ff.band_index_set(scales))
        for band, values in expected.items():
            assert resp[band].tobytes() == values.tobytes(), (scales, band)


def test_response_out_of_range():
    with pytest.raises(OutOfRangeError):
        ff.haar_response(2.5, 1)
    with pytest.raises(OutOfRangeError):
        ff.haar_response(-0.5, 2)


def test_two_node_system_responses():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    sys = system_for(g, 1)
    np.testing.assert_allclose(sys.responses[(0, 1)], [1.0, 0.9921977], atol=1e-7)
    np.testing.assert_allclose(sys.responses[(1, 1)], [0.0, 0.1246747], atol=1e-7)


def test_flat_spectrum_gives_identity_low_pass():
    g = ff.generate_graph(ff.GraphSpec(kind="path", n=1, self_loops=True))
    for scales in (1, 2):
        sys = system_for(g, scales)
        np.testing.assert_allclose(sys.transforms[sys.low_pass], np.eye(1), atol=1e-15)
        for band in sys.bands[1:]:
            np.testing.assert_allclose(sys.transforms[band], 0.0, atol=1e-15)


@pytest.mark.parametrize("scales", [1, 2])
def test_tightness_of_transform_matrices(rng, scales):
    for _ in range(4):
        g = random_er_graph(rng, int(rng.integers(3, 30)), self_loops=bool(rng.integers(2)))
        sys = system_for(g, scales)
        acc = sum(sys.transforms[b].T @ sys.transforms[b] for b in sys.bands)
        assert np.linalg.norm(acc - np.eye(sys.n)) <= 1e-10


def test_transforms_symmetric_and_commute_with_operators(rng):
    g = random_er_graph(rng, 16)
    ahat = ff.normalized_adjacency(g)
    lap = ff.normalized_laplacian(g)
    sys = system_for(g, 2)
    for t in sys.transforms.values():
        assert np.array_equal(t, t.T)
        assert np.linalg.norm(t @ lap - lap @ t) <= 1e-9
        assert np.linalg.norm(t @ ahat - ahat @ t) <= 1e-9


def test_low_pass_preserves_kernel_vector():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=8))
    sys = system_for(g, 2)
    v = np.sqrt(g.degrees().astype(float))
    np.testing.assert_allclose(sys.transforms[sys.low_pass] @ v, v, atol=1e-10)
    for band in sys.bands[1:]:
        np.testing.assert_allclose(sys.transforms[band] @ v, 0.0, atol=1e-10)


def test_decompose_known_direction():
    g = ff.Graph.from_edges(2, [(0, 1)], self_loops=True)
    sys = system_for(g, 1)
    h = np.array([1.0, -1.0])
    coeffs = ff.decompose(sys, h)
    np.testing.assert_allclose(coeffs[(0, 1)], np.cos(0.125) * h, atol=1e-12)
    np.testing.assert_allclose(coeffs[(1, 1)], np.sin(0.125) * h, atol=1e-12)


def test_decompose_zero_signal():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=5))
    sys = system_for(g, 2)
    coeffs = ff.decompose(sys, np.zeros((5, 3)))
    for band in sys.bands:
        np.testing.assert_allclose(coeffs[band], 0.0)


@pytest.mark.parametrize("scales", [1, 2])
def test_perfect_reconstruction(rng, scales):
    for _ in range(4):
        g = random_er_graph(rng, int(rng.integers(3, 40)))
        sys = system_for(g, scales)
        h = rng.standard_normal((sys.n, 3))
        back = ff.reconstruct(sys, ff.decompose(sys, h))
        assert np.linalg.norm(back - h) <= 1e-10 * np.linalg.norm(h)


def test_reconstruct_zero_coefficients():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=5))
    sys = system_for(g, 1)
    zeros = ff.FrameletCoeffs(bands={b: np.zeros((5, 2)) for b in sys.bands})
    np.testing.assert_allclose(ff.reconstruct(sys, zeros), 0.0)


def test_reconstruct_band_mismatch():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=5))
    sys1 = system_for(g, 1)
    sys2 = system_for(g, 2)
    with pytest.raises(BandMismatchError):
        ff.reconstruct(sys2, ff.decompose(sys1, np.ones((5, 1))))


def test_decompose_dimension_mismatch():
    g = ff.generate_graph(ff.GraphSpec(kind="cycle", n=5))
    sys = system_for(g, 1)
    with pytest.raises(DimensionMismatchError):
        ff.decompose(sys, np.ones((6, 1)))


def test_paper_literal_residual_reported_not_zero(rng):
    g = random_er_graph(rng, 12)
    sys = ff.build_framelet_system(ff.eigh(ff.normalized_laplacian(g)), 2, "paper_literal")
    assert sys.tightness_residual > 1e-3
    assert not sys.is_tight
    tight = ff.build_framelet_system(ff.eigh(ff.normalized_laplacian(g)), 2, "tight")
    assert tight.tightness_residual <= 1e-12


@pytest.mark.parametrize("with_source", [False, True])
def test_identity_multiple_mixers_stay_scalars_with_the_matrix_path_bits(rng, with_source):
    """s I mixers fold into their factors (one number per frequency); a term
    with a zero factor and a general mixer adds exact zeros, so it forces the
    same terms through the (n, c, c) path without changing a sum."""
    n, c = 11, 4
    terms = [(rng.standard_normal(n), s * np.eye(c)) for s in (1.0, -0.5, 20.0, 0.3)]
    terms += [(rng.standard_normal(n), None), (rng.standard_normal(n), 2.0 * np.eye(c))]
    source = rng.standard_normal((n, c)) if with_source else None
    scalar = framelets.Multiplier(terms, source)
    general = rng.standard_normal((c, c))
    forced = framelets.Multiplier(terms + [(np.zeros(n), general + general.T)], source)
    assert scalar.matrices is None and scalar.per_frequency.shape == (n, 1, 1)
    assert forced.matrices is not None and forced.per_frequency.shape == (n, c, c)
    assert scalar.channels == forced.channels == c
    np.testing.assert_array_equal(forced.per_frequency[:, 1, 1], scalar.per_frequency[:, 0, 0])
    h = rng.standard_normal((n, c))
    np.testing.assert_array_equal(scalar.apply(h), forced.apply(h))
    assert scalar.quadratic(h) == forced.quadratic(h)
    with pytest.raises(DimensionMismatchError, match="signal has 3 channels"):
        scalar.apply(h[:, :3])


@pytest.mark.parametrize("kind", ["numbers", "matrices", "filter"])
def test_a_stack_applies_as_its_slices_bit_for_bit(rng, kind):
    """A (k, n, c) stack, as a stepped flow records a block of states."""
    n, c = 9, 3
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mixer = np.eye(c) if kind == "numbers" else random_symmetric(rng, c, 1.0)
    terms = [(rng.standard_normal(n), 2.0 * mixer), (rng.standard_normal(n), None)]
    if kind == "filter":
        terms.append((framelets.BandFilter(u, rng.standard_normal(n), rng.random(n)), mixer))
    m = framelets.Multiplier(terms, rng.standard_normal((n, c)))
    assert (m.matrices is None) == (kind == "numbers")
    stack = rng.standard_normal((5, n, c))
    np.testing.assert_array_equal(m.apply(stack), np.stack([m.apply(h) for h in stack]))


@pytest.mark.parametrize("kind", ["numbers", "matrices", "filter"])
@pytest.mark.parametrize("n,c", [(9, 1), (9, 2), (9, 3), (9, 8), (64, 8)])
def test_a_stack_applies_into_a_buffer_as_its_slices_bit_for_bit(rng, kind, n, c):
    """A stepped flow's rows apply the energy to a block of states in one
    product, into a scratch buffer reused across blocks."""
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mixer = np.eye(c) if kind == "numbers" else random_symmetric(rng, c, 1.0)
    terms = [(rng.standard_normal(n), 2.0 * mixer), (rng.standard_normal(n), None)]
    if kind == "filter":
        terms.append((framelets.BandFilter(u, rng.standard_normal(n), rng.random(n)), mixer))
    m = framelets.Multiplier(terms, rng.standard_normal((n, c)))
    stack, buffer = rng.standard_normal((5, n, c)), np.full((7, n, c), np.nan)
    out = m.apply_into(stack, buffer[:5])
    assert np.shares_memory(out, buffer)
    np.testing.assert_array_equal(out, np.stack([m.apply(h) for h in stack]))
    np.testing.assert_array_equal(buffer[5:], np.nan)


def test_filters_alone_apply_into_a_zero_filled_buffer(rng):
    """With no diagonal term the filters add onto a zeroed buffer, never onto
    what the caller's buffer held."""
    n, c = 9, 2
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = framelets.Multiplier([(framelets.BandFilter(u, rng.standard_normal(n), rng.random(n)),
                               random_symmetric(rng, c, 1.0))])
    assert m.diagonal is None and m.matrices is None
    h, buffer = rng.standard_normal((n, c)), np.full((n, c), np.nan)
    out = m.apply_into(h, buffer)
    assert np.shares_memory(out, buffer)
    np.testing.assert_array_equal(out, m.apply(h))


def test_mixers_of_two_sizes_rejected():
    with pytest.raises(DimensionMismatchError, match="mixers of sizes 2, 3"):
        framelets.Multiplier([(np.ones(4), np.eye(2)), (np.ones(4), np.eye(3))])
