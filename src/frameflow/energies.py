"""Energy functionals over framelet-decomposed graph signals.

All energies are quadratic (or, for the source term, linear) forms in the
signal.  Each one is built once as the framelets.Multiplier of its gradient
on spectral coordinates Hhat = U H (a source is its constant term), so value
and gradient cost O(n c^2) per call, O(n c) with number weights.  A weight
is a number (the scalar family: s I on any channel count) or a c x c
matrix, as the config gives it; no code tests a matrix for being a
multiple of I.  The vertex-domain functions here wrap those forms in U and
U^T; dense and Kronecker forms are reserved for test
oracles.  Every functional has an analytic gradient in the same module, and
the pairing is contract-tested against central finite differences.

Sign conventions worth stating once:

* the per-band generalized energy is
  0.5 tr((W_b H)^T (W_b H) Omega_b) - 0.5 tr((W_b H)^T Ahat (W_b H) W_b);
* when a source is configured (beta != 0 and mixing matrices present), the
  total energy *subtracts* beta * tr((W_b H)^T H0 Wt_b) per band, so that
  descending its gradient injects the initial state, and the gradient of
  that term is -beta * W_b^T H0 Wt_b (no transpose on the mixing matrix;
  anything else fails the finite-difference check for asymmetric Wt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (
    BandMismatchError,
    ConfigError,
    DimensionMismatchError,
    NotSymmetricError,
    OutOfRangeError,
)
from .framelets import (
    Band, BandFilter, FrameletSystem, Multiplier, band_index_set, haar_response, identity,
    read_only,
)
from .graphs import Graph
from . import spectral

__all__ = [
    "WeightConfig",
    "EnergyBreakdown",
    "dirichlet_energy",
    "framelet_dirichlet_energies",
    "generalized_energy",
    "generalized_energy_gradient",
    "total_framelet_energy",
    "total_framelet_energy_gradient",
    "perturbed_energy",
    "perturbed_energy_gradient",
    "band_shifts",
    "energy_gap",
    "weight_split",
    "particle_decomposition",
    "spectral_energy",
    "spectral_energy_gradient",
    "source_energy_term",
    "source_energy_gradient",
]

WEIGHT_SYMMETRY_TOL = 1e-12


def _require_symmetric(name: str, m: np.ndarray, band=None) -> np.ndarray:
    """m as a float array, once it is square and symmetric within 1e-12; an
    error names it ``name`` followed by ``band``, if given."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name}{band or ''} must be square, got shape {m.shape}")
    exact = len(m) == 1 or (m == m.T).all()  # 1 x 1 is symmetric
    asym = 0.0 if exact else float(abs(m - m.T).max())
    if asym > WEIGHT_SYMMETRY_TOL:
        raise NotSymmetricError(
            f"{name}{band or ''} asymmetry {asym:.3e} exceeds {WEIGHT_SYMMETRY_TOL}"
        )
    return m


@dataclass(frozen=True)
class WeightConfig:
    """Per-band weights plus the scalar knobs of the flow family.

    omega / w map each band to a number s (s I on any channel count) or to a
    symmetric c x c matrix (symmetry is validated, never silently repaired);
    they are all numbers or all matrices.  w_tilde holds the source mixing
    matrices; it is not required to be symmetric.  theta maps bands to a
    constant spectral filter coefficient, or to one per vertex (length n).
    """

    omega: Dict[Band, np.ndarray]
    w: Dict[Band, np.ndarray]
    w_tilde: Optional[Dict[Band, np.ndarray]] = None
    epsilon: float = 0.0
    beta: float = 0.0
    theta: Optional[Dict[Band, np.ndarray]] = None
    tau: float = 1.0

    def __post_init__(self):
        if self.tau < 0.0:
            raise OutOfRangeError(f"step size tau must be nonnegative, got {self.tau}")
        if self.omega.keys() != self.w.keys():
            raise BandMismatchError("omega and w must cover the same bands")
        checked = {}  # id -> float or read-only copy: a weight of several bands is checked once
        for name in ("omega", "w"):
            mats = getattr(self, name)
            for b, m in mats.items():
                if id(m) not in checked:
                    checked[id(m)] = float(m) if np.ndim(m) == 0 else read_only(
                        _require_symmetric(name, m, b).copy())
            object.__setattr__(self, name, {b: checked[id(m)] for b, m in mats.items()})
        if len({np.ndim(m) for m in checked.values()}) > 1:
            raise ConfigError("omega and w must be all numbers or all c x c matrices")
        if self.w_tilde is not None:
            wt = {b: read_only(np.array(m, dtype=float)) for b, m in self.w_tilde.items()}
            if set(wt) != set(self.omega):
                raise BandMismatchError("w_tilde must cover the same bands as omega/w")
            object.__setattr__(self, "w_tilde", wt)
        if self.theta is not None:
            th = {b: float(v) if np.ndim(v) == 0 else read_only(np.array(v, dtype=float).ravel())
                  for b, v in self.theta.items()}
            object.__setattr__(self, "theta", th)

    @staticmethod
    def shared(scales: int, omega: np.ndarray, w: np.ndarray, **kwargs) -> "WeightConfig":
        """Replicate one (omega, w) pair over every band of a J-scale system."""
        bands = band_index_set(scales)
        return WeightConfig(omega=dict.fromkeys(bands, omega), w=dict.fromkeys(bands, w), **kwargs)

    @staticmethod
    def scalar(scales: int, lambda_w: float, **kwargs) -> "WeightConfig":
        """Scalar family, numbers on any channel count: W low-pass = 1,
        W high-pass = lambda_w, Omega = 1."""
        bands = band_index_set(scales)
        w = {b: float(lambda_w) if b[0] else 1.0 for b in bands}
        return WeightConfig(omega=dict.fromkeys(bands, 1.0), w=w, **kwargs)

    @property
    def has_source(self) -> bool:
        return self.beta != 0.0 and self.w_tilde is not None

    def bands_for(self, sys: FrameletSystem) -> tuple:
        if set(self.omega) != set(sys.bands):
            raise BandMismatchError(
                f"config bands {sorted(self.omega)} != system bands {sorted(sys.bands)}"
            )
        return sys.bands

    def theta_for(self, bands: tuple, n: Optional[int] = None) -> Dict[Band, np.ndarray]:
        """theta, checked to cover ``bands`` and, given n, to hold n values in
        each per-vertex band."""
        if self.theta is None or set(self.theta) != set(bands):
            raise BandMismatchError("theta must cover exactly the system's bands")
        for b, v in self.theta.items():
            if n is not None and np.ndim(v) and v.shape[0] != n:
                raise DimensionMismatchError(f"theta{b} has length {v.shape[0]}, expected {n}")
        return self.theta

    def check_channels(self, c: int, names: tuple = ("omega", "w", "w_tilde")) -> None:
        """Raise unless the matrix weights among ``names``, the config keys a
        caller reads (w_tilde only if the source is on), fit a signal of c
        channels (numbers fit any), before any work reads them."""
        source = self.w_tilde if self.has_source else {}
        read = {"omega": self.omega, "w": self.w, "w_tilde": source}
        for m in (m for name in names for m in read.get(name, {}).values()):
            if not isinstance(m, float) and len(m) != c:
                raise DimensionMismatchError(
                    f"weights are {len(m)}x{len(m)}, signal has {c} channels")

    def shared_w(self, sys: FrameletSystem) -> np.ndarray:
        """The single weight matrix required by the spectral-filter family."""
        bands = self.bands_for(sys)
        w0 = self.w[bands[0]]
        for b in bands[1:]:
            if not np.array_equal(self.w[b], w0):
                raise ConfigError("spectral filtering uses one shared w across all bands")
        return w0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Multi-particle reading of one band's energy."""

    external: float
    attraction: float
    repulsion: float

    @property
    def total(self) -> float:
        return self.external + self.attraction - self.repulsion


def _check_operator(name: str, op: np.ndarray, n: int) -> np.ndarray:
    op = np.asarray(op, dtype=float)
    if op.shape != (n, n):
        raise DimensionMismatchError(f"{name} shape {op.shape} incompatible with n={n}")
    return op


def to_spectral(sys: FrameletSystem, signal):
    """(U H as an (n, c) matrix, whether the signal arrived 1-D)."""
    x, was_vector = spectral.as_columns(signal, sys.n)
    return spectral.graph_fourier(sys.spectrum, x), was_vector


def to_vertex(sys: FrameletSystem, h: np.ndarray, was_vector: bool):
    """U^T h, shaped like the signal :func:`to_spectral` received."""
    return spectral.restore(spectral.inverse_graph_fourier(sys.spectrum, h), was_vector)


def dirichlet_energy(lap: np.ndarray, signal) -> float:
    """Smoothness measure 0.5 tr(H^T Lhat H); zero exactly on ker(Lhat)."""
    x, _ = spectral.as_columns(signal, np.asarray(lap).shape[0])
    lap = _check_operator("laplacian", lap, x.shape[0])
    return 0.5 * float(np.sum(x * (lap @ x)))


def framelet_dirichlet_energies(sys: FrameletSystem, signal) -> Tuple[Dict[Band, float], float]:
    """Per-band Dirichlet energies of the framelet coefficients and their sum.

    On a tight system the sum reproduces dirichlet_energy(Lhat, signal) for
    the system's Lhat; the identity has no meaning for non-tight variants,
    which are rejected.
    """
    sys.require_tight("band-wise Dirichlet energy conservation")
    h, _ = to_spectral(sys, signal)
    lam = sys.spectrum.eigenvalues
    per_band = {
        b: Multiplier([(r2 * lam, None)]).quadratic(h) for b, r2 in zip(sys.bands, sys.squares)
    }
    return per_band, float(sum(per_band.values()))


def generalized_energy(ahat: np.ndarray, signal, omega: np.ndarray, w: np.ndarray) -> float:
    """0.5 tr(H^T H Omega) - 0.5 tr(H^T Ahat H W); Omega = W = I recovers Dirichlet.

    The energy is quadratic, so it is 0.5 <H, gradient>."""
    x, _ = spectral.as_columns(signal, np.asarray(ahat).shape[0])
    return 0.5 * float(np.vdot(x, generalized_energy_gradient(ahat, x, omega, w)))


def generalized_energy_gradient(ahat: np.ndarray, signal, omega: np.ndarray, w: np.ndarray):
    """Gradient H Omega - Ahat H W of :func:`generalized_energy`."""
    x, was_vector = spectral.as_columns(signal, np.asarray(ahat).shape[0])
    ahat = _check_operator("ahat", ahat, x.shape[0])
    omega = _require_symmetric("omega", omega)
    w = _require_symmetric("w", w)
    if omega.shape[0] != x.shape[1] or w.shape[0] != x.shape[1]:
        raise DimensionMismatchError(
            f"weights are {omega.shape[0]}x..., signal has {x.shape[1]} channels"
        )
    return spectral.restore(x @ omega - ahat @ x @ w, was_vector)


def spectral_initial(sys: FrameletSystem, initial, h: np.ndarray) -> Optional[np.ndarray]:
    """U H0, checked against the signal's shape; None passes through."""
    if initial is None:
        return None
    h0 = to_spectral(sys, initial)[0]
    if h0.shape != h.shape:
        raise DimensionMismatchError(f"initial state shape {h0.shape} != signal shape {h.shape}")
    return h0


def source_spectral(sys: FrameletSystem, h0, cfg: WeightConfig) -> np.ndarray:
    """Source gradient beta * sum_b diag(r_b) Hhat0 Wt_b in spectral coordinates."""
    if cfg.w_tilde is None:
        raise ConfigError("source term requested without w_tilde mixing matrices")
    if h0 is None:
        raise ConfigError("a source term is configured but no initial state was given")
    bands = cfg.bands_for(sys)
    return Multiplier([(cfg.beta * sys.responses[b], cfg.w_tilde[b]) for b in bands]).apply(h0)


def framelet_energy_form(
    sys: FrameletSystem, cfg: WeightConfig, h0: Optional[np.ndarray] = None
) -> Multiplier:
    """Gradient of the total framelet energy on spectral coordinates, with
    a_hat = 1 - lam: sum_b diag(r_b^2) . Omega_b - diag(r_b^2 a_hat) . W_b,
    minus the source built from the spectral initial state ``h0`` if configured."""
    source = source_spectral(sys, h0, cfg) if cfg.has_source else None
    cfg.bands_for(sys)  # raises unless the weights cover the system's bands
    return Multiplier(framelet_terms(sys, cfg.omega, cfg.w), source)


def framelet_terms(sys: FrameletSystem, omega: dict, w: dict) -> list:
    """:func:`framelet_energy_form`'s terms over the system's bands, (r_b^2,
    Omega_b) then (-r_b^2 a_hat, W_b) per band, with the band -> number or
    c x c matrix dicts ``omega`` and ``w`` as mixers."""
    return [term for b, r2, a in zip(sys.bands, sys.squares, sys.ahat_terms)
            for term in ((r2, omega[b]), (a, w[b]))]


def total_framelet_energy(sys: FrameletSystem, signal, cfg: WeightConfig, initial=None) -> float:
    """Sum of per-band generalized energies (minus the source term if configured).

    With cfg = shared(Omega, W) on a tight system this collapses to
    generalized_energy(Ahat, signal, Omega, W) for the system's Ahat.
    """
    h, _ = to_spectral(sys, signal)
    form = framelet_energy_form(sys, cfg, spectral_initial(sys, initial, h))
    return form.quadratic(h)


def total_framelet_energy_gradient(sys: FrameletSystem, signal, cfg: WeightConfig, initial=None):
    """Analytic gradient sum_b (W_b^T W_b H Omega_b - W_b^T Ahat W_b H W_b)
    minus beta * sum_b W_b^T H0 Wt_b when a source is configured."""
    h, was_vector = to_spectral(sys, signal)
    form = framelet_energy_form(sys, cfg, spectral_initial(sys, initial, h))
    return to_vertex(sys, form.apply(h), was_vector)


def source_energy_term(sys: FrameletSystem, signal, initial, cfg: WeightConfig) -> float:
    """beta * sum_b tr((W_b H)^T H0 Wt_b): linear coupling to the initial state.

    The flow's governing energy uses this with a minus sign (the source
    attracts the state toward H0-mixed directions).
    """
    h, _ = to_spectral(sys, signal)
    return float(np.vdot(h, source_spectral(sys, spectral_initial(sys, initial, h), cfg)))


def source_energy_gradient(sys: FrameletSystem, initial, cfg: WeightConfig) -> np.ndarray:
    """Gradient beta * sum_b W_b^T H0 Wt_b of :func:`source_energy_term`."""
    h0, was_vector = to_spectral(sys, initial)
    return to_vertex(sys, source_spectral(sys, h0, cfg), was_vector)


def band_shifts(sys: FrameletSystem, epsilon: float) -> Dict[Band, float]:
    """The perturbation's shift s_b of each band: +eps on the low-pass band,
    -eps on every high-pass band.  The perturbed energy, the ee_ufg step and
    its energy-enhanced weights all read it from here."""
    return {b: -epsilon for b in sys.bands} | {sys.low_pass: epsilon}


def perturbed_energy_form(sys: FrameletSystem, epsilon: float) -> Multiplier:
    """Gradient of the perturbed energy: sum_b diag(r_b^2 (lam + s_b)), with
    s_b from :func:`band_shifts`."""
    sys.require_tight("the perturbed energy")
    shift, lam = band_shifts(sys, epsilon), sys.spectrum.eigenvalues
    return Multiplier([(r2 * (lam + shift[b]), None) for b, r2 in zip(sys.bands, sys.squares)])


def perturbed_energy(sys: FrameletSystem, signal, epsilon: float) -> float:
    """Band-shifted Dirichlet energy: (Lhat + eps I) on the low-pass band,
    (Lhat - eps I) on every high-pass band.

    On a tight Haar system this equals the plain Dirichlet energy plus
    (eps/2) * sum_i gap(lam_i) * (spectral mass of the signal at lam_i); the
    gap is nonnegative on [0, 2], so eps > 0 enhances the energy.
    """
    form = perturbed_energy_form(sys, epsilon)
    return form.quadratic(to_spectral(sys, signal)[0])


def perturbed_energy_gradient(sys: FrameletSystem, signal, epsilon: float):
    """Gradient W0^T (Lhat + eps I) W0 H + sum_high W^T (Lhat - eps I) W H."""
    h, was_vector = to_spectral(sys, signal)
    form = perturbed_energy_form(sys, epsilon)
    return to_vertex(sys, form.apply(h), was_vector)


def energy_gap(lam):
    """Per-frequency perturbation rate of the two-scale Haar bank: the squared
    low-pass response minus the squared high-pass ones.  Decreasing on [0, 2]
    from gap(0) = 1 down to gap(2) ~ 0.8484, hence nonnegative.
    """
    low, *high = band_index_set(2)
    r = haar_response(lam, 2)
    out = r[low] ** 2 - sum(r[b] ** 2 for b in high)
    return float(out) if np.ndim(lam) == 0 else out


def weight_split(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a symmetric matrix as W = P^T P - M^T M.

    P (resp. M) is diag(sqrt(max(lam, 0))) V^T (resp. negative part) from the
    eigendecomposition of W; P^T P is the positive-semidefinite component and
    M^T M the negative one.
    """
    w = _require_symmetric("w", w)
    spec = spectral.eigh(w)
    lam = spec.eigenvalues
    plus = np.sqrt(np.maximum(lam, 0.0))[:, None] * spec.u
    minus = np.sqrt(np.maximum(-lam, 0.0))[:, None] * spec.u
    return plus, minus


def particle_decomposition(
    sys: FrameletSystem, graph: Graph, signal, cfg: WeightConfig
) -> Dict[Band, EnergyBreakdown]:
    """External/attraction/repulsion reading of each band's energy.

    Per band, with G = W_b H and degree-normalized rows g_i / sqrt(d_i):

    * external  = 0.5 sum_i <g_i, (Omega_b - W_b) g_i>
    * attraction ("smoothing")  = 0.25 sum over ordered adjacent pairs of
      ||P (g_i/sqrt(d_i) - g_j/sqrt(d_j))||^2 with W_b = P^T P - M^T M
    * repulsion ("separating")  = the same sum under M.

    Band totals sum to total_framelet_energy (without source term).
    """
    h, _ = to_spectral(sys, signal)
    if graph.n != sys.n:
        raise DimensionMismatchError(f"graph has {graph.n} nodes, system expects {sys.n}")
    adj = graph.adjacency()
    deg = graph.degrees().astype(float)
    rows, cols = np.nonzero(adj)
    out = {}
    for band in cfg.bands_for(sys):
        coeff = sys.spectrum.u.T @ (sys.responses[band][:, None] * h)
        omega, w = (m * identity(h.shape[1]) if np.ndim(m) == 0 else m
                    for m in (cfg.omega[band], cfg.w[band]))
        external = 0.5 * float(np.sum(coeff * (coeff @ (omega - w))))
        plus, minus = weight_split(w)
        scaled = coeff / np.sqrt(deg)[:, None]
        diffs = scaled[rows] - scaled[cols]
        attraction = 0.25 * float(np.sum((diffs @ plus.T) ** 2))
        repulsion = 0.25 * float(np.sum((diffs @ minus.T) ** 2))
        out[band] = EnergyBreakdown(external, attraction, repulsion)
    return out


def filter_factors(sys: FrameletSystem, cfg: WeightConfig) -> Dict[Band, object]:
    """Per band, W_b^T diag(theta_b) W_b on spectral coordinates: theta r_b^2
    for a constant theta_b, else a BandFilter (never an n x n matrix)."""
    out = {}
    for band, theta in cfg.theta_for(sys.bands, sys.n).items():
        r = sys.responses[band]
        constant = np.ndim(theta) == 0 or np.all(theta == theta[0])
        out[band] = np.ravel(theta)[0] * r**2 if constant else BandFilter(sys.spectrum.u, r, theta)
    return out


def spectral_energy_form(sys: FrameletSystem, w: np.ndarray, factors) -> Multiplier:
    """Gradient of the spectral-filter energy: sum_b diag(r_b^2) - F_b . W,
    with F_b from :func:`filter_factors` and W from WeightConfig.shared_w."""
    return Multiplier(
        [(r2, None) for r2 in sys.squares] + [(factors[b], -w) for b in sys.bands]
    )


def spectral_energy(sys: FrameletSystem, signal, cfg: WeightConfig) -> float:
    """Energy governing the spectral-filter family:

        0.5 sum_b [ tr((W_b H)^T W_b H) - tr((W_b H)^T diag(theta_b) W_b H W) ]

    with one shared symmetric W across bands.
    """
    form = spectral_energy_form(sys, cfg.shared_w(sys), filter_factors(sys, cfg))
    return form.quadratic(to_spectral(sys, signal)[0])


def spectral_energy_gradient(sys: FrameletSystem, signal, cfg: WeightConfig):
    """Gradient sum_b (W_b^T W_b H - W_b^T diag(theta_b) W_b H W)."""
    h, was_vector = to_spectral(sys, signal)
    form = spectral_energy_form(sys, cfg.shared_w(sys), filter_factors(sys, cfg))
    return to_vertex(sys, form.apply(h), was_vector)
