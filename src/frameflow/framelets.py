"""Haar-type undecimated framelet transforms on a graph spectrum.

A system at scale count J holds one low-pass band (0, J) and high-pass bands
(1, j) for j = 1..J, built recursively (Dong 2017) from the two-scale Haar
pair a(x) = cos(x/2), b(x) = sin(x/2) at x_j = lam / 2^(j+1), lam in [0, 2]:
low = a(x_1)...a(x_J) and band (1, j) = b(x_j) a(x_(j+1))...a(x_J), so J = 1
gives cos(lam/8) and sin(lam/8).  The squares telescope to 1 at every
frequency, which is what makes decomposition/reconstruction lossless.  A
second J = 2 variant, ``paper_literal``, replaces the low-pass by
cos^2(lam/8)cos(lam/16); its response squares do NOT sum to 1, so
tightness-dependent identities are unavailable and the residual is reported
as a diagnostic instead.  At J = 1 the two variants coincide.

A system is a spectral object: the eigenbasis U, the eigenvalues and the
per-band responses r_b(lam).  Every band transform W_b = U^T diag(r_b) U,
and every operator built from them, Ahat and Lhat, is diagonal in that
basis, so flows and energies act on spectral coordinates Hhat = U H through
a :class:`Multiplier`, Hhat -> sum_k diag(a_k) Hhat M_k with channel
mixers M_k: numbers s (s I on any channel count), as the scalar weights
are, or c x c matrices.  What acts per vertex between a band's analysis
and synthesis (a per-vertex filter theta, a :class:`BandFilter` term, or
the banded ee activation) is not diagonal there; :func:`band_pass` applies it to every
band in one U^T / U round trip without forming a matrix.  The dense n x n
transforms are built only on first use of :attr:`FrameletSystem.transforms`
(decompose/reconstruct and explicit matrix checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    BandMismatchError,
    DimensionMismatchError,
    OutOfRangeError,
    VariantNotTightError,
)
from .spectral import Spectrum

__all__ = [
    "Band",
    "VARIANTS",
    "band_index_set",
    "haar_response",
    "FrameletSystem",
    "FrameletCoeffs",
    "BandFilter",
    "Multiplier",
    "build_framelet_system",
    "decompose",
    "reconstruct",
]

Band = Tuple[int, int]

VARIANTS = ("tight", "paper_literal")
LAMBDA_SLACK = 1e-9
TIGHTNESS_TOL = 1e-10


@cache
def band_index_set(scales: int) -> tuple:
    """Band keys for a J-scale system: low-pass (0, J) then (1, 1)..(1, J)."""
    if scales not in (1, 2):
        raise OutOfRangeError(f"scales must be 1 or 2, got {scales}")
    return ((0, scales),) + tuple((1, j) for j in range(1, scales + 1))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@cache
def identity(c: int) -> np.ndarray:
    """The c x c identity matrix, read-only and built once per size."""
    return _read_only(np.eye(c))


def _check_lambda(lam):
    arr = np.asarray(lam, dtype=float)
    if np.any(arr < -LAMBDA_SLACK) or np.any(arr > 2.0 + LAMBDA_SLACK):
        worst = np.ravel(arr)[int(np.argmax(np.abs(np.ravel(arr) - 1.0)))]
        raise OutOfRangeError(f"frequency outside [0, 2]: {worst}")
    return arr


def haar_response(lam, scales: int, variant: str = "tight") -> Dict[Band, np.ndarray]:
    """Filter values of every band at frequency ``lam`` (scalar or array).

    Returns a dict keyed by band.  For the tight variant the squared values
    sum to 1 identically in lam.
    """
    bands = band_index_set(scales)
    if variant not in VARIANTS:
        raise OutOfRangeError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    arr = _check_lambda(lam)
    halves = [arr / 2.0 ** (j + 2) for j in range(1, scales + 1)]  # x_j / 2, j = 1..J
    a, b = [np.cos(x) for x in halves], [np.sin(x) for x in halves]
    out = {(0, scales): math.prod(a)}
    out |= {(1, j): math.prod([b[j - 1], *a[j:]]) for _, j in bands[1:]}
    if variant == "paper_literal" and scales == 2:
        out[(0, 2)] = a[0] ** 2 * a[1]
    return out


@dataclass(frozen=True)
class FrameletSystem:
    """Framelet bank of one spectrum, held per frequency.

    Attributes
    ----------
    scales, variant : the filter bank parameters.
    bands : ordered band keys, low-pass first.
    responses : band -> (n,) filter values at each eigenvalue.
    spectrum : the underlying eigendecomposition.
    tightness_residual : max_i |sum_b resp_b(lam_i)^2 - 1| (diagnostic; ~0
        for the tight variant, genuinely nonzero for paper_literal at J=2).
    """

    scales: int
    variant: str
    bands: tuple
    responses: Dict[Band, np.ndarray]
    spectrum: Spectrum
    tightness_residual: float

    @property
    def n(self) -> int:
        return self.spectrum.n

    @property
    def low_pass(self) -> Band:
        return self.bands[0]

    @property
    def is_tight(self) -> bool:
        return self.tightness_residual <= TIGHTNESS_TOL

    @cached_property
    def squares(self) -> np.ndarray:
        """r_b^2 at each eigenvalue, one row per band in band order."""
        return _read_only(np.stack([self.responses[band] ** 2 for band in self.bands]))

    @cached_property
    def a_hat(self) -> np.ndarray:
        """1 - lam: the eigenvalues of Ahat, one per eigenvalue lam of Lhat."""
        return _read_only(1.0 - self.spectrum.eigenvalues)

    @cached_property
    def ahat_terms(self) -> np.ndarray:
        """-r_b^2 a_hat, one row per band: W_b^T (-Ahat) W_b on spectral coordinates."""
        return _read_only(-(self.squares * self.a_hat))

    @cached_property
    def dirichlet(self) -> "Multiplier":
        """diag(lam): the Dirichlet energy's gradient map on spectral coordinates."""
        return Multiplier([(self.spectrum.eigenvalues, None)])

    @cached_property
    def transforms(self) -> Dict[Band, np.ndarray]:
        """band -> (n, n) symmetric matrix U^T diag(resp) U, built on first use."""
        u = self.spectrum.u
        out = {}
        for band in self.bands:
            w = (u.T * self.responses[band]) @ u
            w = (w + w.T) / 2.0
            w.setflags(write=False)
            out[band] = w
        return out

    def require_tight(self, what: str) -> None:
        if not self.is_tight:
            raise VariantNotTightError(
                f"{what} needs a tight system; residual {self.tightness_residual:.3e} "
                f"(variant={self.variant!r}, scales={self.scales})"
            )


@dataclass(frozen=True)
class FrameletCoeffs:
    """Per-band coefficient matrices, keyed exactly by the system's bands."""

    bands: Dict[Band, np.ndarray]

    def __getitem__(self, band: Band) -> np.ndarray:
        return self.bands[band]


class BandFilter(NamedTuple):
    """diag(r) U diag(theta) U^T diag(r) on spectral coordinates: a per-vertex
    filter theta between the analysis and synthesis of the band with response
    r.  It is not diagonal in the eigenbasis, so a :class:`Multiplier` applies
    all its filters in one :func:`band_pass`, O(n^2 c), never forming the
    n x n matrix."""

    u: np.ndarray
    response: np.ndarray
    theta: np.ndarray


def band_pass(u: np.ndarray, terms, vertex: Callable, c: int) -> Callable:
    """Hhat -> sum_b diag(s_b) U f(U^T diag(a_b) Hhat M_b) on spectral
    coordinates, for terms (a_b, M_b, s_b) and f an in-place map of vertex
    columns: every band in one U^T / U round trip on (n, bands * c) columns,
    band b's from b*c on.  If every M_b is a number, H T with T = [I ... I]
    (c x bands*c) copies H into every band, times one factor column;
    otherwise one product takes the stacked c x c matrices.  The synthesis
    weights band b by s_b, and T^T sums the bands; both copies stay BLAS
    products.

    The map takes (h, out=None) and writes into ``out`` (or a fresh array).
    One (n, c) state runs in-place ufuncs and ``np.dot`` into scratch buffers
    built here, once; a (k, n, c) stack takes stacked products, with the bits
    of its slices."""
    numbers = not any(isinstance(m, np.ndarray) for _, m, _ in terms)
    banded = [Multiplier([(a, m)]).per_frequency for a, m, _ in terms]
    width = len(terms) * c
    weights = np.repeat(np.stack([s for _, _, s in terms], axis=1), c, axis=1)
    copies = np.tile(np.eye(c), len(terms))
    ut, sums = u.T, copies.T
    one = (*np.empty((2, len(u), width)), np.dot)  # one state's band columns x and U^T x
    if numbers:  # one factor per band
        factors = np.repeat(np.concatenate([m[:, 0] for m in banded], axis=1), c, axis=1)

        def analyse(h, x, product):
            product(h, copies, out=x)
            x *= factors
    else:  # every band in one product with the stacked (n, bands, c, c) mixers
        mixers, rows = np.stack(banded, axis=1), (len(terms), 1, c)

        def analyse(h, x, product):
            np.matmul(h[..., None, None, :], mixers, out=x.reshape(*h.shape[:-1], *rows))

    def apply(h, out=None):
        x, t, product = one if h.ndim == 2 else (*np.empty((2, *h.shape[:-1], width)), np.matmul)
        analyse(h, x, product)
        product(ut, x, out=t)
        vertex(t)
        product(u, t, out=x)
        x *= weights
        return product(x, sums, out=out)

    return apply


def one_like(mixer) -> object:
    """The unit of a mixer's kind: 1.0 for a number, I for a c x c matrix."""
    return identity(len(mixer)) if isinstance(mixer, np.ndarray) else 1.0


class Multiplier:
    """The map Hhat -> sum_k A_k Hhat M_k - S on spectral coordinates Hhat = U H.

    Each term is (factor, mixer).  A 1-D factor is a diagonal A_k, a function
    of the frequency; the :class:`BandFilter` factors, per-vertex filters,
    take one :func:`band_pass` per channel count, built on first use.  The
    mixer is a number s_k (s_k I on any channel count), a c x c channel
    matrix, or None for 1.  The diagonal terms sum, per frequency, into one
    number sum_k a_k s_k when no mixer is a matrix, else into one c x c
    matrix sum_k a_k M_k, so an application costs one O(n c), or O(n c^2),
    product whatever the number of bands.  ``source`` S is an optional
    constant (n, c) term.  A (k, n, c) stack of states takes one product too,
    with the bits of its slices, and :meth:`apply_into` writes it into a
    caller's buffer.  With symmetric mixers the map is the gradient of the
    energy :meth:`quadratic` evaluates.
    """

    def __init__(self, terms, source: Optional[np.ndarray] = None):
        self.diagonal, self.matrices, self.channels, self.source = None, None, None, source
        self.columns = {}  # c -> the diagonal repeated over c channels, built on first use
        self.passes = {}  # c -> the filters' band pass on c channels, built on first use
        self.filters, scaled, factors, mixers = [], None, [], []
        for factor, mixer in terms:
            matrix = isinstance(mixer, np.ndarray)  # c x c; else a number, or None for 1
            if matrix:
                if self.channels not in (None, len(mixer)):
                    raise DimensionMismatchError(f"mixers of sizes {self.channels}, {len(mixer)}")
                self.channels = len(mixer)
            if isinstance(factor, BandFilter):
                self.filters.append((factor, 1.0 if mixer is None else mixer))
            elif mixer is None:
                self.diagonal = factor if self.diagonal is None else self.diagonal + factor
            elif not matrix:  # summed from 0.0, in term order
                scaled = (0.0 if scaled is None else scaled) + factor * mixer
            else:
                factors.append(factor)
                mixers.append(mixer)
        if scaled is not None:
            self.diagonal = scaled if self.diagonal is None else scaled + self.diagonal
        if mixers:  # n x c x c
            self.matrices = np.einsum("nk,kcd->ncd", np.stack(factors, 1), np.array(mixers, float))
            if self.diagonal is not None:
                self.matrices += self.diagonal[:, None, None] * identity(self.channels)
                self.diagonal = None

    def filter_pass(self, c: int) -> Callable:
        """The filters' band pass on c channels: terms (r_f, M_f, r_f), f = theta_f."""
        if c not in self.passes:
            thetas = np.repeat(np.stack([f.theta for f, _ in self.filters], 1), c, axis=1)
            terms = [(f.response, m, f.response) for f, m in self.filters]
            self.passes[c] = band_pass(self.filters[0][0].u, terms,
                                       lambda x: np.multiply(x, thetas, out=x), c)
        return self.passes[c]

    @property
    def per_frequency(self) -> Optional[np.ndarray]:
        """sum_k a_k M_k per frequency: (n, c, c), (n, 1, 1) if a number, None with a filter."""
        if self.filters:
            return None
        return self.diagonal[:, None, None] if self.matrices is None else self.matrices

    def check_channels(self, c: int) -> None:
        """Raise unless a signal with c channels fits the mixers."""
        if self.channels not in (None, c):
            raise DimensionMismatchError(
                f"weights are {self.channels}x{self.channels}, signal has {c} channels"
            )

    def apply(self, h: np.ndarray) -> np.ndarray:
        """sum_k A_k h M_k - S for spectral coordinates h, (n, c) or a stack (k, n, c)."""
        return self.apply_into(h, None)

    def apply_into(self, h: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """:meth:`apply`, written into ``out`` (which must not overlap h) or,
        if None, into a fresh array."""
        c, filters = h.shape[-1], self.filters
        self.check_channels(c)
        if self.matrices is not None:  # per frequency, a row times a c x c matrix
            rows = None if out is None else out[..., None, :]
            out = np.matmul(h[..., None, :], self.matrices, out=rows)[..., 0, :]
        elif self.diagonal is not None:  # a full-width column: on a stack faster than (n, 1)
            if c not in self.columns:
                self.columns[c] = np.repeat(self.diagonal[:, None], c, axis=1)
            out = np.multiply(self.columns[c], h, out=out)
        else:  # the filters alone: their band pass writes straight into out
            out, filters = self.filter_pass(c)(h, out), None
        if filters:  # added to the diagonal or matrix terms
            out += self.filter_pass(c)(h)
        return out if self.source is None else np.subtract(out, self.source, out=out)

    def quadratic(self, h: np.ndarray) -> float:
        """0.5 <h, G h> - <h, S>, where G h - S = apply(h)."""
        grad = self.apply(h)
        return 0.5 * float(np.vdot(h, grad if self.source is None else grad - self.source))


def build_framelet_system(s: Spectrum, scales: int, variant: str = "tight") -> FrameletSystem:
    """Evaluate every band's response on the spectrum of ``s``.

    Eigenvalues are clipped at 0 from below (solver jitter only) before the
    trig evaluation.  No n x n matrix is formed.
    """
    bands = band_index_set(scales)
    lams = np.maximum(_check_lambda(s.eigenvalues), 0.0)
    responses = {band: _read_only(r) for band, r in haar_response(lams, scales, variant).items()}
    square_sum = sum(responses[band] ** 2 for band in bands)
    residual = float(np.max(np.abs(square_sum - 1.0)))
    return FrameletSystem(
        scales=scales,
        variant=variant,
        bands=bands,
        responses=responses,
        spectrum=s,
        tightness_residual=residual,
    )


def _check_signal(sys: FrameletSystem, signal: np.ndarray) -> np.ndarray:
    signal = np.asarray(signal, dtype=float)
    if signal.shape[0] != sys.n:
        raise DimensionMismatchError(
            f"signal has {signal.shape[0]} rows, system expects {sys.n}"
        )
    return signal


def decompose(sys: FrameletSystem, signal: np.ndarray) -> FrameletCoeffs:
    """Framelet analysis: one coefficient matrix W_{r,j} @ signal per band."""
    signal = _check_signal(sys, signal)
    return FrameletCoeffs(bands={b: sys.transforms[b] @ signal for b in sys.bands})


def reconstruct(sys: FrameletSystem, coeffs: FrameletCoeffs) -> np.ndarray:
    """Framelet synthesis: sum_b W_b^T @ coeffs[b].

    Exact inverse of :func:`decompose` on tight systems.
    """
    if set(coeffs.bands) != set(sys.bands):
        raise BandMismatchError(
            f"coefficient bands {sorted(coeffs.bands)} != system bands {sorted(sys.bands)}"
        )
    out = None
    for band in sys.bands:
        term = sys.transforms[band].T @ _check_signal(sys, coeffs.bands[band])
        out = term if out is None else out + term
    return out
