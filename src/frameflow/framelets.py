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
a :class:`Multiplier`, Hhat -> sum_k diag(a_k) Hhat M_k with c x c channel
mixers M_k.  A per-vertex filter theta between a band's analysis and
synthesis is not diagonal there; a :class:`BandFilter` term applies it
through U^T and U without forming a matrix.  The dense n x n transforms are
built only on first use of :attr:`FrameletSystem.transforms`
(decompose/reconstruct and explicit matrix checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Dict, NamedTuple, Optional, Tuple

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


def band_index_set(scales: int) -> tuple:
    """Band keys for a J-scale system: low-pass (0, J) then (1, 1)..(1, J)."""
    if scales not in (1, 2):
        raise OutOfRangeError(f"scales must be 1 or 2, got {scales}")
    return ((0, scales),) + tuple((1, j) for j in range(1, scales + 1))


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
    all its filters in one U^T / U round trip, O(n^2 c), never forming the
    n x n matrix."""

    u: np.ndarray
    response: np.ndarray
    theta: np.ndarray


def _stack(columns) -> Optional[np.ndarray]:
    return np.stack(columns, axis=1) if columns else None


class Multiplier:
    """The map Hhat -> sum_k A_k Hhat M_k - S on spectral coordinates Hhat = U H.

    Each term is (factor, mixer).  A 1-D factor is a diagonal A_k, a function
    of the frequency; a :class:`BandFilter` factor is a per-vertex filter.
    The mixer is a c x c channel matrix, or None for the identity.  The
    diagonal terms sum, per frequency, into one c x c matrix sum_k a_k M_k,
    or one number when every M_k is s_k I, so an application costs one
    O(n c^2), or O(n c), product whatever the number of bands.  That s I
    check is made here, once per Multiplier, and nowhere else: callers pass
    their weights as matrices.  ``source`` S is an optional constant (n, c)
    term.  A (k, n, c) stack of states takes one product too, with the bits
    of its slices, and :meth:`apply_into` writes it into a caller's buffer.
    With symmetric mixers the map is the gradient of the energy
    :meth:`quadratic` evaluates.
    """

    def __init__(self, terms, source: Optional[np.ndarray] = None):
        self.diagonal, self.matrices, self.channels, self.source = None, None, None, source
        mixed, filters = [], []
        for factor, mixer in terms:
            if mixer is not None:
                mixer = np.asarray(mixer, dtype=float)
                if self.channels not in (None, len(mixer)):
                    raise DimensionMismatchError(f"mixers of sizes {self.channels}, {len(mixer)}")
                self.channels = len(mixer)
            if isinstance(factor, BandFilter):
                filters.append((factor, mixer))
            elif mixer is not None:
                mixed.append((np.asarray(factor, dtype=float), mixer))
            else:
                self.diagonal = factor if self.diagonal is None else self.diagonal + factor
        if mixed:
            eye, mixers = np.eye(self.channels), np.stack([m for _, m in mixed])
            if np.array_equal(mixers, mixers[:, :1, :1] * eye):  # all s_k I
                # one number per frequency: the (n, c, c) path's sum (for c > 1), in term order
                scales = mixers[:, 0, 0].tolist()
                scaled = reduce(np.add, [f * s for (f, _), s in zip(mixed, scales)], 0.0)
                self.diagonal = scaled if self.diagonal is None else scaled + self.diagonal
            else:  # n x c x c
                self.matrices = np.einsum("nk,kcd->ncd", _stack([f for f, _ in mixed]), mixers)
                if self.diagonal is not None:
                    self.matrices += self.diagonal[:, None, None] * eye
                    self.diagonal = None
        # n x F responses and per-vertex thetas of the filters, with their mixers
        self.filter_mixers = [m for _, m in filters]
        self.filter_responses = _stack([f.response for f, _ in filters])
        self.filter_thetas = _stack([f.theta for f, _ in filters])
        self.basis = filters[0][0].u if filters else None

    @property
    def per_frequency(self) -> Optional[np.ndarray]:
        """sum_k a_k M_k per frequency: (n, c, c), (n, 1, 1) if a number, None with a filter."""
        if self.filter_mixers:
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

    def apply_into(self, h: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """:meth:`apply`, written into ``out`` (which must not overlap h) or,
        if None, into a fresh array."""
        if h.ndim == 3 and self.filter_mixers:
            return np.stack([self.apply(x) for x in h], out=out)
        n, c = h.shape[-2:]
        self.check_channels(c)
        if self.matrices is not None:  # per frequency, a row times a c x c matrix
            rows = None if out is None else out[..., None, :]
            out = np.matmul(h[..., None, :], self.matrices, out=rows)[..., 0, :]
        elif self.diagonal is not None:
            out = np.multiply(self.diagonal[:, None], h, out=out)
        elif out is None:
            out = np.zeros_like(h)
        else:
            out.fill(0.0)
        if self.filter_mixers:
            mixed = np.stack([h if m is None else h @ m for m in self.filter_mixers], axis=1)
            vertex = self.basis.T @ (self.filter_responses[:, :, None] * mixed).reshape(n, -1)
            vertex = (self.filter_thetas[:, :, None] * vertex.reshape(n, -1, c)).reshape(n, -1)
            spectral = (self.basis @ vertex).reshape(n, -1, c)
            out += np.einsum("nf,nfc->nc", self.filter_responses, spectral)
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
    responses = haar_response(lams, scales, variant)
    for band in bands:
        responses[band].setflags(write=False)
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
