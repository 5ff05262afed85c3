"""Frequency-dominance analysis: predictions from per-frequency gains, and
classification of simulated traces.

A renormalized linear iteration is dominated by whichever frequency carries
the largest per-step gain magnitude.  The normalized Dirichlet energy
E(H/||H||) then converges to 0 when frequency 0 dominates (LFD: the state
collapses onto ker(Lhat)) or to rho_L/2 when the top frequency dominates
(HFD: the state collapses onto the top eigenspace).  Anything else - an
interior dominant frequency or a tie - is reported as MIXED, and runs that
never plateau as UNDECIDED.

The gains are not computed here: one step of a scheme acts on frequency i
by a c x c matrix M_i, which dynamics builds with the step itself, and the
per-eigenvalue spectral radii rho(M_i) arrive as ``FlowTrace.gains``.
Thresholds therefore hold exactly on the actual spectrum and for every
weight mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from .energies import dirichlet_energy
from .errors import TraceNotNormalizedError, ZeroStateError
from .spectral import TOP_TIE_TOL, Spectrum, as_columns, graph_fourier, restore

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import FlowTrace

__all__ = [
    "LFD",
    "HFD",
    "MIXED",
    "UNDECIDED",
    "normalized_dirichlet",
    "DominancePrediction",
    "dominant_frequency",
    "hfd_projection",
    "kernel_projection",
    "DominanceVerdict",
    "classify_dominance",
    "limit_dominance",
]

LFD = "LFD"
HFD = "HFD"
MIXED = "MIXED"
UNDECIDED = "UNDECIDED"

DEFAULT_TOL = 1e-6


def normalized_dirichlet(lap: np.ndarray, signal) -> float:
    """Dirichlet energy of the unit-normalized signal, in [0, rho_L/2]."""
    x, _ = as_columns(signal, np.asarray(lap).shape[0])
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ZeroStateError("cannot normalize an all-zero state")
    return dirichlet_energy(lap, x / norm)


@dataclass(frozen=True)
class DominancePrediction:
    """Outcome of the gain-argmax analysis over an actual spectrum.

    margin is 1 - (largest |gain| outside the winning frequency group) /
    (winning |gain|); ties and interior winners are MIXED.
    """

    lambda_star: float
    dominance: str
    margin: float
    gains: Dict[float, float]


def dominant_frequency(spectrum: Spectrum, gains: np.ndarray) -> DominancePrediction:
    """Classify the argmax of |gain| over the distinct eigenvalues.

    ``gains`` holds one per-step gain per eigenvalue (``FlowTrace.gains``);
    a frequency (``Spectrum.frequency_starts``) gains the most of its
    eigenvalues' gains.  LFD when frequency 0 wins, HFD when rho_L wins,
    MIXED for an interior winner or any tie within a relative 1e-9
    (including the 0-vs-rho_L tie).  A tie reports its lowest tied
    frequency as lambda_star.
    """
    values = np.maximum.reduceat(np.abs(gains), spectrum.frequency_starts).tolist()
    gmax = max(values)
    best = values.index(gmax)
    others = values[:best] + values[best + 1:]
    margin = 1.0 - max(others) / gmax if others and gmax > 0.0 else 1.0
    tied = [i for i, v in enumerate(values) if gmax - v <= TOP_TIE_TOL * gmax]
    lambda_star = spectrum.frequencies[tied[0]]
    dominance = MIXED
    if len(tied) == 1 and lambda_star <= TOP_TIE_TOL:
        dominance = LFD
    elif len(tied) == 1 and abs(lambda_star - spectrum.rho_l) <= TOP_TIE_TOL:
        dominance = HFD
    gains = dict(zip(spectrum.frequencies, values))
    return DominancePrediction(lambda_star, dominance, margin, gains)


def _projection(spectrum: Spectrum, signal, mask: np.ndarray):
    x, was_vector = as_columns(signal, spectrum.n)
    rows = spectrum.u[mask]
    return restore(rows.T @ (rows @ x), was_vector)


def _top(spectrum: Spectrum) -> np.ndarray:
    return spectrum.eigenvalues >= spectrum.rho_l - TOP_TIE_TOL


def _kernel(spectrum: Spectrum) -> np.ndarray:
    return np.abs(spectrum.eigenvalues) <= TOP_TIE_TOL


def hfd_projection(spectrum: Spectrum, signal):
    """Project each channel onto the eigenspace of all eigenvalues within
    1e-9 of rho_L (spectral projector, so top-frequency ties are handled)."""
    return _projection(spectrum, signal, _top(spectrum))


def kernel_projection(spectrum: Spectrum, signal):
    """Project each channel onto the eigenspace of eigenvalues within 1e-9 of 0."""
    return _projection(spectrum, signal, _kernel(spectrum))


@dataclass(frozen=True)
class DominanceVerdict:
    """Classification of a finished renormalized run.

    limit_value is the final normalized Dirichlet energy; residual is the
    relative distance of the final state to the limiting eigenspace implied
    by the verdict (kernel for LFD, top eigenspace for HFD; None otherwise).
    """

    dominance: str
    limit_value: float
    target_low: float
    target_high: float
    residual: Optional[float]
    top_multiplicity: int
    dominant_lambda: Optional[float] = None
    predicted: Optional[str] = None


def classify_dominance(
    trace: "FlowTrace",
    spectrum: Spectrum,
    tol: float = DEFAULT_TOL,
    prediction: Optional[DominancePrediction] = None,
) -> DominanceVerdict:
    """Read a verdict off a renormalized trace by :func:`limit_dominance`."""
    if not trace.renormalized:
        raise TraceNotNormalizedError("dominance is defined on renormalized traces only")
    plateaued, limit = trace.plateaued and trace.steps_run > 0, trace.limit_value
    dominance, residual = _limit_dominance(
        plateaued, limit, spectrum.rho_l, tol, spectrum, trace.final_coefficients
    )
    return DominanceVerdict(
        dominance=dominance,
        limit_value=limit,
        target_low=0.0,
        target_high=spectrum.rho_l / 2.0,
        residual=residual,
        top_multiplicity=spectrum.top_multiplicity,
        dominant_lambda=None if prediction is None else prediction.lambda_star,
        predicted=None if prediction is None else prediction.dominance,
    )


def limit_dominance(
    plateaued: bool,
    limit: float,
    rho_l: float,
    tol: float,
    spectrum: Optional[Spectrum] = None,
    state: Optional[np.ndarray] = None,
) -> Tuple[str, Optional[float]]:
    """The verdict rule, as (dominance, residual).

    UNDECIDED without a plateau; LFD when the final E(H/||H||) is within tol
    of 0; HFD when it is within tol of rho_L/2 *and* the final ``state`` H
    (on the vertices) lies within sqrt(tol) of the top eigenspace of
    ``spectrum``; MIXED otherwise.  residual is the relative distance of H to
    the kernel (LFD) or the top eigenspace (HFD).  With ``state`` unknown the
    eigenspace test is skipped and the residual is None; only rho_L is read.
    """
    coefficients = None if state is None else graph_fourier(spectrum, state)
    return _limit_dominance(plateaued, limit, rho_l, tol, spectrum, coefficients)


def _limit_dominance(plateaued, limit, rho_l, tol, spectrum, coefficients):
    """:func:`limit_dominance` of the state H given by its spectral
    coordinates U H (None if unknown)."""
    if not plateaued:
        return UNDECIDED, None
    if abs(limit) <= tol:
        return LFD, _relative_residual(spectrum, coefficients, _kernel)
    if abs(limit - rho_l / 2.0) <= tol:
        residual = _relative_residual(spectrum, coefficients, _top)
        if residual is None or residual <= np.sqrt(tol):
            return HFD, residual
    return MIXED, None


def _relative_residual(spectrum: Spectrum, coefficients, eigenspace) -> Optional[float]:
    """||H - P H|| / ||H|| for P the projector onto the ``eigenspace`` mask's
    eigenvectors, from H's spectral coordinates U H (None if unknown): the
    norm of those outside it, U being orthonormal."""
    if coefficients is None:
        return None
    norm = float(np.linalg.norm(coefficients))
    if norm == 0.0:
        raise ZeroStateError("final state has zero norm")
    return float(np.linalg.norm(coefficients[~eigenspace(spectrum)])) / norm
