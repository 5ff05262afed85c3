"""Frequency-dominance analysis: predictions from per-frequency gains, and
classification of simulated traces.

A renormalized linear iteration is dominated by whichever frequency carries
the largest per-step gain magnitude.  The normalized Dirichlet energy
E(H/||H||) then converges to 0 when frequency 0 dominates (LFD: the state
collapses onto ker(Lhat)) or to rho_L/2 when the top frequency dominates
(HFD: the state collapses onto the top eigenspace).  Anything else - an
interior dominant frequency or a tie - is reported as MIXED, and runs that
never plateau as UNDECIDED.

The gain families implemented here are the scalar-weight spatial family
g(lam) = (low^2(lam) + lambda_w * high^2(lam)) (1 - lam), the descent step
1 - tau (low^2(lam) + high^2(lam) - g(lam)) of the same energy, and the
uniform spectral-filter family a(lam) = low^2(lam) + theta * high^2(lam);
thresholds are computed exactly on the actual spectrum rather than from a
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from .energies import dirichlet_energy, energy_gap, _as_columns, _restore
from .errors import OutOfRangeError, TraceNotNormalizedError, ZeroStateError
from .framelets import haar_response
from .spectral import Spectrum

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import FlowTrace

__all__ = [
    "LFD",
    "HFD",
    "MIXED",
    "UNDECIDED",
    "normalized_dirichlet",
    "amplification_spatial",
    "amplification_spectral",
    "AmplificationFamily",
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

FREQ_GROUP_TOL = 1e-9
DEFAULT_TOL = 1e-6


def normalized_dirichlet(lap: np.ndarray, signal) -> float:
    """Dirichlet energy of the unit-normalized signal, in [0, rho_L/2]."""
    x, _ = _as_columns(signal, np.asarray(lap).shape[0])
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ZeroStateError("cannot normalize an all-zero state")
    return dirichlet_energy(lap, x / norm)


def _like_input(lam, out):
    return float(out) if np.ndim(lam) == 0 else out


def amplification_spatial(lam, lambda_w: float, scales: int = 1, variant: str = "tight"):
    """Per-frequency growth factor of the scalar-weight convolution family:

        g(lam) = (low^2(lam) + lambda_w * high^2(lam)) * (1 - lam)

    Signed; dominance compares |g| over the spectrum.  At lambda_w = 1 the
    tight variant collapses to g(lam) = 1 - lam.
    """
    return _like_input(lam, AmplificationFamily("spatial", lambda_w, scales, variant).gains(lam))


def amplification_spectral(lam, theta: float):
    """Per-frequency gain of the uniform spectral filter at one scale:

        a(lam) = cos^2(lam/8) + theta * sin^2(lam/8)

    Monotone increasing in lam for theta > 1, decreasing for theta in [0, 1),
    constant 1 at theta = 1.  Requires theta >= 0.
    """
    return _like_input(lam, AmplificationFamily("spectral", theta).gains(lam))


@dataclass(frozen=True)
class AmplificationFamily:
    """A one-parameter per-frequency gain family.

    kind 'spatial' uses coefficient = lambda_w, 'spectral' uses coefficient =
    theta.  'descent' is one explicit-Euler step of size tau down the energy
    whose convolution gain is the 'spatial' one (gradf_ufg and the activated
    scheme's linearization): 1 - tau (sum_b r_b^2 - g).  Two further kinds
    support the epsilon sweeps: 'ee' is the band-shifted convolution with
    scalar weights, and 'perturbed' the exponential decay factors of the
    closed-form flow (whose argmax is the slowest-decaying frequency).
    Frequencies outside [0, 2] and a negative theta raise OutOfRangeError.
    """

    kind: str
    coefficient: float = 1.0
    scales: int = 1
    variant: str = "tight"
    epsilon: float = 0.0
    tau: float = 1.0

    def gains(self, lam) -> np.ndarray:
        arr = np.asarray(lam, dtype=float)
        if self.kind == "perturbed":
            return np.exp(-(np.maximum(arr, 0.0) + self.epsilon * energy_gap(arr)))
        if self.kind == "spectral" and self.coefficient < 0.0:
            raise OutOfRangeError(f"theta must be nonnegative, got {self.coefficient}")
        responses = haar_response(arr, self.scales, self.variant)
        low_sq = responses[(0, self.scales)] ** 2
        high_sq = sum(v**2 for b, v in responses.items() if b[0] != 0)
        if self.kind in ("spatial", "descent"):
            conv = (low_sq + self.coefficient * high_sq) * (1.0 - arr)
            return conv if self.kind == "spatial" else 1.0 - self.tau * (low_sq + high_sq - conv)
        if self.kind == "spectral":
            return low_sq + self.coefficient * high_sq
        if self.kind == "ee":
            eps = self.epsilon
            return (1.0 - arr - eps) * low_sq + self.coefficient * (1.0 - arr + eps) * high_sq
        raise OutOfRangeError(f"unknown amplification family {self.kind!r}")


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


def dominant_frequency(spectrum: Spectrum, family: AmplificationFamily) -> DominancePrediction:
    """Evaluate |gain| on every distinct eigenvalue and classify the argmax.

    LFD when frequency 0 wins, HFD when rho_L wins, MIXED for an interior
    winner or any tie (including the 0-vs-rho_L tie).
    """
    lams = np.maximum(spectrum.eigenvalues, 0.0)
    distinct: list = []
    for lam in lams:
        if not distinct or lam - distinct[-1] > FREQ_GROUP_TOL:
            distinct.append(float(lam))
    values = np.abs(family.gains(np.asarray(distinct)))
    gmax = float(np.max(values))
    winner_idx = int(np.argmax(values))
    scale = max(1.0, gmax)
    tied = [i for i, v in enumerate(values) if gmax - v <= FREQ_GROUP_TOL * scale]
    others = values[[i for i in range(len(distinct)) if i != winner_idx]]
    margin = 1.0 - float(np.max(others)) / gmax if others.size and gmax > 0.0 else 1.0
    lambda_star = distinct[winner_idx]
    is_zero = lambda_star <= FREQ_GROUP_TOL
    is_top = abs(lambda_star - spectrum.rho_l) <= FREQ_GROUP_TOL
    if len(tied) > 1:
        dominance = MIXED
    elif is_zero:
        dominance = LFD
    elif is_top:
        dominance = HFD
    else:
        dominance = MIXED
    return DominancePrediction(
        lambda_star=lambda_star,
        dominance=dominance,
        margin=margin,
        gains={lam: float(v) for lam, v in zip(distinct, values)},
    )


def _projection(spectrum: Spectrum, signal, mask: np.ndarray):
    x, was_vector = _as_columns(signal, spectrum.n)
    rows = spectrum.u[mask]
    return _restore(rows.T @ (rows @ x), was_vector)


def hfd_projection(spectrum: Spectrum, signal):
    """Project each channel onto the eigenspace of all eigenvalues within
    1e-9 of rho_L (spectral projector, so top-frequency ties are handled)."""
    mask = spectrum.eigenvalues >= spectrum.rho_l - FREQ_GROUP_TOL
    return _projection(spectrum, signal, mask)


def kernel_projection(spectrum: Spectrum, signal):
    """Project each channel onto the eigenspace of eigenvalues within 1e-9 of 0."""
    mask = np.abs(spectrum.eigenvalues) <= FREQ_GROUP_TOL
    return _projection(spectrum, signal, mask)


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
    plateaued = trace.plateaued and trace.steps_run > 0
    dominance, residual = limit_dominance(
        plateaued, trace.limit_value, spectrum, tol, trace.final_state
    )
    return DominanceVerdict(
        dominance=dominance,
        limit_value=trace.limit_value,
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
    spectrum: Spectrum,
    tol: float,
    state: Optional[np.ndarray] = None,
) -> Tuple[str, Optional[float]]:
    """The verdict rule, as (dominance, residual).

    UNDECIDED without a plateau; LFD when the final E(H/||H||) is within tol
    of 0; HFD when it is within tol of rho_L/2 *and* the final ``state`` lies
    within sqrt(tol) of the top eigenspace; MIXED otherwise.  residual is the
    relative distance of ``state`` to the kernel (LFD) or the top eigenspace
    (HFD).  With ``state`` unknown the eigenspace test is skipped and the
    residual is None.
    """
    if not plateaued:
        return UNDECIDED, None
    if abs(limit) <= tol:
        residual = None if state is None else _relative_residual(spectrum, state, kernel_projection)
        return LFD, residual
    if abs(limit - spectrum.rho_l / 2.0) <= tol:
        if state is None:
            return HFD, None
        residual = _relative_residual(spectrum, state, hfd_projection)
        if residual <= np.sqrt(tol):
            return HFD, residual
    return MIXED, None


def _relative_residual(spectrum: Spectrum, state: np.ndarray, projector) -> float:
    norm = float(np.linalg.norm(state))
    if norm == 0.0:
        raise ZeroStateError("final state has zero norm")
    return float(np.linalg.norm(state - projector(spectrum, state))) / norm
