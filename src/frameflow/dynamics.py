"""Discretized flows over framelet-decomposed signals, and their traces.

Five iterated schemes plus one closed form:

* ``spatial_framelet``   H' = tau * sum_b W_b^T Ahat W_b H W_b
* ``gradf_ufg``          H' = H - tau * grad(total framelet energy)
* ``ee_ufg``             H' = W0^T (Ahat - eps I) W0 H W0
                              + sum_high W^T (Ahat + eps I) W H W   (stepsize 1)
* ``spectral_framelet``  H' = tau * sum_b W_b^T diag(theta_b) W_b H W
* ``activated``          H' = H + tau * act(-grad), act in {identity, relu, tanh}
* ``perturbed_closed_form``  H(t) = U^T diag(exp(-(lam_i + eps*gap_i) t)) U H(0)

``run_flow`` iterates a scheme, recording per step the state norm, the
normalized Dirichlet energy E(H/||H||), the scheme's governing energy, and
the Rayleigh quotient 2 E(H/||H||).  Renormalization (dividing the state by
its Frobenius norm after each step) is the default for dominance
classification; it is only legal for positively homogeneous steps, which
excludes tanh activation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Callable, Iterable, List, Optional

import numpy as np

from .energies import (
    WeightConfig,
    dirichlet_energy,
    energy_gap,
    perturbed_energy,
    spectral_energy,
    spectral_energy_gradient,
    total_framelet_energy,
    total_framelet_energy_gradient,
    _as_columns,
    _restore,
)
from .errors import (
    ConfigError,
    IllegalRenormalizeError,
    NumericOverflowError,
    OutOfRangeError,
    ZeroStateError,
)
from .framelets import FrameletSystem
from .spectral import Spectrum

__all__ = [
    "SCHEME_KINDS",
    "ACTIVATIONS",
    "Scheme",
    "StopRule",
    "FlowTrace",
    "step_spatial_framelet",
    "step_gradf_ufg",
    "step_ee_ufg",
    "step_spectral_framelet",
    "step_activated",
    "perturbed_closed_form",
    "energy_enhanced_omega",
    "run_flow",
]

SCHEME_KINDS = (
    "spatial_framelet",
    "gradf_ufg",
    "ee_ufg",
    "spectral_framelet",
    "activated",
    "perturbed_closed_form",
)
ACTIVATIONS = ("identity", "relu", "tanh")
OVERFLOW_GUARD = 1e150


@dataclass(frozen=True)
class Scheme:
    """Which step to iterate, with what nonlinearity, renormalized or not."""

    kind: str
    activation: str = "identity"
    renormalize: bool = False

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.kind not in ("activated", "ee_ufg") and self.activation != "identity":
            raise ConfigError(f"scheme {self.kind!r} is linear; activation must be identity")
        if self.activation == "tanh" and self.renormalize:
            raise IllegalRenormalizeError(
                "tanh is not positively homogeneous; renormalized trajectories "
                "would not match the unnormalized flow up to scale"
            )


@dataclass(frozen=True)
class StopRule:
    """Stop after max_steps, or earlier once the normalized Dirichlet energy
    changes by less than plateau_tol for plateau_window consecutive steps."""

    max_steps: int
    plateau_tol: float = 1e-9
    plateau_window: int = 10

    def __post_init__(self):
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.plateau_window < 1:
            raise ConfigError(f"plateau_window must be >= 1, got {self.plateau_window}")

    def plateau_step(self, e_norms: Iterable[float]) -> Optional[int]:
        """The step at which the plateau rule fires on E(H/||H||) per record
        (row 0 first), or None.  Reads ``e_norms`` no further than that step,
        so a flow can feed it as it steps."""
        flat_run = 0
        for k, (prev, cur) in enumerate(pairwise(e_norms), start=1):
            flat_run = flat_run + 1 if abs(cur - prev) < self.plateau_tol else 0
            if flat_run >= self.plateau_window:
                return k
        return None


@dataclass(frozen=True)
class FlowTrace:
    """Step-by-step record of one flow run.

    Row 0 describes the initial state; row t the state after step t.  The
    ``norms`` column records the Frobenius norm *before* renormalization, so
    on renormalized runs it is the per-step growth factor.
    """

    scheme: Scheme
    steps: np.ndarray
    norms: np.ndarray
    dirichlet_normalized: np.ndarray
    total_energy: np.ndarray
    rayleigh: np.ndarray
    wall_time: np.ndarray
    final_state: np.ndarray
    renormalized: bool
    plateaued: bool
    steps_to_plateau: Optional[int]

    @property
    def steps_run(self) -> int:
        return int(self.steps[-1]) if self.steps.size else 0

    @property
    def limit_value(self) -> float:
        return float(self.dirichlet_normalized[-1])


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    raise ConfigError(f"unknown activation {name!r}")


def step_spatial_framelet(sys: FrameletSystem, ahat: np.ndarray, signal, cfg: WeightConfig):
    """One band-wise convolution step tau * sum_b W_b^T Ahat W_b H W_b.

    With a shared weight matrix on a tight system this collapses to the
    plain one-hop propagation Ahat H W.
    """
    x, was_vector = _as_columns(signal, sys.n)
    out = np.zeros_like(x)
    for band in cfg.bands_for(sys):
        t = sys.transforms[band]
        out += t.T @ (ahat @ (t @ x)) @ cfg.w[band]
    return _restore(cfg.tau * out, was_vector)


def step_gradf_ufg(sys: FrameletSystem, ahat: np.ndarray, signal, initial, cfg: WeightConfig):
    """One explicit-Euler step down the total framelet energy gradient.

    ``initial`` is the flow's captured starting state; it only matters when
    a source term is configured (beta != 0 with mixing matrices).
    """
    x, was_vector = _as_columns(signal, sys.n)
    grad = total_framelet_energy_gradient(
        sys, ahat, x, cfg, initial=initial if cfg.has_source else None
    )
    return _restore(x + cfg.tau * (-grad), was_vector)


def energy_enhanced_omega(sys: FrameletSystem, cfg: WeightConfig) -> WeightConfig:
    """Rewrite cfg with Omega_low = I + eps*W_low, Omega_high = I - eps*W_high.

    Under this choice the gradient step of the total framelet energy (tau=1,
    no source) reproduces :func:`step_ee_ufg` exactly.
    """
    bands = cfg.bands_for(sys)
    eps = cfg.epsilon
    omega = {}
    for band in bands:
        eye = np.eye(cfg.w[band].shape[0])
        omega[band] = eye + eps * cfg.w[band] if band == sys.low_pass else eye - eps * cfg.w[band]
    return replace(cfg, omega=omega)


def step_ee_ufg(
    sys: FrameletSystem,
    ahat: np.ndarray,
    signal,
    cfg: WeightConfig,
    activation: str = "identity",
):
    """One energy-enhanced convolution step: the low-pass band propagates
    through Ahat - eps I, every high-pass band through Ahat + eps I.

    ``activation`` is applied inside each band before synthesis.  Only the
    identity (linearized) form is a gradient step of the shifted band
    energy; the banded nonlinear variant is offered without any claimed
    energy identity.
    """
    x, was_vector = _as_columns(signal, sys.n)
    eps = cfg.epsilon
    out = np.zeros_like(x)
    for band in cfg.bands_for(sys):
        t = sys.transforms[band]
        coeff = t @ x
        shift = -eps if band == sys.low_pass else eps
        out += t.T @ _activate(activation, (ahat @ coeff + shift * coeff) @ cfg.w[band])
    return _restore(out, was_vector)


def step_spectral_framelet(sys: FrameletSystem, signal, cfg: WeightConfig):
    """One spectral filtering step tau * sum_b W_b^T diag(theta_b) W_b H W."""
    x, was_vector = _as_columns(signal, sys.n)
    w = cfg.shared_w(sys)
    theta = cfg.theta_for(sys)
    out = np.zeros_like(x)
    for band in sys.bands:
        t = sys.transforms[band]
        out += t.T @ (theta[band][:, None] * (t @ x)) @ w
    return _restore(cfg.tau * out, was_vector)


def step_activated(
    sys: FrameletSystem, ahat: np.ndarray, signal, initial, cfg: WeightConfig, activation: str
):
    """One activated descent step H + tau * act(-grad).

    With the identity activation this reproduces step_gradf_ufg bit for bit.
    Any activation with x*act(x) >= 0 keeps the energy non-increasing for
    small enough tau.
    """
    x, was_vector = _as_columns(signal, sys.n)
    grad = total_framelet_energy_gradient(
        sys, ahat, x, cfg, initial=initial if cfg.has_source else None
    )
    return _restore(x + cfg.tau * _activate(activation, -grad), was_vector)


def perturbed_closed_form(spectrum: Spectrum, initial, epsilon: float, t: float):
    """Exact state of the perturbed two-scale Haar flow at time t >= 0.

    Each frequency component decays at rate lam_i + epsilon * gap(lam_i):
    H(t) = U^T diag(exp(-(lam_i + eps*gap_i) t)) U H(0).  No Kronecker
    product is materialized; channels decouple.
    """
    if t < 0.0:
        raise OutOfRangeError(f"time must be nonnegative, got {t}")
    x, was_vector = _as_columns(initial, spectrum.n)
    lams = np.maximum(spectrum.eigenvalues, 0.0)
    rates = lams + epsilon * energy_gap(lams)
    factors = np.exp(-rates * t)
    out = spectrum.u.T @ (factors[:, None] * (spectrum.u @ x))
    return _restore(out, was_vector)


def _governing_energy(
    scheme: Scheme,
    sys: FrameletSystem,
    ahat: Optional[np.ndarray],
    lap: np.ndarray,
    cfg: WeightConfig,
    initial: np.ndarray,
) -> Callable[[np.ndarray], float]:
    kind = scheme.kind
    if kind == "spatial_framelet":
        eye = {b: np.eye(cfg.w[b].shape[0]) for b in cfg.w}
        frame_cfg = replace(cfg, omega=eye)
        return lambda x: total_framelet_energy(sys, ahat, x, frame_cfg)
    if kind in ("gradf_ufg", "activated"):
        h0 = initial if cfg.has_source else None
        return lambda x: total_framelet_energy(sys, ahat, x, cfg, initial=h0)
    if kind == "ee_ufg":
        # exact governing energy for the linearized form only; with banded
        # activation this is recorded as a diagnostic, not a Lyapunov value
        ee_cfg = energy_enhanced_omega(sys, cfg)
        return lambda x: total_framelet_energy(sys, ahat, x, ee_cfg)
    if kind == "spectral_framelet":
        return lambda x: spectral_energy(sys, x, cfg)
    if kind == "perturbed_closed_form":
        return lambda x: perturbed_energy(sys, lap, x, cfg.epsilon)
    raise ConfigError(f"unknown scheme kind {kind!r}")


def _make_step(
    scheme: Scheme,
    sys: FrameletSystem,
    ahat: Optional[np.ndarray],
    initial: np.ndarray,
    cfg: WeightConfig,
) -> Callable[[np.ndarray], np.ndarray]:
    kind = scheme.kind
    if kind == "spatial_framelet":
        return lambda x: step_spatial_framelet(sys, ahat, x, cfg)
    if kind == "gradf_ufg":
        return lambda x: step_gradf_ufg(sys, ahat, x, initial, cfg)
    if kind == "ee_ufg":
        return lambda x: step_ee_ufg(sys, ahat, x, cfg, scheme.activation)
    if kind == "spectral_framelet":
        return lambda x: step_spectral_framelet(sys, x, cfg)
    if kind == "activated":
        return lambda x: step_activated(sys, ahat, x, initial, cfg, scheme.activation)
    raise ConfigError(f"unknown scheme kind {kind!r}")


def run_flow(
    scheme: Scheme,
    sys: FrameletSystem,
    ahat: Optional[np.ndarray],
    lap: np.ndarray,
    initial,
    cfg: WeightConfig,
    stop: StopRule,
) -> FlowTrace:
    """Iterate ``scheme`` from ``initial`` and record a FlowTrace.

    Stops at the plateau rule or max_steps, whichever comes first.  Without
    renormalization the state norm is guarded against overflow (abort at
    1e150).  For the closed-form scheme, states are evaluated exactly at
    t = k * tau rather than iterated.
    """
    x0, _ = _as_columns(initial, sys.n)
    x0 = x0.copy()
    if scheme.renormalize and scheme.activation == "tanh":
        raise IllegalRenormalizeError("tanh cannot be renormalized")
    closed_form = scheme.kind == "perturbed_closed_form"
    if closed_form:
        # the closed form's decay rates are the two-scale gap profile
        sys.require_tight("the closed-form perturbed flow")
        if sys.scales != 2:
            raise ConfigError("the closed-form perturbed flow needs a two-scale system")
    energy_of = _governing_energy(scheme, sys, ahat, lap, cfg, x0)
    stepper = None if closed_form else _make_step(scheme, sys, ahat, x0, cfg)

    t_start = time.perf_counter()
    steps: List[int] = []
    norms: List[float] = []
    e_norms: List[float] = []
    energies: List[float] = []
    walls: List[float] = []

    def record(step_index: int, raw_norm: float, state: np.ndarray) -> float:
        e_norm = dirichlet_energy(lap, state / np.linalg.norm(state))
        steps.append(step_index)
        norms.append(raw_norm)
        e_norms.append(e_norm)
        energies.append(energy_of(state))
        walls.append(time.perf_counter() - t_start)
        return e_norm

    norm0 = float(np.linalg.norm(x0))
    if norm0 == 0.0:
        raise ZeroStateError("initial state has zero norm")
    state = x0 / norm0 if scheme.renormalize else x0

    def stepped():  # runs only as far as the plateau rule reads
        nonlocal state
        yield record(0, norm0, x0)
        for k in range(1, stop.max_steps + 1):
            if closed_form:
                state = perturbed_closed_form(sys.spectrum, x0, cfg.epsilon, k * cfg.tau)
            else:
                state = stepper(state)
            norm = float(np.linalg.norm(state))
            if norm == 0.0:
                raise ZeroStateError(f"state vanished at step {k}")
            if not np.isfinite(norm) or (not scheme.renormalize and norm > OVERFLOW_GUARD):
                raise NumericOverflowError(
                    f"state norm {norm:.3e} at step {k}; renormalize or shrink tau"
                )
            if scheme.renormalize:
                state = state / norm
            yield record(k, norm, state)

    steps_to_plateau = stop.plateau_step(stepped())

    e_arr = np.asarray(e_norms)
    return FlowTrace(
        scheme=scheme,
        steps=np.asarray(steps, dtype=np.int64),
        norms=np.asarray(norms),
        dirichlet_normalized=e_arr,
        total_energy=np.asarray(energies),
        rayleigh=2.0 * e_arr,
        wall_time=np.asarray(walls),
        final_state=state,
        renormalized=scheme.renormalize,
        plateaued=steps_to_plateau is not None,
        steps_to_plateau=steps_to_plateau,
    )
