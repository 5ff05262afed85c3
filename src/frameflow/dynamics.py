"""Discretized flows over framelet-decomposed signals, and their traces.

Five iterated schemes plus one closed form:

* ``spatial_framelet``   H' = tau * sum_b W_b^T Ahat W_b H W_b
* ``gradf_ufg``          H' = H - tau * grad(total framelet energy)
* ``ee_ufg``             H' = W0^T (Ahat - eps I) W0 H W0
                              + sum_high W^T (Ahat + eps I) W H W   (stepsize 1)
* ``spectral_framelet``  H' = tau * sum_b W_b^T diag(theta_b) W_b H W
* ``activated``          H' = H + tau * act(-grad), act in {identity, relu, tanh}
* ``perturbed_closed_form``  H_k = U^T diag(exp(-(lam_i + eps*gap_i) tau))^k U H(0)

Every operator above except a per-vertex theta_b is diagonal in the
Laplacian eigenbasis, so a linear step is one framelets.Multiplier on
spectral coordinates Hhat = U H.  ``run_flow`` advances a linear scheme in
the eigenbasis Q_i of its one-step matrices M_i: mode z = Q_i^T hhat_i is
mu^k z after k steps, so a block of steps is one product of powers (the
closed form is powers of exp(-rate_i tau), not an evaluation at k tau).
Relu/tanh descent, the banded ee activation and a per-vertex theta_b step
on Hhat, with one U^T / U round trip per step.  The final state is mapped
back once.

Each scheme is written once, in ``_scheme_operator``: its step, the c x c
matrix M_i by which one step of its linear part acts on frequency i, and
its governing energy.  ``run_flow`` records the spectral radii rho(M_i) as
``FlowTrace.gains`` (:func:`scheme_gains` gives the same numbers without a
run), and analysis.dominant_frequency predicts the limit from them.  The
public ``step_*`` functions are vertex-domain wrappers around the same
steps.

``run_flow`` iterates a scheme, recording per step the state norm, the
normalized Dirichlet energy E(H/||H||), the scheme's governing energy, and
the Rayleigh quotient 2 E(H/||H||).  Renormalization (dividing the state by
its Frobenius norm after each step) is the default for dominance
classification; it is only legal for positively homogeneous steps, which
excludes tanh activation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .energies import (  # the vertex-domain energies stay importable here for tracing
    WeightConfig,
    adjacency_values,
    dirichlet_energy,  # noqa: F401
    energy_gap,
    filter_factors,
    framelet_energy_form,
    laplacian_values,
    perturbed_energy,  # noqa: F401
    perturbed_energy_form,
    spectral_energy,  # noqa: F401
    spectral_energy_form,
    to_spectral,
    to_vertex,
    total_framelet_energy,  # noqa: F401
    _as_columns,
    _restore,
    _spectral_initial,
)
from .errors import (
    ConfigError,
    IllegalRenormalizeError,
    NumericOverflowError,
    OutOfRangeError,
    ZeroStateError,
)
from .framelets import FrameletSystem, Multiplier
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
    "scheme_gains",
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
BLOCK = 64  # steps a linear flow advances per product


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
    final_state: np.ndarray
    renormalized: bool
    plateaued: bool
    steps_to_plateau: Optional[int]
    gains: Optional[np.ndarray] = None  # per eigenvalue; see scheme_gains

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


def _descend(h: np.ndarray, grad: np.ndarray, tau: float, activation: str, u: np.ndarray):
    """H + tau * act(-grad) on spectral coordinates; a nonlinear act is
    applied per vertex, between U^T and U."""
    if activation == "identity":
        return h + tau * (-grad)
    return h + tau * (u @ _activate(activation, -(u.T @ grad)))


class SchemeOperator(NamedTuple):
    """A scheme on spectral coordinates: its step Hhat -> Hhat; the one-step
    matrices M_i of its linear part per frequency, (n, c, c) (the closed
    form's decay factors exp(-rate_i tau) as (n, 1, 1)), or None for a
    per-vertex theta; and the gradient map of its governing energy."""

    step: Callable
    one_step: Optional[np.ndarray]
    energy: Multiplier


def _scheme_operator(
    scheme: Scheme, sys: FrameletSystem, a_hat, lam, cfg: WeightConfig, h0: Optional[np.ndarray]
) -> SchemeOperator:
    """Build ``scheme``'s operator from the checked per-frequency values
    ``a_hat`` = 1 - lam and ``lam`` of Ahat and Lhat.  ``h0`` is the spectral
    initial state; it only matters when a source term is configured (beta != 0
    with mixing matrices)."""
    kind, activation, tau, u = scheme.kind, scheme.activation, cfg.tau, sys.spectrum.u
    if kind == "perturbed_closed_form":
        # the closed form's decay rates are the two-scale gap profile
        sys.require_tight("the closed-form perturbed flow")
        if sys.scales != 2:
            raise ConfigError("the closed-form perturbed flow needs a two-scale system")
        decay = np.exp(-_decay_rates(sys.spectrum, cfg.epsilon) * tau)
        step = Multiplier([(decay, None)])
        return SchemeOperator(
            step.apply, decay[:, None, None], perturbed_energy_form(sys, lam, cfg.epsilon)
        )
    if kind == "spectral_framelet":
        w, factors = cfg.shared_w(sys), filter_factors(sys, cfg)
        step = Multiplier([(factors[b], tau * w) for b in sys.bands])
        one_step = None if step.filter_mixers else step.matrices
        return SchemeOperator(step.apply, one_step, spectral_energy_form(sys, w, factors))
    if a_hat is None:
        raise ConfigError(f"scheme {kind!r} needs the normalized adjacency ahat")
    if kind in ("gradf_ufg", "activated"):
        form = framelet_energy_form(sys, a_hat, cfg, h0 if cfg.has_source else None)
        return SchemeOperator(
            lambda h: _descend(h, form.apply(h), tau, activation, u),
            np.eye(form.channels) - tau * form.matrices,
            form,
        )
    bands, resp = cfg.bands_for(sys), sys.responses
    if kind == "spatial_framelet":
        step = Multiplier([(tau * resp[b] ** 2 * a_hat, cfg.w[b]) for b in bands])
        eye = {b: np.eye(cfg.w[b].shape[0]) for b in bands}
        energy = framelet_energy_form(sys, a_hat, replace(cfg, omega=eye))
        return SchemeOperator(step.apply, step.matrices, energy)
    # ee: band b analyses through r_b (Ahat -+ eps), synthesis weights by r_b.
    # The energy is exact for the linearized form only; with a banded
    # activation it is recorded as a diagnostic, not a Lyapunov value.
    shift = {b: cfg.epsilon for b in bands} | {sys.low_pass: -cfg.epsilon}
    analysis = {b: resp[b] * (a_hat + shift[b]) for b in bands}
    linear = Multiplier([(resp[b] * analysis[b], cfg.w[b]) for b in bands])
    energy = framelet_energy_form(sys, a_hat, energy_enhanced_omega(sys, cfg))
    if activation == "identity":
        return SchemeOperator(linear.apply, linear.matrices, energy)
    banded = [Multiplier([(analysis[b], cfg.w[b])]) for b in bands]

    def banded_step(h):  # every band's activation in one U^T / U round trip
        pre = np.concatenate([m.apply(h) for m in banded], axis=1)
        post = np.split(u @ _activate(activation, u.T @ pre), len(bands), axis=1)
        return sum(resp[b][:, None] * part for b, part in zip(bands, post))

    return SchemeOperator(banded_step, linear.matrices, energy)


def _modes(one_step: np.ndarray):
    """(mu, Q), eigenvalues (n, c) by eigvalsh and eigenvectors (n, c, c) by
    eigh of every M_i (symmetric: WeightConfig rejects asymmetric Omega, W);
    1 x 1 factors have Q None.  The gains rho(M_i) are max |mu| per row."""
    if one_step.shape[-1] == 1:
        return one_step[:, :, 0], None
    return np.linalg.eigvalsh(one_step), np.linalg.eigh(one_step)[1]


def scheme_gains(
    scheme: Scheme, sys: FrameletSystem, ahat: Optional[np.ndarray], cfg: WeightConfig
) -> Optional[np.ndarray]:
    """Per-eigenvalue gain rho(M_i) of one step of ``scheme``'s linear part,
    the numbers :func:`run_flow` records as ``FlowTrace.gains``; None for a
    per-vertex theta.  ``ahat`` may be None for the spectral and closed-form
    schemes, which do not read it."""
    a_hat = None if ahat is None else adjacency_values(sys, ahat)
    linear = replace(cfg, beta=0.0)  # a source term is constant
    m = _scheme_operator(scheme, sys, a_hat, sys.spectrum.eigenvalues, linear, None).one_step
    return None if m is None else np.max(np.abs(_modes(m)[0]), axis=1)


def _vertex_step(kind, activation, sys, ahat, signal, initial, cfg: WeightConfig):
    """One step of ``kind`` on a vertex-domain signal: U^T step(U H)."""
    h, was_vector = to_spectral(sys, signal)
    h0 = _spectral_initial(sys, initial, h) if cfg.has_source else None
    a_hat = None if ahat is None else adjacency_values(sys, ahat)
    op = _scheme_operator(Scheme(kind, activation), sys, a_hat, sys.spectrum.eigenvalues, cfg, h0)
    return to_vertex(sys, op.step(h), was_vector)


def step_spatial_framelet(sys: FrameletSystem, ahat: np.ndarray, signal, cfg: WeightConfig):
    """One band-wise convolution step tau * sum_b W_b^T Ahat W_b H W_b.

    With a shared weight matrix on a tight system this collapses to the
    plain one-hop propagation Ahat H W.
    """
    return _vertex_step("spatial_framelet", "identity", sys, ahat, signal, None, cfg)


def step_gradf_ufg(sys: FrameletSystem, ahat: np.ndarray, signal, initial, cfg: WeightConfig):
    """One explicit-Euler step down the total framelet energy gradient.

    ``initial`` is the flow's captured starting state; it only matters when
    a source term is configured (beta != 0 with mixing matrices).
    """
    return step_activated(sys, ahat, signal, initial, cfg, "identity")


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
    return _vertex_step("ee_ufg", activation, sys, ahat, signal, None, cfg)


def step_spectral_framelet(sys: FrameletSystem, signal, cfg: WeightConfig):
    """One spectral filtering step tau * sum_b W_b^T diag(theta_b) W_b H W."""
    return _vertex_step("spectral_framelet", "identity", sys, None, signal, None, cfg)


def step_activated(
    sys: FrameletSystem, ahat: np.ndarray, signal, initial, cfg: WeightConfig, activation: str
):
    """One activated descent step H + tau * act(-grad).

    With the identity activation this is step_gradf_ufg, bit for bit: both
    run this code.  Any activation with x*act(x) >= 0 keeps the energy
    non-increasing for small enough tau.
    """
    return _vertex_step("activated", activation, sys, ahat, signal, initial, cfg)


def _decay_rates(spectrum: Spectrum, epsilon: float) -> np.ndarray:
    lams = np.maximum(spectrum.eigenvalues, 0.0)
    return lams + epsilon * energy_gap(lams)


def perturbed_closed_form(spectrum: Spectrum, initial, epsilon: float, t: float):
    """Exact state of the perturbed two-scale Haar flow at time t >= 0.

    Each frequency component decays at rate lam_i + epsilon * gap(lam_i):
    H(t) = U^T diag(exp(-(lam_i + eps*gap_i) t)) U H(0).  No Kronecker
    product is materialized; channels decouple.
    """
    if t < 0.0:
        raise OutOfRangeError(f"time must be nonnegative, got {t}")
    x, was_vector = _as_columns(initial, spectrum.n)
    factors = np.exp(-_decay_rates(spectrum, epsilon) * t)
    out = spectrum.u.T @ (factors[:, None] * (spectrum.u @ x))
    return _restore(out, was_vector)


def _check_norm(norm: float, k: int, renormalize: bool) -> None:
    """Raise if the norm after step k is zero, non-finite or over the guard."""
    if norm == 0.0:
        raise ZeroStateError(f"state vanished at step {k}")
    if not np.isfinite(norm) or (not renormalize and norm > OVERFLOW_GUARD):
        raise NumericOverflowError(f"state norm {norm:.3e} at step {k}; renormalize or shrink tau")


def _mode_blocks(scheme: Scheme, op: SchemeOperator, modes, lam, h0, norm0, max_steps):
    """Blocks of rows (norms, E, energies) up to the first failing step, where
    it raises, and the state at step k.  Each linear scheme's energy matrices
    a_i I + b M_i are diagonal in Q_i too, so rows are powers (mu / r)^2k."""
    (mu, q), (n, c) = modes, h0.shape
    q = np.broadcast_to(np.eye(c), (n, c, c)) if q is None else q  # 1 x 1 factors: per channel
    z = np.einsum("nji,nj->ni", q, h0) / norm0
    g = np.stack([np.sum(q[..., j] * op.energy.apply(q[..., j]), axis=1) for j in range(c)], 1)
    mu, live = np.broadcast_to(mu, z.shape), (z * z > 0.0) & (mu != 0.0)  # zero mu: gone at step 1
    if not live.any():
        raise ZeroStateError("state vanished at step 1")
    r = float(np.max(np.abs(mu[live])))
    log_q = 2.0 * np.log(np.abs(mu[live]) / r)
    values = np.stack(np.broadcast_arrays(1.0, lam[:, None] / 2, g / 2), axis=2)  # n, c, 3
    weights = (z * z)[live, None] * values[live]
    powers = np.exp(np.outer(np.arange(1, BLOCK + 1), log_q))  # (mu / r)^2j, j = 1..BLOCK

    def blocks():
        last = 1.0  # squared mass of the unit initial state
        for start in range(1, max_steps + 1, BLOCK):
            k = np.arange(start, min(start + BLOCK, max_steps + 1))
            shifted = np.exp((start - 1) * log_q)[:, None] * weights
            mass, dirichlet, energy = (powers[: len(k)] @ shifted).T
            with np.errstate(over="ignore", invalid="ignore"):  # failing rows are cut
                if scheme.kind == "perturbed_closed_form" or not scheme.renormalize:
                    growth = np.exp(2.0 * (k * np.log(r) + np.log(norm0)))  # norm0^2 r^2k
                else:  # the squared growth factor of the renormalized state
                    growth = r * r / np.concatenate([[last], mass[:-1]])
                norm = np.sqrt(growth * mass)
                energy = energy / mass if scheme.renormalize else energy * growth
            bad = (norm == 0.0) | ~np.isfinite(norm)
            bad |= (not scheme.renormalize) & (norm > OVERFLOW_GUARD)
            cut = int(np.argmax(bad)) if bad.any() else len(k)
            yield norm[:cut].tolist(), (dirichlet / mass)[:cut].tolist(), energy[:cut].tolist()
            if cut < len(k):
                _check_norm(float(norm[cut]), int(k[cut]), scheme.renormalize)
            last = mass[-1]

    def state(k: int, norm: float) -> np.ndarray:
        h = np.einsum("nij,nj->ni", q, z * (np.where(live, mu, 0.0) / r) ** k)
        return h * ((1.0 if scheme.renormalize else norm) / np.linalg.norm(h))

    return blocks(), state


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
    1e150).  A linear scheme (identity activation, no source) advances BLOCK
    steps per product; the closed form's norm column is ||H(k tau)||.  Ahat
    and Lhat are each checked once; ``gains`` holds rho(M_i) per eigenvalue.
    """
    x0, _ = _as_columns(initial, sys.n)
    h0 = sys.spectrum.u @ x0
    lam = laplacian_values(sys, lap)
    a_hat = None if ahat is None else adjacency_values(sys, ahat)
    op = _scheme_operator(scheme, sys, a_hat, lam, cfg, h0)
    dirichlet = Multiplier([(lam, None)])

    norm0 = float(np.linalg.norm(x0))
    if norm0 == 0.0:
        raise ZeroStateError("initial state has zero norm")
    state = h0 / norm0 if scheme.renormalize else h0

    def stepped():  # one row per step
        nonlocal state
        for k in range(1, stop.max_steps + 1):
            state = op.step(state)
            norm = float(np.linalg.norm(state))
            _check_norm(norm, k, scheme.renormalize)
            if scheme.renormalize:
                state = state / norm
            e_norm = dirichlet.quadratic(state) / float(np.vdot(state, state))
            yield [norm], [e_norm], [op.energy.quadratic(state)]

    modes = None if op.one_step is None else _modes(op.one_step)
    if modes is not None and scheme.activation == "identity" and op.energy.source is None:
        blocks, state_at = _mode_blocks(scheme, op, modes, lam, h0, norm0, stop.max_steps)
    else:
        blocks, state_at = stepped(), lambda k, norm: state
    e0 = dirichlet.quadratic(h0) / float(np.vdot(h0, h0))
    columns = ([norm0], [e0], [op.energy.quadratic(h0)])  # norms, E, energies

    def fed():  # runs only as far as the plateau rule reads
        yield e0
        for block in blocks:
            for column, values in zip(columns, block):
                column.extend(values)
            yield from block[1]

    steps_to_plateau = stop.plateau_step(fed())
    last = stop.max_steps if steps_to_plateau is None else steps_to_plateau
    norms, e_arr, energies = (np.asarray(column[: last + 1]) for column in columns)
    return FlowTrace(
        scheme=scheme,
        steps=np.arange(last + 1, dtype=np.int64),
        norms=norms,
        dirichlet_normalized=e_arr,
        total_energy=energies,
        rayleigh=2.0 * e_arr,
        final_state=sys.spectrum.u.T @ state_at(last, norms[-1]),
        renormalized=scheme.renormalize,
        plateaued=steps_to_plateau is not None,
        steps_to_plateau=steps_to_plateau,
        gains=None if modes is None else np.max(np.abs(modes[0]), axis=1),
    )
