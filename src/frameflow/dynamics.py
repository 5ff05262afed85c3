"""Discretized flows over framelet-decomposed signals, and their traces.

Five iterated schemes plus one closed form:

* ``spatial_framelet``   H' = tau * sum_b W_b^T Ahat W_b H W_b
* ``gradf_ufg``          H' = H - tau * grad(total framelet energy)
* ``ee_ufg``             H' = W0^T (Ahat - eps I) W0 H W0
                              + sum_high W^T (Ahat + eps I) W H W   (stepsize 1)
* ``spectral_framelet``  H' = tau * sum_b W_b^T diag(theta_b) W_b H W
* ``activated``          H' = H + tau * act(-grad), act in {identity, relu, tanh}
* ``perturbed_closed_form``  H_k = U^T diag(exp(-rate_i tau))^k U H(0), the exact
  flow of the perturbed energy: rate_i = sum_b r_b(lam_i)^2 (lam_i + s_b) =
  lam_i + eps*gap_i, with the band shifts s_b of energies.band_shifts (ee_ufg's too)

Every operator above except a per-vertex theta_b is diagonal in the
Laplacian eigenbasis, so a linear step is one framelets.Multiplier on
spectral coordinates Hhat = U H, and flows and steps take the
FrameletSystem alone: Lhat and Ahat = I - Lhat are its eigenvalues lam and
1 - lam.  ``run_flow`` advances a linear scheme by modes, each mu^k z after
k steps, so a block of steps is one product of powers (the closed form is
powers of exp(-rate_i tau), not an evaluation at k tau).  When each M_i is
a number mu_i, as with identity-multiple weights, frequency i is one mode
and its c channels move together; otherwise the modes are the eigenvectors
Q_i of the one-step matrices M_i, z = Q_i^T hhat_i.  Relu/tanh descent, the
banded ee activation and a per-vertex theta_b step on Hhat, with one
U^T / U round trip per step and no other n x n (or bands*n x n) matrix: a
step reads the state alone.  Either way a block of BLOCK steps is recorded
at once.  The final state is mapped back once.

Each scheme is written once, in ``_scheme_operator``: its step, the c x c
matrix M_i by which one step of its linear part acts on frequency i, and
its governing energy.  ``run_flow`` records the spectral radii rho(M_i) as
``FlowTrace.gains`` (:func:`scheme_gains` gives the same numbers without a
run), and analysis.dominant_frequency predicts the limit from them.  The
public ``step_*`` functions are vertex-domain wrappers around the same
steps.

``run_flow`` iterates a scheme, recording per step, BLOCK rows at a time,
the state norm, the normalized Dirichlet energy E(H/||H||), the scheme's
governing energy, and the Rayleigh quotient 2 E(H/||H||).  Renormalization
(dividing the state by its Frobenius norm after each step) is the default
for dominance classification; it is only legal for positively homogeneous
steps, which excludes tanh activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .energies import (  # the vertex-domain energies stay importable here for tracing
    WeightConfig,
    band_shifts,
    dirichlet_energy,  # noqa: F401
    filter_factors,
    framelet_energy_form,
    framelet_terms,
    perturbed_energy,  # noqa: F401
    perturbed_energy_form,
    spectral_energy,  # noqa: F401
    spectral_energy_form,
    to_spectral,
    to_vertex,
    total_framelet_energy,  # noqa: F401
    _as_columns,
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
BLOCK = 64  # steps a flow records per block (a linear flow: per product)


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
    """A nonlinear activation, relu or tanh, in place (callers apply the identity inline)."""
    return np.maximum(z, 0.0, out=z) if name == "relu" else np.tanh(z, out=z)


def _descent(form: Multiplier, tau: float, activation: str, u: np.ndarray) -> Callable:
    """The step H + tau * act(-grad) on spectral coordinates; a nonlinear act
    acts per vertex, between U^T and U.  As relu(tau x) = tau relu(x) for
    tau >= 0, relu and the identity take -s grad with s = tau, and tanh takes
    s = 1 and scales by tau after U.  -s grad = (-s G_i) h_i + s S, with s
    folded into the gradient's per-frequency numbers, one (n, c) column, or
    into its c x c matrices."""
    scale = 1.0 if activation == "tanh" else tau
    source = None if form.source is None else scale * form.source
    if form.matrices is None:
        column = np.repeat(-scale * form.diagonal[:, None], form.channels, axis=1)
        product = lambda h: column * h
    else:
        matrices = -scale * form.matrices
        product = lambda h: (h[:, None, :] @ matrices)[:, 0]

    def down(h):
        x = product(h)
        return x if source is None else np.add(x, source, out=x)

    if activation == "identity":
        return lambda h: h + down(h)

    def step(h):
        y = u @ _activate(activation, u.T @ down(h))
        if activation == "tanh":
            y *= tau
        y += h
        return y

    return step


class SchemeOperator(NamedTuple):
    """A scheme on spectral coordinates: its step Hhat -> Hhat; its linear
    part's one-step matrices M_i per frequency, (n, c, c), (n, 1, 1) when each
    is a number, or None for a per-vertex theta; and its governing energy's
    gradient map."""

    step: Callable
    one_step: Optional[np.ndarray]
    energy: Multiplier


def require_closed_form_bank(sys: FrameletSystem) -> None:
    """Raise unless ``sys`` is tight and two-scale: the closed form's rates are its gap profile."""
    sys.require_tight("the closed-form perturbed flow")
    if sys.scales != 2:
        raise ConfigError("the closed-form perturbed flow needs a two-scale system")


def _linear_operator(step: Multiplier, energy: Multiplier) -> SchemeOperator:
    return SchemeOperator(step.apply, step.per_frequency, energy)


def _scheme_operator(
    scheme: Scheme, sys: FrameletSystem, cfg: WeightConfig, h0: Optional[np.ndarray]
) -> SchemeOperator:
    """Build ``scheme``'s operator from the system's per-frequency values lam
    of Lhat and a_hat = 1 - lam of Ahat.  ``h0`` is the spectral initial
    state; it only matters when a source term is configured (beta != 0 with
    mixing matrices), which only the descent schemes have.  A step reads the
    state alone, and no n x n matrix but U."""
    kind, activation, tau, u = scheme.kind, scheme.activation, cfg.tau, sys.spectrum.u
    if kind == "perturbed_closed_form":  # the exact flow of the perturbed energy, over tau
        require_closed_form_bank(sys)
        energy = perturbed_energy_form(sys, cfg.epsilon)
        return _linear_operator(Multiplier([(np.exp(-tau * energy.diagonal), None)]), energy)
    if kind == "spectral_framelet":
        w, factors = cfg.shared_w(sys), filter_factors(sys, cfg)
        step = Multiplier([(factors[b], tau * w) for b in sys.bands])
        return _linear_operator(step, spectral_energy_form(sys, w, factors))
    if kind in ("gradf_ufg", "activated"):
        form = framelet_energy_form(sys, cfg, h0 if cfg.has_source else None)
        g = form.per_frequency
        step = _descent(form, tau, activation, u)
        return SchemeOperator(step, np.eye(g.shape[-1]) - tau * g, form)
    bands, resp, a_hat = cfg.bands_for(sys), sys.responses, 1.0 - sys.spectrum.eigenvalues
    c = len(cfg.w[bands[0]])
    if kind == "spatial_framelet":  # its energy: Omega_b = I, no source
        eye = dict.fromkeys(bands, np.eye(c))
        step = Multiplier([(tau * resp[b] ** 2 * a_hat, cfg.w[b]) for b in bands])
        return _linear_operator(step, Multiplier(framelet_terms(sys, bands, eye, cfg.w)))
    # ee: band b analyses through r_b (Ahat - s_b), synthesis weights by r_b.
    # The energy is exact for the linearized form only; with a banded
    # activation it is recorded as a diagnostic, not a Lyapunov value.
    shift = band_shifts(sys, cfg.epsilon)
    analysis = {b: resp[b] * (a_hat - shift[b]) for b in bands}
    linear = Multiplier([(resp[b] * analysis[b], cfg.w[b]) for b in bands])
    plain = replace(cfg, beta=0.0) if cfg.has_source else cfg
    energy = framelet_energy_form(sys, energy_enhanced_omega(sys, plain))
    if activation == "identity":
        return _linear_operator(linear, energy)
    # Every band's activation in one U^T / U round trip on (n, bands * c)
    # columns, band b's in columns b*c to b*c + c - 1: H T with T = [I ... I]
    # (c x bands*c) copies H into every band, and synthesis weights band b
    # by r_b and sums the bands with T^T.
    banded = [Multiplier([(analysis[b], cfg.w[b])]).per_frequency for b in bands]
    synthesis = np.repeat(np.stack([resp[b] for b in bands], axis=1), c, axis=1)
    copies = np.tile(np.eye(c), len(bands))
    if all(m.shape[-1] == 1 for m in banded):  # identity multiples: one factor per band
        factors = np.repeat(np.concatenate([m[:, 0] for m in banded], axis=1), c, axis=1)

        def analyse(h):
            x = h @ copies
            x *= factors
            return x
    else:  # every band in one product with the stacked (n, bands, c, c) mixers
        mixers = np.stack([m if m.shape[-1] == c else m * np.eye(c) for m in banded], axis=1)
        analyse = lambda h: (h[:, None, None, :] @ mixers).reshape(len(h), -1)

    def banded_step(h):
        y = u @ _activate(activation, u.T @ analyse(h))
        y *= synthesis
        return y @ copies.T  # sums the bands

    return SchemeOperator(banded_step, linear.per_frequency, energy)


def _modes(one_step: np.ndarray, vectors: bool = True):
    """(mu, Q), eigenvalues (n, c) by eigvalsh and, if ``vectors``,
    eigenvectors (n, c, c) by eigh of every M_i (symmetric: WeightConfig
    rejects asymmetric Omega, W); otherwise, and for 1 x 1 factors, Q is
    None.  The gains rho(M_i) are max |mu| per row."""
    if one_step.shape[-1] == 1:
        return one_step[:, :, 0], None
    return np.linalg.eigvalsh(one_step), np.linalg.eigh(one_step)[1] if vectors else None


def scheme_gains(scheme: Scheme, sys: FrameletSystem, cfg: WeightConfig) -> Optional[np.ndarray]:
    """Per-eigenvalue gain rho(M_i) of one step of ``scheme``'s linear part
    on ``sys``, the numbers :func:`run_flow` records as ``FlowTrace.gains``;
    None for a per-vertex theta."""
    linear = replace(cfg, beta=0.0)  # a source term is constant
    m = _scheme_operator(scheme, sys, linear, None).one_step
    return None if m is None else np.max(np.abs(_modes(m, vectors=False)[0]), axis=1)


def _vertex_step(kind, activation, sys, signal, initial, cfg: WeightConfig):
    """One step of ``kind`` on a vertex-domain signal: U^T step(U H)."""
    h, was_vector = to_spectral(sys, signal)
    h0 = _spectral_initial(sys, initial, h) if cfg.has_source else None
    op = _scheme_operator(Scheme(kind, activation), sys, cfg, h0)
    op.energy.check_channels(h.shape[1])  # a folded step would broadcast a mismatch
    return to_vertex(sys, op.step(h), was_vector)


def step_spatial_framelet(sys: FrameletSystem, signal, cfg: WeightConfig):
    """One band-wise convolution step tau * sum_b W_b^T Ahat W_b H W_b.

    With a shared weight matrix on a tight system this collapses to the
    plain one-hop propagation Ahat H W.
    """
    return _vertex_step("spatial_framelet", "identity", sys, signal, None, cfg)


def step_gradf_ufg(sys: FrameletSystem, signal, initial, cfg: WeightConfig):
    """One explicit-Euler step down the total framelet energy gradient.

    ``initial`` is the flow's captured starting state; it only matters when
    a source term is configured (beta != 0 with mixing matrices).
    """
    return step_activated(sys, signal, initial, cfg, "identity")


def energy_enhanced_omega(sys: FrameletSystem, cfg: WeightConfig) -> WeightConfig:
    """Rewrite cfg with Omega_b = I + s_b W_b, s_b from energies.band_shifts:
    Omega_low = I + eps*W_low, Omega_high = I - eps*W_high.

    Under this choice the gradient step of the total framelet energy (tau=1,
    no source) reproduces :func:`step_ee_ufg` exactly.
    """
    shift = band_shifts(sys, cfg.epsilon)
    omega = {b: np.eye(len(cfg.w[b])) + shift[b] * cfg.w[b] for b in cfg.bands_for(sys)}
    return replace(cfg, omega=omega)


def step_ee_ufg(sys: FrameletSystem, signal, cfg: WeightConfig, activation: str = "identity"):
    """One energy-enhanced convolution step: the low-pass band propagates
    through Ahat - eps I, every high-pass band through Ahat + eps I.

    ``activation`` is applied inside each band before synthesis.  Only the
    identity (linearized) form is a gradient step of the shifted band
    energy; the banded nonlinear variant is offered without any claimed
    energy identity.
    """
    return _vertex_step("ee_ufg", activation, sys, signal, None, cfg)


def step_spectral_framelet(sys: FrameletSystem, signal, cfg: WeightConfig):
    """One spectral filtering step tau * sum_b W_b^T diag(theta_b) W_b H W."""
    return _vertex_step("spectral_framelet", "identity", sys, signal, None, cfg)


def step_activated(sys: FrameletSystem, signal, initial, cfg: WeightConfig, activation: str):
    """One activated descent step H + tau * act(-grad).

    With the identity activation this is step_gradf_ufg, bit for bit: both
    run this code.  Any activation with x*act(x) >= 0 keeps the energy
    non-increasing for small enough tau.
    """
    return _vertex_step("activated", activation, sys, signal, initial, cfg)


def perturbed_closed_form(sys: FrameletSystem, initial, epsilon: float, t: float):
    """Exact state at time t >= 0 of the gradient flow of the perturbed energy
    on a tight two-scale system.

    Each frequency component decays at its per-frequency value of that energy,
    rate_i = sum_b r_b(lam_i)^2 (lam_i + s_b) = lam_i + epsilon * gap(lam_i):
    H(t) = U^T diag(exp(-rate_i t)) U H(0).  No Kronecker product is
    materialized; channels decouple.
    """
    if t < 0.0:
        raise OutOfRangeError(f"time must be nonnegative, got {t}")
    require_closed_form_bank(sys)
    h, was_vector = to_spectral(sys, initial)
    factors = np.exp(-t * perturbed_energy_form(sys, epsilon).diagonal)
    return to_vertex(sys, factors[:, None] * h, was_vector)


def _check_norm(norm: float, k: int, renormalize: bool) -> None:
    """Raise if the norm after step k is zero, non-finite or over the guard."""
    if norm == 0.0:
        raise ZeroStateError(f"state vanished at step {k}")
    if not math.isfinite(norm) or (not renormalize and norm > OVERFLOW_GUARD):
        raise NumericOverflowError(f"state norm {norm:.3e} at step {k}; renormalize or shrink tau")


def _mode_blocks(scheme: Scheme, op: SchemeOperator, modes, lam, h0, norm0, max_steps):
    """Blocks of rows (norms, E, energies) up to the first failing step, where
    it raises, and the state at step k.  A mode of squared coefficient z^2,
    energy z^2 g and multiplier mu gives rows of powers (mu / r)^2k.  With a
    number mu_i per frequency, the c channels of frequency i move together:
    one mode per frequency, of z^2 = |x_i|^2 and z^2 g = <x_i, G_i x_i> for
    x = hhat / ||H(0)||.  With c x c matrices M_i, the modes are the columns
    q of Q_i, z = q^T x_i, and each linear scheme's energy matrices
    a_i I + b M_i are diagonal in Q_i too, so g = q^T G_i q."""
    (mu, q), x = modes, h0 / norm0
    if q is None:  # modes (n, 1)
        z2 = np.einsum("ij,ij->i", x, x)[:, None]
        z2g = np.einsum("ij,ij->i", x, op.energy.apply(x))[:, None]
        back = lambda f: x * f
    else:  # modes (n, c)
        z = np.einsum("nji,nj->ni", q, h0) / norm0
        g = np.stack([np.sum(q[..., j] * op.energy.apply(q[..., j]), axis=1)
                      for j in range(z.shape[1])], 1)
        z2, z2g = z * z, z * z * g
        back = lambda f: np.einsum("nij,nj->ni", q, z * f)
    live = (z2 > 0.0) & (mu != 0.0)  # zero mu: gone at step 1
    if not live.any():
        raise ZeroStateError("state vanished at step 1")
    r = float(np.max(np.abs(mu[live])))
    log_q = 2.0 * np.log(np.abs(mu[live]) / r)
    weights = np.stack([z2, z2 * (lam[:, None] / 2), z2g / 2], axis=2)[live]  # live modes x 3
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
        h = back((np.where(live, mu, 0.0) / r) ** k)
        return h * ((1.0 if scheme.renormalize else norm) / np.linalg.norm(h))

    return blocks(), state


def _stepped_blocks(scheme: Scheme, op: SchemeOperator, lam, state, max_steps):
    """Blocks of rows (norms, E, energies) of a stepped flow up to the first
    failing step, where it raises, and the state at step k.  A step reads the
    state alone and keeps it in a one-block buffer; three stacked products
    give a block's rows with per-row vdot bits, the block's energy gradients
    and lam * h taking turns in one scratch buffer of the same size."""
    size, nc, lam, source = min(BLOCK, max_steps), state.size, lam[:, None], op.energy.source
    (states, scratch), norms = np.empty((2, size, *state.shape)), np.empty(size)

    def rows(m: int):
        h, x = states[:m], scratch[:m]
        dot = lambda y: (h.reshape(m, 1, nc) @ y.reshape(m, nc, 1)).ravel()
        g = op.energy.apply_into(h, x)
        if source is not None:
            g -= source
        with np.errstate(over="ignore", invalid="ignore"):  # as silent as vdot
            energy = dot(g)
            mass, dirichlet = dot(h), dot(np.multiply(lam, h, out=x))
        return norms[:m].tolist(), (0.5 * dirichlet / mass).tolist(), (0.5 * energy).tolist()

    def blocks():
        h, step, renormalize = state, op.step, scheme.renormalize
        for start in range(1, max_steps + 1, size):
            for j, k in enumerate(range(start, min(start + size, max_steps + 1))):
                h = step(h)
                norms[j] = norm = math.sqrt(np.vdot(h, h))  # the bits of np.linalg.norm
                try:
                    _check_norm(norm, k, renormalize)
                except (ZeroStateError, NumericOverflowError):  # the plateau rule reads rows first
                    if j:
                        yield rows(j)
                    raise
                h = np.divide(h, norm if renormalize else 1.0, out=states[j])
            yield rows(j + 1)

    return blocks(), lambda k, norm: states[(k - 1) % size]


def run_flow(
    scheme: Scheme, sys: FrameletSystem, initial, cfg: WeightConfig, stop: StopRule
) -> FlowTrace:
    """Iterate ``scheme`` on ``sys`` from ``initial`` and record a FlowTrace.

    Stops at the plateau rule or max_steps, whichever comes first.  Without
    renormalization the state norm is guarded against overflow (abort at
    1e150).  A linear scheme (identity activation, no source) advances BLOCK
    steps per product; the closed form's norm column is ||H(k tau)||.  Other
    schemes step and record BLOCK rows at a time.  Every operator is read off
    the system's eigenvalues; ``gains`` holds rho(M_i) per eigenvalue.
    """
    x0, _ = _as_columns(initial, sys.n)
    h0, lam = sys.spectrum.u @ x0, sys.spectrum.eigenvalues
    op = _scheme_operator(scheme, sys, cfg, h0)
    dirichlet = Multiplier([(lam, None)])

    norm0 = float(np.linalg.norm(x0))
    if norm0 == 0.0:
        raise ZeroStateError("initial state has zero norm")
    e0 = dirichlet.quadratic(h0) / float(np.vdot(h0, h0))
    # row 0 first: the energy's Multiplier checks the channel count
    columns = ([norm0], [e0], [op.energy.quadratic(h0)])  # norms, E, energies
    power = op.one_step is not None and scheme.activation == "identity" and op.energy.source is None
    modes = None if op.one_step is None else _modes(op.one_step, vectors=power)
    if power:
        blocks, state_at = _mode_blocks(scheme, op, modes, lam, h0, norm0, stop.max_steps)
    else:
        state = h0 / norm0 if scheme.renormalize else h0
        blocks, state_at = _stepped_blocks(scheme, op, lam, state, stop.max_steps)

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
