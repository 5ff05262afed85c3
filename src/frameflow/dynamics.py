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
k steps, so a block of BLOCK steps is a product of powers (the closed form
is powers of exp(-rate_i tau), not an evaluation at k tau).  One stacked
product covers a batch of blocks as long as all those before it (1, 1, 2,
4, ... up to BATCH), and each block's rows keep the bits of their own
64-step shift: the same powers (mu / r)^2j times the weights shifted by
(mu / r)^2(s-1) for the block starting at step s.  When each M_i is
a number mu_i, as with scalar weights (numbers), frequency i is one mode
and its c channels move together; otherwise the modes are the eigenvectors
Q_i of the one-step matrices M_i, z = Q_i^T hhat_i.  Relu/tanh descent, the
banded ee activation and a per-vertex theta_b step on Hhat, with one U^T / U
round trip per step (the last two in the one framelets.band_pass) and no
other n x n matrix: a step reads the state alone.  A step is built once per
run, a fixed run of in-place ufuncs and np.dot calls on scratch buffers
sized by the state's channel count (number weights carry none), and
step(h, out) writes the next state into ``out``, a slot of the block buffer
where it is renormalized in place, and a block of BLOCK steps is recorded
at once.  The plateau rule reads E a block at a time (a batch on the power
path): rows computed past the plateau are dropped, and a failing row past it
never raises.  The final state stays in spectral coordinates; a FlowTrace
maps it back when it is first read.

Each scheme is written once, in ``_scheme_operator``: its step, the c x c
matrix M_i by which one step of its linear part acts on frequency i, and
its governing energy.  ``run_flow`` records the spectral radii rho(M_i) as
``FlowTrace.gains`` (:func:`scheme_gains` gives the same numbers without a
run), and analysis.dominant_frequency predicts the limit from them.  The
public ``step_*`` functions are vertex-domain wrappers around the same
steps.  Beside ``_scheme_operator``, the table ``SCHEMES`` lists every
scheme kind once, with its config contract: the keys its flow reads (which
the CLI sweeps and checks), its default tau, whether it takes an
activation, and the ``paper_check`` note of a run's summary.

``run_flow`` iterates a scheme, recording per step, a block at a time,
the state norm, the normalized Dirichlet energy E(H/||H||), the scheme's
governing energy, and the Rayleigh quotient 2 E(H/||H||).  Renormalization
(dividing the state by its Frobenius norm after each step) is the default
for dominance classification; it is only legal for positively homogeneous
steps, which excludes tanh activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
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
    spectral_initial,
    to_spectral,
    to_vertex,
    total_framelet_energy,  # noqa: F401
)
from .errors import (
    ConfigError,
    IllegalRenormalizeError,
    NumericOverflowError,
    OutOfRangeError,
    ZeroStateError,
)
from .framelets import FrameletSystem, Multiplier, band_pass, one_like
from .spectral import as_columns

__all__ = [
    "SCHEMES",
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

ACTIVATIONS = ("identity", "relu", "tanh")
OVERFLOW_GUARD = 1e150
BLOCK = 64  # steps per recorded block; a linear flow's rows take their bits from 64-step shifts
BATCH = 32  # blocks per product of a linear flow, at most: its batches double from one block
BLOCK_POWERS = np.arange(2.0, 2 * BLOCK + 1, 2)[:, None]  # 2j for j = 1..BLOCK, a column


@dataclass(frozen=True)
class Scheme:
    """Which step to iterate, with what nonlinearity, renormalized or not."""

    kind: str
    activation: str = "identity"
    renormalize: bool = False

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not SCHEMES[self.kind].nonlinear and self.activation != "identity":
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

    def plateau_step(self, blocks: Iterable[np.ndarray]) -> Optional[int]:
        """The step at which the plateau rule fires on E(H/||H||) per record,
        fed as 1-D blocks of consecutive records (row 0 first), or None.
        Reads no block after the one that holds that step, so a flow can feed
        it as it steps.  Within a block, step k's flag |E_k - E_{k-1}| < tol
        is one byte of a string, and the rule finds the first run of
        ``plateau_window`` set flags in it, behind the run of set flags that
        ended the blocks before."""
        tol, window = self.plateau_tol, self.plateau_window
        run, first, prev = 0, 1, None  # set flags ending the records read; step of the next flag
        for e in blocks:
            if not len(e):
                continue
            flags = (np.abs(e[1:] - e[:-1]) < tol).tobytes()
            if prev is not None:
                flags = (b"\1" if abs(e[0] - prev) < tol else b"\0") + flags
            carried = b"\1" * run + flags  # run < window: a hit in it starts at index 0
            hit = carried.find(b"\1" * window)
            if hit >= 0:
                return first - run + hit + window - 1
            run = len(carried) - 1 - carried.rfind(b"\0")
            first, prev = first + len(flags), e[-1]
        return None


@dataclass(frozen=True)
class FlowTrace:
    """Step-by-step record of one flow run.

    Row 0 describes the initial state; row t the state after step t.  The
    ``norms`` column records the Frobenius norm *before* renormalization, so
    on renormalized runs it is the per-step growth factor.  The final state
    is kept in spectral coordinates U H, with the eigenbasis U (rows) they
    refer to; its vertex form is mapped back on first use.
    """

    scheme: Scheme
    norms: np.ndarray
    dirichlet_normalized: np.ndarray
    total_energy: np.ndarray
    final_coefficients: np.ndarray
    basis: np.ndarray
    steps_to_plateau: Optional[int]
    gains: Optional[np.ndarray] = None  # per eigenvalue; see scheme_gains

    @cached_property
    def final_state(self) -> np.ndarray:
        """The final state H = U^T (U H) on the vertices."""
        return self.basis.T @ self.final_coefficients

    @property
    def steps(self) -> np.ndarray:
        """The step of each row: 0, 1, ..., steps_run."""
        return np.arange(len(self.norms), dtype=np.int64)

    @property
    def rayleigh(self) -> np.ndarray:
        """The Rayleigh quotient 2 E(H/||H||) of each row."""
        return 2.0 * self.dirichlet_normalized

    @property
    def renormalized(self) -> bool:
        return self.scheme.renormalize

    @property
    def plateaued(self) -> bool:
        return self.steps_to_plateau is not None

    @property
    def steps_run(self) -> int:
        return len(self.norms) - 1

    @property
    def limit_value(self) -> float:
        return float(self.dirichlet_normalized[-1])


def _activation(name: str) -> Callable:
    """A nonlinear activation, relu or tanh, as an in-place map of an array
    (callers apply the identity inline)."""
    if name == "relu":
        return lambda z: np.maximum(z, 0.0, out=z)
    return lambda z: np.tanh(z, out=z)


def _descent(form: Multiplier, tau: float, activation: str, u: np.ndarray, c: int) -> Callable:
    """The step H + tau * act(-grad) on spectral coordinates, (h, out=None)
    -> out; a nonlinear act acts per vertex, between U^T and U.  As
    relu(tau x) = tau relu(x) for tau >= 0, relu and the identity take
    -s grad with s = tau, and tanh takes s = 1 and scales by tau after U.
    -s grad = (-s G_i) h_i + s S, with s folded into the gradient's
    per-frequency numbers, one (n, c) column, or into its c x c matrices.
    Which of these the step does is chosen here, once: a step is a fixed
    run of in-place ufuncs and ``np.dot`` calls on two (n, c) scratch
    buffers for a state of c channels, x (-s grad) and t (its vertex form)."""
    scale = 1.0 if activation == "tanh" else tau
    x, t = np.empty((2, len(u), c))
    if form.matrices is None:
        column = np.repeat(-scale * form.diagonal[:, None], c, axis=1)
        product = lambda h: np.multiply(column, h, out=x)
    else:
        matrices, rows = -scale * form.matrices, x[:, None, :]
        product = lambda h: np.matmul(h[:, None, :], matrices, out=rows)
    down = product
    if form.source is not None:
        source = scale * form.source

        def down(h):
            product(h)
            np.add(x, source, out=x)

    if activation == "identity":
        def step(h, out=None):
            down(h)
            return np.add(h, x, out=out)

        return step
    ut, activate = u.T, _activation(activation)
    synthesise = partial(np.dot, u, t)  # U t, into out
    if activation == "tanh":
        unscaled = synthesise

        def synthesise(out):  # tau U t
            out = unscaled(out=out)
            out *= tau
            return out

    def step(h, out=None):
        down(h)
        np.dot(ut, x, out=t)
        activate(t)
        out = synthesise(out=out)
        out += h
        return out

    return step


class SchemeOperator(NamedTuple):
    """A scheme on spectral coordinates: its step (Hhat, out=None) -> the
    next Hhat, written into ``out`` (which must not overlap Hhat) or a fresh
    array; its linear part's one-step matrices M_i per frequency, (n, c, c),
    (n, 1, 1) when each is a number, or None for a per-vertex theta; and its
    governing energy's gradient map."""

    step: Callable
    one_step: Optional[np.ndarray]
    energy: Multiplier


def require_closed_form_bank(sys: FrameletSystem) -> None:
    """Raise unless ``sys`` is tight and two-scale: the closed form's rates are its gap profile."""
    sys.require_tight("the closed-form perturbed flow")
    if sys.scales != 2:
        raise ConfigError("the closed-form perturbed flow needs a two-scale system")


def _linear_operator(step: Multiplier, energy: Multiplier) -> SchemeOperator:
    return SchemeOperator(step.apply_into, step.per_frequency, energy)


class SchemeKind(NamedTuple):
    """A scheme's config contract: ``reads``, the config keys its flow reads
    among omega, w, w_tilde, epsilon, theta and tau (``lambda_w`` through w,
    w_tilde only with beta != 0); its default ``tau``; whether it takes a
    ``nonlinear`` activation; and the ``paper_check`` regime note of a run."""

    reads: tuple
    tau: float
    nonlinear: bool
    paper_check: str


# every scheme kind, read by the CLI for its defaults, sweep keys, checks and notes
SCHEMES = {
    "spatial_framelet": SchemeKind(
        ("w", "tau"), 1.0, False,
        "scalar band weights: small high-pass weight smooths (low-frequency limit), "
        "sufficiently large magnitude separates (high-frequency limit)"),
    "gradf_ufg": SchemeKind(
        ("omega", "w", "w_tilde", "tau"), 1e-2, False,
        "band-wise energy descent; shared weights reduce it to plain one-hop dynamics"),
    "ee_ufg": SchemeKind(  # a unit step, whatever tau is
        ("w", "epsilon"), 1.0, True,
        "band-shifted convolution; equals energy descent with shifted per-band "
        "external weights at unit step"),
    "spectral_framelet": SchemeKind(
        ("w", "theta", "tau"), 1.0, False,
        "uniform spectral filters: theta < 1 smooths, theta > 1 separates, theta = 1 is flat"),
    "activated": SchemeKind(
        ("omega", "w", "w_tilde", "tau"), 1e-2, True,
        "activated descent; the governing energy is non-increasing for "
        "sign-preserving activations"),
    "perturbed_closed_form": SchemeKind(
        ("epsilon", "tau"), 1e-2, False,
        "perturbed decay flow: every frequency decays, the flow smooths for any positive shift"),
}


def _scheme_operator(
    scheme: Scheme, sys: FrameletSystem, cfg: WeightConfig, c: int,
    h0: Optional[np.ndarray] = None,
) -> SchemeOperator:
    """Build ``scheme``'s operator, for states of c channels, from the
    system's per-frequency values lam of Lhat and a_hat = 1 - lam of Ahat.
    ``h0`` is the spectral initial state; it only matters when a source term
    is configured (beta != 0 with mixing matrices), which only the descent
    schemes have.  A step reads the state alone, and no n x n matrix but U."""
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
        step = _descent(form, tau, activation, u, c)
        return SchemeOperator(step, np.eye(g.shape[-1]) - tau * g, form)
    bands, resp, a_hat = cfg.bands_for(sys), sys.responses, sys.a_hat
    if kind == "spatial_framelet":  # its energy: Omega_b = I, no source
        ones = {b: one_like(cfg.w[b]) for b in bands}
        energy = Multiplier(framelet_terms(sys, ones, cfg.w))
        terms = zip(tau * sys.squares * a_hat, (cfg.w[b] for b in bands))
        return _linear_operator(Multiplier(terms), energy)
    # ee: band b analyses through r_b (Ahat - s_b), synthesis weights by r_b.
    # The energy is exact for the linearized form only; with a banded
    # activation it is recorded as a diagnostic, not a Lyapunov value.
    shift = band_shifts(sys, cfg.epsilon)
    analysis = {b: resp[b] * (a_hat - shift[b]) for b in bands}
    plain = replace(cfg, beta=0.0) if cfg.has_source else cfg
    energy = framelet_energy_form(sys, energy_enhanced_omega(sys, plain))
    linear = Multiplier([(resp[b] * analysis[b], cfg.w[b]) for b in bands])
    if activation == "identity":
        return _linear_operator(linear, energy)
    step = band_pass(u, [(analysis[b], cfg.w[b], resp[b]) for b in bands],
                     _activation(activation), c)
    return SchemeOperator(step, linear.per_frequency, energy)


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
    m = _scheme_operator(scheme, sys, linear, 1).one_step  # the gains read no step
    return None if m is None else np.max(np.abs(_modes(m, vectors=False)[0]), axis=1)


def _vertex_step(kind, activation, sys, signal, initial, cfg: WeightConfig):
    """One step of ``kind`` on a vertex-domain signal: U^T step(U H)."""
    h, was_vector = to_spectral(sys, signal)
    h0 = spectral_initial(sys, initial, h) if cfg.has_source else None
    op = _scheme_operator(Scheme(kind, activation), sys, cfg, h.shape[1], h0)
    op.energy.check_channels(h.shape[1])  # a folded step would broadcast a mismatch
    return to_vertex(sys, op.step(h, None), was_vector)


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
    omega = {b: one_like(cfg.w[b]) + shift[b] * cfg.w[b] for b in cfg.bands_for(sys)}
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


def _norm_limit(renormalize: bool) -> float:
    """The largest norm a state may reach: any finite one when renormalized, else the guard."""
    return np.finfo(float).max if renormalize else OVERFLOW_GUARD


def _check_norm(norm: float, k: int, renormalize: bool) -> None:
    """Raise if the norm after step k is zero, non-finite or over the guard."""
    if norm == 0.0:
        raise ZeroStateError(f"state vanished at step {k}")
    if not math.isfinite(norm) or (not renormalize and norm > OVERFLOW_GUARD):
        raise NumericOverflowError(f"state norm {norm:.3e} at step {k}; renormalize or shrink tau")


def _mode_blocks(scheme: Scheme, op: SchemeOperator, modes, lam, h0, norm0, max_steps):
    """Batches of rows (norms, E, energies) up to the first failing step,
    where it raises once resumed, and the state at step k.  A mode of
    squared coefficient z^2, energy z^2 g and multiplier mu gives rows of
    powers (mu / r)^2k.  With a number mu_i per frequency, the c channels of
    frequency i move together: one mode per frequency, of z^2 = |x_i|^2 and
    z^2 g = <x_i, G_i x_i> for x = hhat / ||H(0)||.  With c x c matrices M_i,
    the modes are the columns q of Q_i, z = q^T x_i, and each linear scheme's
    energy matrices a_i I + b M_i are diagonal in Q_i too, so g = q^T G_i q."""
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
    size = np.abs(mu)
    weights = np.concatenate([w[..., None] for w in (z2, z2 * (lam[:, None] / 2), z2g / 2)], axis=2)
    live = (z2 > 0.0) & (mu != 0.0)
    if not live.all():  # drop each mode of no mass or, for zero mu, gone at step 1
        if not live.any():
            raise ZeroStateError("state vanished at step 1")
        size, weights = size[live], weights[live]
    size, weights = size.ravel(), weights.reshape(-1, 3)  # live modes, live modes x 3
    r = float(size.max())
    log_q = np.log(size / r)  # (mu / r)^2j = exp(2j log_q)
    powers = np.exp(BLOCK_POWERS * log_q)  # (mu / r)^2j, j = 1..BLOCK
    renormalize, closed = scheme.renormalize, scheme.kind == "perturbed_closed_form"
    limit = _norm_limit(renormalize)

    def blocks():  # failing rows are cut; run_flow silences their overflow
        last, start = 1.0, 1  # squared mass of the unit initial state; the batch's first step
        column = log_q[:, None]
        while start <= max_steps:  # a batch of whole blocks as long as those before it, or the tail
            whole = max(min(start // BLOCK, BATCH, (max_steps + 1 - start) // BLOCK), 1)
            twice = np.arange(2 * (start - 1), 2 * (start - 1 + BLOCK * whole), 2 * BLOCK,
                              dtype=float)[:, None, None]  # 2(s_b - 1) for block b
            shifted = np.exp(twice * column) * weights  # block b's, shifted by (mu / r)^2(s_b - 1)
            rows = np.matmul(powers[: max_steps + 1 - start], shifted).reshape(-1, 3)
            mass, dirichlet, energy = rows.T
            count = len(mass)
            if closed or not renormalize:
                k = np.arange(start, start + count)
                growth = np.exp(2.0 * (k * np.log(r) + np.log(norm0)))  # norm0^2 r^2k
            else:  # the squared growth factor of the renormalized state
                growth = r * r / np.concatenate([[last], mass[:-1]])
            norm = np.sqrt(growth * mass)
            energy = energy / mass if renormalize else energy * growth
            cut = count  # unless a norm is 0, not finite, or (unrenormalized) over the guard
            if not (norm.min() > 0.0 and norm.max() <= limit):
                cut = int(np.argmin((norm > 0.0) & (norm <= limit)))
            yield norm[:cut], (dirichlet / mass)[:cut], energy[:cut]
            if cut < count:  # reached only if the plateau rule reads past the batch's good rows
                _check_norm(float(norm[cut]), start + cut, renormalize)
            last, start = mass[-1], start + count

    def state(k: int, norm: float) -> np.ndarray:
        h = back((np.where(live, mu, 0.0) / r) ** k)
        # math.sqrt(np.vdot(h, h)) has the bits of np.linalg.norm(h)
        return h * ((1.0 if renormalize else norm) / math.sqrt(np.vdot(h, h)))

    return blocks(), state


def _stepped_blocks(scheme: Scheme, op: SchemeOperator, dirichlet, state, max_steps):
    """Blocks of rows (norms, E, energies) of a stepped flow up to the first
    failing step, where it raises, and the state at step k.  A step reads the
    state alone and writes the next one into a one-block buffer, where it is
    renormalized in place; three stacked products give a block's rows with
    per-row vdot bits, the block's energy gradients and ``dirichlet``'s
    lam * h taking turns in one scratch buffer of the same size."""
    size, nc, source = min(BLOCK, max_steps), state.size, op.energy.source
    (states, scratch), norms = np.empty((2, size, *state.shape)), np.empty(size)
    renormalize = scheme.renormalize
    limit = _norm_limit(renormalize)

    def rows(m: int):  # as silent as vdot: run_flow ignores overflow
        h, x = states[:m], scratch[:m]
        dot = lambda y: (h.reshape(m, 1, nc) @ y.reshape(m, nc, 1)).ravel()
        g = op.energy.apply_into(h, x)
        if source is not None:
            g -= source
        energy = dot(g)
        mass = dot(h)
        return norms[:m].copy(), 0.5 * dot(dirichlet.apply_into(h, x)) / mass, 0.5 * energy

    def blocks():
        h, step, slots = state, op.step, list(states)
        for start in range(1, max_steps + 1, size):
            for j, k in enumerate(range(start, min(start + size, max_steps + 1))):
                h = step(h, slots[j])
                norms[j] = norm = math.sqrt(np.vdot(h, h))  # the bits of np.linalg.norm
                if not 0.0 < norm <= limit:  # zero, not finite or over the guard
                    try:
                        _check_norm(norm, k, renormalize)
                    except (ZeroStateError, NumericOverflowError):  # the plateau rule reads rows first
                        if j:
                            yield rows(j)
                        raise
                if renormalize:
                    h /= norm
            yield rows(j + 1)

    return blocks(), lambda k, norm: states[(k - 1) % size].copy()


def run_flow(
    scheme: Scheme, sys: FrameletSystem, initial, cfg: WeightConfig, stop: StopRule
) -> FlowTrace:
    """Iterate ``scheme`` on ``sys`` from ``initial`` and record a FlowTrace.

    Stops at the plateau rule or max_steps, whichever comes first.  Without
    renormalization the state norm is guarded against overflow (abort at
    1e150).  A linear scheme (identity activation, no source) advances a
    batch of BLOCK-step blocks per product; the closed form's norm column is
    ||H(k tau)||.  Other schemes step and record BLOCK rows at a time.  Every
    operator is read off the system's eigenvalues; ``gains`` holds rho(M_i)
    per eigenvalue.
    """
    x0, _ = as_columns(initial, sys.n)
    h0, lam = sys.spectrum.u @ x0, sys.spectrum.eigenvalues
    op = _scheme_operator(scheme, sys, cfg, x0.shape[1], h0)
    norm0 = float(np.linalg.norm(x0))
    if norm0 == 0.0:
        raise ZeroStateError("initial state has zero norm")
    e0 = sys.dirichlet.quadratic(h0) / float(np.vdot(h0, h0))
    # row 0 first: the energy's Multiplier checks the channel count
    first = (norm0, e0, op.energy.quadratic(h0))  # norms, E, energies
    power = op.one_step is not None and scheme.activation == "identity" and op.energy.source is None
    modes = None if op.one_step is None else _modes(op.one_step, vectors=power)
    if power:
        blocks, state_at = _mode_blocks(scheme, op, modes, lam, h0, norm0, stop.max_steps)
    else:
        state = h0 / norm0 if scheme.renormalize else h0
        blocks, state_at = _stepped_blocks(scheme, op, sys.dirichlet, state, stop.max_steps)
    chunks = []  # the blocks' (norms, E, energies)

    def fed():  # runs only as far as the plateau rule reads
        yield np.array([e0])
        for block in blocks:
            chunks.append(block)
            yield block[1]

    with np.errstate(over="ignore", invalid="ignore"):  # a block cuts its failing rows
        steps_to_plateau = stop.plateau_step(fed())
    last = stop.max_steps if steps_to_plateau is None else steps_to_plateau
    norms, e_arr, energies = (
        np.concatenate([[value], *column])[: last + 1] for value, column in zip(first, zip(*chunks))
    )
    return FlowTrace(
        scheme=scheme,
        norms=norms,
        dirichlet_normalized=e_arr,
        total_energy=energies,
        final_coefficients=state_at(last, norms[-1]),
        basis=sys.spectrum.u,
        steps_to_plateau=steps_to_plateau,
        gains=None if modes is None else np.abs(modes[0]).max(axis=1),
    )
