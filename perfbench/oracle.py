"""Reference values computed apart from frameflow, and the checks that hold
the program's outputs to them.

Nothing here imports frameflow or reads a stored copy of its output.  Graphs
are drawn from the documented seeded recipe (PCG64, node pairs in
lexicographic order, re-drawn until no node is isolated), the spectrum comes
from ``numpy.linalg.eigh`` of a Laplacian built here, and the filter bank from
the two-scale Haar closed forms.  With scalar band weights every linear
scheme is diagonal in the Laplacian eigenbasis, so it reduces to one
multiplier m_i per eigenvalue, and after k steps

    E_k = 1/2 * sum_i lam_i m_i^(2k) |h_i|^2 / sum_i m_i^(2k) |h_i|^2

is the normalized Dirichlet energy, whatever the renormalization.  Nonlinear
schemes are stepped here in numpy from the same eigenbasis, and every row of
their trace is compared too.

Each check returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

LFD, HFD, MIXED, UNDECIDED = "LFD", "HFD", "MIXED", "UNDECIDED"

PLATEAU_TOL = 1e-9  # documented plateau rule: |dE| < 1e-9 for `window` steps
GROUP_TOL = 1e-9  # eigenvalues closer than this form one frequency
TRACE_HEADER = "step,norm,dirichlet_normalized,total_energy,rayleigh"

# Agreement demanded between the program and the references.  Observed
# differences are near 1e-13 (see README); 1e-10 leaves margin for solver
# rounding and still rejects a row shifted by 1e-8.
E_TOL = 1e-10
NORM_RTOL = 1e-10
# A threshold comparison (plateau, verdict tolerances, gain ties) whose two
# sides are this close may go either way between two correct computations.
PLATEAU_SLACK = 1e-12
RULE_SLACK = 1e-6


# --------------------------------------------------------------------------
# inputs: graph, spectrum, initial state, filter bank


def adjacency(graph: dict) -> np.ndarray:
    """Dense 0/1 adjacency for the graph block of a config."""
    kind = graph["kind"]
    if kind == "cycle":
        n = int(graph["n"])
        idx = np.arange(n)
        a = np.zeros((n, n))
        a[idx, (idx + 1) % n] = 1.0
        a[(idx + 1) % n, idx] = 1.0
        return a
    if kind == "erdos_renyi":
        n = int(graph["n"])
        block = np.zeros(n, dtype=int)
        p_in = p_out = float(graph["p"])
    elif kind == "sbm":
        sizes = [int(s) for s in graph["sizes"]]
        n = sum(sizes)
        block = np.repeat(np.arange(len(sizes)), sizes)
        p_in, p_out = float(graph["p_in"]), float(graph["p_out"])
    else:
        raise ValueError(f"no reference generator for graph kind {kind!r}")
    rows, cols = np.triu_indices(n, 1)  # row-major: lexicographic pair order
    prob = np.where(block[rows] == block[cols], p_in, p_out)
    rng = np.random.default_rng(int(graph["seed"]))
    for _ in range(100):
        keep = rng.random(rows.size) < prob
        a = np.zeros((n, n))
        a[rows[keep], cols[keep]] = 1.0
        a += a.T
        if a.sum(axis=1).min() > 0.0:
            return a
    raise ValueError("no draw without isolated nodes in 100 tries")


@dataclass(frozen=True)
class Geometry:
    lam: np.ndarray  # ascending, clipped at 0
    v: np.ndarray  # eigenvectors as columns
    rho: float  # largest eigenvalue, unclipped

    @property
    def n(self) -> int:
        return self.lam.shape[0]


def geometry(graph: dict) -> Geometry:
    a = adjacency(graph)
    s = 1.0 / np.sqrt(a.sum(axis=1))
    lap = np.eye(a.shape[0]) - s[:, None] * a * s[None, :]
    lam, v = np.linalg.eigh(lap)
    return Geometry(np.maximum(lam, 0.0), v, float(lam[-1]))


def initial_state(cfg: dict, n: int) -> np.ndarray:
    init = cfg["init"]
    return np.random.default_rng(int(init["seed"])).standard_normal((n, int(init["channels"])))


def haar_bands(lam: np.ndarray) -> Dict[str, np.ndarray]:
    """Two-scale tight Haar responses: low-pass first, then the two high-passes."""
    c8, s8 = np.cos(lam / 8.0), np.sin(lam / 8.0)
    c16, s16 = np.cos(lam / 16.0), np.sin(lam / 16.0)
    return {"low": c8 * c16, "high1": s8 * c16, "high2": s16}


def band_weights(cfg: dict) -> Dict[str, float]:
    """Scalar weight of each band: 1 on the low-pass, lambda_w on each high-pass."""
    lw = float(cfg["weights"]["lambda_w"])
    return {"low": 1.0, "high1": lw, "high2": lw}


# --------------------------------------------------------------------------
# linear schemes: one multiplier per eigenvalue


def multiplier(cfg: dict, lam: np.ndarray) -> np.ndarray:
    """Per-eigenvalue gain of one step of the config's scheme.

    For ``activated`` and ``ee_ufg`` with a nonlinear activation this is the
    gain of the identity (linearized) step, which is what their dominance
    prediction is about.
    """
    kind = cfg["scheme"]["kind"]
    tau = float(cfg.get("tau", 1.0))
    r = haar_bands(lam)
    w = band_weights(cfg)
    low2 = r["low"] ** 2
    high2 = r["high1"] ** 2 + r["high2"] ** 2
    conv = sum(w[b] * r[b] ** 2 for b in r) * (1.0 - lam)  # sum_b w_b r_b^2 (1 - lam)
    if kind == "spatial_framelet":
        return tau * conv
    if kind in ("gradf_ufg", "activated"):
        return 1.0 - tau * ((low2 + high2) - conv)
    if kind == "spectral_framelet":
        return tau * (low2 + float(cfg["theta"]) * high2)
    eps = float(cfg.get("epsilon", 0.0))
    if kind == "ee_ufg":
        return (1.0 - lam - eps) * low2 + w["high1"] * (1.0 - lam + eps) * high2
    if kind == "perturbed_closed_form":
        return np.exp(-(lam + eps * (low2 - high2)) * tau)
    raise ValueError(f"no multiplier for scheme {kind!r}")


def _log_weights(m: np.ndarray, hsq: np.ndarray, ks: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logm = np.log(np.abs(m))
        return 2.0 * ks[:, None] * logm[None, :] + np.log(hsq)[None, :]


def _normalized(logw: np.ndarray) -> np.ndarray:
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class Reference:
    """Reference trace for steps 0..K: closed form, or stepped here."""

    energy: np.ndarray  # E_k, normalized Dirichlet energy
    norm: np.ndarray  # the program's `norm` column
    top_residual: np.ndarray  # distance of the unit state to the top eigenspace


def linear_reference(cfg: dict, geo: Geometry, h0: np.ndarray, last: int) -> Reference:
    """Closed form of a renormalized linear run (every linear workload renormalizes)."""
    m = multiplier(cfg, geo.lam)
    hsq = np.sum((geo.v.T @ h0) ** 2, axis=1)
    ks = np.arange(last + 1, dtype=float)
    logw = _log_weights(m, hsq, ks)
    share = _normalized(logw)
    energy = 0.5 * share @ geo.lam
    top = geo.lam >= geo.rho - GROUP_TOL
    top_residual = np.sqrt(share[:, ~top].sum(axis=1))
    if cfg["scheme"]["kind"] == "perturbed_closed_form":
        # evaluated from H(0) at every step: the column is |H(k tau)|
        peak = logw.max(axis=1)
        norm = np.exp(0.5 * (peak + np.log(np.exp(logw - peak[:, None]).sum(axis=1))))
    else:
        # iterated on the unit state: the column is the growth factor of step k
        growth = np.sqrt(share[:-1] @ (m**2))
        norm = np.concatenate([[np.sqrt(hsq.sum())], growth])
    return Reference(energy, norm, top_residual)


# --------------------------------------------------------------------------
# nonlinear schemes: stepped here in the vertex domain


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    return {"identity": lambda x: x, "relu": lambda x: np.maximum(x, 0.0), "tanh": np.tanh}[name](z)


def nonlinear_reference(cfg: dict, geo: Geometry, h0: np.ndarray, last: int) -> Reference:
    """Iterate the config's (possibly nonlinear) scheme for ``last`` steps."""
    kind = cfg["scheme"]["kind"]
    act = cfg["scheme"].get("activation", "identity")
    renorm = bool(cfg["run"].get("renormalize", True))
    v, lam = geo.v, geo.lam
    r = haar_bands(lam)
    w = band_weights(cfg)
    if kind == "activated":
        tau = float(cfg["tau"])
        grad_mult = sum(r[b] ** 2 for b in r) - sum(w[b] * r[b] ** 2 for b in r) * (1.0 - lam)

        def step(h):
            return h + tau * _activate(act, -(v @ (grad_mult[:, None] * (v.T @ h))))

    elif kind == "ee_ufg":
        eps = float(cfg["epsilon"])
        inner = {
            b: ((1.0 - lam) + (-eps if b == "low" else eps)) * r[b] * w[b] for b in r
        }

        def step(h):
            hat = v.T @ h
            out = np.zeros_like(h)
            for b in r:
                z = _activate(act, v @ (inner[b][:, None] * hat))
                out += v @ (r[b][:, None] * (v.T @ z))
            return out

    else:
        raise ValueError(f"no nonlinear reference for scheme {kind!r}")

    def unit_energy(h):
        hat = v.T @ h
        sq = np.sum(hat**2, axis=1)
        total = sq.sum()
        return 0.5 * float(sq @ lam) / total, float(np.sqrt(sq[lam < geo.rho - GROUP_TOL].sum() / total))

    norms = [float(np.linalg.norm(h0))]
    e0, res0 = unit_energy(h0)
    energies, residuals = [e0], [res0]
    h = h0 / norms[0] if renorm else h0.copy()
    for _ in range(last):
        h = step(h)
        nrm = float(np.linalg.norm(h))
        if renorm:
            h = h / nrm
        e, res = unit_energy(h)
        norms.append(nrm)
        energies.append(e)
        residuals.append(res)
    return Reference(np.array(energies), np.array(norms), np.array(residuals))


# --------------------------------------------------------------------------
# the documented rules, evaluated on reference values


def plateau_problems(energy: np.ndarray, window: int, stop: Optional[int], cap: int) -> List[str]:
    """Check the program's stop step against the plateau rule on ``energy``.

    ``stop`` is the step the program says plateaued (None: it ran to ``cap``).
    Differences within PLATEAU_SLACK of the tolerance may count either way.
    """
    diffs = np.abs(np.diff(energy))
    sure = diffs < PLATEAU_TOL - PLATEAU_SLACK
    maybe = diffs < PLATEAU_TOL + PLATEAU_SLACK
    last = cap if stop is None else stop

    def run_of(flags: np.ndarray, k: int) -> bool:  # `window` flat steps ending at step k
        return k >= window and bool(np.all(flags[k - window : k]))

    for k in range(window, last):
        if run_of(sure, k):
            return [f"plateau rule holds at step {k}, program ran to {last}"]
    if stop is not None and not run_of(maybe, stop):
        return [f"program reports a plateau at step {stop}, rule does not hold there"]
    return []


def measured_classes(plateaued: bool, energy: float, residual: float, rho: float, tol: float):
    """Verdicts the documented rule allows for a final state, allowing each
    threshold comparison to go either way within RULE_SLACK."""
    if not plateaued:
        return {UNDECIDED}
    out = set()
    for f_e in (1.0 - RULE_SLACK, 1.0 + RULE_SLACK):
        for f_r in (1.0 - RULE_SLACK, 1.0 + RULE_SLACK):
            if abs(energy) <= tol * f_e:
                out.add(LFD)
            elif abs(energy - rho / 2.0) <= tol * f_e and residual <= np.sqrt(tol) * f_r:
                out.add(HFD)
            else:
                out.add(MIXED)
    return out


def predicted_classes(cfg: dict, geo: Geometry):
    """Argmax of |gain| over the distinct eigenvalues, as a set of allowed
    classes (both sides when the winner is within RULE_SLACK of a tie)."""
    reps: List[float] = []
    for lam in geo.lam:
        if not reps or lam - reps[-1] > GROUP_TOL:
            reps.append(float(lam))
    gains = np.abs(multiplier(cfg, np.asarray(reps)))
    order = np.argsort(gains)[::-1]
    best = gains[order[0]]
    lam_star = reps[order[0]]
    if lam_star <= GROUP_TOL:
        winner = LFD
    elif abs(lam_star - geo.rho) <= GROUP_TOL:
        winner = HFD
    else:
        winner = MIXED
    runner_up = gains[order[1]] if len(reps) > 1 else 0.0
    # the program calls a tie MIXED; near one, the winner is also accepted
    return {winner, MIXED} if 1.0 - runner_up / best <= RULE_SLACK else {winner}


# --------------------------------------------------------------------------
# checks on program outputs


def read_trace(path) -> np.ndarray:
    """Parse a trace CSV into an array with columns step, norm, E, energy, rayleigh."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected header")
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def _f(x) -> str:
    return repr(float(x))


def reference_for(cfg: dict, geo: Geometry, h0: np.ndarray, last: int) -> Reference:
    act = cfg["scheme"].get("activation", "identity")
    if act != "identity":
        return nonlinear_reference(cfg, geo, h0, last)
    return linear_reference(cfg, geo, h0, last)


def check_run(cfg: dict, trace: np.ndarray, summary: dict, geo: Optional[Geometry] = None) -> List[str]:
    """Hold one `run` invocation's trace and summary to the references."""
    geo = geo or geometry(cfg["graph"])
    h0 = initial_state(cfg, geo.n)
    problems: List[str] = []
    last = int(trace[-1, 0])
    if not np.array_equal(trace[:, 0], np.arange(last + 1)):
        return ["trace steps are not 0..K"]
    ref = reference_for(cfg, geo, h0, last)
    e_err = np.abs(trace[:, 2] - ref.energy)
    if e_err.max() > E_TOL:
        k = int(np.argmax(e_err))
        problems.append(f"dirichlet_normalized row {k}: {_f(trace[k, 2])} vs reference {_f(ref.energy[k])}")
    if np.any(trace[:, 4] != 2.0 * trace[:, 2]):
        problems.append("rayleigh column is not twice dirichlet_normalized")
    n_err = np.abs(trace[:, 1] / ref.norm - 1.0)
    if n_err.max() > NORM_RTOL:
        k = int(np.argmax(n_err))
        problems.append(f"norm row {k}: {_f(trace[k, 1])} vs reference {_f(ref.norm[k])}")
    run = cfg["run"]
    final = summary["final"]
    stop = final["steps_to_plateau"]
    problems += plateau_problems(ref.energy, int(run["plateau_window"]), stop, int(run["steps"]))
    if final["steps_run"] != last or final["plateaued"] != (stop is not None):
        problems.append("summary step counts disagree with the trace")
    verdict = summary["verdict"]
    if verdict["limit_value"] != trace[-1, 2]:
        problems.append("summary limit_value is not the last trace row")
    problems += _class_problems(cfg, geo, verdict["predicted"], verdict["dominance"],
                                stop is not None, ref.energy[-1], ref.top_residual[-1])
    if abs(summary["rho_l"] - geo.rho) > 1e-10:
        problems.append(f"rho_l {_f(summary['rho_l'])} vs reference {_f(geo.rho)}")
    return problems


def _class_problems(cfg, geo, predicted, measured, plateaued, energy, residual) -> List[str]:
    problems = []
    allowed = predicted_classes(cfg, geo)
    if predicted not in allowed:
        problems.append(f"predicted {predicted}, reference argmax gives {sorted(allowed)}")
    allowed = measured_classes(plateaued, energy, residual, geo.rho, float(cfg["run"]["tol"]))
    if measured not in allowed:
        problems.append(f"measured {measured}, rule on reference state gives {sorted(allowed)}")
    return problems


def check_sweep(cfg: dict, grid: Sequence[float], rows: List[dict]) -> List[str]:
    """Hold every row of a lambda_w sweep to the closed form at its stop step."""
    if [r["value"] for r in rows] != list(grid):
        return ["sweep rows do not follow the grid"]
    geo = geometry(cfg["graph"])
    h0 = initial_state(cfg, geo.n)
    run = cfg["run"]
    problems: List[str] = []
    for row in rows:
        point = dict(cfg, weights=dict(cfg["weights"], lambda_w=row["value"]))
        stop = None if row["steps_to_plateau"] < 0 else row["steps_to_plateau"]
        last = int(run["steps"]) if stop is None else stop
        ref = linear_reference(point, geo, h0, last)
        where = f"lambda_w={row['value']}"
        if abs(row["limit_value"] - ref.energy[-1]) > E_TOL:
            problems.append(f"{where}: limit {_f(row['limit_value'])} vs closed form {_f(ref.energy[-1])}")
        problems += [f"{where}: {p}" for p in
                     plateau_problems(ref.energy, int(run["plateau_window"]), stop, int(run["steps"]))]
        problems += [f"{where}: {p}" for p in
                     _class_problems(point, geo, row["predicted"], row["measured"], stop is not None,
                                     ref.energy[-1], ref.top_residual[-1])]
    return problems


def read_sweep(path) -> List[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "value,predicted_class,measured_class,limit_value,steps_to_plateau":
        raise ValueError(f"{path}: unexpected header")
    rows = []
    for ln in lines[1:]:
        value, predicted, measured, limit, steps = ln.split(",")
        rows.append({"value": float(value), "predicted": predicted, "measured": measured,
                     "limit_value": float(limit), "steps_to_plateau": int(steps)})
    return rows
