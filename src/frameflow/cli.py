"""Reproducible experiment runner: JSON config in, CSV traces + JSON summary out.

Subcommands
-----------
gen       emit a graph edge list from the config's graph block
run       run one flow, write the trace CSV and a summary JSON
sweep     repeat the run over a grid of one parameter (lambda_w|theta|epsilon)
energy    evaluate every applicable energy for the configured signal
classify  re-classify an existing trace CSV (energy-value rules only; the
          eigenspace-residual check needs the final state, which a CSV does
          not carry); builds the graph and its spectrum, no framelet bank

The config format is strict JSON: unknown keys are rejected anywhere in the
tree, so a typo fails loudly instead of silently changing the experiment.
Identical (config, seed) pairs produce byte-identical output: floats are
serialized with their shortest round-trip representation and CSV rows use LF
endings.  ``--seed`` overrides both the graph seed and the init seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import analysis, dynamics, energies, framelets, graphs, spectral
from .errors import (
    BandMismatchError,
    ConfigError,
    DegenerateGraphError,
    DimensionMismatchError,
    FileParseError,
    FrameflowError,
    IllegalRenormalizeError,
    InvalidSpecError,
    NoConvergenceError,
    NotSymmetricError,
    NumericOverflowError,
    OutOfRangeError,
    TraceNotNormalizedError,
    VariantNotTightError,
    ZeroStateError,
)

__all__ = ["main", "run_config", "sweep_config", "load_config"]

EXIT_CODES = {
    ConfigError: 2,
    InvalidSpecError: 3,
    DegenerateGraphError: 4,
    FileParseError: 5,
    NotSymmetricError: 6,
    NoConvergenceError: 7,
    DimensionMismatchError: 8,
    OutOfRangeError: 9,
    VariantNotTightError: 10,
    BandMismatchError: 11,
    NumericOverflowError: 12,
    IllegalRenormalizeError: 13,
    ZeroStateError: 14,
    TraceNotNormalizedError: 15,
}

DEFAULT_TAU = {
    "spatial_framelet": 1.0,
    "ee_ufg": 1.0,
    "spectral_framelet": 1.0,
    "gradf_ufg": 1e-2,
    "activated": 1e-2,
    "perturbed_closed_form": 1e-2,
}


def _fmt(x) -> str:
    return repr(float(x))


def _reject_unknown(name: str, obj: dict, allowed) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")


def _require(name: str, obj: dict, key: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object")
    if key not in obj:
        raise ConfigError(f"{name} is missing required key {key!r}")
    return obj[key]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite float, or an integer a float can hold."""
    if _is_int(v):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float) and math.isfinite(v)


def _is_matrix(v) -> bool:
    """A non-empty list of equally long lists of finite numbers."""
    if not isinstance(v, list) or not v:
        return False
    return all(isinstance(r, list) and len(r) == len(v[0]) and all(map(_is_number, r)) for r in v)


VALUE_KINDS = {  # kind -> (test, what a value of that kind must be)
    "int": (_is_int, "an integer"),
    "number": (_is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "ints": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "matrix": (_is_matrix, "a matrix of finite numbers"),
    "matrices": (
        lambda v: isinstance(v, dict) and all(map(_is_matrix, v.values())),
        "an object of band keys to matrices",
    ),
    "vectors": (
        lambda v: isinstance(v, dict) and all(_is_matrix([x]) for x in v.values()),  # one row
        "an object of band keys to lists of finite numbers",
    ),
}

# block -> key -> kind of its value (None: the value is checked on its own)
CONFIG_KEYS = {
    "config": {"graph": None, "framelet": None, "scheme": None, "weights": None,
               "epsilon": "number", "beta": "number", "tau": "number", "theta": None,
               "init": None, "run": None, "output": None},
    "graph": {"kind": "str", "n": "int", "m": "int", "sizes": "ints", "p": "number",
              "p_in": "number", "p_out": "number", "seed": "int", "self_loops": "bool",
              "path": "str"},
    "framelet": {"scales": "int", "variant": "str"},
    "scheme": {"kind": "str", "activation": "str"},
    "weights.scalar": {"mode": "str", "lambda_w": "number"},
    "weights.shared": {"mode": "str", "omega": "matrix", "w": "matrix"},
    "weights.full": {"mode": "str", "omega": "matrices", "w": "matrices", "w_tilde": "matrices"},
    "theta": {"low": "number", "high": "number", "bands": "vectors"},
    "init.random_normal": {"mode": "str", "seed": "int", "channels": "int"},
    "init.file": {"mode": "str", "path": "str"},
    "init.eigenvector": {"mode": "str", "index": "int"},
    "run": {"steps": "int", "tol": "number", "plateau_window": "int", "renormalize": "bool"},
    "output": {"csv": "str", "summary": "str"},
}


def _check_keys(block: str, obj, name: Optional[str] = None) -> None:
    """Reject keys outside CONFIG_KEYS[block] and values not of their kind."""
    name = name or block
    _reject_unknown(name, obj, CONFIG_KEYS[block])
    for key, kind in CONFIG_KEYS[block].items():
        test, what = VALUE_KINDS.get(kind, (None, None))
        if test is not None and key in obj and not test(obj[key]):
            raise ConfigError(f"{name}.{key} must be {what}, got {obj[key]!r}")


def _reject_constant(token: str):
    raise ConfigError(f"non-finite number {token} in config")


def load_config(path) -> dict:
    """Parse and structurally validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Check every key's name, value type, range and choice before any work."""
    _check_keys("config", cfg)
    _check_keys("graph", _require("config", cfg, "graph"))
    _require("graph", cfg["graph"], "kind")
    _check_keys("framelet", cfg.get("framelet", {}))
    _check_keys("scheme", cfg.get("scheme", {}))
    wcfg = _require("config", cfg, "weights")
    mode = _require("weights", wcfg, "mode")
    if mode not in ("scalar", "shared", "full"):
        raise ConfigError(f"weights.mode must be scalar|shared|full, got {mode!r}")
    _check_keys(f"weights.{mode}", wcfg, "weights")
    for key in ("lambda_w",) if mode == "scalar" else ("omega", "w"):
        _require("weights", wcfg, key)
    theta = cfg.get("theta")
    if isinstance(theta, dict):
        _check_keys("theta", theta)
    elif theta is not None and not _is_number(theta):
        raise ConfigError("theta must be a finite number or an object")
    icfg = _require("config", cfg, "init")
    imode = _require("init", icfg, "mode")
    if imode not in ("random_normal", "file", "eigenvector"):
        raise ConfigError(f"init.mode must be random_normal|file|eigenvector, got {imode!r}")
    _check_keys(f"init.{imode}", icfg, "init")
    if imode != "random_normal":
        _require("init", icfg, "path" if imode == "file" else "index")
    _check_keys("run", cfg.get("run", {}))
    _check_keys("output", cfg.get("output", {}))
    fcfg = cfg.get("framelet", {})
    framelets.haar_response(0.0, fcfg.get("scales", 1), fcfg.get("variant", "tight"))
    for block, key in (("init", "channels"), ("run", "steps"), ("run", "plateau_window")):
        if cfg.get(block, {}).get(key, 1) < 1:
            raise ConfigError(f"{block}.{key} must be >= 1, got {cfg[block][key]}")
    if theta is not None and min(_theta_values(theta)) < 0.0:
        raise OutOfRangeError(f"theta must be nonnegative, got {theta!r}")
    _scheme(cfg)  # dynamics.Scheme rejects an unknown or misplaced kind or activation
    if mode == "full":
        for key in ("omega", "w", "w_tilde"):
            if key in wcfg:
                _band_matrix_map(key, wcfg[key], fcfg.get("scales", 1))


def _theta_values(theta) -> list:
    """Every filter coefficient of a validated theta block."""
    if not isinstance(theta, dict):
        return [theta]
    bands = [x for values in theta.get("bands", {}).values() for x in values]
    return [theta.get("low", 1.0), theta.get("high", 1.0), *bands]


def _scheme(cfg: dict) -> dynamics.Scheme:
    scfg = cfg.get("scheme", {})
    return dynamics.Scheme(
        kind=scfg.get("kind", "spatial_framelet"),
        activation=scfg.get("activation", "identity"),
        renormalize=bool(cfg.get("run", {}).get("renormalize", True)),
    )


def _build_graph(cfg: dict, seed: Optional[int]) -> graphs.Graph:
    gcfg = cfg["graph"]
    sizes = gcfg.get("sizes")
    spec = graphs.GraphSpec(
        kind=gcfg["kind"],
        n=gcfg.get("n"),
        m=gcfg.get("m"),
        sizes=tuple(sizes) if sizes is not None else None,
        p=gcfg.get("p"),
        p_in=gcfg.get("p_in"),
        p_out=gcfg.get("p_out"),
        seed=int(seed if seed is not None else gcfg.get("seed", 0)),
        self_loops=bool(gcfg.get("self_loops", False)),
        path=gcfg.get("path"),
    )
    return graphs.generate_graph(spec)


def read_signal_matrix(path, n: int) -> np.ndarray:
    """Load an n x c matrix of decimal floats, comma separated, no header."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise FileParseError(f"{path}:{lineno}: non-numeric entry") from exc
    except OSError as exc:
        raise FileParseError(f"cannot read signal file {path}: {exc}") from exc
    if not rows:
        raise FileParseError(f"signal file {path} is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FileParseError(f"signal file {path} has ragged rows")
    mat = np.asarray(rows, dtype=float)
    if mat.shape[0] != n:
        raise DimensionMismatchError(f"signal file has {mat.shape[0]} rows, graph has {n} nodes")
    return mat


def write_signal_matrix(path, mat: np.ndarray) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in mat:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _build_init(cfg: dict, spectrum: spectral.Spectrum, seed: Optional[int]) -> np.ndarray:
    icfg = cfg["init"]
    mode = icfg["mode"]
    if mode == "random_normal":
        channels = int(icfg.get("channels", 1))
        rng = np.random.default_rng(int(seed if seed is not None else icfg.get("seed", 0)))
        return rng.standard_normal((spectrum.n, channels))
    if mode == "file":
        return read_signal_matrix(icfg["path"], spectrum.n)
    if mode == "eigenvector":
        index = int(icfg["index"])
        if not (0 <= index < spectrum.n):
            raise ConfigError(f"init.index {index} outside [0, {spectrum.n})")
        # inside a repeated eigenvalue's eigenspace the row is the solver's choice
        lam = spectrum.eigenvalues
        multiplicity = int(np.sum(np.abs(lam - lam[index]) <= spectral.TOP_TIE_TOL))
        if multiplicity > 1:
            raise ConfigError(
                f"init.index {index}: eigenvalue {lam[index]!r} has multiplicity "
                f"{multiplicity}, so its eigenvector is not unique"
            )
        return spectrum.u[index][:, None].copy()
    raise ConfigError(f"unknown init mode {mode!r}")


def _parse_band_key(key: str) -> tuple:
    try:
        r, j = key.split(",")
        return (int(r), int(j))
    except ValueError as exc:
        raise ConfigError(f"band key {key!r} must look like 'r,j'") from exc


def _theta_map(cfg: dict, scales: int, n: int) -> Optional[Dict[tuple, np.ndarray]]:
    theta = cfg.get("theta")
    if theta is None:
        return None
    bands = framelets.band_index_set(scales)
    ones = np.ones(n)
    if isinstance(theta, (int, float)):
        return {b: (ones if b[0] == 0 else float(theta) * ones) for b in bands}
    if "bands" in theta:
        out = {}
        for key, values in theta["bands"].items():
            vec = np.asarray(values, dtype=float).ravel()
            out[_parse_band_key(key)] = vec
        return out
    low = float(theta.get("low", 1.0))
    high = float(theta.get("high", 1.0))
    return {b: (low * ones if b[0] == 0 else high * ones) for b in bands}


def _band_matrix_map(name: str, obj: dict, scales: int) -> Dict[tuple, np.ndarray]:
    out = {_parse_band_key(k): np.asarray(v, dtype=float) for k, v in obj.items()}
    expected = set(framelets.band_index_set(scales))
    if set(out) != expected:
        raise ConfigError(f"weights.{name} bands {sorted(out)} != {sorted(expected)}")
    return out


def _build_weights(cfg: dict, scales: int, channels: int, n: int) -> energies.WeightConfig:
    wcfg = cfg["weights"]
    mode = wcfg["mode"]
    scheme_kind = cfg.get("scheme", {}).get("kind", "spatial_framelet")
    tau = float(cfg.get("tau", DEFAULT_TAU.get(scheme_kind, 1.0)))
    common = {
        "epsilon": float(cfg.get("epsilon", 0.0)),
        "beta": float(cfg.get("beta", 0.0)),
        "theta": _theta_map(cfg, scales, n),
        "tau": tau,
    }
    if mode == "scalar":
        return energies.WeightConfig.scalar(
            scales, float(wcfg["lambda_w"]), channels, **common
        )
    if mode == "shared":
        return energies.WeightConfig.shared(
            scales,
            np.asarray(wcfg["omega"], dtype=float),
            np.asarray(wcfg["w"], dtype=float),
            **common,
        )
    if mode == "full":
        w_tilde = wcfg.get("w_tilde")
        return energies.WeightConfig(
            omega=_band_matrix_map("omega", wcfg["omega"], scales),
            w=_band_matrix_map("w", wcfg["w"], scales),
            w_tilde=None if w_tilde is None else _band_matrix_map("w_tilde", w_tilde, scales),
            **common,
        )
    raise ConfigError(f"unknown weights mode {mode!r}")


@dataclass
class Geometry:
    """The part of an experiment fixed by the graph, framelet and seed blocks."""

    ahat: np.ndarray
    lap: np.ndarray
    spectrum: spectral.Spectrum
    system: framelets.FrameletSystem


@dataclass
class Experiment(Geometry):
    """Everything assembled from one config, ready to run."""

    scheme: dynamics.Scheme
    weights: energies.WeightConfig
    initial: np.ndarray
    stop: dynamics.StopRule
    tol: float


def build_geometry(cfg: dict, seed: Optional[int] = None) -> Geometry:
    graph = _build_graph(cfg, seed)
    if cfg["init"]["mode"] == "eigenvector" and not 0 <= cfg["init"]["index"] < graph.n:
        raise ConfigError(f"init.index {cfg['init']['index']} outside [0, {graph.n})")
    ahat = graphs.normalized_adjacency(graph)
    lap = np.eye(graph.n) - ahat
    spectrum = spectral.eigh(lap)
    fcfg = cfg.get("framelet", {})
    scales = int(fcfg.get("scales", 1))
    system = framelets.build_framelet_system(spectrum, scales, fcfg.get("variant", "tight"))
    return Geometry(ahat, lap, spectrum, system)


def _run_rules(cfg: dict):
    """(stop rule, verdict tolerance) of the config's run block."""
    rcfg = cfg.get("run", {})
    stop = dynamics.StopRule(
        max_steps=int(rcfg.get("steps", 1000)),
        plateau_window=int(rcfg.get("plateau_window", 10)),
    )
    return stop, float(rcfg.get("tol", analysis.DEFAULT_TOL))


def assemble(cfg: dict, geometry: Geometry, seed: Optional[int] = None) -> Experiment:
    """Add the scheme, initial state, weights and stop rule to a geometry."""
    scheme = _scheme(cfg)
    initial = _build_init(cfg, geometry.spectrum, seed)
    weights = _build_weights(cfg, geometry.system.scales, initial.shape[1], geometry.spectrum.n)
    stop, tol = _run_rules(cfg)
    if scheme.kind in ("ee_ufg", "perturbed_closed_form") and weights.epsilon <= 0.0:
        print(
            f"warning: scheme {scheme.kind} with epsilon={weights.epsilon} <= 0; "
            "the band shifts degenerate",
            file=sys.stderr,
        )
    return Experiment(
        **vars(geometry), scheme=scheme, weights=weights, initial=initial, stop=stop, tol=tol
    )


def _check_flow_config(cfg: dict) -> None:
    """Reject before any geometry is built what a flow would reject later:
    unequal band weights under spectral filtering (WeightConfig.shared_w)
    and an unrenormalized run, which has no verdict."""
    wcfg = cfg["weights"]
    if cfg.get("scheme", {}).get("kind") == "spectral_framelet" and wcfg["mode"] != "shared":
        if wcfg["mode"] == "scalar":
            band_w = [1.0, float(wcfg["lambda_w"])]
        else:
            scales = int(cfg.get("framelet", {}).get("scales", 1))
            band_w = list(_band_matrix_map("w", wcfg["w"], scales).values())
        if not all(np.array_equal(w, band_w[0]) for w in band_w):
            raise ConfigError("spectral filtering uses one shared w across all bands")
    if not cfg.get("run", {}).get("renormalize", True):
        raise TraceNotNormalizedError("dominance is defined on renormalized runs only")


def run_flows(cfgs: List[dict], seed: Optional[int] = None, jobs: int = 1) -> list:
    """Check every config, build the geometry they share once, then run
    assemble -> run -> predict -> classify for each, on ``jobs`` threads.
    Returns (experiment, trace, prediction, verdict) per config, in order."""
    for cfg in cfgs:
        validate_config(cfg)
        _check_flow_config(cfg)
    geometry = build_geometry(cfgs[0], seed)

    def flow(cfg: dict):
        exp = assemble(cfg, geometry, seed)
        trace = dynamics.run_flow(
            exp.scheme, exp.system, exp.ahat, exp.lap, exp.initial, exp.weights, exp.stop
        )
        prediction = (
            None if trace.gains is None else analysis.dominant_frequency(exp.spectrum, trace.gains)
        )
        verdict = analysis.classify_dominance(trace, exp.spectrum, exp.tol, prediction)
        return exp, trace, prediction, verdict

    if jobs <= 1:
        return [flow(cfg) for cfg in cfgs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(flow, cfgs))


PAPER_CHECK = {
    "spatial_framelet": "scalar band weights: small high-pass weight smooths "
    "(low-frequency limit), sufficiently large magnitude separates (high-frequency limit)",
    "gradf_ufg": "band-wise energy descent; shared weights reduce it to plain one-hop dynamics",
    "ee_ufg": "band-shifted convolution; equals energy descent with shifted per-band "
    "external weights at unit step",
    "spectral_framelet": "uniform spectral filters: theta < 1 smooths, theta > 1 separates, "
    "theta = 1 is flat",
    "activated": "activated descent; the governing energy is non-increasing for "
    "sign-preserving activations",
    "perturbed_closed_form": "perturbed decay flow: every frequency decays, the flow "
    "smooths for any positive shift",
}


def write_trace_csv(path, trace: dynamics.FlowTrace) -> None:
    e = trace.dirichlet_normalized
    columns = (trace.steps, trace.norms, e, trace.total_energy, trace.rayleigh)
    rows = (f"{k},{a!r},{b!r},{c!r},{d!r}" for k, a, b, c, d in zip(*(x.tolist() for x in columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(["step,norm,dirichlet_normalized,total_energy,rayleigh", *rows]) + "\n")


def run_config(cfg: dict, out_dir, seed: Optional[int] = None) -> dict:
    """Run one experiment; write the trace CSV + summary JSON; return the summary."""
    [(exp, trace, _, verdict)] = run_flows([cfg], seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ocfg = cfg.get("output", {})
    csv_path = out_dir / ocfg.get("csv", "trace.csv")
    summary_path = out_dir / ocfg.get("summary", "summary.json")
    write_trace_csv(csv_path, trace)
    summary = {
        "verdict": asdict(verdict),
        "rho_l": exp.spectrum.rho_l,
        "final": {
            "norm": float(trace.norms[-1]),
            "dirichlet_normalized": trace.limit_value,
            "total_energy": float(trace.total_energy[-1]),
            "rayleigh": float(trace.rayleigh[-1]),
            "steps_run": trace.steps_run,
            "plateaued": trace.plateaued,
            "steps_to_plateau": trace.steps_to_plateau,
        },
        "paper_check": PAPER_CHECK.get(exp.scheme.kind, "general band-wise flow"),
        "config": cfg,
        "seed_override": seed,
    }
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


SWEEP_PARAMETERS = ("lambda_w", "theta", "epsilon")


def _apply_sweep_value(cfg: dict, parameter: str, value: float) -> dict:
    out = json.loads(json.dumps(cfg))
    if parameter == "lambda_w":
        if out["weights"]["mode"] != "scalar":
            raise ConfigError("lambda_w sweeps need weights.mode == 'scalar'")
        out["weights"]["lambda_w"] = value
    elif parameter == "theta":
        if out.get("scheme", {}).get("kind") != "spectral_framelet":
            raise ConfigError("theta sweeps need scheme.kind == 'spectral_framelet'")
        out["theta"] = value
    elif parameter == "epsilon":
        if out.get("scheme", {}).get("kind") not in ("ee_ufg", "perturbed_closed_form"):
            raise ConfigError("epsilon sweeps need an epsilon-shifted scheme")
        out["epsilon"] = value
    else:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
    return out


def sweep_config(
    cfg: dict,
    parameter: str,
    grid: List[float],
    out_dir,
    jobs: int = 1,
    seed: Optional[int] = None,
) -> List[dict]:
    """Run the config once per grid value on one geometry; emit sweep.csv
    in grid order, whatever the order in which ``jobs`` threads finish."""
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    validate_config(cfg)
    points = [_apply_sweep_value(cfg, parameter, value) for value in grid]
    rows = [
        {
            "value": value,
            "predicted": "NONE" if prediction is None else prediction.dominance,
            "margin": None if prediction is None else prediction.margin,
            "measured": verdict.dominance,
            "limit_value": verdict.limit_value,
            "steps_to_plateau": -1 if trace.steps_to_plateau is None else trace.steps_to_plateau,
        }
        for value, (_, trace, prediction, verdict) in zip(grid, run_flows(points, seed, jobs))
    ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    lines = ["value,predicted_class,measured_class,limit_value,steps_to_plateau"]
    for row in rows:
        lines.append(
            f"{_fmt(row['value'])},{row['predicted']},{row['measured']},"
            f"{_fmt(row['limit_value'])},{row['steps_to_plateau']}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return rows


def energy_report(cfg: dict, seed: Optional[int] = None) -> dict:
    """Evaluate every energy the config makes applicable for its signal."""
    validate_config(cfg)
    exp = assemble(cfg, build_geometry(cfg, seed), seed)
    x = exp.initial
    report = {"dirichlet": energies.dirichlet_energy(exp.lap, x)}
    if exp.system.is_tight:
        per_band, total = energies.framelet_dirichlet_energies(exp.system, exp.lap, x)
        report["band_dirichlet"] = {f"{b[0]},{b[1]}": v for b, v in per_band.items()}
        report["band_dirichlet_sum"] = total
    report["total_framelet"] = energies.total_framelet_energy(
        exp.system, exp.ahat, x, exp.weights, initial=x if exp.weights.has_source else None
    )
    if cfg["weights"]["mode"] == "shared":
        report["generalized"] = energies.generalized_energy(
            exp.ahat,
            x,
            np.asarray(cfg["weights"]["omega"], dtype=float),
            np.asarray(cfg["weights"]["w"], dtype=float),
        )
    if exp.weights.epsilon != 0.0 and exp.system.is_tight:
        report["perturbed"] = energies.perturbed_energy(
            exp.system, exp.lap, x, exp.weights.epsilon
        )
    if exp.weights.theta is not None:
        report["spectral"] = energies.spectral_energy(exp.system, x, exp.weights)
    if exp.weights.has_source:
        report["source_term"] = energies.source_energy_term(exp.system, x, x, exp.weights)
    return report


def classify_trace_csv(cfg: dict, trace_path, seed: Optional[int] = None) -> dict:
    """Re-apply the plateau + limit-value rules to an existing trace CSV.

    The final state is not stored in a CSV, so the eigenspace-residual half
    of the high-frequency test cannot be re-checked here.  Of the geometry
    only the spectrum (for rho_L) is built.
    """
    validate_config(cfg)
    spectrum = spectral.eigh(graphs.normalized_laplacian(_build_graph(cfg, seed)))
    stop, tol = _run_rules(cfg)
    try:
        with open(trace_path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise FileParseError(f"cannot read trace {trace_path}: {exc}") from exc
    if not lines or not lines[0].startswith("step,"):
        raise FileParseError(f"{trace_path} does not look like a trace CSV")
    try:
        e_norm = [float(ln.split(",")[2]) for ln in lines[1:]]
    except (IndexError, ValueError) as exc:
        raise FileParseError(f"{trace_path}: malformed row") from exc
    if not e_norm:
        raise FileParseError(f"{trace_path} has no data rows")
    plateaued = stop.plateau_step(e_norm) is not None
    dominance, _ = analysis.limit_dominance(plateaued, e_norm[-1], spectrum, tol)
    return {
        "dominance": dominance,
        "limit_value": e_norm[-1],
        "target_low": 0.0,
        "target_high": spectrum.rho_l / 2.0,
        "residual_checked": False,
        "rows": len(e_norm),
        "plateaued": plateaued,
    }


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override graph/init seeds")
    parser.add_argument("--jobs", type=int, default=1, help="worker pool size for sweeps")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frameflow", description="framelet flow experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "run", "energy"):
        _add_common(sub.add_parser(name))
    p_sweep = sub.add_parser("sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=SWEEP_PARAMETERS)
    p_sweep.add_argument("--grid", required=True, help="comma-separated values")
    p_classify = sub.add_parser("classify")
    _add_common(p_classify)
    p_classify.add_argument("--trace", required=True, help="existing trace CSV")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        if args.command == "gen":
            graph = _build_graph(cfg, args.seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "graph.edges"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(graphs.format_edge_list(graph))
            print(path)
        elif args.command == "run":
            summary = run_config(cfg, out_dir, seed=args.seed)
            print(json.dumps(summary["verdict"], indent=2, sort_keys=True))
        elif args.command == "sweep":
            try:
                grid = [float(tok) for tok in args.grid.split(",") if tok.strip() != ""]
            except ValueError as exc:
                raise ConfigError(f"bad --grid value: {exc}") from exc
            rows = sweep_config(cfg, args.parameter, grid, out_dir, args.jobs, args.seed)
            for row in rows:
                print(
                    f"{row['value']}: predicted={row['predicted']} "
                    f"measured={row['measured']} limit={row['limit_value']:.3e}"
                )
        elif args.command == "energy":
            report = energy_report(cfg, seed=args.seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "energies.json"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "classify":
            verdict = classify_trace_csv(cfg, args.trace, seed=args.seed)
            print(json.dumps(verdict, indent=2, sort_keys=True))
    except FrameflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
