"""Reproducible experiment runner: JSON config in, CSV traces + JSON summary out.

Subcommands
-----------
gen       emit a graph edge list from the config's graph block
run       run one flow, write the trace CSV and a summary JSON
sweep     repeat the run over a grid of one key of SWEEP_KEYS (lambda_w|theta|epsilon|tau)
energy    evaluate every applicable energy for the configured signal
classify  re-classify an existing trace CSV (energy-value rules only; the
          eigenspace-residual check needs the final state, which a CSV does
          not carry); builds the graph and Lhat's eigenvalues, no eigenbasis

The config format is strict JSON: unknown keys are rejected anywhere in the
tree, so a typo fails loudly instead of silently changing the experiment.
Identical (config, seed) pairs produce byte-identical output: floats are
serialized with their shortest round-trip representation and CSV rows use LF
endings.  ``--seed`` overrides both the graph seed and the init seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
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
    MemoryError: 9,  # a config too large for the machine is out of range
}

DEFAULT_TAU = {
    "spatial_framelet": 1.0,
    "ee_ufg": 1.0,
    "spectral_framelet": 1.0,
    "gradf_ufg": 1e-2,
    "activated": 1e-2,
    "perturbed_closed_form": 1e-2,
}

# swept key -> (its block, None at the top level; the schemes that read it).
# ee_ufg takes a unit step whatever tau is.
SWEEP_KEYS = {
    "lambda_w": ("weights", tuple(DEFAULT_TAU)),
    "theta": (None, ("spectral_framelet",)),
    "epsilon": (None, ("ee_ufg", "perturbed_closed_form")),
    "tau": (None, tuple(kind for kind in DEFAULT_TAU if kind != "ee_ufg")),
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
    "name": (lambda v: isinstance(v, str) and v not in ("", "..") and Path(v).name == v,
             "a file name with no directory part"),
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
    "output": {"csv": "name", "summary": "name"},
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct: strict JSON takes no repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r} in config")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    """Parse a config file; ``validate_config`` checks it (each command calls it once)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return cfg


def validate_config(cfg: dict) -> energies.WeightConfig:
    """Check every key's name, value type, range and choice before any work;
    return the weights built to check them, which the run uses."""
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
    scales, variant = _framelet(cfg)
    framelets.haar_response(0.0, scales, variant)
    for block, key, least in (("init", "channels", 1), ("init", "seed", 0), ("graph", "seed", 0)):
        if cfg[block].get(key, least) < least:
            raise ConfigError(f"{block}.{key} must be >= {least}, got {cfg[block][key]}")
    if _run_rules(cfg)[1] <= 0.0:  # StopRule rejects run.steps or run.plateau_window below 1
        raise ConfigError(f"run.tol must be > 0, got {cfg['run']['tol']!r}")
    if theta is not None:
        _theta_bands(theta, scales)  # rejects a negative coefficient or a bad band key
    scheme = _scheme(cfg)  # dynamics.Scheme rejects an unknown or misplaced kind or activation
    weights = _build_weights(cfg, scheme.kind)  # WeightConfig rejects tau < 0, asymmetry
    csv, summary = _output_names(cfg)
    if csv == summary:
        raise ConfigError(f"output.csv and output.summary are both {csv!r}")
    return weights


def _framelet(cfg: dict) -> tuple:
    """(scales, variant) of the framelet block."""
    fcfg = cfg.get("framelet", {})
    return fcfg.get("scales", 1), fcfg.get("variant", "tight")


def _output_names(cfg: dict) -> tuple:
    ocfg = cfg.get("output", {})
    return ocfg.get("csv", "trace.csv"), ocfg.get("summary", "summary.json")


@functools.cache
def _probe_bank(scales: int, variant: str) -> framelets.FrameletSystem:
    """The bank at 0 and 2, the ends of every normalized Laplacian spectrum."""
    ends = spectral.Spectrum(np.array([0.0, 2.0]), np.eye(2), 2.0, 1)
    return framelets.build_framelet_system(ends, scales, variant)


def _scheme(cfg: dict) -> dynamics.Scheme:
    scfg = cfg.get("scheme", {})
    return dynamics.Scheme(
        kind=scfg.get("kind", "spatial_framelet"),
        activation=scfg.get("activation", "identity"),
        renormalize=bool(cfg.get("run", {}).get("renormalize", True)),
    )


def _build_graph(cfg: dict, seed: Optional[int]) -> graphs.Graph:
    """The graph of a checked graph block, whose keys are GraphSpec's fields."""
    if seed is not None and seed < 0:
        raise ConfigError(f"seed override must be >= 0, got {seed}")
    block = cfg["graph"] if seed is None else {**cfg["graph"], "seed": seed}
    return graphs.generate_graph(graphs.GraphSpec(**block))


def read_signal_matrix(path, n: int) -> np.ndarray:
    """Load an n x c matrix of finite decimal floats, comma separated, no header."""
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
                if not all(map(math.isfinite, rows[-1])):  # nan, inf, or 1e999
                    raise FileParseError(f"{path}:{lineno}: non-finite entry")
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


def _write_text(path, text: str) -> None:
    """Write ``text`` with LF line ends, making the parent directory; an
    unwritable path (a file where a directory should be, or the reverse) is
    a ConfigError naming it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _build_init(cfg: dict, spectrum: spectral.Spectrum, seed: Optional[int]) -> np.ndarray:
    """A random_normal or eigenvector init block's state; build_geometry reads a file's."""
    icfg = cfg["init"]
    if icfg["mode"] == "random_normal":
        channels = int(icfg.get("channels", 1))
        rng = np.random.default_rng(int(seed if seed is not None else icfg.get("seed", 0)))
        return rng.standard_normal((spectrum.n, channels))
    # an eigenvector, whose index build_geometry checked against the graph;
    # inside a repeated eigenvalue's eigenspace the row is the solver's choice
    index, lam = icfg["index"], spectrum.eigenvalues
    multiplicity = int(np.sum(np.abs(lam - lam[index]) <= spectral.TOP_TIE_TOL))
    if multiplicity > 1:
        raise ConfigError(
            f"init.index {index}: eigenvalue {lam[index]!r} has multiplicity "
            f"{multiplicity}, so its eigenvector is not unique"
        )
    return spectrum.u[index][:, None].copy()


def _parse_band_key(key: str) -> tuple:
    try:
        r, j = key.split(",")
        return (int(r), int(j))
    except ValueError as exc:
        raise ConfigError(f"band key {key!r} must look like 'r,j'") from exc


def _theta_bands(theta, scales: int) -> dict:
    """Each band's filter coefficients in a checked theta block: a number, or a
    list with one per vertex.  ``bands`` replaces ``low`` and ``high``; every
    coefficient given, replaced or not, must be >= 0."""
    block = theta if isinstance(theta, dict) else {"high": theta}
    out = {b: block.get("high" if b[0] else "low", 1.0) for b in framelets.band_index_set(scales)}
    values = list(out.values())
    if "bands" in block:
        out = {_parse_band_key(key): v for key, v in block["bands"].items()}
        values += [x for v in out.values() for x in v]
    if min(values) < 0.0:
        raise OutOfRangeError(f"theta must be nonnegative, got {theta!r}")
    return out


def _band_matrix_map(name: str, obj: dict, scales: int) -> Dict[tuple, np.ndarray]:
    out = {_parse_band_key(k): np.asarray(v, dtype=float) for k, v in obj.items()}
    expected = set(framelets.band_index_set(scales))
    if set(out) != expected:
        raise ConfigError(f"weights.{name} bands {sorted(out)} != {sorted(expected)}")
    return out


def _build_weights(cfg: dict, kind: str) -> energies.WeightConfig:
    wcfg, scales, theta = cfg["weights"], _framelet(cfg)[0], cfg.get("theta")
    common = {
        "epsilon": float(cfg.get("epsilon", 0.0)),
        "beta": float(cfg.get("beta", 0.0)),
        "theta": None if theta is None else _theta_bands(theta, scales),
        "tau": float(cfg.get("tau", DEFAULT_TAU[kind])),
    }
    if wcfg["mode"] == "scalar":
        return energies.WeightConfig.scalar(scales, wcfg["lambda_w"], **common)
    if wcfg["mode"] == "shared":
        return energies.WeightConfig.shared(scales, wcfg["omega"], wcfg["w"], **common)
    w_tilde = wcfg.get("w_tilde")
    return energies.WeightConfig(
        omega=_band_matrix_map("omega", wcfg["omega"], scales),
        w=_band_matrix_map("w", wcfg["w"], scales),
        w_tilde=None if w_tilde is None else _band_matrix_map("w_tilde", w_tilde, scales),
        **common,
    )


@dataclass
class Geometry:
    """The part of an experiment a sweep never varies, fixed by the graph,
    framelet, init and seed blocks.  Its one n x n matrix is the eigenbasis U."""

    graph: graphs.Graph
    spectrum: spectral.Spectrum
    system: framelets.FrameletSystem
    initial: np.ndarray


@dataclass
class Experiment(Geometry):
    """Everything assembled from one config, ready to run."""

    scheme: dynamics.Scheme
    weights: energies.WeightConfig
    stop: dynamics.StopRule
    tol: float


def build_geometry(cfg: dict, weights: energies.WeightConfig, seed: Optional[int] = None,
                   reads: tuple = ("omega", "w", "w_tilde")) -> Geometry:
    """The geometry of a validated config; ``weights`` are the config's, built
    by its check, whose per-vertex theta must fit the graph and whose matrices
    named in ``reads`` (see WeightConfig.check_channels) must fit the signal."""
    icfg = cfg["init"]
    if icfg["mode"] != "file":  # random_normal channels, or one eigenvector
        weights.check_channels(icfg.get("channels", 1), reads)
    graph = _build_graph(cfg, seed)
    # before the eigendecomposition: what has to fit the node count n
    kind, n = _scheme(cfg).kind, graph.n
    if icfg["mode"] == "eigenvector" and not 0 <= icfg["index"] < n:
        raise ConfigError(f"init.index {icfg['index']} outside [0, {n})")
    signal = read_signal_matrix(icfg["path"], n) if icfg["mode"] == "file" else None
    if signal is not None:
        weights.check_channels(signal.shape[1], reads)
    if kind == "spectral_framelet" and weights.theta is not None:
        weights.theta_for(_probe_bank(*_framelet(cfg)).bands, n)
    spectrum = spectral.eigh(graphs.normalized_laplacian(graph))
    system = framelets.build_framelet_system(spectrum, *_framelet(cfg))
    initial = _build_init(cfg, spectrum, seed) if signal is None else signal
    return Geometry(graph, spectrum, system, initial)


def _run_rules(cfg: dict):
    """(stop rule, verdict tolerance) of the config's run block."""
    rcfg = cfg.get("run", {})
    stop = dynamics.StopRule(
        max_steps=int(rcfg.get("steps", 1000)),
        plateau_window=int(rcfg.get("plateau_window", 10)),
    )
    return stop, float(rcfg.get("tol", analysis.DEFAULT_TOL))


def assemble(cfg: dict, geometry: Geometry, weights: energies.WeightConfig) -> Experiment:
    """Add the scheme, the config's weights and its stop rule to a geometry."""
    scheme = _scheme(cfg)
    stop, tol = _run_rules(cfg)
    if scheme.kind in ("ee_ufg", "perturbed_closed_form") and weights.epsilon <= 0.0:
        print(
            f"warning: scheme {scheme.kind} with epsilon={weights.epsilon} <= 0; "
            "the band shifts degenerate",
            file=sys.stderr,
        )
    return Experiment(**vars(geometry), scheme=scheme, weights=weights, stop=stop, tol=tol)


def _check_flow_config(cfg: dict, weights: energies.WeightConfig) -> None:
    """Reject before any geometry is built what a flow would reject later: the
    closed form off a tight two-scale bank, spectral filtering without a theta
    per band or with unequal band weights, and an unrenormalized run.
    ``weights`` are the config's, built as its check."""
    scheme, bank = _scheme(cfg), _probe_bank(*_framelet(cfg))
    if scheme.kind == "perturbed_closed_form":
        dynamics.require_closed_form_bank(bank)
    if scheme.kind == "spectral_framelet":
        weights.theta_for(bank.bands)
        weights.shared_w(bank)
    if not scheme.renormalize:
        raise TraceNotNormalizedError("dominance is defined on renormalized runs only")


def run_flows(cfgs: List[dict], weights: list, seed: Optional[int] = None, jobs: int = 1) -> list:
    """Check every validated config's flow by :func:`_check_flow_config` on its
    ``weights`` (from :func:`validate_config` or the sweep value's check);
    build the geometry they share once; then assemble every config,
    run every flow (on ``jobs`` threads), predict every limit and classify
    every trace, a stage at a time, which keeps each stage's code and data
    warm.  Returns (experiment, trace, prediction, verdict) per config, in order."""
    for cfg, point in zip(cfgs, weights, strict=True):
        _check_flow_config(cfg, point)
    reads = dynamics.SCHEME_WEIGHTS[_scheme(cfgs[0]).kind]  # the weights the flows read
    geometry = build_geometry(cfgs[0], weights[0], seed, reads)
    experiments = [assemble(cfg, geometry, point) for cfg, point in zip(cfgs, weights)]
    run = lambda exp: dynamics.run_flow(exp.scheme, exp.system, exp.initial, exp.weights, exp.stop)
    if jobs <= 1:
        traces = [run(exp) for exp in experiments]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            traces = list(pool.map(run, experiments))
    predictions = [
        None if trace.gains is None else analysis.dominant_frequency(exp.spectrum, trace.gains)
        for exp, trace in zip(experiments, traces)
    ]
    verdicts = [
        analysis.classify_dominance(trace, exp.spectrum, exp.tol, prediction)
        for exp, trace, prediction in zip(experiments, traces, predictions)
    ]
    return list(zip(experiments, traces, predictions, verdicts))


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


TRACE_HEADER = "step,norm,dirichlet_normalized,total_energy,rayleigh"


def write_trace_csv(path, trace: dynamics.FlowTrace) -> None:
    e = trace.dirichlet_normalized
    columns = (trace.steps, trace.norms, e, trace.total_energy, trace.rayleigh)
    rows = (f"{k},{a!r},{b!r},{c!r},{d!r}" for k, a, b, c, d in zip(*(x.tolist() for x in columns)))
    _write_text(path, "\n".join([TRACE_HEADER, *rows]) + "\n")


def run_config(cfg: dict, out_dir, seed: Optional[int] = None) -> dict:
    """Run one experiment; write the trace CSV + summary JSON; return the summary."""
    [(exp, trace, _, verdict)] = run_flows([cfg], [validate_config(cfg)], seed)
    csv_path, summary_path = (Path(out_dir) / name for name in _output_names(cfg))
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
    _write_text(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _apply_sweep_value(cfg: dict, parameter: str, value: float) -> tuple:
    """The point config: ``cfg`` (validated) with the one swept leaf replaced,
    sharing every block but the one it changes (which no run mutates); and
    its weights, built to check the value, which its run uses."""
    if parameter not in SWEEP_KEYS:
        raise ConfigError(f"sweep parameter must be one of {tuple(SWEEP_KEYS)}, got {parameter!r}")
    block, schemes = SWEEP_KEYS[parameter]
    kind = _scheme(cfg).kind
    if kind not in schemes:
        raise ConfigError(f"{parameter} sweeps need scheme.kind in {schemes}, got {kind!r}")
    if block is not None and parameter not in cfg[block]:  # lambda_w off scalar weights
        raise ConfigError(f"{parameter} sweeps need {block}.{parameter} in the config")
    if not _is_number(value):
        raise ConfigError(f"sweep value must be a finite number, got {value!r}")
    leaf = {parameter: value}
    point = {**cfg, **leaf} if block is None else {**cfg, block: {**cfg[block], **leaf}}
    return point, _build_weights(point, kind)  # rejects a negative theta or tau


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
    points, weights = zip(*(_apply_sweep_value(cfg, parameter, value) for value in grid))
    flows = run_flows(points, weights, seed, jobs)
    rows = [
        {
            "value": value,
            "predicted": "NONE" if prediction is None else prediction.dominance,
            "margin": None if prediction is None else prediction.margin,
            "measured": verdict.dominance,
            "limit_value": verdict.limit_value,
            "steps_to_plateau": -1 if trace.steps_to_plateau is None else trace.steps_to_plateau,
        }
        for value, (_, trace, prediction, verdict) in zip(grid, flows)
    ]
    lines = ["value,predicted_class,measured_class,limit_value,steps_to_plateau"]
    for row in rows:
        lines.append(
            f"{_fmt(row['value'])},{row['predicted']},{row['measured']},"
            f"{_fmt(row['limit_value'])},{row['steps_to_plateau']}"
        )
    _write_text(Path(out_dir) / "sweep.csv", "\n".join(lines) + "\n")
    return rows


def energy_report(cfg: dict, seed: Optional[int] = None) -> dict:
    """Evaluate every energy the config makes applicable for its signal."""
    weights = validate_config(cfg)
    exp = assemble(cfg, build_geometry(cfg, weights, seed), weights)
    x = exp.initial
    report = {"dirichlet": energies.dirichlet_energy(graphs.normalized_laplacian(exp.graph), x)}
    if exp.system.is_tight:
        per_band, total = energies.framelet_dirichlet_energies(exp.system, x)
        report["band_dirichlet"] = {f"{b[0]},{b[1]}": v for b, v in per_band.items()}
        report["band_dirichlet_sum"] = total
    report["total_framelet"] = energies.total_framelet_energy(
        exp.system, x, exp.weights, initial=x if exp.weights.has_source else None
    )
    if cfg["weights"]["mode"] == "shared":  # every band holds the one (omega, w) pair
        band, ahat = exp.system.low_pass, graphs.normalized_adjacency(exp.graph)
        report["generalized"] = energies.generalized_energy(
            ahat, x, exp.weights.omega[band], exp.weights.w[band]
        )
    if exp.weights.epsilon != 0.0 and exp.system.is_tight:
        report["perturbed"] = energies.perturbed_energy(exp.system, x, exp.weights.epsilon)
    if exp.weights.theta is not None:
        report["spectral"] = energies.spectral_energy(exp.system, x, exp.weights)
    if exp.weights.has_source:
        report["source_term"] = energies.source_energy_term(exp.system, x, x, exp.weights)
    return report


def classify_trace_csv(cfg: dict, trace_path, seed: Optional[int] = None) -> dict:
    """Re-apply the plateau + limit-value rules to an existing trace CSV.

    The final state is not stored in a CSV, so the eigenspace-residual half
    of the high-frequency test cannot be re-checked here.  Of the geometry
    only the eigenvalues (for rho_L) are computed, with no eigenbasis.
    """
    validate_config(cfg)
    rho_l = float(spectral.eigvalsh(graphs.normalized_laplacian(_build_graph(cfg, seed)))[-1])
    stop, tol = _run_rules(cfg)
    try:
        with open(trace_path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise FileParseError(f"cannot read trace {trace_path}: {exc}") from exc
    if not lines or lines[0] != TRACE_HEADER:
        raise FileParseError(f"{trace_path} does not look like a trace CSV")
    try:
        table = [[float(field) for field in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise FileParseError(f"{trace_path}: non-numeric field") from exc
    if not table:
        raise FileParseError(f"{trace_path} has no data rows")
    width = TRACE_HEADER.count(",") + 1
    for k, row in enumerate(table):  # no run writes a non-finite value: its norm guard stops it
        if len(row) != width or not all(map(math.isfinite, row)) or row[0] != k:
            raise FileParseError(f"{trace_path}: row {k + 1} is not step {k} "
                                 f"and {width} finite numbers")
    e_norm = [row[2] for row in table]
    plateaued = stop.plateau_step([np.array(e_norm)]) is not None
    dominance, _ = analysis.limit_dominance(plateaued, e_norm[-1], rho_l, tol)
    return {
        "dominance": dominance,
        "limit_value": e_norm[-1],
        "target_low": 0.0,
        "target_high": rho_l / 2.0,
        "residual_checked": False,
        "rows": len(e_norm),
        "plateaued": plateaued,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frameflow", description="framelet flow experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = ("gen", "run", "energy", "sweep", "classify")
    commands = {name: sub.add_parser(name) for name in names}
    for name, command in commands.items():
        command.add_argument("--config", required=True, help="path to the JSON config")
        if name != "classify":
            command.add_argument("--out", default=".", help="output directory")
        command.add_argument("--seed", type=int, default=None, help="override graph/init seeds")
    commands["sweep"].add_argument("--parameter", required=True, choices=SWEEP_KEYS)
    commands["sweep"].add_argument("--grid", required=True, help="comma-separated values")
    commands["sweep"].add_argument("--jobs", type=int, default=1, help="worker threads")
    commands["classify"].add_argument("--trace", required=True, help="existing trace CSV")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = None if args.command == "classify" else Path(args.out)
        if args.command == "gen":
            validate_config(cfg)
            graph = _build_graph(cfg, args.seed)
            path = out_dir / "graph.edges"
            _write_text(path, graphs.format_edge_list(graph))
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
            text = json.dumps(report, indent=2, sort_keys=True)
            _write_text(out_dir / "energies.json", text + "\n")
            print(text)
        elif args.command == "classify":
            verdict = classify_trace_csv(cfg, args.trace, seed=args.seed)
            print(json.dumps(verdict, indent=2, sort_keys=True))
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit
    except (FrameflowError, MemoryError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout early, as `| head -1` does
            with open(os.devnull, "w") as devnull:  # what is left to flush at exit goes nowhere
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
