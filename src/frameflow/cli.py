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
from dataclasses import asdict, dataclass, replace
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

# swept key -> its block, None at the top level.  A scheme sweeps the keys
# its flow reads (dynamics.SCHEMES), lambda_w through w.
SWEEP_KEYS = {"lambda_w": "weights", "theta": None, "epsilon": None, "tau": None}


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return cfg


@dataclass(frozen=True)
class Plan:
    """A checked config and everything its check built, which every command
    runs; a sweep point is its config's plan with the swept value replaced."""

    config: dict  # echoed in the summary
    scheme: dynamics.Scheme
    weights: energies.WeightConfig
    stop: dynamics.StopRule
    tol: float  # the verdict tolerance
    scales: int
    variant: str
    csv: str
    summary: str


def validate_config(cfg: dict) -> Plan:
    """Check every key's name, value type, range and choice before any work;
    return the plan built to check them, which the command runs."""
    _check_keys("config", cfg)
    _check_keys("graph", _require("config", cfg, "graph"))
    _require("graph", cfg["graph"], "kind")
    fcfg, scfg = cfg.get("framelet", {}), cfg.get("scheme", {})
    _check_keys("framelet", fcfg)
    _check_keys("scheme", scfg)
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
    rcfg, ocfg = cfg.get("run", {}), cfg.get("output", {})
    _check_keys("run", rcfg)
    _check_keys("output", ocfg)
    scales, variant = fcfg.get("scales", 1), fcfg.get("variant", "tight")
    framelets.haar_response(0.0, scales, variant)
    for block, key, least in (("init", "channels", 1), ("init", "seed", 0), ("graph", "seed", 0)):
        if cfg[block].get(key, least) < least:
            raise ConfigError(f"{block}.{key} must be >= {least}, got {cfg[block][key]}")
    stop = dynamics.StopRule(  # rejects run.steps or run.plateau_window below 1
        max_steps=int(rcfg.get("steps", 1000)),
        plateau_window=int(rcfg.get("plateau_window", 10)),
    )
    tol = float(rcfg.get("tol", analysis.DEFAULT_TOL))
    if tol <= 0.0:
        raise ConfigError(f"run.tol must be > 0, got {rcfg['tol']!r}")
    if theta is not None:
        _theta_bands(theta, scales)  # rejects a negative coefficient or a bad band key
    scheme = dynamics.Scheme(  # rejects an unknown or misplaced kind or activation
        kind=scfg.get("kind", "spatial_framelet"),
        activation=scfg.get("activation", "identity"),
        renormalize=bool(rcfg.get("renormalize", True)),
    )
    weights = _build_weights(cfg, scheme.kind, scales)  # WeightConfig rejects tau < 0, asymmetry
    csv, summary = ocfg.get("csv", "trace.csv"), ocfg.get("summary", "summary.json")
    if csv == summary:
        raise ConfigError(f"output.csv and output.summary are both {csv!r}")
    return Plan(cfg, scheme, weights, stop, tol, scales, variant, csv, summary)


@functools.cache
def _probe_bank(scales: int, variant: str) -> framelets.FrameletSystem:
    """The bank at 0 and 2, the ends of every normalized Laplacian spectrum."""
    ends = spectral.Spectrum(np.array([0.0, 2.0]), np.eye(2))
    return framelets.build_framelet_system(ends, scales, variant)


def _build_graph(cfg: dict, seed: Optional[int]) -> graphs.Graph:
    """The graph of a checked graph block, whose keys are GraphSpec's fields."""
    if seed is not None and seed < 0:
        raise ConfigError(f"seed override must be >= 0, got {seed}")
    block = cfg["graph"] if seed is None else {**cfg["graph"], "seed": seed}
    return graphs.generate_graph(graphs.GraphSpec(**block))


def read_numbers(path, what: str, header: Optional[str] = None) -> tuple:
    """(table, lines) of the comma-separated ``what`` file at ``path``: its
    rows of finite numbers as a float array, and the line each row is on.
    Blank lines are skipped; ``header``, if given, must be the first line;
    every row must be as wide as the first line.  Each error about a line
    names it as path:line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            numbered = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise FileParseError(f"cannot read {what} file {path}: {exc}") from exc
    width = None
    if header is not None:
        lineno, first = numbered.pop(0) if numbered else (1, "")
        if first != header:
            raise FileParseError(f"{path}:{lineno}: a {what} file starts with {header!r}")
        width = header.count(",") + 1
    rows = []
    for lineno, line in numbered:
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise FileParseError(f"{path}:{lineno}: non-numeric entry") from exc
        if not all(map(math.isfinite, row)):  # nan, inf, or 1e999
            raise FileParseError(f"{path}:{lineno}: non-finite entry")
        width = width or len(row)
        if len(row) != width:
            raise FileParseError(f"{path}:{lineno}: {len(row)} fields, not {width}")
        rows.append(row)
    if not rows:
        raise FileParseError(f"{what} file {path} has no rows of numbers")
    return np.asarray(rows, dtype=float), [lineno for lineno, _ in numbered]


def read_signal_matrix(path, n: int) -> np.ndarray:
    """An n x c signal matrix, one row per vertex, read by :func:`read_numbers`."""
    mat, _ = read_numbers(path, "signal")
    if len(mat) != n:
        raise DimensionMismatchError(f"signal file {path} has {len(mat)} rows, graph has {n}")
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


def _build_weights(cfg: dict, kind: str, scales: int) -> energies.WeightConfig:
    wcfg, theta = cfg["weights"], cfg.get("theta")
    common = {
        "epsilon": float(cfg.get("epsilon", 0.0)),
        "beta": float(cfg.get("beta", 0.0)),
        "theta": None if theta is None else _theta_bands(theta, scales),
        "tau": float(cfg.get("tau", dynamics.SCHEMES[kind].tau)),
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
    """A geometry and the plan to run on it."""

    plan: Plan


def build_geometry(plan: Plan, seed: Optional[int] = None,
                   reads: tuple = ("omega", "w", "w_tilde", "theta")) -> Geometry:
    """The geometry of a plan.  Of the config keys in ``reads`` (a scheme's,
    or by default all that ``energy`` reads), each matrix weight must fit the
    signal (see WeightConfig.check_channels) and a per-vertex theta the graph."""
    cfg, weights = plan.config, plan.weights
    icfg = cfg["init"]
    if icfg["mode"] != "file":  # random_normal channels, or one eigenvector
        weights.check_channels(icfg.get("channels", 1), reads)
    graph = _build_graph(cfg, seed)
    # before the eigendecomposition: what has to fit the node count n
    n = graph.n
    if icfg["mode"] == "eigenvector" and not 0 <= icfg["index"] < n:
        raise ConfigError(f"init.index {icfg['index']} outside [0, {n})")
    signal = read_signal_matrix(icfg["path"], n) if icfg["mode"] == "file" else None
    if signal is not None:
        weights.check_channels(signal.shape[1], reads)
    if "theta" in reads and weights.theta is not None:
        weights.theta_for(_probe_bank(plan.scales, plan.variant).bands, n)
    spectrum = spectral.eigh(graphs.normalized_laplacian(graph))
    system = framelets.build_framelet_system(spectrum, plan.scales, plan.variant)
    initial = _build_init(cfg, spectrum, seed) if signal is None else signal
    return Geometry(graph, spectrum, system, initial)


def assemble(plan: Plan, geometry: Geometry) -> Experiment:
    """Add a plan to a geometry."""
    kind, epsilon = plan.scheme.kind, plan.weights.epsilon
    if "epsilon" in dynamics.SCHEMES[kind].reads and epsilon <= 0.0:
        print(
            f"warning: scheme {kind} with epsilon={epsilon} <= 0; the band shifts degenerate",
            file=sys.stderr,
        )
    return Experiment(**vars(geometry), plan=plan)


def _check_flow_config(plan: Plan) -> None:
    """Reject before any geometry is built what a flow would reject later: the
    closed form off a tight two-scale bank, spectral filtering without a theta
    per band or with unequal band weights, and an unrenormalized run."""
    kind, bank = plan.scheme.kind, _probe_bank(plan.scales, plan.variant)
    if kind == "perturbed_closed_form":
        dynamics.require_closed_form_bank(bank)
    if kind == "spectral_framelet":
        plan.weights.theta_for(bank.bands)
        plan.weights.shared_w(bank)
    if not plan.scheme.renormalize:
        raise TraceNotNormalizedError("dominance is defined on renormalized runs only")


def run_flows(plans: List[Plan], seed: Optional[int] = None) -> list:
    """Check every plan's flow by :func:`_check_flow_config`; build the
    geometry they share once; then assemble every plan, run every flow,
    predict every limit and classify every trace, a stage at a time, which
    keeps each stage's code and data warm.  Returns (experiment, trace,
    prediction, verdict) per plan, in order."""
    for plan in plans:
        _check_flow_config(plan)
    reads = dynamics.SCHEMES[plans[0].scheme.kind].reads  # the keys the flows read
    geometry = build_geometry(plans[0], seed, reads)
    experiments = [assemble(plan, geometry) for plan in plans]
    traces = [dynamics.run_flow(plan.scheme, exp.system, exp.initial, plan.weights, plan.stop)
              for plan, exp in zip(plans, experiments)]
    predictions = [
        None if trace.gains is None else analysis.dominant_frequency(exp.spectrum, trace.gains)
        for exp, trace in zip(experiments, traces)
    ]
    verdicts = [
        analysis.classify_dominance(trace, exp.spectrum, exp.plan.tol, prediction)
        for exp, trace, prediction in zip(experiments, traces, predictions)
    ]
    return list(zip(experiments, traces, predictions, verdicts))


TRACE_HEADER = "step,norm,dirichlet_normalized,total_energy,rayleigh"


def write_trace_csv(path, trace: dynamics.FlowTrace) -> None:
    e = trace.dirichlet_normalized
    columns = (trace.steps, trace.norms, e, trace.total_energy, trace.rayleigh)
    rows = (f"{k},{a!r},{b!r},{c!r},{d!r}" for k, a, b, c, d in zip(*(x.tolist() for x in columns)))
    _write_text(path, "\n".join([TRACE_HEADER, *rows]) + "\n")


def run_config(cfg: dict, out_dir, seed: Optional[int] = None) -> dict:
    """Run one experiment; write the trace CSV + summary JSON; return the summary."""
    plan = validate_config(cfg)
    [(exp, trace, _, verdict)] = run_flows([plan], seed)
    write_trace_csv(Path(out_dir) / plan.csv, trace)
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
        "paper_check": dynamics.SCHEMES[plan.scheme.kind].paper_check,
        "config": plan.config,
        "seed_override": seed,
    }
    _write_text(Path(out_dir) / plan.summary, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _apply_sweep_value(plan: Plan, parameter: str, value: float) -> Plan:
    """The point's plan: ``plan`` with the one swept leaf of its config
    replaced, sharing every block but the one it changes (which no run
    mutates), and with the weights built to check the value, which its run
    uses."""
    if parameter not in SWEEP_KEYS:
        raise ConfigError(f"sweep parameter must be one of {tuple(SWEEP_KEYS)}, got {parameter!r}")
    cfg, block, kind = plan.config, SWEEP_KEYS[parameter], plan.scheme.kind
    read = "w" if parameter == "lambda_w" else parameter
    schemes = tuple(name for name, spec in dynamics.SCHEMES.items() if read in spec.reads)
    if kind not in schemes:
        raise ConfigError(f"{parameter} sweeps need scheme.kind in {schemes}, got {kind!r}")
    if block is not None and parameter not in cfg[block]:  # lambda_w off scalar weights
        raise ConfigError(f"{parameter} sweeps need {block}.{parameter} in the config")
    if isinstance(cfg.get(parameter), dict):  # a number would drop theta's low and bands
        raise ConfigError(f"{parameter} sweeps need a number {parameter}, not an object")
    if not _is_number(value):
        raise ConfigError(f"sweep value must be a finite number, got {value!r}")
    leaf = {parameter: value}
    point = {**cfg, **leaf} if block is None else {**cfg, block: {**cfg[block], **leaf}}
    weights = _build_weights(point, kind, plan.scales)  # rejects a negative theta or tau
    return replace(plan, config=point, weights=weights)


def sweep_config(
    cfg: dict,
    parameter: str,
    grid: List[float],
    out_dir,
    seed: Optional[int] = None,
) -> List[dict]:
    """Run the config once per grid value on one geometry; emit sweep.csv
    in grid order."""
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    plan = validate_config(cfg)
    flows = run_flows([_apply_sweep_value(plan, parameter, value) for value in grid], seed)
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
    plan = validate_config(cfg)
    exp = assemble(plan, build_geometry(plan, seed))
    x, weights = exp.initial, plan.weights
    report = {"dirichlet": energies.dirichlet_energy(graphs.normalized_laplacian(exp.graph), x)}
    if exp.system.is_tight:
        per_band, total = energies.framelet_dirichlet_energies(exp.system, x)
        report["band_dirichlet"] = {f"{b[0]},{b[1]}": v for b, v in per_band.items()}
        report["band_dirichlet_sum"] = total
    report["total_framelet"] = energies.total_framelet_energy(
        exp.system, x, weights, initial=x if weights.has_source else None
    )
    if plan.config["weights"]["mode"] == "shared":  # every band holds the one (omega, w) pair
        band, ahat = exp.system.low_pass, graphs.normalized_adjacency(exp.graph)
        report["generalized"] = energies.generalized_energy(
            ahat, x, weights.omega[band], weights.w[band]
        )
    if weights.epsilon != 0.0 and exp.system.is_tight:
        report["perturbed"] = energies.perturbed_energy(exp.system, x, weights.epsilon)
    if weights.theta is not None:
        report["spectral"] = energies.spectral_energy(exp.system, x, weights)
    if weights.has_source:
        report["source_term"] = energies.source_energy_term(exp.system, x, x, weights)
    return report


def classify_trace_csv(cfg: dict, trace_path, seed: Optional[int] = None) -> dict:
    """Re-apply the plateau + limit-value rules to an existing trace CSV.

    The final state is not stored in a CSV, so the eigenspace-residual half
    of the high-frequency test cannot be re-checked here.  Of the geometry
    only the eigenvalues (for rho_L) are computed, with no eigenbasis.
    """
    plan = validate_config(cfg)
    rho_l = float(spectral.eigvalsh(graphs.normalized_laplacian(_build_graph(cfg, seed)))[-1])
    table, lines = read_numbers(trace_path, "trace", TRACE_HEADER)
    k = int(np.argmax(table[:, 0] != np.arange(len(table))))  # the first wrong step, or 0
    if table[k, 0] != k:
        raise FileParseError(f"{trace_path}:{lines[k]}: row {k + 1} is not step {k}")
    plateaued = plan.stop.plateau_step([table[:, 2]]) is not None
    limit = float(table[-1, 2])
    dominance, _ = analysis.limit_dominance(plateaued, limit, rho_l, plan.tol)
    return {
        "dominance": dominance,
        "limit_value": limit,
        "target_low": 0.0,
        "target_high": rho_l / 2.0,
        "residual_checked": False,
        "rows": len(table),
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
    commands["sweep"].add_argument("--jobs", type=int, default=1, choices=(1,),
                                   help="1, the only value: a sweep runs serially")
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
            rows = sweep_config(cfg, args.parameter, grid, out_dir, args.seed)
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
