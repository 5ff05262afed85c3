import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import frameflow as ff
from frameflow import cli
from frameflow.errors import ConfigError, FrameflowError


def c6_config(lambda_w=10.0, scales=1, steps=20000, **extra):
    cfg = {
        "graph": {"kind": "cycle", "n": 6, "self_loops": False},
        "framelet": {"scales": scales, "variant": "tight"},
        "scheme": {"kind": "spatial_framelet"},
        "weights": {"mode": "scalar", "lambda_w": lambda_w},
        "init": {"mode": "random_normal", "seed": 5, "channels": 2},
        "run": {"steps": steps, "tol": 1e-6, "plateau_window": 10, "renormalize": True},
        "output": {"csv": "trace.csv", "summary": "summary.json"},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def write_signal_matrix(path, mat) -> None:
    """Write the comma-separated rows ``cli.read_signal_matrix`` reads."""
    rows = np.atleast_2d(np.asarray(mat, dtype=float)).tolist()
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows), encoding="utf-8")


def test_run_high_frequency_regime(tmp_path):
    summary = cli.run_config(c6_config(lambda_w=10.0), tmp_path)
    assert summary["verdict"]["dominance"] == "HFD"
    assert abs(summary["verdict"]["limit_value"] - 1.0) <= 1e-3
    assert summary["rho_l"] == pytest.approx(2.0, abs=1e-9)
    assert (tmp_path / "trace.csv").exists() and (tmp_path / "summary.json").exists()


def test_run_low_frequency_regime(tmp_path):
    summary = cli.run_config(c6_config(lambda_w=0.5), tmp_path)
    assert summary["verdict"]["dominance"] == "LFD"
    assert summary["verdict"]["limit_value"] <= 1e-6


def test_run_byte_identical(tmp_path):
    cfg = c6_config(lambda_w=2.0)
    a, b = tmp_path / "a", tmp_path / "b"
    cli.run_config(cfg, a)
    cli.run_config(cfg, b)
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_seed_override_changes_trace(tmp_path):
    cfg = c6_config(lambda_w=2.0)
    a, b = tmp_path / "a", tmp_path / "b"
    cli.run_config(cfg, a, seed=None)
    cli.run_config(cfg, b, seed=123)
    assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()


def test_trace_csv_format(tmp_path):
    cli.run_config(c6_config(lambda_w=0.5, steps=50), tmp_path)
    text = (tmp_path / "trace.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "step,norm,dirichlet_normalized,total_energy,rayleigh"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) >= 0.0
    assert "\r" not in text


def test_zero_steps_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.run_config(c6_config(steps=0), tmp_path)


def test_unknown_keys_rejected(tmp_path):
    cfg = c6_config()
    cfg["grpah"] = {"kind": "cycle"}
    with pytest.raises(ConfigError):
        cli.validate_config(cfg)
    cfg = c6_config()
    cfg["weights"]["lamda_w"] = 3.0
    with pytest.raises(ConfigError):
        cli.validate_config(cfg)


def test_main_exit_codes(tmp_path):
    path = write_config(tmp_path, c6_config(steps=0))
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_CODES[ConfigError]
    ok = write_config(tmp_path, c6_config(lambda_w=0.5, steps=2000), name="ok.json")
    assert cli.main(["run", "--config", str(ok), "--out", str(tmp_path)]) == 0


def test_sweep_scalar_weight_grid(tmp_path):
    cfg = c6_config()
    rows = cli.sweep_config(cfg, "lambda_w", [0.25, 0.5, 1.0, 2.0, 10.0], tmp_path)
    classes = [(r["predicted"], r["measured"]) for r in rows]
    assert classes[0] == ("LFD", "LFD")
    assert classes[1] == ("LFD", "LFD")
    assert classes[2][0] == "MIXED"
    assert classes[3] == ("HFD", "HFD")
    assert classes[4] == ("HFD", "HFD")
    text = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert text[0] == "value,predicted_class,measured_class,limit_value,steps_to_plateau"
    assert [ln.split(",")[0] for ln in text[1:]] == ["0.25", "0.5", "1.0", "2.0", "10.0"]


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = c6_config()
    a, b = tmp_path / "serial", tmp_path / "parallel"
    cli.sweep_config(cfg, "lambda_w", [0.5, 2.0, 10.0], a, jobs=1)
    cli.sweep_config(cfg, "lambda_w", [0.5, 2.0, 10.0], b, jobs=3)
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_unit_weight_on_non_bipartite_graph(tmp_path):
    cfg = c6_config()
    cfg["graph"] = {"kind": "cycle", "n": 5, "self_loops": False}
    rows = cli.sweep_config(cfg, "lambda_w", [1.0], tmp_path)
    assert rows[0]["predicted"] == "LFD" and rows[0]["measured"] == "LFD"


def test_sweep_empty_grid_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.sweep_config(c6_config(), "lambda_w", [], tmp_path)


def test_sweep_inapplicable_parameter_rejected(tmp_path, monkeypatch):
    """A sweep of a key its scheme does not read exits 2 before the eigensolver."""
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    for parameter, cfg in (("theta", c6_config()),
                           ("tau", c6_config(scheme={"kind": "ee_ufg"}, epsilon=0.2)),
                           ("epsilon", c6_config(scheme={"kind": "gradf_ufg"}, tau=0.05))):
        out = tmp_path / parameter
        with pytest.raises(ConfigError, match=f"{parameter} sweeps need scheme.kind in"):
            cli.sweep_config(cfg, parameter, [1.0], out)
        argv = ["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                "--parameter", parameter, "--grid", "1.0"]
        assert cli.main(argv) == 2
        assert not out.exists()


def test_sweep_spectral_theta_grid(tmp_path):
    cfg = c6_config()
    cfg["scheme"] = {"kind": "spectral_framelet"}
    cfg["weights"] = {"mode": "shared", "omega": [[1.0, 0.0], [0.0, 1.0]], "w": [[1.0, 0.0], [0.0, 1.0]]}
    cfg["theta"] = 1.0
    rows = cli.sweep_config(cfg, "theta", [0.0, 0.5, 1.0, 2.0, 4.0], tmp_path)
    measured = [r["measured"] for r in rows]
    predicted = [r["predicted"] for r in rows]
    assert predicted[0] == predicted[1] == "LFD" and measured[0] == measured[1] == "LFD"
    assert predicted[2] == "MIXED" and rows[2]["margin"] <= 1e-9
    assert predicted[3] == predicted[4] == "HFD" and measured[3] == measured[4] == "HFD"


def test_gen_writes_edge_list(tmp_path):
    path = write_config(tmp_path, c6_config())
    assert cli.main(["gen", "--config", str(path), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "graph.edges").read_text(encoding="utf-8")
    parsed = ff.parse_edge_list(text)
    assert parsed.n == 6 and len(parsed.plain_edges()) == 6


def test_graph_from_file_config(tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_text("n=4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    cfg = c6_config(lambda_w=0.5, steps=5000)
    cfg["graph"] = {"kind": "file", "path": str(edges), "self_loops": False}
    summary = cli.run_config(cfg, tmp_path)
    assert summary["rho_l"] == pytest.approx(2.0, abs=1e-9)


def test_init_from_signal_file(tmp_path):
    mat = np.arange(12, dtype=float).reshape(6, 2) + 1.0
    sig = tmp_path / "h.csv"
    write_signal_matrix(sig, mat)
    cfg = c6_config(lambda_w=0.5, steps=4000)
    cfg["init"] = {"mode": "file", "path": str(sig)}
    summary = cli.run_config(cfg, tmp_path)
    assert summary["verdict"]["dominance"] == "LFD"
    back = cli.read_signal_matrix(sig, 6)
    np.testing.assert_allclose(back, mat)


def test_init_from_eigenvector(tmp_path):
    cfg = c6_config(lambda_w=10.0, steps=500)
    cfg["init"] = {"mode": "eigenvector", "index": 5}
    summary = cli.run_config(cfg, tmp_path)
    assert summary["verdict"]["dominance"] == "HFD"
    assert summary["verdict"]["limit_value"] == pytest.approx(1.0, abs=1e-9)
    # lambda = 0.5 is a double eigenvalue of C6: no canonical eigenvector
    cfg["init"] = {"mode": "eigenvector", "index": 1}
    with pytest.raises(ConfigError, match="multiplicity 2"):
        cli.run_config(cfg, tmp_path / "double")
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "double")]) == 2
    assert not (tmp_path / "double").exists()


def test_energy_report(tmp_path):
    cfg = c6_config()
    cfg["weights"] = {"mode": "shared", "omega": [[1.0, 0.0], [0.0, 1.0]], "w": [[1.0, 0.0], [0.0, 1.0]]}
    cfg["epsilon"] = 0.5
    report = cli.energy_report(cfg)
    assert report["generalized"] == pytest.approx(report["dirichlet"], abs=1e-9)
    assert report["band_dirichlet_sum"] == pytest.approx(report["dirichlet"], abs=1e-8)
    assert report["total_framelet"] == pytest.approx(report["dirichlet"], abs=1e-8)
    assert report["perturbed"] >= report["dirichlet"]


def test_classify_existing_trace(tmp_path):
    cfg = c6_config(lambda_w=10.0)
    cli.run_config(cfg, tmp_path)
    verdict = cli.classify_trace_csv(cfg, tmp_path / "trace.csv")
    assert verdict["dominance"] == "HFD"
    assert verdict["residual_checked"] is False


def test_classify_command_via_main(tmp_path):
    cfg_path = write_config(tmp_path, c6_config(lambda_w=0.5))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    code = cli.main(
        ["classify", "--config", str(cfg_path), "--trace", str(tmp_path / "trace.csv")]
    )
    assert code == 0


def test_summary_includes_paper_check_and_echo(tmp_path):
    cfg = c6_config(lambda_w=10.0)
    summary = cli.run_config(cfg, tmp_path)
    assert "paper_check" in summary
    assert summary["config"]["weights"]["lambda_w"] == 10.0
    on_disk = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert on_disk["verdict"]["dominance"] == summary["verdict"]["dominance"]


def _refuse(*args, **kwargs):
    raise AssertionError("this stage must not run")


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_builds_geometry_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, ff.spectral, "eigh")
    cli.sweep_config(c6_config(), "lambda_w", [0.5, 1.0, 2.0, 10.0], tmp_path)
    assert len(calls) == 1


def _with_value(cfg: dict, parameter: str, value: float) -> dict:
    """A copy of ``cfg`` with one swept value, for a single run."""
    cfg = json.loads(json.dumps(cfg))
    if parameter == "lambda_w":
        cfg["weights"]["lambda_w"] = value
    else:
        cfg[parameter] = value
    return cfg


# the benchmark's lambda_w sweep: a 48-node SBM whose HFD threshold lies near 12
SBM_SWEEP = {
    "graph": {"kind": "sbm", "sizes": [24, 24], "p_in": 0.4, "p_out": 0.06, "seed": 31},
    "framelet": {"scales": 2, "variant": "tight"},
    "scheme": {"kind": "spatial_framelet"},
    "weights": {"mode": "scalar", "lambda_w": 1.0},
    "init": {"mode": "random_normal", "seed": 32, "channels": 4},
    "run": {"steps": 2000, "tol": 1e-6, "plateau_window": 10, "renormalize": True},
    "tau": 1.0,
}

# gradf_ufg on K_{7,12} at lambda_w = 150: its HFD at tau = 0.2 is Euler overshoot
K7_12_GRADF = c6_config(
    lambda_w=150.0, scales=2, scheme={"kind": "gradf_ufg"},
    graph={"kind": "complete_bipartite", "m": 7, "n": 12, "self_loops": False},
    init={"mode": "random_normal", "seed": 5, "channels": 4},
)


@pytest.mark.parametrize(
    "cfg,parameter,grid",
    [
        (c6_config(), "lambda_w", [0.5, 1.0, 2.0, 10.0]),
        (c6_config(scheme={"kind": "gradf_ufg"}, tau=0.05), "lambda_w", [0.5, -60.0, 150.0]),
        (c6_config(scheme={"kind": "activated"}, tau=0.2), "lambda_w", [0.5, -60.0, 150.0]),
        (c6_config(scheme={"kind": "ee_ufg"}, epsilon=0.2), "epsilon", [0.05, 0.2, 1.0]),
        (c6_config(lambda_w=1.0, scheme={"kind": "spectral_framelet"}, theta=1.0), "theta",
         [0.5, 1.0, 3.0]),
        (c6_config(scales=2, scheme={"kind": "perturbed_closed_form"}, tau=0.05, epsilon=0.5),
         "epsilon", [0.1, 1.0]),
        (SBM_SWEEP, "lambda_w", [0.5, 2.0, 8.0, 64.0]),
        (K7_12_GRADF, "tau", [0.2, 0.05, 0.01]),
    ],
    ids=["spatial", "gradf", "activated", "ee", "spectral", "closed-form", "sbm48", "tau-k7-12"],
)
def test_sweep_rows_match_single_runs(tmp_path, cfg, parameter, grid):
    """Every point of a sweep over one shared geometry is the run of its own
    config, and the sweep leaves the config it was given as it was."""
    before = json.dumps(cfg)
    rows = cli.sweep_config(cfg, parameter, grid, tmp_path / "sweep")
    assert json.dumps(cfg) == before
    for value, row in zip(grid, rows):
        summary = cli.run_config(_with_value(cfg, parameter, value), tmp_path / repr(value))
        verdict, final = summary["verdict"], summary["final"]
        assert (row["predicted"], row["measured"]) == (verdict["predicted"], verdict["dominance"])
        assert row["limit_value"] == verdict["limit_value"]
        steps = -1 if final["steps_to_plateau"] is None else final["steps_to_plateau"]
        assert row["steps_to_plateau"] == steps
    if cfg is SBM_SWEEP:
        assert [row["measured"] for row in rows] == ["LFD", "LFD", "LFD", "HFD"]
    if cfg is K7_12_GRADF:  # the overshoot goes as tau shrinks
        assert [(row["measured"], row["steps_to_plateau"]) for row in rows] == [
            ("HFD", 32), ("LFD", 203), ("LFD", 916)]


@pytest.mark.parametrize(
    "cfg,parameter,grid",
    [(SBM_SWEEP, "lambda_w", [0.5, 2.0, 8.0, 64.0]),
     (c6_config(lambda_w=1.0, scheme={"kind": "spectral_framelet"}, theta=1.0), "theta",
      [0.5, 1.0, 3.0])],
    ids=["lambda_w", "spectral-theta"],
)
def test_a_sweep_builds_one_weight_config_per_point(tmp_path, monkeypatch, cfg, parameter, grid):
    """validate_config builds the config's weights; then each point builds its
    own once, which checks its value and its flow before any work and is what
    its run uses.  Spectral filtering checks theta's length against the graph
    on those same weights.  A run builds its weights once."""
    calls = _count_calls(monkeypatch, ff.energies.WeightConfig, "__post_init__")
    cli.sweep_config(cfg, parameter, grid, tmp_path / "sweep")
    assert len(calls) == len(grid) + 1
    calls.clear()
    cli.run_config(cfg, tmp_path / "run")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "lambda_w,steps,expected",
    [(0.5, 20000, "LFD"), (10.0, 20000, "HFD"), (1.0, 20000, "MIXED"), (10.0, 5, "UNDECIDED")],
)
def test_classify_trace_matches_run_without_framelet_bank(
    tmp_path, monkeypatch, lambda_w, steps, expected
):
    """classify reads rho_L off the eigenvalues alone: no framelet bank and no
    eigenbasis, and the verdict and targets of the run."""
    cfg = c6_config(lambda_w=lambda_w, steps=steps)
    summary = cli.run_config(cfg, tmp_path)
    assert summary["verdict"]["dominance"] == expected
    monkeypatch.setattr(ff.framelets, "build_framelet_system", _refuse)
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    verdict = cli.classify_trace_csv(cfg, tmp_path / "trace.csv")
    assert verdict["dominance"] == expected
    assert verdict["plateaued"] == summary["final"]["plateaued"]
    assert verdict["limit_value"] == summary["verdict"]["limit_value"]
    target = summary["rho_l"] / 2.0
    assert abs(verdict["target_high"] - target) <= 1e-12 * target


@pytest.mark.parametrize("scheme", ["gradf_ufg", "activated"])
def test_descent_prediction_uses_step_multiplier(tmp_path, scheme):
    # one descent step multiplies frequency lam by 1 - tau (1 - g(lam)); the
    # convolution gain |g| alone would pick the top frequency at lambda_w = 32
    cfg = {
        "graph": {"kind": "erdos_renyi", "n": 50, "p": 0.2, "seed": 1},
        "framelet": {"scales": 2, "variant": "tight"},
        "scheme": {"kind": scheme},
        "weights": {"mode": "scalar", "lambda_w": 32.0},
        "tau": 0.01,
        "init": {"mode": "random_normal", "seed": 8, "channels": 8},
        "run": {"steps": 5000, "tol": 1e-6, "plateau_window": 10, "renormalize": True},
    }
    summary = cli.run_config(cfg, tmp_path)
    assert summary["final"]["steps_to_plateau"] == 1902
    assert summary["verdict"]["dominance"] == "LFD"
    assert summary["verdict"]["predicted"] == "LFD"
    assert summary["verdict"]["dominant_lambda"] <= 1e-9


def _spectral_config(weights):
    cfg = c6_config(theta=2.0)
    cfg["scheme"] = {"kind": "spectral_framelet"}
    cfg["weights"] = weights
    return cfg


@pytest.mark.parametrize(
    "weights",
    [
        {"mode": "scalar", "lambda_w": 2.0},
        {"mode": "full", "omega": {"0,1": [[1.0]], "1,1": [[1.0]]},
         "w": {"0,1": [[1.0]], "1,1": [[2.0]]}},
    ],
)
def test_unequal_spectral_weights_rejected_before_eigensolve(tmp_path, monkeypatch, weights):
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    path = write_config(tmp_path, _spectral_config(weights))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("init,size", [
    ({"mode": "random_normal", "seed": 5, "channels": 2}, 3),
    ({"mode": "eigenvector", "index": 1}, 2),
    ({"mode": "file", "path": "signal.csv"}, 3),
], ids=["random_normal", "eigenvector", "file"])
@pytest.mark.parametrize("mode", ["shared", "full"])
@pytest.mark.parametrize("command", ["run", "sweep", "energy"])
def test_a_weight_size_mismatch_exits_eight_before_any_eigensolve(tmp_path, monkeypatch, init,
                                                                   size, mode, command):
    """c x c weights against a signal of another channel count (two channels,
    or one eigenvector): the config's count is checked before the graph, a
    file's after reading it; either way no eigh call runs and nothing is written."""
    calls = _count_calls(monkeypatch, ff.spectral, "eigh")
    if init["mode"] == "file":
        write_signal_matrix(tmp_path / "signal.csv", np.ones((6, 2)))
        init = dict(init, path=str(tmp_path / "signal.csv"))
    eye = np.eye(size).tolist()
    weights = {"mode": "shared", "omega": eye, "w": eye}
    if mode == "full":
        weights = {"mode": "full", "omega": {"0,1": eye, "1,1": eye}, "w": {"0,1": eye, "1,1": eye}}
    path = write_config(tmp_path, c6_config(weights=weights, init=init))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "sweep":
        argv += ["--parameter", "tau", "--grid", "0.5,1.0"]
    assert cli.main(argv) == 8
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("beta,code,eigh_calls", [(0.5, 8, 0), (0.0, 0, 1)])
def test_source_mixers_of_the_wrong_size_exit_eight_only_if_the_source_is_on(
        tmp_path, monkeypatch, beta, code, eigh_calls):
    """3 x 3 w_tilde against two channels: with beta != 0 the source reads
    them and the run exits 8 before eigh; with beta = 0 nothing reads them."""
    calls = _count_calls(monkeypatch, ff.spectral, "eigh")
    e2, e3 = np.eye(2).tolist(), np.eye(3).tolist()
    weights = {"mode": "full", "omega": {"0,1": e2, "1,1": e2}, "w": {"0,1": e2, "1,1": e2},
               "w_tilde": {"0,1": e3, "1,1": e3}}
    cfg = c6_config(weights=weights, scheme={"kind": "gradf_ufg"}, beta=beta, steps=50)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    assert len(calls) == eigh_calls


# the weights each scheme's flow reads, w_tilde only with the source on
SCHEME_READS = {"spatial_framelet": "w", "gradf_ufg": "omega w w_tilde", "ee_ufg": "w",
                "spectral_framelet": "w", "activated": "omega w w_tilde",
                "perturbed_closed_form": ""}


@pytest.mark.parametrize("target", ["omega", "w", "w_tilde"])
@pytest.mark.parametrize("kind", sorted(SCHEME_READS))
def test_only_the_weights_a_scheme_reads_must_fit_the_signal(tmp_path, monkeypatch, kind, target):
    """One 3 x 3 weight (w_tilde with the source on) against two channels: a
    run whose scheme reads it exits 8 before eigh, one whose scheme never
    reads it runs to exit 0; ``energy`` reads every weight and exits 8 before eigh."""
    calls = _count_calls(monkeypatch, ff.spectral, "eigh")
    e2, e3 = np.eye(2).tolist(), np.eye(3).tolist()
    bands = ["0,2", "1,1", "1,2"]
    weights = {"mode": "full", "omega": dict.fromkeys(bands, e3 if target == "omega" else e2),
               "w": dict.fromkeys(bands, e3 if target == "w" else e2)}
    if target == "w_tilde":
        weights["w_tilde"] = dict.fromkeys(bands, e3)
    cfg = c6_config(scales=2, steps=50, weights=weights, scheme={"kind": kind}, epsilon=0.1,
                    beta=0.5, theta={"low": 1.0, "high": 1.0})
    path = write_config(tmp_path, cfg)
    read = target in SCHEME_READS[kind].split()
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == (8 if read else 0)
    assert len(calls) == (0 if read else 1)
    calls.clear()
    assert cli.main(["energy", "--config", str(path), "--out", str(tmp_path / "energy")]) == 8
    assert calls == [] and not (tmp_path / "energy").exists()


def test_unrenormalized_run_fails_before_eigensolve(tmp_path, monkeypatch):
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    cfg = c6_config()
    cfg["run"]["renormalize"] = False
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 15
    assert cli.main(
        ["sweep", "--config", str(path), "--out", str(out), "--parameter", "lambda_w",
         "--grid", "0.5,2.0"]
    ) == 15
    assert not out.exists()
    with pytest.raises(ff.errors.TraceNotNormalizedError):  # run_flows checks every flow itself
        cli.run_flows([c6_config(), cfg], [cli.validate_config(c) for c in (c6_config(), cfg)])


@pytest.mark.parametrize(
    "scheme,extra",
    [
        ({"kind": "spatial_framelet"}, {}),
        ({"kind": "gradf_ufg"}, {"tau": 0.05}),
        ({"kind": "activated", "activation": "relu"}, {"tau": 0.05}),
        ({"kind": "ee_ufg", "activation": "relu"}, {"epsilon": 0.2}),
        ({"kind": "spectral_framelet"}, {"theta": 2.0}),
        ({"kind": "perturbed_closed_form"}, {"epsilon": 0.5, "tau": 0.05}),
    ],
)
def test_run_and_sweep_never_build_dense_transforms(tmp_path, monkeypatch, scheme, extra):
    monkeypatch.setattr(ff.FrameletSystem, "transforms", property(_refuse))
    cfg = c6_config(lambda_w=1.0 if scheme["kind"] == "spectral_framelet" else 2.0,
                    scales=2, steps=200, **extra)
    cfg["scheme"] = scheme
    cli.run_config(cfg, tmp_path / "run")
    assert (tmp_path / "run" / "trace.csv").exists()
    if scheme["kind"] == "spatial_framelet":
        cli.sweep_config(cfg, "lambda_w", [0.5, 10.0], tmp_path / "sweep")
        assert (tmp_path / "sweep" / "sweep.csv").exists()


RAGGED_SHARED = {"mode": "shared", "omega": [[1.0, 0.0], [0.0, 1.0]], "w": [[1.0, 0.0], [0.0]]}


@pytest.mark.parametrize(
    "block,key,value",
    [
        ("weights", "lambda_w", float("nan")),  # written as the NaN token
        ("weights", "lambda_w", float("inf")),  # written as Infinity
        (None, "tau", "1e999"),  # written as a literal that parses to inf
        (None, "tau", 10**400),  # an integer literal too large for a float
        ("weights", "lambda_w", "x"),
        ("graph", "n", "6"),
        ("graph", "self_loops", 1),
        ("run", "steps", 2.7),
        ("run", "steps", True),
        ("run", "renormalize", "no"),
        ("init", "channels", True),
        (None, "weights", RAGGED_SHARED),
    ],
)
def test_bad_config_values_exit_two_before_any_work(tmp_path, monkeypatch, block, key, value):
    monkeypatch.setattr(ff.graphs, "generate_graph", _refuse)
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    cfg = c6_config()
    (cfg if block is None else cfg[block])[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"1e999"', "1e999"), encoding="utf-8")
    out = tmp_path / "out"
    for command in (["run"], ["sweep", "--parameter", "lambda_w", "--grid", "0.5,2.0"]):
        assert cli.main([*command, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_run_byte_identical_across_processes_at_n600(tmp_path):
    """LAPACK and BLAS results depend on the thread count, so byte identity
    is promised per thread setting: two fresh processes with the same one."""
    cfg = {
        "graph": {"kind": "erdos_renyi", "n": 600, "p": 0.02, "seed": 3},
        "framelet": {"scales": 2},
        "weights": {"mode": "scalar", "lambda_w": 2.0},
        "init": {"mode": "random_normal", "seed": 5, "channels": 4},
        "run": {"steps": 200},
    }
    config = write_config(tmp_path, cfg)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        done = subprocess.run(
            [sys.executable, "-m", "frameflow.cli", "run", "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
    for name in ("trace.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert len((outs[0] / "trace.csv").read_text().splitlines()) > 2


@pytest.mark.parametrize(
    "block,key,value,code",
    [
        ("init", "channels", 0, 2),
        ("run", "steps", 0, 2),
        ("run", "plateau_window", 0, 2),
        ("framelet", "scales", 3, 9),
        (None, "theta", -0.5, 9),
        (None, "theta", {"low": 1.0, "high": -2.0}, 9),
        (None, "theta", {"bands": {"0,1": [1.0] * 6, "1,1": [1.0] * 5 + [-1.0]}}, 9),
    ],
)
def test_out_of_range_config_values_exit_before_any_work(
    tmp_path, monkeypatch, block, key, value, code
):
    monkeypatch.setattr(ff.graphs, "generate_graph", _refuse)
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    cfg = c6_config()
    (cfg if block is None else cfg[block])[key] = value
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for command in (["run"], ["sweep", "--parameter", "lambda_w", "--grid", "0.5,2.0"]):
        assert cli.main([*command, "--config", str(path), "--out", str(out)]) == code
    assert not out.exists()


FULL_MISSING_BAND = {"mode": "full", "omega": {"0,1": [[1.0]]}, "w": {"0,1": [[1.0]], "1,1": [[2.0]]}}
EYE2, ASYMMETRIC = [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]
SPECTRAL = {"scheme": {"kind": "spectral_framelet"}, "weights": {"mode": "scalar", "lambda_w": 1.0}}


@pytest.mark.parametrize(
    "block,key,value,code",
    [
        ("scheme", "kind", "bogus", 2),
        ("scheme", "activation", "bogus", 2),
        ("scheme", "activation", "relu", 2),  # the spatial scheme is linear
        ("framelet", "variant", "bogus", 9),
        (None, "init", {"mode": "eigenvector", "index": 99}, 2),
        (None, "weights", FULL_MISSING_BAND, 2),
        (None, "tau", -1, 9),
        ("scheme", "kind", "perturbed_closed_form", 2),  # at J = 1
        # several blocks at once (key None): the closed form on a bank that is not tight
        (None, None, {"scheme": {"kind": "perturbed_closed_form"}, "epsilon": 0.5,
                      "framelet": {"scales": 2, "variant": "paper_literal"}}, 10),
        (None, None, dict(SPECTRAL, theta={"bands": {"0,1": [1.0] * 6}}), 11),
        (None, None, dict(SPECTRAL, theta={"bands": {"0,1": [1.0] * 5, "1,1": [2.0] * 5}}), 8),
        (None, "weights", {"mode": "shared", "omega": EYE2, "w": ASYMMETRIC}, 6),
        (None, "weights", {"mode": "full", "omega": {"0,1": EYE2, "1,1": EYE2},
                           "w": {"0,1": EYE2, "1,1": ASYMMETRIC}}, 6),
        (None, "init", {"mode": "file", "path": "no/such/signal.csv"}, 5),
    ],
)
def test_choice_config_values_exit_before_the_eigensolve(
    tmp_path, monkeypatch, block, key, value, code
):
    """Only the eigenvector index, the signal file and per-vertex theta
    lengths (exit 8) need the graph (for its node count)."""
    if key != "init" and code != 8:
        monkeypatch.setattr(ff.graphs, "generate_graph", _refuse)
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    cfg = c6_config()
    if key is None:
        cfg.update(value)
    else:
        (cfg if block is None else cfg[block])[key] = value
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    # spectral filtering rejects unequal band weights before it sees the graph
    grid = "1.0" if cfg["scheme"]["kind"] == "spectral_framelet" else "0.5,2.0"
    for command in (["run"], ["sweep", "--parameter", "lambda_w", "--grid", grid]):
        assert cli.main([*command, "--config", str(path), "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("output", [{"csv": "x.out", "summary": "x.out"}, {"csv": "summary.json"}])
def test_output_names_that_collide_exit_two_before_any_work(tmp_path, monkeypatch, output):
    monkeypatch.setattr(ff.graphs, "generate_graph", _refuse)
    path = write_config(tmp_path, c6_config(output=output))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_identity_multiple_weights_still_check_the_channel_count(tmp_path):
    two_eye = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]
    cfg = c6_config(weights={"mode": "shared", "omega": two_eye, "w": two_eye})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 8
    assert not out.exists()


def test_out_of_memory_exits_nine_without_a_traceback(tmp_path, monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 477. GiB for an array with shape (6, 10000000000)")

    monkeypatch.setattr(cli, "_build_init", too_large)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path, c6_config())),
                     "--out", str(out)]) == 9
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not out.exists()


def _per_value_trace_csv(trace) -> str:
    """The trace CSV as it was written value by value, kept as the reference."""
    lines = ["step,norm,dirichlet_normalized,total_energy,rayleigh"]
    for i in range(trace.steps.shape[0]):
        lines.append(
            f"{int(trace.steps[i])},{repr(float(trace.norms[i]))},"
            f"{repr(float(trace.dirichlet_normalized[i]))},{repr(float(trace.total_energy[i]))},"
            f"{repr(float(trace.rayleigh[i]))}"
        )
    return "\n".join(lines) + "\n"


def test_trace_writer_matches_per_value_formatting(tmp_path):
    values = np.array([0.0, -0.0, 1e-300, 1e300, 3.0, -2.0, 1e16, 2.0**53, 0.1, 5e-324, np.pi])
    rng = np.random.default_rng(7)
    trace = ff.FlowTrace(
        scheme=ff.Scheme("spatial_framelet"),
        steps=np.arange(values.size, dtype=np.int64),
        norms=values,
        dirichlet_normalized=values[::-1].copy(),
        total_energy=rng.standard_normal(values.size) * values,
        rayleigh=np.concatenate([values[3:], values[:3]]),
        final_coefficients=np.zeros((2, 1)),
        basis=np.eye(2),
        renormalized=False,
        plateaued=False,
        steps_to_plateau=None,
    )
    cli.write_trace_csv(tmp_path / "trace.csv", trace)
    assert (tmp_path / "trace.csv").read_bytes() == _per_value_trace_csv(trace).encode("utf-8")
    summary = cli.run_config(c6_config(lambda_w=2.0, steps=300), tmp_path / "run")
    assert summary["final"]["steps_run"] > 64
    cfg = c6_config(lambda_w=2.0, steps=300)
    [(_, flow, _, _)] = cli.run_flows([cfg], [cli.validate_config(cfg)])
    assert (tmp_path / "run" / "trace.csv").read_text(encoding="utf-8") == _per_value_trace_csv(flow)


def _spectral_theta_config(theta, n=6, scales=1):
    cfg = c6_config(lambda_w=1.0, scales=scales, steps=3000, theta=theta)
    cfg["graph"] = {"kind": "cycle", "n": n}
    cfg["scheme"] = {"kind": "spectral_framelet"}
    return cfg


def test_per_vertex_theta_predicts_nothing(tmp_path):
    cfg = _spectral_theta_config({"bands": {"0,1": [1.0] * 6, "1,1": [0.5, 1, 2, 3, 2, 1]}})
    summary = cli.run_config(cfg, tmp_path / "run")
    assert summary["verdict"]["predicted"] is None
    assert summary["verdict"]["dominant_lambda"] is None
    assert '"predicted": null' in (tmp_path / "run" / "summary.json").read_text()
    [row] = cli.sweep_config(cfg, "lambda_w", [1.0], tmp_path / "sweep")
    assert row["predicted"] == "NONE" and row["margin"] is None
    assert (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1].split(",")[1] == "NONE"


@pytest.mark.parametrize(
    "weights,expected",
    [
        ({"mode": "shared", "omega": [[1.0, 0.0], [0.0, 1.0]], "w": [[1.0, 0.5], [0.5, 1.0]]},
         "LFD"),
        ({"mode": "full", "omega": {"0,1": [[1.0, 0.0], [0.0, 1.0]], "1,1": [[1.0, 0.0], [0.0, 1.0]]},
          "w": {"0,1": [[1.0, 0.5], [0.5, 1.0]], "1,1": [[60.0, 2.0], [2.0, -5.0]]}}, "HFD"),
    ],
)
def test_weight_matrices_and_constant_band_thetas_are_predicted(tmp_path, weights, expected):
    cfg = c6_config(lambda_w=1.0)
    cfg["graph"] = {"kind": "erdos_renyi", "n": 20, "p": 0.3, "seed": 2}
    cfg["weights"] = weights
    summary = cli.run_config(cfg, tmp_path / "weights")
    assert summary["verdict"]["predicted"] == summary["verdict"]["dominance"] == expected
    cfg = _spectral_theta_config({"bands": {"0,1": [1.0] * 6, "1,1": [4.0] * 6}})
    summary = cli.run_config(cfg, tmp_path / "theta")
    assert summary["verdict"]["predicted"] == summary["verdict"]["dominance"] == "HFD"


@pytest.mark.parametrize(
    "cfg",
    [c6_config(lambda_w=1.0), c6_config(lambda_w=1.0, scales=2),
     _spectral_theta_config(1.0, n=51, scales=2)],
    ids=["c6_unit_weight_J1", "c6_unit_weight_J2", "c51_flat_theta_J2"],
)
def test_tie_reports_its_lowest_frequency(tmp_path, cfg):
    summary = cli.run_config(cfg, tmp_path)
    geometry = cli.build_geometry(cfg, cli.validate_config(cfg))
    lowest = max(0.0, float(geometry.spectrum.eigenvalues[0]))
    assert summary["verdict"]["predicted"] == "MIXED"
    assert summary["verdict"]["dominant_lambda"] == lowest


EYE2 = [[1.0, 0.0], [0.0, 1.0]]


def _full_weights(w_high=1.0, w_tilde=None):
    """One-channel `full` weights on the J = 1 bands, optionally with source mixers."""
    weights = {"mode": "full", "omega": {"0,1": [[1.0]], "1,1": [[1.0]]},
               "w": {"0,1": [[1.0]], "1,1": [[w_high]]}}
    if w_tilde is not None:
        weights["w_tilde"] = {"0,1": [[w_tilde]], "1,1": [[w_tilde]]}
    return weights


def test_energy_command_writes_every_applicable_energy(tmp_path, capsys):
    cfg = c6_config(theta=2.0, beta=0.5, epsilon=0.25)
    cfg["weights"] = _full_weights(w_tilde=0.5)
    cfg["init"]["channels"] = 1
    path = write_config(tmp_path, cfg)
    assert cli.main(["energy", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "energies.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert {"dirichlet", "band_dirichlet", "band_dirichlet_sum", "total_framelet", "perturbed",
            "spectral", "source_term"} <= set(report)
    assert "generalized" not in report  # only shared weights have one (Omega, W) pair
    assert report == cli.energy_report(cfg)
    assert json.loads(capsys.readouterr().out) == report


def test_energy_report_generalized_energy_reads_the_shared_pair(tmp_path):
    cfg = c6_config()
    cfg["weights"] = {"mode": "shared", "omega": [[2.0, 0.5], [0.5, 1.0]],
                      "w": [[1.0, -0.25], [-0.25, 3.0]]}
    report, weights = cli.energy_report(cfg), cli.validate_config(cfg)
    exp = cli.assemble(cfg, cli.build_geometry(cfg, weights), weights)
    expected = ff.generalized_energy(
        ff.normalized_adjacency(exp.graph), exp.initial, np.array(cfg["weights"]["omega"]),
        np.array(cfg["weights"]["w"]),
    )
    assert report["generalized"] == expected


def test_epsilon_sweep_on_ee_ufg_through_main(tmp_path, capsys):
    cfg = c6_config(lambda_w=1.0, scales=2, steps=3000, epsilon=0.1)
    cfg["scheme"] = {"kind": "ee_ufg"}
    path = write_config(tmp_path, cfg)
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path), "--parameter", "epsilon",
            "--grid", "0.05,0.5,2"]
    assert cli.main(argv) == 0
    lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.05", "0.5", "2.0"]
    for line in lines[1:]:
        _, predicted, measured, _, _ = line.split(",")
        assert predicted == measured
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_sweep_prints_one_line_per_grid_value(tmp_path, capsys):
    path = write_config(tmp_path, c6_config())
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path), "--parameter", "lambda_w",
            "--grid", "0.5, 10"]
    assert cli.main(argv) == 0
    rows = cli.sweep_config(c6_config(), "lambda_w", [0.5, 10.0], tmp_path / "again")
    expected = [f"{r['value']}: predicted={r['predicted']} measured={r['measured']} "
                f"limit={r['limit_value']:.3e}" for r in rows]
    assert capsys.readouterr().out.splitlines() == expected
    assert expected[0].startswith("0.5: predicted=LFD measured=LFD limit=")
    assert expected[1].startswith("10.0: predicted=HFD measured=HFD limit=")


@pytest.mark.parametrize(
    "theta,same_as",
    [
        ({"low": 0.5, "high": 3}, {"bands": {"0,1": [0.5] * 6, "1,1": [3.0] * 6}}),
        (2, 2.0),
        (3, {"low": 1.0, "high": 3.0}),
    ],
    ids=["low_high", "int", "int_as_high"],
)
def test_theta_forms_run_the_same_flow(tmp_path, theta, same_as):
    runs = []
    for name, value in (("a", theta), ("b", same_as)):
        path = write_config(tmp_path, _spectral_theta_config(value), name=f"{name}.json")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        runs.append((tmp_path / name / "trace.csv").read_bytes())
    assert runs[0] == runs[1]
    verdict = json.loads((tmp_path / "a" / "summary.json").read_text())["verdict"]
    assert verdict["dominance"] == "HFD"


def test_lambda_w_sweep_on_shared_weights_exits_two(tmp_path, monkeypatch):
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    cfg = c6_config()
    cfg["weights"] = {"mode": "shared", "omega": EYE2, "w": EYE2}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(path), "--out", str(out), "--parameter", "lambda_w",
            "--grid", "0.5,2"]
    assert cli.main(argv) == 2
    assert not out.exists()


EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "scheme,extra",
    [
        ({"kind": "spatial_framelet"}, {}),  # advanced by powers
        ({"kind": "gradf_ufg"}, {"tau": 0.05}),  # advanced by powers
        ({"kind": "activated", "activation": "relu"}, {"tau": 0.05}),  # stepped
    ],
)
def test_channel_mismatch_exits_eight(tmp_path, scheme, extra):
    cfg = c6_config(steps=200, **extra)
    cfg["scheme"] = scheme
    cfg["weights"] = {"mode": "shared", "omega": EYE3, "w": EYE3}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 8
    assert not out.exists()


@pytest.mark.parametrize(
    "block,key,value",
    [
        ("init", "seed", -1),
        (None, "graph", {"kind": "erdos_renyi", "n": 10, "p": 0.5, "seed": -1}),
        (None, "graph", {"kind": "sbm", "sizes": [5, 5], "p_in": 0.5, "p_out": 0.1, "seed": -1}),
        (None, "graph", {"kind": "cycle", "n": 6, "seed": -3}),
        (None, None, None),  # a valid config with --seed -1
    ],
)
def test_negative_seeds_exit_two_before_any_work(tmp_path, monkeypatch, block, key, value):
    monkeypatch.setattr(ff.graphs, "generate_graph", _refuse)
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    cfg = c6_config()
    seed = []
    if key is None:
        seed = ["--seed", "-1"]
    else:
        (cfg if block is None else cfg[block])[key] = value
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for command in (["run"], ["sweep", "--parameter", "lambda_w", "--grid", "0.5,2.0"],
                    ["gen"], ["energy"]):
        assert cli.main([*command, "--config", str(path), "--out", str(out), *seed]) == 2
    assert not out.exists()


def test_seed_zero_is_accepted(tmp_path):
    cfg = c6_config(steps=50)
    cfg["graph"] = {"kind": "erdos_renyi", "n": 10, "p": 0.5, "seed": 0}
    cfg["init"]["seed"] = 0
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path), "--seed", "0"]) == 0


@pytest.mark.parametrize("kind", ["spatial_framelet", "ee_ufg"])
def test_source_term_leaves_convolution_flows_unchanged(tmp_path, kind):
    """Neither convolution step has a source term, so beta changes nothing."""
    traces = []
    for beta in (0.5, 0.0):
        cfg = c6_config(steps=400, beta=beta, epsilon=0.2)
        cfg["scheme"] = {"kind": kind}
        cfg["weights"] = _full_weights(w_high=2.0, w_tilde=0.5)
        cfg["init"]["channels"] = 1
        path = write_config(tmp_path, cfg, name=f"{beta}.json")
        out = tmp_path / repr(beta)
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_tracer_wraps_names_that_exist():
    """perfbench/tracer.py installs its spans by (module, name); every name
    it wraps must still be an attribute of that frameflow module."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(mod, name) for mod, name in tracer.WRAPPED if not hasattr(getattr(ff, mod), name)]
    assert tracer.WRAPPED and not missing


@pytest.mark.parametrize("key", ["csv", "summary"])
@pytest.mark.parametrize("name", ["", ".", "..", "sub/trace.csv", "/trace.csv"])
def test_output_names_must_be_file_names(tmp_path, monkeypatch, key, name):
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    cfg = c6_config()
    cfg["output"][key] = name
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["gen"], ["run"], ["sweep", "--parameter", "lambda_w", "--grid", "0.5,2.0,8.0,64.0"],
     ["energy"], ["classify"]],
    ids=lambda command: command[0],
)
def test_main_validates_the_config_once(tmp_path, monkeypatch, command):
    """A sweep point only differs from the validated config by its swept value."""
    cfg = c6_config(lambda_w=0.5, steps=300)
    cli.run_config(cfg, tmp_path / "trace")
    path = write_config(tmp_path, cfg)
    calls, validate = [], cli.validate_config
    monkeypatch.setattr(cli, "validate_config", lambda cfg: calls.append(cfg) or validate(cfg))
    extra = (["--trace", str(tmp_path / "trace" / "trace.csv")] if command == ["classify"]
             else ["--out", str(tmp_path / "out")])
    argv = [command[0], "--config", str(path), *command[1:]]
    assert cli.main(argv + extra) == 0
    assert len(calls) == 1


LIBRARY_CALLS = {
    "run_config": lambda cfg, path: cli.run_config(cfg, path),
    "sweep_config": lambda cfg, path: cli.sweep_config(cfg, "lambda_w", [0.5, 2.0], path),
    "energy_report": lambda cfg, path: cli.energy_report(cfg),
    "classify_trace_csv": lambda cfg, path: cli.classify_trace_csv(cfg, path / "trace.csv"),
}


@pytest.mark.parametrize("call", sorted(LIBRARY_CALLS))
@pytest.mark.parametrize("block,key,value", [(None, "grpah", {"kind": "cycle"}),
                                             ("run", "steps", 0), ("theta", None, -1.0)])
def test_library_calls_still_validate_their_config(tmp_path, monkeypatch, call, block, key, value):
    monkeypatch.setattr(ff.graphs, "generate_graph", _refuse)
    cfg = c6_config()
    if block == "theta":
        cfg["theta"] = value
    else:
        (cfg if block is None else cfg[block])[key] = value
    with pytest.raises(ff.FrameflowError) as expected:
        cli.validate_config(cfg)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        LIBRARY_CALLS[call](cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "parameter,value,error",
    [("lambda_w", float("nan"), ConfigError), ("lambda_w", "2", ConfigError),
     ("lambda_w", True, ConfigError), ("theta", -1.0, ff.OutOfRangeError),
     ("theta", float("inf"), ConfigError), ("epsilon", float("-inf"), ConfigError),
     ("tau", -0.1, ff.OutOfRangeError), ("tau", float("nan"), ConfigError)],
)
def test_a_bad_swept_value_is_rejected_before_any_work(tmp_path, monkeypatch, parameter, value,
                                                       error):
    monkeypatch.setattr(ff.graphs, "generate_graph", _refuse)
    scheme = {"theta": "spectral_framelet", "epsilon": "ee_ufg"}.get(parameter, "spatial_framelet")
    cfg = c6_config(lambda_w=1.0, scheme={"kind": scheme}, epsilon=0.2, theta=2.0)
    with pytest.raises(error):
        cli.sweep_config(cfg, parameter, [1.0, value], tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command",
    [["run"], ["sweep", "--parameter", "lambda_w", "--grid", "0.5,2.0,8.0,64.0"], ["energy"]],
    ids=lambda command: command[0],
)
def test_each_command_reads_the_init_file_once(tmp_path, monkeypatch, command):
    sig = tmp_path / "h.csv"
    write_signal_matrix(sig, np.arange(12, dtype=float).reshape(6, 2) + 1.0)
    cfg = c6_config(lambda_w=0.5, steps=300)
    cfg["init"] = {"mode": "file", "path": str(sig)}
    path = write_config(tmp_path, cfg)
    reads, read = [], cli.read_signal_matrix
    monkeypatch.setattr(cli, "read_signal_matrix", lambda *a: reads.append(a) or read(*a))
    argv = [command[0], "--config", str(path), "--out", str(tmp_path / "out"), *command[1:]]
    assert cli.main(argv) == 0
    assert len(reads) == 1


def _run_with_signal_file(text: str):
    def argv(tmp_path):
        (tmp_path / "h.csv").write_text(text, encoding="utf-8")
        cfg = c6_config(lambda_w=0.5, steps=300)
        cfg["init"] = {"mode": "file", "path": str(tmp_path / "h.csv")}
        return ["run", "--config", str(write_config(tmp_path, cfg))]
    return argv


def _classify_trace(text: Optional[str]):
    """classify on a trace file holding ``text``; None: no file."""
    def argv(tmp_path):
        if text is not None:
            (tmp_path / "trace.csv").write_text(text, encoding="utf-8")
        return ["classify", "--config", str(write_config(tmp_path, c6_config())),
                "--trace", str(tmp_path / "trace.csv")]
    return argv


def _run_on_edge_file(text: Optional[str]):
    """run on a graph read from an edge file holding ``text``; None: no file."""
    def argv(tmp_path):
        if text is not None:
            (tmp_path / "graph.edges").write_text(text, encoding="utf-8")
        cfg = c6_config(graph={"kind": "file", "path": str(tmp_path / "graph.edges")})
        return ["run", "--config", str(write_config(tmp_path, cfg))]
    return argv


def _config_file(text: Optional[str], *rest: str):
    """``rest`` on a config file holding ``text``; None: no file."""
    def argv(tmp_path):
        if text is not None:
            (tmp_path / "config.json").write_text(text, encoding="utf-8")
        return [*rest[:1], "--config", str(tmp_path / "config.json"), *rest[1:]]
    return argv


def _unwritable(taken: Optional[str], *rest: str):
    """``rest`` on a good config, with --out an existing file (``taken`` None)
    or a directory holding a directory named ``taken``."""
    def argv(tmp_path):
        out = tmp_path / "out"
        if taken is None:
            out.write_text("a file, not a directory\n", encoding="utf-8")
        else:
            (out / taken).mkdir(parents=True)
        return _config_file(json.dumps(c6_config(steps=200)), *rest)(tmp_path)
    return argv


def _run_on_graph(**graph):
    """run on a config whose graph block is ``graph``."""
    return _config_file(json.dumps(c6_config(graph=graph)), "run")


TRACE_HEADER = "step,norm,dirichlet_normalized,total_energy,rayleigh\n"


@pytest.mark.parametrize(
    "argv,code,line",
    [
        (_run_with_signal_file("1,2\n" * 5 + "3,x\n"), 5, "error:"),
        (_run_with_signal_file(""), 5, "error:"),
        (_run_with_signal_file("1,2\n" * 5 + "3\n"), 5, "error:"),
        (_run_with_signal_file("1,2\n3,4\n"), 8, "error:"),
        (_run_with_signal_file("1,2\n\n" + "3,4\n" * 5), 0, None),
        (_classify_trace(None), 5, "error:"),
        (_classify_trace("time,value\n0,1.0\n"), 5, "error:"),
        (_classify_trace(TRACE_HEADER + "0,1.0\n"), 5, "error:"),
        (_classify_trace(TRACE_HEADER), 5, "error:"),
        (_config_file(None, "run"), 2, "error:"),
        (_config_file("{", "run"), 2, "error:"),
        (_config_file(json.dumps(c6_config()), "sweep", "--parameter", "lambda_w", "--grid", "1,abc"),
         2, "error:"),
        (_config_file(json.dumps(c6_config(steps=300, scheme={"kind": "ee_ufg"})), "run"),
         0, "warning: scheme ee_ufg with epsilon=0.0 <= 0"),
        (_run_with_signal_file("0,0\n" * 6), 14, "error:"),
        (_run_on_graph(kind="path", n=0), 3, "error:"),
        (_run_on_graph(kind="complete_bipartite", m=0, n=3), 3, "error:"),
        (_run_on_graph(kind="erdos_renyi", n=0, p=0.5), 3, "error:"),
        (_run_on_graph(kind="sbm", sizes=[0, 3], p_in=0.5, p_out=0.5), 3, "error:"),
        (_run_on_graph(kind="file"), 3, "error:"),
        (_run_on_edge_file(None), 5, "error:"),
        (_run_on_edge_file("n=x\n0 1\n"), 5, "error:"),
        (_run_on_edge_file("# comments only\n"), 5, "error:"),
        (_run_on_edge_file("n=2\n0 5\n"), 5, "error:"),
        (_config_file(json.dumps(c6_config(theta={"bands": {"x": [1.0]}})), "run"), 2, "error:"),
        (_config_file(json.dumps(c6_config()), "sweep", "--parameter", "epsilon", "--grid", "0.5"),
         2, "error:"),
        (_run_with_signal_file("1,2\n" * 5 + "nan,2\n"), 5, "error:"),
        (_run_with_signal_file("1,2\n" * 2 + "1e999,2\n" + "1,2\n" * 3), 5, "error:"),
        (_classify_trace(TRACE_HEADER + "0,1.0,0.25,0.5,0.5\n1,1.0,nan,0.5,nan\n"), 5, "error:"),
        (_classify_trace(TRACE_HEADER + "0,1.0,inf,0.5,inf\n"), 5, "error:"),
        (_classify_trace(TRACE_HEADER + "0,1.0,0.25,0.5,0.5\n" * 2), 5, "error:"),
        (_classify_trace(TRACE_HEADER + "0,1.0,0.25,0.5,0.5\n2,1.0,0.25,0.5,0.5\n"), 5,
         "error:"),
        (_classify_trace(TRACE_HEADER + "0,nan,0.25,0.5,0.5\n"), 5, "error:"),
        (_classify_trace(TRACE_HEADER + "0,1.0,0.25,0.5,\n"), 5, "error:"),
        (_classify_trace(TRACE_HEADER + "0,1.0,0.25,0.5,0.5,0.5\n"), 5, "error:"),
        (_classify_trace("step,norm,e\n0,1.0,0.25\n"), 5, "error:"),
        (_config_file(json.dumps(c6_config(weights={"mode": "shared", "omega": [], "w": [[1.0]]})),
                      "run"), 2, "error:"),
        *((_config_file(json.dumps(c6_config(
            lambda_w=0.5, graph={"kind": "cycle", "n": 6, "self_loops": True},
            run={"steps": 20000, "tol": tol})), "run"), 2, "error: run.tol must be > 0")
          for tol in (-1e-6, 0.0)),
        (_config_file(json.dumps(c6_config()).replace(
            '"lambda_w": 10.0', '"lambda_w": 0.5, "lambda_w": 20.0'), "run"),
         2, "error: repeated key 'lambda_w'"),
        (_config_file(json.dumps(c6_config())[:-1] + ', "run": {"steps": 5}}', "run"),
         2, "error: repeated key 'run'"),
        *((_unwritable(None, *command), 2, "error: cannot write")
          for command in (["gen"], ["run"], ["energy"],
                          ["sweep", "--parameter", "lambda_w", "--grid", "0.5"])),
        (_unwritable("trace.csv", "run"), 2, "error: cannot write"),
    ],
    ids=["init-non-numeric", "init-empty", "init-ragged", "init-two-rows", "init-blank-line",
         "classify-missing", "classify-header", "classify-short-row", "classify-no-rows",
         "config-missing", "config-invalid-json", "sweep-bad-grid", "ee-warning",
         "init-all-zero", "graph-path-no-nodes", "graph-bipartite-no-nodes", "graph-er-no-nodes",
         "graph-sbm-empty-block", "graph-file-no-path", "edges-missing", "edges-bad-header",
         "edges-comments-only", "edges-index-past-header", "theta-bad-band-key",
         "sweep-epsilon-unshifted", "init-nan", "init-overflow", "classify-nan",
         "classify-inf", "classify-repeated-row", "classify-skipped-step", "classify-nan-norm",
         "classify-empty-rayleigh", "classify-long-row", "classify-other-header",
         "weights-empty-matrix", "run-tol-negative", "run-tol-zero",
         "config-duplicate-key-nested", "config-duplicate-key-top-level",
         "gen-out-is-a-file", "run-out-is-a-file", "energy-out-is-a-file", "sweep-out-is-a-file",
         "run-csv-is-a-directory"],
)
def test_failure_paths_exit_with_their_code_and_one_line(tmp_path, capsys, argv, code, line):
    args = argv(tmp_path)  # classify writes nothing, so it takes no --out
    out = [] if args[0] == "classify" else ["--out", str(tmp_path / "out")]
    assert cli.main([*args, *out]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if line is None:
        assert err == ""
    else:
        assert any(ln.startswith(line) for ln in err.splitlines()), err


def test_main_parses_every_call_afresh(tmp_path, monkeypatch, capsys):
    """A flag of one call never leaks into the next, and a bad argv exits 2
    on every call, whatever the calls before it."""
    seen = []
    for name in ("sweep_config", "run_config", "classify_trace_csv"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name, **k:
                            seen.append((_n, a, k)) or _f(*a, **k))
    config = str(write_config(tmp_path, c6_config(steps=200)))
    sweep = ["sweep", "--config", config, "--parameter", "lambda_w", "--grid", "0.5,2"]
    calls = [
        [*sweep, "--out", str(tmp_path / "a"), "--jobs", "2", "--seed", "3"],
        [*sweep, "--out", str(tmp_path / "b")],
        ["run", "--config", config, "--out", str(tmp_path / "c")],
        ["classify", "--config", config, "--trace", str(tmp_path / "c" / "trace.csv")],
    ]
    for argv in calls:
        assert cli.main(argv) == 0
        for bad in (["sweep", "--config", config], ["walk"], [*argv, "--bogus"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 2
    capsys.readouterr()
    assert [n for n, _, _ in seen] == ["sweep_config", "sweep_config", "run_config",
                                       "classify_trace_csv"]
    (_, first, _), (_, second, _), (_, _, run), (_, _, classify) = seen
    assert first[4:] == (2, 3)  # sweep_config(cfg, parameter, grid, out, jobs, seed)
    assert second[4:] == (1, None) and run == {"seed": None} and classify == {"seed": None}


FULL_W = {"0,2": [[1.0, 0.3, 0.0], [0.3, 0.8, -0.2], [0.0, -0.2, 1.1]],
          "1,1": [[2.0, -0.5, 0.1], [-0.5, 1.5, 0.4], [0.1, 0.4, -1.0]],
          "1,2": [[-3.0, 0.2, 0.0], [0.2, 1.0, 0.6], [0.0, 0.6, 2.5]]}
FULL_OMEGA = {"0,2": [[1.0, 0.1, 0.0], [0.1, 1.2, 0.0], [0.0, 0.0, 0.9]],
              "1,1": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 1.3]],
              "1,2": [[0.8, 0.0, 0.0], [0.0, 1.0, 0.1], [0.0, 0.1, 1.0]]}


@pytest.mark.parametrize(
    "kind,extra,rows,digest",
    [("spatial_framelet", {"tau": 0.5}, 30,
      "04ed9e14142c82597166496ebb89ea043ddfcf8c47462148af0ed136a3b9bb63"),
     ("gradf_ufg", {"tau": 0.05}, 301,
      "db390d081210fd96d86ca884a3b3f1a4341f6e1dca0e5ff06c719373836c200e"),
     ("ee_ufg", {"epsilon": 0.2, "tau": 0.5}, 301,
      "71e20895efa97990a75f11feef86b4c96a6b4a7aa169b7bda2600222969e9415")],
)
def test_matrix_weight_power_path_traces_keep_their_bits(tmp_path, kind, extra, rows, digest):
    """c x c one-step matrices keep their per-channel eigenmodes, bit for bit:
    SHA-256 of trace.csv as written before the power path took one mode per
    frequency for number factors (numpy 2.4 with OpenBLAS; byte identity is
    promised per numpy/BLAS build, so another build may need new digests)."""
    cfg = {"graph": {"kind": "erdos_renyi", "n": 14, "p": 0.4, "seed": 7},
           "framelet": {"scales": 2}, "scheme": {"kind": kind},
           "weights": {"mode": "full", "omega": FULL_OMEGA, "w": FULL_W},
           "init": {"mode": "random_normal", "seed": 3, "channels": 3},
           "run": {"steps": 300}, **extra}
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    data = (tmp_path / "trace.csv").read_bytes()
    assert data.count(b"\n") == rows + 1
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "scheme,extra,lambda_w,channels,digest",
    [({"kind": "activated", "activation": "relu"}, {"tau": 0.05}, 0.5, 3,
      "d96a87d55bc543df3c691b25dc2945b12f058ce8356d36ad7fcd2936dc16601b"),
     ({"kind": "ee_ufg", "activation": "relu"}, {"epsilon": 0.2}, 2.0, 3,
      "3b18081b26658b112c89773f25f8de7d118d30354cf5da14a2c6973f935fbe64"),
     ({"kind": "activated", "activation": "relu"}, {"tau": 0.05}, 0.5, 1,
      "23e55fdb538d912595877215d2f36e49249a3c91a69c76a4a39b77996a89077f"),
     ({"kind": "ee_ufg", "activation": "relu"}, {"epsilon": 0.2}, 2.0, 1,
      "0a84e2008466f80e13e6a024fd9cf1131936510e0230ac373cadf2058e4d90ec")],
    ids=["activated-relu", "ee_ufg-relu", "activated-relu-c1", "ee_ufg-relu-c1"],
)
def test_stepped_relu_traces_keep_their_bits(tmp_path, scheme, extra, lambda_w, channels, digest):
    """A stepped run records 64-step blocks with stacked products; taking their
    per-frequency factors as full-width (n, c) columns instead of (n, 1) ones
    keeps every row's bits: SHA-256 of trace.csv as written with (n, 1)
    columns.  The c = 1 digests were written before the steps became in-place
    kernels of np.dot calls, where BLAS may pick another product form for a
    single column (see test_np_dot_has_the_bits_of_matmul_on_the_step_shapes).
    numpy 2.4 with OpenBLAS; byte identity is promised per numpy/BLAS build,
    so another build may need new digests."""
    cfg = {"graph": {"kind": "erdos_renyi", "n": 14, "p": 0.4, "seed": 7},
           "framelet": {"scales": 2}, "scheme": scheme,
           "weights": {"mode": "scalar", "lambda_w": lambda_w},
           "init": {"mode": "random_normal", "seed": 3, "channels": channels},
           "run": {"steps": 300}, **extra}
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    data = (tmp_path / "trace.csv").read_bytes()
    assert data.count(b"\n") == 302
    assert hashlib.sha256(data).hexdigest() == digest


LONG_ER = {"kind": "erdos_renyi", "n": 14, "p": 0.4, "seed": 7}
LONG_RUNS = {  # power-path runs past 2,048 steps, over batches of up to 32 blocks
    "scalar-cap": {"graph": {"kind": "cycle", "n": 51}, "scheme": {"kind": "activated"},
                   "weights": {"mode": "scalar", "lambda_w": 0.5},
                   "run": {"steps": 5000}, "tau": 0.01},
    "full-plateau": {"graph": LONG_ER, "scheme": {"kind": "gradf_ufg"},
                     "weights": {"mode": "full", "omega": FULL_OMEGA, "w": FULL_W},
                     "run": {"steps": 6000, "plateau_window": 2500}, "tau": 0.01},
    "closed-form-cap": {"graph": LONG_ER, "scheme": {"kind": "perturbed_closed_form"},
                        "weights": {"mode": "scalar", "lambda_w": 1.0},
                        "run": {"steps": 5000, "plateau_window": 6000},
                        "tau": 0.002, "epsilon": 0.5},
}


@pytest.mark.parametrize(
    "case,steps,digest",
    [("scalar-cap", 5000, "efa2346163f77246a4ee0479a6af6bfdaadba2b8bcc8bd57f2dafd2fe3304bcd"),
     ("full-plateau", 3954, "5ea4447f3c64a707d553bebf5274ccb9e58577f96787014a1dd99ae807b417da"),
     ("closed-form-cap", 5000, "a1f76ae474fbf05d7921d944265877fb84fc96f746f4e531128f7ad2e54d74b1")],
)
def test_long_power_path_traces_keep_their_bits(tmp_path, case, steps, digest):
    """A power-path run takes one product per batch of 64-step blocks, and
    each block keeps the rows of its own 64-step shift: SHA-256 of trace.csv
    as written with one product per block, to the step cap (5,000: a short
    last block) or to a plateau inside a batch.  numpy 2.4 with OpenBLAS;
    byte identity is promised per numpy/BLAS build, so another build may
    need new digests."""
    cfg = {"framelet": {"scales": 2}, "init": {"mode": "random_normal", "seed": 3, "channels": 3},
           **LONG_RUNS[case]}
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    data = (tmp_path / "trace.csv").read_bytes()
    assert data.count(b"\n") == steps + 2
    assert hashlib.sha256(data).hexdigest() == digest


def test_a_long_unrenormalized_power_path_trace_keeps_its_bits(tmp_path):
    """The same for a 5,000-step unrenormalized run, whose norm column is
    ||H(k)||: the CLI classifies renormalized runs only, so the library runs
    it and the CLI's writer writes it."""
    g = ff.generate_graph(ff.GraphSpec(**LONG_ER))
    system = ff.build_framelet_system(ff.eigh(ff.normalized_laplacian(g)), 2)
    x0 = np.random.default_rng(3).standard_normal((14, 3))
    trace = ff.run_flow(ff.Scheme("gradf_ufg"), system, x0, ff.WeightConfig.scalar(2, 0.5, tau=0.01),
                        ff.StopRule(5000, plateau_window=6000))
    assert trace.steps_run == 5000 and not trace.renormalized
    cli.write_trace_csv(tmp_path / "trace.csv", trace)
    data = (tmp_path / "trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "008a024fb55c115bb2bb39b4781afcecc635774c42f1aa1e90a21a53ee854883")


@pytest.mark.parametrize(
    "scheme,extra",
    [({"kind": "spatial_framelet"}, {"tau": 0.5}),
     ({"kind": "gradf_ufg"}, {"tau": 0.05}),
     ({"kind": "activated", "activation": "relu"}, {"tau": 0.05}),
     ({"kind": "ee_ufg", "activation": "relu"}, {"epsilon": 0.2, "tau": 0.5})],
    ids=["spatial_framelet", "gradf_ufg", "activated-relu", "ee_ufg-relu"],
)
def test_full_weights_spelling_out_the_scalar_family_match_its_run(tmp_path, scheme, extra):
    """`full` weights Omega_b = I, W_low = I, W_high = lambda_w I, given as
    matrices, take the c x c path: their run has the `scalar` config's
    verdict and plateau step, and its trace agrees within 1e-12 relative."""
    lambda_w, eye = 1.5, np.eye(3)
    full = {"mode": "full", "omega": {b: eye.tolist() for b in ("0,2", "1,1", "1,2")},
            "w": {"0,2": eye.tolist(), "1,1": (lambda_w * eye).tolist(),
                  "1,2": (lambda_w * eye).tolist()}}
    traces = []
    for weights in ({"mode": "scalar", "lambda_w": lambda_w}, full):
        cfg = {"graph": {"kind": "erdos_renyi", "n": 14, "p": 0.4, "seed": 7},
               "framelet": {"scales": 2}, "scheme": scheme, "weights": weights,
               "init": {"mode": "random_normal", "seed": 3, "channels": 3},
               "run": {"steps": 300}, **extra}
        out = tmp_path / weights["mode"]
        config = write_config(tmp_path, cfg, f"{weights['mode']}.json")
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        traces.append((np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1),
                       summary["verdict"]["dominance"], summary["final"]["steps_to_plateau"]))
    (scalar, *verdict), (full, *full_verdict) = traces
    assert verdict == full_verdict and len(scalar) > 2
    np.testing.assert_allclose(full, scalar, rtol=1e-12, atol=0)


def test_geometry_keeps_no_dense_operator_but_the_eigenbasis():
    """After build_geometry returns, the one n x n matrix it holds is U: the
    dense Lhat it eigendecomposed is gone, and no field holds Ahat."""
    n = 400
    cfg = {"graph": {"kind": "erdos_renyi", "n": n, "p": 0.02, "seed": 3},
           "framelet": {"scales": 2}, "weights": {"mode": "scalar", "lambda_w": 2.0},
           "init": {"mode": "random_normal", "seed": 5, "channels": 4}}
    weights = cli.validate_config(cfg)
    cli.build_geometry(cfg, weights)  # warms the probe-bank cache and every lazy import
    tracemalloc.start()
    try:
        geometry = cli.build_geometry(cfg, weights)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.5 * n * n * 8
    assert not [name for name, value in vars(geometry).items()
                if isinstance(value, np.ndarray) and value.shape == (n, n)]


def test_the_laplacian_peaks_at_one_matrix_of_its_size():
    """Lhat is written into one n x n array: no adjacency, outer product or
    identity beside it."""
    n = 400
    g = ff.generate_graph(ff.GraphSpec(kind="erdos_renyi", n=n, p=0.02, seed=3))
    ff.normalized_laplacian(g)  # the degrees and edge array are the graph's, built once
    tracemalloc.start()
    try:
        lap = ff.normalized_laplacian(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lap.shape == (n, n)
    assert peak <= 1.1 * n * n * 8


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_one_without_a_traceback(tmp_path, unbuffered):
    """A reader that closes stdout before the verdict is printed, as `head -1`
    may: one error line and exit 1, with stdout buffered or not."""
    config = write_config(tmp_path, c6_config(lambda_w=0.5, steps=300))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "frameflow.cli", "run", "--config", str(config),
            "--out", str(tmp_path / "out")]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_sweep_config_rejects_an_unknown_parameter(tmp_path):
    with pytest.raises(ConfigError, match="sweep parameter must be one of"):
        cli.sweep_config(c6_config(), "init.seed", [0.5], tmp_path)
    assert cli.EXIT_CODES[ConfigError] == 2
    assert not (tmp_path / "sweep.csv").exists()


def test_readme_lists_the_sweep_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [line] = [ln for ln in readme.splitlines() if ln.startswith("* sweep parameters:")]
    listed = line.split(":", 1)[1].split(".")[0]
    assert re.findall(r"`(\w+)`", listed) == list(cli.SWEEP_KEYS)


def _subclasses(klass):
    for sub in klass.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_library_error_has_its_own_exit_code():
    """main's fallback `return 1` is for a closed stdout alone: every error
    the library raises maps to a code of its own class."""
    errors = set(_subclasses(FrameflowError))
    assert errors and errors <= set(cli.EXIT_CODES)
    assert 1 not in cli.EXIT_CODES.values()


def test_ee_ufg_takes_a_unit_step_whatever_tau(tmp_path):
    """ee_ufg's step has no step size, so tau leaves its runs unchanged."""
    traces = []
    for tau in (1.0, 0.3):
        cfg = c6_config(lambda_w=2.0, scales=2, steps=300, epsilon=0.2, tau=tau,
                        scheme={"kind": "ee_ufg", "activation": "relu"})
        cli.run_config(cfg, tmp_path / str(tau))
        traces.append((tmp_path / str(tau) / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    assert traces[0].count(b"\n") > 2


GEN_GRAPHS = {
    "cycle": {"kind": "cycle", "n": 9},
    "path": {"kind": "path", "n": 7, "self_loops": True},
    "complete_bipartite": {"kind": "complete_bipartite", "m": 3, "n": 5},
    "erdos_renyi": {"kind": "erdos_renyi", "n": 40, "p": 0.15},
    "sbm": {"kind": "sbm", "sizes": [12, 9, 7], "p_in": 0.5, "p_out": 0.05, "self_loops": True},
    "file": {"kind": "file"},
}
GEN_SHA256 = {  # of graph.edges; the seed moves only the random kinds
    ("cycle", 3): "7625fec5f03c74464a9591c4928b5a09fb9d5013e56386c2e63468f022fdc229",
    ("cycle", 2024): "7625fec5f03c74464a9591c4928b5a09fb9d5013e56386c2e63468f022fdc229",
    ("path", 3): "73fa7f2d37d5cd8f0745894343271e9aab87ba3385e8d2aeaa7f96f3d3316d67",
    ("path", 2024): "73fa7f2d37d5cd8f0745894343271e9aab87ba3385e8d2aeaa7f96f3d3316d67",
    ("complete_bipartite", 3): "d3041870cd8234ff27762d6b01bbcaa4ce24d6129a75b54dbae7872ee18d20d0",
    ("complete_bipartite", 2024):
        "d3041870cd8234ff27762d6b01bbcaa4ce24d6129a75b54dbae7872ee18d20d0",
    ("erdos_renyi", 3): "9465c7ac4d20c7d60e0aa87b8fcbfbcbbc1b5154ac78bd2d7bf0b421aaefeb74",
    ("erdos_renyi", 2024): "808a345140ac3b6b402904e21faaa3ee4f3f7adc0f96e64f91b12a9b17810f1a",
    ("sbm", 3): "8d9bb70d6979f5288131d44a340a216632214c7e6b707df493f49ef5cc9d6681",
    ("sbm", 2024): "e0b2c1d998bbec7b35fdf91f873ec44cc4adae3601852f69f2d50d958f77cb95",
    ("file", 3): "f3a426f15e5efe393d1179c7895ab0c59d1375591c0120027743df337364ee44",
    ("file", 2024): "f3a426f15e5efe393d1179c7895ab0c59d1375591c0120027743df337364ee44",
}


@pytest.mark.parametrize("kind,seed", sorted(GEN_SHA256))
def test_gen_output_is_pinned(tmp_path, kind, seed):
    """gen writes the same edge list, byte for byte, for every graph kind."""
    graph = dict(GEN_GRAPHS[kind], seed=seed)
    if kind == "file":  # duplicates, reversed pairs and a comment collapse; the flag adds no line
        edges = tmp_path / "g.edges"
        lines = ["# a hand-written list", "n=8", "3 1", "1 3", "0 7", "7 6", "2 5", "5 4", "4 2",
                 "6 0", "1 0"]
        edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
        graph.update(path=str(edges), self_loops=seed == 3)
    cfg = {"graph": graph, "framelet": {"scales": 1},
           "weights": {"mode": "scalar", "lambda_w": 1.0}, "init": {"mode": "random_normal"}}
    out = tmp_path / "out"
    assert cli.main(["gen", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "graph.edges").read_bytes()).hexdigest() == GEN_SHA256[kind, seed]


def test_sweeps_keep_no_memory_between_calls(tmp_path):
    """Whatever a sweep caches lives and dies with its graph and spectrum:
    after a warm-up, 100 sweeps on fresh seeds hold no more traced memory
    than 10 do, within 64 kB."""
    grid = [0.5, 2.0, 8.0, 64.0]

    def sweeps(first: int, count: int) -> int:
        for k in range(first, first + count):
            cfg = json.loads(json.dumps(SBM_SWEEP))
            cfg["graph"]["seed"], cfg["init"]["seed"] = 2 * k, 2 * k + 1
            cli.sweep_config(cfg, "lambda_w", grid, tmp_path)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    sweeps(0, 10)
    tracemalloc.start()
    try:
        after_ten = sweeps(10, 10)
        after_hundred = sweeps(20, 90)
    finally:
        tracemalloc.stop()
    assert after_hundred - after_ten <= 64 * 1024


@pytest.mark.parametrize("text", ["0 1\n1 100000000000000000000000000000\n",
                                  "n=100000000000000000000000000000\n0 1\n",
                                  "0 1\n1 9223372036854775807\n"],
                         ids=["index-past-int64", "count-past-int64", "count-one-past-int64"])
def test_edge_list_past_the_index_range_exits_three(tmp_path, capsys, text):
    """Node indices are int64 arrays: an edge list past that range is an
    invalid spec, with one error line and no traceback."""
    edges = tmp_path / "g.edges"
    edges.write_text(text, encoding="utf-8")
    cfg = {"graph": {"kind": "file", "path": str(edges)},
           "weights": {"mode": "scalar", "lambda_w": 1.0}, "init": {"mode": "random_normal"}}
    out = tmp_path / "out"
    assert cli.main(["gen", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
