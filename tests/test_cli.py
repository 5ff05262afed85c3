import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frameflow as ff
from frameflow import cli
from frameflow.errors import ConfigError


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


def test_sweep_inapplicable_parameter_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.sweep_config(c6_config(), "theta", [1.0], tmp_path)


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
    cli.write_signal_matrix(sig, mat)
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
        ["classify", "--config", str(cfg_path), "--out", str(tmp_path),
         "--trace", str(tmp_path / "trace.csv")]
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


def test_sweep_rows_match_single_runs(tmp_path):
    cfg = c6_config()
    grid = [0.5, 1.0, 2.0, 10.0]
    rows = cli.sweep_config(cfg, "lambda_w", grid, tmp_path / "sweep")
    for value, row in zip(grid, rows):
        summary = cli.run_config(c6_config(lambda_w=value), tmp_path / repr(value))
        verdict, final = summary["verdict"], summary["final"]
        assert (row["predicted"], row["measured"]) == (verdict["predicted"], verdict["dominance"])
        assert row["limit_value"] == verdict["limit_value"]
        steps = -1 if final["steps_to_plateau"] is None else final["steps_to_plateau"]
        assert row["steps_to_plateau"] == steps


@pytest.mark.parametrize(
    "lambda_w,steps,expected",
    [(0.5, 20000, "LFD"), (10.0, 20000, "HFD"), (1.0, 20000, "MIXED"), (10.0, 5, "UNDECIDED")],
)
def test_classify_trace_matches_run_without_framelet_bank(
    tmp_path, monkeypatch, lambda_w, steps, expected
):
    cfg = c6_config(lambda_w=lambda_w, steps=steps)
    summary = cli.run_config(cfg, tmp_path)
    assert summary["verdict"]["dominance"] == expected
    monkeypatch.setattr(ff.framelets, "build_framelet_system", _refuse)
    verdict = cli.classify_trace_csv(cfg, tmp_path / "trace.csv")
    assert verdict["dominance"] == expected
    assert verdict["plateaued"] == summary["final"]["plateaued"]
    assert verdict["limit_value"] == summary["verdict"]["limit_value"]


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


@pytest.mark.parametrize(
    "block,key,value,code",
    [
        ("scheme", "kind", "bogus", 2),
        ("scheme", "activation", "bogus", 2),
        ("scheme", "activation", "relu", 2),  # the spatial scheme is linear
        ("framelet", "variant", "bogus", 9),
        (None, "init", {"mode": "eigenvector", "index": 99}, 2),
        (None, "weights", FULL_MISSING_BAND, 2),
    ],
)
def test_choice_config_values_exit_before_the_eigensolve(
    tmp_path, monkeypatch, block, key, value, code
):
    """Only the eigenvector index needs the graph (for its node count)."""
    if key != "init":
        monkeypatch.setattr(ff.graphs, "generate_graph", _refuse)
    monkeypatch.setattr(ff.spectral, "eigh", _refuse)
    cfg = c6_config()
    (cfg if block is None else cfg[block])[key] = value
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for command in (["run"], ["sweep", "--parameter", "lambda_w", "--grid", "0.5,2.0"]):
        assert cli.main([*command, "--config", str(path), "--out", str(out)]) == code
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
        final_state=np.zeros((2, 1)),
        renormalized=False,
        plateaued=False,
        steps_to_plateau=None,
    )
    cli.write_trace_csv(tmp_path / "trace.csv", trace)
    assert (tmp_path / "trace.csv").read_bytes() == _per_value_trace_csv(trace).encode("utf-8")
    summary = cli.run_config(c6_config(lambda_w=2.0, steps=300), tmp_path / "run")
    assert summary["final"]["steps_run"] > 64
    [(_, flow, _, _)] = cli.run_flows([c6_config(lambda_w=2.0, steps=300)])
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
    lowest = max(0.0, float(cli.build_geometry(cfg).spectrum.eigenvalues[0]))
    assert summary["verdict"]["predicted"] == "MIXED"
    assert summary["verdict"]["dominant_lambda"] == lowest


@pytest.mark.parametrize(
    "scheme,extra",
    [
        ({"kind": "spatial_framelet"}, {}),
        ({"kind": "gradf_ufg"}, {"tau": 0.05}),
        ({"kind": "activated", "activation": "relu"}, {"tau": 0.05}),
        ({"kind": "ee_ufg"}, {"epsilon": 0.2}),
        ({"kind": "ee_ufg", "activation": "relu"}, {"epsilon": 0.2}),
        ({"kind": "spectral_framelet"}, {"theta": 2.0}),
        ({"kind": "perturbed_closed_form"}, {"epsilon": 0.5, "tau": 0.05}),
    ],
)
def test_each_run_probes_each_operator_once(tmp_path, monkeypatch, scheme, extra):
    probes = []
    original = ff.energies._operator_values

    def counted(sys, name, op, values):
        probes.append(name)
        return original(sys, name, op, values)

    monkeypatch.setattr(ff.energies, "_operator_values", counted)
    cfg = c6_config(lambda_w=1.0 if scheme["kind"] == "spectral_framelet" else 2.0,
                    scales=2, steps=5, **extra)
    cfg["scheme"] = scheme
    cli.run_config(cfg, tmp_path)
    assert sorted(probes) == ["ahat", "laplacian"]
