"""Single-fault fuzz of the CLI inputs: one key, or one whole block, of a
valid config is replaced by a value from a fixed vocabulary, or one entry of
a valid init signal file or trace CSV by a non-finite or empty field.
Whatever the fault, ``run``, ``sweep`` and ``classify`` must return an exit
code (no traceback; RuntimeWarnings are errors here) and must write nothing
when that code is not 0."""

import functools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from frameflow import cli

MISSING = object()
MATRICES = [[[2.0]], [[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [-0.5, 1.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]
BAND_KEYED = [{"0,1": [[1.0]], "1,1": [[2.0]]}, {"0,1": [1.0] * 6, "1,1": [0.5, 1, 2, 3, 2, 1]},
              {"0,2": [[1.0]], "1,1": [[1.0]], "1,2": [[3.0]]}, {"x": [[1.0]]}]
VOCABULARY = [MISSING, None, True, "x", "", [], {}, 0, 1, -1, 2, 3, 0.5, -0.5, 1e300, -1e300,
              *MATRICES, *BAND_KEYED]

# Every base is a 6-cycle with 2 channels (1 for the source-term base) and at
# most 40 steps, and the vocabulary's integers stop at 3, so a fault can never
# make a run bigger than that: each example runs in milliseconds.
RUN = {"steps": 40, "tol": 1e-6, "plateau_window": 10, "renormalize": True}


def _base(scheme, weights=None, scales=1, channels=2, **scalars):
    return {"graph": {"kind": "cycle", "n": 6, "self_loops": False},
            "framelet": {"scales": scales, "variant": "tight"},
            "scheme": scheme, "weights": weights or {"mode": "scalar", "lambda_w": 2.0},
            "init": {"mode": "random_normal", "seed": 5, "channels": channels},
            "run": dict(RUN), "output": {"csv": "trace.csv", "summary": "summary.json"},
            **scalars}


FULL_SOURCE = {"mode": "full", "omega": {"0,1": [[1.0]], "1,1": [[1.0]]},
               "w": {"0,1": [[1.0]], "1,1": [[2.0]]}, "w_tilde": {"0,1": [[0.5]], "1,1": [[0.5]]}}
BASES = [  # (config, sweep parameter, sweep grid)
    (_base({"kind": "spatial_framelet"}), "lambda_w", "0.5,2"),
    (_base({"kind": "gradf_ufg"}, tau=0.05), "lambda_w", "0.5,2"),
    (_base({"kind": "ee_ufg", "activation": "relu"}, FULL_SOURCE, channels=1, beta=0.5,
           epsilon=0.2), "epsilon", "0.1,0.5"),
    (_base({"kind": "spectral_framelet"}, {"mode": "scalar", "lambda_w": 1.0}, theta=2.0),
     "theta", "0.5,2"),
    (_base({"kind": "activated", "activation": "relu"}, tau=0.05), "lambda_w", "0.5,2"),
    (_base({"kind": "perturbed_closed_form"}, scales=2, epsilon=0.5, tau=0.05), "epsilon",
     "0.1,1"),
]
PATHS = [(None, key) for key in cli.CONFIG_KEYS["config"]] + [
    (block, key)
    for block, keys in (("graph", ["kind", "n", "seed", "self_loops", "p"]),
                        ("framelet", ["scales", "variant"]), ("scheme", ["kind", "activation"]),
                        ("weights", ["mode", "lambda_w", "omega", "w", "w_tilde"]),
                        ("theta", ["low", "high", "bands"]),
                        ("init", ["mode", "seed", "channels", "index", "path"]),
                        ("run", list(RUN)), ("output", ["csv", "summary"]))
    for key in keys
]


def _with_fault(cfg, block, key, value):
    cfg = json.loads(json.dumps(cfg))
    target = cfg
    if block is not None:
        if not isinstance(cfg.get(block), dict):
            cfg[block] = {}
        target = cfg[block]
    if value is MISSING:
        target.pop(key, None)
    else:
        target[key] = value
    return cfg


def _main_codes(cfg, parameter, grid, tmp):
    """Exit codes of ``run`` and ``sweep`` on ``cfg``; each asserts that a
    failing command wrote nothing."""
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    codes = []
    for name, command in (("run", ["run"]),
                          ("sweep", ["sweep", "--parameter", parameter, "--grid", grid])):
        out = Path(tmp) / name
        codes.append(cli.main([*command, "--config", str(config), "--out", str(out)]))
        assert isinstance(codes[-1], int)
        if codes[-1] != 0:
            assert not out.exists()
    return codes


def test_fuzz_bases_are_valid(tmp_path):
    for i, (cfg, parameter, grid) in enumerate(BASES):
        (tmp_path / str(i)).mkdir()
        assert _main_codes(cfg, parameter, grid, tmp_path / str(i)) == [0, 0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(base=st.sampled_from(BASES), path=st.sampled_from(PATHS),
       value=st.sampled_from(VOCABULARY))
def test_single_fault_configs_exit_with_a_code_and_write_nothing_on_failure(base, path, value):
    cfg, parameter, grid = base
    with tempfile.TemporaryDirectory() as tmp:
        _main_codes(_with_fault(cfg, *path, value), parameter, grid, tmp)


FILE_FAULTS = ["nan", "inf", "-inf", "1e999", ""]  # Python's float() reads all but ""


@settings(max_examples=60, deadline=None, derandomize=True)
@given(base=st.sampled_from(BASES), row=st.integers(0, 5), column=st.integers(0, 1),
       fault=st.sampled_from(FILE_FAULTS))
def test_single_fault_signal_files_exit_five_and_write_nothing(base, row, column, fault):
    cfg, parameter, grid = base
    channels = cfg["init"]["channels"]
    entries = [[repr(0.25 * (i + 1) - 0.5 * j) for j in range(channels)] for i in range(6)]
    entries[row][column % channels] = fault
    with tempfile.TemporaryDirectory() as tmp:
        signal = Path(tmp) / "h.csv"
        signal.write_text("".join(",".join(r) + "\n" for r in entries), encoding="utf-8")
        faulty = dict(cfg, init={"mode": "file", "path": str(signal)})
        assert _main_codes(faulty, parameter, grid, tmp) == [5, 5]


@functools.cache
def _trace_text() -> str:
    """The trace CSV a ``run`` of the first base writes."""
    with tempfile.TemporaryDirectory() as tmp:
        assert _main_codes(BASES[0][0], *BASES[0][1:], tmp)[0] == 0
        return (Path(tmp) / "run" / "trace.csv").read_text(encoding="utf-8")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row=st.integers(1, RUN["steps"] + 1), column=st.integers(0, 4),
       fault=st.sampled_from(FILE_FAULTS))
def test_single_fault_trace_files_exit_with_a_code_and_write_nothing(row, column, fault):
    """classify checks every field of every row: a fault in any column exits 5
    and leaves the folder as classify found it.  The base run does not
    plateau, so it has 41 rows."""
    lines = _trace_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = fault
    lines[row] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        config, trace = Path(tmp) / "config.json", Path(tmp) / "trace.csv"
        config.write_text(json.dumps(BASES[0][0]), encoding="utf-8")
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["classify", "--config", str(config), "--trace", str(trace)])
        assert code == 5
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json", "trace.csv"]
