"""Fuzz of the CLI inputs.  Single faults: one key, or one whole block, of a
valid config is replaced by a value from a fixed vocabulary, or one entry of
a valid init signal file or trace CSV by a non-finite or empty field.  Whole
inputs: drawn weights and init blocks, and drawn signal and trace files.
Whatever the input, ``run``, ``sweep`` and ``classify`` must exit 0 or with
a mapped code, print one ``error:`` line and no traceback when they fail
(RuntimeWarnings are errors here), and write nothing then."""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

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


CODES = {0, *cli.EXIT_CODES.values()}  # success, or an error mapped to its exit code


def _main(argv, out=None):
    """``cli.main(argv)``'s exit code, a mapped one; a failing call prints
    one ``error:`` line and no traceback, and leaves ``out`` unwritten."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in CODES and "Traceback" not in err.getvalue()
    assert sum(ln.startswith("error:") for ln in err.getvalue().splitlines()) == (code != 0)
    if code != 0 and out is not None:
        assert not out.exists()
    return code


def _main_codes(cfg, parameter, grid, tmp):
    """Exit codes of ``run`` and ``sweep`` on ``cfg``, each checked by :func:`_main`."""
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    commands = {"run": ["run"], "sweep": ["sweep", "--parameter", parameter, "--grid", grid]}
    return [_main([*command, "--config", str(config), "--out", str(Path(tmp) / name)],
                  Path(tmp) / name)
            for name, command in commands.items()]


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
        assert _main(["classify", "--config", str(config), "--trace", str(trace)]) == 5
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json", "trace.csv"]


@st.composite
def _weight_matrix(draw, size, fault=None):
    """A size x size matrix, s I or symmetric; an "asymmetric" or "ragged"
    fault breaks it."""
    s = draw(st.sampled_from([1.0, -2.0, 0.0, 0.5, 3.0]))
    m = [[s * (i == j) for j in range(size)] for i in range(size)]
    if size > 1 and (fault == "asymmetric" or draw(st.booleans())):
        m[0][1], m[1][0] = 0.25, -0.25 if fault == "asymmetric" else 0.25
    if fault == "ragged":
        m[-1] = m[-1] + [1.0]
    return m


WEIGHT_FAULTS = [None, None, None, "asymmetric", "ragged", "size", "bands", "mode", "key"]


@st.composite
def _weights_block(draw, scales, channels):
    """A whole weights block of any mode, with matrices of the channel count
    or of another size, and at most one fault: a broken or odd-sized matrix,
    band keys the bank does not have, an unknown mode, or a key of another
    mode."""
    bands = ["0,1", "1,1"] if scales == 1 else ["0,2", "1,1", "1,2"]
    fault = draw(st.sampled_from(WEIGHT_FAULTS))
    mode = "x" if fault == "mode" else draw(st.sampled_from(["scalar", "shared", "full"]))
    size = draw(st.sampled_from([channels, 1, 2, 3]))
    matrices = [draw(_weight_matrix(size)) for _ in range(3 * len(bands))]
    if fault in ("asymmetric", "ragged", "size"):
        bad = 2 if fault == "asymmetric" else draw(st.sampled_from([1, 2, 3]))
        matrices[draw(st.integers(0, len(matrices) - 1))] = draw(
            _weight_matrix(bad if fault != "size" else size % 3 + 1, fault))
    block = {"mode": mode}
    if mode == "scalar":
        block["lambda_w"] = draw(st.sampled_from([2.0, -30.0, -1.0, 0.0, 0.5, 64]))
    elif mode == "shared":
        block.update(omega=matrices[0], w=matrices[1])
    else:
        keys = bands[:-1] if fault == "bands" else bands
        block.update({name: dict(zip(keys, matrices[i::3]))
                      for i, name in enumerate(("omega", "w", "w_tilde"))})
        if draw(st.booleans()):
            del block["w_tilde"]
    if fault == "key":
        block["lambda_w" if mode != "scalar" else "omega"] = [[1.0]]
    return block


@st.composite
def _weights_config(draw):
    scheme = draw(st.sampled_from([{"kind": "spatial_framelet"}, {"kind": "gradf_ufg"},
                                   {"kind": "ee_ufg", "activation": "relu"},
                                   {"kind": "spectral_framelet"},
                                   {"kind": "activated", "activation": "relu"},
                                   {"kind": "perturbed_closed_form"}]))
    scales = 2 if scheme["kind"] == "perturbed_closed_form" else draw(st.sampled_from([1, 2]))
    channels = draw(st.integers(1, 3))
    cfg = _base(scheme, draw(_weights_block(scales, channels)), scales=scales, channels=channels,
                tau=0.05, epsilon=0.2, beta=draw(st.sampled_from([0.0, 0.5])))
    if scheme["kind"] == "spectral_framelet":
        cfg["theta"] = draw(st.sampled_from([2.0, {"low": 1.0, "high": 0.5}]))
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=_weights_config())
def test_whole_weights_blocks_exit_with_a_mapped_code_and_write_nothing_on_failure(cfg):
    """Whole weights blocks: every mode, matrices of 1 to 3 rows against 1 to
    3 channels, multiples of I, symmetric and asymmetric matrices, missing or
    extra bands and keys.  ``run`` and a ``lambda_w`` sweep exit 0 or with a
    mapped code, and write nothing when they fail."""
    with tempfile.TemporaryDirectory() as tmp:
        codes = _main_codes(cfg, "lambda_w", "0.5,2", tmp)
    assert set(codes) <= CODES


SIGNAL = object()  # stands for the path of a valid 6 x 2 signal file
INIT_MODES = ["random_normal", "file", "eigenvector", MISSING, "x", None, 0]


@st.composite
def _init_block(draw):
    """A whole init block: one of the three modes or junk, and each key
    missing or a value of the vocabulary: a usual value (a valid file for a
    path) or any.  A key outside the mode's block is kept one time in two."""
    values = lambda usual: st.sampled_from([MISSING, *usual]) | st.sampled_from(VOCABULARY)
    block = draw(st.fixed_dictionaries(
        {"mode": st.sampled_from(INIT_MODES), "seed": values([0, 1, 2, 3]),
         "channels": values([1, 2, 3]), "index": values([0, 1, 2, 3]), "path": values([SIGNAL])}))
    kept = block if draw(st.booleans()) else cli.CONFIG_KEYS.get(f"init.{block['mode']}", block)
    return {key: value for key, value in block.items() if value is not MISSING and key in kept}


def _classify(cfg, tmp, trace_text):
    """``classify`` of ``trace_text`` on ``cfg``, checked by :func:`_main`; it
    writes nothing whatever its exit code."""
    config, trace = Path(tmp) / "classify.json", Path(tmp) / "classified.csv"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    trace.write_text(trace_text, encoding="utf-8")
    before = sorted(Path(tmp).iterdir())
    code = _main(["classify", "--config", str(config), "--trace", str(trace)])
    assert sorted(Path(tmp).iterdir()) == before
    return code


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.sampled_from(BASES), init=_init_block())
def test_whole_init_blocks_exit_with_a_mapped_code_and_write_nothing_on_failure(base, init):
    cfg, parameter, grid = base
    with tempfile.TemporaryDirectory() as tmp:
        signal = Path(tmp) / "h.csv"
        signal.write_text("".join(f"{i},{0.5 - i}\n" for i in range(6)), encoding="utf-8")
        faulty = dict(cfg, init={k: str(signal) if v is SIGNAL else v for k, v in init.items()})
        codes = [*_main_codes(faulty, parameter, grid, tmp), _classify(faulty, tmp, _trace_text())]
    event(f"exit codes {codes}")


NUMBERS, TOKENS = ["0.25", "-1.5", "3", "1e-3", "7e2"], ["nan", "1e999", "", "x", "-inf"]


@st.composite
def _csv_text(draw, headers, rows, width, steps=False):
    """Comma-separated lines: a first line from ``headers`` (None: no line),
    ``rows`` rows of ``width`` numbers (the first the row's step if
    ``steps``), and blank lines between them.  A file is clean, or each of
    its entries, widths and steps is off one time in four or in twenty: a
    token of TOKENS, one field more or fewer, the next step."""
    odd = draw(st.sampled_from([0, 0, 1, 5]))  # in twenty
    off = lambda: draw(st.integers(0, 19)) < odd
    lines = [draw(st.sampled_from(headers))]
    for k in range(draw(rows)):
        size = width + (draw(st.sampled_from([-1, 1])) if off() else 0)
        entries = [draw(st.sampled_from(TOKENS if off() else NUMBERS)) for _ in range(size)]
        if steps and entries:
            entries[0] = str(k + off())
        lines += [",".join(entries)] + [""] * draw(st.integers(0, 1))
    return "".join(f"{ln}\n" for ln in lines if ln is not None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(base=st.sampled_from(BASES),
       text=_csv_text([None, None, "h0,h1"], st.sampled_from([6, 6, 6, 0, 5, 7]), 2))
def test_whole_signal_files_exit_with_a_mapped_code_and_write_nothing_on_failure(base, text):
    cfg, parameter, grid = base
    with tempfile.TemporaryDirectory() as tmp:
        signal = Path(tmp) / "h.csv"
        signal.write_text(text, encoding="utf-8")
        codes = _main_codes(dict(cfg, init={"mode": "file", "path": str(signal)}), parameter,
                            grid, tmp)
    event(f"exit codes {codes}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=_csv_text([cli.TRACE_HEADER] * 3 + [None, "step,norm"], st.integers(0, 12), 5,
                      steps=True))
def test_whole_trace_files_exit_with_a_mapped_code_and_write_nothing(text):
    with tempfile.TemporaryDirectory() as tmp:
        code = _classify(BASES[0][0], tmp, text)
    assert code in (0, 5)
    event(f"exit code {code}")
