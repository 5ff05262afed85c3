#!/usr/bin/env python3
"""Run one frameflow benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload flow_linear --seed 1 --seconds 30 --trace 0

Drives ``frameflow.cli.main`` in-process with the argv a user would type, one
invocation at a time (a closed loop with one client), in whole rounds until
--seconds of wall time have passed.  Every output is then checked against
references computed in ``oracle.py``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
Run outputs go to perfbench/out/, which git ignores.

Exits 2 without a result when the program's sources (src/frameflow) are not
next to the benchmark.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()
BLAS_THREADS = "1"  # fixed before numpy loads; at most nproc on any machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median of 1 + this many
ACCOUNTED_MIN = 0.99  # layer self times must cover this share of each operation


class MissingProgram(Exception):
    pass


def import_program() -> dict:
    """Import frameflow from the checkout's src/ and nowhere else."""
    pkg = ROOT / "src" / "frameflow"
    if not (pkg / "cli.py").is_file():
        raise MissingProgram(f"no frameflow sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import frameflow
    from frameflow import analysis, cli, dynamics, framelets, graphs, spectral

    if Path(frameflow.__file__).resolve().parent != pkg.resolve():
        raise MissingProgram(f"frameflow was imported from {frameflow.__file__}, not {pkg}")
    return {"cli": cli, "analysis": analysis, "dynamics": dynamics, "framelets": framelets,
            "graphs": graphs, "spectral": spectral}


@dataclass
class Record:
    op: object
    out_dir: Path
    wall: float
    code: int
    stderr: str
    scaled: float = 0.0  # wall time in reference seconds (see calibration.py)


def execute(modules: dict, op, out_dir: Path) -> Record:
    """One CLI invocation; only the call into ``cli.main`` is timed."""
    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(op.config), encoding="utf-8")
    argv = op.argv(str(config_path), str(out_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = modules["cli"].main(argv)
        except Exception as exc:  # a traceback out of the CLI is a failed operation
            code = -1
            err.write(f"uncaught {exc!r}")
        wall = time.perf_counter() - start
    return Record(op, out_dir, wall, code, err.getvalue().strip())


def run_rounds(modules, next_round, out: Path, prefix: str, tracer=None):
    """Run the rounds ``next_round(elapsed, done)`` hands out until it returns
    None.  The reference kernel runs before and after every invocation, and
    each wall time is scaled to reference seconds by the mean of the two."""
    rounds, kernel = [], [calibration.measure()]
    start = time.perf_counter()
    count = 0
    while (ops := next_round(time.perf_counter() - start, len(rounds))) is not None:
        records = []
        for op in ops:
            if tracer is not None:
                tracer.op = count
            record = execute(modules, op, out / f"{prefix}{count:05d}")
            kernel.append(calibration.measure())
            record.scaled = record.wall * calibration.REFERENCE_S / ((kernel[-2] + kernel[-1]) / 2.0)
            records.append(record)
            count += 1
        rounds.append(records)
    return rounds, kernel


def timed_rounds(workload, first_round, seconds: float):
    """Whole rounds until the next one would end more than half a round late."""

    def next_round(elapsed, done):
        if done == 0:
            return first_round
        if elapsed + 0.5 * elapsed / done >= seconds:
            return None
        return workload.round()

    return next_round


def set_up(name: str, seed: int, out: Path):
    """Imports, the first round's inputs and one warm-up invocation."""
    modules = import_program()
    workload = workloads.make(name, seed)
    first_round = workload.round()
    execute(modules, workloads.warmup_op(name), out / "warmup")
    return modules, workload, first_round, time.perf_counter() - SETUP_START


def probe_setup(args, out: Path) -> float:
    """Set-up time of a fresh process, as the probe child reports it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def output_files(record: Record):
    names = ("sweep.csv",) if record.op.command == "sweep" else ("trace.csv", "summary.json")
    return [record.out_dir / n for n in names]


def same_outputs(a: Record, b: Record) -> bool:
    return all(x.is_file() and y.is_file() and x.read_bytes() == y.read_bytes()
               for x, y in zip(output_files(a), output_files(b)))


def check(record: Record):
    """(problems, flows, steps) of one invocation."""
    op, where = record.op, f"{record.out_dir.name} {record.op.label}"
    if record.code == op.expect_exit != 0:
        # the known failure: it must fail the same way and leave no trace
        left = [p.name for p in output_files(record) if p.exists()]
        return ([f"{where}: failed run left {left}"] if left else []), 0, 0
    if record.code != 0:
        return [f"{where}: exit {record.code}: {record.stderr[-300:]}"], 0, 0
    if op.command == "sweep":
        rows = oracle.read_sweep(record.out_dir / "sweep.csv")
        cap = op.config["run"]["steps"]
        steps = sum(cap if r["steps_to_plateau"] < 0 else r["steps_to_plateau"] for r in rows)
        problems = oracle.check_sweep(op.config, op.grid, rows)
        return [f"{where}: {p}" for p in problems], len(rows), steps
    trace = oracle.read_trace(record.out_dir / "trace.csv")
    summary = json.loads((record.out_dir / "summary.json").read_text(encoding="utf-8"))
    problems = oracle.check_run(op.config, trace, summary)
    return [f"{where}: {p}" for p in problems], 1, int(summary["final"]["steps_run"])


def checked(record: Record):
    try:
        return check(record)
    except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
        return [f"{record.out_dir.name}: cannot check outputs: {exc!r}"], 0, 0


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def layer_metrics(tracer, rounds, replays) -> dict:
    """Per-invocation means of each layer's self time (reference seconds) and calls."""
    records = [r for rs in rounds for r in rs]
    n = len(records)
    self_s, calls = tracer.summary(n)
    scale = np.array([r.scaled / r.wall for r in records])
    layer = dict(zip(tracing.LAYERS, (self_s * scale[:, None]).sum(axis=0)))
    graph_calls = sum(v for k, v in calls.items() if k.startswith("graphs."))
    step_calls = sum(v for k, v in calls.items()
                     if tracing.WRAPPED[tuple(k.split("."))] == "dynamics.step")
    written = sum(p.stat().st_size for r in records for p in output_files(r) if p.exists())
    untraced = sum(r.scaled for rs in replays for r in rs)
    totals = {
        "graphs.build_s": (layer["graphs.build"], "s"),
        "graphs.calls": (graph_calls, "count"),
        "spectral.eigh_s": (layer["spectral.eigh"], "s"),
        "spectral.eigh_calls": (calls["spectral.eigh"], "count"),
        "framelets.build_s": (layer["framelets.build"], "s"),
        "framelets.build_calls": (calls["framelets.build_framelet_system"], "count"),
        "dynamics.step_s": (layer["dynamics.step"], "s"),
        "dynamics.steps": (step_calls, "count"),
        "dynamics.loop_self_s": (layer["dynamics.loop"], "s"),
        "energies.record_s": (layer["energies.record"], "s"),
        "energies.record_calls": (calls["dynamics.dirichlet_energy"], "count"),
        "analysis.predict_s": (layer["analysis.predict"], "s"),
        "analysis.classify_s": (layer["analysis.classify"], "s"),
        "cli.assemble_self_s": (layer["cli.assemble"], "s"),
        "cli.main_self_s": (layer["cli.main"], "s"),
        "cli.write_s": (layer["cli.write"], "s"),
        "cli.bytes_written": (written, "B"),
        "tracing_overhead_s": (sum(r.scaled for r in records) - untraced, "s"),
    }
    metrics = {k: {"value": float(v) / n, "unit": u} for k, (v, u) in totals.items()}
    covered = self_s.sum(axis=1) / np.array([r.wall for r in records])
    metrics["trace.accounted_share"] = {"value": float(covered.min()), "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        out = Path(args.setup_probe)
        shutil.rmtree(out, ignore_errors=True)
        print(set_up(args.workload, args.seed, out)[3])
        return 0

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        modules, workload, first_round, setup_s = set_up(args.workload, args.seed, out)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = machine_info()
    print(f"machine: {json.dumps(info)}", file=sys.stderr)
    problems = []

    if args.trace:
        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            rounds, kernel = run_rounds(modules, timed_rounds(workload, first_round, args.seconds / 2),
                                        out, "op", tracer)
        finally:
            tracer.uninstall()
        tracer.write(out / "spans.csv")
        # the same invocations again, untraced: the difference is the tracing overhead
        replays, _ = run_rounds(
            modules, lambda _, done: [r.op for r in rounds[done]] if done < len(rounds) else None,
            out, "replay")
        problems += [f"{r.out_dir.name}: traced and untraced outputs differ"
                     for rs, qs in zip(rounds, replays) for r, q in zip(rs, qs)
                     if r.code == 0 and not same_outputs(r, q)]
    else:
        setup_samples = [setup_s] + [probe_setup(args, out / f"probe{i}") for i in range(SETUP_PROBES)]
        rounds, kernel = run_rounds(modules, timed_rounds(workload, first_round, args.seconds), out, "op")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = rounds[0][0]
        repeat = execute(modules, first.op, out / "repeat")
        if not same_outputs(first, repeat):
            problems.append(f"{first.out_dir.name}: repeated invocation gave different bytes")

    records = [r for rs in rounds for r in rs]
    counted = [[checked(r) for r in rs] for rs in rounds]  # (problems, flows, steps)
    problems += [p for cs in counted for c in cs for p in c[0]]
    flows = sum(c[1] for cs in counted for c in cs)
    steps = sum(c[2] for cs in counted for c in cs)
    failed = sum(r.code != 0 for r in records)

    if args.trace:
        metrics = layer_metrics(tracer, rounds, replays)
        if metrics["trace.accounted_share"]["value"] < ACCOUNTED_MIN:
            problems.append("layer self times leave more than 1% of an operation unaccounted")
    else:
        # rates are medians over rounds: a round that straddles a change in
        # machine speed is mis-scaled, and one such round must not move the figure
        rates = [(sum(c[1] for c in cs), sum(c[2] for c in cs), sum(r.scaled for r in rs))
                 for rs, cs in zip(rounds, counted)]
        metrics = {
            "flows_per_s": {"value": statistics.median(f / t for f, _, t in rates), "unit": "1/s"},
            "steps_per_s": {"value": statistics.median(s / t for _, s, t in rates), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(r.scaled for r in records), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=len(rounds),
                  flows=flows, steps=steps, problems=problems, machine=info,
                  setup_samples_s=None if args.trace else setup_samples,
                  kernel_s=kernel, wall_s=sum(r.wall for r in records),
                  ops=[{"label": r.op.label, "wall_s": r.wall, "scaled_s": r.scaled,
                        "exit": r.code} for r in records])
    (out / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for path in out.iterdir():
        if path.is_dir() and not problems:
            shutil.rmtree(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
