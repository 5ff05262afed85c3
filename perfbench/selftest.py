#!/usr/bin/env python3
"""Self-tests of the benchmark's checks, on graphs of at most 20 nodes.

    python3 perfbench/selftest.py

For each scheme the workloads use, the program is run once as configured and
once with tau off by 1%.  The run check must pass on the first output and
fail on: a dirichlet_normalized row shifted by 1e-8, the tau-off output
checked against the configured tau, and a swapped verdict.  The sweep check
must pass on a sweep and fail on a shifted limit and a swapped verdict (a
sweep row has no norm column, so tau, which only scales these steps, cannot
show in it).  Exits 1 if any expectation is not met.
"""

import copy
import json
import shutil
import sys

import oracle
import workloads
from run import OUT, execute, import_program

SWAP = {"LFD": "HFD", "HFD": "LFD", "MIXED": "LFD", "UNDECIDED": "LFD"}
ER_20 = {"kind": "erdos_renyi", "n": 20, "p": 0.3}
CYCLE_15 = {"kind": "cycle", "n": 15}


def cases():
    c = workloads.config
    yield "gradf_er20", c(ER_20, {"kind": "gradf_ufg"}, {"lambda_w": 0.5}, channels=3,
                          steps=3000, gseed=1, iseed=2, tau=1e-2)
    yield "activated_identity_cycle15", c(CYCLE_15, {"kind": "activated", "activation": "identity"},
                                          {"lambda_w": 0.5}, channels=3, steps=2000, gseed=3,
                                          iseed=4, tau=1e-2)
    yield "spectral_cycle15", c(CYCLE_15, {"kind": "spectral_framelet"}, {"lambda_w": 1.0},
                                channels=3, steps=3000, gseed=5, iseed=6, theta=3.0, tau=1.0)
    yield "perturbed_er20", c(ER_20, {"kind": "perturbed_closed_form"}, {"lambda_w": 1.0},
                              channels=3, steps=3000, gseed=7, iseed=8, epsilon=0.5, tau=1e-2)
    yield "spatial_er20", c(ER_20, {"kind": "spatial_framelet"}, {"lambda_w": 64.0}, channels=3,
                            steps=3000, gseed=9, iseed=10, tau=1.0)
    yield "activated_relu_er20", c(ER_20, {"kind": "activated", "activation": "relu"},
                                   {"lambda_w": 0.5}, channels=3, steps=500, gseed=11, iseed=12,
                                   tau=1e-2)
    yield "ee_relu_er20", c(ER_20, {"kind": "ee_ufg", "activation": "relu"}, {"lambda_w": 20.0},
                            channels=3, steps=500, gseed=13, iseed=14, epsilon=0.1, tau=1.0)


def run_outputs(modules, op, out):
    record = execute(modules, op, out)
    if record.code != 0:
        raise RuntimeError(f"{op.label}: exit {record.code}: {record.stderr}")
    if op.command == "sweep":
        return oracle.read_sweep(out / "sweep.csv")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return oracle.read_trace(out / "trace.csv"), summary


def main() -> int:
    modules = import_program()
    out = OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    misses = []

    def expect(name, problems, should_pass):
        ok = (not problems) == should_pass
        print(f"{'ok  ' if ok else 'MISS'} {name}: {'pass' if not problems else problems[0]}")
        if not ok:
            misses.append(name)

    for label, cfg in cases():
        trace, summary = run_outputs(modules, workloads.Op(label, "run", cfg), out / label)
        expect(f"{label} unmodified", oracle.check_run(cfg, trace, summary), True)
        shifted = trace.copy()
        shifted[len(trace) // 2, 2] += 1e-8
        expect(f"{label} row shifted by 1e-8", oracle.check_run(cfg, shifted, summary), False)
        if cfg["scheme"]["kind"] != "ee_ufg":  # ee_ufg steps have no tau
            off = dict(cfg, tau=cfg["tau"] * 1.01)
            off_trace, off_summary = run_outputs(modules, workloads.Op(label, "run", off),
                                                 out / f"{label}-tau")
            expect(f"{label} tau off by 1%", oracle.check_run(cfg, off_trace, off_summary), False)
        for field in ("dominance", "predicted"):
            swapped = copy.deepcopy(summary)
            swapped["verdict"][field] = SWAP[swapped["verdict"][field]]
            expect(f"{label} swapped {field}", oracle.check_run(cfg, trace, swapped), False)

    sweep = workloads.warmup_op("sweep_lambda")
    sweep = workloads.Op("sweep_sbm16", "sweep", sweep.config, (0.5, 2.0, 64.0))
    rows = run_outputs(modules, sweep, out / "sweep")
    expect("sweep unmodified", oracle.check_sweep(sweep.config, sweep.grid, rows), True)
    for i in range(len(rows)):
        shifted = copy.deepcopy(rows)
        shifted[i]["limit_value"] += 1e-8
        expect(f"sweep row {i} shifted by 1e-8", oracle.check_sweep(sweep.config, sweep.grid, shifted), False)
        for field in ("measured", "predicted"):
            swapped = copy.deepcopy(rows)
            swapped[i][field] = SWAP[swapped[i][field]]
            expect(f"sweep row {i} swapped {field}",
                   oracle.check_sweep(sweep.config, sweep.grid, swapped), False)

    shutil.rmtree(out, ignore_errors=True)
    print(f"{len(misses)} expectation(s) missed" if misses else "all expectations met")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
