#!/usr/bin/env python3
"""One-off reference figures for sizes no workload reaches.

    python3 perfbench/reference_figures.py [--sizes 50,100,200,400]

For each n, one traced ``frameflow run`` of exactly 200 steps (ER graph with
p = 0.1, spatial_framelet, J = 2, c = 4, renormalized, plateau window longer
than the run) reports the self time of ``spectral.eigh`` and of the flow
loop with its step kernel and per-step record, from the same spans the
benchmark's traced run records.  ``numpy.linalg.eigh`` on the same Laplacian
is timed for comparison, with the largest eigenvalue difference.  Times are
wall seconds on this machine, not reference seconds, and each is a single
measurement.  Prints a markdown table.
"""

import argparse
import json
import shutil
import time

import numpy as np

import tracer as tracing
import workloads
from run import OUT, execute, import_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="50,100,200,400")
    sizes = [int(s) for s in parser.parse_args().sizes.split(",")]
    modules = import_program()
    out = OUT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    rows = {k: [] for k in ("spectral.eigh (Jacobi)", "numpy.linalg.eigh", "max abs eigenvalue difference",
                            "run_flow, 200 steps", "... step kernel", "... per-step record")}
    for n in sizes:
        cfg = workloads.config({"kind": "erdos_renyi", "n": n, "p": 0.1}, {"kind": "spatial_framelet"},
                               {"lambda_w": 2.0}, channels=4, steps=200, gseed=n, iseed=n + 1, tau=1.0)
        cfg["run"]["plateau_window"] = 1000
        spectral = modules["spectral"]
        jacobi_eigh, captured = spectral.eigh, {}

        def capture(m):  # keep the Laplacian and its spectrum for the comparison
            captured["lap"], captured["spectrum"] = m, jacobi_eigh(m)
            return captured["spectrum"]

        spectral.eigh = capture
        tracer = tracing.Tracer(modules)
        tracer.install()
        tracer.op = 0
        try:
            record = execute(modules, workloads.Op(f"n{n}", "run", cfg), out / f"n{n}")
        finally:
            tracer.uninstall()
            spectral.eigh = jacobi_eigh
        summary = json.loads((record.out_dir / "summary.json").read_text(encoding="utf-8"))
        if record.code != 0 or summary["final"]["steps_run"] != 200:
            raise RuntimeError(f"n={n}: exit {record.code}, {record.stderr}")
        self_s, _ = tracer.summary(1)
        layer = dict(zip(tracing.LAYERS, self_s[0]))
        numpy_start = time.perf_counter()
        lam, _ = np.linalg.eigh(captured["lap"])
        numpy_s = time.perf_counter() - numpy_start
        loop = layer["dynamics.loop"] + layer["dynamics.step"] + layer["energies.record"]
        rows["spectral.eigh (Jacobi)"].append(f"{layer['spectral.eigh']:.3g} s")
        rows["numpy.linalg.eigh"].append(f"{numpy_s:.2g} s")
        rows["max abs eigenvalue difference"].append(f"{np.max(np.abs(captured['spectrum'].eigenvalues - lam)):.0e}")
        rows["run_flow, 200 steps"].append(f"{loop:.3g} s")
        rows["... step kernel"].append(f"{layer['dynamics.step']:.3g} s")
        rows["... per-step record"].append(f"{layer['energies.record']:.3g} s")
    shutil.rmtree(out, ignore_errors=True)
    print("| layer | " + " | ".join(f"n={n}" for n in sizes) + " |")
    print("| --- |" + " --- |" * len(sizes))
    for name, cells in rows.items():
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
