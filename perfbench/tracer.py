"""Spans around the calls into each frameflow layer, recorded from outside.

The CLI and the flow loop look their collaborators up as module attributes
at call time, so replacing those attributes with timing wrappers puts a span
on every call into a layer without touching the program.  Spans (operation,
function, parent, start, end) stay in memory and are written out at the end;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List

import numpy as np

# (module, attribute) -> layer.  The energies the flow loop calls are the
# names `dynamics` imported from `energies`; each is called once per record.
WRAPPED = {
    ("cli", "main"): "cli.main",
    ("cli", "run_config"): "cli.main",
    ("cli", "sweep_config"): "cli.main",
    ("cli", "assemble"): "cli.assemble",
    ("cli", "write_trace_csv"): "cli.write",
    ("graphs", "generate_graph"): "graphs.build",
    ("graphs", "normalized_adjacency"): "graphs.build",
    ("graphs", "normalized_laplacian"): "graphs.build",
    ("spectral", "eigh"): "spectral.eigh",
    ("framelets", "build_framelet_system"): "framelets.build",
    ("dynamics", "run_flow"): "dynamics.loop",
    ("dynamics", "step_spatial_framelet"): "dynamics.step",
    ("dynamics", "step_gradf_ufg"): "dynamics.step",
    ("dynamics", "step_ee_ufg"): "dynamics.step",
    ("dynamics", "step_spectral_framelet"): "dynamics.step",
    ("dynamics", "step_activated"): "dynamics.step",
    ("dynamics", "perturbed_closed_form"): "dynamics.step",
    ("dynamics", "dirichlet_energy"): "energies.record",
    ("dynamics", "total_framelet_energy"): "energies.record",
    ("dynamics", "spectral_energy"): "energies.record",
    ("dynamics", "perturbed_energy"): "energies.record",
    ("analysis", "dominant_frequency"): "analysis.predict",
    ("analysis", "classify_dominance"): "analysis.classify",
}
FUNCTIONS = sorted(WRAPPED)
LAYERS = sorted(set(WRAPPED.values()))


class Tracer:
    """Installs the wrappers, collects spans, and restores the modules."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.originals: Dict[tuple, object] = {}
        self.op = -1
        self.span_op: List[int] = []
        self.span_fn: List[int] = []
        self.span_parent: List[int] = []
        self.span_start: List[int] = []
        self.span_end: List[int] = []
        self.stack: List[int] = []

    def _wrap(self, fn_index: int, original):
        op_list, fn_list, parent_list = self.span_op, self.span_fn, self.span_parent
        start_list, end_list, stack, clock = self.span_start, self.span_end, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start_list)
            op_list.append(self.op)
            fn_list.append(fn_index)
            parent_list.append(stack[-1] if stack else -1)
            end_list.append(0)
            stack.append(sid)
            start_list.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end_list[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for i, (mod, name) in enumerate(FUNCTIONS):
            original = getattr(self.modules[mod], name)
            self.originals[(mod, name)] = original
            setattr(self.modules[mod], name, self._wrap(i, original))

    def uninstall(self) -> None:
        for (mod, name), original in self.originals.items():
            setattr(self.modules[mod], name, original)
        self.originals.clear()

    def arrays(self):
        """(operation, function, self nanoseconds) of every span."""
        start = np.asarray(self.span_start, dtype=np.int64)
        dur = np.asarray(self.span_end, dtype=np.int64) - start
        parent = np.asarray(self.span_parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return np.asarray(self.span_op), np.asarray(self.span_fn), dur - child

    def summary(self, ops: int):
        """(self seconds per operation and layer, call count per function)."""
        op, fn, self_ns = self.arrays()
        layer_of_fn = np.array([LAYERS.index(WRAPPED[f]) for f in FUNCTIONS])
        self_s = np.zeros((ops, len(LAYERS)))
        np.add.at(self_s, (op, layer_of_fn[fn]), self_ns / 1e9)
        calls = {".".join(f): int(np.sum(fn == i)) for i, f in enumerate(FUNCTIONS)}
        return self_s, calls

    def write(self, path: Path) -> None:
        ops, fns, self_ns = self.arrays()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,op,function,parent,start_ns,end_ns,self_ns\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{ops[i]},{'.'.join(FUNCTIONS[fns[i]])},{self.span_parent[i]},"
                    f"{self.span_start[i]},{self.span_end[i]},{self_ns[i]}\n"
                )
