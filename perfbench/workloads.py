"""The operations each workload runs, round by round.

A round is a fixed list of CLI invocations; a run repeats whole rounds, so
every run attempts the same mix.  Operation k of a run gets graph seed
SEED_STRIDE * seed + 2k and init seed one above it: no two operations of a
run share a graph or an initial state.  The only exception is the tanh
operation, whose seeds come from the round index alone (it fails every time,
and its failure must not depend on --seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

SEED_STRIDE = 100_000
FIXED_SEED_BASE = 90_000_000
WARMUP_SEED_BASE = 80_000_000

SWEEP_GRID = (0.5, 2.0, 8.0, 64.0)  # the HFD threshold lies near 12 on these graphs
SBM_48 = {"kind": "sbm", "sizes": [24, 24], "p_in": 0.4, "p_out": 0.06}
ER_50 = {"kind": "erdos_renyi", "n": 50, "p": 0.2}
CYCLE_51 = {"kind": "cycle", "n": 51}
ER_64 = {"kind": "erdos_renyi", "n": 64, "p": 0.12}
# Step cap of the linear flows: the cycle flow under `activated` does not
# plateau, and every operation must stay near one second (see README).
LINEAR_CAP = 5000
TANH_EXIT = 15  # TraceNotNormalizedError: run_config classifies every run


@dataclass(frozen=True)
class Op:
    label: str
    command: str  # "run" or "sweep"
    config: dict
    grid: Tuple[float, ...] = ()
    expect_exit: int = 0

    def argv(self, config_path: str, out_dir: str) -> List[str]:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.command == "sweep":
            argv += ["--parameter", "lambda_w", "--grid", ",".join(repr(v) for v in self.grid),
                     "--jobs", "1"]
        return argv


def config(graph: dict, scheme: dict, weights: dict, *, channels: int, steps: int,
           gseed: int, iseed: int, renormalize: bool = True, **scalars) -> dict:
    cfg = {
        "graph": dict(graph, seed=gseed),
        "framelet": {"scales": 2, "variant": "tight"},
        "scheme": scheme,
        "weights": dict(weights, mode="scalar"),
        "init": {"mode": "random_normal", "seed": iseed, "channels": channels},
        "run": {"steps": steps, "tol": 1e-6, "plateau_window": 10, "renormalize": renormalize},
    }
    cfg.update(scalars)
    return cfg


def _sweep_round(seeds, round_index: int) -> List[Op]:
    g, i = seeds()
    cfg = config(SBM_48, {"kind": "spatial_framelet"}, {"lambda_w": 1.0},
                 channels=4, steps=2000, gseed=g, iseed=i, tau=1.0)
    return [Op("sweep_sbm48", "sweep", cfg, SWEEP_GRID)]


def _linear_round(seeds, round_index: int) -> List[Op]:
    # five operations: an odd count keeps the median invocation inside one kind
    ops = []
    for label, graph, scheme, weights, scalars in (
        ("gradf_er50", ER_50, {"kind": "gradf_ufg"}, {"lambda_w": 0.5}, {"tau": 1e-2}),
        ("activated_identity_cycle51", CYCLE_51, {"kind": "activated", "activation": "identity"},
         {"lambda_w": 0.5}, {"tau": 1e-2}),
        ("spectral_cycle51", CYCLE_51, {"kind": "spectral_framelet"}, {"lambda_w": 1.0},
         {"theta": 3.0, "tau": 1.0}),
        ("spectral_er50", ER_50, {"kind": "spectral_framelet"}, {"lambda_w": 1.0},
         {"theta": 0.5, "tau": 1.0}),
        ("perturbed_er50", ER_50, {"kind": "perturbed_closed_form"}, {"lambda_w": 1.0},
         {"epsilon": 0.5, "tau": 1e-2}),
    ):
        g, i = seeds()
        ops.append(Op(label, "run", config(graph, scheme, weights, channels=8, steps=LINEAR_CAP,
                                           gseed=g, iseed=i, **scalars)))
    return ops


def _nonlinear_round(seeds, round_index: int) -> List[Op]:
    g1, i1 = seeds()
    g2, i2 = seeds()
    fixed = FIXED_SEED_BASE + 2 * round_index
    return [
        Op("activated_relu_er64", "run",
           config(ER_64, {"kind": "activated", "activation": "relu"}, {"lambda_w": 0.5},
                  channels=8, steps=3000, gseed=g1, iseed=i1, tau=1e-2)),
        Op("ee_relu_er64", "run",
           config(ER_64, {"kind": "ee_ufg", "activation": "relu"}, {"lambda_w": 20.0},
                  channels=8, steps=3000, gseed=g2, iseed=i2, epsilon=0.1, tau=1.0)),
        Op("activated_tanh_er64", "run",
           config(ER_64, {"kind": "activated", "activation": "tanh"}, {"lambda_w": 0.5},
                  channels=8, steps=3000, gseed=fixed, iseed=fixed + 1, renormalize=False,
                  tau=1e-2),
           expect_exit=TANH_EXIT),
    ]


@dataclass
class Workload:
    make_round: Callable
    seed: int
    next_op: int = 0
    rounds: int = 0

    def _seeds(self) -> Tuple[int, int]:
        base = SEED_STRIDE * (self.seed % 2**32) + 2 * self.next_op  # numpy seeds are >= 0
        self.next_op += 1
        return base, base + 1

    def round(self) -> List[Op]:
        """Inputs of the next round; fresh seeds for every operation."""
        ops = self.make_round(self._seeds, self.rounds)
        self.rounds += 1
        return ops


WORKLOADS: Dict[str, Callable] = {
    "sweep_lambda": _sweep_round,
    "flow_linear": _linear_round,
    "flow_nonlinear": _nonlinear_round,
}


def make(name: str, seed: int) -> Workload:
    return Workload(WORKLOADS[name], seed)


def warmup_op(name: str) -> Op:
    """A small instance of the workload's invocation, run before timing starts."""
    g = WARMUP_SEED_BASE
    if name == "sweep_lambda":
        cfg = config({"kind": "sbm", "sizes": [8, 8], "p_in": 0.5, "p_out": 0.1},
                     {"kind": "spatial_framelet"}, {"lambda_w": 1.0},
                     channels=4, steps=200, gseed=g, iseed=g + 1, tau=1.0)
        return Op("warmup", "sweep", cfg, (0.5, 64.0))
    cfg = config({"kind": "erdos_renyi", "n": 16, "p": 0.4}, {"kind": "gradf_ufg"},
                 {"lambda_w": 0.5}, channels=8, steps=200, gseed=g, iseed=g + 1, tau=1e-2)
    return Op("warmup", "run", cfg)
