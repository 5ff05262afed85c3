"""The benchmark's own checks pass their self-test: each oracle accepts the
program's output and rejects a perturbed one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


@pytest.mark.parametrize("workload", ["sweep_lambda", "flow_linear", "flow_nonlinear"])
def test_traced_benchmark_round_is_correct(workload):
    """One traced round passes the traced mode's own checks too: traced and
    replayed outputs agree byte for byte, and layer self times account for
    at least 99% of every operation."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "0.2", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stderr[-2000:]


@pytest.mark.parametrize("workload", ["sweep_lambda", "flow_linear", "flow_nonlinear"])
def test_untraced_benchmark_round_is_correct(workload):
    """One untraced round passes the checks the benchmark itself makes: every
    output is correct, repeated invocations agree byte for byte, and the
    set-up probes run; only flow_nonlinear's tanh run, one invocation in
    three, fails, as designed."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "0.2", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    designed = result["attempted"] // 3 if workload == "flow_nonlinear" else 0
    assert result["attempted"] > 0 and result["failed"] == designed, result
