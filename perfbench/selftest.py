"""Self-tests of the benchmark itself, run from the repository root:

    python3 perfbench/selftest.py

For every workload, with one fixed seed and the smallest schedule:
  * two traced runs report exactly the same counters (every per-layer
    metric except self times), and every op passes its check;
  * each per-layer metric is non-zero on the workloads that README.md says
    it drives, and zero where README.md predicts it cannot move;
  * an untraced run of the same schedule gives the tracing overhead, as
    traced ops_per_s against untraced ops_per_s.
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 1
SECONDS = 1

SV = ("sv_simple", "sv_pea")
NOT_SV = ("analytic_scale", "cli_repro")
STATEVECTOR_KERNELS = [f"statevector.{name}" for name in LAYERS["statevector"]
                       if name != "sample_bit"]

# (metrics, workloads where each is non-zero, workloads where each is zero)
PREDICTIONS = [
    ([f"statevector.{k}.self_s" for k in ("apply_phase_flip", "controlled_apply",
                                          "apply_diffusion", "apply_hadamard")]
     + ["grover.g_applications", "statevector.amps_touched", "grover.g_apps_per_model_cost",
        "statevector.state_bytes_peak"],
     SV, NOT_SV),
    ([f"{k}.calls" for k in STATEVECTOR_KERNELS], (), NOT_SV),
    (["statevector.probability_of_one.calls"], ("sv_simple",), ("sv_pea",)),
    (["pea.inverse_qft.self_s", "statevector.register_probabilities.self_s",
      "pea.pea_state.self_s"], ("sv_pea",), ("sv_simple",) + NOT_SV),
    (["simple_count.step_state.self_s"], ("sv_simple",), ("sv_pea",) + NOT_SV),
    (["grover.marked_count.self_s", "oracles.select.indices"],
     ("analytic_scale", "cli_repro") + SV, ()),
    (["simple_count.ensure_minority.self_s"], ("analytic_scale", "cli_repro"), SV),
    (["oracles.marked_indices.self_s", "simple_count.doublings"],
     ("analytic_scale",), SV + ("cli_repro",)),
    (["oracles.ExplicitSetOracle.self_s", "oracles.ExplicitSetOracle.indices"],
     ("analytic_scale",) + SV + ("cli_repro",), ()),
    (["cli.main.self_s", "cli.cmd_repro.self_s", "cli.cmd_sweep.self_s",
      "charts.line_chart.self_s", "statevector.sample_bit.self_s",
      "analytic.p1_exact.self_s", "analytic.pea_distribution.self_s"],
     ("cli_repro",), SV),
    (["cli.cmd_run.self_s", "cli.bytes_written"], ("analytic_scale",), SV),
    (["statevector.sample_bit.calls"], ("cli_repro",), SV + ("analytic_scale",)),
    (["pea.run_pea.self_s"], ("sv_pea", "analytic_scale", "cli_repro"), ("sv_simple",)),
    ([f"{module}.errors" for module in LAYERS], (), SV + NOT_SV),
]


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_counter(name: str) -> bool:
    return not name.endswith(".self_s") and name != "bench.traced_ops_per_s"


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        known = len(problems)
        first, second, plain = run(workload, 1), run(workload, 1), run(workload, 0)
        for result in (first, second, plain):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {result['failed']} failed ops")
        a = {k: v["value"] for k, v in first["metrics"].items()}
        b = {k: v["value"] for k, v in second["metrics"].items()}
        for name in sorted(a):
            if is_counter(name) and a[name] != b[name]:
                problems.append(f"{workload}: {name} {a[name]} != {b[name]} on a repeat")
        for metrics, nonzero, zero in PREDICTIONS:
            for name in metrics:
                if workload in nonzero and not a[name]:
                    problems.append(f"{workload}: {name} is 0, predicted non-zero")
                if workload in zero and a[name]:
                    problems.append(f"{workload}: {name} is {a[name]}, predicted 0")
        traced = a["bench.traced_ops_per_s"]
        untraced = plain["metrics"]["ops_per_s"]["value"]
        status = "ok" if len(problems) == known else "FAILED"
        print(f"{workload}: {status}; tracing overhead: traced {traced:.4g} ops/s "
              f"vs untraced {untraced:.4g} ops/s ({traced / untraced:.3f}x)", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
