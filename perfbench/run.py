"""qcount benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sv_simple --seed 1 --seconds 15 --trace 0

Workloads: sv_simple, sv_pea, analytic_scale, cli_repro (see README.md).
Each is a closed loop with one client: one op at a time in one process.

--trace 0 measures the end-to-end metrics with tracing off. Timings are
scaled to the reference host speed with the calibration kernel of calib.py
(the raw values are printed too):
  setup_s      median time for a fresh interpreter to import qcount.cli
  cold_op_s    median latency of the first op in a fresh process
  ops_per_s    correct warm ops per second of warm op time
  op_p50_s     median warm op latency
  op_tail_s    11th-slowest warm op: the highest percentile with at least
               10 samples beyond it (the percentile and count are printed)
  peak_rss_mb  peak resident memory of the process that runs the workload
--trace 1 runs the same schedule once with the outside-in tracer and
reports the per-layer metrics instead, plus bench.traced_ops_per_s.

Every op's output is checked outside its timed interval. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Run records and span files go to .perfbench_out/ under the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calib import NOMINAL_S
from tracer import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_op_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def child_env(nproc: int) -> dict[str, str]:
    """Environment for child interpreters: qcount from src/, math threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = 0
        env[var] = str(min(current, nproc) if current > 0 else nproc)
    return env


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    def __init__(self, env: dict[str, str], scratch: Path, deadline: float):
        self.env = env
        self.scratch = scratch
        self.deadline = deadline
        self.jobs = 0

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def import_time(self) -> tuple[float, float]:
        """Seconds from spawning a fresh interpreter until it has imported qcount.cli,
        and the calibration kernel time measured in that interpreter afterwards.

        The child reads the same monotonic clock once the import is done, so
        process exit and the parent's wait are not counted.
        """
        code = (f"import qcount.cli, sys, time; t = time.perf_counter(); "
                f"sys.path.insert(0, {str(HERE)!r}); from calib import Calibrator; "
                f"print(repr(t), repr(Calibrator()()))")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True,
                              text=True, timeout=self._remaining(), check=False)
        if proc.returncode != 0:
            raise BenchError(f"importing qcount.cli failed:\n{proc.stderr}")
        done, kernel = map(float, proc.stdout.split())
        return done - start, kernel

    def worker(self, ops: list[dict], trace: bool, spans_path: Path | None = None) -> dict:
        """Run ops in a fresh worker process and return its result record."""
        self.jobs += 1
        job_path = self.scratch / f"job{self.jobs}.json"
        result_path = self.scratch / f"result{self.jobs}.json"
        job = {"ops": ops, "trace": trace, "tmp_dir": str(self.scratch / f"out{self.jobs}"),
               "spans_path": str(spans_path) if spans_path else None}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path),
                               str(result_path)], env=self.env, stdout=subprocess.DEVNULL,
                              timeout=self._remaining(), check=False)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads(result_path.read_text())


def tail(warm: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the warm op with exactly TAIL_BEYOND slower ops."""
    n = len(warm)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} warm ops; the tail needs more than {TAIL_BEYOND}")
    return sorted(warm)[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def scaled(latencies: list[float], kernel_s: list[float]) -> list[float]:
    """Latencies at the reference host speed (see calib.py)."""
    return [t * NOMINAL_S / k for t, k in zip(latencies, kernel_s)]


def summarize(setup: list[float], cold: list[float], warm: list[float], warm_failed: int) -> dict:
    tail_s, _ = tail(warm)
    return {
        "setup_s": statistics.median(setup),
        "cold_op_s": statistics.median(cold),
        "ops_per_s": (len(warm) - warm_failed) / sum(warm),
        "op_p50_s": statistics.median(warm),
        "op_tail_s": tail_s,
    }


def end_to_end(runner: Runner, ops: list[dict], cold_samples: int) -> tuple[dict, dict, int, int]:
    setup, setup_kernel = map(list, zip(*(runner.import_time() for _ in range(SETUP_SAMPLES))))
    workers = [runner.worker(ops[:1], False) for _ in range(cold_samples - 1)]
    main = runner.worker(ops, False)
    workers.append(main)
    cold = [w["latencies"][0] for w in workers]
    cold_kernel = [w["kernel_s"][0] for w in workers]
    warm, warm_kernel = main["latencies"][1:], main["kernel_s"][1:]
    warm_failed = sum(1 for i in main["failed_ops"] if i > 0)
    metrics = summarize(scaled(setup, setup_kernel), scaled(cold, cold_kernel),
                        scaled(warm, warm_kernel), warm_failed)
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    attempted = sum(len(w["latencies"]) for w in workers)
    failed = sum(len(w["failed_ops"]) for w in workers)
    info = {"warm_ops": len(warm), "tail_percentile": round(tail(warm)[1], 2),
            "tail_beyond": TAIL_BEYOND, "failed_frac": failed / attempted,
            "raw_metrics": summarize(setup, cold, warm, warm_failed),
            "kernel_s": statistics.median(setup_kernel + cold_kernel + warm_kernel),
            "setup_samples": setup, "setup_kernel_s": setup_kernel,
            "cold_samples": cold, "cold_kernel_s": cold_kernel,
            "python": main["python"], "numpy": main["numpy"]}
    return metrics, info, attempted, failed


def per_layer(runner: Runner, ops: list[dict], spans_path: Path) -> tuple[dict, dict, int, int]:
    main = runner.worker(ops, True, spans_path)
    warm = scaled(main["latencies"][1:], main["kernel_s"][1:])
    warm_failed = sum(1 for i in main["failed_ops"] if i > 0)
    metrics = dict(main["layers"])
    metrics["bench.traced_ops_per_s"] = (len(warm) - warm_failed) / sum(warm)
    attempted, failed = len(main["latencies"]), len(main["failed_ops"])
    info = {"warm_ops": len(warm), "failed_frac": failed / attempted, "spans": str(spans_path),
            "python": main["python"], "numpy": main["numpy"]}
    return metrics, info, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "qcount" / "__init__.py").is_file():
        print(f"error: no qcount package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    workload = WORKLOADS[args.workload]
    ops = workload.schedule(args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
            runner = Runner(env, Path(scratch), deadline)
            if args.trace:
                metrics, info, attempted, failed = per_layer(
                    runner, ops, OUT_DIR / f"{tag}-spans.csv")
                units = metric_units()
                units["bench.traced_ops_per_s"] = "1/s"
            else:
                metrics, info, attempted, failed = end_to_end(runner, ops, workload.cold_samples)
                units = END_TO_END_UNITS
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(ops), "attempted": attempted, "failed": failed,
        "nproc": nproc, "git_sha": git_sha(),
        "threads": {var: env[var] for var in THREAD_VARS},
        **info, "metrics": metrics,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for key in ("workload", "seed", "seconds", "trace", "nproc", "python", "numpy", "git_sha"):
        print(f"{key}: {record[key]}")
    print("threads: " + " ".join(f"{k}={v}" for k, v in record["threads"].items()))
    print(f"ops: {attempted} attempted, {failed} failed, failed_frac {info['failed_frac']}")
    if not args.trace:
        print(f"op_tail_s: p{info['tail_percentile']} of {info['warm_ops']} warm ops "
              f"({TAIL_BEYOND} slower)")
        print(f"host speed: calibration kernel {info['kernel_s'] * 1e3:.3f} ms "
              f"(nominal {NOMINAL_S * 1e3:.3f} ms); unscaled: " + ", ".join(
                  f"{k} {v:.6g} {units[k]}" for k, v in info["raw_metrics"].items()))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
