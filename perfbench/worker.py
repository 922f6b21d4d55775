"""One benchmark process: import qcount, run the scheduled ops, check them.

Usage: python worker.py JOB.json RESULT.json

The job names the workload ops (op 0 is the cold op), whether to trace, and
a scratch directory for CLI output. Each op is timed on its own; its result
is checked afterwards, outside the timed interval and with tracing paused.
The host-speed kernel of calib.py runs right after the cold op (so that op
stays cold) and then before a warm op whenever a second has passed since it
last ran. The result file holds every op latency, the kernel time that
applies to each op, the failed op indices, the peak RSS and (when traced) the
per-layer metrics.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

from calib import Calibrator

HERE = Path(__file__).resolve().parent
MAX_REPORTED_FAILURES = 5
CALIBRATE_EVERY_S = 1.0


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _splitmix64(x: int) -> int:
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def _derive_seed(base: int, index: int) -> int:
    """The documented per-row seed contract: splitmix64 of base, then of (x ^ index)."""
    return _splitmix64(_splitmix64(base) ^ index)


class Ops:
    """Runs and checks ops against one imported qcount."""

    def __init__(self, tmp: Path):
        import numpy as np

        import qcount
        import qcount.cli

        self.np = np
        self.qcount = qcount
        self.cli = qcount.cli
        self.tmp = tmp
        self.digests = json.loads((HERE / "repro_digests.json").read_text())

    # -- ops (timed) -----------------------------------------------------------

    def run(self, op: dict):
        q = self.qcount
        kind = op["kind"]
        if kind == "sv_simple":
            problem = q.GroverProblem(op["n"], q.parse_oracle(op["oracle"], op["n"]))
            return q.run_simple_count(problem, q.CountingConfig(engine="statevector"))
        if kind == "sv_pea":
            problem = q.GroverProblem(op["n"], q.parse_oracle(op["oracle"], op["n"]))
            return q.run_pea(problem, q.PEAConfig(t=op["t"], engine="statevector"))
        if kind == "cli_run":
            return self.cli.main(op["argv"] + ["--out", str(self.tmp / "run.json")])
        if kind == "cli_sweep":
            return self.cli.main(op["argv"] + ["--out", str(self.tmp / "sweep.csv")])
        if kind == "cli_repro":
            return self.cli.main(["repro", op["figure"], "--out-dir", str(self.tmp)])
        raise ValueError(f"unknown op kind {kind!r}")

    # -- checks (untimed) ------------------------------------------------------

    def outputs(self, op: dict) -> list[Path]:
        kind = op["kind"]
        if kind == "cli_run":
            return [self.tmp / "run.json"]
        if kind == "cli_sweep":
            return [self.tmp / "sweep.csv"]
        if kind == "cli_repro":
            return [self.tmp / f"{op['figure']}.csv", self.tmp / f"{op['figure']}.svg"]
        return []

    def check(self, op: dict, result) -> None:
        getattr(self, "_check_" + op["kind"])(op, result)

    def _check_sv_simple(self, op, est):
        q, M, N = self.qcount, op["M"], 1 << op["n"]
        _require(abs(est.m_hat - M) <= 1e-6 * M, f"m_hat {est.m_hat} != M {M}")
        bound = q.halt_bound(N, M)
        _require(est.k_final in (bound, bound - 1), f"k_final {est.k_final}, bound {bound}")
        angle = q.grover_angle(N, M)
        for step in est.trace:
            expected = q.p1_exact(step.k, angle)
            _require(abs(step.p1_hat - expected) <= 1e-10,
                     f"step {step.k}: p1 {step.p1_hat} vs exact {expected}")

    def _check_sv_pea(self, op, res):
        q = self.qcount
        dist = q.pea_distribution(op["t"], q.grover_angle(1 << op["n"], op["M"]))
        error = float(self.np.max(self.np.abs(res.histogram - dist)))
        _require(error <= 1e-9, f"histogram off pea_distribution by {error}")

    def _check_cli_run(self, op, rc):
        _require(rc == 0, f"exit code {rc}")
        out = json.loads((self.tmp / "run.json").read_text())
        M = op["M"]
        _require(out["spec"]["M"] == M, f"spec M {out['spec']['M']} != {M}")
        _require(out["spec"]["doubled"] == op["doubled"], "unexpected doubling flag")
        if op["algo"] == "simple":
            m_hat = out["result"]["m_hat"]
            _require(abs(m_hat - M) <= 1e-6 * M, f"m_hat {m_hat} != M {M}")

    def _check_cli_repro(self, op, rc):
        _require(rc == 0, f"exit code {rc}")
        expected = self.digests[op["figure"]]
        for path in self.outputs(op):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            _require(digest == expected[path.suffix[1:]], f"{path.name}: digest {digest}")

    def _check_cli_sweep(self, op, rc):
        _require(rc == 0, f"exit code {rc}")
        with open(self.tmp / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == self.cli.SWEEP_CSV_HEADER, f"header {rows[0]}")
        expected = [(n, M) for n in op["n_values"] for M in op["m_values"]]
        _require(len(rows) - 1 == len(expected), f"{len(rows) - 1} rows")
        for index, (row, (n, M)) in enumerate(zip(rows[1:], expected)):
            rec = dict(zip(rows[0], row))
            where = f"row {index}"
            _require((int(rec["row"]), int(rec["n"]), int(rec["M"])) == (index, n, M), where)
            _require(rec["error"] == "" and rec["wall_time_s"] == "", f"{where}: {rec['error']}")
            _require(int(rec["seed"]) == _derive_seed(op["seed"], index), f"{where}: seed")
            _require(int(rec["cost"]) == (1 << (int(rec["k_or_t"]) + 1)) - 1, f"{where}: cost")
            _require(0.0 <= float(rec["probability"]) <= 1.0, f"{where}: probability")
            m_hat = float(rec["m_hat"])
            _require(math.isfinite(m_hat) and m_hat >= 0.0, f"{where}: m_hat {m_hat}")


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    tmp = Path(job["tmp_dir"])
    tmp.mkdir(parents=True, exist_ok=True)
    ops = Ops(tmp)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latencies, kernel_s, failed_ops = [], [], []
    for index, op in enumerate(job["ops"]):
        if index > 0 and time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            kernel, calibrated_at = calibrator(), time.perf_counter()
        if tracer is not None:
            tracer.op = index
        failure = None
        start = time.perf_counter()
        try:
            result = ops.run(op)
        except Exception:  # an op that raises counts as failed; the run goes on
            failure = traceback.format_exc()
        latencies.append(time.perf_counter() - start)
        if index == 0:
            calibrator = Calibrator()
            kernel, calibrated_at = calibrator(), time.perf_counter()
        kernel_s.append(kernel)
        if tracer is not None:
            tracer.paused = True
            tracer.add_bytes_written(sum(p.stat().st_size for p in ops.outputs(op) if p.exists()))
        if failure is None:
            try:
                ops.check(op, result)
            except (CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
                failure = f"check failed: {exc!r}"
        if tracer is not None:
            tracer.paused = False
        if failure is not None:
            failed_ops.append(index)
            if len(failed_ops) <= MAX_REPORTED_FAILURES:
                print(f"op {index} {json.dumps(op)} failed:\n{failure}", file=sys.stderr)

    record = {
        "latencies": latencies,
        "kernel_s": kernel_s,
        "failed_ops": failed_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": ops.np.__version__,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write_spans(job["spans_path"])
    Path(result_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
