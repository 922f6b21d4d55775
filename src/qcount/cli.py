"""Command-line experiment harness.

Subcommands: ``run`` (one counting run), ``sweep`` (cartesian parameter
sweeps to CSV), ``repro`` (canned desk-scale experiment configurations with
CSV + SVG output), ``selftest`` (fast internal consistency checks).

Exit codes: 0 success, 2 invalid arguments, spec or output path, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .charts import Series, line_chart
from .grover import ENGINES, GroverProblem, grover_angle, marked_count
from .oracles import ExplicitSetOracle, PrefixOracle, parse_oracle
from .pea import PEAConfig, PEAResult, mirror_outcome, pea_cost, run_pea
from .simple_count import (
    CountEstimate,
    CountingConfig,
    ensure_minority,
    postprocess_arccos,
    run_simple_count,
)
from .statevector import ResourceLimitError, derive_seed

RUN_CSV_HEADER_SIMPLE = [
    "algorithm", "n", "n_run", "N", "M", "oracle", "engine", "shots", "seed",
    "threshold", "k_final", "p1_final", "theta_hat", "m_hat", "optimal_iterations",
    "halted_on_threshold", "cost",
]
RUN_CSV_HEADER_PEA = [
    "algorithm", "n", "n_run", "N", "M", "oracle", "engine", "shots", "seed", "t",
    "best_pair_lo", "best_pair_hi", "pair_probability", "phi_hat", "m_hat", "cost",
]
SWEEP_CSV_HEADER = [
    "row", "n", "M", "algorithm", "k_or_t", "probability", "m_hat", "cost",
    "seed", "wall_time_s", "error",
]
REPRO_CSV_HEADER = ["series", "x", "m_hat", "probability", "shots"]


def _fmt(value) -> str:
    """CSV cell: floats at 12 significant digits, everything else verbatim."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` with each numpy array as its ``.tolist()``, at indent ``pad``.

    With ``indent`` set, json encodes in pure Python, one value per call. A
    non-empty 1-D array, plain or a record array of numeric fields, takes one
    call of json's C encoder instead and is re-indented with ``str.replace``:
    a number's text holds no ``", "`` or bracket. A dict holding an array or a
    dict is written key by key (its keys must be str); any other value takes
    one ``json.dumps(..., indent=2)``.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and any(isinstance(v, (dict, np.ndarray)) for v in obj.values()):
        items = (f"{inner}{json.dumps(k)}: {_json_text(v, inner)}" for k, v in obj.items())
        return "{" + ",".join(items) + pad + "}"
    if isinstance(obj, np.ndarray) and obj.dtype.names:
        deep = inner + "  "
        body = json.dumps(obj.tolist())[2:-2].replace(", ", "," + deep)
        body = body.replace(f"],{deep}[", f"{inner}],{inner}[{deep}")
        return f"[{inner}[{deep}{body}{inner}]{pad}]"
    if isinstance(obj, np.ndarray):
        return "[" + inner + json.dumps(obj.tolist())[1:-1].replace(", ", "," + inner) + pad + "]"
    return json.dumps(obj, indent=2).replace("\n", pad)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# run

def _spec_echo(args, problem: GroverProblem) -> dict:
    """The run's spec as JSON prints it; its keys name the run CSV's spec columns."""
    echo = {
        "algorithm": args.algo,
        "n": args.n,
        "oracle": args.oracle,
        "shots": args.shots,
        "engine": args.engine,
        "seed": args.seed,
        "doubled": problem.n != args.n,
        "n_run": problem.n,
        "N": problem.N,
        "M": marked_count(problem),
    }
    if args.algo == "simple":
        echo["threshold"] = args.threshold
    else:
        echo["t"] = args.t
    return echo


def _execute(args, problem: GroverProblem, seed: int) -> CountEstimate | PEAResult:
    """Run --algo on problem with the shared estimator flags and the given seed."""
    shared = {"shots": args.shots, "engine": args.engine, "seed": seed}
    if args.algo == "simple":
        return run_simple_count(problem, CountingConfig(threshold=args.threshold, **shared))
    return run_pea(problem, PEAConfig(t=args.t, **shared))


def _estimate_json(est: CountEstimate) -> dict:
    return {
        "m_hat": est.m_hat,
        "theta_hat": est.theta_hat,
        "k_final": est.k_final,
        "optimal_iterations": est.optimal_iterations,
        "halted_on_threshold": est.halted_on_threshold,
        "controlled_grover_cost": est.controlled_grover_cost,
        "trace": [
            {"k": s.k, "K": s.K, "shots": s.shots, "ones": s.ones,
             "p0_hat": s.p0_hat, "p1_hat": s.p1_hat}
            for s in est.trace
        ],
    }


def _estimate_cells(est: CountEstimate) -> dict:
    """CSV cells of a simple result, keyed by run and sweep column name."""
    p1 = est.trace[-1].p1_hat
    return {
        "k_final": est.k_final, "p1_final": p1, "theta_hat": est.theta_hat,
        "m_hat": est.m_hat, "optimal_iterations": est.optimal_iterations,
        "halted_on_threshold": est.halted_on_threshold, "cost": est.controlled_grover_cost,
        "k_or_t": est.k_final, "probability": p1,
    }


def _pea_json(res: PEAResult) -> dict:
    lo = np.arange(res.paired_prob.size)
    return {
        "m_hat": res.m_hat,
        "phi_hat": res.phi_hat,
        "t": res.t,
        "best_pair": res.best_pair,
        "best_pair_probability": res.best_pair_probability,
        "paired_prob": np.rec.fromarrays([lo, mirror_outcome(lo, res.t), res.paired_prob]),
        "histogram": res.histogram,
        "controlled_grover_cost": res.controlled_grover_cost,
    }


def _pea_cells(res: PEAResult) -> dict:
    """CSV cells of a pea result, keyed by run and sweep column name."""
    return {
        "best_pair_lo": res.best_pair[0], "best_pair_hi": res.best_pair[1],
        "pair_probability": res.best_pair_probability, "phi_hat": res.phi_hat,
        "m_hat": res.m_hat, "cost": res.controlled_grover_cost,
        "k_or_t": res.t, "probability": res.best_pair_probability,
    }


# --algo -> (run CSV header, JSON result, CSV cells)
_READOUTS = {
    "simple": (RUN_CSV_HEADER_SIMPLE, _estimate_json, _estimate_cells),
    "pea": (RUN_CSV_HEADER_PEA, _pea_json, _pea_cells),
}


def cmd_run(args) -> int:
    """One estimator run, as CSV or as JSON byte-identical to ``json.dumps(..., indent=2)``."""
    problem = ensure_minority(GroverProblem(args.n, parse_oracle(args.oracle, args.n)))
    echo = _spec_echo(args, problem)
    result = _execute(args, problem, args.seed)
    header, to_json, to_cells = _READOUTS[args.algo]
    if args.format == "json":
        text = _json_text({"spec": echo, "result": to_json(result)}) + "\n"
    else:
        row = {**echo, **to_cells(result)}
        text = _csv_text(header, [[row[key] for key in header]])
    _write_text(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep

def _parse_int_list(text: str, flag: str) -> list[int]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"{flag} must list at least one integer")
    return [int(tok, 0) for tok in tokens]


def cmd_sweep(args) -> int:
    n_values = _parse_int_list(args.n_values, "--n-values")
    m_values = _parse_int_list(args.m_values, "--m-values")
    for M in m_values:
        if M < 0:
            raise ValueError(f"--m-values must be >= 0, got {M}")
    _, _, to_cells = _READOUTS[args.algo]

    rows = []
    for index, (n, M_requested) in enumerate(itertools.product(n_values, m_values)):
        seed = derive_seed(args.seed, index)
        started = time.perf_counter()
        try:
            oracle = PrefixOracle(n, M_requested)
            problem = ensure_minority(GroverProblem(n, oracle))
            cells, error = to_cells(_execute(args, problem, seed)), ""
        except (ValueError, ResourceLimitError) as exc:
            cells, error = {}, str(exc)
        wall = format(time.perf_counter() - started, ".6f") if args.timing else ""
        row = {"row": index, "n": n, "M": M_requested, "algorithm": args.algo,
               **cells, "seed": seed, "wall_time_s": wall, "error": error}
        rows.append([row.get(key) for key in SWEEP_CSV_HEADER])

    _write_text(_csv_text(SWEEP_CSV_HEADER, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# repro

@dataclass(frozen=True)
class FigureConfig:
    n: int
    oracle: str
    shots: int
    simple: bool = False
    pea_t: int | None = None          # single best-pair readout at this width
    pea_histogram_t: int | None = None  # full outcome histogram at this width
    pea_t_sweep: tuple[int, ...] = ()   # best-pair readout per width


FIGURES: dict[str, FigureConfig] = {
    "fig3": FigureConfig(n=3, oracle="set:7", shots=1024, simple=True),
    "fig4": FigureConfig(n=3, oracle="set:7", shots=1024, pea_histogram_t=3),
    "fig5": FigureConfig(n=3, oracle="set:6,7", shots=1024, simple=True, pea_t=3),
    "fig6": FigureConfig(n=3, oracle="set:5,6,7", shots=1024, simple=True, pea_t=3),
    "fig7": FigureConfig(n=9, oracle="mask:0x1ff", shots=100, simple=True),
    "fig8": FigureConfig(n=9, oracle="mask:0x1ff", shots=100,
                         pea_t_sweep=(3, 4, 5, 6, 7, 8)),
    "fig9": FigureConfig(n=12, oracle="mask:0xfff", shots=100, simple=True),
    "fig10": FigureConfig(n=12, oracle="mask:0x7ff", shots=100, simple=True),
    "fig11": FigureConfig(n=12, oracle="mask:0x3ff", shots=100, simple=True),
    "fig12": FigureConfig(n=12, oracle="mask:0x1ff", shots=100, simple=True, pea_t=6),
    "fig13": FigureConfig(n=12, oracle="mask:0xff", shots=100, simple=True, pea_t=6),
    "fig14": FigureConfig(n=12, oracle="mask:0x7f", shots=100, simple=True, pea_t=6),
    "fig15": FigureConfig(n=12, oracle="mask:0x3f", shots=100, simple=True, pea_t=6),
    "fig16": FigureConfig(n=12, oracle="mask:0x1f", shots=100, simple=True, pea_t=6),
}


def _simple_series_rows(est: CountEstimate) -> list[list]:
    """Per-step estimates: each step's own p(k) post-processed as if final."""
    rows = []
    for step in est.trace:
        _, m_hat = postprocess_arccos(step.p0_hat - step.p1_hat, step.k, est.N)
        rows.append(["simple", step.k, m_hat, step.p1_hat, step.shots])
    return rows


def _pea_point_rows(res: PEAResult) -> list[list]:
    return [["pea", res.t, res.m_hat, res.best_pair_probability, res.shots]]


def _pea_histogram_rows(res: PEAResult) -> list[list]:
    fractions = res.histogram / res.shots if res.shots else res.histogram
    size = 1 << res.t
    rows = []
    for j in range(size):
        phi = min(j, size - j) / size
        m_hat = res.N * math.sin(math.pi * phi) ** 2
        rows.append(["pea", j, m_hat, float(fractions[j]), res.shots])
    return rows


def cmd_repro(args) -> int:
    config = FIGURES.get(args.figure)
    if config is None:
        raise ValueError(
            f"unknown figure id {args.figure!r}; known: {', '.join(sorted(FIGURES))}"
        )
    oracle = parse_oracle(config.oracle, config.n)
    problem = ensure_minority(GroverProblem(config.n, oracle))
    true_m = marked_count(problem)

    def pea(t: int, seed: int) -> PEAResult:
        return run_pea(problem, PEAConfig(t=t, shots=config.shots, seed=seed))

    rows: list[list] = []
    if config.simple:
        est = run_simple_count(problem, CountingConfig(shots=config.shots,
                                                       seed=derive_seed(args.seed, 0)))
        rows += _simple_series_rows(est)
    if config.pea_histogram_t is not None:
        rows += _pea_histogram_rows(pea(config.pea_histogram_t, derive_seed(args.seed, 1)))
    if config.pea_t is not None:
        rows += _pea_point_rows(pea(config.pea_t, derive_seed(args.seed, 1)))
    for t in config.pea_t_sweep:
        rows += _pea_point_rows(pea(t, derive_seed(args.seed, 1, t)))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{args.figure}.csv"
    csv_path.write_text(_csv_text(REPRO_CSV_HEADER, rows), encoding="utf-8")

    if config.pea_histogram_t is not None:
        points = tuple((float(r[1]), float(r[3])) for r in rows if r[0] == "pea")
        series = [Series("outcome probability", points)]
        svg = line_chart(f"{args.figure}: estimation-register outcomes", series,
                         "outcome j", "probability")
    else:
        series = []
        for name in ("simple", "pea"):
            points = tuple((float(r[1]), float(r[2])) for r in rows if r[0] == name)
            if points:
                series.append(Series(name, points))
        svg = line_chart(f"{args.figure}: measured M", series,
                         "step k (simple) / width t (pea)", "measured M",
                         reference_y=float(true_m))
    svg_path = out_dir / f"{args.figure}.svg"
    svg_path.write_text(svg, encoding="utf-8")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


# ---------------------------------------------------------------------------
# selftest

def _selftest_checks() -> list[tuple[str, bool, str]]:
    from .analytic import circuit_state_closed_form, p1_exact, pea_distribution
    from .grover import apply_grover, build_eigenstate
    from .simple_count import halt_bound, step_state

    results = []

    def check(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not abort
            results.append((name, False, str(exc)))

    def exact_recovery():
        for n in range(2, 9):
            for M in range(1, (1 << n) // 2):
                problem = GroverProblem(n, ExplicitSetOracle(n, tuple(range(M))))
                est = run_simple_count(problem)
                assert abs(est.m_hat - M) <= 1e-6 * M, f"n={n} M={M}: {est.m_hat}"
                bound = halt_bound(problem.N, M)
                assert est.k_final in (bound, bound - 1), f"n={n} M={M}: k={est.k_final}"
                assert est.controlled_grover_cost == (1 << (est.k_final + 1)) - 1

    def eigenphase():
        problem = GroverProblem(3, ExplicitSetOracle(3, (1, 4)))
        angle = grover_angle(8, 2)
        for sign in (+1, -1):
            state = build_eigenstate(problem, sign)
            before = state.amplitudes.copy()
            apply_grover(state, problem, [0, 1, 2])
            expected = np.exp(1j * sign * angle.theta) * before
            assert np.max(np.abs(state.amplitudes - expected)) < 1e-10

    def closed_form_matches_simulation():
        problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
        angle = grover_angle(8, 1)
        simulated = []
        for k in range(0, 4):
            state = step_state(problem, k)
            p1 = float(np.sum(np.abs(state.amplitudes[8:]) ** 2))
            assert abs(p1 - p1_exact(k, angle)) < 1e-10
            coeffs = circuit_state_closed_form(k, angle)
            assert abs(sum(c * c for c in coeffs) - 1.0) < 1e-12
            simulated.append(p1)
        est = run_simple_count(problem, CountingConfig(engine="statevector"))
        for step in est.trace:
            assert abs(step.p1_hat - simulated[step.k]) < 1e-10

    def engines_agree():
        problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
        lags = np.fft.fft((8 - np.arange(8)) * np.cos(np.arange(8) * grover_angle(8, 1).theta))
        statevector = run_pea(problem, PEAConfig(t=3, engine="statevector"))
        assert np.max(np.abs((2 * lags.real - 8) / 64 - statevector.histogram)) < 1e-9
        dist = pea_distribution(3, grover_angle(8, 1))
        mirrored = dist[(-np.arange(8)) % 8]
        assert np.max(np.abs(dist - mirrored)) < 1e-12

    def cost_identities():
        for k in range(0, 11):
            assert pea_cost(k + 1) == (1 << (k + 1)) - 1

    check("exact recovery and halt window (n <= 8)", exact_recovery)
    check("Grover eigenphase", eigenphase)
    check("closed form matches simulation", closed_form_matches_simulation)
    check("estimation engines agree + pairing symmetry", engines_agree)
    check("cost identities", cost_identities)
    return results


def cmd_selftest(args) -> int:
    results = _selftest_checks()
    failed = 0
    for name, ok, message in results:
        if ok:
            print(f"ok    {name}")
        else:
            failed += 1
            print(f"FAIL  {name}: {message}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcount",
        description="Quantum counting experiments: amplitude-amplification "
                    "counting and the phase-estimation baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--shots", type=int, default=0,
                       help="measurements per step; 0 = exact probabilities (default 0)")
        p.add_argument("--engine", choices=ENGINES, default="analytic")
        p.add_argument("--threshold", type=float, default=0.5,
                       help="halting probability for the simple algorithm (default 0.5)")
        p.add_argument("--t", type=int, default=None,
                       help="estimation-register width (pea only)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    run = sub.add_parser("run", help="run one counting experiment")
    run.add_argument("--algo", choices=("simple", "pea"), required=True)
    run.add_argument("--n", type=int, required=True, help="computation-register width")
    run.add_argument("--oracle", required=True, help="oracle spec: set:3,5,12 or mask:0b101100")
    add_common(run)
    run.add_argument("--format", choices=("csv", "json"), default="json")

    sweep = sub.add_parser("sweep", help="cartesian sweep over n and M, one CSV row per run")
    sweep.add_argument("--algo", choices=("simple", "pea"), required=True)
    sweep.add_argument("--n-values", required=True, help="comma-separated register widths")
    sweep.add_argument("--m-values", required=True,
                       help="comma-separated marked counts (oracle marks the first M indices)")
    add_common(sweep)
    sweep.add_argument("--timing", action="store_true",
                       help="fill the wall_time_s column (makes output non-reproducible)")

    repro = sub.add_parser("repro", help="reproduce a canned experiment configuration")
    repro.add_argument("figure", help="figure id, fig3 through fig16")
    repro.add_argument("--out-dir", default=".", help="directory for CSV/SVG output")
    repro.add_argument("--seed", type=int, default=0)

    sub.add_parser("selftest", help="run fast internal consistency checks")
    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one ``qcount`` command and return its exit code; callable repeatedly in one process.

    The parser is built on the first call and reused. argparse usage errors raise SystemExit(2).
    """
    args = _parser().parse_args(argv)
    # Looked up per call, so a rebinding of a cmd_* module attribute takes effect.
    command = {"run": cmd_run, "sweep": cmd_sweep, "repro": cmd_repro, "selftest": cmd_selftest}
    try:
        if getattr(args, "algo", None) == "pea" and args.t is None:
            raise ValueError("--t is required for --algo pea")
        return command[args.command](args)
    except (ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimitError) else 2


if __name__ == "__main__":
    sys.exit(main())
