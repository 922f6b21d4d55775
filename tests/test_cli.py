import csv
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qcount.cli import (
    FIGURES,
    REPRO_CSV_HEADER,
    RUN_CSV_HEADER_PEA,
    RUN_CSV_HEADER_SIMPLE,
    SWEEP_CSV_HEADER,
    _estimate_json,
    _json_text,
    _pea_json,
    build_parser,
    main,
)
from qcount.grover import GroverProblem
from qcount.oracles import BitPatternOracle, ExplicitSetOracle
from qcount.pea import PEAConfig, run_pea
from qcount.simple_count import CountingConfig, halt_bound, run_simple_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_simple_json(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--algo", "simple", "--n", "12", "--oracle", "mask:0xFFF",
        "--shots", "0", "--engine", "analytic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"]["algorithm"] == "simple"
    assert payload["spec"]["M"] == 1
    assert payload["result"]["k_final"] == 6
    assert abs(payload["result"]["m_hat"] - 1.0) < 1e-6
    assert payload["result"]["controlled_grover_cost"] == 127
    assert len(payload["result"]["trace"]) == 7


def test_run_pea_json(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--algo", "pea", "--n", "3", "--oracle", "set:7",
        "--t", "3", "--shots", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["best_pair"] == [1, 7]
    assert abs(payload["result"]["best_pair_probability"] - 0.98) < 5e-3
    assert abs(payload["result"]["m_hat"] - 1.17) < 5e-3
    assert payload["result"]["controlled_grover_cost"] == 7


def test_run_reports_doubling(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--algo", "simple", "--n", "3", "--oracle", "set:0,1,2,3,4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"]["doubled"] is True
    assert payload["spec"]["n_run"] == 4
    assert payload["spec"]["N"] == 16
    assert payload["spec"]["M"] == 5
    assert abs(payload["result"]["m_hat"] - 5.0) < 1e-6


def test_run_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--algo", "simple", "--n", "4", "--oracle", "set:1",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == RUN_CSV_HEADER_SIMPLE
    assert len(rows) == 2

    code, out, _ = run_cli(
        capsys, "run", "--algo", "pea", "--n", "3", "--oracle", "set:7",
        "--t", "3", "--format", "csv",
    )
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == RUN_CSV_HEADER_PEA


def test_run_errors(capsys):
    code, _, err = run_cli(capsys, "run", "--algo", "simple", "--n", "3", "--oracle", "clique:1")
    assert code == 2 and "oracle" in err

    code, _, err = run_cli(
        capsys, "run", "--algo", "pea", "--n", "20", "--oracle", "set:1",
        "--t", "10", "--engine", "statevector",
    )
    assert code == 3 and "30" in err

    code, _, err = run_cli(capsys, "run", "--algo", "pea", "--n", "3", "--oracle", "set:1")
    assert code == 2 and "--t" in err

    code, _, err = run_cli(capsys, "run", "--algo", "pea", "--n", "3", "--oracle", "set:1",
                           "--t", "0")
    assert code == 2 and "t must be >= 1, got 0" in err


def test_csv_floats_have_12_significant_digits(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--algo", "simple", "--n", "12", "--oracle", "mask:0xfff",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    row = dict(zip(rows[0], rows[1]))
    p1 = row["p1_final"]
    assert p1 == format(float(p1), ".12g")
    assert abs(float(p1) - 0.708110421057) < 1e-12


def test_sweep_halt_column_and_cost(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--algo", "simple", "--n-values", "12",
        "--m-values", "1,2,4,8,16,32,64,128", "--shots", "0", "--out", str(out_file),
    )
    assert code == 0
    with open(out_file, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8
    for row in rows:
        assert row["error"] == ""
        M = int(row["M"])
        k = int(row["k_or_t"])
        bound = halt_bound(4096, M)
        assert k in (bound, bound - 1)
        assert int(row["cost"]) == (1 << (k + 1)) - 1
        assert abs(float(row["m_hat"]) - M) < 1e-6 * M
    header = rows[0].keys()
    assert list(header) == SWEEP_CSV_HEADER


def test_sweep_is_byte_identical_for_same_seed(tmp_path, capsys):
    args = [
        "sweep", "--algo", "simple", "--n-values", "8,10", "--m-values", "1,3",
        "--shots", "100", "--seed", "42",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_records_row_failures(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--algo", "simple", "--n-values", "3",
        "--m-values", "1,64", "--out", str(out_file),
    )
    assert code == 0
    with open(out_file, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != ""  # M=64 does not fit in 3 qubits
    assert rows[1]["m_hat"] == ""


def test_sweep_empty_ranges(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--algo", "simple", "--n-values", " ", "--m-values", "1",
    )
    assert code == 2 and "--n-values" in err


def test_sweep_refuses_negative_m_before_any_row(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--algo", "simple", "--n-values", "4", "--m-values=2,-3",
        "--out", str(out_file),
    )
    assert code == 2 and "--m-values" in err and "-3" in err
    assert out == "" and not out_file.exists()


def test_unwritable_run_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "run.json"
    code, _, err = run_cli(
        capsys, "run", "--algo", "simple", "--n", "3", "--oracle", "set:7", "--out", str(target),
    )
    assert code == 2 and err.startswith("error: ") and str(target) in err


def test_repro_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run_cli(capsys, "repro", "fig3", "--out-dir", str(blocker))
    assert code == 2 and err.startswith("error: ") and str(blocker) in err


def test_repro_fig9(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "repro", "fig9", "--out-dir", str(tmp_path))
    assert code == 0
    with open(tmp_path / "fig9.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0].keys()) == REPRO_CSV_HEADER
    simple = [row for row in rows if row["series"] == "simple"]
    assert int(simple[-1]["x"]) == 6
    assert all(row["shots"] == "100" for row in simple)
    assert abs(float(simple[-1]["m_hat"]) - 1.0) < 0.5
    assert float(simple[-1]["probability"]) >= 0.5
    assert (tmp_path / "fig9.svg").read_text().startswith("<svg")


def test_repro_fig4(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "repro", "fig4", "--out-dir", str(tmp_path))
    assert code == 0
    with open(tmp_path / "fig4.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8
    pair_mass = sum(float(r["probability"]) for r in rows if r["x"] in ("1", "7"))
    # 1024 shots: 4-sigma binomial band around the exact 0.9816
    assert abs(pair_mass - 0.98) < 0.03
    m_hats = {r["x"]: float(r["m_hat"]) for r in rows}
    assert abs(m_hats["1"] - 8 * math.sin(math.pi / 8) ** 2) < 1e-9
    assert m_hats["1"] == m_hats["7"]


def test_repro_fig15(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "repro", "fig15", "--out-dir", str(tmp_path))
    assert code == 0
    with open(tmp_path / "fig15.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    simple = [row for row in rows if row["series"] == "simple"]
    assert int(simple[-1]["x"]) == 3  # halts at k=3 for M=64
    pea = [row for row in rows if row["series"] == "pea"]
    assert len(pea) == 1 and pea[0]["x"] == "6"


def test_repro_unknown_figure(capsys):
    code, _, err = run_cli(capsys, "repro", "fig99")
    assert code == 2 and "fig99" in err


def test_repro_is_deterministic(tmp_path, capsys):
    for name in ("one", "two"):
        assert run_cli(capsys, "repro", "fig5", "--out-dir", str(tmp_path / name))[0] == 0
    assert (tmp_path / "one" / "fig5.csv").read_bytes() == (tmp_path / "two" / "fig5.csv").read_bytes()
    assert (tmp_path / "one" / "fig5.svg").read_bytes() == (tmp_path / "two" / "fig5.svg").read_bytes()


def test_all_figures_configured():
    assert set(FIGURES) == {f"fig{i}" for i in range(3, 17)}
    # The width sweep that targets an accurate nonzero estimate ends at or
    # above the minimum resolving width for its problem.
    from qcount.pea import pea_minimum_t

    assert FIGURES["fig8"].pea_t_sweep[-1] >= pea_minimum_t(512, 1)


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "5/5 checks passed" in out


def test_invalid_width_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("QCOUNT_MAX_QUBITS", "abc")
    code, _, err = run_cli(
        capsys, "run", "--algo", "simple", "--n", "3", "--oracle", "set:1",
        "--engine", "statevector",
    )
    assert code == 2 and "QCOUNT_MAX_QUBITS" in err and "abc" in err


def test_width_above_62_bits_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "run", "--algo", "simple", "--n", "64", "--oracle", "set:0x8000000000000000",
    )
    assert code == 2 and "62" in err


def test_analytic_runs_never_enumerate(monkeypatch, capsys):
    def refuse(self, xs):
        raise AssertionError("the analytic engine enumerated the search space")

    for cls in (ExplicitSetOracle, BitPatternOracle):
        monkeypatch.setattr(cls, "select", refuse)
    for spec, M, n_run in (("mask:0xfffffffffffffff", 1, 60), ("set:1,5,99", 3, 60),
                           ("mask:0x1", 1 << 59, 61)):
        code, out, _ = run_cli(capsys, "run", "--algo", "simple", "--n", "60", "--oracle", spec)
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"]["M"] == M and payload["spec"]["n_run"] == n_run
        assert abs(payload["result"]["m_hat"] - M) <= 1e-6 * M

    # M/N = 1/2 puts the phase at exactly 1/4, read off as the pair {2, 6} at t=3.
    res = run_pea(GroverProblem(60, BitPatternOracle(60, 1)), PEAConfig(t=3))
    assert res.best_pair == (2, 6)
    assert abs(res.m_hat - (1 << 59)) <= 1e-6 * (1 << 59)


def test_doubling_past_62_bits_names_the_doubling(capsys):
    # mask:0x1 marks half of the 62-bit space, so it would run doubled on 63 qubits.
    code, _, err = run_cli(capsys, "run", "--algo", "simple", "--n", "62", "--oracle", "mask:0x1")
    assert code == 2 and "doubled to 63 qubits" in err and "62" in err


def test_sweep_huge_m_fails_in_bounded_memory(capsys):
    # A row's oracle is a prefix of the basis, not a tuple of M indices.
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "sweep", "--algo", "simple", "--n-values", "4",
                               "--m-values", "2000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20
    row = next(csv.DictReader(out.splitlines()))
    assert row["error"] == "basis index 16 out of range for 4 qubits"


@pytest.mark.parametrize("algo,extra,k_or_t,cost", [
    ("simple", (), "4", "31"),
    ("pea", ("--t", "3"), "3", "7"),
])
def test_sweep_zero_marked_row(capsys, algo, extra, k_or_t, cost):
    code, out, _ = run_cli(capsys, "sweep", "--algo", algo, "--n-values", "4",
                           "--m-values", "0", *extra)
    assert code == 0
    (row,) = csv.DictReader(out.splitlines())
    assert (row["M"], row["k_or_t"], row["m_hat"], row["cost"], row["error"]) == (
        "0", k_or_t, "0", cost, "")


# One fault per selftest check: (module, name, fault wrapping the original, the check it fails).
SELFTEST_FAULTS = {
    "halt_bound": ("simple_count", "halt_bound", lambda bound: lambda N, M: bound(N, M) + 2,
                   "exact recovery and halt window (n <= 8)"),
    "build_eigenstate": ("grover", "build_eigenstate",
                         lambda build: lambda problem, sign: build(problem, -sign),
                         "Grover eigenphase"),
    "engine_marked_count": ("simple_count", "engine_marked_count",
                            lambda count: lambda problem, engine, qubits:
                                count(problem, engine, qubits) + (engine == "statevector"),
                            "closed form matches simulation"),
    "pea_distribution": ("pea", "pea_distribution",
                         lambda dist: lambda t, angle: dist(t, angle) * 1.001,
                         "estimation engines agree + pairing symmetry"),
    "pea_cost": ("cli", "pea_cost", lambda cost: lambda t: cost(t) + 1, "cost identities"),
}


@pytest.mark.parametrize("fault", sorted(SELFTEST_FAULTS))
def test_selftest_reports_a_failed_check(monkeypatch, capsys, fault):
    module, name, wrap, check = SELFTEST_FAULTS[fault]
    module = importlib.import_module(f"qcount.{module}")
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert f"\nFAIL  {check}: " in f"\n{out}"
    assert "4/5 checks passed" in out


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``; a SystemExit counts by its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_holds_no_state_between_calls(tmp_path, monkeypatch, capsys):
    out_file = tmp_path / "run.json"
    simple = ["run", "--algo", "simple", "--n", "5", "--oracle", "set:3,9", "--shots", "20"]
    pea = ["run", "--algo", "pea", "--n", "5", "--oracle", "set:3,9"]
    sweep = ["sweep", "--algo", "simple", "--n-values", "4,5", "--m-values", "1,2", "--shots", "30"]
    sequence = [
        ["run", "--n", "5", "--oracle", "set:3,9"],  # no --algo: argparse usage error
        simple,
        sweep + ["--timing"],
        sweep,
        pea,  # no --t
        pea + ["--t", "4"],
        simple + ["--out", str(out_file)],
        simple,
    ]
    outcomes = []
    for argv in sequence:
        got = _outcome(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setattr("qcount.cli._parser", build_parser)
            want = _outcome(capsys, argv)
        if "--timing" not in argv:  # wall_time_s differs from run to run
            assert got == want, argv
        outcomes.append(got)
    usage, _, timed, untimed, no_t, _, to_file, to_stdout = outcomes
    assert usage[0] == 2 and "--algo" in usage[2]
    assert timed[0] == 0
    assert all(float(row["wall_time_s"]) >= 0 for row in csv.DictReader(timed[1].splitlines()))
    assert [row["wall_time_s"] for row in csv.DictReader(untimed[1].splitlines())] == [""] * 4
    assert no_t == (2, "", "error: --t is required for --algo pea\n")
    assert to_file[:2] == (0, "") and out_file.read_text() == to_stdout[1]


def test_dispatch_reads_the_current_cmd_binding(tmp_path, monkeypatch, capsys):
    argv = ["repro", "fig3", "--out-dir", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == 0  # builds the cached parser, if no test did yet
    figures = []

    def recorder(args):
        figures.append(args.figure)
        return 0

    monkeypatch.setattr("qcount.cli.cmd_repro", recorder)
    assert run_cli(capsys, *argv) == (0, "", "")
    assert figures == ["fig3"]


_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.5e-308, 1e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e308, 1e-12]),
)
_lengths = st.integers(min_value=1, max_value=40)


def _columns(size):
    return st.tuples(arrays(np.int64, size), arrays(np.int64, size),
                     arrays(np.float64, size, elements=_floats))


# Non-empty 1-D float64 and int64 arrays, and (int, int, float) record arrays
# like a pea result's paired_prob.
_json_arrays = st.one_of(
    arrays(np.float64, _lengths, elements=_floats),
    arrays(np.int64, _lengths),
    _lengths.flatmap(_columns).map(np.rec.fromarrays),
)
_json_scalars = st.one_of(_floats, st.integers(), st.booleans(), st.none(), st.text(max_size=4),
                          st.sampled_from([", ", "], [", "1, 2", "\n"]))


def _indented_dumps(obj):
    return json.dumps(obj, indent=2, default=lambda array: array.tolist())


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(_json_arrays, st.dictionaries(st.text(max_size=4), _json_scalars, max_size=3),
       st.text(max_size=4))
def test_json_text_matches_indented_dumps(array, fields, key):
    # nan/inf/-0.0, subnormals, values near 1e+-308 and the int64 extremes,
    # alone and nested in a run document among strings that look like separators.
    assert _json_text(array) == _indented_dumps(array)
    wrapped = {"spec": {"n": 1}, "result": {**fields, "cost": 7, key: array}}
    assert _json_text(wrapped) == _indented_dumps(wrapped)


@pytest.mark.parametrize("engine", ["analytic", "statevector"])
def test_json_text_matches_indented_dumps_on_results(engine):
    problem = GroverProblem(4, ExplicitSetOracle(4, (3, 9, 12)))
    for shots in (0, 100):
        for t in range(1, 17):
            res = {"result": _pea_json(run_pea(problem, PEAConfig(t=t, shots=shots, seed=t,
                                                                  engine=engine)))}
            assert _json_text(res) == _indented_dumps(res), (t, shots)
        est = _estimate_json(run_simple_count(problem, CountingConfig(shots=shots, engine=engine)))
        assert _json_text(est) == json.dumps(est, indent=2)
