"""Golden-output tests: the CLI's canonical output is pinned by SHA-256.

For a fixed spec and seed, `run`, `sweep` and `repro` must write the same
bytes across refactors. The `repro` digests are the ones the benchmark checks
(`perfbench/repro_digests.json`, read only). The `run` and `sweep` digests are
recorded on the analytic engine. The statevector engine differs from it only
in how it finds M, so its `run` output must be the analytic engine's bytes
apart from the `engine` field, and its `sweep` output (which has no such
field) the same bytes.
"""
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qcount.cli import FIGURES, main

REPRO_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "repro_digests.json").read_text()
)

# (algorithm, oracle on n = 12, format, shots) -> digest of stdout. mask:0x1
# marks half the space, so it runs doubled on 13 qubits.
RUN_DIGESTS = {
    ('simple', 'mask:0xff0', 'json', 'exact'):
        "326c2e2c0de6cc7d25d860584a5a9d8767c6709cff4eb8db7c7bf0c4e370659c",
    ('simple', 'mask:0xff0', 'json', 'sampled'):
        "c518b5f393eecbdc53ae5d32005df21f4d01ebf0f66a12d15546935eec84f32c",
    ('simple', 'mask:0xff0', 'csv', 'exact'):
        "b00f76079c7531ac168954e87a888ee759528e267ebac7048a26b9bba7f98fad",
    ('simple', 'mask:0xff0', 'csv', 'sampled'):
        "81b2e4e9bef8deb63daef12f6ba3a5b9b6594345d1693f81584498c0f3e94c97",
    ('simple', 'mask:0x1', 'json', 'exact'):
        "7f25adf7eb8d2f2489cfd35c5ae9b46d3023bc017874761bb4309f42716ec03e",
    ('simple', 'mask:0x1', 'json', 'sampled'):
        "7ce9f229c5f5d127f621fcd63e20da381494f4efc0a40cc069cd3acbe41b7bc2",
    ('simple', 'mask:0x1', 'csv', 'exact'):
        "a1a213850810d2ae3c6fc8bc30169af26467ad98c1e6f88c22878f87e1c74fdb",
    ('simple', 'mask:0x1', 'csv', 'sampled'):
        "dc365835e223198748fcc5d7b95a5617a6a6db9be07346727eff2624c4cff790",
    ('pea', 'mask:0xff0', 'json', 'exact'):
        "8ed991670ce0e5ea1a92f7ea718e576e40aa5ebe477173d8d6daaa0f95715d0d",
    ('pea', 'mask:0xff0', 'json', 'sampled'):
        "acae8122ac6561745e3ed20e39514785b046de8cf7d610ccefb26cffbb53e744",
    ('pea', 'mask:0xff0', 'csv', 'exact'):
        "3563270b9b2e475c9666c17ab0d3ee0a80361b1eaf2c9f52820c808addcfc649",
    ('pea', 'mask:0xff0', 'csv', 'sampled'):
        "883e9d3decf1deba7ac70a55949ec241ac2db456b2d4d35f1234520ccaf5e194",
    ('pea', 'mask:0x1', 'json', 'exact'):
        "e56e5568a676fcc9331b3d744be1bae3973bdd7e04c49b3648a428b9b603b1d9",
    ('pea', 'mask:0x1', 'json', 'sampled'):
        "ba130f57df7da254e2b5a4a59dd2187a3e38f91d8eb1feb429894f72b2131aaa",
    ('pea', 'mask:0x1', 'csv', 'exact'):
        "3c146a95b3cca1a93680fa8d906b8bfa8a3bc62181c3f98a61aa08a0fe438525",
    ('pea', 'mask:0x1', 'csv', 'sampled'):
        "00d283a21014f82c93ee36cbf9e11de5b67ab3de5064f044816026d6cb9dc9d3",
}

# shots -> digest of analytic `run --algo pea --n 24 --oracle mask:0xfffffe --t 14`
# JSON on stdout. At t = 14 the outcomes reach reprs like 1e-12 that the
# t = 6 cases above never print. Recorded by running commit 259dec1, whose
# `cmd_run` still wrote through `json.dumps(..., indent=2)`.
LARGE_T_PEA_DIGESTS = {
    'exact':
        "c9e54c814f46c802066553096c715bbd2bafc33ed24d0631a6d87f106a53fa93",
    'sampled':
        "e2f9f966dac16c2728164f88102a9c32982423cf6381ba6a26dc789554c1e8a4",
}

# (algorithm, shots) -> digest of the sweep CSV.
SWEEP_DIGESTS = {
    ('simple', '0'):
        "20b7aeac11aab6b705746a6f84ad30a8b3ec2fb66cf6aa22dedf4af13e1b4630",
    ('simple', '64'):
        "a6a2653b85e961b3279464fdb41a6273ded8db03635630cc23d2d716f7540e47",
    ('pea', '0'):
        "2486da8f2cbb8d002f98023665ba43fd26a3ff14b53799d5dd47a335aa2118ab",
    ('pea', '64'):
        "405c4b8d1b00d1034d78a03e7a67e1d96523109855a908969dd44d542fc6f86c",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_repro_matches_recorded_digests(figure, tmp_path):
    _stdout_of(["repro", figure, "--out-dir", str(tmp_path)])
    for kind in ("csv", "svg"):
        written = (tmp_path / f"{figure}.{kind}").read_text(encoding="utf-8")
        assert _sha256(written) == REPRO_DIGESTS[figure][kind], f"{figure}.{kind}"


def _run_argv(algo: str, oracle: str, fmt: str, shots: str) -> list[str]:
    argv = ["run", "--algo", algo, "--n", "12", "--oracle", oracle, "--format", fmt]
    if algo == "pea":
        argv += ["--t", "6"]
    return argv + (["--shots", "0"] if shots == "exact" else ["--shots", "100", "--seed", "5"])


@pytest.mark.parametrize("case", sorted(RUN_DIGESTS), ids="-".join)
def test_run_output_matches_recorded_digest(case):
    assert _sha256(_stdout_of(_run_argv(*case))) == RUN_DIGESTS[case]


@pytest.mark.parametrize("case", sorted({(a, o, s) for a, o, _, s in RUN_DIGESTS}), ids="-".join)
def test_statevector_run_matches_analytic(case):
    algo, oracle, shots = case
    for fmt, field in (("json", '"engine": "{}"'), ("csv", ",{},")):
        argv = _run_argv(algo, oracle, fmt, shots)
        analytic = _stdout_of(argv)
        statevector = _stdout_of(argv + ["--engine", "statevector"])
        assert analytic.count(field.format("analytic")) == 1, fmt
        assert statevector == analytic.replace(field.format("analytic"),
                                               field.format("statevector")), fmt


@pytest.mark.parametrize("shots", sorted(LARGE_T_PEA_DIGESTS))
def test_large_t_pea_run_matches_recorded_digest(shots):
    argv = ["run", "--algo", "pea", "--n", "24", "--oracle", "mask:0xfffffe", "--t", "14"]
    argv += ["--shots", "0"] if shots == "exact" else ["--shots", "1000", "--seed", "5"]
    assert _sha256(_stdout_of(argv)) == LARGE_T_PEA_DIGESTS[shots]


def _sweep_argv(algo: str, shots: str) -> list[str]:
    # M = 40 runs doubled; M = 300 does not fit and fills the error column.
    argv = ["sweep", "--algo", algo, "--n-values", "6,8", "--m-values", "1,3,40,300",
            "--shots", shots, "--seed", "9"]
    return argv + ["--t", "5"] if algo == "pea" else argv


@pytest.mark.parametrize("case", sorted(SWEEP_DIGESTS), ids="-".join)
def test_sweep_output_matches_recorded_digest(case):
    assert _sha256(_stdout_of(_sweep_argv(*case))) == SWEEP_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(SWEEP_DIGESTS), ids="-".join)
def test_statevector_sweep_matches_analytic(case):
    argv = _sweep_argv(*case)
    assert _stdout_of(argv + ["--engine", "statevector"]) == _stdout_of(argv)
