"""Top-level `qcount` exports the run API; the gate-level references that the
tests and the benchmark tracer use are imported from their own modules."""
import importlib
import re
from pathlib import Path

import qcount

README = Path(__file__).resolve().parent.parent / "README.md"

RUN_API = [
    "BitPatternOracle", "ExplicitSetOracle", "Oracle", "parse_oracle",
    "GroverAngle", "GroverProblem", "grover_angle", "marked_count",
    "p1_exact", "pea_distribution",
    "CountEstimate", "CountingConfig", "StepOutcome", "run_simple_count", "ensure_minority",
    "halt_bound", "default_max_k", "optimal_grover_iterations", "postprocess_arccos",
    "PEAConfig", "PEAResult", "run_pea", "pea_cost", "pea_minimum_t", "required_t",
    "ResourceLimitError", "derive_seed", "max_qubits", "sample_bit",
]

MODULE_ONLY = {
    "statevector": ["Statevector", "init_basis", "apply_hadamard", "apply_phase_flip",
                    "apply_diffusion", "controlled_apply", "probability_of_one",
                    "register_probabilities"],
    "grover": ["apply_grover", "controlled_grover_power", "build_eigenstate"],
    "pea": ["inverse_qft", "pea_state"],
    "simple_count": ["step_state"],
    "analytic": ["circuit_state_closed_form"],
    "oracles": ["marked_indices"],
}


def test_all_is_the_run_api():
    assert sorted(qcount.__all__) == sorted(RUN_API)
    for name in qcount.__all__:
        assert getattr(qcount, name, None) is not None, name


def test_readme_quick_start_imports_are_exported():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"from qcount import \(([^)]*)\)", text)
    assert block is not None
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names and set(names) <= set(qcount.__all__)


def test_gate_level_references_resolve_on_their_modules():
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"qcount.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"qcount.{module}.{name}"
            assert name not in qcount.__all__
