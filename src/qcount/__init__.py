"""Quantum counting toolkit: amplitude-amplification counting with a
phase-estimation baseline, computed in closed form from the oracle's marked
count (its own count, or one enumerated over every basis index).

The names exported here are the run API; the gate-level circuit references
are imported from their own modules."""

from .analytic import p1_exact, pea_distribution
from .grover import (
    GroverAngle,
    GroverProblem,
    grover_angle,
    marked_count,
)
from .oracles import (
    BitPatternOracle,
    ExplicitSetOracle,
    Oracle,
    parse_oracle,
)
from .pea import (
    PEAConfig,
    PEAResult,
    pea_cost,
    pea_minimum_t,
    required_t,
    run_pea,
)
from .simple_count import (
    CountEstimate,
    CountingConfig,
    StepOutcome,
    default_max_k,
    ensure_minority,
    halt_bound,
    optimal_grover_iterations,
    postprocess_arccos,
    run_simple_count,
)
from .statevector import (
    ResourceLimitError,
    derive_seed,
    max_qubits,
    sample_bit,
)

__version__ = "0.1.0"

__all__ = [
    "BitPatternOracle",
    "CountEstimate",
    "CountingConfig",
    "ExplicitSetOracle",
    "GroverAngle",
    "GroverProblem",
    "Oracle",
    "PEAConfig",
    "PEAResult",
    "ResourceLimitError",
    "StepOutcome",
    "default_max_k",
    "derive_seed",
    "ensure_minority",
    "grover_angle",
    "halt_bound",
    "marked_count",
    "max_qubits",
    "optimal_grover_iterations",
    "p1_exact",
    "parse_oracle",
    "pea_cost",
    "pea_distribution",
    "pea_minimum_t",
    "postprocess_arccos",
    "required_t",
    "run_pea",
    "run_simple_count",
    "sample_bit",
]
