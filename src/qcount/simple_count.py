"""Counting by consecutive doubling of controlled-Grover iterations.

Each measurement step k prepares fresh registers, applies 2**k
controlled-Grover iterations gated by a single measurement qubit in
superposition, applies a final Hadamard to that qubit and measures it.
The loop stops at the first step whose estimated p1 reaches the halting
threshold; classical post-processing inverts that step's p(k) = p0 - p1 =
cos(2**k * theta) back to theta and M = N*sin^2(theta/2).

Step k's p1 is (1 - a(2**k))/2 = sin^2(2**k * theta/2), a(d) = <s|G**d|s>,
evaluated from theta. The engines differ only in where M comes from
(`grover.engine_marked_count`): the oracle's own count (analytic) or the
oracle evaluated on every basis index (statevector). `step_state` simulates
the full (n+1)-qubit circuit and is kept as the gate-level reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import p1_exact
from .grover import (
    GroverProblem,
    check_shots_and_engine,
    controlled_grover_power,
    engine_marked_count,
    grover_angle,
    marked_count,
)
from .statevector import (
    Statevector,
    apply_hadamard,
    derive_seed,
    init_basis,
    sample_bit,
)


@dataclass
class CountingConfig:
    """Knobs for one counting run; shots=0 uses exact probabilities."""

    threshold: float = 0.5
    shots: int = 0
    engine: str = "analytic"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        check_shots_and_engine(self.shots, self.engine)


@dataclass(frozen=True)
class StepOutcome:
    """One measurement step: K = 2**k controlled-Grover iterations, then p1 readout."""

    k: int
    K: int
    shots: int
    ones: int
    p0_hat: float
    p1_hat: float


@dataclass(frozen=True)
class CountEstimate:
    """Final output of a counting run, with the full step trace."""

    m_hat: float
    theta_hat: float
    k_final: int
    optimal_iterations: int | None
    halted_on_threshold: bool
    trace: tuple[StepOutcome, ...]
    N: int

    @property
    def controlled_grover_cost(self) -> int:
        """Total controlled-Grover applications across the trace (2**(k_final+1) - 1)."""
        return sum(step.K for step in self.trace)


def default_max_k(n: int) -> int:
    """Worst nonzero case is M=1 at ceil(n/2) steps; +2 absorbs sampling noise."""
    return math.ceil(n / 2) + 2


def halt_bound(N: int, M: int) -> int:
    """Latest halting step ceil(log2(sqrt(N/M))): the least k >= 0 with 4**k > (N - 1) // M."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return (((N - 1) // M).bit_length() + 1) // 2


def postprocess_arccos(p_k: float, k: int, N: int) -> tuple[float, float]:
    """Invert p(k) = cos(2**k * theta) by arccos; returns (theta_hat, m_hat).

    Finite-shot estimates may fall outside [-1, 1] and are clamped.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    theta = math.acos(min(1.0, max(-1.0, p_k))) / (2.0 ** k)
    return theta, N * math.sin(0.5 * theta) ** 2


def optimal_grover_iterations(theta: float) -> int:
    """Search-iteration count ceil((pi/theta - 1)/2) for a measured Grover angle."""
    if theta <= 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    value = (math.pi / theta - 1.0) / 2.0
    # Snap values a rounding error away from an integer before the ceiling.
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        value = nearest
    return max(0, math.ceil(value))


def ensure_minority(problem: GroverProblem) -> GroverProblem:
    """Double the search space (add a qubit, keep M) until M/N < 1/2.

    Each doubling widens the oracle by one qubit (`widened`): an explicit set
    keeps its indices, a bit-pattern mask gains the new top bit. M = N needs
    two doublings; anything else at most one. A doubling past the oracle's
    62-qubit limit raises ValueError.
    """
    current = problem
    while 2 * marked_count(current) >= current.N:
        try:
            oracle = current.oracle.widened()
        except ValueError as exc:
            raise ValueError(f"marked fraction {marked_count(current)}/{current.N} needs the "
                             f"search space doubled to {current.n + 1} qubits: {exc}") from exc
        current = GroverProblem(current.n + 1, oracle)
    return current


def step_state(problem: GroverProblem, k: int) -> Statevector:
    """Pre-measurement state of measurement step k (measurement qubit is qubit n)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = problem.n
    state = init_basis(n + 1, 0)
    for q in range(n + 1):
        apply_hadamard(state, q)
    controlled_grover_power(state, n, problem, list(range(n)), 1 << k)
    apply_hadamard(state, n)
    return state


def run_simple_count(problem: GroverProblem, config: CountingConfig | None = None) -> CountEstimate:
    """Run the consecutive-doubling measurement loop and post-process the final step.

    Requires a minority marked set (M/N < 1/2); apply ensure_minority first.
    Steps are independent circuit executions; in sampled mode each step draws
    its ones-count from a binomial with a seed derived from (seed, k). If the
    threshold is never reached by step default_max_k(n), the last step is
    post-processed anyway and the estimate is flagged (covers M = 0, where m_hat = 0).
    """
    config = config or CountingConfig()
    N = problem.N
    M = marked_count(problem)
    if 2 * M >= N:
        raise ValueError(
            f"marked fraction {M}/{N} is not a minority; apply ensure_minority first"
        )
    # The statevector cap counts the measurement qubit, as the simulated circuit does.
    M = engine_marked_count(problem, config.engine, problem.n + 1)
    angle = grover_angle(N, M)

    trace: list[StepOutcome] = []
    halted = False
    for k in range(default_max_k(problem.n) + 1):
        p1 = p1_exact(k, angle)
        if config.shots > 0:
            ones = sample_bit(p1, config.shots, derive_seed(config.seed, k))
            p1_hat = ones / config.shots
        else:
            ones = 0
            p1_hat = p1
        trace.append(StepOutcome(k, 1 << k, config.shots, ones, 1.0 - p1_hat, p1_hat))
        if p1_hat >= config.threshold:
            halted = True
            break

    last = trace[-1]
    theta_hat, m_hat = postprocess_arccos(last.p0_hat - last.p1_hat, last.k, N)
    iterations = optimal_grover_iterations(theta_hat) if theta_hat > 0.0 else None
    return CountEstimate(
        m_hat=m_hat,
        theta_hat=theta_hat,
        k_final=last.k,
        optimal_iterations=iterations,
        halted_on_threshold=halted,
        trace=tuple(trace),
        N=N,
    )
