"""The Grover operator, its controlled powers, and its eigenstructure.

The operator G is the oracle phase flip followed by the diffusion
reflection about the uniform superposition. With M of N = 2**n basis
states marked, G rotates by the angle theta, where sin(theta/2) = sqrt(M/N),
in the plane spanned by the uniform superpositions of the unmarked and
marked states.

Both estimators depend on the oracle only through the overlap sequence
a(d) = <s|G**d|s> = cos(d*theta), with |s> the uniform superposition, and
so only through M. `engine_marked_count` is where the engines differ: the
analytic engine takes the oracle's closed-form count, the statevector engine
evaluates the oracle on every basis index. The controlled-power functions
here simulate the circuits gate by gate and serve as references for the
closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .oracles import Oracle, basis_chunks, marked_indices
from .statevector import Statevector, apply_diffusion, apply_phase_flip, check_width, controlled_apply

ENGINES = ("analytic", "statevector")


def check_shots_and_engine(shots: int, engine: str) -> None:
    """The sampling and engine rules that every estimator config shares."""
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


@dataclass(frozen=True)
class GroverProblem:
    """Search-space width and oracle for one counting problem (every oracle has n >= 1)."""

    n: int
    oracle: Oracle

    def __post_init__(self):
        if self.oracle.n != self.n:
            raise ValueError(
                f"oracle is defined on {self.oracle.n} qubits, problem has {self.n}"
            )

    @property
    def N(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class GroverAngle:
    """The rotation angle theta, sin^2(theta/2) = M/N, and the eigenphase phi = theta/(2*pi)."""

    theta: float
    phi: float


def grover_angle(N: int, M: int) -> GroverAngle:
    """Rotation angle of the Grover operator for M marked states out of N."""
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two, got {N}")
    if not 0 <= M <= N:
        raise ValueError(f"M must be in [0, {N}], got {M}")
    theta = 2.0 * math.asin(math.sqrt(M / N))
    return GroverAngle(theta=theta, phi=theta / (2.0 * math.pi))


def apply_grover(state: Statevector, problem: GroverProblem, register: Sequence[int]) -> Statevector:
    """One Grover iteration on the register: oracle phase flip, then diffusion."""
    if len(register) != problem.n:
        raise ValueError(
            f"register width {len(register)} does not match problem width {problem.n}"
        )
    apply_phase_flip(state, problem.oracle, register)
    apply_diffusion(state, register)
    return state


def controlled_grover_power(
    state: Statevector,
    control: int,
    problem: GroverProblem,
    register: Sequence[int],
    repetitions: int,
) -> Statevector:
    """Apply controlled-G ``repetitions`` times (control qubit gates every iteration)."""
    if repetitions < 0:
        raise ValueError(f"repetitions must be >= 0, got {repetitions}")

    def action(sub: Statevector, regs: list[int]) -> Statevector:
        return apply_grover(sub, problem, regs)

    for _ in range(repetitions):
        controlled_apply(state, control, register, action)
    return state


def build_eigenstate(problem: GroverProblem, sign: int) -> Statevector:
    """Eigenstate of G with eigenvalue exp(+i*theta) (sign=+1) or exp(-i*theta) (sign=-1).

    Built as (|unmarked_uniform> -/+ i|marked_uniform>)/sqrt(2); requires
    1 <= M <= N-1 so both uniform superpositions exist.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    marked = marked_indices(problem.oracle)
    M = len(marked)
    N = problem.N
    if M == 0 or M == N:
        raise ValueError(f"eigenstate undefined for M={M} of N={N} (degenerate)")
    amps = np.full(N, 1.0 / math.sqrt(2.0 * (N - M)), dtype=np.complex128)
    amps[marked] = (-1j if sign > 0 else 1j) / math.sqrt(2.0 * M)
    return Statevector(problem.n, amps)


def marked_count(problem: GroverProblem) -> int:
    """Number of marked basis states M, in closed form from the oracle."""
    return problem.oracle.count()


def engine_marked_count(problem: GroverProblem, engine: str, circuit_qubits: int) -> int:
    """M as the engine finds it: the oracle's `count()` (analytic), or, for a circuit of
    ``circuit_qubits`` within the dense-simulation cap, the oracle evaluated on every basis
    index block by block (`basis_chunks`), which checks the closed-form count (statevector)."""
    if engine == "analytic":
        return marked_count(problem)
    check_width(circuit_qubits)
    return sum(int(np.count_nonzero(problem.oracle.select(xs))) for xs in basis_chunks(problem.n))
