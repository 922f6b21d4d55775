"""Phase-estimation counting baseline.

A t-qubit control register drives a ladder of controlled-Grover powers
(control qubit j gates 2**j iterations), an inverse QFT maps the
accumulated phase back to a basis state, and measuring the register yields
either j ~ phi * 2**t or its mirror (2**t - j), both encoding the same M.

Both engines take the outcome distribution from the closed form
`pea_distribution` in theta, with M from `grover.engine_marked_count`.
`pea_state` simulates the full (n+t)-qubit circuit and is kept as the
gate-level reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import pea_distribution
from .grover import (
    GroverProblem,
    check_shots_and_engine,
    controlled_grover_power,
    engine_marked_count,
    grover_angle,
    marked_count,
)
from .simple_count import halt_bound
from .statevector import (
    _MASK64,
    Statevector,
    _check_register,
    _register_major,
    _tensor,
    apply_hadamard,
    init_basis,
)


@dataclass
class PEAConfig:
    """Control-register width and sampling knobs; shots=0 keeps exact probabilities."""

    t: int
    shots: int = 0
    engine: str = "analytic"
    seed: int = 0

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        check_shots_and_engine(self.shots, self.engine)


@dataclass(frozen=True)
class PEAResult:
    """Outcome histogram with mirror-pair aggregation and the extracted estimate.

    ``histogram`` holds probabilities (shots=0) or counts (shots>0) of outcomes
    0..2**t - 1; ``paired_prob[lo]``, a float64 array over lo = 0..2**(t-1),
    is the summed fraction of the unordered outcome pair {lo, mirror_outcome(lo, t)}.
    """

    histogram: np.ndarray
    paired_prob: np.ndarray
    best_pair: tuple[int, int]
    phi_hat: float
    m_hat: float
    t: int
    N: int
    shots: int

    @property
    def best_pair_probability(self) -> float:
        return float(self.paired_prob[self.best_pair[0]])

    @property
    def controlled_grover_cost(self) -> int:
        return pea_cost(self.t)


def required_t(m: int, epsilon: float) -> int:
    """Register width ceil(m + log2(2 + 1/(2*epsilon))) for m accurate bits
    with success probability 1 - epsilon."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return math.ceil(m + math.log2(2.0 + 1.0 / (2.0 * epsilon)))


def pea_cost(t: int) -> int:
    """Total controlled-Grover iterations of the ladder: 2**t - 1."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return (1 << t) - 1


def pea_minimum_t(N: int, M: int) -> int:
    """Smallest register width that can resolve a nonzero M: 2 + ceil(log2(sqrt(N/M)))."""
    return 2 + halt_bound(N, M)


def inverse_qft(state: Statevector, register: Sequence[int]) -> Statevector:
    """Exact inverse discrete-Fourier action on the register subspace.

    Bit convention matches the rest of the engine (register[i] is bit i of
    the register value), so a register holding the Fourier transform of
    basis |j> maps back to |j>.
    """
    _check_register(state, register)
    stacked, perm = _register_major(_tensor(state), register)
    stacked = np.fft.fft(stacked, axis=1) / math.sqrt(1 << len(register))
    back = stacked.reshape((2,) * state.num_qubits)
    state.amplitudes = np.transpose(back, np.argsort(perm)).reshape(-1)
    return state


def pea_state(problem: GroverProblem, t: int) -> Statevector:
    """State of the full estimation circuit just before the register-1 measurement.

    The computation register occupies qubits 0..n-1 and the control
    register qubits n..n+t-1 (control n+j gates G**(2**j)). `init_basis`
    refuses n + t qubits above the dense-simulation cap.
    """
    n = problem.n
    state = init_basis(n + t, 0)
    for q in range(n + t):
        apply_hadamard(state, q)
    computation = list(range(n))
    for j in range(t):
        controlled_grover_power(state, n + j, problem, computation, 1 << j)
    inverse_qft(state, [n + i for i in range(t)])
    return state


def mirror_outcome(j, t: int):
    """Outcome (2**t - j) mod 2**t, which encodes the same M as j (j may be an int array)."""
    return -j % (1 << t)


def _mirror_pairs(fractions: np.ndarray, t: int) -> np.ndarray:
    """Fraction of each outcome pair {lo, mirror_outcome(lo, t)}, indexed by lo = 0..2**(t-1).

    Outcomes 0 and 2**(t-1) are their own mirrors; every other pair sums its
    two in one IEEE addition (the mirrors of 1..2**(t-1) - 1, reversed, are the outcomes above).
    """
    half = 1 << (t - 1)
    probs = fractions[: half + 1].copy()
    probs[1:half] += fractions[:half:-1]
    return probs


def _best_pair(pairs: np.ndarray, t: int) -> tuple[int, int]:
    """(lo, hi) of the most probable pair; argmax's first maximum gives ties to the smaller phase."""
    lo = int(np.argmax(pairs))
    return lo, mirror_outcome(lo, t)


def run_pea(problem: GroverProblem, config: PEAConfig) -> PEAResult:
    """Run the phase-estimation counting circuit and extract M from the best pair.

    Requires M/N <= 1/2 (apply ensure_minority first; exactly one half is
    the representable boundary phi = 1/4 and is accepted). The best pair is
    the unordered outcome pair with maximal summed probability, ties broken
    toward the smaller phase; m_hat = N * sin^2(pi * phi_hat).
    """
    N = problem.N
    M = marked_count(problem)
    if 2 * M > N:
        raise ValueError(
            f"marked fraction {M}/{N} is a majority; apply ensure_minority first"
        )
    # The statevector cap counts the control register, as the simulated circuit does.
    M = engine_marked_count(problem, config.engine, problem.n + config.t)
    probs = pea_distribution(config.t, grover_angle(N, M))

    if config.shots > 0:
        rng = np.random.default_rng(config.seed & _MASK64)
        counts = rng.multinomial(config.shots, probs / probs.sum())
        histogram = counts.astype(np.int64)
        fractions = counts / config.shots
    else:
        histogram = fractions = probs

    pairs = _mirror_pairs(fractions, config.t)
    best_pair = _best_pair(pairs, config.t)
    phi_hat = best_pair[0] / float(1 << config.t)
    return PEAResult(
        histogram=histogram,
        paired_prob=pairs,
        best_pair=best_pair,
        phi_hat=phi_hat,
        m_hat=N * math.sin(math.pi * phi_hat) ** 2,
        t=config.t,
        N=N,
        shots=config.shots,
    )
