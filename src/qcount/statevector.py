"""Dense complex statevector engine.

Convention used throughout the package: qubit 0 is the least-significant
bit of the basis index, so basis state ``|x>`` has qubit ``q`` in state
``(x >> q) & 1``.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .oracles import Oracle

DEFAULT_MAX_QUBITS = 24
MAX_QUBITS_ENV = "QCOUNT_MAX_QUBITS"

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_MASK64 = (1 << 64) - 1


class ResourceLimitError(RuntimeError):
    """Requested register width exceeds the dense-simulation cap."""


def max_qubits() -> int:
    """Dense statevector width cap; override with the QCOUNT_MAX_QUBITS env var."""
    value = os.environ.get(MAX_QUBITS_ENV)
    if not value:
        return DEFAULT_MAX_QUBITS
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{MAX_QUBITS_ENV}={value!r} is not an integer qubit count") from None


def check_width(num_qubits: int) -> None:
    """Refuse a circuit wider than the dense-simulation cap with ResourceLimitError."""
    if num_qubits > max_qubits():
        raise ResourceLimitError(
            f"{num_qubits} qubits exceeds the dense-simulation cap of "
            f"{max_qubits()} (override with {MAX_QUBITS_ENV})"
        )


@dataclass(eq=False, repr=False)
class Statevector:
    """Amplitudes of an ``num_qubits``-qubit pure state over the computational basis."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got {self.amplitudes.shape[0]}"
            )

    def __repr__(self):
        return f"Statevector(num_qubits={self.num_qubits})"

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_qubit(state: Statevector, q: int) -> None:
    if not 0 <= q < state.num_qubits:
        raise ValueError(f"qubit {q} out of range for {state.num_qubits}-qubit state")


def _check_register(state: Statevector, register: Sequence[int]) -> None:
    if len(register) == 0:
        raise ValueError("register must contain at least one qubit")
    for q in register:
        _check_qubit(state, q)
    if len(set(register)) != len(register):
        raise ValueError(f"register qubits must be distinct, got {list(register)}")


def _tensor(state: Statevector) -> np.ndarray:
    # Axis n-1-q of the tensor view corresponds to qubit q.
    return state.amplitudes.reshape((2,) * state.num_qubits)


def init_basis(num_qubits: int, basis_index: int) -> Statevector:
    """Statevector prepared in the computational basis state ``|basis_index>``."""
    check_width(num_qubits)
    if not 0 <= basis_index < (1 << num_qubits):
        raise ValueError(
            f"basis_index {basis_index} out of range for {num_qubits} qubits"
        )
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[basis_index] = 1.0
    return Statevector(num_qubits, amps)


def apply_hadamard(state: Statevector, q: int) -> Statevector:
    """Apply the Hadamard gate to qubit ``q`` in place."""
    _check_qubit(state, q)
    view = np.moveaxis(_tensor(state), state.num_qubits - 1 - q, 0)
    a0 = view[0].copy()
    a1 = view[1].copy()
    view[0] = (a0 + a1) * _SQRT1_2
    view[1] = (a0 - a1) * _SQRT1_2
    return state


def _register_major(tensor: np.ndarray, register: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """The tensor view as rows of 2**len(register) entries, one row per configuration of
    the other qubits and entry x in a row the register value x (register[i] -> bit i),
    with the axis permutation that made it."""
    n = tensor.ndim
    reg_axes = [n - 1 - q for q in reversed(register)]
    other_axes = [a for a in range(n) if a not in set(reg_axes)]
    perm = other_axes + reg_axes
    return np.transpose(tensor, perm).reshape(-1, 1 << len(register)), perm


def _register_subindex(dim: int, register: Sequence[int]) -> np.ndarray:
    """For every basis index, the index formed by the register's bits (register[i] -> bit i)."""
    idx = np.arange(dim, dtype=np.int64)
    sub = np.zeros(dim, dtype=np.int64)
    for pos, q in enumerate(register):
        sub |= ((idx >> q) & 1) << pos
    return sub


def apply_phase_flip(state: Statevector, predicate: "Oracle", register: Sequence[int]) -> Statevector:
    """Multiply by -1 every amplitude whose register-restricted index is marked."""
    _check_register(state, register)
    sub = _register_subindex(state.amplitudes.shape[0], register)
    state.amplitudes[predicate.select(sub)] *= -1.0
    return state


def apply_diffusion(state: Statevector, register: Sequence[int]) -> Statevector:
    """Reflect about the uniform superposition of the register subspace.

    For each fixed configuration of the non-register qubits, amplitudes a_x
    over the register's basis states are replaced by 2*mean(a) - a_x.
    """
    _check_register(state, register)
    tensor = _tensor(state)
    axes = tuple(state.num_qubits - 1 - q for q in register)
    mean = tensor.mean(axis=axes, keepdims=True)
    state.amplitudes = (2.0 * mean - tensor).reshape(-1)
    return state


def controlled_apply(
    state: Statevector,
    control: int,
    targets: Sequence[int],
    action: Callable[[Statevector, list[int]], Statevector],
) -> Statevector:
    """Apply ``action`` to the target qubits only where the control qubit is 1.

    ``action(sub, regs)`` receives the control=1 half of the state as a
    statevector one qubit narrower, with ``regs`` the targets renumbered for
    that narrower space; it must act in place on ``sub``.
    """
    _check_qubit(state, control)
    _check_register(state, targets)
    if control in targets:
        raise ValueError(f"control qubit {control} overlaps the target register")
    n = state.num_qubits
    view = np.moveaxis(_tensor(state), n - 1 - control, 0)
    sub = Statevector(n - 1, view[1].copy().reshape(-1))
    sub_targets = [q if q < control else q - 1 for q in targets]
    action(sub, sub_targets)
    view[1] = sub.amplitudes.reshape((2,) * (n - 1))
    return state


def probability_of_one(state: Statevector, q: int) -> float:
    """Probability of measuring 1 on qubit ``q``."""
    _check_qubit(state, q)
    probs = np.abs(_tensor(state)) ** 2
    return float(np.moveaxis(probs, state.num_qubits - 1 - q, 0)[1].sum())


def register_probabilities(state: Statevector, register: Sequence[int]) -> np.ndarray:
    """Marginal outcome distribution of the register (register[i] -> bit i of the outcome)."""
    _check_register(state, register)
    stacked, _ = _register_major(np.abs(_tensor(state)) ** 2, register)
    return stacked.sum(axis=0)


def sample_bit(p1: float, shots: int, seed: int) -> int:
    """Number of 1-outcomes in ``shots`` Bernoulli(p1) measurements, seeded and repeatable."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p1}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed & _MASK64)
    return int(rng.binomial(shots, p1))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Deterministic 64-bit sub-seed for (base_seed, indices), splitmix64-mixed.

    Used for per-step and per-row seeding so that parallel or out-of-order
    execution reproduces the exact same draws.
    """
    x = _splitmix64(base_seed & _MASK64)
    for index in indices:
        x = _splitmix64(x ^ (index & _MASK64))
    return x
