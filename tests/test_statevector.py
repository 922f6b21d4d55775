import math

import numpy as np
import pytest

from qcount.oracles import BitPatternOracle, ExplicitSetOracle
from qcount.statevector import (
    ResourceLimitError,
    Statevector,
    apply_diffusion,
    apply_hadamard,
    apply_phase_flip,
    controlled_apply,
    derive_seed,
    init_basis,
    max_qubits,
    probability_of_one,
    register_probabilities,
    sample_bit,
)

import dense_ref


def test_init_basis_examples():
    assert np.allclose(init_basis(1, 0).amplitudes, [1, 0])
    assert np.allclose(init_basis(2, 3).amplitudes, [0, 0, 0, 1])
    state = init_basis(3, 5)
    assert state.amplitudes[5] == 1.0
    assert abs(state.norm() - 1.0) < 1e-15


def test_init_basis_errors():
    with pytest.raises(ValueError):
        init_basis(2, 4)
    with pytest.raises(ValueError):
        init_basis(2, -1)
    with pytest.raises(ValueError):
        init_basis(0, 0)


def test_width_cap(monkeypatch):
    monkeypatch.setenv("QCOUNT_MAX_QUBITS", "4")
    with pytest.raises(ResourceLimitError):
        init_basis(5, 0)
    init_basis(4, 0)
    monkeypatch.delenv("QCOUNT_MAX_QUBITS")
    with pytest.raises(ResourceLimitError):
        init_basis(25, 0)


def test_hadamard_examples():
    state = apply_hadamard(init_basis(1, 0), 0)
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    rng = np.random.default_rng(7)
    state = Statevector(3, dense_ref.random_state(3, rng))
    before = state.amplitudes.copy()
    apply_hadamard(apply_hadamard(state, 1), 1)
    assert np.max(np.abs(state.amplitudes - before)) < 1e-12

    state = init_basis(3, 0)
    for q in range(3):
        apply_hadamard(state, q)
    assert np.allclose(state.amplitudes, np.full(8, 1 / math.sqrt(8)), atol=1e-15)


def test_hadamard_out_of_range():
    with pytest.raises(ValueError):
        apply_hadamard(init_basis(2, 0), 2)


def uniform(n):
    state = init_basis(n, 0)
    for q in range(n):
        apply_hadamard(state, q)
    return state


def test_phase_flip_examples():
    state = uniform(2)
    apply_phase_flip(state, ExplicitSetOracle(2, (3,)), [0, 1])
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])

    state = uniform(2)
    before = state.amplitudes.copy()
    apply_phase_flip(state, ExplicitSetOracle(2, ()), [0, 1])
    assert np.array_equal(state.amplitudes, before)

    rng = np.random.default_rng(3)
    state = Statevector(3, dense_ref.random_state(3, rng))
    before = state.amplitudes.copy()
    oracle = BitPatternOracle(2, 0b10)
    apply_phase_flip(state, oracle, [0, 2])
    apply_phase_flip(state, oracle, [0, 2])
    assert np.max(np.abs(state.amplitudes - before)) < 1e-12


def test_diffusion_examples():
    state = uniform(3)
    before = state.amplitudes.copy()
    apply_diffusion(state, [0, 1, 2])
    assert np.max(np.abs(state.amplitudes - before)) < 1e-12

    state = Statevector(2, np.array([0.5, 0.5, 0.5, -0.5]))
    apply_diffusion(state, [0, 1])
    assert np.allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-12)

    # Orthogonal-to-uniform states are negated.
    rng = np.random.default_rng(11)
    amps = dense_ref.random_state(2, rng)
    amps -= amps.mean()
    amps /= np.linalg.norm(amps)
    state = Statevector(2, amps.copy())
    apply_diffusion(state, [0, 1])
    assert np.max(np.abs(state.amplitudes + amps)) < 1e-12


def test_controlled_apply_examples():
    oracle = ExplicitSetOracle(2, (2,))

    def flip(sub, regs):
        return apply_phase_flip(sub, oracle, regs)

    # Control off: untouched.
    state = init_basis(3, 0)
    for q in (0, 1):
        apply_hadamard(state, q)
    before = state.amplitudes.copy()
    controlled_apply(state, 2, [0, 1], flip)
    assert np.array_equal(state.amplitudes, before)

    # Control on: identical to the unconditional action.
    state = init_basis(3, 4)
    for q in (0, 1):
        apply_hadamard(state, q)
    controlled_apply(state, 2, [0, 1], flip)
    expected = init_basis(2, 0)
    for q in (0, 1):
        apply_hadamard(expected, q)
    apply_phase_flip(expected, oracle, [0, 1])
    assert np.max(np.abs(state.amplitudes[4:] - expected.amplitudes)) < 1e-12
    assert np.max(np.abs(state.amplitudes[:4])) == 0


@pytest.mark.parametrize("n,control", [(3, 2), (3, 0), (4, 1)])
def test_controlled_apply_matches_dense(n, control):
    rng = np.random.default_rng(n * 31 + control)
    targets = [q for q in range(n) if q != control]
    marked_sub = sorted(rng.choice(1 << len(targets), size=2, replace=False).tolist())
    oracle = ExplicitSetOracle(len(targets), tuple(marked_sub))

    action = dense_ref.dense_phase_flip(n, targets, marked_sub)
    expected_mat = dense_ref.dense_controlled(action, n, control)

    amps = dense_ref.random_state(n, rng)
    state = Statevector(n, amps.copy())
    controlled_apply(state, control, targets, lambda sub, regs: apply_phase_flip(sub, oracle, regs))
    assert np.max(np.abs(state.amplitudes - expected_mat @ amps)) < 1e-12


def test_controlled_apply_overlap_error():
    with pytest.raises(ValueError):
        controlled_apply(init_basis(3, 0), 1, [0, 1], lambda sub, regs: sub)


def test_probability_of_one():
    assert probability_of_one(init_basis(1, 0), 0) == 0.0
    assert abs(probability_of_one(apply_hadamard(init_basis(1, 0), 0), 0) - 0.5) < 1e-15

    # Full counting circuit, 8 states with one marked, one doubling step:
    # p1 = sin^2(theta) = 4*(M/N)*(1 - M/N) = 7/16.
    from qcount.simple_count import step_state
    from qcount.grover import GroverProblem

    problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
    expected = 4.0 * (1 / 8) * (1 - 1 / 8)
    assert abs(probability_of_one(step_state(problem, 1), 3) - expected) < 1e-10
    assert abs(expected - 0.4375) < 1e-15


def test_register_probabilities_matches_single_qubit():
    rng = np.random.default_rng(5)
    state = Statevector(4, dense_ref.random_state(4, rng))
    probs = register_probabilities(state, [2])
    assert abs(probs[1] - probability_of_one(state, 2)) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12

    # Two-qubit marginal sums over the untouched qubits in subindex order.
    probs = register_probabilities(state, [3, 1])
    full = np.abs(state.amplitudes) ** 2
    expected = np.zeros(4)
    for x in range(16):
        expected[dense_ref.subindex(x, [3, 1])] += full[x]
    assert np.max(np.abs(probs - expected)) < 1e-12


def test_sample_bit():
    assert sample_bit(0.0, 1024, 1) == 0
    assert sample_bit(1.0, 1024, 99) == 1024
    count = sample_bit(0.5, 10**6, 1234)
    # 4 sigma band around 0.5 at one million shots
    assert abs(count / 10**6 - 0.5) < 0.002
    assert sample_bit(0.3, 1024, 42) == sample_bit(0.3, 1024, 42)
    with pytest.raises(ValueError):
        sample_bit(1.5, 10, 0)
    with pytest.raises(ValueError):
        sample_bit(0.5, 0, 0)


def test_sample_bit_refuses_p1_one_ulp_above_one():
    # numpy's binomial refuses p > 1 too, with its own message; the bound must be sample_bit's.
    with pytest.raises(ValueError, match=r"probability must be in \[0, 1\]"):
        sample_bit(1.0000000000000002, 10, 0)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, k) for k in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(0, 1) != derive_seed(1, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gates_match_dense_unitaries(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(5):
        amps = dense_ref.random_state(n, rng)

        q = int(rng.integers(n))
        state = Statevector(n, amps.copy())
        apply_hadamard(state, q)
        assert np.max(np.abs(state.amplitudes - dense_ref.dense_hadamard(n, q) @ amps)) < 1e-12

        r = int(rng.integers(1, n + 1))
        register = sorted(rng.choice(n, size=r, replace=False).tolist())
        state = Statevector(n, amps.copy())
        apply_diffusion(state, register)
        assert np.max(np.abs(state.amplitudes - dense_ref.dense_diffusion(n, register) @ amps)) < 1e-12

        marked = sorted(rng.choice(1 << r, size=min(2, 1 << r), replace=False).tolist())
        oracle = ExplicitSetOracle(r, tuple(marked))
        state = Statevector(n, amps.copy())
        apply_phase_flip(state, oracle, register)
        flip = dense_ref.dense_phase_flip(n, register, marked)
        assert np.max(np.abs(state.amplitudes - flip @ amps)) < 1e-12


def test_norm_preserved_under_random_gate_sequences():
    rng = np.random.default_rng(2024)
    n = 3
    state = uniform(n)
    oracle = ExplicitSetOracle(n, (2, 5))
    for _ in range(200):
        op = rng.integers(3)
        if op == 0:
            apply_hadamard(state, int(rng.integers(n)))
        elif op == 1:
            apply_phase_flip(state, oracle, [0, 1, 2])
        else:
            apply_diffusion(state, [0, 1, 2])
        assert abs(state.norm() - 1.0) < 1e-10


def test_invalid_width_cap_names_variable(monkeypatch):
    monkeypatch.setenv("QCOUNT_MAX_QUBITS", "abc")
    with pytest.raises(ValueError, match="QCOUNT_MAX_QUBITS='abc'"):
        max_qubits()
