import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcount.grover import (
    GroverProblem,
    apply_grover,
    build_eigenstate,
    controlled_grover_power,
    engine_marked_count,
    grover_angle,
    marked_count,
)
from qcount.oracles import (
    _CHUNK,
    BitPatternOracle,
    ExplicitSetOracle,
    PrefixOracle,
    marked_indices,
)
from qcount.statevector import Statevector, apply_hadamard, init_basis, probability_of_one

import dense_ref


def enumerated_marked_count(problem):
    """M as the statevector engine finds it, by evaluating the oracle on every basis index."""
    return engine_marked_count(problem, "statevector", problem.n)


def uniform(n):
    state = init_basis(n, 0)
    for q in range(n):
        apply_hadamard(state, q)
    return state


def test_grover_angle_examples():
    angle = grover_angle(4, 1)
    assert abs(angle.theta - math.pi / 3) < 1e-14
    assert abs(angle.phi - 1 / 6) < 1e-14

    angle = grover_angle(16, 0)
    assert angle.theta == 0.0 and angle.phi == 0.0

    angle = grover_angle(8, 1)
    assert abs(angle.theta - 0.722734) < 1e-6
    assert abs(angle.phi - 0.115027) < 1e-6
    assert abs(8 * math.sin(angle.theta / 2) ** 2 - 1.0) < 1e-12


def test_grover_angle_defining_relation():
    rng = np.random.default_rng(77)
    for n in range(1, 11):
        N = 1 << n
        for M in rng.integers(0, N + 1, size=4):
            angle = grover_angle(N, int(M))
            assert abs(math.sin(angle.theta / 2) ** 2 - M / N) < 1e-12
            assert abs(angle.phi - angle.theta / (2 * math.pi)) < 1e-15
            assert 0.0 <= angle.theta <= math.pi


def test_grover_angle_errors():
    with pytest.raises(ValueError):
        grover_angle(8, 9)
    with pytest.raises(ValueError):
        grover_angle(12, 1)
    with pytest.raises(ValueError):
        grover_angle(8, -1)


def test_exact_search_single_step():
    # With 1 of 4 states marked, one iteration lands on the marked state.
    problem = GroverProblem(2, ExplicitSetOracle(2, (2,)))
    state = uniform(2)
    apply_grover(state, problem, [0, 1])
    expected = np.zeros(4)
    expected[2] = 1.0
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def test_apply_grover_matches_dense():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        marked = sorted(rng.choice(1 << n, size=2, replace=False).tolist())
        problem = GroverProblem(n, ExplicitSetOracle(n, tuple(marked)))
        register = list(range(n))
        dense_g = dense_ref.dense_diffusion(n, register) @ dense_ref.dense_phase_flip(
            n, register, marked
        )
        amps = dense_ref.random_state(n, rng)
        state = Statevector(n, amps.copy())
        apply_grover(state, problem, register)
        assert np.max(np.abs(state.amplitudes - dense_g @ amps)) < 1e-12


def test_empty_marked_set_fixes_uniform():
    problem = GroverProblem(3, ExplicitSetOracle(3, ()))
    state = uniform(3)
    before = state.amplitudes.copy()
    apply_grover(state, problem, [0, 1, 2])
    assert np.max(np.abs(state.amplitudes - before)) < 1e-12


def test_register_width_mismatch():
    problem = GroverProblem(3, ExplicitSetOracle(3, (1,)))
    with pytest.raises(ValueError):
        apply_grover(uniform(3), problem, [0, 1])


def test_eigenstate_two_states():
    problem = GroverProblem(1, ExplicitSetOracle(1, (1,)))
    plus = build_eigenstate(problem, +1)
    assert np.allclose(plus.amplitudes, [1 / math.sqrt(2), -1j / math.sqrt(2)])
    minus = build_eigenstate(problem, -1)
    assert np.allclose(minus.amplitudes, [1 / math.sqrt(2), 1j / math.sqrt(2)])


def test_eigenstate_norm_sweep():
    for n in range(1, 7):
        for M in range(1, (1 << n)):
            problem = GroverProblem(n, ExplicitSetOracle(n, tuple(range(M))))
            for sign in (+1, -1):
                assert abs(build_eigenstate(problem, sign).norm() - 1.0) < 1e-12


def test_eigenstate_degenerate_errors():
    with pytest.raises(ValueError):
        build_eigenstate(GroverProblem(2, ExplicitSetOracle(2, ())), +1)
    with pytest.raises(ValueError):
        build_eigenstate(GroverProblem(2, BitPatternOracle(2, 0)), -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigenphase_property(n):
    rng = np.random.default_rng(50 + n)
    N = 1 << n
    for M in range(1, N):
        marked = tuple(sorted(rng.choice(N, size=M, replace=False).tolist()))
        problem = GroverProblem(n, ExplicitSetOracle(n, marked))
        angle = grover_angle(N, M)
        for sign in (+1, -1):
            state = build_eigenstate(problem, sign)
            expected = np.exp(1j * sign * angle.theta) * state.amplitudes
            apply_grover(state, problem, list(range(n)))
            assert np.max(np.abs(state.amplitudes - expected)) < 1e-10


def test_uniform_decomposes_into_marked_and_unmarked():
    # H^n|0..0> = cos(theta/2)|unmarked_uniform> + sin(theta/2)|marked_uniform>
    for n, M in ((3, 1), (4, 5), (5, 12)):
        N = 1 << n
        marked = tuple(range(M))
        angle = grover_angle(N, M)
        xi = np.zeros(N, dtype=complex)
        xi[M:] = 1 / math.sqrt(N - M)
        chi = np.zeros(N, dtype=complex)
        chi[:M] = 1 / math.sqrt(M)
        reconstructed = math.cos(angle.theta / 2) * xi + math.sin(angle.theta / 2) * chi
        assert np.max(np.abs(uniform(n).amplitudes - reconstructed)) < 1e-12


@pytest.mark.parametrize("n,M,period", [(2, 1, 12), (2, 2, 8), (2, 3, 6), (1, 1, 8)])
def test_grover_period_on_exact_angles(n, M, period):
    # Cases where theta divides 4*pi: round(2 * 2*pi/theta) applications return to the start.
    angle = grover_angle(1 << n, M)
    assert period == round(2 * (2 * math.pi / angle.theta))
    problem = GroverProblem(n, ExplicitSetOracle(n, tuple(range(M))))
    state = uniform(n)
    start = state.amplitudes.copy()
    for _ in range(period):
        apply_grover(state, problem, list(range(n)))
        assert abs(state.norm() - 1.0) < 1e-10
    assert np.max(np.abs(state.amplitudes - start)) < 1e-8


def test_controlled_power_zero_is_identity():
    problem = GroverProblem(2, ExplicitSetOracle(2, (1,)))
    state = uniform(3)
    before = state.amplitudes.copy()
    controlled_grover_power(state, 2, problem, [0, 1], 0)
    assert np.array_equal(state.amplitudes, before)


def test_controlled_power_with_control_on_equals_plain_grover():
    problem = GroverProblem(2, ExplicitSetOracle(2, (1,)))
    state = init_basis(3, 4)  # control qubit 2 in |1>
    for q in (0, 1):
        apply_hadamard(state, q)
    controlled_grover_power(state, 2, problem, [0, 1], 1)

    expected = uniform(2)
    apply_grover(expected, problem, [0, 1])
    assert np.max(np.abs(state.amplitudes[4:] - expected.amplitudes)) < 1e-12


def test_controlled_power_full_circuit_probability():
    # Full measurement-step preparation with K=4 iterations: p1 = sin^2(4*theta/2).
    problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
    angle = grover_angle(8, 1)
    state = init_basis(4, 0)
    for q in range(4):
        apply_hadamard(state, q)
    controlled_grover_power(state, 3, problem, [0, 1, 2], 4)
    apply_hadamard(state, 3)
    expected = math.sin(4 * angle.theta / 2) ** 2
    assert abs(probability_of_one(state, 3) - expected) < 1e-10


@pytest.mark.parametrize("n,oracle", [
    (3, ExplicitSetOracle(4, (1,))),
    (0, ExplicitSetOracle(1, ())),  # every oracle has n >= 1, so this check refuses n = 0 too
], ids=["wider_oracle", "zero_width_problem"])
def test_problem_refuses_an_oracle_of_another_width(n, oracle):
    with pytest.raises(ValueError, match=f"defined on {oracle.n} qubits, problem has {n}$"):
        GroverProblem(n, oracle)


def test_marked_count_examples():
    assert marked_count(GroverProblem(3, BitPatternOracle(3, 0b111))) == 1
    assert marked_count(GroverProblem(4, ExplicitSetOracle(4, ()))) == 0


def test_marked_count_bit_pattern_combinatorics():
    rng = np.random.default_rng(31)
    for n in range(1, 13):
        mask = int(rng.integers(0, 1 << n))
        problem = GroverProblem(n, BitPatternOracle(n, mask))
        assert marked_count(problem) == 1 << (n - bin(mask).count("1"))
        assert enumerated_marked_count(problem) == marked_count(problem)


@st.composite
def marked_sets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    marked = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1)))
    return n, tuple(marked)


@given(marked_sets())
def test_overlap_walk_is_cosine_of_grover_angle(case):
    # Both engines take a(d) = cos(d*theta), theta from the enumerated M.
    n, marked = case
    problem = GroverProblem(n, ExplicitSetOracle(n, marked))
    theta = grover_angle(problem.N, enumerated_marked_count(problem)).theta
    expected = np.cos(np.arange(128) * theta)
    assert np.max(np.abs(dense_ref.walk_overlaps(problem, 128) - expected)) < 1e-12


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))))
def test_mask_and_set_oracles_give_identical_overlaps(case):
    # The overlaps depend on the oracle only through M.
    n, mask = case
    pattern = BitPatternOracle(n, mask)
    explicit = ExplicitSetOracle(n, tuple(int(i) for i in marked_indices(pattern)))
    assert (enumerated_marked_count(GroverProblem(n, pattern))
            == enumerated_marked_count(GroverProblem(n, explicit)) == pattern.count())


# The largest |a(d) - exact| allowed of the vector walk, fixed before measuring.
EXACT_BOUND = 1e-12


def exact_cases():
    """(oracle, M) pairs on n <= 12 qubits, plus a few at n = 16, with
    M = 1 and N - 1 on every n and M = 0 and N on n <= 4."""
    rng = np.random.default_rng(2805)
    cases = []
    for n in range(1, 13):
        N = 1 << n
        edges = {0, N} if n <= 4 else set()
        for M in sorted(edges | {1, N - 1, int(rng.integers(1, N))}):
            marked = tuple(int(i) for i in rng.choice(N, size=M, replace=False))
            cases.append((ExplicitSetOracle(n, marked), M))
    cases.append((BitPatternOracle(12, 0xFFF), 1))
    cases.append((BitPatternOracle(12, 0x0FF), 16))
    for M in (1, 3, 1 << 15, (1 << 16) - 1):
        cases.append((ExplicitSetOracle(16, tuple(range(M))), M))
    cases.append((BitPatternOracle(16, 0xFFFF), 1))
    return cases


def test_overlaps_match_exact_reference():
    # The engines' overlaps are exact in M, so the enumerated M must be exact.
    for oracle, M in exact_cases():
        assert enumerated_marked_count(GroverProblem(oracle.n, oracle)) == M, (oracle, M)


def test_exact_reference_examples():
    # N = 8, M = 1: cos(theta) = 3/4, so a(2) = 2(3/4)^2 - 1 = 1/8 and
    # a(3) = 2(3/4)(1/8) - 3/4 = -9/16, each exact in binary.
    assert list(dense_ref.exact_overlaps(3, 1, 4)) == [1.0, 0.75, 0.125, -0.5625]
    assert list(dense_ref.exact_overlaps(2, 0, 3)) == [1.0, 1.0, 1.0]
    assert list(dense_ref.exact_overlaps(2, 4, 3)) == [1.0, -1.0, 1.0]


@pytest.mark.parametrize("n,marked", [
    (1, (1,)), (3, (7,)), (5, (0, 9, 30)), (8, tuple(range(100))),
])
def test_vector_walk_matches_engine(n, marked):
    problem = GroverProblem(n, ExplicitSetOracle(n, marked))
    walk = dense_ref.walk_overlaps(problem, 512)
    assert np.max(np.abs(walk - dense_ref.exact_overlaps(n, len(marked), 512))) < EXACT_BOUND
    assert enumerated_marked_count(problem) == len(marked)


@pytest.mark.parametrize("oracle,M", [
    (BitPatternOracle(22, (1 << 22) - 1), 1),
    (PrefixOracle(22, (1 << 22) - 1), (1 << 22) - 1),
    # The first and last index of each of the first two enumeration blocks.
    (ExplicitSetOracle(22, (0, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, (1 << 22) - 1)), 6),
    # The first and last index of every block.
    (ExplicitSetOracle(22, tuple(i for b in range(0, 1 << 22, _CHUNK) for i in (b, b + _CHUNK - 1))),
     2 * ((1 << 22) // _CHUNK)),
])
def test_overlaps_stay_exact_at_large_n(oracle, M):
    # The engines' overlaps come from M alone, so the count across blocks must be exact.
    assert enumerated_marked_count(GroverProblem(22, oracle)) == M
