import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qcount.analytic import pea_distribution
from qcount.cli import _pea_json, _write_json
from qcount.grover import GroverProblem, grover_angle
from qcount.oracles import BitPatternOracle, ExplicitSetOracle
from qcount.pea import (
    PEAConfig,
    _best_pair,
    _mirror_pairs,
    inverse_qft,
    pea_cost,
    pea_minimum_t,
    pea_state,
    required_t,
    run_pea,
)
from qcount.simple_count import run_simple_count
from qcount.statevector import (
    ResourceLimitError,
    Statevector,
    apply_hadamard,
    init_basis,
    register_probabilities,
)

import dense_ref


def test_required_t_examples():
    assert required_t(4, 0.25) == 6
    assert required_t(1, 0.499999) == 3
    assert required_t(6, 0.25) == 8  # the 512-state, M=1 configuration
    with pytest.raises(ValueError):
        required_t(0, 0.1)
    with pytest.raises(ValueError):
        required_t(3, 0.0)
    with pytest.raises(ValueError):
        required_t(3, 1.0)


def _smallest_t(m, epsilon):
    # Smallest t with 2**(t - m) >= 2 + 1/(2*epsilon), in exact rationals.
    bound = 2 + 1 / (2 * Fraction(epsilon))
    t = m
    while 2 ** (t - m) < bound:
        t += 1
    return t


@pytest.mark.parametrize("epsilon", [0.01, 0.08, 0.2, 0.25, 0.49])
def test_required_t_table(epsilon):
    for m in range(1, 9):
        assert required_t(m, epsilon) == _smallest_t(m, epsilon), (m, epsilon)


def test_inverse_qft_single_qubit_is_hadamard():
    rng = np.random.default_rng(1)
    amps = dense_ref.random_state(2, rng)
    state = Statevector(2, amps.copy())
    inverse_qft(state, [1])
    expected = Statevector(2, amps.copy())
    apply_hadamard(expected, 1)
    assert np.max(np.abs(state.amplitudes - expected.amplitudes)) < 1e-12


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_forward_then_inverse_is_identity(t):
    # Forward transform built independently as a dense DFT matrix.
    rng = np.random.default_rng(t)
    amps = dense_ref.random_state(t, rng)
    forward = dense_ref.dense_inverse_dft(t).conj().T
    state = Statevector(t, forward @ amps)
    inverse_qft(state, list(range(t)))
    assert np.max(np.abs(state.amplitudes - amps)) < 1e-12


def test_fourier_state_maps_back_to_basis():
    # Explicit phase ramp for j=3 on three qubits.
    t, j = 3, 3
    ramp = np.exp(2j * np.pi * j * np.arange(1 << t) / (1 << t)) / math.sqrt(1 << t)
    state = Statevector(t, ramp)
    inverse_qft(state, [0, 1, 2])
    probs = np.abs(state.amplitudes) ** 2
    assert abs(probs[j] - 1.0) < 1e-12


def test_inverse_qft_on_embedded_register():
    # Register [1, 3] of a 4-qubit state, checked against the dense matrix
    # applied in the register's own index space.
    rng = np.random.default_rng(8)
    amps = dense_ref.random_state(4, rng)
    state = Statevector(4, amps.copy())
    register = [1, 3]
    inverse_qft(state, register)

    dft = dense_ref.dense_inverse_dft(2)
    expected = amps.copy()
    for outside in range(4):
        fixed_bits = {0: outside & 1, 2: (outside >> 1) & 1}
        idx = []
        for sub in range(4):
            x = fixed_bits[0] | (fixed_bits[2] << 2)
            x |= (sub & 1) << 1
            x |= ((sub >> 1) & 1) << 3
            idx.append(x)
        expected[idx] = dft @ expected[idx]
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def test_run_pea_example_eight_states():
    problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
    res = run_pea(problem, PEAConfig(t=3))
    assert res.best_pair == (1, 7)
    assert abs(res.best_pair_probability - 0.98) < 5e-3
    assert abs(res.m_hat - 1.17) < 5e-3
    assert abs(res.m_hat - 8 * math.sin(math.pi * res.phi_hat) ** 2) < 1e-12


def test_run_pea_exact_phase_is_deterministic():
    # M/N = 1/2 sits exactly at phi = 1/4: a single mirror pair holds all
    # probability and the extracted count is exact.
    problem = GroverProblem(1, ExplicitSetOracle(1, (1,)))
    res = run_pea(problem, PEAConfig(t=2))
    assert res.best_pair == (1, 3)
    assert abs(res.best_pair_probability - 1.0) < 1e-12
    assert abs(res.m_hat - 1.0) < 1e-12


def test_run_pea_converges_with_width():
    problem = GroverProblem(9, BitPatternOracle(9, 0x1FF))
    res = run_pea(problem, PEAConfig(t=8))
    assert abs(res.m_hat - 1.0) < 0.3
    assert pea_minimum_t(512, 1) == 7
    assert res.t >= pea_minimum_t(512, 1)


def test_pea_cost():
    assert pea_cost(4) == 15
    assert pea_cost(1) == 1
    with pytest.raises(ValueError):
        pea_cost(0)


def test_cost_parity_with_consecutive_doubling():
    problem = GroverProblem(12, BitPatternOracle(12, 0xFFF))
    est = run_simple_count(problem)
    partial = 0
    for step in est.trace:
        partial += step.K
        assert pea_cost(step.k + 1) == partial


def test_histogram_pairing_symmetry():
    for t, n, M in ((3, 3, 1), (4, 4, 3), (5, 3, 2)):
        problem = GroverProblem(n, ExplicitSetOracle(n, tuple(range(M))))
        res = run_pea(problem, PEAConfig(t=t))
        size = 1 << t
        for j in range(size):
            assert abs(res.histogram[j] - res.histogram[(size - j) % size]) < 1e-10


@pytest.mark.parametrize("t", [1, 2, 3])
def test_engine_equivalence_small(t):
    problem = GroverProblem(3, ExplicitSetOracle(3, (2, 5)))
    analytic = run_pea(problem, PEAConfig(t=t, engine="analytic"))
    simulated = run_pea(problem, PEAConfig(t=t, engine="statevector"))
    assert np.max(np.abs(analytic.histogram - simulated.histogram)) < 1e-9
    assert analytic.best_pair == simulated.best_pair


def test_statevector_distribution_is_register_marginal():
    problem = GroverProblem(2, ExplicitSetOracle(2, (3,)))
    t = 3
    state = pea_state(problem, t)
    probs = register_probabilities(state, [2, 3, 4])
    assert abs(probs.sum() - 1.0) < 1e-10
    assert np.max(np.abs(probs - pea_distribution(t, grover_angle(4, 1)))) < 1e-9


def test_resolution_floor():
    for t, n, M in ((3, 4, 1), (4, 6, 1), (5, 9, 1), (6, 12, 8)):
        problem = GroverProblem(n, ExplicitSetOracle(n, tuple(range(M))))
        res = run_pea(problem, PEAConfig(t=t))
        floor = (1 << n) * math.sin(math.pi / (1 << t)) ** 2
        assert res.m_hat == 0.0 or res.m_hat >= floor - 1e-12


def test_resource_cap_names_width(monkeypatch):
    problem = GroverProblem(9, BitPatternOracle(9, 0x1FF))
    with pytest.raises(ResourceLimitError, match="25"):
        run_pea(problem, PEAConfig(t=16, engine="statevector"))
    monkeypatch.setenv("QCOUNT_MAX_QUBITS", "26")
    state = pea_state(GroverProblem(2, ExplicitSetOracle(2, (1,))), 4)
    assert state.num_qubits == 6


def test_sampled_mode_counts_and_determinism():
    problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
    assert PEAConfig(t=1).seed == 0
    config = PEAConfig(t=3, shots=1024, seed=5)
    res = run_pea(problem, config)
    assert res.histogram.sum() == 1024
    assert res.histogram.dtype == np.int64
    again = run_pea(problem, config)
    assert np.array_equal(res.histogram, again.histogram)
    total = res.paired_prob.sum()
    assert abs(total - 1.0) < 1e-12
    # 1024 shots put the dominant pair close to its exact 0.98 weight.
    assert abs(res.best_pair_probability - 0.98) < 0.03


def test_majority_rejected_but_half_allowed():
    with pytest.raises(ValueError):
        run_pea(GroverProblem(2, ExplicitSetOracle(2, (0, 1, 2))), PEAConfig(t=2))
    run_pea(GroverProblem(2, ExplicitSetOracle(2, (0, 1))), PEAConfig(t=2))


def test_tie_breaks_toward_smaller_phase():
    # Exactly tied pairs (counts make ties exact): {1,7} and {2,6} both 0.25.
    fractions = np.array([0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0])
    pairs = _mirror_pairs(fractions, 3)
    assert _best_pair(pairs, 3) == (0, 0)

    fractions = np.array([0.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.25, 0.25])
    assert _best_pair(_mirror_pairs(fractions, 3), 3) == (1, 7)

    # Half-marked space at t=1 splits evenly up to rounding; both outcomes
    # are self-paired and the winner reads the phase directly.
    res = run_pea(GroverProblem(1, ExplicitSetOracle(1, (1,))), PEAConfig(t=1))
    assert abs(res.histogram[0] - 0.5) < 1e-12
    assert abs(res.histogram[1] - 0.5) < 1e-12
    assert res.best_pair in ((0, 0), (1, 1))


def test_zero_marked_reads_zero():
    res = run_pea(GroverProblem(3, ExplicitSetOracle(3, ())), PEAConfig(t=3))
    assert res.best_pair == (0, 0)
    assert res.m_hat == 0.0


def test_overlap_engine_matches_gate_level_reference():
    for n in range(1, 5):
        N = 1 << n
        for M in range(1, N // 2 + 1):
            problem = GroverProblem(n, ExplicitSetOracle(n, tuple(range(N - M, N))))
            for t in range(1, 6):
                res = run_pea(problem, PEAConfig(t=t, engine="statevector"))
                reference = register_probabilities(pea_state(problem, t),
                                                   [n + i for i in range(t)])
                assert np.max(np.abs(res.histogram - reference)) < 1e-10


@pytest.mark.parametrize("marked,t", [((0, 1, 2, 3), 3), ((0, 1, 2, 3), 4), ((), 4)])
def test_statevector_sampling_at_exact_phases(marked, t):
    # Exact phases leave outcomes of probability 0, which must not come out
    # below 0, or the multinomial draw refuses them.
    problem = GroverProblem(3, ExplicitSetOracle(3, marked))
    exact = run_pea(problem, PEAConfig(t=t, engine="statevector"))
    assert exact.histogram.min() >= 0.0
    res = run_pea(problem, PEAConfig(t=t, shots=64, engine="statevector"))
    assert res.histogram.sum() == 64


@pytest.mark.parametrize("oracle,t", [
    (ExplicitSetOracle(2, (3,)), 12),
    (ExplicitSetOracle(3, (7,)), 12),
    (ExplicitSetOracle(6, (1, 8, 20, 33, 62)), 12),
    (ExplicitSetOracle(8, tuple(range(0, 256, 2))), 11),
    (BitPatternOracle(12, 0xFFF), 12),
    (BitPatternOracle(12, 0x0FF), 10),
])
def test_statevector_distribution_matches_exact_overlaps(oracle, t):
    # The histogram from the exact overlaps, bound fixed before measuring.
    problem = GroverProblem(oracle.n, oracle)
    res = run_pea(problem, PEAConfig(t=t, engine="statevector"))
    exact = dense_ref.exact_overlaps(oracle.n, oracle.count(), 1 << t)
    assert np.max(np.abs(res.histogram - dense_ref.overlap_distribution(exact))) < 1e-12


@pytest.mark.parametrize("engine", ["analytic", "statevector"])
def test_single_shot_is_sampled(engine):
    problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
    res = run_pea(problem, PEAConfig(t=3, shots=1, seed=5, engine=engine))
    assert res.histogram.dtype.kind == "i"
    assert res.histogram.sum() == 1
    assert res.best_pair_probability == 1.0


@pytest.mark.parametrize("engine", ["analytic", "statevector"])
def test_mirror_pairs_match_reference_loop(engine):
    # t = 1 has only the self-mirrored pairs {0} and {1}.
    problem = GroverProblem(5, ExplicitSetOracle(5, (3, 17, 30)))
    for t in range(1, 15):
        exact = run_pea(problem, PEAConfig(t=t, engine=engine))
        sampled = run_pea(problem, PEAConfig(t=t, shots=333, seed=t, engine=engine))
        for fractions in (exact.histogram, sampled.histogram / 333):
            pairs = _mirror_pairs(fractions, t)
            reference = dense_ref.mirror_pairs_loop(fractions, t)
            assert np.array_equal(pairs, [prob for _, _, prob in reference])
            assert _best_pair(pairs, t) == max(reference, key=lambda pair: pair[2])[:2]
        buf = io.StringIO()
        _write_json(_pea_json(exact), buf)
        triples = json.loads(buf.getvalue())["paired_prob"]
        assert triples == [list(pair) for pair in dense_ref.mirror_pairs_loop(exact.histogram, t)]
        assert {tuple(map(type, triple)) for triple in triples} == {(int, int, float)}


def test_large_result_retains_only_its_arrays():
    # A t = 18 result holds the 2**18 histogram and the 2**17 + 1 pair
    # probabilities as float64 arrays, not one Python object per pair.
    problem = GroverProblem(40, BitPatternOracle(40, 0xFFFFFFFFF0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_pea(problem, PEAConfig(t=18))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.paired_prob.shape == ((1 << 17) + 1,)
    assert retained <= 1.25 * ((1 << 18) + (1 << 17) + 1) * 8
