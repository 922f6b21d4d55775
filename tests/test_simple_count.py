import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcount.analytic import circuit_state_closed_form, p1_exact
from qcount.grover import GroverProblem, grover_angle, marked_count
from qcount.oracles import BitPatternOracle, ExplicitSetOracle, PrefixOracle
from qcount.statevector import ResourceLimitError, derive_seed, probability_of_one, sample_bit
from qcount.simple_count import (
    CountingConfig,
    default_max_k,
    ensure_minority,
    halt_bound,
    optimal_grover_iterations,
    postprocess_arccos,
    run_simple_count,
    step_state,
)

from dense_ref import postprocess_halfangle


def first_m_problem(n, M):
    return GroverProblem(n, ExplicitSetOracle(n, tuple(range(M))))


def simulated_p1(problem, k):
    """p1 of measurement step k from the gate-level (n+1)-qubit circuit."""
    return probability_of_one(step_state(problem, k), problem.n)


def test_exact_run_large_space():
    est = run_simple_count(GroverProblem(12, BitPatternOracle(12, 0xFFF)))
    assert est.k_final == 6
    assert est.halted_on_threshold
    assert abs(est.trace[-1].p1_hat - 0.708) < 5e-4
    assert abs(est.trace[5].p1_hat - 0.230) < 5e-4
    assert abs(est.m_hat - 1.0) < 1e-6
    assert est.controlled_grover_cost == 127


def test_exact_run_eight_states():
    est = run_simple_count(first_m_problem(3, 1))
    assert est.k_final == 2
    assert abs(est.trace[-1].p1_hat - 0.984375) < 1e-12  # 63/64 up to trig rounding
    assert abs(est.m_hat - 1.0) < 1e-9
    assert est.optimal_iterations == 2
    assert abs(est.m_hat - est.N * math.sin(est.theta_hat / 2) ** 2) < 1e-12


def test_zero_marked_never_halts():
    est = run_simple_count(first_m_problem(4, 0))
    assert not est.halted_on_threshold
    assert est.m_hat == 0.0
    assert est.theta_hat == 0.0
    assert est.optimal_iterations is None
    assert len(est.trace) == default_max_k(4) + 1


def test_majority_rejected():
    with pytest.raises(ValueError):
        run_simple_count(first_m_problem(2, 2))


def test_halt_bound_examples():
    assert halt_bound(4096, 1) == 6
    assert halt_bound(4096, 64) == 3
    assert halt_bound(8, 1) == 2
    with pytest.raises(ValueError):
        halt_bound(64, 0)


def test_halt_bound_is_exact_integer_arithmetic():
    # ceil(log2(sqrt(N/M))) == smallest k with M*4^k >= N, up to the 62-qubit
    # index limit; M = N / 4**j and its neighbours sit on the step boundaries.
    for n in range(1, 63):
        N = 1 << n
        boundaries = [(N >> (2 * j)) + d for j in range(n // 2 + 1) for d in (-1, 0, 1)]
        for M in (1, 2, 3, 5, N // 4 + 1, N // 2 - 1, N - 1, N, *boundaries):
            if M < 1 or M > N:
                continue
            k = halt_bound(N, M)
            assert M << (2 * k) >= N
            assert k == 0 or M << (2 * (k - 1)) < N


def test_postprocess_arccos_examples():
    theta, m_hat = postprocess_arccos(-1.0, 0, 16)
    assert abs(theta - math.pi) < 1e-15
    assert abs(m_hat - 16.0) < 1e-12

    theta, m_hat = postprocess_arccos(-0.96875, 2, 8)
    assert abs(theta - 0.722734) < 1e-6
    assert abs(m_hat - 1.0) < 1e-9

    theta, m_hat = postprocess_arccos(1.0, 5, 8)
    assert theta == 0.0 and m_hat == 0.0


def test_postprocess_halfangle_chain():
    # p(2) = -0.96875 -> p(1) = 0.125 -> p(0) = 0.75 -> M = 8*(1-0.75)/2 = 1
    theta, m_hat = postprocess_halfangle(-0.96875, 2, 8)
    assert abs(m_hat - 1.0) < 1e-9
    assert abs(theta - math.acos(0.75)) < 1e-12

    p1 = math.sqrt((1 - 0.96875) / 2)
    assert abs(p1 - 0.125) < 1e-15
    p0 = math.sqrt((1 + p1) / 2)
    assert abs(p0 - 0.75) < 1e-15


def test_postprocess_halfangle_no_iterations():
    theta, m_hat = postprocess_halfangle(0.5, 0, 8)
    assert abs(m_hat - 8 * (1 - 0.5) / 2) < 1e-15
    assert abs(theta - math.acos(0.5)) < 1e-15


@given(
    st.floats(min_value=-1.0, max_value=0.0),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=16),
)
def test_postprocess_formulas_equivalent_in_halting_regime(p, k, n):
    # Every halted run has p(k) = p0 - p1 <= 0; there both routes agree fully.
    N = 1 << n
    theta_a, m_a = postprocess_arccos(p, k, N)
    theta_h, m_h = postprocess_halfangle(p, k, N)
    assert abs(theta_a - theta_h) < 1e-9
    assert abs(m_a - m_h) < 1e-9


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=16),
)
def test_postprocess_m_agrees_for_positive_p(p, k, n):
    # Near p = 1 the arccos is ill-conditioned in theta, but both routes
    # still agree on the count (which tends to zero there).
    N = 1 << n
    _, m_a = postprocess_arccos(p, k, N)
    _, m_h = postprocess_halfangle(p, k, N)
    assert abs(m_a - m_h) < 1e-9


@given(st.floats(min_value=-2.0, max_value=2.0))
def test_postprocess_clamps_out_of_range(p):
    theta, m_hat = postprocess_arccos(p, 1, 8)
    assert 0.0 <= theta <= math.pi / 2
    assert 0.0 <= m_hat <= 8.0
    # Unclamped, p < -1 takes sqrt of a negative and p > 1 (k = 0) takes acos past 1.
    for k in (0, 1):
        theta, m_hat = postprocess_halfangle(p, k, 8)
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= m_hat <= 8.0


@pytest.mark.parametrize("call", [
    lambda: p1_exact(-1, grover_angle(8, 1)),
    lambda: circuit_state_closed_form(-1, grover_angle(8, 1)),
    lambda: postprocess_arccos(0.0, -1, 8),
    lambda: step_state(first_m_problem(3, 1), -1),
], ids=["p1_exact", "circuit_state_closed_form", "postprocess_arccos", "step_state"])
def test_negative_step_is_refused(call):
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        call()


def test_optimal_grover_iterations_examples():
    assert optimal_grover_iterations(math.pi / 3) == 1
    assert optimal_grover_iterations(grover_angle(4, 1).theta) == 1
    assert optimal_grover_iterations(grover_angle(8, 1).theta) == 2
    assert optimal_grover_iterations(math.pi) == 0
    # (pi/theta - 1)/2 comes out 30.000000000000004; the snap keeps the ceiling at 30.
    assert optimal_grover_iterations(math.pi / 61) == 30
    # 4.2 is far from the integer it rounds to, so it is not snapped down to 4.
    assert optimal_grover_iterations(math.pi / 9.4) == 5
    with pytest.raises(ValueError):
        optimal_grover_iterations(0.0)


def test_ensure_minority_examples():
    doubled = ensure_minority(first_m_problem(2, 3))
    assert doubled.n == 3 and doubled.N == 8
    assert marked_count(doubled) == 3

    problem = first_m_problem(4, 4)  # M/N = 0.25
    assert ensure_minority(problem) is problem

    # M = N needs two doublings.
    saturated = ensure_minority(GroverProblem(2, BitPatternOracle(2, 0)))
    assert saturated.n == 4 and marked_count(saturated) == 4


def test_ensure_minority_preserves_recovery():
    for n in range(1, 7):
        N = 1 << n
        for M in range(N // 2, N + 1):
            problem = ensure_minority(first_m_problem(n, M))
            assert 2 * marked_count(problem) < problem.N
            est = run_simple_count(problem)
            assert abs(est.m_hat - M) < 1e-6 * M


def test_exact_recovery_and_halt_window():
    for n in range(2, 9):
        N = 1 << n
        for M in range(1, N // 2):
            est = run_simple_count(first_m_problem(n, M))
            assert est.halted_on_threshold
            assert abs(est.m_hat - M) <= 1e-6 * M
            bound = halt_bound(N, M)
            assert est.k_final in (bound, bound - 1)
            assert est.controlled_grover_cost == (1 << (est.k_final + 1)) - 1


def test_statevector_engine_matches_analytic():
    for n, marked in ((2, (1,)), (3, (0, 5)), (4, (2, 7, 11)), (5, (3,))):
        problem = GroverProblem(n, ExplicitSetOracle(n, marked))
        exact = run_simple_count(problem, CountingConfig(engine="analytic"))
        simulated = run_simple_count(problem, CountingConfig(engine="statevector"))
        assert exact.k_final == simulated.k_final
        assert abs(exact.m_hat - simulated.m_hat) < 1e-8
        for a, b in zip(exact.trace, simulated.trace):
            assert abs(a.p1_hat - b.p1_hat) < 1e-10


def test_step_probability_matches_closed_form():
    problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
    angle = grover_angle(8, 1)
    for k in range(4):
        assert abs(simulated_p1(problem, k) - p1_exact(k, angle)) < 1e-10


def test_oracle_forms_give_identical_traces():
    mask_problem = GroverProblem(4, BitPatternOracle(4, 0b1100))
    set_problem = GroverProblem(4, ExplicitSetOracle(4, (12, 13, 14, 15)))
    for engine in ("analytic", "statevector"):
        a = run_simple_count(mask_problem, CountingConfig(engine=engine))
        b = run_simple_count(set_problem, CountingConfig(engine=engine))
        assert a.k_final == b.k_final
        assert [s.p1_hat for s in a.trace] == [s.p1_hat for s in b.trace]
        assert a.m_hat == b.m_hat


def sampled_error_band(N, M, k, shots):
    """Worst |m_hat - M| over p(k) +- 4 sigma, propagated through the arccos inversion."""
    p1 = p1_exact(k, grover_angle(N, M))
    sigma_p = 2.0 * math.sqrt(p1 * (1.0 - p1) / shots)
    band = 0.0
    for endpoint in (1.0 - 2.0 * p1 - 4.0 * sigma_p, 1.0 - 2.0 * p1 + 4.0 * sigma_p):
        _, m_hat = postprocess_arccos(endpoint, k, N)
        band = max(band, abs(m_hat - M))
    return band


@pytest.mark.parametrize("n,M,shots", [(12, 1, 1024), (12, 64, 1024), (8, 1, 1024), (10, 37, 1024)])
def test_sampled_estimate_within_propagated_band(n, M, shots):
    problem = first_m_problem(n, M)
    est = run_simple_count(problem, CountingConfig(shots=shots, seed=7))
    band = sampled_error_band(1 << n, M, est.k_final, shots)
    assert abs(est.m_hat - M) <= band


def test_sampled_runs_are_deterministic():
    problem = first_m_problem(10, 3)
    config = CountingConfig(shots=100, seed=123)
    a = run_simple_count(problem, config)
    b = run_simple_count(problem, config)
    assert [s.ones for s in a.trace] == [s.ones for s in b.trace]
    assert a.m_hat == b.m_hat


def test_relaxed_threshold_halts_earlier():
    problem = first_m_problem(12, 1)
    strict = run_simple_count(problem, CountingConfig(threshold=0.5))
    relaxed = run_simple_count(problem, CountingConfig(threshold=0.15))
    assert relaxed.k_final < strict.k_final
    assert relaxed.halted_on_threshold
    # Coarse estimate but still the right magnitude.
    assert abs(relaxed.m_hat - 1.0) < 0.5


def test_config_validation():
    assert CountingConfig().seed == 0
    with pytest.raises(ValueError):
        CountingConfig(threshold=0.0)
    with pytest.raises(ValueError):
        CountingConfig(shots=-1)
    with pytest.raises(ValueError):
        CountingConfig(engine="qasm")


def test_threshold_bound_is_inclusive_at_one():
    assert CountingConfig(threshold=1.0).threshold == 1.0
    with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\]"):
        CountingConfig(threshold=1.0000000000000002)


def test_overlap_engine_matches_gate_level_reference():
    rng = np.random.default_rng(2019)
    for n in range(1, 9):
        N = 1 << n
        for M in range(1, N // 2):
            marked = tuple(int(i) for i in rng.choice(N, size=M, replace=False))
            problem = GroverProblem(n, ExplicitSetOracle(n, marked))
            simulated = run_simple_count(problem, CountingConfig(engine="statevector"))
            assert simulated.k_final == run_simple_count(problem).k_final
            for step in simulated.trace:
                assert abs(step.p1_hat - simulated_p1(problem, step.k)) < 1e-10


def doubling_map_cases():
    """(n, M) with M = 1, 2, 3, N/4, N/4 + 1, N/2 - 1 and two seeded others, n = 2..23."""
    rng = np.random.default_rng(1947)
    for n in range(2, 24):
        N = 1 << n
        picks = {1, 2, 3, N // 4, N // 4 + 1, N // 2 - 1}
        picks.update(int(M) for M in rng.integers(1, N // 2, 2))
        yield from ((n, M) for M in sorted(picks) if 1 <= M < N // 2)


def test_statevector_p1_follows_the_exact_doubling_map():
    # p1(k) = sin^2(2**k * theta/2) is the map p <- 4p(1 - p) from p = M/N; in
    # integers, a <- 4a(D - a) and D <- D**2 from a = M, D = N give p1(k) = a/D exactly.
    for n, M in doubling_map_cases():
        est = run_simple_count(GroverProblem(n, PrefixOracle(n, M)),
                               CountingConfig(engine="statevector", threshold=1.0))
        assert len(est.trace) == default_max_k(n) + 1 or est.trace[-1].p1_hat == 1.0
        a, D = M, 1 << n
        last_exact = halt_bound(D, M)
        for step in est.trace:
            tolerance = 1e-15 if step.k <= last_exact else 1e-10
            assert abs(step.p1_hat - a / D) < tolerance, (n, M, step.k)
            a, D = 4 * a * (D - a), D * D


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << (n - 1)) - 1))))
def test_doubling_map_stays_in_the_unit_interval(case):
    # Sampling takes each step's p1 unclamped, so it must lie in [0, 1].
    n, M = case
    est = run_simple_count(GroverProblem(n, PrefixOracle(n, M)),
                           CountingConfig(engine="statevector", threshold=1.0))
    assert all(0.0 <= step.p1_hat <= 1.0 for step in est.trace)


def test_statevector_width_cap_counts_measurement_qubit(monkeypatch):
    monkeypatch.setenv("QCOUNT_MAX_QUBITS", "4")
    run_simple_count(first_m_problem(3, 1), CountingConfig(engine="statevector"))
    with pytest.raises(ResourceLimitError, match="5 qubits"):
        run_simple_count(first_m_problem(4, 1), CountingConfig(engine="statevector"))


def test_default_max_k_values():
    assert [default_max_k(n) for n in (1, 12, 13, 62)] == [3, 8, 9, 33]


def test_p1_equal_to_threshold_halts_exact_mode():
    problem = GroverProblem(12, BitPatternOracle(12, 0xFFF))
    p1_step4 = run_simple_count(problem).trace[4].p1_hat
    est = run_simple_count(problem, CountingConfig(threshold=p1_step4))
    assert est.k_final == 4 and est.halted_on_threshold


def test_p1_equal_to_threshold_halts_sampled_mode():
    # Step 0 has p1 = M/N = 7/16; find a seed whose step-0 draw is 50 of 100.
    problem = first_m_problem(4, 7)
    seed = next(s for s in range(10_000)
                if sample_bit(7 / 16, 100, derive_seed(s, 0)) == 50)
    est = run_simple_count(problem, CountingConfig(shots=100, seed=seed))
    assert est.trace[0].ones == 50
    assert est.k_final == 0 and est.halted_on_threshold


@pytest.mark.parametrize("engine", ["analytic", "statevector"])
def test_single_shot_is_sampled(engine):
    est = run_simple_count(first_m_problem(6, 1), CountingConfig(shots=1, seed=3, engine=engine))
    for step in est.trace:
        assert step.shots == 1 and step.ones in (0, 1)
        assert step.p1_hat == step.ones
    assert est.halted_on_threshold == (est.trace[-1].ones == 1)


class CountingOracle:
    """Delegates to an oracle and counts the basis indices `select` evaluates."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.evaluated = 0

    def select(self, xs):
        self.evaluated += len(xs)
        return self.inner.select(xs)

    def count(self):
        return self.inner.count()


@pytest.mark.parametrize("inner", [
    BitPatternOracle(22, (1 << 22) - 1),
    ExplicitSetOracle(22, (12345,)),
    ExplicitSetOracle(22, ()),
    ExplicitSetOracle(22, tuple(range(7, 1 << 22, 167_773))),
])
def test_statevector_engine_memory_is_bounded(inner):
    # A 2**22-float state vector alone would be 32 MiB; the enumeration of M
    # holds one block of basis indices at a time, so it stays far below 1 MiB.
    oracle = CountingOracle(inner)
    problem = GroverProblem(22, oracle)
    tracemalloc.start()
    try:
        est = run_simple_count(problem, CountingConfig(engine="statevector"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert oracle.evaluated == problem.N
    assert abs(est.m_hat - inner.count()) <= 1e-6 * inner.count()
