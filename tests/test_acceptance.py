"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere relaxed.
"""
import math
from contextlib import contextmanager

import numpy as np
import pytest

from qcount.analytic import circuit_state_closed_form, p1_exact, pea_distribution
from qcount.grover import (
    GroverProblem,
    apply_grover,
    build_eigenstate,
    grover_angle,
)
from qcount.oracles import BitPatternOracle, ExplicitSetOracle
from qcount.pea import PEAConfig, pea_cost, pea_state, run_pea
from qcount.simple_count import (
    CountingConfig,
    halt_bound,
    postprocess_arccos,
    run_simple_count,
    step_state,
)
from qcount.statevector import register_probabilities

from dense_ref import postprocess_halfangle


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({description}): PASS")


def first_m_problem(n, M):
    return GroverProblem(n, ExplicitSetOracle(n, tuple(range(M))))


@pytest.fixture(scope="module")
def exact_sweep():
    """Exact-mode runs for every n in [2, 12] and M in [1, N/2)."""
    results = []
    for n in range(2, 13):
        N = 1 << n
        for M in range(1, N // 2):
            results.append((n, M, run_simple_count(first_m_problem(n, M))))
    return results


def test_criterion_01_exact_recovery_sweep(exact_sweep):
    with criterion(1, "exact recovery sweep"):
        for n, M, est in exact_sweep:
            assert abs(est.m_hat - M) <= 1e-6 * M, f"n={n} M={M}: m_hat={est.m_hat}"
            bound = halt_bound(1 << n, M)
            assert est.k_final in (bound, bound - 1), f"n={n} M={M}: k={est.k_final}"


def test_criterion_02_large_space_halt_and_sampled_band():
    with criterion(2, "4096-state M=1 halt and 100-shot band"):
        problem = GroverProblem(12, BitPatternOracle(12, 0xFFF))
        exact = run_simple_count(problem)
        assert exact.k_final == 6
        assert abs(exact.trace[6].p1_hat - 0.708) < 5e-4
        assert abs(exact.trace[5].p1_hat - 0.230) < 5e-4
        assert exact.trace[5].p1_hat < 0.5

        shots = 100
        sampled = run_simple_count(problem, CountingConfig(shots=shots, seed=11))
        p1 = p1_exact(sampled.k_final, grover_angle(4096, 1))
        sigma_p = 2.0 * math.sqrt(p1 * (1.0 - p1) / shots)
        band = max(
            abs(postprocess_arccos(1.0 - 2.0 * p1 + s * 4.0 * sigma_p, sampled.k_final, 4096)[1] - 1.0)
            for s in (-1.0, 1.0)
        )
        assert abs(sampled.m_hat - 1.0) <= band


def test_criterion_03_pea_anchor_numbers():
    with criterion(3, "8-state PEA best pair and estimate"):
        problem = GroverProblem(3, ExplicitSetOracle(3, (7,)))
        res = run_pea(problem, PEAConfig(t=3))
        assert set(res.best_pair) == {1, 7}
        assert abs(res.best_pair_probability - 0.98) <= 5e-3
        assert abs(res.m_hat - 1.17) <= 5e-3


def test_criterion_04_m64_halts_at_three():
    with criterion(4, "4096-state M=64 halts at k=3"):
        est = run_simple_count(GroverProblem(12, BitPatternOracle(12, 0x3F)))
        assert est.k_final == 3
        assert est.halted_on_threshold


def test_criterion_05_closed_form_equivalence():
    with criterion(5, "closed-form state vs statevector simulation"):
        for n in range(2, 9):
            N = 1 << n
            for M in range(1, N // 2):
                marked = tuple(range(M))
                problem = GroverProblem(n, ExplicitSetOracle(n, marked))
                angle = grover_angle(N, M)
                xi = np.zeros(N, dtype=complex)
                xi[M:] = 1.0 / math.sqrt(N - M)
                chi = np.zeros(N, dtype=complex)
                chi[:M] = 1.0 / math.sqrt(M)
                for k in range(halt_bound(N, M) + 1):
                    state = step_state(problem, k)
                    low, high = state.amplitudes[:N], state.amplitudes[N:]
                    simulated = np.array(
                        [
                            np.vdot(xi, low),
                            np.vdot(chi, low),
                            np.vdot(xi, high),
                            np.vdot(chi, high),
                        ]
                    )
                    expected = np.array(circuit_state_closed_form(k, angle))
                    assert np.max(np.abs(simulated - expected)) < 1e-10, f"n={n} M={M} k={k}"
                    # The state must lie entirely in the modeled subspace.
                    assert abs(np.sum(np.abs(simulated) ** 2) - 1.0) < 1e-10
                    p1 = float(np.sum(np.abs(high) ** 2))
                    assert abs(p1 - p1_exact(k, angle)) < 1e-10


def _strip_global_phase(amps):
    pivot = amps[int(np.argmax(np.abs(amps)))]
    return amps * (abs(pivot) / pivot)


def test_criterion_06_eigenphase():
    with criterion(6, "Grover eigenphase on constructed eigenstates"):
        for n in range(1, 6):
            N = 1 << n
            for M in range(1, N):
                problem = first_m_problem(n, M)
                theta = grover_angle(N, M).theta
                for sign in (+1, -1):
                    state = build_eigenstate(problem, sign)
                    expected = np.exp(1j * sign * theta) * state.amplitudes
                    apply_grover(state, problem, list(range(n)))
                    got = _strip_global_phase(state.amplitudes)
                    want = _strip_global_phase(expected)
                    assert np.max(np.abs(got - want)) < 1e-10, f"n={n} M={M} sign={sign}"


def test_criterion_07_postprocessing_equivalence(exact_sweep):
    with criterion(7, "arccos and half-angle post-processing agree"):
        for n, M, est in exact_sweep:
            last = est.trace[-1]
            p_k = last.p0_hat - last.p1_hat
            theta_a, m_a = postprocess_arccos(p_k, est.k_final, 1 << n)
            theta_h, m_h = postprocess_halfangle(p_k, est.k_final, 1 << n)
            assert abs(theta_a - theta_h) < 1e-9
            assert abs(m_a - m_h) < 1e-9
        for post in (postprocess_arccos, postprocess_halfangle):
            _, m_hat = post(-0.96875, 2, 8)
            assert abs(m_hat - 1.0) < 1e-9


def test_criterion_08_pea_cross_check():
    with criterion(8, "estimation baseline: simulation vs closed form"):
        for n in range(2, 5):
            N = 1 << n
            for M in range(1, N // 2):
                problem = first_m_problem(n, M)
                angle = grover_angle(N, M)
                for t in range(1, 6):
                    state = pea_state(problem, t)
                    simulated = register_probabilities(state, [n + i for i in range(t)])
                    analytic = pea_distribution(t, angle)
                    assert np.max(np.abs(simulated - analytic)) < 1e-9, f"n={n} M={M} t={t}"
                    size = 1 << t
                    mirrored = simulated[(-np.arange(size)) % size]
                    assert np.max(np.abs(simulated - mirrored)) < 1e-12


def test_criterion_09_cost_accounting(exact_sweep):
    with criterion(9, "controlled-Grover cost identities"):
        for _, _, est in exact_sweep:
            assert est.controlled_grover_cost == (1 << (est.k_final + 1)) - 1
        for t in range(1, 12):
            assert pea_cost(t) == (1 << t) - 1
        problem = GroverProblem(12, BitPatternOracle(12, 0xFFF))
        est = run_simple_count(problem)
        running = 0
        for step in est.trace:
            running += step.K
            assert pea_cost(step.k + 1) == running
        for k in range(7, 11):  # beyond the trace, the identity is arithmetic
            assert pea_cost(k + 1) == (1 << (k + 1)) - 1
        res = run_pea(GroverProblem(3, ExplicitSetOracle(3, (7,))), PEAConfig(t=4))
        assert res.controlled_grover_cost == 15


def test_criterion_10_simple_beats_pea_at_width_six():
    with criterion(10, "exact simple-count error <= PEA error at t=6"):
        for M in (8, 16, 32, 64, 128):
            problem = GroverProblem(12, ExplicitSetOracle(12, tuple(range(M))))
            simple_err = abs(run_simple_count(problem).m_hat - M)
            pea_err = abs(run_pea(problem, PEAConfig(t=6)).m_hat - M)
            assert simple_err <= pea_err, f"M={M}: {simple_err} vs {pea_err}"
