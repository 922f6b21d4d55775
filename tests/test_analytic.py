import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcount.analytic import circuit_state_closed_form, p1_exact, pea_distribution
from qcount.grover import GroverProblem, grover_angle
from qcount.oracles import ExplicitSetOracle
from qcount.simple_count import halt_bound, step_state


@given(st.integers(min_value=1, max_value=12), st.data())
def test_p1_at_step_zero_is_marked_fraction(n, data):
    M = data.draw(st.integers(min_value=0, max_value=1 << n))
    angle = grover_angle(1 << n, M)
    assert abs(p1_exact(0, angle) - M / (1 << n)) < 1e-12


def test_p1_anchor_values_for_large_search_space():
    angle = grover_angle(4096, 1)
    # Independent evaluation straight from the trig definition.
    theta = 2 * math.asin(1 / 64)
    assert abs(p1_exact(6, angle) - math.sin(32 * theta) ** 2) < 1e-12
    assert abs(p1_exact(5, angle) - math.sin(16 * theta) ** 2) < 1e-12
    assert p1_exact(6, angle) > 0.5
    assert p1_exact(5, angle) < 0.5
    assert abs(p1_exact(6, angle) - 0.708) < 5e-4
    assert abs(p1_exact(5, angle) - 0.230) < 5e-4


def test_p1_zero_angle():
    angle = grover_angle(16, 0)
    assert all(p1_exact(k, angle) == 0.0 for k in range(20))


def test_closed_form_normalized_and_marginal_consistent():
    for N, M in ((8, 1), (64, 3), (4096, 17)):
        angle = grover_angle(N, M)
        for k in range(21):
            coeffs = circuit_state_closed_form(k, angle)
            assert abs(sum(c * c for c in coeffs) - 1.0) < 1e-12
            c1_unmarked, c1_marked = coeffs[2], coeffs[3]
            assert abs(c1_unmarked**2 + c1_marked**2 - p1_exact(k, angle)) < 1e-12


def test_closed_form_matches_statevector_simulation():
    n, M, k = 3, 1, 1
    N = 1 << n
    marked = (7,)
    problem = GroverProblem(n, ExplicitSetOracle(n, marked))
    angle = grover_angle(N, M)
    state = step_state(problem, k)

    xi = np.zeros(N, dtype=complex)
    xi[: N - 1] = 1 / math.sqrt(N - M)
    chi = np.zeros(N, dtype=complex)
    chi[7] = 1.0
    low, high = state.amplitudes[:N], state.amplitudes[N:]
    simulated = (
        np.vdot(xi, low).real,
        np.vdot(chi, low).real,
        np.vdot(xi, high).real,
        np.vdot(chi, high).real,
    )
    expected = circuit_state_closed_form(k, angle)
    assert np.max(np.abs(np.array(simulated) - np.array(expected))) < 1e-10


def test_pea_distribution_exact_phase():
    # theta = pi/2 gives phi = 1/4, exactly representable with two bits. The
    # outcome mass splits evenly between the two mirror phases phi and 1-phi,
    # so the mirror pair {1, 3} carries all of it.
    dist = pea_distribution(2, grover_angle(2, 1))
    assert abs(dist[1] - 0.5) < 1e-12
    assert abs(dist[3] - 0.5) < 1e-12
    assert abs(dist[0]) < 1e-12 and abs(dist[2]) < 1e-12


def test_pea_distribution_anchor_pair_mass():
    dist = pea_distribution(3, grover_angle(8, 1))
    assert abs(dist[1] + dist[7] - 0.98) < 5e-3


def test_pea_distribution_normalized_and_symmetric():
    for t, N, M in ((1, 4, 1), (3, 8, 1), (5, 64, 3), (8, 512, 1), (10, 4096, 5)):
        dist = pea_distribution(t, grover_angle(N, M))
        assert abs(dist.sum() - 1.0) < 1e-10
        mirrored = dist[(-np.arange(1 << t)) % (1 << t)]
        assert np.max(np.abs(dist - mirrored)) < 1e-12


@pytest.mark.parametrize("M", [0, 1, 3, 1 << 39])
def test_pea_distribution_is_independent_of_its_blocks(M):
    # M = 0 and M = N/2 (phase 1/4) put outcomes on the singular grid points.
    angle = grover_angle(1 << 40, M)
    for t in range(1, 13):
        whole = pea_distribution(t, angle)
        for chunk in (1, 3, (1 << t) - 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("qcount.oracles._CHUNK", chunk)
                assert np.array_equal(pea_distribution(t, angle), whole), (t, chunk)


def test_pea_distribution_degenerate_phases():
    assert abs(pea_distribution(3, grover_angle(8, 0))[0] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        pea_distribution(0, grover_angle(8, 1))
    with pytest.raises(ValueError):
        pea_distribution(25, grover_angle(8, 1))


def test_p1_rises_monotonically_until_halt():
    for n in range(2, 13):
        N = 1 << n
        for M in range(1, N // 2):
            angle = grover_angle(N, M)
            halt = halt_bound(N, M)
            previous = p1_exact(0, angle)
            halted_at = None
            for k in range(1, halt + 1):
                current = p1_exact(k, angle)
                assert current > previous, f"n={n} M={M} k={k}"
                if current >= 0.5:
                    halted_at = k
                    break
                previous = current
            if halted_at is None:
                assert previous >= 0.5 or p1_exact(0, angle) >= 0.5
