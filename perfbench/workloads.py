"""Seeded op schedules for the four benchmark workloads.

An op is one call that returns one estimate or writes one figure. Each
workload repeats a fixed cycle of op slots; the seed chooses what fills each
slot (mask bits, set members, marked counts, slot order), never the slot's
cost class, so every seed does the same amount of work. This module uses
the standard library only: the generator builds the oracle specs and the
expected answers, and qcount receives only the specs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

FIGURES = tuple(f"fig{i}" for i in range(3, 17))

# Fewest warm ops a run may have. The tail is read at the 11th-slowest op,
# the highest rank with at least 10 samples beyond it; 21 ops keep that rank
# at or above the median.
MIN_WARM_OPS = 21


def halt_bound(N: int, M: int) -> int:
    """Smallest k with M * 4^k >= N, the latest step the simple loop may halt at."""
    k = 0
    while (M << (2 * k)) < N:
        k += 1
    return k


def mask_spec(rng: random.Random, n: int, M: int) -> str:
    """Bit-pattern oracle on n qubits marking exactly M (a power of two) indices."""
    free = rng.sample(range(n), M.bit_length() - 1)
    mask = ((1 << n) - 1) & ~sum(1 << b for b in free)
    return f"mask:{mask:#x}"


def set_spec(rng: random.Random, n: int, M: int) -> str:
    """Explicit-set oracle on n qubits marking M distinct seeded indices."""
    return "set:" + ",".join(str(i) for i in sorted(rng.sample(range(1 << n), M)))


# ---------------------------------------------------------------------------
# sv_simple: run_simple_count, statevector engine, exact mode, n=16.
# Slots are (oracle form, choices of M); M in 1..64 halts at step k = 5..8
# at n=16. Each cycle holds one op at k=8, two at k=7, four at k=6 and one at
# k=5, so every cycle simulates the same number of G applications and the
# median and tail ranks fall inside the k=6 class, not between classes. Set
# sizes are fixed because explicit-set select costs grow with M.

SV_SIMPLE_N = 16
SV_SIMPLE_SLOTS = (
    ("set", (1, 2)),      # k=8
    ("mask", (4, 8)),     # k=7
    ("set", (6,)),        # k=7
    ("mask", (16, 32)),   # k=6
    ("mask", (16, 32)),   # k=6
    ("set", (12,)),       # k=6
    ("set", (24,)),       # k=6
    ("mask", (64,)),      # k=5
)


def _sv_simple_op(rng, kind: str, M: int) -> dict:
    spec = (mask_spec if kind == "mask" else set_spec)(rng, SV_SIMPLE_N, M)
    return {"kind": "sv_simple", "n": SV_SIMPLE_N, "oracle": spec, "M": M}


def _sv_simple_cycle(rng: random.Random) -> list[dict]:
    ops = [_sv_simple_op(rng, kind, rng.choice(Ms)) for kind, Ms in SV_SIMPLE_SLOTS]
    rng.shuffle(ops)
    return ops


def _sv_simple_cold(rng: random.Random) -> dict:
    return _sv_simple_op(rng, "mask", 16)


# ---------------------------------------------------------------------------
# sv_pea: run_pea, statevector engine, n=10, t=8, exact mode, M in 1..16.
# The ladder always applies 2^t - 1 controlled G, whatever M is; the set
# size is fixed because explicit-set select costs grow with M.

SV_PEA_N, SV_PEA_T = 10, 8
SV_PEA_SET_SIZE = 12


def _sv_pea_op(rng, kind: str, M: int) -> dict:
    spec = (mask_spec if kind == "mask" else set_spec)(rng, SV_PEA_N, M)
    return {"kind": "sv_pea", "n": SV_PEA_N, "t": SV_PEA_T, "oracle": spec, "M": M}


def _sv_pea_cycle(rng: random.Random) -> list[dict]:
    ops = [
        _sv_pea_op(rng, "mask", 1 << rng.randrange(5)),
        _sv_pea_op(rng, "set", SV_PEA_SET_SIZE),
    ]
    rng.shuffle(ops)
    return ops


def _sv_pea_cold(rng: random.Random) -> dict:
    return _sv_pea_op(rng, "mask", 4)


# ---------------------------------------------------------------------------
# analytic_scale: in-process `qcount run` on the analytic engine, both
# algorithms, at sizes where exhaustive marked counting dominates. Each slot
# fixes algorithm, oracle form and n; the seed picks mask bits and set
# members, and M only where it leaves the cost alone (pea's t, and so its
# output size, follows M). The majority oracle mask:0x1 forces search-space
# doubling.

SET_SIZE = 3
MAJORITY_N = 21


def _cli_run_op(algo: str, n: int, spec: str, M: int, doubled: bool) -> dict:
    argv = ["run", "--algo", algo, "--n", str(n), "--oracle", spec, "--engine", "analytic"]
    if algo == "pea":
        n_run = n + 1 if doubled else n
        argv += ["--t", str(2 + halt_bound(1 << n_run, M))]
    return {"kind": "cli_run", "argv": argv, "algo": algo, "M": M, "doubled": doubled}


def _small_mask_op(rng, algo: str, n: int, M: int) -> dict:
    return _cli_run_op(algo, n, mask_spec(rng, n, M), M, False)


def _small_set_op(rng, algo: str, n: int) -> dict:
    return _cli_run_op(algo, n, set_spec(rng, n, SET_SIZE), SET_SIZE, False)


def _majority_op(algo: str) -> dict:
    return _cli_run_op(algo, MAJORITY_N, "mask:0x1", 1 << (MAJORITY_N - 1), True)


def _analytic_cycle(rng: random.Random) -> list[dict]:
    ops = [
        _small_mask_op(rng, "simple", 26, 1 << rng.randrange(3)),
        _small_set_op(rng, "pea", 26),
        _small_set_op(rng, "simple", 25),
        _small_mask_op(rng, "pea", 24, 2),
        _majority_op(rng.choice(["simple", "pea"])),
    ]
    rng.shuffle(ops)
    return ops


def _analytic_cold(rng: random.Random) -> dict:
    return _cli_run_op("simple", 24, mask_spec(rng, 24, 1), 1, False)


# ---------------------------------------------------------------------------
# cli_repro: in-process `qcount repro` for all 14 figures (fixed seed 0, so
# the outputs can be checked against recorded digests), FIGURE_ROUNDS times
# per cycle, plus one seeded sampled 64-row `sweep`, in seeded order. The
# sweep is the heaviest op; one per cycle keeps the tail rank inside the
# sweep class. Its n and M lists are seeded orders of fixed values, so every
# sweep does the same work.

FIGURE_ROUNDS = 10
SWEEP_N_VALUES = tuple(range(6, 14))
SWEEP_M_VALUES = (1, 2, 3, 5, 8, 11, 13, 16)
SWEEP_SHOTS = (64, 128, 256, 512, 1024)


def _sweep_op(rng: random.Random) -> dict:
    n_values = list(SWEEP_N_VALUES)
    rng.shuffle(n_values)
    m_values = list(SWEEP_M_VALUES)
    rng.shuffle(m_values)
    seed = rng.getrandbits(32)
    argv = [
        "sweep", "--algo", "simple",
        "--n-values", ",".join(map(str, n_values)),
        "--m-values", ",".join(map(str, m_values)),
        "--shots", str(rng.choice(SWEEP_SHOTS)), "--seed", str(seed),
    ]
    return {"kind": "cli_sweep", "argv": argv, "n_values": n_values,
            "m_values": m_values, "seed": seed}


def _repro_cycle(rng: random.Random) -> list[dict]:
    ops = [{"kind": "cli_repro", "figure": fig} for fig in FIGURES * FIGURE_ROUNDS]
    ops.append(_sweep_op(rng))
    rng.shuffle(ops)
    return ops


def _repro_cold(rng: random.Random) -> dict:
    return {"kind": "cli_repro", "figure": "fig12"}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[random.Random], list[dict]]
    cold: Callable[[random.Random], dict]
    cycle_len: int
    # Warm seconds per cycle at the baseline commit on the reference machine
    # (2-core x86-64, Python 3.11, numpy 2.4); only sizes the schedule.
    nominal_cycle_s: float
    # Fresh processes whose first op gives cold_op_s; fewer where it is slow.
    cold_samples: int

    def schedule(self, seed: int, seconds: int) -> list[dict]:
        """Cold op, then whole cycles sized so the warm ops take about `seconds`
        at the baseline. The op list depends only on (seed, seconds), so sample
        counts and counters repeat exactly across runs and commits."""
        rng = random.Random(f"{self.name}:{seed}")
        cycles = max(round(seconds / self.nominal_cycle_s),
                     -(-MIN_WARM_OPS // self.cycle_len))
        ops = [self.cold(rng)]
        for _ in range(cycles):
            ops += self.cycle(rng)
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sv_simple", _sv_simple_cycle, _sv_simple_cold, 8, 6.8, 7),
        Workload("sv_pea", _sv_pea_cycle, _sv_pea_cold, 2, 3.0, 5),
        Workload("analytic_scale", _analytic_cycle, _analytic_cold, 5, 4.1, 9),
        Workload("cli_repro", _repro_cycle, _repro_cold, 14 * FIGURE_ROUNDS + 1, 0.52, 5),
    )
}
