"""Independent dense-matrix constructions used as oracles for the engine tests.

Everything here is built from first principles (explicit matrix elements
over full basis enumerations, a walk of G**d over a full vector, exact
integer arithmetic, the estimation register's distribution as one FFT of
the overlaps), deliberately not reusing the package's slicing/tensor code
paths or its closed forms. Qubit 0 is the least-significant index bit,
matching the package convention.
"""
import math

import numpy as np

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_I = np.eye(2, dtype=np.complex128)


def bit(x: int, q: int) -> int:
    return (x >> q) & 1


def dense_hadamard(n: int, q: int) -> np.ndarray:
    """Hadamard on qubit q as a 2**n x 2**n matrix, built by Kronecker products."""
    mat = np.array([[1.0]], dtype=np.complex128)
    for axis_qubit in range(n - 1, -1, -1):  # first kron factor is the MSB qubit
        mat = np.kron(mat, _H if axis_qubit == q else _I)
    return mat


def subindex(x: int, register) -> int:
    """Index formed from the register's bits of x (register[i] -> bit i)."""
    sub = 0
    for pos, q in enumerate(register):
        sub |= bit(x, q) << pos
    return sub


def dense_phase_flip(n: int, register, marked_subindices) -> np.ndarray:
    """Diagonal +-1 matrix flipping states whose register pattern is marked."""
    marked = set(marked_subindices)
    diag = np.array(
        [-1.0 if subindex(x, register) in marked else 1.0 for x in range(1 << n)],
        dtype=np.complex128,
    )
    return np.diag(diag)


def dense_diffusion(n: int, register) -> np.ndarray:
    """2P - I where P projects onto the register's uniform superposition.

    P[i, j] = 1/2**r when i and j agree on every bit outside the register.
    """
    dim = 1 << n
    r = len(register)
    outside = [q for q in range(n) if q not in register]
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            if all(bit(i, q) == bit(j, q) for q in outside):
                mat[i, j] = 1.0 / (1 << r)
    return 2.0 * mat - np.eye(dim, dtype=np.complex128)


def dense_controlled(action: np.ndarray, n: int, control: int) -> np.ndarray:
    """Controlled version of a full-space action that is identity on the control."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            if bit(i, control) != bit(j, control):
                continue
            if bit(i, control) == 0:
                mat[i, j] = 1.0 if i == j else 0.0
            else:
                mat[i, j] = action[i, j]
    return mat


def dense_inverse_dft(t: int) -> np.ndarray:
    """Unitary inverse DFT: F_dagger[y, j] = exp(-2*pi*i*y*j/2**t)/sqrt(2**t)."""
    dim = 1 << t
    y, j = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(-2j * np.pi * y * j / dim) / np.sqrt(dim)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def walk_overlaps(problem, count: int) -> np.ndarray:
    """The overlaps a(0..count-1) = <s|G**d|s> by applying G to a vector.

    The oracle flip and the diffusion have real matrix elements, so the walk
    holds G**d applied to the all-ones vector sqrt(N)|s> as N float64 reals,
    and a(d) is that vector's mean. Each step is a sign flip on the marked
    entries, built once from the oracle, then v <- 2*mean(v) - v. The
    reflection keeps the mean, so a(d+1) is the mean of the flipped vector,
    which the reflection needs anyway.
    """
    N = problem.N
    marked = problem.oracle.select(np.arange(N, dtype=np.int64))
    v = np.ones(N)
    overlaps = np.empty(count)
    overlap = 1.0
    for d in range(count):
        overlaps[d] = overlap
        np.negative(v, out=v, where=marked)
        overlap = float(np.add.reduce(v)) / N
        np.subtract(2.0 * overlap, v, out=v)
    return overlaps


def exact_overlaps(n: int, M: int, count: int) -> np.ndarray:
    """The overlaps a(0..count-1) for M of N = 2**n marked, each correctly rounded.

    a(d) = T_d(1 - 2M/N), so b(d) = a(d) * N**d is an integer with b(0) = 1,
    b(1) = N - 2M and b(d+1) = 2(N - 2M) b(d) - N**2 b(d-1). Python's int
    division b(d) / N**d rounds once, to the nearest float.
    """
    N = 1 << n
    step = N - 2 * M
    overlaps = np.empty(count)
    prev, b = 1, step
    for d in range(count):
        overlaps[d] = prev / (1 << (n * d))
        prev, b = b, 2 * step * b - (prev << (2 * n))
    return overlaps


def overlap_distribution(overlaps: np.ndarray) -> np.ndarray:
    """Register outcome distribution from the Grover overlaps a(0..2**t - 1).

    P(j) = 4**-t * sum over |d| < 2**t of (2**t - |d|) * a(d) * exp(-2*pi*i*j*d/2**t).
    a(-d) = a(d), so the negative lags are the conjugate of the positive
    ones and one FFT of the non-negative lags gives P.
    """
    size = overlaps.shape[0]
    lags = np.fft.fft((size - np.arange(size)) * overlaps)
    return (2.0 * lags.real - size * overlaps[0]) / float(size * size)


def mirror_pairs_loop(fractions: np.ndarray, t: int) -> tuple:
    """(lo, hi, probability) of each outcome pair {lo, 2**t - lo}, one pair at a time."""
    size = 1 << t
    pairs = []
    for lo in range((size >> 1) + 1):
        hi = (size - lo) % size
        prob = float(fractions[lo]) if hi == lo else float(fractions[lo] + fractions[hi])
        pairs.append((lo, hi, prob))
    return tuple(pairs)


def postprocess_halfangle(p_k: float, k: int, N: int) -> tuple[float, float]:
    """(theta_hat, m_hat) from p(k) = cos(2**k * theta) by k half-angle steps
    p(j-1) = sqrt((1 + p(j))/2), a second route beside the package's arccos
    inversion. p(k) is clamped to [-1, 1] first, as finite-shot estimates may
    fall outside it."""
    p = min(1.0, max(-1.0, p_k))
    for _ in range(k):
        p = math.sqrt(0.5 * (1.0 + p))
    return math.acos(p), N * 0.5 * (1.0 - p)
