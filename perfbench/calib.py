"""Host-speed calibration for the timing metrics.

On a shared machine the same op can take 30% longer for minutes at a time,
for every workload at once, which swamps the differences a benchmark has to
resolve. A fixed kernel that does not touch qcount is timed in the same
process as the measured work: strided copies and arithmetic on a 1 MiB
complex vector, like the statevector kernels, and an interpreter-bound
Python loop, like the CLI paths. It works in buffers allocated once, so its
time does not depend on the process's heap. Each latency is scaled by
NOMINAL_S / (kernel time), which turns it into seconds at the host speed
where the kernel takes NOMINAL_S. The raw latencies are reported too.
"""
from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference machine (2-core x86-64, Python 3.11, numpy 2.4).
NOMINAL_S = 0.006
QUBITS = 16
REPEATS = 3


class Calibrator:
    """Times the calibration kernel; create it after any cold measurement."""

    def __init__(self):
        self.state = np.ones(1 << QUBITS, dtype=np.complex128)
        self.half = np.empty((2,) * (QUBITS - 1), dtype=np.complex128)

    def _kernel(self) -> float:
        start = time.perf_counter()
        tensor = self.state.reshape((2,) * QUBITS)
        for axis in range(QUBITS):
            np.copyto(self.half, np.moveaxis(tensor, axis, 0)[1])
            np.negative(self.half, out=self.half)
            np.multiply(self.state, 1.0, out=self.state)
        total = 0
        for i in range(60000):
            total += i & 7
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Fastest of REPEATS runs of the kernel, in seconds."""
        return min(self._kernel() for _ in range(REPEATS))
